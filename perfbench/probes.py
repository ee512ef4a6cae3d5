"""Fixed-input micro-timings of single layers, and the criterion-10
reference counts.  Each timing is the median of several calls."""

from __future__ import annotations

import random
import statistics
import time

from framedskein import diagram as fs_diagram
from framedskein import perturb as fs_perturb
from framedskein import ring as fs_ring
from framedskein import skein as fs_skein

import workloads

# The first word of the criterion-10 acceptance test: a 4-braid with 16
# crossings whose Laurent evaluation stores 683 memo nodes, 159 of them
# branch points.
C10_WORD = "s3 s2 s2 s1^-1 s2 s1 s2^-1 s3^-1 s2 s1^-1 s3^-1 s2^-1 s1^-1 s2 s1 s1"


def _median_ns(fn, reps: int, prepare=lambda: None) -> float:
    times = []
    for _ in range(reps):
        arg = prepare()
        t = time.perf_counter_ns()
        fn(arg)
        times.append(time.perf_counter_ns() - t)
    return statistics.median(times)


def _laurent40(shift: int) -> fs_ring.LaurentPoly:
    return fs_ring.LaurentPoly({
        (i % 8 - 4, i // 8 - 2): fs_ring.GaussRational.of(i + shift, i % 3)
        for i in range(40)})


def run(corpus) -> dict:
    """Probe metrics as (value, unit) pairs."""
    p, q = _laurent40(1), _laurent40(7)
    s = fs_ring.series_exp(1, 8) + fs_ring.series_exp(-2, 8)
    t = fs_ring.series_exp(3, 8)
    eight = next(e for e in corpus if e.n_flat == 0 and e.n_crossings == 8)
    out = {
        "probe.ring_laurent_mul40_us": (
            _median_ns(lambda _: p * q, 15) / 1e3, "us"),
        "probe.ring_series_mul8_us": (
            _median_ns(lambda _: s * t, 51) / 1e3, "us"),
        "probe.code_c10_ms": (
            _median_ns(lambda d: d.canonical_code(), 9,
                       lambda: fs_diagram.parse_diagram(C10_WORD, "braid")) / 1e6,
            "ms"),
        "probe.perturb_step_ms": (
            _median_ns(lambda d: fs_perturb.random_perturbation(
                d, random.Random(0), steps=1, max_crossings=11), 9,
                lambda: fs_diagram.parse_diagram(eight.pd, "pd")) / 1e6,
            "ms"),
    }
    counters = workloads.Counters()
    memo = workloads.CountingMemo(counters)
    fs_skein.evaluate(fs_diagram.parse_diagram(C10_WORD, "braid"),
                      fs_skein.default_params("laurent"), memo=memo,
                      on_expand=counters.on_expand)
    out["probe.c10_memo_nodes"] = (len(memo), "count")
    out["probe.c10_branch_points"] = (counters.expansions // 3, "count")
    return out
