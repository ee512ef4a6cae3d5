"""Spans around calls into the engine's public functions.

The tracer replaces functions and methods by wrappers that record one
span per call (name, start, end, parent) in memory, and puts the
originals back in :meth:`Tracer.uninstall`.  Only the traced process
installs it.  A layer's self time is the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from framedskein import diagram as fs_diagram
from framedskein import perturb as fs_perturb
from framedskein import ring as fs_ring
from framedskein import singular as fs_singular
from framedskein import skein as fs_skein

FD = fs_diagram.FramedDiagram

# (owner, attribute, span name, wraps a generator)
TARGETS = [
    (fs_skein, "evaluate", "evaluate", False),
    (FD, "canonical_code", "canonical_code", False),
    (FD, "faces", "faces", False),
    (FD, "smooth", "smooth", False),
    (FD, "switch_crossing", "switch_crossing", False),
    (FD, "__init__", "construct", False),
    (fs_skein, "detect_reduction", "detect_reduction", False),
    (fs_skein, "apply_reduction", "apply_reduction", False),
    (fs_diagram, "parse_diagram", "parse", False),
    (fs_perturb, "r2_insertions", "r2_insertions", True),
    (fs_perturb, "r2_removals", "r2_removals", True),
    (fs_perturb, "r3_moves", "r3_moves", True),
    (fs_perturb, "random_perturbation", "random_perturbation", False),
    (fs_singular, "derived_invariant", "derived_invariant", False),
]
for _cls in (fs_ring.LaurentPoly, fs_ring.PowerSeries):
    for _op in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "inverse"):
        TARGETS.append((_cls, _op, f"ring{_op}", False))

REDUCTION_KINDS = {"kink": "skein.red_kink", "none": "skein.red_r2",
                   "delta": "skein.red_loop", "split": "skein.red_split"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent]
        self.stack: list[int] = []
        self.reductions: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.installed_ns = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([self._id(name), time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrapper(self, orig, name: str):
        begin, end = self.begin, self.end
        if name == "apply_reduction":
            reductions = self.reductions

            def wrapper(*args, **kwargs):
                idx = begin(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    end(idx)
                reductions[out[1].kind] += 1
                return out
            return wrapper

        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                end(idx)
        return wrapper

    def _gen_wrapper(self, orig, name: str):
        # The span covers the consumption of the generator, which the
        # caller does at once (``list.extend``).
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                yield from orig(*args, **kwargs)
            finally:
                end(idx)
        return wrapper

    def install(self) -> None:
        for owner, attr, name, is_gen in TARGETS:
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            make = self._gen_wrapper if is_gen else self._wrapper
            setattr(owner, attr, make(orig, name))
            self._undo.append((owner, attr, orig))
        self.installed_ns = time.perf_counter_ns()

    def uninstall(self) -> int:
        """Restore every original; returns the traced wall time in ns."""
        wall = time.perf_counter_ns() - self.installed_ns
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return wall

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": self.spans},
                                   separators=(",", ":")))

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Self and inclusive time and call count per span name, for the
        spans under ``item`` roots, plus the few cross-span counts the
        per-layer metrics need."""
        spans, names = self.spans, self.names
        n = len(spans)
        child = [0] * n
        root = [0] * n
        in_perturb = [False] * n
        for i, (nid, start, stop, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += stop - start
                root[i] = root[parent]
                in_perturb[i] = in_perturb[parent]
            else:
                root[i] = i
            if names[nid] == "random_perturbation":
                in_perturb[i] = True
        item = self._ids.get("item", -2)
        prepare = self._ids.get("prepare", -2)
        self_ns: dict[str, int] = defaultdict(int)
        incl_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        parse_ns = 0
        self_total = 0
        candidates = 0
        resolutions = 0
        for i, (nid, start, stop, parent) in enumerate(spans):
            dur = stop - start
            self_total += dur - child[i]
            rid = spans[root[i]][0]
            name = names[nid]
            if rid == prepare:
                if name == "parse":
                    parse_ns += dur
                continue
            if rid != item:
                continue
            self_ns[name] += dur - child[i]
            incl_ns[name] += dur
            calls[name] += 1
            if name == "construct" and in_perturb[i]:
                candidates += 1
            if name == "evaluate" and parent >= 0 \
                    and names[spans[parent][0]] == "derived_invariant":
                resolutions += 1
        return {"self_ns": self_ns, "incl_ns": incl_ns, "calls": calls,
                "parse_ns": parse_ns, "self_total_ns": self_total,
                "candidates": candidates, "resolutions": resolutions,
                "reductions": dict(self.reductions)}


def layer_metrics(s: dict, counters, passes_wall_ns: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced pass, as (value, unit) pairs."""
    self_ms = {k: v / 1e6 for k, v in s["self_ns"].items()}
    incl_ms = {k: v / 1e6 for k, v in s["incl_ns"].items()}
    calls = s["calls"]

    def ms(*names):
        return sum(self_ms.get(k, 0.0) for k in names)

    nodes = counters.memo_inserts
    hits = counters.memo_hits
    red = s["reductions"]
    untraced_ns, traced_ns = passes_wall_ns
    out = {
        "diagram.canonical_code_ms": (ms("canonical_code"), "ms"),
        "diagram.canonical_code_calls": (calls["canonical_code"], "count"),
        "diagram.detect_reduction_ms": (ms("detect_reduction"), "ms"),
        "diagram.faces_ms": (ms("faces"), "ms"),
        "diagram.apply_reduction_ms": (ms("apply_reduction"), "ms"),
        "diagram.smooth_ms": (ms("smooth", "switch_crossing"), "ms"),
        "diagram.construct_ms": (ms("construct"), "ms"),
        "diagram.construct_calls": (calls["construct"], "count"),
        "diagram.parse_ms": (s["parse_ns"] / 1e6, "ms"),
        "ring.mul_ms": (ms("ring__mul__"), "ms"),
        "ring.mul_calls": (calls["ring__mul__"], "count"),
        "ring.addsub_ms": (ms("ring__add__", "ring__sub__", "ring__neg__"), "ms"),
        "ring.pow_ms": (ms("ring__pow__", "ringinverse"), "ms"),
        "ring.pow_calls": (calls["ring__pow__"], "count"),
        "skein.self_ms": (ms("evaluate"), "ms"),
        "skein.eval_ms": (incl_ms.get("evaluate", 0.0), "ms"),
        "skein.nodes": (nodes, "count"),
        "skein.branch_points": (counters.expansions // 3, "count"),
        "skein.memo_hits": (hits, "count"),
        "skein.memo_hit_ratio": (hits / (hits + nodes) if nodes else 0.0, "ratio"),
        "skein.ms_per_node": (incl_ms.get("evaluate", 0.0) / nodes if nodes else 0.0,
                              "ms/node"),
        "perturb.generate_ms": (ms("random_perturbation", "r2_insertions",
                                   "r2_removals", "r3_moves"), "ms"),
        "perturb.total_ms": (incl_ms.get("random_perturbation", 0.0), "ms"),
        "perturb.candidates_built": (s["candidates"], "count"),
        "perturb.useful_ratio": (counters.rng_draws / s["candidates"]
                                 if s["candidates"] else 0.0, "ratio"),
        "singular.resolutions": (s["resolutions"], "count"),
        "singular.table_ms": (ms("derived_invariant"), "ms"),
        "trace.overhead_ratio": (traced_ns / untraced_ns, "ratio"),
    }
    for kind, metric in REDUCTION_KINDS.items():
        out[metric] = (red.get(kind, 0), "count")
    return out
