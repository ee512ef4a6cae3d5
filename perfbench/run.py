"""framedskein benchmark: one closed-loop caller, one process, no threads.

    python3 perfbench/run.py --workload braid-laurent --seed 1 --seconds 25 --trace 0

Each item starts only after the previous one returned.  A run repeats
whole passes over the workload's inputs (see workloads.py) until about
``--seconds`` of item time is measured, checks every output outside the
timed region, and prints every metric by name and unit.  Throughput is
right items over all item time.  The latency quantiles are taken over
each input's mean time across the passes.  On a host whose speed
changes from second to second, one sample of a short item falls wholly
in a fast or a slow phase; the mean over passes moves in proportion to
the share of each, where a median would jump from one to the other.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics, with nothing patched.
``--trace 1`` runs one untraced pass, then the same pass with spans
around the engine's public functions (tracing.py), and gives the
per-layer metrics, the tracing overhead and the layer probes
(probes.py).  Spans and a record of the run are written under
``.bench_out/`` in the checkout.

An item fails when it raises (a budget overrun, ``RecursionError``,
anything else) or when its output fails the check; either way it is
counted in ``failed`` and the run goes on.  ``correct`` is false when any
output was wrong, and the wrong inputs are listed in the run record.
Inputs on which the engine is known to be wrong (``KNOWN_WRONG`` in
workloads.py) are not timed; each run checks them once more and reports
under ``known_wrong`` in the meta line which are still wrong.
The exit code is 0 when the run completes, and 2 when the engine's
source is not beside this directory.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("braid-laurent", "finite-type", "long-chain", "invariance")
SETUP_SAMPLES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=0,
                    help="keep only the first N inputs of a pass (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def import_engine() -> None:
    if not (SRC / "framedskein" / "__init__.py").is_file():
        print(f"framedskein source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import framedskein
    if Path(framedskein.__file__).resolve().parent != SRC / "framedskein":
        print(f"imported framedskein from {framedskein.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def setup(args):
    """Imports, corpus, inputs (parsed), first convention audit."""
    import_engine()
    import workloads
    w, corpus = workloads.make(args.workload, args.seed, args.items)
    diagrams = [inp.build() for inp in w.inputs]
    return w, corpus, diagrams, time.perf_counter() - T0


class Tally:
    def __init__(self):
        self.latencies_ns: dict[int, list[int]] = {}  # right items, by input
        self.busy_ns = 0                              # every attempted item
        self.attempted = 0
        self.ok = 0
        self.raised = 0
        self.wrong = 0
        self.errors: dict[str, int] = {}
        self.wrong_inputs: set[str] = set()

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def run_pass(w, tally: Tally, diagrams=None, counters=None, tracer=None) -> int:
    """One pass over the inputs; returns the item time it took in ns."""
    spent = 0
    for i, inp in enumerate(w.inputs):
        if diagrams is not None:
            d = diagrams[i]
        elif tracer is not None:
            sid = tracer.begin("prepare")
            d = inp.build()
            tracer.end(sid)
        else:
            d = inp.build()
        sid = tracer.begin("item") if tracer is not None else None
        t = time.perf_counter_ns()
        try:
            out = w.run(d, inp, counters)
            raised = None
        except Exception as e:  # an item failure must not stop the run
            raised = type(e).__name__
        dt = time.perf_counter_ns() - t
        if tracer is not None:
            tracer.end(sid)
        spent += dt
        tally.attempted += 1
        tally.busy_ns += dt
        if raised is not None:
            tally.raised += 1
            tally.errors[raised] = tally.errors.get(raised, 0) + 1
            continue
        try:
            ok = w.check(inp, out)
        except Exception:
            ok = False
        if ok:
            tally.ok += 1
            tally.latencies_ns.setdefault(i, []).append(dt)
        else:
            tally.wrong += 1
            tally.wrong_inputs.add(inp.label)
    return spent


def check_known_wrong(w) -> dict:
    """Evaluate and check, untimed, the inputs kept out of the pass."""
    still, right = [], []
    for inp in w.known_wrong:
        try:
            ok = w.check(inp, w.run(inp.build(), inp, None))
        except Exception:
            ok = False
        (right if ok else still).append(inp.label)
    if right:
        print(f"engine now right on {len(right)} input(s) in KNOWN_WRONG; "
              "put them back in the pass", file=sys.stderr)
    return {"checked": len(w.known_wrong), "still_wrong": still,
            "now_right": right}


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process and of fresh ones, each a cold start."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--items", str(args.items)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail_percentile(items: int) -> float:
    """Highest percentile with at least 10 items beyond it."""
    return max(0.0, 100.0 * (1 - 10 / items))


def nearest_rank(sorted_values, pct: float):
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(min(k, len(sorted_values))) - 1]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def end_to_end(args, w, diagrams, setup_s: float):
    tally = Tally()
    passes = 0
    spent = 0
    pass_ns = 0
    limit = args.seconds * 1e9
    while passes == 0 or spent + pass_ns / 2 < limit:
        pass_ns = run_pass(w, tally, diagrams if passes == 0 else None)
        spent += pass_ns
        passes += 1
    lat = sorted(statistics.fmean(v) for v in tally.latencies_ns.values())
    if not lat:
        raise SystemExit(f"no item of {args.workload} returned a right value")
    setups = setup_samples(args, setup_s)
    pct = tail_percentile(len(lat))
    metrics = {
        "throughput_items_per_s": (tally.ok / (tally.busy_ns / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_tail_ms": (nearest_rank(lat, pct) / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "ok_ratio": (tally.ok / tally.attempted, "ratio"),
    }
    info = {"passes": passes, "tail_percentile": pct, "latency_items": len(lat),
            "setup_samples_s": setups, "measured_s": tally.busy_ns / 1e9}
    return tally, metrics, info


def traced(args, w, corpus, diagrams):
    import probes
    import tracing
    import workloads
    tally = Tally()
    untraced_ns = run_pass(w, tally, diagrams)
    counters = workloads.Counters()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_ns = run_pass(w, tally, None, counters, tracer)
    finally:
        wall_ns = tracer.uninstall()
    summary = tracer.summary()
    metrics = tracing.layer_metrics(summary, counters, (untraced_ns, traced_ns))
    metrics.update(probes.run(corpus))
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    info = {"traced_wall_ns": wall_ns, "self_total_ns": summary["self_total_ns"],
            "spans": len(tracer.spans), "untraced_pass_ns": untraced_ns,
            "traced_pass_ns": traced_ns}
    return tally, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    w, corpus, diagrams, setup_s = setup(args)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.trace:
        tally, metrics, info = traced(args, w, corpus, diagrams)
    else:
        tally, metrics, info = end_to_end(args, w, diagrams, setup_s)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "items_per_pass": len(w.inputs), "attempted": tally.attempted,
        "failed": tally.failed, "wrong_values": tally.wrong,
        "errors": tally.errors, "wrong_inputs": sorted(tally.wrong_inputs),
        "fail_ratio": f"{tally.failed}/{tally.attempted}",
        "known_wrong": check_known_wrong(w),
        **info,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": {k: {"value": v, "unit": u}
                                        for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    for k, (v, u) in metrics.items():
        print(f"{k} = {v} {u}")
    correct = tally.wrong == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
