"""Command-line front end: eval, series, bracket, verify, corpus.

Exit codes: 0 success, 1 verification failure, 2 parse or input error
(including an unreadable file, a negative ``--order`` or a node budget
below 1), 3 node budget exceeded or out of memory.  Inside ``verify`` a
budget overrun fails its case instead.  All output is deterministic for
a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import zlib

from . import corpus as corpus_mod
from .diagram import DiagramError, ParseError, parse_diagram
from .oracle import (
    bracket_statesum,
    laurent_to_series,
    parity_check,
    so1_check,
    so2_check,
    so4_check,
    specialize_to_bracket,
    z_degree_check,
)
from .perturb import random_perturbation
from .ring import GaussRational, laurent_to_json, series_to_json
from .singular import (
    derived_invariant,
    finite_type_vanishing,
    son_weight_system,
)
from .skein import (
    DEFAULT_NODE_BUDGET,
    AuditError,
    BudgetExceededError,
    convention_audit,
    default_params,
    evaluate,
    evaluate_laurent,
    evaluate_series,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

SUITES = ("invariance", "oracle", "finite-type", "conventions", "cross-ring")


def _node_budget(option: int | None) -> int:
    if option is not None:
        return option
    env = os.environ.get("SKEIN_NODE_BUDGET")
    if env is None:
        return DEFAULT_NODE_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ParseError(
            f"SKEIN_NODE_BUDGET is not an integer: {env!r}") from None


def _read_input(args):
    if args.text is not None:
        return parse_diagram(args.text, args.format)
    path = getattr(args, "in")
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e}") from None
    return parse_diagram(text, args.format)


def cmd_eval(args) -> int:
    """``eval`` in either ring, and ``series``, which is ``eval --ring
    series`` printed one coefficient a line."""
    d = _read_input(args)
    params = default_params(args.ring, n=args.n, order=args.order,
                            normalization=args.normalization)
    val = evaluate(d, params, budget=args.node_budget)
    if args.json:
        to_json = series_to_json if args.ring == "series" else laurent_to_json
        print(json.dumps(to_json(val)))
    elif args.command == "series":
        for m, c in enumerate(val.coeffs):
            print(f"v_{args.n}^{m} = {c}")
    else:
        print(val)
    return EXIT_OK


def cmd_bracket(args) -> int:
    d = _read_input(args)
    b = bracket_statesum(d)
    if args.json:
        print(json.dumps({str(k): v for k, v in sorted(b.terms.items())}))
    else:
        print(b)
    return EXIT_OK


def _corpus_entries(args):
    if args.corpus is not None:
        return corpus_mod.load_corpus(args.corpus)
    return corpus_mod.default_corpus(args.seed)


def _suite_cases(args):
    budget = args.node_budget
    suite = args.suite

    if suite == "conventions":
        presets = [("laurent", args.normalization)]
        if args.normalization != "prop42":
            presets.append(("series", args.normalization))
        for ring, norm in presets:
            def run(ring=ring, norm=norm):
                params = default_params(ring, n=args.n, order=args.order,
                                        normalization=norm)
                report = convention_audit(params)
                return report.ok, "; ".join(report.failures) or "audit clean"
            yield f"audit-{ring}-{norm}", run
        return

    # Every other suite reads the corpus.
    entries = _corpus_entries(args)

    if suite == "invariance":
        rng = random.Random(args.seed)
        for e in entries:
            if e.n_flat:
                continue
            def run(e=e, moves=rng.randint(1, 3)):
                d = e.diagram()
                case_seed = args.seed ^ zlib.crc32(e.id.encode())
                p = random_perturbation(d, random.Random(case_seed),
                                        steps=moves, max_crossings=11)
                ok = evaluate_laurent(d, budget) == evaluate_laurent(p, budget)
                ok = ok and (evaluate_series(d, args.n, 6, budget=budget)
                             == evaluate_series(p, args.n, 6, budget=budget))
                return ok, f"{d.n_crossings}->{p.n_crossings} crossings"
            yield e.id, run
        return

    if suite == "oracle":
        for e in entries:
            if e.n_flat:
                continue
            def run(e=e):
                d = e.diagram()
                ok = (specialize_to_bracket(evaluate_laurent(d, budget))
                      == bracket_statesum(d))
                return ok, f"{e.n_crossings} crossings"
            yield e.id, run

            # The engine-free lines through the two-variable value.
            def lines(e=e):
                d = e.diagram()
                p = evaluate_laurent(d, budget)
                failed = [name for name, ok in (
                    ("parity", parity_check(p, d)), ("so1", so1_check(p)),
                    ("so2", so2_check(p, d)),
                    ("so4", so4_check(p, bracket_statesum(d))),
                    ("z-degree", z_degree_check(p, d))) if not ok]
                if failed:
                    return False, "failed: " + ", ".join(failed)
                return True, "parity, so1, so2, so4, z-degree"
            yield f"{e.id}-lines", lines
        return

    if suite == "finite-type":
        for e in entries:
            k = e.n_flat
            if not k:
                continue
            # One diagram for all of the entry's cases, so that each case
            # replays the skein trees of its resolutions (see ``skein``).
            sd = e.diagram()
            for n in (0, 1):
                for m in range(min(k, args.order + 1)):
                    def run(sd=sd, k=k, n=n, m=m):
                        ok = finite_type_vanishing(n, m, sd, budget=budget)
                        return ok, f"k={k} n={n} m={m}"
                    yield f"{e.id}-n{n}-m{m}", run

                # The top coefficient, at order k whatever --order says,
                # against the so(N) weight system with N = n + 2.
                def top(sd=sd, k=k, n=n):
                    F = lambda d: evaluate_series(d, n, k, budget=budget)
                    got = derived_invariant(F, sd).value.coeffs[k]
                    want = 2 ** k * son_weight_system(sd, n + 2)
                    detail = f"k={k} n={n} x^{k}: {got}"
                    if got != GaussRational.of(want):
                        return False, f"{detail}, weight system {want}"
                    return True, detail
                yield f"{e.id}-n{n}-top", top
        return

    if suite == "cross-ring":
        for e in entries:
            if e.n_flat:
                continue
            def run(e=e):
                d = e.diagram()
                p = evaluate_laurent(d, budget)
                for n in (0, 1, 2):
                    if laurent_to_series(p, n, args.order) != \
                            evaluate_series(d, n, args.order, budget=budget):
                        return False, f"mismatch at n={n}"
                return True, "n=0,1,2"
            yield e.id, run


def cmd_verify(args) -> int:
    cases = []
    all_ok = True
    for case_id, run in _suite_cases(args):
        t0 = time.monotonic()
        try:
            ok, detail = run()
        except MemoryError:
            raise
        except Exception as e:
            ok, detail = False, f"error: {e}"
        ms = int((time.monotonic() - t0) * 1000)
        all_ok = all_ok and ok
        cases.append({"id": case_id, "pass": ok, "detail": detail, "ms": ms})
    report = {"suite": args.suite, "cases": cases, "pass": all_ok}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for c in cases:
            mark = "ok  " if c["pass"] else "FAIL"
            print(f"{mark} {c['id']}: {c['detail']} ({c['ms']} ms)")
        print(f"suite {args.suite}: {'pass' if all_ok else 'FAIL'} "
              f"({len(cases)} cases)")
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_corpus(args) -> int:
    entries = corpus_mod.generate_corpus(args.seed)
    path = corpus_mod.write_corpus(entries, args.out)
    print(f"wrote {len(entries)} diagrams, manifest at {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, as ``main`` reports the other
    input errors; subcommand parsers take the class of their parent."""

    def error(self, message):
        print(f"input error: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="framedskein")
    sub = top.add_subparsers(dest="command", required=True)

    def parent():
        return argparse.ArgumentParser(add_help=False)

    diagram = parent()
    source = diagram.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", help="diagram file")
    source.add_argument("--text", help="inline diagram text")
    diagram.add_argument("--format", choices=("pd", "gauss", "braid"),
                         default="pd")
    params = parent()
    params.add_argument("--n", type=int, default=0)
    params.add_argument("--order", type=int, default=8)
    params.add_argument("--normalization",
                        choices=("unit", "delta", "prop42"), default="unit")
    budget = parent()
    budget.add_argument("--node-budget", type=int, default=None)
    as_json = parent()
    as_json.add_argument("--json", action="store_true")
    seed = parent()
    seed.add_argument("--seed", type=int, default=corpus_mod.DEFAULT_SEED)

    def command(name, help, parents, func, **defaults):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func, **defaults)
        return p

    p = command("eval", "evaluate the invariant",
                [diagram, params, budget, as_json], cmd_eval)
    p.add_argument("--ring", choices=("laurent", "series"), default="laurent")
    command("series", "print the finite-type coefficients",
            [diagram, params, budget, as_json], cmd_eval, ring="series")
    command("bracket", "exhaustive state-sum oracle", [diagram, as_json],
            cmd_bracket)
    p = command("verify", "run a verification suite",
                [params, seed, budget, as_json], cmd_verify)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--corpus", help="corpus directory (default: generated)")
    p = command("corpus", "generate the diagram corpus", [seed], cmd_corpus)
    p.add_argument("--out", required=True)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "order" in args and args.order < 0:
        print("input error: --order must be non-negative", file=sys.stderr)
        return EXIT_PARSE
    try:
        if "node_budget" in args:
            args.node_budget = _node_budget(args.node_budget)
            if args.node_budget < 1:
                print("input error: the node budget must be at least 1",
                      file=sys.stderr)
                return EXIT_PARSE
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DiagramError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except AuditError as e:
        print(f"convention audit failed: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
