"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from framedskein import diagram, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("diagram.canonical_code_calls", "diagram.construct_calls",
          "ring.mul_calls", "ring.pow_calls", "skein.nodes",
          "skein.branch_points", "skein.memo_hits", "skein.red_kink",
          "skein.red_r2", "skein.red_loop", "skein.red_split",
          "perturb.candidates_built", "singular.resolutions",
          "probe.c10_memo_nodes", "probe.c10_branch_points")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout.splitlines()


def result(workload: str, trace: int, seed: int = 3) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "0.1", "--items", "4",
                        "--trace", str(trace))
    assert code == 0, lines[-5:]
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 4
    # The engine may be wrong on some inputs; the benchmark must say so.
    meta = record(workload, trace, seed)["meta"]
    assert out["correct"] == (meta["wrong_values"] == 0)
    assert out["failed"] == meta["wrong_values"] + sum(meta["errors"].values())
    assert len(meta["wrong_inputs"]) <= meta["wrong_values"]
    return out


def record(workload: str, trace: int, seed: int) -> dict:
    path = ROOT / ".bench_out" / f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def assert_metrics(out: dict, spec_key: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert set(out["metrics"]) == set(want)
    for name, unit in want.items():
        assert out["metrics"][name]["unit"] == unit
        assert isinstance(out["metrics"][name]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(workload, 0)
    assert_metrics(out, "end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    first = result(workload, 1)
    assert_metrics(first, "per_layer")
    meta = record(workload, 1, 3)["meta"]
    assert meta["self_total_ns"] <= meta["traced_wall_ns"]
    second = result(workload, 1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == \
            second["metrics"][name]["value"], name
    # reference point of the criterion-10 word in the ROADMAP baseline
    assert first["metrics"]["probe.c10_memo_nodes"]["value"] == 683
    assert first["metrics"]["probe.c10_branch_points"]["value"] == 159


def test_known_wrong_inputs_are_checked_every_run():
    result("braid-laurent", 0)
    known = record("braid-laurent", 0, 3)["meta"]["known_wrong"]
    assert known["checked"] == len(workloads.KNOWN_WRONG)
    assert sorted(known["still_wrong"] + known["now_right"]) == \
        sorted(workloads.KNOWN_WRONG)


def test_goldens_match_the_oracle_on_small_words():
    goldens = workloads.load_goldens()
    small = [w for w in workloads.braid_catalogue() if len(w) == 12][:3]
    for letters in small:
        text = workloads.word_text(letters)
        got = oracle.bracket_statesum(diagram.parse_diagram(text, "braid"))
        assert got.terms == goldens[text]


def test_torus_closed_form_small_cases():
    # F_1 is the positive kink; F_2 is the value of "s1 s1" in the README.
    assert workloads.torus_closed_form(1) == {(1, 0): 1}
    f2 = workloads.torus_closed_form(2)
    assert f2 == {(0, 0): 1, (1, -1): 1, (-1, -1): -1, (1, 1): 1, (-1, 1): -1}


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "braid-laurent", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
