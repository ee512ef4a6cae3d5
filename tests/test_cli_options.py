"""Per-command option sets and the CLI paths they reach."""

import json

import pytest

from framedskein import cli
from framedskein.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_PARSE, main
from framedskein.corpus import generate_corpus, write_corpus
from framedskein.ring import series_from_json, series_to_json
from framedskein.skein import evaluate_series
from framedskein.diagram import parse_diagram

OPTIONS = {
    "eval": {"--in", "--text", "--format", "--ring", "--n", "--order",
             "--normalization", "--node-budget", "--json"},
    "series": {"--in", "--text", "--format", "--n", "--order",
               "--normalization", "--node-budget", "--json"},
    "bracket": {"--in", "--text", "--format", "--json"},
    "verify": {"--suite", "--corpus", "--n", "--order", "--normalization",
               "--seed", "--node-budget", "--json"},
    "corpus": {"--out", "--seed"},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_each_command_has_only_the_options_it_reads():
    commands = next(a for a in cli._build_parser()._actions
                    if a.dest == "command").choices
    got = {name: {s for a in p._actions for s in a.option_strings
                  if s not in ("-h", "--help")}
           for name, p in commands.items()}
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 31


@pytest.mark.parametrize("argv", [
    ("eval", "--text", "O", "--seed", "1"),
    ("bracket", "--text", "O", "--node-budget", "5"),
    ("bracket", "--text", "O", "--order", "2"),
    ("corpus", "--out", "unused", "--json")])
def test_removed_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("eval", "--text", "O", "--seed", "1"),
    ("eval", "--text", "-x"),
    ("eval", "--txt", "O"),
    ("eval", "--text", "O", "--ring", "other"),
    ("verify",),
    ()])
def test_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: framedskein")
    assert captured.err.count("\n") == 1


def test_manifest_counts_are_checked(capsys, tmp_path):
    # a flat diagram listed as resolved would fail its oracle case
    write_corpus([e for e in generate_corpus() if e.n_flat][:1], tmp_path)
    path = tmp_path / "manifest.json"
    path.write_text(path.read_text().replace('"n_flat": 1', '"n_flat": 0'))
    code, out, err = run(capsys, "verify", "--suite", "oracle",
                         "--corpus", str(tmp_path))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error") and err.count("\n") == 1
    assert "n_flat 0" in err


def test_bracket_ignores_the_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("SKEIN_NODE_BUDGET", "lots")
    code, out, _ = run(capsys, "bracket", "--text", "O")
    assert code == EXIT_OK and out == "1\n"


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "--text", "s1 s1",
                       "--format", "braid")
    assert code == EXIT_OK
    assert out.count("\n") == 1 and "A^4" in out and "A^-4" in out


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--text", "s1 s1",
                       "--format", "braid", "--n", "1", "--order", "3",
                       "--json")
    assert code == EXIT_OK
    d = parse_diagram("s1 s1", "braid")
    assert json.loads(out) == series_to_json(evaluate_series(d, 1, 3))


def test_series_honours_normalization(capsys):
    flags = ("--text", "s1 s1", "--format", "braid", "--order", "2",
             "--normalization", "delta")
    code, out, _ = run(capsys, "series", *flags)
    assert code == EXIT_OK
    assert out == "v_0^0 = 4\nv_0^1 = 0\nv_0^2 = 8\n"
    _, ring_out, _ = run(capsys, "eval", "--ring", "series", *flags,
                         "--json")
    coeffs = series_from_json(json.loads(ring_out)).coeffs
    assert out == "".join(f"v_0^{m} = {c}\n" for m, c in enumerate(coeffs))


def test_finite_type_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "finite-type", "--json")
    assert code == EXIT_OK
    cases = json.loads(out)["cases"]
    assert len(cases) == 60 and all(c["pass"] for c in cases)
    ids = {e.id for e in generate_corpus() if e.n_flat}
    for c in cases:
        entry, n, m = c["id"].rsplit("-", 2)
        assert entry in ids and n in ("n0", "n1") and m[0] == "m"


def test_verify_text_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conventions",
                       "--normalization", "delta")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("ok   audit-laurent-delta: audit clean (")
    assert lines[1].startswith("ok   audit-series-delta: audit clean (")
    assert lines[2] == "suite conventions: pass (2 cases)"


def test_oracle_suite_runs_under_the_node_budget(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle",
                       "--node-budget", "1", "--json")
    assert code == EXIT_FAIL
    cases = json.loads(out)["cases"]
    # Only the unknot fits in one skein-tree node.
    assert [c["id"] for c in cases if c["pass"]] == ["unknot"]
    assert all("node budget of 1" in c["detail"]
               for c in cases if not c["pass"])


def test_out_of_memory_in_verify_is_resource_error(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "convention_audit", exhausted)
    code, out, err = run(capsys, "verify", "--suite", "conventions")
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("resource error") and err.count("\n") == 1


@pytest.mark.parametrize("manifest", ["{not json", "[3]", '[{"id": "x"}]'])
def test_malformed_manifest_is_one_line(capsys, tmp_path, manifest):
    write_corpus(generate_corpus()[:2], tmp_path)
    (tmp_path / "manifest.json").write_text(manifest)
    code, out, err = run(capsys, "verify", "--suite", "oracle",
                         "--corpus", str(tmp_path))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error") and err.count("\n") == 1
    assert "manifest.json" in err


@pytest.mark.parametrize("name", ["outside.txt", "abs", "../corp2/unknot.pd"])
def test_manifest_reads_no_file_outside_the_corpus(capsys, tmp_path, name):
    (tmp_path / "outside.txt").write_text("secret line\n")
    write_corpus(generate_corpus()[:1], tmp_path / "corp2")
    corp = tmp_path / "corp"
    manifest = write_corpus(generate_corpus()[:1], corp)
    rows = json.loads(manifest.read_text())
    rows[0]["file"] = {"outside.txt": "../outside.txt",
                       "abs": str(tmp_path / "outside.txt")}.get(name, name)
    manifest.write_text(json.dumps(rows))
    code, out, err = run(capsys, "verify", "--suite", "oracle",
                         "--corpus", str(corp))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error") and err.count("\n") == 1
    assert "secret" not in err
