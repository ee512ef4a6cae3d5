import json

import pytest

from framedskein import cli
from framedskein.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from framedskein.ring import laurent_from_json, series_from_json
from framedskein.skein import evaluate_laurent, evaluate_series
from framedskein.diagram import parse_diagram, serialize_pd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_laurent_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--text", "s1 s1",
                           "--format", "braid", "--json")
        assert code == EXIT_OK
        got = laurent_from_json(json.loads(out))
        assert got == evaluate_laurent(parse_diagram("s1 s1", "braid"))

    def test_series_ring(self, capsys):
        code, out, _ = run(capsys, "eval", "--text", "s1 s1",
                           "--format", "braid", "--ring", "series",
                           "--n", "0", "--order", "4", "--json")
        assert code == EXIT_OK
        got = series_from_json(json.loads(out))
        assert got == evaluate_series(parse_diagram("s1 s1", "braid"), 0, 4)

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--text", "O")
        assert code == EXIT_OK and out.strip() == "1"

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "d.pd"
        f.write_text(serialize_pd(parse_diagram("s1", "braid")))
        code, out, _ = run(capsys, "eval", "--in", str(f))
        assert code == EXIT_OK
        assert out.strip() == str(evaluate_laurent(
            parse_diagram("s1", "braid")))


class TestSeriesCommand:
    def test_prints_coefficients(self, capsys):
        code, out, _ = run(capsys, "series", "--text", "O", "--n", "1",
                           "--order", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "v_1^0 = 1"
        assert len(lines) == 4


class TestBracket:
    def test_hopf(self, capsys):
        code, out, _ = run(capsys, "bracket", "--text", "s1 s1",
                           "--format", "braid", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"-4": -1, "4": -1}


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "--text", "not a diagram")
        assert code == EXIT_PARSE and "parse error" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "eval", "--text", "s1 s2^-1 s1 s2^-1",
                           "--format", "braid", "--node-budget", "2")
        assert code == EXIT_BUDGET and "budget" in err

    def test_gauss_repeated_visit(self, capsys):
        code, out, err = run(capsys, "eval", "--text", "O1+ U1+\nO1+ U1+",
                             "--format", "gauss")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("parse error") and err.count("\n") == 1

    def test_non_planar_pd(self, capsys):
        # a perfect matching whose Euler count fails
        code, out, err = run(capsys, "eval", "--text",
                             "X[1,1,2,2]\nX[3,4,3,4]")
        assert code == EXIT_PARSE == 2 and out == ""
        assert err.startswith("parse error: diagram is not planar")
        assert err.count("\n") == 1

    def test_short_pd_line(self, capsys):
        code, out, err = run(capsys, "eval", "--text", "X")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("parse error") and err.count("\n") == 1

    def test_malformed_braid_number(self, capsys):
        code, out, err = run(capsys, "eval", "--text", "s1_0",
                             "--format", "braid")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("parse error") and err.count("\n") == 1

    def test_parse_error_position_once(self, capsys):
        code, _, err = run(capsys, "eval", "--text", "X[1,2")
        assert code == EXIT_PARSE
        assert err.count("position") == 1

    @pytest.mark.parametrize("command", ["eval", "series", "bracket"])
    @pytest.mark.parametrize("text", ["F[1,2,2,1]", ""])
    def test_diagram_error_is_input_error(self, capsys, command, text):
        code, out, err = run(capsys, command, "--text", text)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("input error") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "series", "bracket"])
    @pytest.mark.parametrize("text", ["", " \n\t "])
    def test_empty_braid_word_is_input_error(self, capsys, command, text):
        # as an empty PD or Gauss text is; no tokens is no diagram
        code, out, err = run(capsys, command, "--text", text,
                             "--format", "braid")
        assert code == EXIT_PARSE and out == ""
        assert err == "input error: empty diagram has no invariant value\n"

    def test_idle_strands_of_a_braid_word_are_free_loops(self, capsys):
        code, out, _ = run(capsys, "eval", "--text", "s1^0",
                           "--format", "braid")
        assert code == EXIT_OK
        assert out == run(capsys, "eval", "--text", "O\nO")[1]

    def test_budget_env_var_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEIN_NODE_BUDGET", "lots")
        code, out, err = run(capsys, "eval", "--text", "O")
        assert code == EXIT_PARSE and out == ""
        assert "SKEIN_NODE_BUDGET" in err and err.count("\n") == 1

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEIN_NODE_BUDGET", "2")
        code, _, _ = run(capsys, "eval", "--text", "s1 s2^-1 s1 s2^-1",
                         "--format", "braid")
        assert code == EXIT_BUDGET

    @pytest.mark.parametrize("argv", [
        ("eval", "--ring", "series"), ("series",)])
    def test_negative_order_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--text", "O", "--order", "-1")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("input error") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, env", [
        (("eval", "--text", "O", "--node-budget", "-1"), None),
        (("eval", "--text", "O", "--node-budget", "0"), None),
        (("eval", "--text", "O"), "0"),
        (("verify", "--suite", "oracle", "--node-budget", "-3"), None)])
    def test_non_positive_budget_is_input_error(self, capsys, monkeypatch,
                                                argv, env):
        if env is not None:
            monkeypatch.setenv("SKEIN_NODE_BUDGET", env)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("input error") and err.count("\n") == 1
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ("eval", "--in"), ("verify", "--suite", "oracle", "--corpus")])
    def test_unreadable_file_is_input_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, str(tmp_path / "missing"))
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("input error") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("eval", "--in"), ("verify", "--suite", "oracle", "--corpus")])
    def test_file_not_utf8_is_parse_error(self, capsys, tmp_path, argv):
        from framedskein.corpus import generate_corpus, write_corpus
        rows = json.loads(write_corpus(generate_corpus()[:2], tmp_path)
                          .read_text())
        bad = tmp_path / rows[1]["file"]
        bad.write_bytes(b"\xffX[1,2,2,1]\n")
        path = bad if argv[0] == "eval" else tmp_path
        code, out, err = run(capsys, *argv, str(path))
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("parse error") and err.count("\n") == 1
        assert bad.name in err and "UTF-8" in err

    def test_out_of_memory_is_resource_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "evaluate", exhausted)
        code, out, err = run(capsys, "eval", "--text", "O")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("resource error") and err.count("\n") == 1

    def test_bad_normalization_fails_audit(self, capsys):
        code, _, err = run(capsys, "eval", "--text", "s1",
                           "--format", "braid",
                           "--normalization", "prop42")
        assert code == EXIT_FAIL and "audit" in err


class TestVerify:
    def test_conventions_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "conventions",
                           "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pass"] is True
        assert report["suite"] == "conventions"
        assert all(set(c) == {"id", "pass", "detail", "ms"}
                   for c in report["cases"])

    @pytest.mark.parametrize("normalization", ["unit", "prop42"])
    def test_conventions_suite_reads_no_corpus(self, capsys, monkeypatch,
                                               tmp_path, normalization):
        def strip(out):
            report = json.loads(out)
            for c in report["cases"]:
                c.pop("ms")
            return report

        def no_corpus(seed):
            raise AssertionError("the corpus was generated")
        monkeypatch.setattr(cli.corpus_mod, "_cache", {})
        monkeypatch.setattr(cli.corpus_mod, "generate_corpus", no_corpus)
        argv = ("verify", "--suite", "conventions",
                "--normalization", normalization, "--json")
        code, out, err = run(capsys, *argv)
        assert err == ""
        (tmp_path / "manifest.json").write_bytes(b"\xff\xfe")
        (tmp_path / "k.pd").write_bytes(b"\xff")
        for corpus in (tmp_path / "missing", tmp_path):
            got = run(capsys, *argv, "--corpus", str(corpus))
            assert (got[0], strip(got[1]), got[2]) == (code, strip(out), err)

    def test_prop42_conventions_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "conventions",
                           "--normalization", "prop42", "--json")
        assert code == EXIT_FAIL
        assert json.loads(out)["pass"] is False

    def test_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["cases"]) >= 50

    def test_deterministic_modulo_timing(self, capsys):
        def strip(report):
            for c in report["cases"]:
                c.pop("ms")
            return report

        _, out1, _ = run(capsys, "verify", "--suite", "invariance",
                         "--seed", "5", "--json")
        _, out2, _ = run(capsys, "verify", "--suite", "invariance",
                         "--seed", "5", "--json")
        assert strip(json.loads(out1)) == strip(json.loads(out2))

    def test_explicit_corpus_dir(self, capsys, tmp_path):
        from framedskein.corpus import generate_corpus, write_corpus
        write_corpus(generate_corpus(7)[:6], tmp_path)
        code, out, _ = run(capsys, "verify", "--suite", "cross-ring",
                           "--corpus", str(tmp_path), "--json")
        assert code == EXIT_OK
        assert len(json.loads(out)["cases"]) >= 1

    def test_cross_ring_skips_flat_entries(self, capsys, tmp_path):
        from framedskein.corpus import default_corpus, write_corpus
        entries = default_corpus()
        flat = next(e for e in entries if e.n_flat)
        resolved = [e for e in entries
                    if not e.n_flat and e.n_crossings <= 4][:2]
        write_corpus(resolved[:1] + [flat] + resolved[1:], tmp_path)
        code, out, _ = run(capsys, "verify", "--suite", "cross-ring",
                           "--corpus", str(tmp_path), "--json")
        report = json.loads(out)
        ids = [c["id"] for c in report["cases"]]
        assert flat.id not in ids
        assert ids == [e.id for e in resolved]
        assert report["pass"] and code == EXIT_OK


    def test_cross_ring_mismatch_fails(self, capsys, monkeypatch, tmp_path):
        from framedskein.corpus import generate_corpus, write_corpus
        write_corpus(generate_corpus(7)[:6], tmp_path)
        bridge = cli.laurent_to_series

        def wrong(p, n, order):
            return bridge(p + p, n, order)
        monkeypatch.setattr(cli, "laurent_to_series", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "cross-ring",
                           "--corpus", str(tmp_path), "--json")
        assert code == EXIT_FAIL
        cases = json.loads(out)["cases"]
        assert cases and all(not c["pass"] and c["detail"] == "mismatch at n=0"
                             for c in cases)

    def test_finite_type_checks_more_than_four_flat_points(self, capsys,
                                                           tmp_path):
        from framedskein.corpus import _entry, default_corpus, write_corpus

        def cases(entries, path):
            write_corpus(entries, path)
            code, out, _ = run(capsys, "verify", "--suite", "finite-type",
                               "--corpus", str(path), "--json")
            assert code == EXIT_OK
            report = json.loads(out)["cases"]
            for c in report:
                c.pop("ms")
            return report

        d = parse_diagram("s1 s2 s1 s2 s1", "braid")
        for c in range(5):
            d = d.make_flat(c)
        five = _entry("flat5", d)
        assert five.n_flat == 5
        flat = [e for e in default_corpus()
                if 1 <= e.n_flat <= 2 and e.n_crossings <= 6][:3]
        assert len(flat) == 3
        without = cases(flat, tmp_path / "without")
        got = cases(flat[:1] + [five] + flat[1:], tmp_path / "with")
        mine = [c for c in got if c["id"].startswith("flat5-")]
        assert [c["id"] for c in mine if "-m" in c["id"]] == \
            [f"flat5-n{n}-m{m}" for n in (0, 1) for m in range(5)]
        assert [c["id"] for c in mine if c["id"].endswith("-top")] == \
            ["flat5-n0-top", "flat5-n1-top"]
        assert all(c["pass"] for c in mine)
        assert [c for c in got if c not in mine] == without
        assert len(without) >= 3


class TestCorpusCommand:
    def test_generates_manifest(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--out", str(tmp_path))
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest) == len(list(tmp_path.glob("*.pd")))
