import dataclasses
import gc
import inspect
import json
import random
import sys
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein import diagram
from framedskein.corpus import default_corpus
from framedskein.diagram import DiagramError, parse_diagram
from framedskein.oracle import laurent_to_series
from framedskein.ring import (
    I,
    GaussRational,
    LaurentPoly,
    PowerSeries,
    laurent_to_json,
    series_to_json,
)
from framedskein.singular import derived_invariant
from framedskein.skein import (
    AuditError,
    BudgetExceededError,
    MemoTable,
    SkeinParams,
    complexity_bound,
    convention_audit,
    default_params,
    evaluate,
    evaluate_laurent,
    evaluate_series,
    select_crossing,
)


def braid(word):
    return parse_diagram(word, "braid")


A = LaurentPoly.var_a()
Z = LaurentPoly.var_z()
ONE = LaurentPoly.one()


def kink_chain(n, seed):
    """An unknot with ``n`` kinks of random signs on random arcs, and its
    writhe."""
    rng = random.Random(seed)
    d, w = braid("s1"), 1
    for _ in range(n - 1):
        sign = rng.choice((1, -1))
        d = d.add_kink(d.arcs[rng.randrange(len(d.arcs))], sign)
        w += sign
    return d, w


def torus_forms(kmax):
    """Closed forms F_0..F_kmax of the torus closures T(2,k) = s1^k:
    F_k = F_(k-2) + z (F_(k-1) - a^-(k-1)), F_0 = delta, F_1 = a.  The
    forms are int dicts {(deg_a, deg_z): coefficient}: F_200 has 10,202
    terms, too many for LaurentPoly's Fraction sums."""
    forms = [{(0, 0): 1, (1, -1): 1, (-1, -1): -1}, {(1, 0): 1}]
    for k in range(2, kmax + 1):
        form = dict(forms[k - 2])
        for (i, j), c in [*forms[k - 1].items(), ((1 - k, 0), -1)]:
            form[i, j + 1] = form.get((i, j + 1), 0) + c
        forms.append({e: c for e, c in form.items() if c})
    return forms


class TestWorkedExamples:
    def test_unknot_is_one(self):
        assert evaluate_laurent(parse_diagram("O", "pd")) == ONE

    def test_kinks(self):
        assert evaluate_laurent(braid("s1")) == A
        assert evaluate_laurent(braid("s1^-1")) == A ** -1

    def test_hopf_laurent(self):
        expected = ONE + (A - A ** -1) * Z ** -1 + Z * (A - A ** -1)
        assert evaluate_laurent(braid("s1 s1")) == expected

    def test_hopf_series_n0(self):
        got = evaluate_series(braid("s1 s1"), 0, 4)
        expected = PowerSeries(4, [2, 0, 4, 0, Fraction(4, 3)])
        assert got == expected

    def test_unknot_series_any_n(self):
        for n in range(4):
            assert evaluate_series(parse_diagram("O", "pd"), n, 6) == \
                PowerSeries.one(6)


class TestSkeinRelation:
    @given(st.sampled_from(["s1 s1", "s1 s1 s1", "s1 s2^-1 s1 s2^-1",
                            "s1 s2 s1", "s1 s1 s1 s1"]),
           st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_relation_holds_at_every_crossing(self, word, c):
        d = braid(word)
        if c >= d.n_crossings:
            c %= d.n_crossings
        lhs = evaluate_laurent(d) - evaluate_laurent(d.switch_crossing(c))
        rhs = Z * (evaluate_laurent(d.smooth(c, "A"))
                   - evaluate_laurent(d.smooth(c, "B")))
        # the diagram plays the positive role in its own rewrite
        assert lhs == rhs

    def test_disjoint_union_law(self):
        params = default_params("laurent")
        d = braid("s1 s1 s1")
        v = evaluate_laurent(d)
        for k in (1, 2, 3):
            assert evaluate_laurent(d.add_free_loops(k)) == \
                params.delta ** k * v

    def test_selection_independence(self):
        import random
        d = braid("s1 s2^-1 s1 s2^-1 s1")
        expected = evaluate_laurent(d)
        rng = random.Random(5)

        def pick(cur):
            bad = cur.bad_crossings()
            return bad[rng.randrange(len(bad))]

        for _ in range(5):
            got = evaluate(d, default_params("laurent"), memo=MemoTable(),
                           select=pick)
            assert got == expected


class TestNormalizations:
    def test_delta_normalization(self):
        params = default_params("laurent", normalization="delta")
        got = evaluate(parse_diagram("O", "pd"), params)
        assert got == params.delta

    @pytest.mark.parametrize("ring", ["laurent", "series"])
    @pytest.mark.parametrize("name", ["Delta", "bogus", ""])
    def test_unknown_normalization_is_refused(self, ring, name):
        # a misspelt name once gave the unit preset tagged with it
        with pytest.raises(ValueError, match=f"unknown normalization {name!r}"):
            default_params(ring, normalization=name)

    def test_prop42_preset_fails_audit(self):
        params = default_params("laurent", normalization="prop42")
        report = convention_audit(params)
        assert not report.ok
        assert any("consistency identity" in f for f in report.failures)
        with pytest.raises(AuditError):
            evaluate(braid("s1"), params)

    def test_presets_are_integral(self):
        for norm in ("unit", "delta"):
            assert convention_audit(default_params("laurent",
                                                   normalization=norm)).ok
        report = convention_audit(
            default_params("laurent", normalization="prop42"))
        assert report.failures == ["consistency identity violated: "
                                   "alpha - alpha^-1 != z*(delta - 1)"]

    @pytest.mark.parametrize("field, bad", [
        ("delta", ONE + (A - A ** -1) * Z ** -1
         + LaurentPoly.term(Fraction(1, 2), 1, 0)),
        ("unknot_value", LaurentPoly.term(I)),
        ("alpha", A.scale(GaussRational.of(0, 1))),
    ])
    def test_non_integer_laurent_params_refused(self, field, bad):
        params = dataclasses.replace(default_params("laurent"),
                                     **{field: bad})
        report = convention_audit(params)
        assert not report.ok
        assert report.failures[-1].startswith(f"{field} is not in Z")
        with pytest.raises(AuditError, match=field):
            evaluate(braid("s1 s1"), params)

    def test_audit_checks_series_engine_constants(self):
        # fields of n = 1 under n = 2: the public identity still holds,
        # but the engine would recurse with the constants of n = 2
        params = dataclasses.replace(default_params("series", n=1, order=6),
                                     n=2)
        report = convention_audit(params)
        assert not report.ok
        assert "engine constant alpha differs from the field" in \
            report.failures
        assert "engine constant delta differs from the field" in \
            report.failures
        with pytest.raises(AuditError):
            evaluate(braid("s1"), params)

    def test_packed_z_degrees_stay_in_range(self):
        # z -> z^K is a consistent parameter set; the evaluator packs z-
        # degrees into 32 bits and refuses a diagram that could leave them
        K = 2 ** 24
        zk = LaurentPoly.var_z(K)
        params = SkeinParams("laurent", alpha=A, skein_z=zk,
                             delta=ONE + (A - A ** -1) * zk ** -1,
                             unknot_value=ONE, one=ONE)
        hopf = evaluate_laurent(braid("s1 s1"))
        assert evaluate(braid("s1 s1"), params) == LaurentPoly(
            {(da, K * dz): c for (da, dz), c in hopf.terms.items()})
        with pytest.raises(DiagramError, match="packed"):
            evaluate(braid("s1^20"), params)

    def test_audit_catches_wrong_delta_sign(self):
        good = default_params("laurent")
        bad = dataclasses.replace(good, delta=ONE - (A - A ** -1) * Z ** -1)
        report = convention_audit(bad)
        assert not report.ok
        assert good != bad

    def test_audit_refuses_an_alpha_that_is_no_unit(self):
        # 2a is a unit over the rationals, so the public identity can be
        # checked, but not in Z[a^±1, z^±1]
        params = dataclasses.replace(default_params("laurent"),
                                     alpha=LaurentPoly.term(2, 1, 0))
        report = convention_audit(params)
        assert report.failures[-1] == "alpha is not a unit of the integer ring"
        with pytest.raises(AuditError, match="not a unit"):
            evaluate(braid("s1"), params)

    def test_audit_refuses_a_series_ring_without_n(self):
        params = dataclasses.replace(default_params("series", n=1, order=4),
                                     n=None)
        report = convention_audit(params)
        assert report.failures == ["no integer ring for the 'series' ring "
                                   "with n = None"]
        with pytest.raises(AuditError, match="no integer ring"):
            evaluate(braid("s1"), params)


class TestMachinery:
    def test_default_params_cached(self):
        assert default_params("laurent") is default_params("laurent")
        cached = default_params("series", n=1, order=8)
        assert default_params("series", n=1, order=8) is cached
        fresh = default_params.__wrapped__("series", n=1, order=8)
        assert fresh == cached and fresh is not cached
        for word in ("s1 s1", "s1 s1 s1", "s1 s2^-1 s1 s2^-1"):
            assert evaluate_series(braid(word), 1, 8) == \
                evaluate(braid(word), fresh)
        for _ in range(2):  # a failed preset is not cached
            with pytest.raises(AuditError):
                default_params("series", normalization="prop42")

    def test_audited_params_are_not_hashed_again(self, monkeypatch):
        from framedskein import skein
        hashes, audits = [], []
        audit = skein.convention_audit

        def counted_hash(params):
            hashes.append(1)
            return hash((params.ring, params.n, params.order))

        def counted_audit(params):
            audits.append(1)
            return audit(params)
        monkeypatch.setattr(SkeinParams, "__hash__", counted_hash)
        monkeypatch.setattr(skein, "convention_audit", counted_audit)
        monkeypatch.setattr(skein, "_audited", set())
        params = default_params.__wrapped__("series", n=0, order=5)
        evaluate(braid("s1 s1"), params)
        assert audits == [1] and hashes
        hashes.clear()
        for _ in range(3):
            evaluate(braid("s1 s1"), params)
        assert hashes == []
        # an equal object shares the audit and is hashed once to find it
        evaluate(braid("s1 s1"),
                 default_params.__wrapped__("series", n=0, order=5))
        assert audits == [1] and len(hashes) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            evaluate_laurent(braid("s1 s2^-1 s1 s2^-1"), budget=2)

    def test_memo_single_valuedness(self):
        memo = MemoTable()
        memo["k"] = ONE
        memo["k"] = ONE  # same value fine
        with pytest.raises(AssertionError):
            memo["k"] = A

    def test_criterion10_word_counts(self):
        # the memo and the skein tree of the first criterion-10 word
        word = ("s3 s2 s2 s1^-1 s2 s1 s2^-1 s3^-1 s2 s1^-1 s3^-1 s2^-1 "
                "s1^-1 s2 s1 s1")
        memo, edges = MemoTable(), []
        evaluate(braid(word), default_params("laurent"), memo=memo,
                 on_expand=lambda p, c: edges.append(c))
        assert len(memo) == 683
        assert len(edges) == 3 * 159

    def test_memo_released_without_cyclic_gc(self):
        # An evaluation leaves no reference cycle behind, so its memo is
        # freed when it returns or raises, not at the next collection.
        word = ("s3 s2 s2 s1^-1 s2 s1 s2^-1 s3^-1 s2 s1^-1 s3^-1 s2^-1 "
                "s1^-1 s2 s1 s1")
        d = braid(word)
        gc.collect()
        gc.disable()
        try:
            evaluate_laurent(d)
            assert gc.collect() == 0
            evaluate_series(d, 1, 8)
            assert gc.collect() == 0
            with pytest.raises(BudgetExceededError):
                evaluate_laurent(d, budget=50)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memo_bound_to_params(self):
        memo = MemoTable()
        laurent = default_params("laurent")
        evaluate(braid("s1 s1"), laurent, memo=memo)
        assert memo.params == laurent
        evaluate(braid("s1 s1 s1"), default_params("laurent"), memo=memo)
        with pytest.raises(ValueError):
            evaluate(braid("s1 s1"), default_params("series", n=0, order=4),
                     memo=memo)
        series = MemoTable()
        got = evaluate(braid("s1 s1"), default_params("series", n=0, order=4),
                       memo=series)
        assert got == evaluate_series(braid("s1 s1"), 0, 4)

    def test_flat_diagram_rejected(self):
        with pytest.raises(DiagramError):
            evaluate_laurent(braid("s1 s1 s1").make_flat(0))

    def test_empty_diagram_rejected(self):
        from framedskein.diagram import FramedDiagram
        with pytest.raises(DiagramError):
            evaluate_laurent(FramedDiagram([], [], 0))

    def test_select_crossing_contract(self):
        c, witness = select_crossing(braid("s1 s1 s1"))
        assert witness["switches_remaining"] == 1
        with pytest.raises(DiagramError):
            select_crossing(braid("s1"))  # reducible

    def test_complexity_examples(self):
        assert complexity_bound(parse_diagram("O", "pd")).as_tuple() == (0, 0)
        assert complexity_bound(braid("s1")).as_tuple() == (0, 1)
        assert complexity_bound(braid("s1 s1 s1")).as_tuple() == (1, 3)

    def test_complexity_of_a_split_diagram_adds(self):
        # the split's remainder is bounded too: (1, 3) + (1, 4)
        split = braid("s1 s1 s1").disjoint_union(braid("s1 s2^-1 s1 s2^-1"))
        assert complexity_bound(split).as_tuple() == (2, 7)


class TestClosedForms:
    """Families whose values follow from the skein and kink laws alone,
    computed here without the evaluator."""

    def test_torus_closures(self):
        forms = torus_forms(200)
        assert LaurentPoly(forms[0]) == ONE + (A - A ** -1) * Z ** -1
        for k in [*range(21), 100, 200]:
            assert evaluate_laurent(braid(f"s1^{k}")) == \
                LaurentPoly(forms[k]), k

    def test_kink_chain(self):
        for n, seed in ((80, 3), (400, 7)):
            d, w = kink_chain(n, seed)
            assert evaluate_laurent(d) == A ** w

    def test_reduction_chain_needs_no_frame_per_step(self):
        # Neither a reduction chain nor a deep skein tree (s1^150, and a
        # branchy 3-braid) costs a Python frame per step.
        d, w = kink_chain(150, seed=5)
        branchy = braid("s1 s2^-1 " * 9)
        expected = evaluate_laurent(branchy)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            got = evaluate_laurent(d)
            torus = evaluate_laurent(braid("s1^150"))
            got_branchy = evaluate_laurent(branchy)
        finally:
            sys.setrecursionlimit(limit)
        assert got == A ** w
        assert torus == LaurentPoly(torus_forms(150)[150])
        assert got_branchy == expected


def small_diagrams():
    """Resolved corpus diagrams of at most 8 crossings and T(2,k) for
    k <= 8."""
    ds = [e.diagram() for e in default_corpus()
          if not e.n_flat and e.n_crossings <= 8]
    return ds + [braid(f"s1^{k}") for k in range(1, 9)]


def cross_ring_diagrams():
    """Every resolved corpus diagram and T(2,k) for k <= 20."""
    ds = [e.diagram() for e in default_corpus() if not e.n_flat]
    return ds + [braid(f"s1^{k}") for k in range(1, 21)]


class TestCrossRing:
    @given(st.sampled_from(["s1 s1", "s1 s1 s1", "s1 s2 s1"]),
           st.integers(0, 2))
    @settings(max_examples=12, deadline=None)
    def test_substitution_bridge(self, word, n):
        d = braid(word)
        assert laurent_to_series(evaluate_laurent(d), n, 8) == \
            evaluate_series(d, n, 8)

    def test_every_loop_factor_branch(self):
        # n = -1 gives delta = 1, n = -2 gives delta = 0, n < -2 the
        # antisymmetric branch
        for d in cross_ring_diagrams():
            p = evaluate_laurent(d)
            for n in (-3, -2, -1, 0, 1, 2):
                assert evaluate_series(d, n, 6) == \
                    laurent_to_series(p, n, 6), (d.canonical_code(), n)

    def test_order_does_not_matter(self):
        for d in small_diagrams():
            for n in (-3, 0, 1):
                full = evaluate_series(d, n, 8)
                for m in (0, 3, 8):
                    assert full.truncate(m) == evaluate_series(d, n, m)


C10_WORDS = (
    "s3 s2 s2 s1^-1 s2 s1 s2^-1 s3^-1 s2 s1^-1 s3^-1 s2^-1 s1^-1 s2 s1 s1",
    "s3 s3 s2^-1 s3 s3^-1 s3^-1 s2^-1 s3 s2^-1 s2^-1 s1^-1 s2^-1 s3 s1 "
    "s2^-1 s1",
)


class TestIntegerRings:
    """The evaluator recurses in integer rings and converts at the ends.
    The digests were computed with the earlier evaluator, which recursed
    in ``LaurentPoly`` and truncated ``PowerSeries``."""

    def test_corpus_values_unchanged(self):
        h = 0
        for e in default_corpus():
            if e.n_flat:
                continue
            d = e.diagram()
            h = zlib.crc32(json.dumps(
                laurent_to_json(evaluate_laurent(d))).encode(), h)
            for n in (0, 1):
                h = zlib.crc32(json.dumps(
                    series_to_json(evaluate_series(d, n, 8))).encode(), h)
        assert h == 3175763699

    @pytest.mark.parametrize("ring, n, digest", [
        ("laurent", None, 3062736677),
        ("series", 0, 3497272484),
        ("series", 1, 232710221),
    ])
    def test_memo_keys_and_expansions_unchanged(self, ring, n, digest):
        params = (default_params("laurent") if n is None
                  else default_params(ring, n=n, order=8))
        h = 0
        for word in C10_WORDS:
            memo, edges = MemoTable(), []
            v = evaluate(braid(word), params, memo=memo,
                         on_expand=lambda p, c: edges.append(
                             p.canonical_code() + "|" + c.canonical_code()))
            h = zlib.crc32("\n".join(memo).encode(), h)
            h = zlib.crc32("\n".join(edges).encode(), h)
            h = zlib.crc32(str(v).encode(), h)
        assert h == digest

    def test_public_rings_stay_out_of_the_recursion(self, monkeypatch):
        calls = []
        for cls in (LaurentPoly, PowerSeries):
            orig = cls.__mul__

            def counted(self, other, orig=orig, name=cls.__name__):
                calls.append(name)
                return orig(self, other)
            monkeypatch.setattr(cls, "__mul__", counted)
        d = braid(C10_WORDS[0])
        for params in (default_params("laurent"),
                       default_params("series", n=1, order=8)):
            evaluate(braid("s1"), params)  # the audit may multiply
            calls.clear()
            memo = MemoTable()
            evaluate(d, params, memo=memo)
            assert len(memo) == 683
            assert calls == []


class TestCodeTable:
    """The memo codes each stored form once: a diagram rebuilt with the
    same labels is looked up in ``MemoTable.codes`` instead of coded."""

    @staticmethod
    def counted_codes(monkeypatch, params):
        evaluate(braid("s1"), params)  # the audit codes diagrams too
        counts = [0]
        code = diagram._canonical_code

        def counted(d):
            counts[0] += 1
            return code(d)
        monkeypatch.setattr(diagram, "_canonical_code", counted)
        return counts

    def test_criterion10_words(self, monkeypatch):
        # 982 and 823 codes when every node was coded
        params = default_params("laurent")
        counts = self.counted_codes(monkeypatch, params)
        for word, codes, nodes in zip(C10_WORDS, (859, 713), (683, 551)):
            counts[0] = 0
            memo = MemoTable()
            evaluate(braid(word), params, memo=memo)
            assert (counts[0], len(memo)) == (codes, nodes)
            assert set(memo.codes.values()) == set(memo)

    def test_resolutions_share_the_table(self, monkeypatch):
        # 6386 codes when every node was coded
        params = default_params("series", n=1, order=8)
        counts = self.counted_codes(monkeypatch, params)
        sd = braid(C10_WORDS[0])
        for c in (0, 5, 11):
            sd = sd.make_flat(c)
        memo = MemoTable()
        derived_invariant(lambda d: evaluate(d, params, memo=memo), sd)
        assert (counts[0], len(memo)) == (5264, 4173)

    def test_key_is_the_whole_form(self):
        # forms that differ only in their flags or loop count keep
        # separate codes
        memo = MemoTable()
        params = default_params("laurent")
        d = braid("s1 s2 s1 s2")
        for e in (d, d.switch_crossing(1), d.add_free_loops(1)):
            evaluate(e, params, memo=memo)
        forms = list(memo.codes)
        assert (d.crossings, d.mate, 0) in forms
        assert (d.switch_crossing(1).crossings, d.mate, 0) in forms
        assert (d.crossings, d.mate, 1) in forms
        for (crossings, mate, loops), code in memo.codes.items():
            assert code == diagram.FramedDiagram._make(
                crossings, mate, loops).canonical_code()


RINGS = (default_params("laurent"), default_params("series", n=0, order=8),
         default_params("series", n=1, order=8))


def outcome(d, params, memo=None, budget=10**7):
    """The value (or budget error) and the memo items of one evaluation."""
    memo = MemoTable() if memo is None else memo
    try:
        value = evaluate(d, params, memo=memo, budget=budget)
    except BudgetExceededError as e:
        value = str(e)
    return value, list(memo.items())


class TestReplay:
    """A diagram keeps the plan of each evaluation, and a later one whose
    root form and memo lineage match replays it.  A replay must give
    what a fresh diagram gives: the value, the memo items in key order
    and the budget error."""

    @staticmethod
    def counted_codes(monkeypatch):
        for params in RINGS:
            evaluate(braid("s1"), params)  # the audit codes diagrams too
        return TestCodeTable.counted_codes(monkeypatch, RINGS[0])

    def test_exact_on_the_corpus(self):
        for e in default_corpus():
            if e.n_flat:
                continue
            d = e.diagram()
            for params in RINGS:
                assert outcome(d, params) == outcome(e.diagram(), params)
            assert len(d._plans) == 1

    @pytest.mark.parametrize("word", C10_WORDS)
    def test_exact_on_criterion10_words(self, word):
        d = braid(word)
        for params in RINGS:
            assert outcome(d, params) == outcome(braid(word), params)
        for budget in (1, 50, 300, 550, 551, 682, 683):
            for params in RINGS:
                assert outcome(d, params, budget=budget) == \
                    outcome(braid(word), params, budget=budget)

    def test_exact_on_resolution_sequences(self, monkeypatch):
        counts = self.counted_codes(monkeypatch)
        for e in default_corpus():
            if not e.n_flat:
                continue
            sd = e.diagram()
            for params in RINGS[1:]:
                got, want = MemoTable(), MemoTable()
                counts[0] = 0
                a = derived_invariant(
                    lambda d: evaluate(d, params, memo=got), sd).value
                replayed = counts[0] == 0
                b = derived_invariant(
                    lambda d: evaluate(d, params, memo=want),
                    e.diagram()).value
                assert a == b and list(got.items()) == list(want.items())
                # n = 0 records the table's plans, n = 1 replays them
                assert replayed == (params.n == 1)
                assert not got.codes if replayed else got.codes

    def test_replay_codes_nothing(self, monkeypatch):
        counts = self.counted_codes(monkeypatch)
        d = braid(C10_WORDS[0])
        evaluate(d, RINGS[0])
        assert counts[0] == 859
        for params in RINGS[1:]:
            counts[0] = 0
            memo = MemoTable()
            evaluate(d, params, memo=memo)
            assert (counts[0], len(memo), memo.codes) == (0, 683, {})

    def test_on_expand_and_select_walk_the_diagrams(self, monkeypatch):
        counts = self.counted_codes(monkeypatch)
        word = C10_WORDS[1]
        d = braid(word)
        evaluate(d, RINGS[0])
        edges, fresh = [], []
        counts[0] = 0
        evaluate(d, RINGS[1], on_expand=lambda p, c: edges.append(c))
        assert counts[0] > 0
        evaluate(braid(word), RINGS[1], on_expand=lambda p, c: fresh.append(c))
        assert len(edges) == len(fresh) == 3 * 145

        def pick(cur):
            return cur.bad_crossings()[-1]
        sequence = MemoTable()  # a plan for the switch after d's plan
        for x in (d, d.switch_crossing(0)):
            evaluate(x, RINGS[0], memo=sequence)
        memo, want = MemoTable(), MemoTable()
        counts[0] = 0
        evaluate(d, RINGS[2], memo=memo, select=pick)
        assert counts[0] > 0
        # the memo now holds another tree's keys, so nothing replays on it
        counts[0] = 0
        got = outcome(d.switch_crossing(0), RINGS[2], memo)
        assert counts[0] > 0
        evaluate(braid(word), RINGS[2], memo=want, select=pick)
        assert got == outcome(braid(word).switch_crossing(0), RINGS[2], want)

    def test_budget_error_and_foreign_keys_fall_back(self, monkeypatch):
        counts = self.counted_codes(monkeypatch)
        word = C10_WORDS[0]
        d = braid(word)
        switched = d.switch_crossing(3)
        for x in (d, switched):  # one family, one memo
            evaluate(x, RINGS[0], memo=MemoTable())
        sequence = MemoTable()
        for x in (d, switched):
            evaluate(x, RINGS[0], memo=sequence)
        # after a budget error the memo holds part of a tree
        memo = MemoTable()
        outcome(d, RINGS[1], memo, budget=100)
        counts[0] = 0
        want = MemoTable()
        outcome(braid(word), RINGS[1], want, budget=100)
        assert outcome(d, RINGS[1], memo) == \
            outcome(braid(word), RINGS[1], want)
        assert counts[0] > 0
        # a key of the tree put in by hand, into a new memo or after a
        # replay
        for before, x in (((), d), ((d,), switched)):
            memo, want = MemoTable(), MemoTable()
            for y in before:
                evaluate(y, RINGS[1], memo=memo)
                evaluate(braid(word), RINGS[1], memo=want)
            tree = outcome(x, RINGS[1])[1]
            k, v = next(kv for kv in tree[len(tree) // 2:] if kv[0] not in memo)
            memo[k] = want[k] = v
            counts[0] = 0
            got = outcome(x, RINGS[1], memo)
            assert counts[0] > 0
            fresh = braid(word)
            assert got == outcome(fresh if x is d else fresh.switch_crossing(3),
                                  RINGS[1], want)

    def test_keys_put_in_during_a_walk_keep_its_plan_out(self):
        word = C10_WORDS[0]
        tree = outcome(braid(word), RINGS[0])[1]
        k, v = tree[len(tree) // 2]
        d, memo = braid(word), MemoTable()

        def put(parent, child):
            memo[k] = v
        evaluate(d, RINGS[0], memo=memo, on_expand=put)
        assert d._plans == {}
        assert outcome(d, RINGS[1]) == outcome(braid(word), RINGS[1])

    @pytest.mark.parametrize("params", RINGS[:2])
    def test_budget_error_leaves_the_memo_as_it_was(self, monkeypatch,
                                                    params):
        # the first word's tree has 686 visits that are not hits, and 683
        # keys: a descendant can share the code of an open ancestor
        counts = self.counted_codes(monkeypatch)
        d = braid(C10_WORDS[0])
        for replayed in (False, True):  # no plan yet, then d's plan
            memo = MemoTable()
            counts[0] = 0
            with pytest.raises(BudgetExceededError):
                evaluate(d, params, memo=memo, budget=685)
            assert (memo, counts[0] == 0) == ({}, replayed)
            evaluate(d, params, memo=memo, budget=686)
            assert len(memo) == 683
        # a memo that holds another tree, and a plan on its lineage
        other = braid(C10_WORDS[1])
        for replayed in (False, True):
            memo = MemoTable()
            evaluate(other, params, memo=memo)
            before = list(memo.items())
            counts[0] = 0
            with pytest.raises(BudgetExceededError):
                evaluate(d, params, memo=memo, budget=1)
            assert list(memo.items()) == before
            assert (counts[0] == 0) == replayed
            evaluate(d, params, memo=memo)

    def test_on_expand_may_put_the_root_key(self):
        # the walk saw the root as a miss; the fold puts it in again
        word = C10_WORDS[0]
        for params in RINGS[:2]:
            want = MemoTable()
            value = evaluate(braid(word), params, memo=want)
            root = braid(word).canonical_code()
            d, memo = braid(word), MemoTable()

            def put(parent, child):
                if root not in memo:
                    memo[root] = want[root]
            assert evaluate(d, params, memo=memo, on_expand=put) == value
            assert dict(memo) == dict(want)
            assert d._plans == {}

    def test_memo_shared_by_two_families(self, monkeypatch):
        counts = self.counted_codes(monkeypatch)
        d, e = braid(C10_WORDS[0]), braid("s1 s2^-1 s1 s2^-1 s1 s2")
        memo = MemoTable()
        for x in (d, e):
            evaluate(x, RINGS[0], memo=memo)
        for order, codes in (((d, e), False), ((e, d), True)):
            memo, want = MemoTable(), MemoTable()
            counts[0] = 0
            got = [outcome(x, RINGS[1], memo)[0] for x in order]
            assert (counts[0] > 0) == codes
            fresh = [outcome(braid(C10_WORDS[0]) if x is d else
                             braid("s1 s2^-1 s1 s2^-1 s1 s2"), RINGS[1],
                             want)[0] for x in order]
            assert got == fresh
            assert list(memo.items()) == list(want.items())

    def test_replay_refuses_a_memo_that_lost_a_hit(self, monkeypatch):
        counts = self.counted_codes(monkeypatch)
        word = C10_WORDS[0]
        d = braid(word)
        switched = d.switch_crossing(3)
        sequence = MemoTable()
        for x in (d, switched):  # the switch's plan has d's on its lineage
            evaluate(x, RINGS[0], memo=sequence)
        first = d._plans[d.crossings, d.free_loops, None]
        plan = d._plans[switched.crossings, switched.free_loops, first]
        want = evaluate(braid(word).switch_crossing(3), RINGS[0])
        foreign = outcome(braid(C10_WORDS[1]), RINGS[0])[1]
        for swap in (False, True):
            memo = MemoTable()
            evaluate(d, RINGS[0], memo=memo)
            if swap:  # same length, one hit of the plan swapped out
                hit = next(code for code in plan.visits if code in memo)
                k, v = next(kv for kv in foreign if kv[0] not in memo)
                del memo[hit]
                memo[k] = v
            assert (memo.lineage, len(memo)) == (first, first.size)
            counts[0] = 0
            got = []
            if swap:
                with pytest.raises(AssertionError,
                                   match="skein plan does not match the memo"):
                    got.append(evaluate(switched, RINGS[0], memo=memo))
            else:
                got.append(evaluate(switched, RINGS[0], memo=memo))
            assert got == ([] if swap else [want])
            assert counts[0] == 0  # replayed, not walked

    @pytest.mark.parametrize("move", ["add_kink", "disjoint_union"])
    def test_built_roots_share_their_plans(self, monkeypatch, move):
        # a root that no parser built shares its plans with its
        # resolutions, so n = 1 replays what n = 0 walked
        def build():
            if move == "add_kink":
                b = braid("s1 s2^-1 s1 s2^-1 s1 s2 s1^-1 s2 s1 s2^-1")
                return b.add_kink(b.arcs[0], 1).make_flat(0).make_flat(3)
            return braid("s1 s2^-1 s1 s2^-1").disjoint_union(
                braid("s1 s1 s1")).make_flat(1).make_flat(5)
        counts = self.counted_codes(monkeypatch)
        sd = build()
        for params in RINGS[1:]:
            memo = MemoTable()
            counts[0] = 0
            got = derived_invariant(
                lambda d: evaluate(d, params, memo=memo), sd).table
            assert (counts[0] == 0) == (params.n == 1)
        want = MemoTable()
        fresh = derived_invariant(
            lambda d: evaluate(d, RINGS[2], memo=want), build()).table
        assert got == fresh and list(memo.items()) == list(want.items())

    def test_plan_leaves_no_reference_cycle(self):
        d = braid(C10_WORDS[0])
        gc.collect()
        gc.disable()
        try:
            memo = MemoTable()
            evaluate(d, RINGS[0], memo=memo)
            del memo
            assert gc.collect() == 0
            memo = MemoTable()
            evaluate(d, RINGS[2], memo=memo)
            assert memo.lineage in d._plans.values()
            del memo
            assert gc.collect() == 0
            with pytest.raises(BudgetExceededError):
                evaluate(d, RINGS[1], budget=50)
            assert gc.collect() == 0
        finally:
            gc.enable()
