import json
import random
import zlib
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_skein import C10_WORDS

from framedskein import skein
from framedskein.corpus import default_corpus
from framedskein.diagram import (
    DiagramError,
    FramedDiagram,
    parse_diagram,
    serialize_pd,
)
from framedskein.oracle import (
    BracketPoly,
    _divide_by_z,
    bracket_statesum,
    laurent_to_series,
    parity_check,
    so1_check,
    so2_check,
    so4_check,
    specialization_check,
    specialize_to_bracket,
    z_degree_check,
)
from framedskein.perturb import random_perturbation
from framedskein.ring import I, LaurentPoly, _IntPoly, series_to_json
from framedskein.skein import evaluate_laurent, evaluate_series

WORDS = ["s1", "s1^-1", "s1 s1", "s1 s1 s1", "s1 s2^-1 s1 s2^-1",
         "s1 s2 s1", "s1 s1^-1 s2 s2", "s1 s2 s1 s3"]


def braid(word):
    return parse_diagram(word, "braid")


class TestBracketPoly:
    def test_arithmetic(self):
        a = BracketPoly.monomial(2) + BracketPoly.monomial(-2)
        assert a * a == (BracketPoly.monomial(4) + BracketPoly.monomial(-4)
                         + BracketPoly.monomial(0, 2))
        assert BracketPoly.monomial(3) ** -2 == BracketPoly.monomial(-6)

    def test_non_monomial_not_invertible(self):
        with pytest.raises(ArithmeticError):
            (BracketPoly.one() + BracketPoly.monomial(1)) ** -1


class TestStateSum:
    def test_unknot(self):
        assert bracket_statesum(parse_diagram("O", "pd")) == BracketPoly.one()

    def test_kinks(self):
        assert bracket_statesum(braid("s1")) == BracketPoly.monomial(3, -1)
        assert bracket_statesum(braid("s1^-1")) == BracketPoly.monomial(-3, -1)

    def test_hopf(self):
        assert bracket_statesum(braid("s1 s1")) == \
            BracketPoly({4: -1, -4: -1})

    def test_unlink(self):
        assert bracket_statesum(parse_diagram("O\nO", "pd")) == \
            BracketPoly({2: -1, -2: -1})

    def test_mirror_conjugates_degrees(self):
        b = bracket_statesum(braid("s1 s1 s1"))
        m = bracket_statesum(braid("s1^-1 s1^-1 s1^-1"))
        assert m.terms == {-d: c for d, c in b.terms.items()}

    def test_invariant_under_perturbation(self):
        d = braid("s1 s1 s1")
        rng = random.Random(9)
        for _ in range(4):
            p = random_perturbation(d, rng, steps=2, max_crossings=9)
            assert bracket_statesum(p) == bracket_statesum(d)

    def test_singular_rejected(self):
        with pytest.raises(DiagramError):
            bracket_statesum(braid("s1 s1").make_flat(0))

    def test_size_limit(self):
        word = " ".join(["s1"] * 21)
        with pytest.raises(DiagramError):
            bracket_statesum(braid(word))

    def test_empty_rejected(self):
        with pytest.raises(DiagramError):
            bracket_statesum(FramedDiagram([], [], 0))


class TestSpecialization:
    @given(st.sampled_from(WORDS))
    @settings(max_examples=20, deadline=None)
    def test_engine_matches_statesum(self, word):
        assert specialization_check(braid(word))

    def test_specialize_kink_value(self):
        # a |-> -A^3 on the one-crossing positive kink
        assert specialize_to_bracket(evaluate_laurent(braid("s1"))) == \
            BracketPoly.monomial(3, -1)

    def test_negative_z_powers_cleared(self):
        # the Hopf value has a z^-1 term; the specialization is still a
        # genuine Laurent polynomial in A
        p = evaluate_laurent(braid("s1 s1"))
        assert p.min_z_degree() < 0
        assert specialize_to_bracket(p) == BracketPoly({4: -1, -4: -1})

    def test_division_by_z(self):
        # (A - A^-1) * (A^2 + 1) = A^3 - A^-1
        assert _divide_by_z({3: Fraction(1), -1: Fraction(-1)}) == \
            {2: 1, 0: 1}

    def test_inexact_division_raises(self):
        for num in ({0: Fraction(1)}, {2: Fraction(1), 0: Fraction(1)}):
            with pytest.raises(ArithmeticError):
                _divide_by_z(num)


@pytest.fixture(scope="module")
def resolved_values():
    return [evaluate_laurent(e.diagram()) for e in default_corpus()
            if not e.n_flat]


class TestSeriesBridge:
    """``laurent_to_series`` against digests computed with the earlier
    bridge, which substituted truncated Laurent series into the value."""

    def test_cross_ring_set_unchanged(self, resolved_values):
        torus = [evaluate_laurent(braid(f"s1^{k}")) for k in range(1, 21)]
        h = 0
        for p in resolved_values + torus:
            for n in (-3, -2, -1, 0, 1, 2):
                h = zlib.crc32(json.dumps(series_to_json(
                    laurent_to_series(p, n, 6))).encode(), h)
        assert h == 3728768558

    def test_criterion_5_set_unchanged(self, resolved_values):
        h = 0
        for p in resolved_values:
            for n in (0, 1, 2):
                h = zlib.crc32(json.dumps(series_to_json(
                    laurent_to_series(p, n, 8))).encode(), h)
        assert h == 4097833088

    def test_brackets_unchanged(self, resolved_values):
        h = 0
        for p in resolved_values:
            h = zlib.crc32(json.dumps(sorted(
                specialize_to_bracket(p).terms.items())).encode(), h)
        assert h == 3684379973

    def test_refusals(self):
        with pytest.raises(ArithmeticError):
            laurent_to_series(LaurentPoly.var_z(-1), 0, 4)
        with pytest.raises(ArithmeticError):
            laurent_to_series(LaurentPoly.term(I, 1, 0), 0, 4)
        with pytest.raises(ArithmeticError, match="not integral"):
            specialize_to_bracket(LaurentPoly.term(Fraction(1, 2)))

    def test_shares_nothing_with_the_series_engine(self, monkeypatch):
        words = ["s1 s1", "s1 s2^-1 s1 s2^-1", "s1^5", "s1 s2 s1 s3"]
        cases = [(evaluate_laurent(braid(w)), n,
                  evaluate_series(braid(w), n, 6))
                 for w in words for n in (-3, 0, 2)]

        def boom(*args, **kwargs):
            raise AssertionError("the bridge used the engine")
        for name in ("__mul__", "__add__", "t_series"):
            monkeypatch.setattr(_IntPoly, name, boom)
        monkeypatch.setattr(_IntPoly, "loop_factor", staticmethod(boom))
        monkeypatch.setattr(skein, "evaluate", boom)
        for p, n, want in cases:
            assert laurent_to_series(p, n, 6) == want


# A 3-component closure whose skein tree held two diagrams that the
# canonical code did not tell apart, so the memo returned a wrong value.
COLLIDING = "s2 s2 s1^-1 s2 s2 s1^-1 s2 s2 s1^-1 s1^-1 s2 s2^-1"


class TestCodeCollisions:
    def test_engine_matches_statesum(self):
        assert specialization_check(braid(COLLIDING))

    def test_one_bracket_per_code(self, monkeypatch):
        # Every diagram the memo sees, grouped by code: diagrams sharing a
        # code must share their state sum, which knows nothing of codes.
        seen = []
        code = FramedDiagram.canonical_code

        def recording(d):
            seen.append(d)
            return code(d)

        monkeypatch.setattr(FramedDiagram, "canonical_code", recording)
        evaluate_laurent(braid(COLLIDING))
        brackets: dict[str, set] = {}
        for d in seen:
            brackets.setdefault(code(d), set()).add(bracket_statesum(d))
        assert len(brackets) > 50
        assert all(len(b) == 1 for b in brackets.values())


# The benchmark's braid catalogue, as the state-sum brackets of its words
# (perfbench/make_goldens.py): 3- and 4-braids of 12-18 crossings, whose
# state sums are too slow to run here.
GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "braid_goldens.json"


@cache
def check_cases(source):
    """``(diagram, bracket)`` pairs of one source of diagrams."""
    resolved = [e.diagram() for e in default_corpus() if not e.n_flat]
    if source == "corpus":
        return [(d, bracket_statesum(d)) for d in resolved]
    if source == "perturbations":
        rng = random.Random(5)
        out = []
        for seed in range(320):
            d = random_perturbation(resolved[seed % len(resolved)],
                                    random.Random(seed),
                                    steps=rng.randint(1, 4), max_crossings=11)
            out.append((d, bracket_statesum(d)))
        return out
    if source == "criterion-10":
        return [(braid(w), bracket_statesum(braid(w))) for w in C10_WORDS]
    goldens = json.loads(GOLDENS.read_text())
    return [(braid(word), BracketPoly({int(deg): c
                                       for deg, c in terms.items()}))
            for word, terms in goldens.items() if len(word.split()) <= 20]


class TestEngineFreeChecks:
    """Parity, SO(1), SO(2), SO(4) and the z-degree bound read a value
    and, for SO(4), the state-sum bracket, and for parity, SO(2) and the
    z-degree bound the diagram; none of them runs the engine."""

    @pytest.mark.parametrize("source", ["corpus", "perturbations",
                                        "criterion-10", "catalogue"])
    def test_hold_on_engine_values(self, source):
        cases = check_cases(source)
        for d, bracket in cases:
            p = evaluate_laurent(d)
            assert parity_check(p, d), serialize_pd(d)
            assert so1_check(p), serialize_pd(d)
            assert so2_check(p, d), serialize_pd(d)
            assert so4_check(p, bracket), serialize_pd(d)
            assert z_degree_check(p, d), serialize_pd(d)
            assert specialize_to_bracket(p) == bracket, serialize_pd(d)

    def test_checks_call_no_engine(self, monkeypatch):
        cases = [(d, bracket, evaluate_laurent(d))
                 for d, bracket in check_cases("corpus")]

        def boom(*args, **kwargs):
            raise AssertionError("a check ran the engine")
        monkeypatch.setattr(skein, "_evaluate_unchecked", boom)
        for name in ("__add__", "__sub__", "__mul__", "to_laurent"):
            monkeypatch.setattr(_IntPoly, name, boom)
        for d, bracket, p in cases:
            assert parity_check(p, d) and so1_check(p) \
                and so2_check(p, d) and so4_check(p, bracket) \
                and z_degree_check(p, d)

    def test_sources_are_large_and_varied(self):
        assert len(check_cases("corpus")) >= 50
        perturbed = check_cases("perturbations")
        assert len(perturbed) >= 300
        assert {d.n_crossings % 2 for d, _ in perturbed} == {0, 1}
        assert max(d.n_crossings for d, _ in perturbed) == 11
        assert len(check_cases("criterion-10")) == 2
        catalogue = check_cases("catalogue")
        assert len(catalogue) == 84
        assert max(d.n_crossings for d, _ in catalogue) == 18

    def test_an_error_on_the_jones_curve(self):
        # e vanishes at a = -A^3, z = A - A^-1 and has only even terms, so
        # the Jones slice and parity miss it on an even diagram; at a = 1
        # it is z^3 + 3z, at a = q, z = q - q^-1 it is q^4 + q^2 - q^-2 - 1,
        # and at a = B^3, z = B - B^-1 it is 2B^6 - 2.
        a, z = LaurentPoly.var_a(), LaurentPoly.var_z()
        e = a * a + (a * z).scale(3) + a * z * z * z - LaurentPoly.one()
        even = [(d, bracket) for d, bracket in check_cases("corpus")
                if d.n_crossings and d.n_crossings % 2 == 0]
        assert len(even) >= 10
        for d, bracket in even:
            p = evaluate_laurent(d) + e
            assert specialize_to_bracket(p) == bracket
            assert parity_check(p, d)
            assert not so1_check(p)
            assert not so2_check(p, d)
            assert not so4_check(p, bracket)

    def test_each_check_sees_its_own_errors(self):
        d = braid("s1 s1 s1")
        p, bracket = evaluate_laurent(d), bracket_statesum(d)
        # the trefoil has 3 crossings, so an even term breaks parity
        assert parity_check(p, d)
        assert not parity_check(p + LaurentPoly.var_a(2), d)
        assert not so4_check(p, bracket * BracketPoly.monomial(4, -1))
        # the square of a bracket with odd degrees is never a B-polynomial
        assert not so4_check(p, BracketPoly({1: 1}))
        # a z-pole that does not cancel, or a non-real coefficient, is a
        # failed check, not an error
        assert not so4_check(p + LaurentPoly.var_z(-1), bracket)
        assert not so4_check(p + LaurentPoly.one().scale(I), bracket)
        assert so2_check(p, d)
        assert not so2_check(p + LaurentPoly.var_z(-1), d)
        assert not so2_check(p + LaurentPoly.one().scale(I), d)
        # the value of the trefoil with one more positive kink: at a = q
        # it is q times the trefoil's, which the writhe sum does not see
        assert not so2_check(p * LaurentPoly.var_a(), d)
        # the trefoil's over-runs are one crossing long, so its z-degree
        # is at most 3 - 1; z^3 has the parity of 3 crossings
        assert z_degree_check(p, d)
        assert not z_degree_check(p + LaurentPoly.var_z(3), d)
