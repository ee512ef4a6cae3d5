import json
import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein import skein
from framedskein.corpus import default_corpus
from framedskein.diagram import DiagramError, FramedDiagram, parse_diagram
from framedskein.oracle import (
    BracketPoly,
    _divide_by_z,
    bracket_statesum,
    laurent_to_series,
    specialization_check,
    specialize_to_bracket,
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
