import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein.diagram import DiagramError, FramedDiagram, parse_diagram
from framedskein.oracle import (
    BracketPoly,
    _divide_by_z,
    bracket_statesum,
    specialization_check,
    specialize_to_bracket,
)
from framedskein.perturb import random_perturbation
from framedskein.skein import evaluate_laurent

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
