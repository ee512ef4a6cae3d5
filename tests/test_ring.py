import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein.ring import (
    I,
    ONE,
    ZERO,
    BiSeries,
    GaussRational,
    LaurentPoly,
    NotAUnitError,
    OrderMismatchError,
    PowerSeries,
    base_constants,
    laurent_from_json,
    laurent_to_json,
    loop_factor_series,
    series_exp,
    series_from_json,
    series_to_json,
)
from framedskein.ring import _IntPoly, _mul_terms

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gauss = st.builds(GaussRational.of, fractions, fractions)


@st.composite
def laurents(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        exp = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
        terms[exp] = draw(gauss)
    return LaurentPoly(terms)


# z-degrees near the packing bound |dz| < 2^31 (sums of two stay inside),
# and a-degrees far beyond the 32 bits that dz occupies
BOUND = 2 ** 30
deg_z = st.one_of(st.integers(-4, 4), st.integers(BOUND - 3, BOUND - 1),
                  st.integers(-BOUND + 1, -BOUND + 3))
deg_a = st.one_of(st.integers(-4, 4), st.integers(-2 ** 40, 2 ** 40))
ints = st.integers(-10 ** 12, 10 ** 12).filter(bool)


@st.composite
def int_laurents(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        terms[(draw(deg_a), draw(deg_z))] = GaussRational.of(draw(ints))
    return LaurentPoly(terms)


def packed(p):
    return _IntPoly.of_laurent(p)


class TestIntPoly:
    """The evaluator's integer ring against ``LaurentPoly``."""

    @given(int_laurents())
    @settings(max_examples=60)
    def test_round_trip(self, p):
        q = packed(p).to_laurent()
        assert q == p
        assert list(q.terms) == [e for e, _ in p.sorted_terms()]

    @given(int_laurents(), int_laurents())
    @settings(max_examples=60)
    def test_operations(self, p, q):
        assert (packed(p) + packed(q)).to_laurent() == p + q
        assert (packed(p) - packed(q)).to_laurent() == p - q
        assert (packed(p) * packed(q)).to_laurent() == p * q
        assert (packed(p) - packed(p)) == _IntPoly()

    @given(deg_a, st.integers(-4, 4), st.sampled_from([1, -1]),
           st.integers(-6, 6))
    def test_monomial_powers(self, da, dz, c, k):
        m = LaurentPoly.term(c, da, dz)
        assert (packed(m) ** k).to_laurent() == m ** k

    @given(int_laurents(), st.integers(0, 3))
    @settings(max_examples=30)
    def test_non_negative_powers(self, p, k):
        small = LaurentPoly({(da % 5, dz % 5): c
                             for (da, dz), c in p.terms.items()})
        assert (packed(small) ** k).to_laurent() == small ** k

    @given(int_laurents(), int_laurents(), int_laurents(),
           st.sampled_from([LaurentPoly.var_z(),
                            LaurentPoly.var_z() - LaurentPoly.var_a(-1)]))
    @settings(max_examples=40)
    def test_skein_step(self, s, a, b, z):
        step = packed(s).skein_step(packed(z), packed(a), packed(b))
        assert step.to_laurent() == s + z * (a - b)
        assert all(step.values())

    def test_only_unit_monomials_invert(self):
        with pytest.raises(NotAUnitError):
            packed(LaurentPoly.term(2, 1, 0)) ** -1
        with pytest.raises(NotAUnitError):
            packed(LaurentPoly.var_a() + LaurentPoly.one()) ** -1

    @pytest.mark.parametrize("p", [
        LaurentPoly.term(Fraction(1, 2)),
        LaurentPoly.term(I, 1, 0),
        LaurentPoly.term(1, 0, 2 ** 31),
        LaurentPoly.term(1, 0, -2 ** 31),
    ])
    def test_refused(self, p):
        with pytest.raises(ValueError):
            packed(p)

    @given(st.dictionaries(st.integers(-6, 6), ints, max_size=6),
           st.integers(0, 8))
    @settings(max_examples=40)
    def test_t_series(self, terms, order):
        # sum_j c_j t^j at t = e^x, term by term
        expected = PowerSeries(order, [])
        for j, c in terms.items():
            expected = expected + series_exp(j, order).scale(c)
        assert _IntPoly(terms).t_series(order) == expected


class TestGaussRational:
    @given(gauss, gauss)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(gauss)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(NotAUnitError):
                a.inverse()
        else:
            assert a * a.inverse() == ONE

    @given(st.one_of(gauss, st.builds(GaussRational.of, fractions)),
           st.one_of(gauss, st.builds(GaussRational.of, fractions)))
    def test_arithmetic_matches_the_formulas(self, a, b):
        # against the dataclass's own constructor, on real and complex
        # values: the results skip its checks, so their parts must
        # already be Fractions
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        for got, want in ((a + b, (ar + br, ai + bi)),
                          (a - b, (ar - br, ai - bi)),
                          (-a, (-ar, -ai)),
                          (a * b, (ar * br - ai * bi, ar * bi + ai * br))):
            assert got == GaussRational(*want)
            assert type(got.re) is Fraction and type(got.im) is Fraction
        if not b.is_zero():
            n = br * br + bi * bi
            assert b.inverse() == GaussRational(br / n, -bi / n)

    def test_i_squares_to_minus_one(self):
        assert I * I == GaussRational.of(-1)

    def test_division(self):
        # (3 + 4i)(1 - 2i) / 5
        assert GaussRational.of(3, 4) / GaussRational.of(1, 2) == \
            GaussRational.of(Fraction(11, 5), Fraction(-2, 5))
        with pytest.raises(NotAUnitError):
            I / GaussRational.of(0)


class TestLaurentPoly:
    @given(laurents(), laurents(), laurents())
    @settings(max_examples=50)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * (q * r) == (p * q) * r
        assert p - p == LaurentPoly.zero()

    def test_monomial_inverse(self):
        m = LaurentPoly.term(Fraction(2), 3, -1)
        assert m * m ** -1 == LaurentPoly.one()

    def test_non_monomial_not_invertible(self):
        p = LaurentPoly.var_a() + LaurentPoly.one()
        with pytest.raises(NotAUnitError):
            p ** -1

    @given(laurents())
    @settings(max_examples=50)
    def test_json_round_trip(self, p):
        blob = json.dumps(laurent_to_json(p))
        assert laurent_from_json(json.loads(blob)) == p

    def test_json_sorted_by_exponents(self):
        p = LaurentPoly({(1, 0): ONE, (-1, 2): ONE, (-1, -3): ONE})
        exps = [(t["deg_a"], t["deg_z"]) for t in laurent_to_json(p)]
        assert exps == sorted(exps)


class TestPowerSeries:
    def test_truncated_multiplication(self):
        x = PowerSeries.x(4)
        assert ((PowerSeries.one(4) + x) ** 5).coeffs[:3] == (
            ONE, GaussRational.of(5), GaussRational.of(10))

    def test_inverse(self):
        s = PowerSeries.one(6) - PowerSeries.x(6)
        inv = s.inverse()
        assert inv == PowerSeries(6, [ONE] * 7)  # geometric series
        assert s * inv == PowerSeries.one(6)

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            PowerSeries.one(3) + PowerSeries.one(4)

    def test_exp_series(self):
        e = series_exp(1, 5)
        assert e.coeffs[0] == ONE
        assert e.coeffs[3] == GaussRational.of(Fraction(1, 6))
        assert series_exp(2, 5) == e * e

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_exp_additivity(self, a, b):
        assert series_exp(a, 6) * series_exp(b, 6) == series_exp(a + b, 6)

    def test_json_round_trip(self):
        s = series_exp(1, 4) * PowerSeries.constant(GaussRational.of(1, 2), 4)
        blob = json.dumps(series_to_json(s))
        assert series_from_json(json.loads(blob)) == s


class TestLoopFactor:
    def test_small_values(self):
        # sum t^n + t^(n-2) + ... + t^(-n), constant term n + 2
        assert loop_factor_series(0, 4) == PowerSeries.constant(2, 4)
        u1 = loop_factor_series(1, 4)
        assert u1.coeffs[0] == GaussRational.of(3)
        assert u1.coeffs[2] == ONE  # 3 + x^2 + x^4/12
        assert u1.coeffs[4] == GaussRational.of(Fraction(1, 12))

    def test_u_minus_one_is_one(self):
        assert loop_factor_series(-1, 6) == PowerSeries.one(6)

    @given(st.integers(-4, 4))
    def test_defining_identity(self, n):
        # (t^(n+1) - t^-(n+1)) = (t - t^-1)(u_n - 1)
        order = 8
        t_pow = series_exp(n + 1, order) - series_exp(-(n + 1), order)
        z = series_exp(1, order) - series_exp(-1, order)
        u = loop_factor_series(n, order)
        assert t_pow == z * (u - PowerSeries.one(order))


class TestBaseConstants:
    def test_displayed_prefixes(self):
        consts = base_constants(8)
        z = consts["z"]
        # z = 2i + i x^2 + i x^4/12 + ...
        assert z.coeff(0, 0) == GaussRational.of(0, 2)
        assert z.coeff(1, 0) == ZERO
        assert z.coeff(2, 0) == I
        assert z.coeff(4, 0) == GaussRational.of(0, Fraction(1, 12))
        a = consts["a"]
        # a = i + iy + iy^2/2 + ...
        assert a.coeff(0, 0) == I
        assert a.coeff(0, 1) == I
        assert a.coeff(0, 2) == GaussRational.of(0, Fraction(1, 2))

    @given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           gauss, max_size=8),
           st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           gauss, max_size=8))
    @settings(max_examples=40)
    def test_product_is_the_truncated_full_product(self, p, q):
        x, y = BiSeries(5, p), BiSeries(5, q)
        assert x * y == BiSeries(5, _mul_terms(x.coeffs, y.coeffs))

    def test_units(self):
        consts = base_constants(6)
        z, a = consts["z"], consts["a"]
        one = BiSeries.one(6)
        assert z * z ** -1 == one
        assert a * a ** -1 == one


# Per ring: its one, a unit, and non-units.  No unit is a root of one,
# so a power that skips or repeats a factor shows.
POWER_RINGS = {
    "GaussRational": (ONE, GaussRational.of(Fraction(2, 3), -1), [ZERO]),
    "LaurentPoly": (
        LaurentPoly.one(), LaurentPoly.term(GaussRational.of(1, 2), 2, -1),
        [LaurentPoly.zero(), LaurentPoly.var_a() + LaurentPoly.var_z(-1)]),
    "PowerSeries": (
        PowerSeries.one(6), series_exp(-2, 6).scale(3) + PowerSeries.x(6).scale(I),
        [PowerSeries.x(6), PowerSeries(6, [])]),
    "BiSeries": (
        BiSeries.one(4), base_constants(4)["z"] + BiSeries(4, {(1, 1): 3}),
        [BiSeries(4, {(1, 0): 1, (0, 1): 2}), BiSeries(4)]),
    "_IntPoly": (
        _IntPoly.one(), _IntPoly({(3 << 32) - 2: -1}),
        [_IntPoly(), _IntPoly({0: 2}), _IntPoly({0: 1, 1: 1})]),
}


@pytest.mark.parametrize("ring", sorted(POWER_RINGS))
class TestOnePowerLaw:
    """Every ring's ``**`` is the one ``_power``; its negative powers go
    through the ring's own ``inverse``."""

    def test_zeroth_power_is_one(self, ring):
        one, unit, non_units = POWER_RINGS[ring]
        for x in [one, unit] + non_units:
            assert x ** 0 == one

    def test_powers_multiply_up(self, ring):
        one, unit, non_units = POWER_RINGS[ring]
        for x in [unit] + non_units:
            for k in range(1, 5):
                assert x ** k == x * x ** (k - 1)

    def test_negative_powers_of_a_unit(self, ring):
        one, unit, _ = POWER_RINGS[ring]
        assert unit ** -1 == unit.inverse()
        for k in range(1, 5):
            assert unit ** -k * unit ** k == one
            assert unit ** -k == unit.inverse() ** k

    def test_non_units_have_no_negative_power(self, ring):
        _, _, non_units = POWER_RINGS[ring]
        for x in non_units:
            with pytest.raises(NotAUnitError):
                x ** -1
