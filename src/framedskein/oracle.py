"""Independent ground truth: exhaustive bracket state sum.

The state sum enumerates all 2^n smoothing states directly, with no
skein recursion, no reductions and no memoization; only the A/B
smoothing rule is shared with the main engine.  The bracket satisfies
the same one-crossing laws as the two-variable engine specialized at
``a = -A^3, z = A - A^-1`` (with loop value ``-A^2 - A^-2``), which
gives an exact cross-check on whole diagrams.

The same specialization at ``a = t^(n+1)``, expanded at ``t = e^x``,
is the bridge from a Laurent value to the series ring
(:func:`laurent_to_series`), which ties the two engine rings together.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .diagram import DiagramError, FramedDiagram, _sign
from .ring import (
    ONE,
    ZERO,
    GaussRational,
    LaurentPoly,
    NotAUnitError,
    PowerSeries,
    _power,
)
from .skein import evaluate_laurent

MAX_STATESUM_CROSSINGS = 20


class BracketPoly:
    """Sparse one-variable Laurent polynomial in A with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {d: c for d, c in (terms or {}).items() if c}

    @staticmethod
    def one() -> "BracketPoly":
        return BracketPoly({0: 1})

    @staticmethod
    def monomial(deg: int, coeff: int = 1) -> "BracketPoly":
        return BracketPoly({deg: coeff})

    def __add__(self, other: "BracketPoly") -> "BracketPoly":
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, 0) + c
        return BracketPoly(out)

    def __mul__(self, other: "BracketPoly") -> "BracketPoly":
        out: dict[int, int] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return BracketPoly(out)

    def inverse(self) -> "BracketPoly":
        """The inverse of a unit: a monomial with coefficient ±1."""
        if len(self.terms) != 1:
            raise NotAUnitError("cannot invert a non-monomial")
        ((d, c),) = self.terms.items()
        if c not in (1, -1):
            raise NotAUnitError("cannot invert a non-unit coefficient")
        return BracketPoly({-d: c})

    def __pow__(self, k: int) -> "BracketPoly":
        return _power(self, k, BracketPoly.one())

    def __eq__(self, other) -> bool:
        return isinstance(other, BracketPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            mono = "" if d == 0 else ("A" if d == 1 else f"A^{d}")
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BracketPoly({self})"


_DELTA = BracketPoly({2: -1, -2: -1})  # -A^2 - A^-2


def bracket_statesum(d: FramedDiagram) -> BracketPoly:
    """State sum ``sum_state A^(#A - #B) * (-A^2 - A^-2)^(loops - 1)``.

    Unknot-normalized: the crossingless one-circle diagram gives 1.
    """
    if d.is_singular():
        raise DiagramError("state sum needs a resolved diagram")
    n = d.n_crossings
    if n > MAX_STATESUM_CROSSINGS:
        raise DiagramError(
            f"state sum limited to {MAX_STATESUM_CROSSINGS} crossings")
    if n == 0:
        if d.free_loops == 0:
            raise DiagramError("empty diagram has no invariant value")
        return _DELTA ** (d.free_loops - 1)

    mate = d.mate
    # the stub pairs that each crossing's A (bit 0) or B (bit 1) smoothing
    # joins, and the number of states of each (#A - #B, loops)
    smoothings = [[[(4 * c + s1, 4 * c + s2)
                    for s1, s2 in d._smoothing_pairs(c, kind)]
                   for kind in "AB"] for c in range(n)]
    states: dict[tuple[int, int], int] = {}
    for state in range(1 << n):
        joined = [0] * (4 * n)  # stub -> the stub its smoothing joins it to
        exponent = n
        for c in range(n):
            bit = (state >> c) & 1
            exponent -= 2 * bit
            for h1, h2 in smoothings[c][bit]:
                joined[h1], joined[h2] = h2, h1
        loops = d.free_loops
        seen = [False] * (4 * n)
        for h in range(4 * n):
            if seen[h]:
                continue
            loops += 1
            while not seen[h]:
                m = mate[h]
                seen[h] = seen[m] = True
                h = joined[m]
        states[exponent, loops] = states.get((exponent, loops), 0) + 1
    total = BracketPoly()
    for (exponent, loops), count in states.items():
        total = total + BracketPoly.monomial(exponent, count) \
            * _DELTA ** (loops - 1)
    return total


def _specialize(p: LaurentPoly, k: int, sign: int) -> dict[int, Fraction]:
    """Evaluate a two-variable value at ``a = sign*A^k, z = A - A^-1``.

    Returns the one-variable Laurent polynomial ``{deg: coeff}`` in A.
    Negative powers of z are cleared by multiplying through by
    ``(A - A^-1)^K`` and divided back out exactly.  A z-pole that does
    not cancel, or a non-real coefficient, raises ``ArithmeticError``.
    """
    zK = max(0, -p.min_z_degree())
    num: dict[int, Fraction] = {}
    for (da, dz), coeff in p.terms.items():
        if coeff.im != 0:
            raise ArithmeticError("value has a non-real coefficient")
        c = coeff.re * sign ** (da % 2)
        m = dz + zK
        # (A - A^-1)^m = sum_j (-1)^j C(m, j) A^(m - 2j)
        for j in range(m + 1):
            deg = k * da + m - 2 * j
            num[deg] = num.get(deg, 0) + (-1) ** j * comb(m, j) * c
    num = {d: c for d, c in num.items() if c}
    for _ in range(zK):
        num = _divide_by_z(num)
    return num


def specialize_to_bracket(p: LaurentPoly) -> BracketPoly:
    """Evaluate a two-variable value at ``a = -A^3, z = A - A^-1``.

    The division by the cleared powers of z is exact for every actual
    invariant value, and the result must have integer coefficients.
    """
    num = _specialize(p, 3, -1)
    if any(c.denominator != 1 for c in num.values()):
        raise ArithmeticError("specialization is not integral")
    return BracketPoly({d: int(c) for d, c in num.items()})


def laurent_to_series(p: LaurentPoly, n: int, order: int) -> PowerSeries:
    """Substitute ``a -> t^(n+1), z -> t - t^-1`` at ``t = e^x``.

    The value is first specialized to a Laurent polynomial in ``t``, with
    its z-poles divided out exactly, then expanded: the ``x^m``
    coefficient of ``sum_j c_j t^j`` is ``sum_j c_j j^m / m!``.  This
    shares no arithmetic with the series engine's own ``Z[t^±1]`` path.
    """
    num = _specialize(p, n + 1, 1)
    coeffs = []
    fact = 1
    for m in range(order + 1):
        if m:
            fact *= m
        coeffs.append(GaussRational.of(
            Fraction(sum(c * j ** m for j, c in num.items()), fact)))
    return PowerSeries(order, coeffs)


def _divide_by_z(num: dict[int, Fraction]) -> dict[int, Fraction]:
    # Divide a one-variable Laurent polynomial by A - A^-1, exactly.
    # An exact quotient has degrees from min(num) + 1 to max(num) - 1.
    if not num:
        return {}
    quot: dict[int, Fraction] = {}
    rem = dict(num)
    bottom = min(num)
    while rem:
        top = max(rem)
        c = rem.pop(top)
        qd = top - 1
        if qd <= bottom:
            raise ArithmeticError("division by A - A^-1 is not exact")
        quot[qd] = quot.get(qd, Fraction(0)) + c
        low = qd - 1
        rem[low] = rem.get(low, Fraction(0)) + c
        if rem[low] == 0:
            del rem[low]
    return {d: c for d, c in quot.items() if c}


def parity_check(p: LaurentPoly, d: FramedDiagram) -> bool:
    """Every term ``a^i z^j`` of ``d``'s value has ``i + j`` of the parity
    of ``d``'s crossing count.

    The skein relation keeps this, because ``z * D_A`` has one crossing
    fewer; so do a kink's factor ``a^±1`` and the loop value
    ``1 + (a - a^-1)/z``, whose terms are all even."""
    c = d.n_crossings
    return all((i + j - c) % 2 == 0 for i, j in p.terms)


def so1_check(p: LaurentPoly) -> bool:
    """At ``a = 1`` a unit-normalised value is 1 for every ``z``: the sum
    of the coefficients of each ``z^j`` is 1 for ``j = 0`` and 0 else.

    At ``a = 1`` the kink factor and the loop value are 1, and the
    constant 1 satisfies the skein relation (the SO(1) specialisation)."""
    sums: dict[int, GaussRational] = {}
    for (_, j), c in p.terms.items():
        sums[j] = sums.get(j, ZERO) + c
    return {j: c for j, c in sums.items() if not c.is_zero()} == {0: ONE}


def so2_check(p: LaurentPoly, d: FramedDiagram) -> bool:
    """At ``a = q, z = q - q^-1`` twice a unit-normalised value is
    ``2^(free loops) * sum_o q^(writhe(o))``, over the ``2^k``
    orientations ``o`` of the ``k`` strands of the resolved diagram
    ``d``: the SO(2) specialisation, with loop value 2.

    The writhe sums the sign of every crossing, self-crossings and
    crossings between strands alike; a reversed strand enters each
    crossing at the opposite slot, ``h ^ 2``.  A value with a z-pole
    that does not cancel, or with a non-real coefficient, fails."""
    strands = d.strand_components()
    weight = 2 ** d.free_loops
    expected: dict[int, int] = {}
    for flips in itertools.product((0, 2), repeat=len(strands)):
        entries: list[list[int]] = [[] for _ in d.crossings]
        for walk, flip in zip(strands, flips):
            for h in walk:
                entries[h >> 2].append((h ^ flip) & 3)
        writhe = sum(_sign(over, *slots)
                     for over, slots in zip(d.crossings, entries))
        expected[writhe] = expected.get(writhe, 0) + weight
    try:
        value = _specialize(p, 1, 1)
    except ArithmeticError:
        return False
    return {deg: 2 * c for deg, c in value.items()} == expected


def z_degree_check(p: LaurentPoly, d: FramedDiagram) -> bool:
    """The largest z-degree of ``d``'s value is at most ``c - b``, with
    ``c`` crossings and ``b`` the longest run of over-passes along one
    strand, in crossings (Kidwell, Proc. AMS 100 (1987); Thistlethwaite,
    Topology 27 (1988))."""
    longest = 0
    for walk in d.strand_components():
        over = [(h & 1) == d.crossings[h >> 2] for h in walk]
        if all(over):
            longest = max(longest, len(over))
            continue
        run = 0
        # start after an under-pass, so no run wraps past the end
        start = over.index(False) + 1
        for o in over[start:] + over[:start]:
            run = run + 1 if o else 0
            longest = max(longest, run)
    bound = d.n_crossings - longest
    return all(j <= bound for _, j in p.terms)


def so4_check(p: LaurentPoly, bracket: BracketPoly) -> bool:
    """A unit-normalised value at ``a = B^3, z = B - B^-1`` is the square
    of the diagram's bracket ``bracket`` in ``B = A^2``.

    The squared bracket satisfies ``<L+>^2 - <L->^2 = (A^2 - A^-2)
    (<L0>^2 - <Loo>^2)``, with kink factor ``(-A^3)^2 = B^3`` and loop
    value ``(A^2 + A^-2)^2 = 1 + (B^3 - B^-3)/(B - B^-1)``: so(4) is
    sl2 + sl2 (Turaev, Invent. Math. 92, 1988).  A value with a z-pole
    that does not cancel, or with a non-real coefficient, fails."""
    square = (bracket * bracket).terms
    if any(deg % 2 for deg in square):
        return False
    try:
        value = _specialize(p, 3, 1)
    except ArithmeticError:
        return False
    return value == {deg // 2: c for deg, c in square.items()}


def specialization_check(d: FramedDiagram) -> bool:
    """Engine value at ``a = -A^3, z = A - A^-1`` equals the state sum."""
    return specialize_to_bracket(evaluate_laurent(d)) == bracket_statesum(d)
