"""Exact coefficient arithmetic.

Everything here is computed over the Gaussian rationals (complex numbers
with rational real and imaginary part), so all downstream identities can
be tested with exact equality.  Three carrier rings are provided:

* :class:`LaurentPoly` -- sparse Laurent polynomials in two variables
  ``a`` and ``z``;
* :class:`PowerSeries` -- univariate power series in ``x`` truncated at an
  explicit order;
* :class:`BiSeries` -- bivariate series in ``x, y`` truncated by total
  degree.

The evaluator does not recurse in these rings.  Both of its value rings
lie in integer Laurent polynomials, so it works in the private
:class:`_IntPoly`: ``Z[a^±1, z^±1]`` for Laurent values and ``Z[t^±1]``
(``t = e^x``) for series values.  A Laurent value is converted to a
:class:`LaurentPoly` once, and a series value is expanded once into a
:class:`PowerSeries`.

Negative powers go through each ring's ``inverse()``, which decides what
is a unit and raises :class:`NotAUnitError` for anything else.  No
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping


class NotAUnitError(ArithmeticError):
    """Raised when inverting an element with no inverse in its ring."""


class OrderMismatchError(ValueError):
    """Raised when combining truncated series of different orders."""


def _power(base, k: int, one):
    """``base ** k`` by square-and-multiply, starting from the ring's
    ``one``; the square after the last bit is not taken.  A negative ``k``
    powers ``base.inverse()``, so the ring's ``inverse`` decides what is a
    unit."""
    if k < 0:
        base, k = base.inverse(), -k
    out = one
    while True:
        if k & 1:
            out = out * base
        k >>= 1
        if not k:
            return out
        base = base * base


# ---------------------------------------------------------------------------
# Gaussian rationals


@dataclass(frozen=True)
class GaussRational:
    """A complex number ``re + im*i`` with rational parts, kept exact."""

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "GaussRational":
        return GaussRational(re, im)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "GaussRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise NotAUnitError("division by zero Gaussian rational")
        return GaussRational(self.re / n, -self.im / n)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        return self * other.inverse()

    def __pow__(self, k: int) -> "GaussRational":
        return _power(self, k, ONE)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


_F0 = Fraction(0)


ZERO = GaussRational.of(0)
ONE = GaussRational.of(1)
I = GaussRational.of(0, 1)


def _coerce(value) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    return GaussRational.of(Fraction(value))


def _nonzero(terms: Mapping) -> dict:
    """The sparse terms of ``terms``: each coefficient coerced to a
    :class:`GaussRational`, and the zero ones dropped."""
    out = {}
    for e, c in terms.items():
        c = _coerce(c)
        if not c.is_zero():
            out[e] = c
    return out


def _add_terms(p: Mapping, q: Mapping) -> dict:
    """Sum of two sparse term maps; the constructors drop zero sums."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, ZERO) + c
    return out


def _mul_terms(p: Mapping, q: Mapping, order: int | None = None) -> dict:
    """Product of two sparse term maps; the constructors drop zero sums.
    With an ``order``, no product of total degree above it is formed."""
    out = {}
    for (a1, b1), c1 in p.items():
        room = None if order is None else order - a1 - b1
        for (a2, b2), c2 in q.items():
            if room is not None and a2 + b2 > room:
                continue
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, ZERO) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials in a, z


class LaurentPoly:
    """Sparse Laurent polynomial in ``a`` and ``z``.

    Terms are a map ``(deg_a, deg_z) -> GaussRational``; zero coefficients
    are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], GaussRational] | None = None):
        self.terms = _nonzero(terms or {})

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(0, 0): ONE})

    @staticmethod
    def term(coeff, deg_a: int = 0, deg_z: int = 0) -> "LaurentPoly":
        return LaurentPoly({(deg_a, deg_z): _coerce(coeff)})

    @staticmethod
    def var_a(power: int = 1) -> "LaurentPoly":
        return LaurentPoly.term(1, power, 0)

    @staticmethod
    def var_z(power: int = 1) -> "LaurentPoly":
        return LaurentPoly.term(1, 0, power)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_add_terms(self.terms, other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_mul_terms(self.terms, other.terms))

    def scale(self, c) -> "LaurentPoly":
        c = _coerce(c)
        return LaurentPoly({e: k * c for e, k in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inverse(self) -> "LaurentPoly":
        # Only monomials are units in the Laurent ring.
        if not self.is_monomial():
            raise NotAUnitError("only monomials are invertible Laurent polynomials")
        ((da, dz), c), = self.terms.items()
        return LaurentPoly({(-da, -dz): c.inverse()})

    def __pow__(self, k: int) -> "LaurentPoly":
        return _power(self, k, LaurentPoly.one())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[tuple[int, int], GaussRational]]:
        return sorted(self.terms.items())

    def min_z_degree(self) -> int:
        if not self.terms:
            return 0
        return min(dz for (_, dz) in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (da, dz), c in self.sorted_terms():
            mono = []
            if da:
                mono.append(f"a^{da}" if da != 1 else "a")
            if dz:
                mono.append(f"z^{dz}" if dz != 1 else "z")
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            parts.append("*".join([cs] + mono) if mono else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# ---------------------------------------------------------------------------
# Truncated univariate power series


class PowerSeries:
    """Power series in ``x`` computed modulo ``x^(order+1)``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = [_coerce(c) for c in coeffs]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(ZERO)
        self.order = order
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c, order: int) -> "PowerSeries":
        return PowerSeries(order, [_coerce(c)])

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.constant(1, order)

    @staticmethod
    def x(order: int) -> "PowerSeries":
        return PowerSeries(order, [ZERO, ONE])

    def _check(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        return PowerSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        n = self.order
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(n, out)

    def scale(self, c) -> "PowerSeries":
        c = _coerce(c)
        return PowerSeries(self.order, [k * c for k in self.coeffs])

    def inverse(self) -> "PowerSeries":
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NotAUnitError("series with zero constant term is not a unit")
        n = self.order
        inv = [c0.inverse()] + [ZERO] * n
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * inv[k - j]
            inv[k] = -(acc * inv[0])
        return PowerSeries(n, inv)

    def __pow__(self, k: int) -> "PowerSeries":
        return _power(self, k, PowerSeries.one(self.order))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise OrderMismatchError("cannot extend a truncated series")
        return PowerSeries(order, self.coeffs[: order + 1])

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                parts.append(f"({c})*{mono}" if str(c) not in ("1",) else mono)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, {self})"


def series_exp(c, order: int) -> PowerSeries:
    """Return ``e^(c*x)`` truncated at the given order."""
    c = _coerce(c)
    return PowerSeries(order, [c**k * GaussRational.of(Fraction(1, factorial(k)))
                               for k in range(order + 1)])


# ---------------------------------------------------------------------------
# Bivariate series truncated by total degree


class BiSeries:
    """Series in ``x, y`` modulo total degree ``order + 1``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Mapping[tuple[int, int], GaussRational] | None = None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        self.coeffs = _nonzero({(j, k): c for (j, k), c in (coeffs or {}).items()
                                if j + k <= order})

    @staticmethod
    def constant(c, order: int) -> "BiSeries":
        return BiSeries(order, {(0, 0): _coerce(c)})

    @staticmethod
    def one(order: int) -> "BiSeries":
        return BiSeries.constant(1, order)

    def coeff(self, j: int, k: int) -> GaussRational:
        return self.coeffs.get((j, k), ZERO)

    def _check(self, other: "BiSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        return BiSeries(self.order, _add_terms(self.coeffs, other.coeffs))

    def __neg__(self) -> "BiSeries":
        return BiSeries(self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        return BiSeries(self.order,
                        _mul_terms(self.coeffs, other.coeffs, self.order))

    def inverse(self) -> "BiSeries":
        c0 = self.coeff(0, 0)
        if c0.is_zero():
            raise NotAUnitError("series with zero constant term is not a unit")
        # 1/s = (1/c0) * sum (-h)^k  with  h = s/c0 - 1  (positive valuation)
        c0inv = c0.inverse()
        h = BiSeries(self.order, {e: c * c0inv for e, c in self.coeffs.items()})
        h = h - BiSeries.one(self.order)
        acc = BiSeries.one(self.order)
        power = BiSeries.one(self.order)
        for _ in range(self.order):
            power = power * (-h)
            acc = acc + power
        return BiSeries(self.order, {e: c * c0inv for e, c in acc.coeffs.items()})

    def __pow__(self, k: int) -> "BiSeries":
        return _power(self, k, BiSeries.one(self.order))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (j, k) in sorted(self.coeffs):
            c = self.coeffs[(j, k)]
            mono = []
            if j:
                mono.append("x" if j == 1 else f"x^{j}")
            if k:
                mono.append("y" if k == 1 else f"y^{k}")
            parts.append("*".join([f"({c})"] + mono))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiSeries(order={self.order}, {self})"


# ---------------------------------------------------------------------------
# The value-ring constants and the loop factor


def base_constants(order: int) -> dict[str, PowerSeries | BiSeries]:
    """Constants of the completed coefficient ring.

    Returns ``t = e^x`` as a univariate series and the two invertible
    constants ``a = i*e^y`` and ``z = i*e^x + i*e^(-x) = 2i + i*x^2 + ...``
    as bivariate series.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    t = series_exp(1, order)
    a = BiSeries(order, {
        (0, k): I * GaussRational.of(Fraction(1, factorial(k)))
        for k in range(order + 1)
    })
    z_coeffs = {}
    for j in range(order + 1):
        # i/j! + i*(-1)^j/j!
        val = Fraction(1 + (-1) ** j, factorial(j))
        if val:
            z_coeffs[(j, 0)] = I * GaussRational.of(val)
    z = BiSeries(order, z_coeffs)
    return {"t": t, "a": a, "z": z}


def loop_factor_series(n: int, order: int) -> PowerSeries:
    """The disjoint-unknot factor ``(t^(n+1) - t^-(n+1))/(t - t^-1) + 1``
    at ``t = e^x``, truncated at the given order; see
    :meth:`_IntPoly.loop_factor`.  The constant term is always ``n + 2``.
    """
    return _IntPoly.loop_factor(n).t_series(order)


# ---------------------------------------------------------------------------
# Integer Laurent polynomials: the evaluator's working ring

_Z_SHIFT = 32
_Z_LIMIT = 1 << (_Z_SHIFT - 1)  # packing is exact while |dz| < _Z_LIMIT
_Z_MASK = (1 << _Z_SHIFT) - 1


def _unpack(key: int) -> tuple[int, int]:
    """``(da, dz)`` of a packed ``Z[a^±1, z^±1]`` exponent key."""
    dz = ((key + _Z_LIMIT) & _Z_MASK) - _Z_LIMIT
    return (key - dz) >> _Z_SHIFT, dz


class _IntPoly(dict):
    """Integer Laurent polynomial: a map from an int exponent key to a
    non-zero int coefficient.  Values are never changed after they are
    built.

    In ``Z[t^±1]`` the key is the exponent of ``t``.  In
    ``Z[a^±1, z^±1]`` the key packs ``(da, dz)`` as ``(da << 32) + dz``,
    so adding keys adds both degrees, and sorting keys sorts the degree
    pairs; this holds while every ``|dz| < 2^31``.
    """

    __slots__ = ()

    @staticmethod
    def one() -> "_IntPoly":
        return _IntPoly({0: 1})

    def __add__(self, other: "_IntPoly") -> "_IntPoly":
        out = _IntPoly(self)
        for e, c in other.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return out

    def __sub__(self, other: "_IntPoly") -> "_IntPoly":
        return self + _IntPoly({e: -c for e, c in other.items()})

    def __mul__(self, other: "_IntPoly") -> "_IntPoly":
        if len(self) > len(other):
            self, other = other, self
        if len(self) == 1:
            ((e, c),) = self.items()
            return _IntPoly({e + k: c * v for k, v in other.items()})
        out = _IntPoly()
        get = out.get
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        for e in [e for e, c in out.items() if not c]:
            del out[e]
        return out

    def skein_step(self, z: "_IntPoly", a: "_IntPoly",
                   b: "_IntPoly") -> "_IntPoly":
        """``self + z * (a - b)``, the value at a branch point from those
        of its switched, A and B children, built in one dict."""
        out = _IntPoly(self)
        get = out.get
        for ez, cz in z.items():
            for e, c in a.items():
                e += ez
                out[e] = get(e, 0) + cz * c
            for e, c in b.items():
                e += ez
                out[e] = get(e, 0) - cz * c
        for e in [e for e, c in out.items() if not c]:
            del out[e]
        return out

    def inverse(self) -> "_IntPoly":
        # Only the monomials with coefficient +-1 are units.
        if len(self) != 1 or abs(next(iter(self.values()))) != 1:
            raise NotAUnitError("only monomials with coefficient ±1 are "
                                "invertible integer polynomials")
        ((e, c),) = self.items()
        return _IntPoly({-e: c})

    def __pow__(self, k: int) -> "_IntPoly":
        return _power(self, k, _IntPoly.one())

    @staticmethod
    def of_laurent(p: LaurentPoly) -> "_IntPoly":
        """Pack a Laurent polynomial with integer coefficients."""
        out = _IntPoly()
        for (da, dz), c in p.terms.items():
            if c.im or c.re.denominator != 1:
                raise ValueError(f"coefficient {c} is not an integer")
            if not -_Z_LIMIT < dz < _Z_LIMIT:
                raise ValueError(f"z-degree {dz} is out of the packed range")
            out[(da << _Z_SHIFT) + dz] = c.re.numerator
        return out

    def max_z_degree(self) -> int:
        """Largest ``|dz|`` of a packed polynomial."""
        return max((abs(_unpack(key)[1]) for key in self), default=0)

    def to_laurent(self) -> LaurentPoly:
        out = LaurentPoly()
        for key in sorted(self):
            out.terms[_unpack(key)] = GaussRational(Fraction(self[key]), _F0)
        return out

    def t_series(self, order: int) -> PowerSeries:
        """Expand ``sum_j c_j t^j`` at ``t = e^x``: the ``x^m`` coefficient
        is ``sum_j c_j j^m / m!``."""
        js = list(self)
        terms = list(self.values())
        coeffs = []
        fact = 1
        for m in range(order + 1):
            if m:
                fact *= m
                terms = [c * j for c, j in zip(terms, js)]
            coeffs.append(GaussRational(Fraction(sum(terms), fact), _F0))
        return PowerSeries(order, coeffs)

    @staticmethod
    def loop_factor(n: int) -> "_IntPoly":
        """``(t^(n+1) - t^-(n+1))/(t - t^-1) + 1`` in ``Z[t^±1]``.

        The quotient is the telescoped sum ``t^n + t^(n-2) + ... + t^-n``,
        so the non-unit denominator never appears; it is 0 at ``n = -1``,
        and a negative ``n`` uses the antisymmetry ``quotient(n) =
        -quotient(-n-2)``.
        """
        if n >= -1:
            out = _IntPoly({n - 2 * j: 1 for j in range(n + 1)})
        else:
            m = -n - 2
            out = _IntPoly({m - 2 * j: -1 for j in range(m + 1)})
        return out + _IntPoly.one()


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round-trip)


def _coeff_str(c: GaussRational) -> str:
    sign = "-" if c.im < 0 else "+"
    return f"{c.re}{sign}{abs(c.im)}·i"


def _parse_coeff(s: str) -> GaussRational:
    body, dot_i = s.rsplit("·", 1)
    if dot_i != "i":
        raise ValueError(f"malformed coefficient {s!r}")
    # split at the sign separating the real and imaginary parts; the
    # real part may itself start with a sign
    for k in range(1, len(body)):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re, im = body[:k], body[k:]
            return GaussRational(Fraction(re), Fraction(im))
    raise ValueError(f"malformed coefficient {s!r}")


def laurent_to_json(p: LaurentPoly) -> list[dict]:
    """Term list sorted lexicographically by (deg_a, deg_z)."""
    out = []
    for (da, dz), c in p.sorted_terms():
        out.append({"deg_a": da, "deg_z": dz,
                    "re": str(c.re), "im": str(c.im)})
    return out


def laurent_from_json(data: list[dict]) -> LaurentPoly:
    terms = {}
    for t in data:
        exp = (int(t["deg_a"]), int(t["deg_z"]))
        if exp in terms:
            raise ValueError(f"duplicate exponent {exp}")
        terms[exp] = GaussRational(Fraction(t["re"]), Fraction(t["im"]))
    return LaurentPoly(terms)


def series_to_json(s: PowerSeries) -> dict:
    return {"order": s.order, "coeffs": [_coeff_str(c) for c in s.coeffs]}


def series_from_json(data: dict) -> PowerSeries:
    order = int(data["order"])
    coeffs = [_parse_coeff(c) for c in data["coeffs"]]
    if len(coeffs) != order + 1:
        raise ValueError("coefficient count does not match the order")
    return PowerSeries(order, coeffs)
