"""Derived invariants of diagrams with flat (unresolved) double points.

A diagram with k flat crossings stands for the k-fold difference of its
2^k resolutions; the functions here compute those resolution tables,
their alternating sums, the framing bookkeeping of double points, and
the finite-type vanishing of the series coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .diagram import DiagramError, FramedDiagram, HalfEdge, SingularDiagram
from .ring import ZERO
from .skein import DEFAULT_NODE_BUDGET, evaluate_series

Evaluator = Callable[[FramedDiagram], object]
SignPattern = tuple[int, ...]
# chords as pairs of visits, arcs between visit ends, empty circles
ChordDiagram = tuple[list[list[int]], dict[int, int], int]


@dataclass(frozen=True)
class FramingEvent:
    """One double-point passage of a homotopy: which component carries
    the double point, the crossing sign of the passage, and the framing
    jump it causes (0 or 2)."""

    component_index: int
    sign: int
    jump: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.jump not in (0, 2):
            raise ValueError("framing jump must be 0 or 2")


def resolve_all(sd: SingularDiagram, signs: Sequence[int]) -> FramedDiagram:
    """Resolve every flat crossing, in index order, with the given signs."""
    flats = sd.flat_crossings()
    if len(signs) != len(flats):
        raise DiagramError(
            f"need {len(flats)} resolution signs, got {len(signs)}")
    out = sd
    for c, s in zip(flats, signs):
        out = out.resolve_flat(c, s)
    return out


def resolution_table(F: Evaluator, sd: SingularDiagram) -> dict[SignPattern, object]:
    flats = sd.flat_crossings()
    if not flats:
        raise DiagramError("diagram has no flat crossings")
    table = {}
    for signs in itertools.product((1, -1), repeat=len(flats)):
        table[signs] = F(resolve_all(sd, signs))
    return table


@dataclass(frozen=True)
class DerivedInvariant:
    """Full resolution table and its sign-weighted alternating sum."""

    table: dict
    value: object


def _alternating_sum(table: dict[SignPattern, object]):
    total = None
    for signs in sorted(table, reverse=True):  # (+1,...,+1) first
        term = table[signs]
        sign = 1
        for s in signs:
            sign *= s
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def derived_invariant(F: Evaluator, sd: SingularDiagram) -> DerivedInvariant:
    """For one flat point this is F(L_+) - F(L_-); in general the
    alternating sum over all 2^k resolutions, with the table attached."""
    table = resolution_table(F, sd)
    return DerivedInvariant(table, _alternating_sum(table))


def check_integrability(F: Evaluator, sd: SingularDiagram,
                        table: dict[SignPattern, object] | None = None) -> bool:
    """With two flat points the mixed difference can be taken in either
    order: f(L_x+) - f(L_x-) must equal the same double difference read
    off the full resolution table.

    Algebraically automatic when both sides come from one table, so the
    left side is recomputed from fresh one-flat derived invariants; an
    injected (possibly corrupted) ``table`` is then actually checked.
    """
    flats = sd.flat_crossings()
    if len(flats) != 2:
        raise DiagramError("integrability check needs exactly 2 flat points")
    if table is None:
        table = resolution_table(F, sd)
    p2 = flats[1]
    f_plus = derived_invariant(F, sd.resolve_flat(p2, 1)).value
    f_minus = derived_invariant(F, sd.resolve_flat(p2, -1)).value
    lhs = f_plus - f_minus
    rhs = (table[(1, 1)] - table[(-1, 1)]) - (table[(1, -1)] - table[(-1, -1)])
    return lhs == rhs


# ---------------------------------------------------------------------------
# Kink double points


def flat_kink_unknot() -> SingularDiagram:
    """Unknot with one flat kink; the +1 resolution is the positive kink."""
    return FramedDiagram([None], [((0, 1), (0, 2)), ((0, 3), (0, 0))])


def insert_flat_kink(d: FramedDiagram, arc: tuple[HalfEdge, HalfEdge],
                     side: str = "left") -> tuple[FramedDiagram, int]:
    """Put a flat kink on an arc; resolving it +1 gives a +1 framing kink.

    ``side`` picks which side of the (u -> v)-directed arc the loop sits
    on; either way the +1 resolution is the positive kink.  The kink is
    ``add_kink``'s curl turned one slot: slots 1 and 2 are joined, and
    slots 3 and 0 take ``u`` and ``v`` on the left, ``v`` and ``u`` on
    the right.  Returns the new diagram and the index of the flat
    crossing.
    """
    u, v = arc
    if side == "right":
        u, v = v, u
    elif side != "left":
        raise DiagramError(f"unknown side {side!r}")
    return d._curl((u, v), None, 1), d.n_crossings


def figure_three_configuration(d: FramedDiagram,
                               arc: tuple[HalfEdge, HalfEdge]
                               ) -> tuple[SingularDiagram, int, int]:
    """Two flat kink points in a row on one arc, looped on opposite
    sides so that strand reversal exchanges the two sites."""
    d1, p1 = insert_flat_kink(d, arc, side="left")
    nxt = [a for a in d1.arcs if (p1, 0) in a][0]
    d2, p2 = insert_flat_kink(d1, nxt, side="right")
    return d2, p1, p2


def _one_gon_at(sd: FramedDiagram, c: int) -> bool:
    """Crossing ``c`` bounds a 1-gon face exactly when one arc joins two
    neighbouring slots of ``c``."""
    mate, h = sd.mate, 4 * c
    return any(mate[h + s] == h + ((s + 1) & 3) for s in range(4))


def is_admissible_in_diagram(sd: SingularDiagram, flat_point: int) -> str:
    """``"inadmissible"`` when the flat point visibly bounds an empty
    1-gon disc (a kink double point); ``"undetermined"`` otherwise.

    Diagram-level detection is sound but incomplete: an embedded disc
    may exist without being a face of this particular diagram.
    """
    if sd._over(flat_point) is not None:
        raise DiagramError(f"crossing {flat_point} is not flat")
    return "inadmissible" if _one_gon_at(sd, flat_point) else "undetermined"


def one_term_relation_check(F: Evaluator, sd: SingularDiagram) -> bool:
    """A kink slides past an adjacent flat point: the derived invariant
    does not depend on which of two flat kink points is resolved to the
    kink of sign r.

    Canonical-code equality settles it structurally when the host
    diagram has a symmetry exchanging the two sites (a bare circle
    does); otherwise the slide is a genuinely non-planar singular
    isotopy and the two derived invariants are compared by evaluation.
    """
    flats = sd.flat_crossings()
    if len(flats) != 2:
        raise DiagramError("need exactly 2 flat points")
    p1, p2 = flats
    if not (_one_gon_at(sd, p1) and _one_gon_at(sd, p2)):
        raise DiagramError("both flat points must be kink double points")
    if sd.component_of_crossing(p1) != sd.component_of_crossing(p2):
        raise DiagramError("flat kinks must lie on the same strand")
    for r in (1, -1):
        left = sd.resolve_flat(p2, r)    # kink r at the second site
        right = sd.resolve_flat(p1, r)   # kink r at the first site
        if left.canonical_code() == right.canonical_code():
            continue
        if derived_invariant(F, left).value != derived_invariant(F, right).value:
            return False
    return True


# ---------------------------------------------------------------------------
# The so(N) weight system: the top finite-type coefficient


# the factor of a twisted smoothing in :func:`chord_weight`
_TWIST = -1


def chord_diagram(sd: FramedDiagram) -> ChordDiagram:
    """The chord diagram of ``sd``: a circle per strand, met at each of
    its flat points, and an empty circle per free loop, in the form
    :func:`chords_of_circles` returns."""
    flats = set(sd.flat_crossings())
    circles = [[h >> 2 for h in walk if h >> 2 in flats]
               for walk in sd.strand_components()]
    return chords_of_circles(circles + [[]] * sd.free_loops)


def chords_of_circles(circles: Sequence[Sequence]) -> ChordDiagram:
    """A chord diagram from the chord labels met along each circle: the
    chords as pairs of visit numbers, the arcs of the circles as a map
    between visit ends (visit v arrives at end 2v and leaves from
    2v + 1), and the number of circles with no chord."""
    visits: dict = {}
    along: dict[int, int] = {}
    empty = 0
    count = 0
    for labels in circles:
        ids = list(range(count, count + len(labels)))
        count += len(labels)
        for lab, v in zip(labels, ids):
            visits.setdefault(lab, []).append(v)
        if not ids:
            empty += 1
        for a, b in zip(ids, ids[1:] + ids[:1]):
            along[2 * a + 1], along[2 * b] = 2 * b, 2 * a + 1
    return list(visits.values()), along, empty


def chord_weight(chords: list[list[int]], along: dict[int, int], empty: int,
                 N: int) -> int:
    """``W_N``, the so(N) vector weight system, of a chord diagram in the
    form :func:`chords_of_circles` returns: the sum over the smoothings
    of the chords of ``(-1)^(twisted chords) * N^(circles - 1)``.  An
    oriented smoothing joins the end arriving at one visit to the end
    leaving the other; a twisted one joins the two arriving ends and the
    two leaving ends (Bar-Natan, Topology 34 (1995))."""
    total = 0
    for twisted in itertools.product((False, True), repeat=len(chords)):
        joined = {}
        for (p, q), tw in zip(chords, twisted):
            pairs = (((2 * p, 2 * q), (2 * p + 1, 2 * q + 1)) if tw else
                     ((2 * p, 2 * q + 1), (2 * q, 2 * p + 1)))
            for a, b in pairs:
                joined[a], joined[b] = b, a
        circles = empty
        seen = set()
        for end in along:
            if end in seen:
                continue
            circles += 1
            while end not in seen:
                seen.add(end)
                seen.add(along[end])
                end = joined[along[end]]
        total += _TWIST ** sum(twisted) * N ** (circles - 1)
    return total


def plus_resolution_sign(sd: SingularDiagram) -> int:
    """The product of the flat points' crossing signs, each resolved +1."""
    flats = sd.flat_crossings()
    resolved = resolve_all(sd, [1] * len(flats))
    eps = 1
    for c in flats:
        eps *= resolved.crossing_sign(c)
    return eps


def son_weight_system(sd: SingularDiagram, N: int) -> int:
    """``eps * W_N(G)``: the so(N) weight system of ``sd``'s chord diagram
    ``G`` times the sign :func:`plus_resolution_sign`.  It calls no
    evaluator.

    For k flat points the x^k coefficient of the derived series invariant
    at ``n = N - 2`` is ``2^k`` times this: ``z = t - t^-1 = 2x + O(x^3)``,
    so the k-fold difference is ``z^k`` times a signed sum of smoothings,
    and at ``x = 0`` a diagram of c components is worth ``delta^(c - 1)``
    with ``delta = n + 2``."""
    return plus_resolution_sign(sd) * chord_weight(*chord_diagram(sd), N)


# ---------------------------------------------------------------------------
# Framing jumps


def writhe_jump(sd: SingularDiagram, flat_point: int) -> tuple[int, ...]:
    """Per-component change of self-writhe between the two resolutions
    of one flat point (other flat points resolved identically on both
    sides, so they cancel)."""
    if sd._over(flat_point) is not None:
        raise DiagramError(f"crossing {flat_point} is not flat")
    pos = sd.resolve_flat(flat_point, 1)
    neg = sd.resolve_flat(flat_point, -1)
    for c in sd.flat_crossings():
        if c != flat_point:
            pos = pos.resolve_flat(c, 1)
            neg = neg.resolve_flat(c, 1)
    m = len(sd.strand_components())
    return tuple(pos.self_writhe(i) - neg.self_writhe(i) for i in range(m))


def total_framing(events: Sequence[FramingEvent], m: int) -> tuple[int, ...]:
    """Componentwise signed sum of framing jumps; the homotopy is framing
    preserving iff every entry is zero."""
    out = [0] * m
    for e in events:
        if not 0 <= e.component_index < m:
            raise IndexError(
                f"component {e.component_index} out of range for m={m}")
        out[e.component_index] += e.sign * e.jump
    return tuple(out)


# ---------------------------------------------------------------------------
# Finite-type vanishing


def finite_type_vanishing(n: int, m: int, sd: SingularDiagram,
                          budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """A k-fold derived series invariant has vanishing coefficients
    through x^m whenever m < k."""
    k = len(sd.flat_crossings())
    if k < 1:
        raise DiagramError("diagram has no flat crossings")
    if not 0 <= m < k:
        raise ValueError("order m must satisfy 0 <= m < k")
    F = lambda d: evaluate_series(d, n, m, budget=budget)
    total = derived_invariant(F, sd).value
    return all(c == ZERO for c in total.coeffs)
