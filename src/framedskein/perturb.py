"""Regular-isotopy perturbations: R2 pokes, R2 removals and R3 slides.

These moves never change the framed link a diagram represents, so they
are the test harness for invariance of the evaluator.  Writhe-changing
moves (R1) are deliberately absent.
"""

from __future__ import annotations

import random
from typing import Iterator

from .diagram import (
    DiagramError,
    FramedDiagram,
    HalfEdge,
    R2Pair,
    apply_reduction,
    untwisted_bigon,
)


def _arc_of(d: FramedDiagram, h: HalfEdge) -> tuple[HalfEdge, HalfEdge]:
    return tuple(sorted((h, d.mates[h])))


def r2_insertions(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All pokes of one face edge over another edge of the same face."""
    if d.n_crossings == 0:
        return
    for face in d.faces():
        if len(face) < 2:
            continue
        for i, e1 in enumerate(face):
            for j, e2 in enumerate(face):
                if i == j or _arc_of(d, e1) == _arc_of(d, e2):
                    continue
                for qflip in (False, True):
                    for pflip in (False, True):
                        out = _try_poke(d, e1, e2, pflip, qflip)
                        if out is not None:
                            yield out


def _try_poke(d: FramedDiagram, e1: HalfEdge, e2: HalfEdge,
              pflip: bool, qflip: bool) -> FramedDiagram | None:
    u, v = e1, d.mates[e1]
    w, x = e2, d.mates[e2]
    if pflip:
        u, v = v, u
    if qflip:
        w, x = x, w
    n = d.n_crossings
    c1, c2 = n, n + 1
    removed = {_arc_of(d, e1), _arc_of(d, e2)}
    arcs = [a for a in d.arcs if a not in removed]
    arcs += [
        (u, (c1, 1)), ((c1, 3), (c2, 3)), ((c2, 1), v),
        (w, (c2, 0)), ((c2, 2), (c1, 0)), ((c1, 2), x),
    ]
    try:
        cand = FramedDiagram(list(d.crossings) + [1, 1], arcs, d.free_loops)
    except DiagramError:
        return None
    # The poke must be immediately removable and give back the original.
    move = R2Pair(c1, c2)
    if not any(len(f) == 2 and untwisted_bigon(cand, f) == move
               for f in cand.faces()):
        return None
    back, _ = apply_reduction(cand, move)
    if back.canonical_code() != d.canonical_code():
        return None
    return cand


def r2_removals(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All untwisted-bigon removals (independent of reduction priority)."""
    seen = set()
    for face in d.faces():
        move = untwisted_bigon(d, face) if len(face) == 2 else None
        if move is None or move in seen:
            continue
        seen.add(move)
        reduced, _ = apply_reduction(d, move)
        yield reduced


def r3_moves(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All triangle slides across a strand that is on top (or bottom) of
    the other two at its corners."""
    for face in d.faces():
        if len(face) != 3:
            continue
        crossings = [d.mates[h][0] for h in face]
        if len(set(crossings)) != 3:
            continue
        if any(d.crossings[c] is None for c in crossings):
            continue
        out = _try_r3(d, face)
        if out is not None:
            yield out


def _try_r3(d: FramedDiagram, face: list[HalfEdge]) -> FramedDiagram | None:
    # Corner stubs: arc h_i arrives at (c, s); the corner occupies slots
    # (s, s+1) of c and the strand of h_i passes through slots (s, s+2).
    strands = {}  # frozenset of the two crossings -> per-crossing tri stub
    corner_in = {}
    for h in face:
        c, s = d.mates[h]
        corner_in[c] = s
    for h in face:
        c_from, s_from = h
        c_to, s_to = d.mates[h]
        key = frozenset((c_from, c_to))
        # this strand's tri stubs: the outgoing stub at c_from, the
        # incoming stub at c_to
        strands[key] = {c_from: s_from, c_to: s_to}
    if len(strands) != 3:
        return None

    def over_at(c: int, slot: int) -> bool:
        return (slot % 2) == d.crossings[c]

    movable = False
    for key, stubs in strands.items():
        vals = [over_at(c, s) for c, s in stubs.items()]
        if vals[0] == vals[1]:
            movable = True
    if not movable:
        return None

    sigma: dict[HalfEdge, HalfEdge] = {}
    new_internal = []
    for key, stubs in strands.items():
        (cp, sp), (cq, sq) = stubs.items()
        p_tri, q_tri = (cp, sp), (cq, sq)
        p_ext = (cp, (sp + 2) % 4)
        q_ext = (cq, (sq + 2) % 4)
        sigma[p_ext] = q_tri
        sigma[q_ext] = p_tri
        new_internal.append((p_ext, q_ext))

    tri_arcs = {_arc_of(d, h) for h in face}
    arcs = []
    for a, b in d.arcs:
        if (a, b) in tri_arcs or tuple(sorted((a, b))) in tri_arcs:
            continue
        arcs.append((sigma.get(a, a), sigma.get(b, b)))
    arcs.extend(new_internal)
    try:
        return FramedDiagram(d.crossings, arcs, d.free_loops)
    except DiagramError:
        return None


def random_perturbation(d: FramedDiagram, rng: random.Random,
                        steps: int = 3, max_crossings: int = 14) -> FramedDiagram:
    """Apply a few random R2/R3 moves; returns a regular-isotopic diagram."""
    cur = d
    for _ in range(steps):
        moves: list[FramedDiagram] = []
        if cur.n_crossings + 2 <= max_crossings:
            moves.extend(r2_insertions(cur))
        moves.extend(r2_removals(cur))
        moves.extend(r3_moves(cur))
        if not moves:
            break
        cur = moves[rng.randrange(len(moves))]
    return cur
