"""Regular-isotopy perturbations: R2 pokes, R2 removals and R3 slides.

These moves never change the framed link a diagram represents, so they
are the test harness for invariance of the evaluator.  Writhe-changing
moves (R1) are deliberately absent.
"""

from __future__ import annotations

import random
from typing import Iterator

from .diagram import FramedDiagram, R2Pair, apply_reduction, untwisted_bigon


def r2_insertions(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All pokes of one face edge over another edge of the same face."""
    for face in d.faces():
        if len(face) < 2:
            continue
        for e1 in face:
            for e2 in face:
                if e2 == e1 or e2 == d.mate[e1]:
                    continue
                for qflip in (False, True):
                    for pflip in (False, True):
                        out = _try_poke(d, e1, e2, pflip, qflip)
                        if out is not None:
                            yield out


def _try_poke(d: FramedDiagram, e1: int, e2: int,
              pflip: bool, qflip: bool) -> FramedDiagram | None:
    u, v = e1, d.mate[e1]
    w, x = e2, d.mate[e2]
    if pflip:
        u, v = v, u
    if qflip:
        w, x = x, w
    # The new crossings n and n + 1 have stubs k..k + 3 and k + 4..k + 7.
    n = d.n_crossings
    k = 4 * n
    mate = list(d.mate) + [0] * 8
    for a, b in ((u, k + 1), (k + 3, k + 7), (k + 5, v),
                 (w, k + 4), (k + 6, k), (k + 2, x)):
        mate[a], mate[b] = b, a
    cand = FramedDiagram._make(d.crossings + (1, 1), tuple(mate), d.free_loops)
    if not cand._is_planar():
        return None
    # The poke must be immediately removable and give back the original.
    move = R2Pair(n, n + 1)
    if not any(len(f) == 2 and untwisted_bigon(cand, f) == move
               for f in cand.faces()):
        return None
    back, _ = apply_reduction(cand, move)
    if (back.crossings, back.mate, back.free_loops) != \
            (d.crossings, d.mate, d.free_loops):
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
        crossings = [d.mate[h] >> 2 for h in face]
        if len(set(crossings)) != 3:
            continue
        if any(d.crossings[c] is None for c in crossings):
            continue
        out = _try_r3(d, face)
        if out is not None:
            yield out


def _try_r3(d: FramedDiagram, face: list[int]) -> FramedDiagram | None:
    # Each side h -> mate[h] of the triangle is one strand; it goes on
    # outside the triangle at the opposite stubs h ^ 2 and mate[h] ^ 2.
    mate = d.mate

    def on_top(h: int) -> bool:
        return (h & 1) == d.crossings[h >> 2]

    if all(on_top(h) != on_top(mate[h]) for h in face):
        return None
    # Slide the strand across: each outer arc moves from its end at one
    # corner to the triangle stub at the other corner, and the two outer
    # stubs of a side are joined to each other.
    inner = {h for e in face for h in (e, mate[e])}
    moved = {}
    for e in face:
        moved[e ^ 2] = mate[e]
        moved[mate[e] ^ 2] = e
    new = list(mate)
    for h, m in enumerate(mate):
        if h not in inner:
            new[moved.get(h, h)] = moved.get(m, m)
    for e in face:
        p, q = e ^ 2, mate[e] ^ 2
        new[p], new[q] = q, p
    cand = FramedDiagram._make(d.crossings, tuple(new), d.free_loops)
    return cand if cand._is_planar() else None


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
