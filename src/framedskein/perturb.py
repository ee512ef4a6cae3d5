"""Regular-isotopy perturbations: R2 pokes, R2 removals and R3 slides.

These moves never change the framed link a diagram represents, so they
are the test harness for invariance of the evaluator.  Writhe-changing
moves (R1) are deliberately absent.

An R2 poke pushes one arc of a face across another arc of the same face,
adding two crossings that bound a removable untwisted bigon.  Planarity
is the only filter: a planar poke on n crossings is by construction the
untwisted bigon ``R2Pair(n, n + 1)``, whose removal gives the diagram
back (``TestRemoval::test_matches_reference_on_corpus_pokes`` checks
both on every corpus poke).

A poke site ``(e1, e2, flipped)`` names the two arcs by stubs ``e1`` and
``e2`` of one face.  Unflipped, both arcs are run from those stubs, as
the face runs them, and the poke is always planar.  Flipped, both arcs
are run from their mates, which is planar exactly when ``mate[e1]`` and
``mate[e2]`` lie on a common face: the poke then lies in that face.
Flipping one arc only is never planar, because the other side of an arc
always belongs to another face (a 4-valent graph has no bridge), so no
face runs the two arcs in those senses.

A flipped site builds the same diagram as the unflipped site
``(mate[e1], mate[e2])`` of the face on the other side.  These
duplicates stay in the list: ``random_perturbation`` draws among the
sites, and dropping them would change the map from seed to diagram.
``random_perturbation`` lists the sites and builds only the poke it
draws, so each step builds one diagram instead of every candidate.
"""

from __future__ import annotations

import random
from typing import Iterator

from .diagram import FramedDiagram, apply_reduction, untwisted_bigon

PokeSite = tuple[int, int, bool]


def _poke_sites(d: FramedDiagram) -> list[PokeSite]:
    """Every planar poke site, in the order ``r2_insertions`` builds them:
    faces in ``faces()`` order, then ``e1`` and ``e2`` over the face,
    unflipped before flipped."""
    faces = d.faces()
    mate = d.mate
    face_of = [0] * len(mate)
    for i, face in enumerate(faces):
        for h in face:
            face_of[h] = i
    sites = []
    for face in faces:
        if len(face) < 2:
            continue
        for e1 in face:
            m1 = mate[e1]
            for e2 in face:
                if e2 == e1 or e2 == m1:
                    continue
                sites.append((e1, e2, False))
                if face_of[m1] == face_of[mate[e2]]:
                    sites.append((e1, e2, True))
    return sites


def _poke(d: FramedDiagram, site: PokeSite) -> FramedDiagram:
    e1, e2, flipped = site
    out = _try_poke(d, e1, e2, flipped, flipped)
    if out is None:
        raise AssertionError(f"poke site {site} of {d!r} is not a "
                             "removable R2 poke")
    return out


def r2_insertions(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All R2 pokes of one face edge over another edge of the same face,
    one per poke site (see the module docstring), duplicates included."""
    for site in _poke_sites(d):
        yield _poke(d, site)


def _try_poke(d: FramedDiagram, e1: int, e2: int,
              pflip: bool, qflip: bool) -> FramedDiagram | None:
    """The poke of arc ``e1`` over arc ``e2``, each run from its mate when
    flipped, or ``None`` when it is not planar, the only filter.

    The new crossings n and n + 1, both over flag 1, bound the untwisted
    bigon ``[k, k + 7]``.  Removing it with slots (0, 2) and (1, 3) runs
    ``u``-``k + 1``-``k + 3``-``k + 7``-``k + 5``-``v`` and
    ``w``-``k + 4``-``k + 6``-``k``-``k + 2``-``x``, which gives ``d``
    back; the corpus-poke test of ``TestRemoval`` checks both."""
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
    return cand if cand._is_planar() else None


def r2_removals(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All untwisted-bigon removals (independent of reduction priority)."""
    seen = set()
    for face in d.faces():
        move = untwisted_bigon(d, face[0]) if len(face) == 2 else None
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
    """Apply a few random R2/R3 moves; returns a regular-isotopic diagram.

    Each step draws uniformly among the poke sites (when the crossing cap
    allows two more crossings), the R2 removals and the R3 moves, in that
    order, and builds only the poke it draws."""
    cur = d
    for _ in range(steps):
        sites = _poke_sites(cur) if cur.n_crossings + 2 <= max_crossings \
            else []
        others = list(r2_removals(cur))
        others.extend(r3_moves(cur))
        if not sites and not others:
            break
        i = rng.randrange(len(sites) + len(others))
        cur = _poke(cur, sites[i]) if i < len(sites) else \
            others[i - len(sites)]
    return cur
