"""Regular-isotopy perturbations: R2 pokes, R2 removals and R3 slides.

These moves never change the framed link a diagram represents, so they
are the test harness for invariance of the evaluator.  Writhe-changing
moves (R1) are deliberately absent.

An R2 poke pushes one arc of a face across another arc of the same face,
adding two crossings that bound a removable untwisted bigon.  A poke
site is a pair of stubs ``(e1, e2)``: the arc run from ``e1`` to
``mate[e1]`` is pushed over the arc run from ``e2`` to ``mate[e2]``.
``_poke_sites`` lists, face by face in ``faces()`` order, every pair of
stubs ``e1``, ``e2`` of the face with ``e2`` neither ``e1`` nor
``mate[e1]``, each followed by the pair of mates ``(mate[e1],
mate[e2])`` when the mates lie on a common face.

Every listed poke is planar, so none is checked.  Both arcs of a site
are run as one face runs them (for a pair of mates, the face holding
the mates), so the poke lies in that face: the finger splits the face
in two and its tip adds the bigon on the far side of the other arc,
two faces for two crossings, and the Euler count still holds.  A
poke with only one arc run against the face's sense is never planar,
because the other side of an arc always belongs to another face (a
4-valent graph has no bridge), so no face runs the two arcs in those
senses.  A planar poke on n crossings is by construction the untwisted
bigon ``R2Pair(n, n + 1)``, whose removal gives the diagram back;
``TestPokeSites::test_every_listed_poke_is_planar_and_removable``
checks both on the corpus and its perturbations.

A listed pair of mates repeats the pair that the face holding the mates
lists itself, and builds the same diagram.  The repeats stay in the
list: ``random_perturbation`` draws among the sites, and dropping them
would change the map from seed to diagram.

An R3 slide moves one side of a triangle face across the opposite
corner.  A triangle slides when its three corners are distinct and
resolved (a flat corner has no strand on top) and one side's strand is
on top at both of its corners, or under at both.  Planarity needs no
check.  Let the face run ``e0, e1, e2``, let ``m_i = mate[e_i]``, and let
``X_i`` and ``Y_i`` be the outer arcs at ``m_i ^ 2`` and ``e_i ^ 2``.
Before the slide, the face that enters the corners by ``X_i`` leaves by
``Y_(i+1)``, and the one that enters by ``Y_i`` leaves by ``X_(i+1)``.
After it, ``X_i`` ends at ``e_i`` and ``Y_i`` at ``m_i``, and tracing the
turns shows the same entries and exits, while the joined outer stubs
``e_i ^ 2`` and ``m_i ^ 2`` bound a new triangle.  So every other face
runs through the corners between the same arcs as before, the face
count is unchanged, the three corners stay in one piece, and the Euler
count still holds.  ``TestR3::test_every_listed_slide_is_planar`` checks
this on the corpus and its perturbations.

``_moves`` lists the R2 removals (as ``R2Pair`` moves) and the R3 slides
(as triangle faces) without building either.  ``random_perturbation``
lists the poke sites, the removals and the slides, and builds only the
move it draws, so each step builds one diagram.
"""

from __future__ import annotations

import random
from typing import Iterator

from .diagram import FramedDiagram, R2Pair, apply_reduction, untwisted_bigon

PokeSite = tuple[int, int]


def _poke_sites(d: FramedDiagram) -> list[PokeSite]:
    """Every poke site, in the order ``r2_insertions`` builds them (see
    the module docstring)."""
    faces = d.faces()
    mate = d.mate
    face_of = [0] * len(mate)
    for i, face in enumerate(faces):
        for h in face:
            face_of[h] = i
    sites = []
    for face in faces:
        for e1 in face:
            m1 = mate[e1]
            for e2 in face:
                if e2 == e1 or e2 == m1:
                    continue
                sites.append((e1, e2))
                m2 = mate[e2]
                if face_of[m1] == face_of[m2]:
                    sites.append((m1, m2))
    return sites


def r2_insertions(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All R2 pokes of one face edge over another edge of the same face,
    one per poke site (see the module docstring), duplicates included."""
    for e1, e2 in _poke_sites(d):
        yield _poke(d, e1, e2)


def _poke(d: FramedDiagram, e1: int, e2: int) -> FramedDiagram:
    """The poke of the arc run from ``e1`` over the arc run from ``e2``.

    The new crossings n and n + 1, both over flag 1, bound the untwisted
    bigon ``[k, k + 7]``.  Removing it with slots (0, 2) and (1, 3) runs
    ``u``-``k + 1``-``k + 3``-``k + 7``-``k + 5``-``v`` and
    ``w``-``k + 4``-``k + 6``-``k``-``k + 2``-``x``, which gives ``d``
    back."""
    u, v, w, x = e1, d.mate[e1], e2, d.mate[e2]
    # The new crossings n and n + 1 have stubs k..k + 3 and k + 4..k + 7.
    k = 4 * d.n_crossings
    mate = list(d.mate) + [0] * 8
    for a, b in ((u, k + 1), (k + 3, k + 7), (k + 5, v),
                 (w, k + 4), (k + 6, k), (k + 2, x)):
        mate[a], mate[b] = b, a
    return FramedDiagram._make(d.crossings + (1, 1), tuple(mate), d.free_loops)


def _moves(d: FramedDiagram) -> tuple[list[R2Pair], list[list[int]]]:
    """The R2 removals and the R3 slides of ``d``, building neither: the
    untwisted bigons, each once, and the triangle faces that can slide
    (see the module docstring), both in ``faces()`` order."""
    mate, crossings = d.mate, d.crossings
    removals: list[R2Pair] = []
    slides: list[list[int]] = []
    for face in d.faces():
        if len(face) == 2:
            move = untwisted_bigon(d, face[0])
            if move is not None and move not in removals:
                removals.append(move)
        elif len(face) == 3:
            if len({h >> 2 for h in face}) != 3:
                continue
            if any(crossings[h >> 2] is None for h in face):
                continue  # a flat corner has no strand on top
            # A strand can slide when its side h -> mate[h] is on top at
            # both of its corners, or at neither.
            if any(((h & 1) == crossings[h >> 2])
                   == ((mate[h] & 1) == crossings[mate[h] >> 2])
                   for h in face):
                slides.append(face)
    return removals, slides


def r2_removals(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All untwisted-bigon removals (independent of reduction priority)."""
    for move in _moves(d)[0]:
        yield apply_reduction(d, move)[0]


def r3_moves(d: FramedDiagram) -> Iterator[FramedDiagram]:
    """All triangle slides across a strand that is on top (or bottom) of
    the other two at its corners."""
    for face in _moves(d)[1]:
        yield _slide(d, face)


def _slide(d: FramedDiagram, face: list[int]) -> FramedDiagram:
    """The R3 slide across the triangle ``face``, planar by the module
    docstring's proof."""
    # Each side h -> mate[h] of the triangle is one strand; it goes on
    # outside the triangle at the opposite stubs h ^ 2 and mate[h] ^ 2.
    # Slide the strand across: each outer arc moves from its end at one
    # corner to the triangle stub at the other corner, and the two outer
    # stubs of a side are joined to each other.
    mate = d.mate
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
    return FramedDiagram._make(d.crossings, tuple(new), d.free_loops)


def random_perturbation(d: FramedDiagram, rng: random.Random,
                        steps: int = 3, max_crossings: int = 14) -> FramedDiagram:
    """Apply a few random R2/R3 moves; returns a regular-isotopic diagram.

    Each step draws uniformly among the poke sites (when the crossing cap
    allows two more crossings), the R2 removals and the R3 slides, in
    that order, and builds only the move it draws."""
    cur = d
    for _ in range(steps):
        sites = _poke_sites(cur) if cur.n_crossings + 2 <= max_crossings \
            else []
        removals, slides = _moves(cur)
        n_sites, n_removals = len(sites), len(removals)
        total = n_sites + n_removals + len(slides)
        if not total:
            break
        i = rng.randrange(total)
        if i < n_sites:
            cur = _poke(cur, *sites[i])
        elif i < n_sites + n_removals:
            cur = apply_reduction(cur, removals[i - n_sites])[0]
        else:
            cur = _slide(cur, slides[i - n_sites - n_removals])
    return cur
