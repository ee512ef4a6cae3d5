"""Combinatorial framed link diagrams with blackboard framing.

A diagram is a 4-valent plane graph: each crossing carries four half-edge
stubs in counterclockwise cyclic order (slots 0..3) and a flag saying
which opposite pair of stubs is the over-strand; arcs form a perfect
matching on the stubs.  Crossingless circles are tracked by a counter.

Representation.  Slot ``s`` of crossing ``c`` is the int stub
``4 * c + s``, so ``h >> 2`` is its crossing, ``h & 3`` its slot and
``h ^ 2`` the opposite slot.  A diagram stores three things: the over
flags ``crossings``, the int tuple ``mate`` (``mate[h]`` is the stub at
the other end of ``h``'s arc) and the count ``free_loops``.  ``arcs`` is
a derived view, the sorted pairs of ``(crossing, slot)`` stubs, read by
``serialize_pd``, ``singular.figure_three_configuration`` and kink-chain
builders.  Faces, strands and connected pieces depend on ``mate`` alone
and are computed on demand; one depth-first search labels each crossing
with the least crossing of its piece.  Only the public constructor
``FramedDiagram(crossings, arcs, free_loops)`` validates (stub range,
perfect matching, over flags, planarity); the three parsers and
``singular.flat_kink_unknot`` call it.  Every move, perturbation and
flat kink builds its result, a diagram by construction, with the
private ``FramedDiagram._make``.  A move that keeps ``mate`` (switching,
resolving or flattening a crossing, adding or removing free loops)
shares the parent's ``mate`` tuple and carries its faces, strands,
pieces and skein plans, so each is computed at most once along such
moves.  Removing a kink from a connected diagram leaves it connected,
so that removal carries the pieces too; smoothings and bigon removals
can split a diagram, and their results compute the pieces again.

Conventions fixed here and relied on everywhere else:

* A strand entering a crossing at slot ``s`` leaves at slot ``(s + 2) % 4``.
* ``over`` is 0 when slots (0, 2) carry the over-strand, 1 for (1, 3),
  and ``None`` for a flat (singular) crossing.
* The sign of a self-crossing is +1 exactly when the under-strand enters
  one slot counterclockwise of the over-strand entry; this is the usual
  right-hand rule and is independent of traversal direction.
* The A-smoothing at a crossing is the one that splits off a circle when
  the crossing is a positive kink (so the skein rewrite
  ``D = D_switched + z * (D_A - D_B)`` is consistent with the kink laws).

Canonical code (the memo key of the evaluator).  Each connected piece
of the 4-valent graph is coded by walks in the style of Weinberg's
coding of plane graphs.  A walk starts at an entry stub and follows the
strand; when the strand closes, it goes on at the least-numbered
crossing passed only once, entering one slot counterclockwise of that
crossing's first entry, until the piece is covered.  Each visit gives
one int token ``12 * k + 4 * role + rel``: ``k`` numbers the crossings
in first-visit order, ``role`` is 0 over, 1 under, 2 flat, and ``rel``
is the entry slot counterclockwise from the crossing's first entry.
A strand's end is marked by ``-1``.  ``rel`` is counted from the first
entry over all strands, not per strand: this fixes how two strands
meet, and so tells apart multi-component diagrams whose strands are
alike one by one.  The tokens rebuild the piece up to relabelling, so
the code is complete.  The piece's code is the least token list over
all starts.  Only starts whose first two tokens are least are walked,
and those two need no walk; a walk stops as soon as its prefix exceeds
the best so far.  When a complete walk ties the best, the map between
the two walks is an automorphism of the piece, and the images of the
starts already walked are skipped (pruning after Hopcroft-Wong).  Codes
of the pieces are sorted and joined, and ``;loops:k`` records the free
loops.  The code is not stored.  A one-piece diagram keeps its least
walk (``_walk``), which seeds any later coding of it, and a move hands
it to its result only when it can edit it exactly.  Removing
a kink drops the kink's two tokens and numbers the crossings after it
one lower, switching a crossing swaps the roles of its two tokens, and
removing a free loop leaves it as it is.  Each gives the result's own
walk from the same start, which then counts as walked, and the other
starts stop as soon as they exceed it.  Removing a bigon or smoothing a
crossing can change where a strand end resumes, or split the diagram,
so their results are coded from scratch.  A walk costs O(n); the 121
codes of a 120-kink chain step through 9,035 walk positions, and the
closures ``s1^1`` to ``s1^60`` through 611,194.

Reductions.  ``detect_reduction`` returns the first of: a free loop, a
split into the piece of crossing 0 and the rest, a kink (1-gon face)
and an untwisted bigon (2-gon face).  Kinks and bigons come from one
scan over the stubs in ascending order, which meets each face at its
least stub, as ``faces()`` orders them, without building the faces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

HalfEdge = tuple[int, int]  # (crossing index, slot 0..3)


class DiagramError(ValueError):
    """Structural problem with a diagram (bad matching, non-planar, ...)."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class FramedDiagram:
    """Immutable planar link diagram; all move operations return copies.
    Its ``mate`` family shares one skein plan store, whatever built it."""

    __slots__ = ("crossings", "mate", "free_loops", "_arcs", "_components",
                 "_pieces", "_faces", "_plans", "_walk")

    def __init__(self, crossings: Iterable[Optional[int]],
                 arcs: Iterable[tuple[HalfEdge, HalfEdge]],
                 free_loops: int = 0):
        crossings = tuple(crossings)
        n = len(crossings)
        mate = [-1] * (4 * n)
        for h1, h2 in arcs:
            i, j = _stub(h1, n), _stub(h2, n)
            if i == j or mate[i] not in (-1, j) or mate[j] not in (-1, i):
                raise DiagramError("arc matching is not a fixed-point-free involution")
            mate[i], mate[j] = j, i
        if -1 in mate:
            raise DiagramError("arcs are not a perfect matching on the half-edges")
        if free_loops < 0:
            raise DiagramError("negative free loop count")
        for over in crossings:
            if over not in (0, 1, None):
                raise DiagramError(f"bad over flag {over!r}")
        self._store(crossings, tuple(mate), free_loops)
        if not self._is_planar():
            raise DiagramError("diagram is not planar (Euler count failed)")

    @classmethod
    def _make(cls, crossings: tuple, mate: tuple[int, ...],
              free_loops: int) -> "FramedDiagram":
        """The private constructor: a diagram from its stored form, with
        no checks.  Moves whose result is a diagram by construction use
        it.

        Callers build the tuples from lists, not generators: ``tuple()``
        of a generator starts at length 10 and is resized, so each one
        freed lands in CPython's free list for its final length without
        having been taken from it, and those lists grow until a full
        garbage collection, which raised peak memory."""
        d = object.__new__(cls)
        d._store(crossings, mate, free_loops)
        return d

    def _store(self, crossings, mate, free_loops) -> None:
        self.crossings: tuple[Optional[int], ...] = crossings
        self.mate: tuple[int, ...] = mate
        self.free_loops = free_loops
        self._arcs = self._components = self._pieces = self._faces = None
        self._walk, self._plans = None, {}

    # -- structure ---------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> tuple[tuple[HalfEdge, HalfEdge], ...]:
        """Arcs as sorted pairs of ``(crossing, slot)`` stubs."""
        if self._arcs is None:
            self._arcs = tuple(((i >> 2, i & 3), (j >> 2, j & 3))
                               for i, j in enumerate(self.mate) if i < j)
        return self._arcs

    def flat_crossings(self) -> list[int]:
        return [c for c, over in enumerate(self.crossings) if over is None]

    def is_singular(self) -> bool:
        return bool(self.flat_crossings())

    def _is_planar(self) -> bool:
        # Euler count per connected piece of the 4-valent graph: with
        # E = 2V edges, V - E + F = 2 means F = V + 2.
        pieces = self._crossing_components()
        surplus = dict.fromkeys(pieces, 0)
        for root in pieces:
            surplus[root] -= 1
        for face in self.faces():
            surplus[pieces[face[0] >> 2]] += 1
        return all(v == 2 for v in surplus.values())

    def _crossing_components(self) -> list[int]:
        """Least crossing of each crossing's connected piece."""
        if self._pieces is None:
            mate = self.mate
            pieces = [-1] * len(self.crossings)
            for root in range(len(pieces)):
                if pieces[root] >= 0:
                    continue
                pieces[root] = root
                stack = [root]
                while stack:
                    h = 4 * stack.pop()
                    for m in mate[h:h + 4]:
                        c = m >> 2
                        if pieces[c] < 0:
                            pieces[c] = root
                            stack.append(c)
            self._pieces = pieces
        return self._pieces

    def faces(self) -> list[list[int]]:
        """Face boundaries of the rotation system.

        A face is a cyclic list of outgoing stubs, starting at its least;
        from a stub ``h`` the boundary runs along the arc to ``m = mate[h]``
        and turns to the next slot counterclockwise at that crossing.
        Faces come in order of their least stub.  The lists are computed
        once and shared, so callers must not change them.
        """
        if self._faces is None:
            mate = self.mate
            seen = [False] * len(mate)
            out = []
            for h in range(len(mate)):
                if seen[h]:
                    continue
                face = []
                while not seen[h]:
                    face.append(h)
                    seen[h] = True
                    m = mate[h]
                    h = (m & -4) | ((m + 1) & 3)
                out.append(face)
            self._faces = out
        return self._faces

    # -- strand traversal --------------------------------------------------

    def strand_components(self) -> tuple[tuple[int, ...], ...]:
        """Closed strands as tuples of entry stubs, in deterministic order.

        Each component starts at its least entry stub; components come in
        order of that stub.  Free loops are not included.
        """
        if self._components is None:
            mate = self.mate
            seen = [False] * len(mate)
            comps = []
            for h in range(len(mate)):
                if seen[h]:
                    continue
                walk = []
                while not seen[h]:
                    walk.append(h)
                    seen[h] = seen[h ^ 2] = True
                    h = mate[h ^ 2]
                comps.append(tuple(walk))
            self._components = tuple(comps)
        return self._components

    def n_components(self) -> int:
        """Number of link components, free loops included."""
        return len(self.strand_components()) + self.free_loops

    def component_of_crossing(self, c: int) -> list[int]:
        return [i for i, comp in enumerate(self.strand_components())
                if any(h >> 2 == c for h in comp)]

    def entries_at(self, c: int) -> list[int]:
        """Entry slots of the two strand passages through crossing ``c``."""
        entries = [h & 3 for comp in self.strand_components()
                   for h in comp if h >> 2 == c]
        if len(entries) != 2:
            raise DiagramError(f"crossing {c} not visited exactly twice")
        return entries

    def crossing_sign(self, c: int) -> int:
        """Sign of a resolved self-crossing (orientation independent)."""
        over = self.crossings[c]
        if over is None:
            raise DiagramError("flat crossing has no sign")
        return _sign(over, *self.entries_at(c))

    def _self_writhes(self) -> list[Optional[int]]:
        """Self-writhe of each strand, from one pass over the strands;
        ``None`` for a strand that crosses itself at a flat crossing."""
        crossings = self.crossings
        strand, entry = [-1] * len(crossings), [0] * len(crossings)
        out = []
        for i, walk in enumerate(self.strand_components()):
            w = 0
            for h in walk:
                c = h >> 2
                if strand[c] < 0:
                    strand[c], entry[c] = i, h & 3
                elif strand[c] == i and w is not None:
                    over = crossings[c]
                    w = None if over is None else w + _sign(over, entry[c], h & 3)
            out.append(w)
        return out

    def self_writhe(self, component: int) -> int:
        writhes = self._self_writhes()
        if not 0 <= component < len(writhes):
            raise DiagramError(f"unknown component {component}")
        if writhes[component] is None:
            raise DiagramError("flat crossing has no sign")
        return writhes[component]

    def total_self_writhe(self) -> int:
        writhes = self._self_writhes()
        if None in writhes:
            raise DiagramError("flat crossing has no sign")
        return sum(writhes)

    # -- local moves -------------------------------------------------------

    def _same_mate(self, crossings: tuple, free_loops: int) -> "FramedDiagram":
        """A diagram on this one's ``mate``, which also shares the caches
        that depend on ``mate`` alone: pieces, strands and faces, and the
        family's plan store."""
        d = FramedDiagram._make(crossings, self.mate, free_loops)
        d._pieces, d._components, d._faces, d._plans = \
            self._pieces, self._components, self._faces, self._plans
        return d

    def _over(self, c: int) -> Optional[int]:
        if not 0 <= c < len(self.crossings):  # -1 is no crossing either
            raise DiagramError(f"no crossing {c}")
        return self.crossings[c]

    def _with_over(self, c: int, over: Optional[int]) -> "FramedDiagram":
        new = list(self.crossings)
        new[c] = over
        return self._same_mate(tuple(new), self.free_loops)

    def switch_crossing(self, c: int) -> "FramedDiagram":
        over = self._over(c)
        if over is None:
            raise DiagramError("cannot switch a flat crossing")
        d = self._with_over(c, 1 - over)
        if self._walk is not None:
            d._walk = _walk_switched(self._walk, c)
        return d

    def resolve_flat(self, c: int, sign: int) -> "FramedDiagram":
        """Resolve a flat crossing; ``+1`` puts slots (0, 2) on top."""
        if self._over(c) is not None:
            raise DiagramError(f"crossing {c} is already resolved")
        if sign not in (1, -1):
            raise DiagramError("resolution sign must be +1 or -1")
        return self._with_over(c, 0 if sign == 1 else 1)

    def make_flat(self, c: int) -> "FramedDiagram":
        self._over(c)
        return self._with_over(c, None)

    def _smoothing_pairs(self, c: int, kind: str):
        over = self._over(c)
        if over is None:
            over = 0  # flat crossings use the positive-resolution picture
        if over == 0:
            return ((0, 3), (1, 2)) if kind == "A" else ((0, 1), (2, 3))
        return ((0, 1), (2, 3)) if kind == "A" else ((1, 2), (3, 0))

    def smooth(self, c: int, kind: str) -> "FramedDiagram":
        if kind not in ("A", "B"):
            raise DiagramError(f"unknown smoothing kind {kind!r}")
        return self.remove_crossings({c: self._smoothing_pairs(c, kind)})

    def remove_crossings(self, pairings: dict[int, tuple[tuple[int, int], tuple[int, int]]]
                         ) -> "FramedDiagram":
        """Delete crossings, rejoining their stubs by the given slot pairs.

        Chains of arcs through deleted crossings are contracted; cycles
        that close up entirely inside deleted crossings become free loops.
        """
        mate = list(self.mate)
        joined: dict[int, int] = {}  # stub of a deleted crossing -> its partner
        for c, pairs in pairings.items():
            for s1, s2 in pairs:
                joined[4 * c + s1] = 4 * c + s2
                joined[4 * c + s2] = 4 * c + s1
        # A chain runs arc, partner, arc, ... through deleted crossings.
        # Walk each open one from an end and join its two outer stubs;
        # the deleted stubs left unseen lie on chains closed into circles.
        seen: set[int] = set()
        for t in joined:
            a = mate[t]
            if t in seen or a in joined:
                continue
            b = t
            while b in joined:
                v = joined[b]
                seen.add(b)
                seen.add(v)
                b = mate[v]
            mate[a], mate[b] = b, a
        loops = 0
        for t in joined:
            if t in seen:
                continue
            loops += 1
            while t not in seen:
                v = joined[t]
                seen.add(t)
                seen.add(v)
                t = mate[v]
        # Drop the deleted crossings from the top down; no stub left
        # points into one, so the stubs above each shift down by 4.
        crossings = list(self.crossings)
        for c in sorted(pairings, reverse=True):
            del crossings[c], mate[4 * c:4 * c + 4]
            lo = 4 * c
            mate = [m - 4 if m > lo else m for m in mate]
        return FramedDiagram._make(tuple(crossings), tuple(mate),
                                   self.free_loops + loops)

    def add_kink(self, arc: tuple[HalfEdge, HalfEdge], sign: int) -> "FramedDiagram":
        """Insert a one-crossing curl of the given sign on an arc."""
        if sign not in (1, -1):
            raise DiagramError("kink sign must be +1 or -1")
        return self._curl(arc, 1 if sign == 1 else 0, 0)

    def _curl(self, arc: tuple[HalfEdge, HalfEdge], over: Optional[int],
              first: int) -> "FramedDiagram":
        """A new crossing with flag ``over`` on the arc ``(u, v)``: its
        slots ``first`` and ``first + 1`` are joined, the curl, and slots
        ``first + 2`` and ``first + 3`` (mod 4) take ``u`` and ``v``."""
        n = self.n_crossings
        i, j = _stub(arc[0], n), _stub(arc[1], n)
        if self.mate[i] != j:
            raise DiagramError("not an arc of this diagram")
        k = 4 * n
        a, b = k + first, k + ((first + 1) & 3)
        p, q = k + ((first + 2) & 3), k + ((first + 3) & 3)
        mate = list(self.mate) + [0, 0, 0, 0]
        mate[a], mate[b], mate[p], mate[q] = b, a, i, j
        mate[i], mate[j] = p, q
        return FramedDiagram._make(self.crossings + (over,), tuple(mate),
                                   self.free_loops)

    def add_free_loops(self, k: int) -> "FramedDiagram":
        if self.free_loops + k < 0:
            raise DiagramError("negative free loop count")
        return self._same_mate(self.crossings, self.free_loops + k)

    def disjoint_union(self, other: "FramedDiagram") -> "FramedDiagram":
        off = 4 * self.n_crossings
        return FramedDiagram._make(self.crossings + other.crossings,
                                   self.mate + tuple([m + off for m in other.mate]),
                                   self.free_loops + other.free_loops)

    # -- descending traversal ---------------------------------------------

    def _is_under_entry(self, c: int, s: int) -> bool:
        over = self.crossings[c]
        if over is None:
            raise DiagramError("flat crossing in descending traversal")
        return (s % 2) != over

    def bad_crossings(self) -> list[int]:
        """Crossings first met as an under-strand, in walk order."""
        seen: set[int] = set()
        out = []
        for comp in self.strand_components():
            for h in comp:
                c = h >> 2
                if c not in seen:
                    seen.add(c)
                    if self._is_under_entry(c, h & 3):
                        out.append(c)
        return out

    def is_descending(self) -> bool:
        return not self.bad_crossings()

    # -- equality / codes --------------------------------------------------

    def canonical_code(self) -> str:
        return _canonical_code(self)

    def __repr__(self) -> str:
        return (f"FramedDiagram({self.n_crossings} crossings, "
                f"{len(self.strand_components())} strands, "
                f"{self.free_loops} loops)")


def _sign(over: int, e1: int, e2: int) -> int:
    """Sign of a resolved crossing whose two strands enter at slots ``e1``
    and ``e2``, in either order."""
    o, u = (e1, e2) if e1 % 2 == over else (e2, e1)
    return 1 if (u - o) % 4 == 1 else -1


def _stub(h: HalfEdge, n: int) -> int:
    """The int stub of a ``(crossing, slot)`` pair in a diagram with ``n``
    crossings; without the range check ``(0, 4)`` would alias ``(1, 0)``."""
    c, s = h
    if c not in range(n) or s not in range(4):
        raise DiagramError(f"no half-edge {(c, s)!r} in {n} crossings")
    return 4 * c + s


# Flat crossings live on the same carrier; the alias documents intent.
SingularDiagram = FramedDiagram


# ---------------------------------------------------------------------------
# Canonical codes


def _walk_tokens(crossings: tuple, mate: tuple[int, ...], start: int,
                 best: Optional[list[int]], num: list[int], first: list[int],
                 twice: list[bool], order: list[int]) -> Optional[list[int]]:
    """Tokens of the walk from entry stub ``start`` over its connected
    piece, or ``None`` as soon as its prefix exceeds ``best``.

    Stubs are ints ``4 * crossing + slot`` and ``mate`` maps a stub to
    the stub at the other end of its arc.  ``num`` (crossing number, -1
    when not yet met), ``first`` (slot of the first entry) and ``twice``
    (passed both ways) are scratch arrays indexed by crossing; the walk
    leaves ``num`` and ``twice`` as it found them, and ``first`` and the
    empty list ``order`` (crossings by number) filled in.
    """
    toks: list[int] = []
    tied = best is not None
    resume = 0  # every crossing numbered below this is passed both ways
    h = home = start
    while True:
        c, s = h >> 2, h & 3
        k = num[c]
        if k < 0:
            k = num[c] = len(order)
            order.append(c)
            first[c] = s
            rel = 0
        else:
            twice[c] = True
            rel = (s - first[c]) & 3
        over = crossings[c]
        tok = 12 * k + 4 * (2 if over is None else (s & 1) ^ over) + rel
        if tied:
            b = best[len(toks)]
            if tok > b:
                toks = None
                break
            tied = tok == b
        toks.append(tok)
        h = mate[h ^ 2]
        if h != home:
            continue
        # The strand closed: mark it, then go on one slot counterclockwise
        # of the first entry of the least crossing passed only once.
        if tied:
            tied = best[len(toks)] == -1
        toks.append(-1)
        while resume < len(order) and twice[order[resume]]:
            resume += 1
        if resume == len(order):
            break
        c = order[resume]
        h = home = 4 * c + ((first[c] + 1) & 3)
    for c in order:
        num[c] = -1
        twice[c] = False
    return toks


# The text of each token; the last entry is the strand end, so index -1
# finds it.  Tokens of n crossings are below 12 * n; the table grows on
# demand.
_TOKEN_TEXT = ["|"]


def _piece_code(crossings: tuple, mate: tuple[int, ...],
                piece: Sequence[int], seed: Optional[tuple] = None
                ) -> tuple[str, tuple]:
    """Least walk code of one connected piece over all its starts, and
    the least walk (see ``FramedDiagram._walk``).

    Starts are the over entries (every entry of an all-flat piece) whose
    second token, read off the arc leaving the start, is least.  A
    ``seed`` walk whose start is one of them counts as walked.
    """
    flat = all(crossings[c] is None for c in piece)
    starts, least = [], 99  # above any second token
    for c in piece:
        over = crossings[c]
        if over is not None:
            stubs = (4 * c + over, 4 * c + over + 2)
        elif flat:
            stubs = range(4 * c, 4 * c + 4)
        else:
            continue
        for h in stubs:
            m = mate[h ^ 2]
            o = crossings[m >> 2]
            tok = (8 if o is None else 4 * ((m & 1) ^ o)) + \
                ((m - h) & 3 if m >> 2 == c else 12)
            if tok < least:
                starts, least = [h], tok
            elif tok == least:
                starts.append(h)
    n = len(crossings)
    num, first, twice = [-1] * n, [0] * n, [False] * n
    best = bnum = None
    done = set()
    if seed is not None and seed[0] in starts:
        bstart, best, border, bfirst = seed
        done.add(bstart)
    for s in starts:
        if s in done:
            continue
        done.add(s)
        order = []
        toks = _walk_tokens(crossings, mate, s, best, num, first, twice, order)
        if toks is None:
            continue
        if toks != best:
            bstart, best, border = s, toks, order
            bfirst = [first[c] for c in order]
            bnum = None
            continue
        # phi takes the j-th crossing of the best walk to the j-th of
        # this one, slots counted from their first entries.
        if bnum is None:
            bnum = {c: j for j, c in enumerate(border)}
        for t in list(done):
            while True:
                j = bnum[t >> 2]
                c = order[j]
                t = 4 * c + ((first[c] + t - bfirst[j]) & 3)
                if t in done:
                    break
                done.add(t)
    if len(_TOKEN_TEXT) < 12 * n:
        _TOKEN_TEXT[:-1] = map(str, range(24 * n))
    text = " ".join([_TOKEN_TEXT[t] for t in best])
    return text, (bstart, best, border, bfirst)


def _canonical_code(d: FramedDiagram) -> str:
    n = d.n_crossings
    if n == 0:
        return f"loops:{d.free_loops}"
    roots = d._crossing_components()
    if not any(roots):
        code, d._walk = _piece_code(d.crossings, d.mate, range(n), d._walk)
        return code + f";loops:{d.free_loops}"
    pieces: dict[int, list[int]] = {}
    for c, root in enumerate(roots):
        pieces.setdefault(root, []).append(c)
    codes = sorted(_piece_code(d.crossings, d.mate, p)[0]
                   for p in pieces.values())
    return ";".join(codes) + f";loops:{d.free_loops}"


# A diagram's ``_walk`` is a walk of its single piece, kept after the
# code so that the moves can hand it on: ``(start, tokens, order,
# first)``, where ``order`` lists the crossings by number and ``first``
# their first-entry slots in that order.  Only the moves that keep one
# piece hand it on: a kink removal, a switch and a free-loop removal.
# Each function below maps a walk of the parent to one of the child, or
# to ``None`` when the move deletes or switches the start's crossing.


def _walk_without_kink(walk: tuple, c: int) -> Optional[tuple]:
    """The walk after the kink at crossing ``c`` is removed.  The kink's
    two passes are consecutive tokens, and they are the only ones it
    has, so the rest of the walk, the strand ends and the resumes keep
    their order; the crossings numbered above the kink number one
    lower."""
    start, toks, order, first = walk
    if start >> 2 == c:
        return None
    if start > 4 * c:
        start -= 4
    k = order.index(c)
    lo, hi = 12 * k, 12 * k + 12
    toks = [t - 12 if t >= hi else t for t in toks if not lo <= t < hi]
    order = [x - 1 if x > c else x for x in order if x != c]
    return start, toks, order, first[:k] + first[k + 1:]


def _walk_switched(walk: tuple, c: int) -> Optional[tuple]:
    """The walk after crossing ``c`` is switched: its two tokens trade
    the over and under roles, and nothing else changes."""
    start, toks, order, first = walk
    if start >> 2 == c:
        return None
    lo = 12 * order.index(c)
    toks = [t if not lo <= t < lo + 12 else t + 4 if t < lo + 4 else t - 4
            for t in toks]
    return start, toks, order, first


# ---------------------------------------------------------------------------
# Reductions


@dataclass(frozen=True)
class FreeLoop:
    pass


@dataclass(frozen=True)
class DisjointSplit:
    d1: FramedDiagram
    d2: FramedDiagram


@dataclass(frozen=True)
class R1Kink:
    crossing: int
    sign: int


@dataclass(frozen=True)
class R2Pair:
    c1: int
    c2: int


Reduction = FreeLoop | DisjointSplit | R1Kink | R2Pair


def detect_reduction(d: FramedDiagram) -> Optional[Reduction]:
    """First crossing-count-reducing move, in fixed priority order:
    free loop, disjoint split, kink removal, untwisted bigon removal.

    A split puts the piece of crossing 0 first.  Kinks and bigons are
    found in the order of ``faces()`` without building the faces: stubs
    are scanned in ascending order, and a stub is the least of a 1-gon
    when the turn after its arc returns to it, and of a 2-gon when two
    turns do and the first lands on a larger stub."""
    if d.free_loops >= 1 and (d.n_crossings > 0 or d.free_loops >= 2):
        return FreeLoop()
    pieces = d._crossing_components()
    if any(pieces):
        first = [c for c, root in enumerate(pieces) if root == 0]
        rest = [c for c, root in enumerate(pieces) if root != 0]
        return DisjointSplit(_restrict(d, first, free_loops=0),
                             _restrict(d, rest, free_loops=d.free_loops))
    mate, crossings = d.mate, d.crossings
    r2 = None
    for h, m in enumerate(mate):
        t = (m & -4) | ((m + 1) & 3)
        if t == h:
            over = crossings[m >> 2]
            if over is None:
                continue
            # the loop arc joins slots (s0, s0 + 1) with h on s0 + 1
            return R1Kink(m >> 2, 1 if over == h & 1 else -1)
        if r2 is None and t > h:
            u = mate[t]
            if (u & -4) | ((u + 1) & 3) == h:
                r2 = untwisted_bigon(d, h)
    return r2


def untwisted_bigon(d: FramedDiagram, e1: int) -> Optional[R2Pair]:
    """The R2 move that removes the 2-gon face whose least stub is ``e1``,
    or ``None`` when the face is twisted (one strand passes over at one
    corner and under at the other), has a flat corner, or joins a
    crossing to itself."""
    e2 = d.mate[e1]
    c1, c2 = e1 >> 2, e2 >> 2
    over1, over2 = d.crossings[c1], d.crossings[c2]
    if c1 == c2 or over1 is None or over2 is None:
        return None
    if ((e1 & 1) == over1) != ((e2 & 1) == over2):
        return None
    return R2Pair(min(c1, c2), max(c1, c2))


def _restrict(d: FramedDiagram, keep: list[int], free_loops: int) -> FramedDiagram:
    """The sub-diagram on the crossings ``keep`` (ascending), which must be
    a union of connected pieces."""
    renum = {c: i for i, c in enumerate(keep)}
    mate = tuple([4 * renum[m >> 2] + (m & 3)
                  for c in keep for m in d.mate[4 * c:4 * c + 4]])
    return FramedDiagram._make(tuple([d.crossings[c] for c in keep]), mate,
                               free_loops)


@dataclass(frozen=True)
class Bookkeeping:
    kind: str  # "kink" | "delta" | "split" | "none"
    kink_sign: int = 0
    remainder: FramedDiagram | None = None


def apply_reduction(d: FramedDiagram, move: Reduction) -> tuple[FramedDiagram, Bookkeeping]:
    if isinstance(move, FreeLoop):
        if d.free_loops < 1:
            raise DiagramError("stale move: no free loop")
        reduced = d._same_mate(d.crossings, d.free_loops - 1)
        reduced._walk = d._walk
        return reduced, Bookkeeping("delta")
    if isinstance(move, DisjointSplit):
        return move.d1, Bookkeeping("split", remainder=move.d2)
    if isinstance(move, R1Kink):
        reduced = d.remove_crossings({move.crossing: ((0, 2), (1, 3))})
        if d._pieces is not None and not any(d._pieces):
            # removing a kink cannot disconnect a connected diagram
            reduced._pieces = [0] * reduced.n_crossings
        if d._walk is not None:
            reduced._walk = _walk_without_kink(d._walk, move.crossing)
        return reduced, Bookkeeping("kink", kink_sign=move.sign)
    if isinstance(move, R2Pair):
        reduced = d.remove_crossings({move.c1: ((0, 2), (1, 3)),
                                      move.c2: ((0, 2), (1, 3))})
        return reduced, Bookkeeping("none")
    raise DiagramError(f"unknown move {move!r}")


# ---------------------------------------------------------------------------
# Parsing and serialization


def parse_diagram(text: str, format: str = "pd") -> FramedDiagram:
    if format == "pd":
        return _parse_pd(text)
    if format == "gauss":
        return _parse_gauss(text)
    if format == "braid":
        return _parse_braid(text)
    raise ParseError(f"unknown format {format!r}")


def _parse_pd(text: str) -> FramedDiagram:
    crossings: list[Optional[int]] = []
    slot_labels: list[tuple[str, ...]] = []
    free_loops = 0
    pos = 0
    for raw_line in text.splitlines(keepends=True):
        start, pos = pos, pos + len(raw_line)
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "O":
            free_loops += 1
            continue
        tag = line[0]
        if tag not in ("X", "F") or not (line[1:2] == "[" and line.endswith("]")):
            raise ParseError(f"bad line {line!r}", start)
        body = line[2:-1]
        labels = tuple(p.strip() for p in body.split(","))
        if len(labels) != 4 or any(not p for p in labels):
            raise ParseError(f"expected four labels in {line!r}", start)
        crossings.append(None if tag == "F" else 1)
        slot_labels.append(labels)

    ends: dict[str, list[HalfEdge]] = {}
    for c, labels in enumerate(slot_labels):
        for s, lab in enumerate(labels):
            ends.setdefault(lab, []).append((c, s))
    arcs = []
    for lab, stubs in ends.items():
        if len(stubs) != 2:
            raise ParseError(f"edge label {lab!r} appears {len(stubs)} times, need 2")
        arcs.append((stubs[0], stubs[1]))
    try:
        return FramedDiagram(crossings, arcs, free_loops)
    except DiagramError as e:
        raise ParseError(str(e)) from e


def serialize_pd(d: FramedDiagram) -> str:
    """PD text whose parse has the same canonical code.

    Crossings with the over-strand on slots (0, 2) are emitted rotated by
    one slot so that slot 0 is always an under-strand, as the format
    requires.
    """
    labels: dict[HalfEdge, int] = {}
    for i, (a, b) in enumerate(d.arcs, start=1):
        labels[a] = i
        labels[b] = i
    lines = []
    for c, over in enumerate(d.crossings):
        rot = 1 if over == 0 else 0
        labs = [labels[(c, (s + rot) % 4)] for s in range(4)]
        tag = "F" if over is None else "X"
        lines.append(f"{tag}[{','.join(map(str, labs))}]")
    lines.extend(["O"] * d.free_loops)
    return "\n".join(lines) + "\n"


def _parse_gauss(text: str) -> FramedDiagram:
    # One component per line, e.g. "O1+ U2+ O3+ U1+ O2+ U3+".
    visits: dict[str, list[str]] = {}  # roles of each crossing's visits
    signs: dict[str, int] = {}
    comp_tokens: list[list[tuple[str, str, int]]] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = []
        for tok in line.split():
            if len(tok) < 3 or tok[0] not in "OU" or tok[-1] not in "+-":
                raise ParseError(f"bad Gauss token {tok!r}")
            role, name, sign = tok[0], tok[1:-1], 1 if tok[-1] == "+" else -1
            if name in signs and signs[name] != sign:
                raise ParseError(f"inconsistent sign for crossing {name}")
            signs[name] = sign
            visits.setdefault(name, []).append(role)
            toks.append((role, name, sign))
        comp_tokens.append(toks)
    names = sorted(signs, key=lambda n: (len(n), n))
    index = {n: i for i, n in enumerate(names)}
    for name in names:
        if sorted(visits[name]) != ["O", "U"]:
            raise ParseError(f"crossing {name} needs exactly one O and one U visit")

    # Slot layout: the over-strand enters slot 1 and leaves slot 3; the
    # under-strand of a positive crossing enters slot 2, of a negative one
    # slot 0 (so the under entry is one slot ccw of the over entry exactly
    # for positive crossings).
    def entry_exit(role: str, sign: int) -> tuple[int, int]:
        if role == "O":
            return 1, 3
        return (2, 0) if sign == 1 else (0, 2)

    arcs = []
    for toks in comp_tokens:
        stubs = []
        for role, name, sign in toks:
            e_in, e_out = entry_exit(role, sign)
            stubs.append(((index[name], e_in), (index[name], e_out)))
        for k in range(len(stubs)):
            arcs.append((stubs[k][1], stubs[(k + 1) % len(stubs)][0]))
    try:
        return FramedDiagram([1] * len(names), arcs, 0)
    except DiagramError as e:
        raise ParseError(f"Gauss code is not planar: {e}") from e


# ``int()`` would also take "_" separators, spaces and non-ASCII digits.
# The index may carry a minus only so that a negative one is named as such.
_BRAID_INDEX = re.compile(r"-?[0-9]+")
_BRAID_POWER = re.compile(r"[+-]?[0-9]+")


def _parse_braid(text: str) -> FramedDiagram:
    # Words like "s1 s2^-1 s1"; the closure is taken, idle strands become
    # free loops.
    letters: list[tuple[int, int]] = []
    width = 0
    for tok in text.split():
        t = tok
        power = 1
        if "^" in t:
            t, p = t.split("^", 1)
            if not _BRAID_POWER.fullmatch(p):
                raise ParseError(f"bad power in {tok!r}")
            power = int(p)
        if not t.startswith("s") or not _BRAID_INDEX.fullmatch(t, 1):
            raise ParseError(f"bad braid letter {tok!r}")
        k = int(t[1:])
        if k < 1:
            raise ParseError(f"strand index must be positive in {tok!r}")
        width = max(width, k + 1)
        if power == 0:
            continue
        sign = 1 if power > 0 else -1
        letters.extend([(k, sign)] * abs(power))
    if not letters:
        return FramedDiagram([], [], free_loops=max(width, 1) if width else 1)

    # Positive generator: the strand entering from the lower left passes
    # over.  Slots ccw from SW: 0=SW(in left), 1=SE(in right), 2=NE(out
    # right), 3=NW(out left).
    # Only strands that some letter touches get entries; idle ones are
    # counted as free loops.
    crossings: list[Optional[int]] = []
    arcs: list[tuple[HalfEdge, HalfEdge]] = []
    dangling: dict[int, HalfEdge] = {}
    first: dict[int, HalfEdge] = {}

    def attach(pos: int, stub_in: HalfEdge):
        if pos in dangling:
            arcs.append((dangling[pos], stub_in))
        else:
            first[pos] = stub_in

    for k, sign in letters:
        c = len(crossings)
        crossings.append(0 if sign == 1 else 1)
        attach(k, (c, 0))
        attach(k + 1, (c, 1))
        dangling[k] = (c, 3)
        dangling[k + 1] = (c, 2)
    arcs.extend((stub_out, first[pos]) for pos, stub_out in dangling.items())
    try:
        return FramedDiagram(crossings, arcs, width - len(dangling))
    except DiagramError as e:
        raise ParseError(str(e)) from e
