"""Combinatorial framed link diagrams with blackboard framing.

A diagram is a 4-valent plane graph: each crossing carries four half-edge
stubs in counterclockwise cyclic order (slots 0..3) and a flag saying
which opposite pair of stubs is the over-strand; arcs form a perfect
matching on the stubs.  Crossingless circles are tracked by a counter.

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
all starts; only starts with the least first token are tried, and a
walk stops as soon as its prefix exceeds the best so far.  Codes of the
pieces are sorted and joined, and ``;loops:k`` records the free loops.
A walk costs O(n), so a piece costs O(n) per start it tries and
O(n^2) only when many starts tie, as on a symmetric torus closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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
    """Immutable planar link diagram; all move operations return copies."""

    def __init__(self, crossings: Iterable[Optional[int]],
                 arcs: Iterable[tuple[HalfEdge, HalfEdge]],
                 free_loops: int = 0, validate: bool = True):
        self.crossings: tuple[Optional[int], ...] = tuple(crossings)
        mates: dict[HalfEdge, HalfEdge] = {}
        arc_set = set()
        for h1, h2 in arcs:
            h1, h2 = tuple(h1), tuple(h2)
            arc_set.add(tuple(sorted((h1, h2))))
            mates[h1] = h2
            mates[h2] = h1
        self.arcs: tuple[tuple[HalfEdge, HalfEdge], ...] = tuple(sorted(arc_set))
        self.mates = mates
        self.free_loops = free_loops
        self._code: str | None = None
        self._components: tuple[tuple[HalfEdge, ...], ...] | None = None
        if validate:
            self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def half_edges(self) -> list[HalfEdge]:
        return [(c, s) for c in range(self.n_crossings) for s in range(4)]

    def flat_crossings(self) -> list[int]:
        return [c for c, over in enumerate(self.crossings) if over is None]

    def is_singular(self) -> bool:
        return bool(self.flat_crossings())

    def _validate(self) -> None:
        if self.free_loops < 0:
            raise DiagramError("negative free loop count")
        hes = set(self.half_edges())
        if set(self.mates) != hes:
            raise DiagramError("arcs are not a perfect matching on the half-edges")
        for h, m in self.mates.items():
            if m == h or self.mates[m] != h:
                raise DiagramError("arc matching is not a fixed-point-free involution")
        for over in self.crossings:
            if over not in (0, 1, None):
                raise DiagramError(f"bad over flag {over!r}")
        self._check_planar()

    def _check_planar(self) -> None:
        # Euler count per connected component of the 4-valent graph.
        if self.n_crossings == 0:
            return
        comp_of = self._crossing_components()
        faces_per: dict[int, int] = {}
        for face in self.faces():
            c = face[0][0]
            faces_per[comp_of[c]] = faces_per.get(comp_of[c], 0) + 1
        counts: dict[int, int] = {}
        for c in range(self.n_crossings):
            counts[comp_of[c]] = counts.get(comp_of[c], 0) + 1
        for comp, v in counts.items():
            e = 2 * v
            f = faces_per.get(comp, 0)
            if v - e + f != 2:
                raise DiagramError("diagram is not planar (Euler count failed)")

    def _crossing_components(self) -> dict[int, int]:
        parent = list(range(self.n_crossings))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (c1, _), (c2, _) in self.arcs:
            r1, r2 = find(c1), find(c2)
            if r1 != r2:
                parent[r2] = r1
        return {c: find(c) for c in range(self.n_crossings)}

    def faces(self) -> list[list[HalfEdge]]:
        """Face boundaries of the rotation system.

        A face is a cyclic list of outgoing stubs; from a stub ``h`` the
        boundary runs along the arc to ``mate(h) = (c, s)`` and turns to
        the stub ``(c, (s + 1) % 4)``.
        """
        seen: set[HalfEdge] = set()
        out = []
        for h0 in self.half_edges():
            if h0 in seen:
                continue
            face = []
            h = h0
            while True:
                face.append(h)
                seen.add(h)
                c, s = self.mates[h]
                h = (c, (s + 1) % 4)
                if h == h0:
                    break
            out.append(face)
        return out

    # -- strand traversal --------------------------------------------------

    def strand_components(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Closed strands as tuples of entry stubs, in deterministic order.

        Each component starts at its least entry stub; components are
        sorted by that stub.  Free loops are not included.
        """
        if self._components is not None:
            return self._components
        unvisited = set(self.half_edges())
        comps = []
        while unvisited:
            h0 = min(unvisited)
            walk = []
            h = h0
            while True:
                walk.append(h)
                unvisited.discard(h)
                c, s = h
                exit_stub = (c, (s + 2) % 4)
                unvisited.discard(exit_stub)
                h = self.mates[exit_stub]
                if h == h0:
                    break
            comps.append(tuple(walk))
        self._components = tuple(sorted(comps))
        return self._components

    def n_components(self) -> int:
        """Number of link components, free loops included."""
        return len(self.strand_components()) + self.free_loops

    def component_of_crossing(self, c: int) -> list[int]:
        out = []
        for i, comp in enumerate(self.strand_components()):
            if any(h[0] == c for h in comp):
                out.append(i)
        return out

    def entries_at(self, c: int) -> list[int]:
        """Entry slots of the two strand passages through crossing ``c``."""
        entries = []
        for comp in self.strand_components():
            for (ci, s) in comp:
                if ci == c:
                    entries.append(s)
        if len(entries) != 2:
            raise DiagramError(f"crossing {c} not visited exactly twice")
        return entries

    def crossing_sign(self, c: int) -> int:
        """Sign of a resolved self-crossing (orientation independent)."""
        over = self.crossings[c]
        if over is None:
            raise DiagramError("flat crossing has no sign")
        e1, e2 = self.entries_at(c)
        over_parity = 0 if over == 0 else 1
        if e1 % 2 == over_parity:
            o, u = e1, e2
        else:
            o, u = e2, e1
        return 1 if (u - o) % 4 == 1 else -1

    def self_writhe(self, component: int) -> int:
        comps = self.strand_components()
        if not 0 <= component < len(comps):
            raise DiagramError(f"unknown component {component}")
        comp = comps[component]
        counts: dict[int, int] = {}
        for (c, _) in comp:
            counts[c] = counts.get(c, 0) + 1
        w = 0
        for c, k in counts.items():
            if k == 2:
                w += self.crossing_sign(c)
        return w

    def total_self_writhe(self) -> int:
        return sum(self.self_writhe(i) for i in range(len(self.strand_components())))

    # -- local moves -------------------------------------------------------

    def switch_crossing(self, c: int) -> "FramedDiagram":
        over = self.crossings[c]
        if over is None:
            raise DiagramError("cannot switch a flat crossing")
        new = list(self.crossings)
        new[c] = 1 - over
        return FramedDiagram(new, self.arcs, self.free_loops, validate=False)

    def resolve_flat(self, c: int, sign: int) -> "FramedDiagram":
        """Resolve a flat crossing; ``+1`` puts slots (0, 2) on top."""
        if self.crossings[c] is not None:
            raise DiagramError(f"crossing {c} is already resolved")
        if sign not in (1, -1):
            raise DiagramError("resolution sign must be +1 or -1")
        new = list(self.crossings)
        new[c] = 0 if sign == 1 else 1
        return FramedDiagram(new, self.arcs, self.free_loops, validate=False)

    def make_flat(self, c: int) -> "FramedDiagram":
        new = list(self.crossings)
        new[c] = None
        return FramedDiagram(new, self.arcs, self.free_loops, validate=False)

    def _smoothing_pairs(self, c: int, kind: str):
        over = self.crossings[c]
        if over is None:
            over = 0  # flat crossings use the positive-resolution picture
        if over == 0:
            return ((0, 3), (1, 2)) if kind == "A" else ((0, 1), (2, 3))
        return ((0, 1), (2, 3)) if kind == "A" else ((1, 2), (3, 0))

    def smooth(self, c: int, kind: str) -> "FramedDiagram":
        if kind not in ("A", "B"):
            raise DiagramError(f"unknown smoothing kind {kind!r}")
        if not 0 <= c < self.n_crossings:
            raise DiagramError(f"no crossing {c}")
        return self.remove_crossings({c: self._smoothing_pairs(c, kind)})

    def remove_crossings(self, pairings: dict[int, tuple[tuple[int, int], tuple[int, int]]]
                         ) -> "FramedDiagram":
        """Delete crossings, rejoining their stubs by the given slot pairs.

        Chains of arcs through deleted crossings are contracted; cycles
        that close up entirely inside deleted crossings become free loops.
        """
        removed = set(pairings)
        internal: dict[HalfEdge, HalfEdge] = {}
        for c, pairs in pairings.items():
            for s1, s2 in pairs:
                internal[(c, s1)] = (c, s2)
                internal[(c, s2)] = (c, s1)

        new_arcs = []
        done: set[HalfEdge] = set()
        for h in self.half_edges():
            if h[0] in removed or h in done:
                continue
            m = self.mates[h]
            while m[0] in removed:
                m = self.mates[internal[m]]
            new_arcs.append((h, m))
            done.add(h)
            done.add(m)

        loops = 0
        seen: set[HalfEdge] = set()
        for c in removed:
            for s in range(4):
                t = (c, s)
                if t in seen:
                    continue
                # Walk arc/internal alternately; if we stay inside the
                # removed set we found a closed circle.
                cycle = True
                u = t
                while True:
                    seen.add(u)
                    v = internal[u]
                    seen.add(v)
                    u = self.mates[v]
                    if u[0] not in removed:
                        cycle = False
                        break
                    if u == t:
                        break
                if cycle:
                    loops += 1

        # Reindex the surviving crossings.
        survivors = [c for c in range(self.n_crossings) if c not in removed]
        remap = {c: i for i, c in enumerate(survivors)}
        crossings = [self.crossings[c] for c in survivors]
        arcs = [((remap[a[0]], a[1]), (remap[b[0]], b[1])) for a, b in new_arcs]
        return FramedDiagram(crossings, arcs, self.free_loops + loops,
                             validate=False)

    def add_kink(self, arc: tuple[HalfEdge, HalfEdge], sign: int) -> "FramedDiagram":
        """Insert a one-crossing curl of the given sign on an arc."""
        if sign not in (1, -1):
            raise DiagramError("kink sign must be +1 or -1")
        h1, h2 = arc
        if self.mates.get(tuple(h1)) != tuple(h2):
            raise DiagramError("not an arc of this diagram")
        c = self.n_crossings
        over = 1 if sign == 1 else 0
        arcs = [a for a in self.arcs if tuple(sorted((tuple(h1), tuple(h2)))) != a]
        arcs.extend([(tuple(h1), (c, 2)), ((c, 3), tuple(h2)), ((c, 0), (c, 1))])
        return FramedDiagram(list(self.crossings) + [over], arcs,
                             self.free_loops, validate=False)

    def add_free_loops(self, k: int) -> "FramedDiagram":
        return FramedDiagram(self.crossings, self.arcs, self.free_loops + k,
                             validate=False)

    def disjoint_union(self, other: "FramedDiagram") -> "FramedDiagram":
        off = self.n_crossings
        crossings = list(self.crossings) + list(other.crossings)
        arcs = list(self.arcs)
        arcs += [((a[0] + off, a[1]), (b[0] + off, b[1])) for a, b in other.arcs]
        return FramedDiagram(crossings, arcs,
                             self.free_loops + other.free_loops, validate=False)

    # -- descending traversal ---------------------------------------------

    def visit_order(self) -> list[tuple[int, int, bool]]:
        """Global walk as (crossing, entry slot, first_visit) triples."""
        seen: set[int] = set()
        out = []
        for comp in self.strand_components():
            for (c, s) in comp:
                first = c not in seen
                seen.add(c)
                out.append((c, s, first))
        return out

    def _is_under_entry(self, c: int, s: int) -> bool:
        over = self.crossings[c]
        if over is None:
            raise DiagramError("flat crossing in descending traversal")
        return (s % 2) != over

    def bad_crossings(self) -> list[int]:
        """Crossings first met as an under-strand, in walk order."""
        out = []
        for c, s, first in self.visit_order():
            if first and self._is_under_entry(c, s):
                out.append(c)
        return out

    def is_descending(self) -> bool:
        return not self.bad_crossings()

    # -- equality / codes --------------------------------------------------

    def canonical_code(self) -> str:
        if self._code is None:
            self._code = _canonical_code(self)
        return self._code

    def __repr__(self) -> str:
        return (f"FramedDiagram({self.n_crossings} crossings, "
                f"{len(self.strand_components())} strands, "
                f"{self.free_loops} loops)")


# Flat crossings live on the same carrier; the alias documents intent.
SingularDiagram = FramedDiagram


# ---------------------------------------------------------------------------
# Canonical codes


def _walk_tokens(crossings: tuple, mate: list[int], start: int,
                 best: Optional[list[int]], num: list[int], first: list[int],
                 twice: list[bool]) -> Optional[list[int]]:
    """Tokens of the walk from entry stub ``start`` over its connected
    piece, or ``None`` as soon as its prefix exceeds ``best``.

    Stubs are ints ``4 * crossing + slot`` and ``mate`` maps a stub to
    the stub at the other end of its arc.  ``num`` (crossing number, -1
    when not yet met), ``first`` (slot of the first entry) and ``twice``
    (passed both ways) are scratch arrays indexed by crossing; the walk
    leaves ``num`` and ``twice`` as it found them.
    """
    order: list[int] = []  # crossings by number
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


def _piece_code(crossings: tuple, mate: list[int], piece: list[int]) -> str:
    """Least walk code of one connected piece over all its starts.

    Only entries with the least first token can win: the over passages
    when the piece has a resolved crossing, every entry otherwise.
    """
    roles = {h: 2 if crossings[c] is None else (h & 1) ^ crossings[c]
             for c in piece for h in range(4 * c, 4 * c + 4)}
    least = min(roles.values())
    n = len(crossings)
    num, first, twice = [-1] * n, [0] * n, [False] * n
    best = None
    for start, role in roles.items():
        if role == least:
            toks = _walk_tokens(crossings, mate, start, best, num, first, twice)
            if toks is not None:
                best = toks
    return " ".join("|" if t < 0 else str(t) for t in best)


def _canonical_code(d: FramedDiagram) -> str:
    if d.n_crossings == 0:
        return f"loops:{d.free_loops}"
    mate = [0] * (4 * d.n_crossings)
    for (c1, s1), (c2, s2) in d.mates.items():
        mate[4 * c1 + s1] = 4 * c2 + s2
    pieces: dict[int, list[int]] = {}
    for c, root in d._crossing_components().items():
        pieces.setdefault(root, []).append(c)
    codes = sorted(_piece_code(d.crossings, mate, p) for p in pieces.values())
    return ";".join(codes) + f";loops:{d.free_loops}"


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
    free loop, disjoint split, kink removal, untwisted bigon removal."""
    if d.free_loops >= 1 and (d.n_crossings > 0 or d.free_loops >= 2):
        return FreeLoop()
    if d.n_crossings > 0:
        comp_of = d._crossing_components()
        roots = sorted(set(comp_of.values()))
        if len(roots) > 1:
            first = {c for c in range(d.n_crossings) if comp_of[c] == roots[0]}
            d1 = _restrict(d, first, free_loops=0)
            d2 = _restrict(d, set(range(d.n_crossings)) - first,
                           free_loops=d.free_loops)
            return DisjointSplit(d1, d2)
    r2 = None
    for face in d.faces():
        if len(face) == 1:
            h = face[0]
            m = d.mates[h]
            c = m[0]
            if d.crossings[c] is None:
                continue
            # the loop arc joins slots (s0, s0 + 1); identify s0
            s0 = h[1] if (m[1] - h[1]) % 4 == 1 else m[1]
            over = d.crossings[c]
            sign = 1 if over == (s0 + 1) % 2 else -1
            return R1Kink(c, sign)
        if len(face) == 2 and r2 is None:
            r2 = untwisted_bigon(d, face)
    return r2


def untwisted_bigon(d: FramedDiagram, face: list[HalfEdge]) -> Optional[R2Pair]:
    """The R2 move that removes a 2-gon face, or ``None`` when the face is
    twisted (one strand passes over at one corner and under at the other),
    has a flat corner, or joins a crossing to itself."""
    e1, _ = face
    c2, s2in = d.mates[e1]
    c1, s1out = e1
    if c1 == c2 or d.crossings[c1] is None or d.crossings[c2] is None:
        return None
    over1 = (s1out % 2) == d.crossings[c1]
    over2 = (s2in % 2) == d.crossings[c2]
    if over1 != over2:
        return None
    return R2Pair(min(c1, c2), max(c1, c2))


def _restrict(d: FramedDiagram, keep: set[int], free_loops: int) -> FramedDiagram:
    remap = {c: i for i, c in enumerate(sorted(keep))}
    crossings = [d.crossings[c] for c in sorted(keep)]
    arcs = []
    for a, b in d.arcs:
        if a[0] in keep:
            arcs.append(((remap[a[0]], a[1]), (remap[b[0]], b[1])))
    return FramedDiagram(crossings, arcs, free_loops, validate=False)


@dataclass(frozen=True)
class Bookkeeping:
    kind: str  # "kink" | "delta" | "split" | "none"
    kink_sign: int = 0
    remainder: FramedDiagram | None = None


def apply_reduction(d: FramedDiagram, move: Reduction) -> tuple[FramedDiagram, Bookkeeping]:
    if isinstance(move, FreeLoop):
        if d.free_loops < 1:
            raise DiagramError("stale move: no free loop")
        return (FramedDiagram(d.crossings, d.arcs, d.free_loops - 1, validate=False),
                Bookkeeping("delta"))
    if isinstance(move, DisjointSplit):
        return move.d1, Bookkeeping("split", remainder=move.d2)
    if isinstance(move, R1Kink):
        reduced = d.remove_crossings({move.crossing: ((0, 2), (1, 3))})
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
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            pos += len(raw_line) + 1
            continue
        if line == "O":
            free_loops += 1
            pos += len(raw_line) + 1
            continue
        tag = line[0]
        if tag not in ("X", "F") or not (line[1:2] == "[" and line.endswith("]")):
            raise ParseError(f"bad line {line!r}", pos)
        body = line[2:-1]
        labels = tuple(p.strip() for p in body.split(","))
        if len(labels) != 4 or any(not p for p in labels):
            raise ParseError(f"expected four labels in {line!r}", pos)
        crossings.append(None if tag == "F" else 1)
        slot_labels.append(labels)
        pos += len(raw_line) + 1

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
    visits: dict[str, dict[str, tuple[int, int]]] = {}
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
            toks.append((role, name, sign))
        comp_tokens.append(toks)
    names = sorted(signs, key=lambda n: (len(n), n))
    index = {n: i for i, n in enumerate(names)}
    seen_roles: dict[str, set[str]] = {}
    for toks in comp_tokens:
        for role, name, _ in toks:
            seen_roles.setdefault(name, set()).add(role)
    for name in names:
        if seen_roles.get(name) != {"O", "U"}:
            raise ParseError(f"crossing {name} needs one O and one U visit")

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
        if not toks:
            continue
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
            try:
                power = int(p)
            except ValueError:
                raise ParseError(f"bad power in {tok!r}")
        if not t.startswith("s"):
            raise ParseError(f"bad braid letter {tok!r}")
        try:
            k = int(t[1:])
        except ValueError:
            raise ParseError(f"bad braid letter {tok!r}")
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
    crossings: list[Optional[int]] = []
    arcs: list[tuple[HalfEdge, HalfEdge]] = []
    dangling: dict[int, HalfEdge | None] = {i: None for i in range(1, width + 1)}
    first: dict[int, HalfEdge] = {}

    def attach(pos: int, stub_in: HalfEdge):
        if dangling[pos] is None:
            first[pos] = stub_in
        else:
            arcs.append((dangling[pos], stub_in))

    for k, sign in letters:
        c = len(crossings)
        crossings.append(0 if sign == 1 else 1)
        attach(k, (c, 0))
        attach(k + 1, (c, 1))
        dangling[k] = (c, 3)
        dangling[k + 1] = (c, 2)
    loops = 0
    for pos in range(1, width + 1):
        if dangling[pos] is None:
            loops += 1
        else:
            arcs.append((dangling[pos], first[pos]))
    try:
        return FramedDiagram(crossings, arcs, loops)
    except DiagramError as e:
        raise ParseError(str(e)) from e
