import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_skein import C10_WORDS, kink_chain

from framedskein import diagram, perturb, singular, skein
from framedskein.corpus import default_corpus
from framedskein.diagram import (
    DiagramError,
    DisjointSplit,
    FramedDiagram,
    FreeLoop,
    ParseError,
    R1Kink,
    R2Pair,
    apply_reduction,
    detect_reduction,
    parse_diagram,
    serialize_pd,
    untwisted_bigon,
)
from framedskein.skein import default_params, evaluate

HOPF = "s1 s1"
TREFOIL = "s1 s1 s1"
FIG8 = "s1 s2^-1 s1 s2^-1"
WORDS = ["s1", "s1^-1", HOPF, TREFOIL, FIG8, "s1 s2 s1", "s1 s2 s1 s3"]


def braid(word):
    return parse_diagram(word, "braid")


class TestConstruction:
    def test_unknot(self):
        d = parse_diagram("O", "pd")
        assert d.n_crossings == 0 and d.free_loops == 1
        assert d.n_components() == 1

    def test_nonplanar_rejected(self):
        # K5-like gluing: a one-crossing diagram with crossed-over pairing
        with pytest.raises(DiagramError):
            FramedDiagram([1], [((0, 0), (0, 2)), ((0, 1), (0, 3))])

    def test_unpaired_stub_rejected(self):
        with pytest.raises(DiagramError):
            FramedDiagram([1], [((0, 0), (0, 1))])

    @pytest.mark.parametrize("stub", [(0, 4), (1, 0), (0, -1), (-1, 3)])
    def test_out_of_range_stub_rejected(self, stub):
        # as an int 4 * c + s, (0, 4) would alias (1, 0)
        with pytest.raises(DiagramError):
            FramedDiagram([1], [((0, 0), (0, 1)), ((0, 2), stub)])

    def test_stub_matched_twice_rejected(self):
        with pytest.raises(DiagramError):
            FramedDiagram([1], [((0, 0), (0, 1)), ((0, 1), (0, 2)),
                                ((0, 2), (0, 3))])

    def test_arcs_view_is_sorted_pairs(self):
        d = FramedDiagram([1], [((0, 3), (0, 2)), ((0, 1), (0, 0))])
        assert d.arcs == (((0, 0), (0, 1)), ((0, 2), (0, 3)))
        assert d.mate == (1, 0, 3, 2)

    def test_components(self):
        assert braid(HOPF).n_components() == 2
        assert braid(TREFOIL).n_components() == 1

    def test_self_writhe(self):
        assert braid(TREFOIL).total_self_writhe() == 3
        assert braid("s1^-1").total_self_writhe() == -1
        # the two Hopf crossings are mixed: no self-writhe at all
        assert braid(HOPF).total_self_writhe() == 0

    def test_switch_negates_sign(self):
        d = braid("s1")
        assert d.crossing_sign(0) == 1
        assert d.switch_crossing(0).crossing_sign(0) == -1

    def test_only_outside_input_is_validated(self, monkeypatch):
        # Perturbations and flat kinks are diagrams by construction: they
        # neither run the public constructor nor check planarity.  A
        # parsed diagram is checked once.
        calls = []
        planar, init = FramedDiagram._is_planar, FramedDiagram.__init__

        def counted_planar(d):
            calls.append("planar")
            return planar(d)

        def counted_init(d, *args, **kwargs):
            calls.append("init")
            init(d, *args, **kwargs)
        entries = [(e, e.diagram()) for e in default_corpus()]
        monkeypatch.setattr(FramedDiagram, "_is_planar", counted_planar)
        monkeypatch.setattr(FramedDiagram, "__init__", counted_init)
        built = 0
        for e, d in entries:
            if not e.n_flat:
                for steps in (1, 2, 3, 4):
                    perturb.random_perturbation(d, random.Random(steps),
                                                steps=steps)
                built += len(list(perturb.r2_insertions(d)))
            for arc in d.arcs:
                for side in ("left", "right"):
                    singular.insert_flat_kink(d, arc, side)
                singular.figure_three_configuration(d, arc)
                built += 3
        assert calls == [] and built > 5000
        parse_diagram(TREFOIL, "braid")
        assert calls == ["init", "planar"]


# Closures with two and three strands: the code must fix how the
# strands meet, not only each strand on its own.
MULTI = ["s1 s1 s1 s1", "s1 s2^-1 s1 s2 s2", "s1 s1 s2 s2",
         "s1 s2^-1 s1 s1 s2^-1 s1",
         "s2 s2 s1^-1 s2 s2 s1^-1 s2 s2 s1^-1 s1^-1 s2 s2^-1"]


def relabeled(d, perm, rot, rng=None):
    """The same diagram with crossing ``c`` renamed ``perm[c]`` and its
    slots turned ``rot[c]`` steps clockwise; ``rng`` also shuffles the
    arcs and their ends."""
    def stub(h):
        c, s = h
        return (perm[c], (s - rot[c]) % 4)

    arcs = [(stub(a), stub(b)) for a, b in d.arcs]
    if rng is not None:
        arcs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in arcs]
        rng.shuffle(arcs)
    crossings = [None] * d.n_crossings
    for c, over in enumerate(d.crossings):
        crossings[perm[c]] = None if over is None else over ^ (rot[c] % 2)
    return FramedDiagram(crossings, arcs, d.free_loops)


class TestCanonicalCode:
    @given(st.sampled_from(WORDS + MULTI), st.randoms())
    @settings(max_examples=100)
    def test_invariant_under_relabeling(self, word, rng):
        d = braid(word)
        n = d.n_crossings
        perm = list(range(n))
        rng.shuffle(perm)
        rot = [rng.randrange(4) for _ in range(n)]
        assert relabeled(d, perm, rot, rng).canonical_code() == \
            d.canonical_code()

    @pytest.mark.parametrize("word", MULTI)
    def test_turning_one_crossing(self, word):
        # one slot turn moves the over-strand to the other slot pair
        d = braid(word)
        n = d.n_crossings
        for c in range(n):
            rot = [1 if i == c else 0 for i in range(n)]
            turned = relabeled(d, list(range(n)), rot)
            assert turned.crossings[c] == 1 - d.crossings[c]
            assert turned.canonical_code() == d.canonical_code()

    def test_disjoint_union_order(self):
        a, b = braid(TREFOIL), braid(MULTI[1]).add_free_loops(1)
        assert a.disjoint_union(b).canonical_code() == \
            b.disjoint_union(a).canonical_code()

    def test_distinguishes_mirror(self):
        assert braid(TREFOIL).canonical_code() != \
            braid("s1^-1 s1^-1 s1^-1").canonical_code()

    def test_distinguishes_link_mirror(self):
        d = braid(MULTI[1])
        mirror = d
        for c in range(d.n_crossings):
            mirror = mirror.switch_crossing(c)
        assert len(d.strand_components()) == 2
        assert mirror.canonical_code() != d.canonical_code()

    def test_bare_unknot_code(self):
        assert parse_diagram("O", "pd").canonical_code() == "loops:1"


def reference_walk(d, start):
    """The walk tokens from ``start`` by their definition in the module
    docstring, with no early abort."""
    num, first, twice, toks = {}, {}, set(), []
    h = home = start
    while True:
        c, s = h >> 2, h & 3
        if c in num:
            twice.add(c)
        else:
            num[c], first[c] = len(num), s
        over = d.crossings[c]
        role = 2 if over is None else (s & 1) ^ over
        toks.append(12 * num[c] + 4 * role + ((s - first[c]) & 3))
        h = d.mate[h ^ 2]
        if h == home:
            toks.append(-1)
            once = [c for c in num if c not in twice]  # in first-visit order
            if not once:
                return toks
            h = home = 4 * once[0] + ((first[once[0]] + 1) & 3)


def reference_code(d):
    """The canonical code by brute force: every start with the least
    role is walked in full, with no prefilter and no pruning."""
    if d.n_crossings == 0:
        return f"loops:{d.free_loops}"
    pieces = {}
    for c, root in enumerate(d._crossing_components()):
        pieces.setdefault(root, []).append(c)
    codes = []
    for piece in pieces.values():
        roles = {h: 2 if d.crossings[h >> 2] is None
                 else (h & 1) ^ d.crossings[h >> 2]
                 for c in piece for h in range(4 * c, 4 * c + 4)}
        least = min(roles.values())
        best = min(reference_walk(d, h) for h, r in roles.items()
                   if r == least)
        codes.append(" ".join("|" if t < 0 else str(t) for t in best))
    return ";".join(sorted(codes)) + f";loops:{d.free_loops}"


# Roots of the skein trees the reference tests run over.
TREE_ROOTS = {
    "c10": lambda: [braid(w) for w in C10_WORDS],
    "corpus": lambda: [e.diagram() for e in default_corpus() if not e.n_flat],
    "torus": lambda: [braid(f"s1^{k}") for k in range(1, 31)],
    "kinks": lambda: [kink_chain(60, seed)[0] for seed in (3, 5, 7)],
}


def tree_diagrams(roots):
    """The roots and every diagram their Laurent skein trees expand to,
    with the reduction chain of each root."""
    out = []
    for d in roots:
        out.append(d)
        evaluate(d, default_params("laurent"),
                 on_expand=lambda parent, child: out.append(child))
        while (move := detect_reduction(d)) is not None:
            d, _ = apply_reduction(d, move)
            out.append(d)
    return out


class TestPrunedCode:
    """The code walks only starts whose first two tokens are least and
    skips starts that a tie shows automorphic to one already walked."""

    @pytest.mark.parametrize("family", ["c10", "corpus", "torus", "kinks"])
    def test_matches_brute_force_on_skein_trees(self, family):
        roots = TREE_ROOTS[family]()
        for d in tree_diagrams(roots):
            assert d.canonical_code() == reference_code(d)

    def test_matches_brute_force_with_flat_crossings(self):
        for word in MULTI + ["s1^6", "s1 s2 s1 s2 s1 s2"]:
            d = braid(word)
            for c in range(d.n_crossings):
                d = d.make_flat(c)
                assert d.canonical_code() == reference_code(d)

    @given(st.sampled_from(WORDS + MULTI + ["s1^7", "s1 s2 s1 s2 s1 s2"]),
           st.randoms())
    @settings(max_examples=100)
    def test_matches_brute_force_relabeled(self, word, rng):
        d = braid(word)
        if rng.random() < 0.3:
            d = d.disjoint_union(braid(rng.choice(WORDS)))
        n = d.n_crossings
        perm = list(range(n))
        rng.shuffle(perm)
        rot = [rng.randrange(4) for _ in range(n)]
        again = relabeled(d, perm, rot, rng)
        assert again.canonical_code() == reference_code(again) == \
            reference_code(d)

    def test_skipped_starts_are_cut_or_automorphic(self, monkeypatch):
        # a least-role start that is never walked must lose on its first
        # two tokens or have the code of a start that was walked
        walked = set()
        walk = diagram._walk_tokens

        def recorded(crossings, mate, start, *rest):
            walked.add(start)
            return walk(crossings, mate, start, *rest)
        monkeypatch.setattr(diagram, "_walk_tokens", recorded)
        roots = [braid(w) for w in MULTI + [f"s1^{k}" for k in range(2, 9)]]
        roots += [braid(" ".join([w] * k)) for w, k in (
            ("s1^-1 s2^-1 s1", 3), ("s1^-1 s1^-1 s2 s3^-1", 2),
            ("s1^-1 s2 s3^-1 s2^-1", 3))]
        rng = random.Random(0)
        for d in tree_diagrams(roots):
            n = d.n_crossings
            perm = list(range(n))
            rng.shuffle(perm)
            d = relabeled(d, perm, [rng.randrange(4) for _ in range(n)])
            walked.clear()
            diagram._canonical_code(d)
            # the trees have no flat crossings: the starts are over entries
            codes = {h: reference_walk(d, h) for h in range(4 * n)
                     if h & 1 == d.crossings[h >> 2]}
            pieces = d._crossing_components()
            for h, toks in codes.items():
                rivals = [t for t in codes if pieces[t >> 2] == pieces[h >> 2]]
                assert h in walked \
                    or toks[:2] > min(codes[t][:2] for t in rivals) \
                    or any(codes[t] == toks for t in rivals if t in walked)

    @staticmethod
    def count_walks(monkeypatch, roots):
        # positions: the tokens of a complete walk, the crossings met by
        # one that stopped
        params = default_params("laurent")
        evaluate(braid("s1"), params)  # the audit codes diagrams too
        counts = {"walks": 0, "codes": 0, "positions": 0}
        walk, code = diagram._walk_tokens, diagram._canonical_code

        def counted_walk(*args):
            counts["walks"] += 1
            toks = walk(*args)
            counts["positions"] += len(args[-1]) if toks is None else len(toks)
            return toks

        def counted_code(d):
            counts["codes"] += 1
            return code(d)
        monkeypatch.setattr(diagram, "_walk_tokens", counted_walk)
        monkeypatch.setattr(diagram, "_canonical_code", counted_code)
        for d in roots:
            evaluate(d, params)
        return counts

    def test_torus_closures_need_few_walks(self, monkeypatch):
        # every over entry of s1^k ties; the automorphisms found by the
        # first ties leave about 2.7 walks per code over these trees
        counts = self.count_walks(
            monkeypatch, [braid(f"s1^{k}") for k in range(1, 61)])
        assert counts["walks"] <= 3 * counts["codes"]
        # 689,384 when every code walked its starts afresh
        assert counts["positions"] <= 689384

    def test_kink_chain_walks(self, monkeypatch):
        # walking every least-role start took 14,520 walks for these 121
        # codes; the first two tokens leave 1,867
        counts = self.count_walks(monkeypatch, [kink_chain(120, seed=3)[0]])
        assert counts["codes"] == 121
        assert counts["walks"] <= 14520 // 4
        # 50,506 positions when each code walked afresh; the walk carried
        # from the parent leaves the other starts to stop early (9,035)
        assert counts["positions"] <= 12000


class TestCarriedWalks:
    """A kink removal hands its result the parent's least walk, edited to
    the result's walk from the same start, or nothing; no other move
    hands on a walk."""

    @staticmethod
    def assert_is_walk(d):
        start, toks, order, first = d._walk
        n = d.n_crossings
        got_order, got_first = [], [0] * n
        got = diagram._walk_tokens(d.crossings, d.mate, start, None, [-1] * n,
                                   got_first, [False] * n, got_order)
        assert toks == got
        assert order == got_order
        assert first == [got_first[c] for c in got_order]

    @pytest.mark.parametrize("family", sorted(TREE_ROOTS))
    def test_carried_walks_on_skein_trees(self, monkeypatch, family):
        carried = {"walk": 0}

        def check(d):
            # only a one-piece diagram holds a walk, and it is exact
            if d._walk is not None:
                assert not any(d._crossing_components())
                self.assert_is_walk(d)
                carried["walk"] += 1

        reduce, code = skein.apply_reduction, diagram._canonical_code

        def reduced(d, move):
            out = reduce(d, move)
            if not isinstance(move, R1Kink):
                assert out[0]._walk is None
            if isinstance(move, DisjointSplit):
                assert out[1].remainder._walk is None
            check(out[0])
            return out

        def expanded(parent, child):
            # the switched child and the A and B smoothings get nothing
            assert child._walk is None

        def checked_code(d):
            out = code(d)
            assert out == reference_code(d)
            assert d._walk is None or not any(d._crossing_components())
            return out
        monkeypatch.setattr(skein, "apply_reduction", reduced)
        monkeypatch.setattr(diagram, "_canonical_code", checked_code)
        for d in TREE_ROOTS[family]():
            evaluate(d, default_params("laurent"), on_expand=expanded)
        # every kink the torus trees remove is the start of its walk
        assert (carried["walk"] > 0) == (family != "torus")

    @pytest.mark.parametrize("words", [
        ("s1 s1 s1", "s1^-1 s2 s1^-1 s2"), ("s1 s2^-1 s1 s2^-1", "s1 s1"),
        ("s1 s2 s1 s3",)])
    def test_any_carried_walk_gives_the_code(self, words):
        # a walk's start need not be a candidate, and a diagram of
        # several pieces codes each piece afresh
        d = braid(words[0])
        for word in words[1:]:
            d = d.disjoint_union(braid(word))
        n = d.n_crossings
        want = reference_code(d)
        for h in range(4 * n):
            order, first = [], [0] * n
            toks = diagram._walk_tokens(d.crossings, d.mate, h, None,
                                        [-1] * n, first, [False] * n, order)
            e = FramedDiagram._make(d.crossings, d.mate, d.free_loops)
            e._walk = h, toks, order, [first[c] for c in order]
            assert e.canonical_code() == want

    def test_no_walk_from_a_deleted_or_switched_start(self):
        d = kink_chain(5, seed=3)[0]
        d.canonical_code()
        start = d._walk[0]
        assert d.switch_crossing(start >> 2)._walk is None
        assert d.smooth(start >> 2, "A")._walk is None
        assert diagram._walk_without_kink(d._walk, start >> 2) is None


class TestReductions:
    def test_priority_free_loop_first(self):
        d = braid("s1").add_free_loops(1)
        assert isinstance(detect_reduction(d), FreeLoop)

    def test_kink_detection_and_sign(self):
        for word, sign in (("s1", 1), ("s1^-1", -1)):
            move = detect_reduction(braid(word))
            assert isinstance(move, R1Kink) and move.sign == sign

    def test_r2_detection(self):
        d = braid("s1 s1^-1")
        move = detect_reduction(d)
        assert isinstance(move, R2Pair)
        reduced, bk = apply_reduction(d, move)
        # the closure of s1 s1^-1 is the 2-component unlink
        assert reduced.n_crossings == 0 and reduced.free_loops == 2
        assert bk.kind == "none"

    def test_twisted_bigon_not_r2(self):
        # the Hopf bigons have the same strand over only at one end
        assert detect_reduction(braid(HOPF)) is None

    def test_exhaustive_reduction_of_descending(self):
        d = braid("s1 s1^-1 s1 s1^-1")
        count = 0
        while (move := detect_reduction(d)) is not None:
            d, _ = apply_reduction(d, move)
            count += 1
            assert count < 20
        assert d.n_crossings == 0

    def test_disjoint_split(self):
        d = braid(TREFOIL).disjoint_union(braid(HOPF))
        move = detect_reduction(d)
        smaller, bk = apply_reduction(d, move)
        assert bk.kind == "split"
        parts = sorted([smaller.n_crossings, bk.remainder.n_crossings])
        assert parts == [2, 3]


def reference_pieces(d):
    """Each crossing labelled by the least crossing reachable from it."""
    out = []
    for c in range(d.n_crossings):
        reach, todo = {c}, [c]
        while todo:
            x = todo.pop()
            for m in d.mate[4 * x:4 * x + 4]:
                if m >> 2 not in reach:
                    reach.add(m >> 2)
                    todo.append(m >> 2)
        out.append(min(reach))
    return out


def reference_reduction(d):
    """The first reduction read off ``faces()``: R1 and R2 as the scan
    found them before it stopped building the faces, the split from the
    brute-force pieces with crossing 0's piece first."""
    if d.free_loops >= 1 and (d.n_crossings > 0 or d.free_loops >= 2):
        return FreeLoop()
    pieces = reference_pieces(d)
    if any(pieces):
        first = [c for c, root in enumerate(pieces) if root == 0]
        rest = [c for c, root in enumerate(pieces) if root != 0]
        return DisjointSplit(diagram._restrict(d, first, free_loops=0),
                             diagram._restrict(d, rest, d.free_loops))
    r2 = None
    for face in d.faces():
        if len(face) == 1:
            h = face[0]
            m = d.mate[h]
            over = d.crossings[m >> 2]
            if over is None:
                continue
            s0 = h & 3 if ((m - h) & 3) == 1 else m & 3
            return R1Kink(m >> 2, 1 if over == (s0 + 1) % 2 else -1)
        if len(face) == 2 and r2 is None:
            e1, _ = face
            e2 = d.mate[e1]
            c1, c2 = e1 >> 2, e2 >> 2
            over1, over2 = d.crossings[c1], d.crossings[c2]
            if c1 != c2 and over1 is not None and over2 is not None \
                    and ((e1 & 1) == over1) == ((e2 & 1) == over2):
                r2 = R2Pair(min(c1, c2), max(c1, c2))
    return r2


def form(move):
    """A reduction as a value: diagrams compare by identity, so a split
    is compared by the stored forms of its two parts."""
    if isinstance(move, DisjointSplit):
        return tuple((p.crossings, p.mate, p.free_loops)
                     for p in (move.d1, move.d2))
    return move


def expanded_nodes(monkeypatch, roots):
    """Every diagram the Laurent evaluator runs ``detect_reduction`` on
    while it evaluates the roots."""
    nodes = []
    detect = skein.detect_reduction

    def recorded(d):
        nodes.append(d)
        return detect(d)
    monkeypatch.setattr(skein, "detect_reduction", recorded)
    for d in roots:
        evaluate(d, default_params("laurent"))
    return nodes


class TestReductionScan:
    """The stub scan finds the reduction the ``faces()`` scan found."""

    @pytest.mark.parametrize("family", ["c10", "corpus", "torus", "kinks"])
    def test_matches_face_scan_on_skein_trees(self, monkeypatch, family):
        roots = TREE_ROOTS[family]()
        nodes = expanded_nodes(monkeypatch, roots)
        assert len(nodes) > len(roots)
        for d in nodes:
            assert form(detect_reduction(d)) == form(reference_reduction(d))

    def test_matches_face_scan_with_flat_crossings(self):
        # a flat 1-gon is no kink: the scan passes over it
        roots = [braid(w) for w in MULTI + ["s1^6", "s1 s2 s1 s2 s1 s2",
                                            "s1 s1^-1 s2", "s2 s1 s1^-1"]]
        roots += [e.diagram() for e in default_corpus() if e.n_flat]
        roots += [kink_chain(20, seed)[0] for seed in (3, 5)]
        checked = 0
        for d in roots:
            for c in range(d.n_crossings):
                d = d.make_flat(c)
                e = d
                while True:
                    move = detect_reduction(e)
                    assert form(move) == form(reference_reduction(e))
                    checked += 1
                    if move is None:
                        break
                    e, _ = apply_reduction(e, move)
        assert checked > 500

    def test_flat_kink_leaves_the_bigon(self):
        for word in ("s1 s1^-1 s2", "s2 s1 s1^-1"):
            d = braid(word)
            kink = 2 if word.endswith("s2") else 0
            assert isinstance(detect_reduction(d), R1Kink)
            assert detect_reduction(d.make_flat(kink)) == R2Pair(
                *sorted({0, 1, 2} - {kink}))


class TestPieces:
    """Pieces are labelled by their least crossing."""

    def test_corpus_and_tree_nodes(self, monkeypatch):
        roots = [e.diagram() for e in default_corpus()]
        nodes = roots + expanded_nodes(
            monkeypatch, [d for d in roots if not d.is_singular()])
        for d in nodes:
            assert d._crossing_components() == reference_pieces(d)

    @pytest.mark.parametrize("a", [TREFOIL, FIG8, HOPF, "s1 s3"] + MULTI)
    def test_disjoint_unions(self, a):
        a = braid(a)
        for b in [braid(w) for w in WORDS + ["s1 s3"]] + [
                braid(MULTI[1]).add_free_loops(2)]:
            for x, y in ((a, b), (b, a)):
                u = x.disjoint_union(y)
                k = x.n_crossings
                halves = (diagram._restrict(u, list(range(k)), 0),
                          diagram._restrict(u, list(range(k, u.n_crossings)),
                                            u.free_loops))
                for h in (u,) + halves:
                    assert h._crossing_components() == reference_pieces(h)
            if len(set(reference_pieces(a))) == 1 and not b.free_loops:
                move = detect_reduction(a.disjoint_union(b))
                assert isinstance(move, DisjointSplit)
                assert (move.d1.crossings, move.d1.mate) == \
                    (a.crossings, a.mate)


def reference_remove(d, pairings):
    """The stored form of ``d.remove_crossings(pairings)`` by the generic
    method: each surviving stub follows its chain through the deleted
    crossings stub by stub, crossings are renumbered by a dict, and a
    walk from every deleted stub finds the chains closed into circles."""
    mate = d.mate
    joined = {}
    for c, pairs in pairings.items():
        for s1, s2 in pairs:
            joined[4 * c + s1] = 4 * c + s2
            joined[4 * c + s2] = 4 * c + s1
    survivors = [c for c in range(d.n_crossings) if c not in pairings]
    renum = {c: i for i, c in enumerate(survivors)}
    new_mate = []
    for c in survivors:
        for m in mate[4 * c:4 * c + 4]:
            while m in joined:
                m = mate[joined[m]]
            new_mate.append(4 * renum[m >> 2] + (m & 3))
    loops = 0
    seen = set()
    for t in joined:
        if t in seen:
            continue
        u = t
        while True:
            v = joined[u]
            seen.update((u, v))
            u = mate[v]
            if u not in joined or u == t:
                break
        loops += u == t
    return (tuple([d.crossings[c] for c in survivors]), tuple(new_mate),
            d.free_loops + loops)


def stored(d):
    return (d.crossings, d.mate, d.free_loops)


# The three ways to pair the four slots of a deleted crossing.
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def checked_removals(monkeypatch):
    """Patch ``remove_crossings`` to compare every call with
    ``reference_remove``; returns the list of the calls' pairings."""
    calls = []
    remove = FramedDiagram.remove_crossings

    def compared(d, pairings):
        out = remove(d, pairings)
        assert stored(out) == reference_remove(d, pairings)
        calls.append(pairings)
        return out
    monkeypatch.setattr(FramedDiagram, "remove_crossings", compared)
    return calls


class TestRemoval:
    """``remove_crossings`` gives the stored form of the generic method."""

    @pytest.mark.parametrize("family", sorted(TREE_ROOTS))
    def test_matches_reference_on_skein_trees(self, monkeypatch, family):
        roots = TREE_ROOTS[family]()
        calls = checked_removals(monkeypatch)
        tree_diagrams(roots)
        # smoothings and kinks delete one crossing, bigons two
        assert {len(p) for p in calls} == ({1} if family == "kinks" else {1, 2})

    def test_matches_reference_on_corpus_pokes(self, monkeypatch):
        # every planar poke is the untwisted bigon of its two new
        # crossings, and removing it gives the diagram back; pokes with
        # both arcs run from their mates are tried too, as the poke
        # sites list them
        calls = checked_removals(monkeypatch)
        for e in default_corpus():
            d = e.diagram()
            n = d.n_crossings
            mate = d.mate
            for face in d.faces():
                for e1 in face:
                    for e2 in face:
                        if e2 in (e1, mate[e1]):
                            continue
                        for a, b in ((e1, e2), (mate[e1], mate[e2])):
                            p = perturb._poke(d, a, b)
                            if not p._is_planar():
                                continue
                            move = untwisted_bigon(p, 4 * n)
                            assert move == R2Pair(n, n + 1)
                            back, _ = apply_reduction(p, move)
                            assert stored(back) == stored(d)
        assert len(calls) > 1000

    @given(st.sampled_from(WORDS + MULTI + ["s1^7", "s1 s2 s1 s2 s1 s2"]),
           st.randoms())
    @settings(max_examples=200)
    def test_matches_reference_on_drawn_pairings(self, word, rng):
        d = braid(word).add_free_loops(rng.randrange(2))
        n = d.n_crossings
        k = n if rng.random() < 0.3 else rng.randint(1, n)
        pairings = {c: rng.choice(PAIRINGS) for c in rng.sample(range(n), k)}
        assert stored(d.remove_crossings(pairings)) == \
            reference_remove(d, pairings)

    @pytest.mark.parametrize("word", WORDS + MULTI)
    def test_closed_chains_become_free_loops(self, word):
        # removing every crossing leaves only circles; joining opposite
        # slots follows the strands, so each strand closes into one
        d = braid(word).add_free_loops(1)
        m = len(d.strand_components())
        for pairs, loops in ((PAIRINGS[1], m), (PAIRINGS[0], None)):
            pairings = {c: pairs for c in range(d.n_crossings)}
            out = d.remove_crossings(pairings)
            assert stored(out) == reference_remove(d, pairings)
            assert out.n_crossings == 0 and out.free_loops > 1
            if loops is not None:
                assert out.free_loops == 1 + loops


def fresh_caches(d):
    e = FramedDiagram._make(d.crossings, d.mate, d.free_loops)
    return e._crossing_components(), e.strand_components(), e.faces()


def carried_caches(d):
    return d._pieces, d._components, d._faces


class TestCarriedCaches:
    """Caches carried through a move equal the ones computed afresh."""

    @staticmethod
    def assert_carried(d):
        for got, want in zip(carried_caches(d), fresh_caches(d)):
            assert got is None or got == want

    @pytest.mark.parametrize("family", sorted(TREE_ROOTS))
    def test_tree_nodes_and_children(self, monkeypatch, family):
        nodes = expanded_nodes(monkeypatch, TREE_ROOTS[family]())
        carried = 0
        for d in nodes:
            carried += d._pieces is not None
            self.assert_carried(d)
        assert carried > 0
        for d in nodes:
            # fill the parent's caches; the children share only its
            # pieces and plan store
            d._crossing_components(), d.strand_components(), d.faces()
            n = d.n_crossings
            children = [d.add_free_loops(1),
                        apply_reduction(d.add_free_loops(1), FreeLoop())[0]]
            for c in sorted({0, n // 2, n - 1} & set(range(n))):
                flat = d.make_flat(c)
                children += [d.switch_crossing(c), flat,
                             flat.resolve_flat(c, 1), flat.resolve_flat(c, -1)]
            for e in children:
                assert e._pieces is d._pieces and e._plans is d._plans
                assert e._components is None and e._faces is None
                e.strand_components(), e.faces()
                self.assert_carried(e)
            move = detect_reduction(d)
            if isinstance(move, R1Kink):
                e, _ = apply_reduction(d, move)
                assert e._pieces == [0] * e.n_crossings
                self.assert_carried(e)


def reduced(word, pick=0):
    """The diagram an ``apply_reduction`` step makes from ``word``'s
    closure: the first piece (``pick`` 0) or the remainder (1)."""
    def step(d):
        out, bk = apply_reduction(d, detect_reduction(d))
        return (out, bk.remainder)[pick]
    return word, step


STORE_MOVES = {
    "switch": ("s1 s2 s1", lambda d: d.switch_crossing(1)),
    "resolve": ("s1 s2 s1",
                lambda d: d.make_flat(1).resolve_flat(1, -1)),
    "make_flat": ("s1 s2 s1", lambda d: d.make_flat(1)),
    "smooth A": (TREFOIL, lambda d: d.smooth(0, "A")),
    "smooth B": (TREFOIL, lambda d: d.smooth(0, "B")),
    "kink step": reduced("s1 s2"),
    "R2 step": reduced("s1 s1^-1"),
    "free-loop step": reduced("s1 s1 s1 s3^0"),
    "split step, first piece": reduced("s1 s3"),
    "split step, remainder": reduced("s1 s3", 1),
    "add_kink": (TREFOIL, lambda d: d.add_kink(d.arcs[0], -1)),
    "add_free_loops": (TREFOIL, lambda d: d.add_free_loops(2)),
    "disjoint_union": (TREFOIL, lambda d: d.disjoint_union(braid(HOPF))),
    # ``t + ()`` may return ``t`` itself, so the result keeps ``mate``
    "disjoint_union, empty right": (TREFOIL, lambda d: d.disjoint_union(
        braid("s1^0"))),
    "insert_flat_kink": (TREFOIL, lambda d: singular.insert_flat_kink(
        d, d.arcs[0])[0]),
    "poke": (TREFOIL, lambda d: perturb._poke(
        d, *perturb._poke_sites(d)[0])),
    "slide": ("s1 s2 s1", lambda d: perturb._slide(
        d, perturb._moves(d)[1][0])),
}


# The moves whose result keeps its parent's ``mate`` tuple.
SAME_MATE = {"switch", "resolve", "make_flat", "free-loop step",
             "add_free_loops", "disjoint_union, empty right"}


class TestPlanStore:
    """A diagram built from another by a move shares its plan store, so
    an evaluation of one diagram of a lineage can reuse what another
    recorded; only the parsers and the public constructor start one."""

    @pytest.mark.parametrize("move", sorted(STORE_MOVES))
    def test_every_move_shares_its_parents_store(self, move):
        word, build = STORE_MOVES[move]
        parent = braid(word)
        child = build(parent)
        assert child._plans is parent._plans

    @pytest.mark.parametrize("move", sorted(STORE_MOVES))
    def test_pieces_are_shared_exactly_when_mate_is(self, move):
        word, build = STORE_MOVES[move]
        parent = braid(word)
        parent._crossing_components()
        child = build(parent)
        assert (child.mate is parent.mate) == (move in SAME_MATE)
        if move in SAME_MATE:
            assert child._pieces is parent._pieces
        elif move == "kink step":
            # a kink removal from a connected diagram carries its pieces
            assert child._pieces == [0] * child.n_crossings
        else:
            assert child._pieces is None

    @pytest.mark.parametrize("fmt,text", [
        ("pd", "X[1,2,2,1]"), ("gauss", "O1+ U1+"), ("braid", "s1"),
        ("braid", "s1^0")])
    def test_each_parse_starts_a_store(self, fmt, text):
        a, b = parse_diagram(text, fmt), parse_diagram(text, fmt)
        assert a._plans == {} and a._plans is not b._plans

    def test_the_constructors_start_a_store(self):
        d = braid(TREFOIL)
        arcs = [((0, 1), (0, 2)), ((0, 3), (0, 0))]
        made = [FramedDiagram([1], arcs), FramedDiagram([1], arcs),
                FramedDiagram._make(d.crossings, d.mate, d.free_loops)]
        assert len({id(x._plans) for x in made + [d]}) == 4
        assert all(x._plans == {} for x in made)


def reference_self_writhe(d, component):
    """Self-writhe by its definition: the signs of the crossings that
    only ``component`` passes."""
    return sum(d.crossing_sign(c) for c in range(d.n_crossings)
               if d.component_of_crossing(c) == [component])


class TestLeafWrithe:
    @pytest.mark.parametrize("family", ["c10", "corpus", "torus"])
    def test_matches_definition_on_leaves(self, monkeypatch, family):
        leaves = []
        writhe = FramedDiagram.total_self_writhe

        def recorded(d):
            leaves.append(d)
            return writhe(d)
        monkeypatch.setattr(FramedDiagram, "total_self_writhe", recorded)
        for d in TREE_ROOTS[family]():
            evaluate(d, default_params("laurent"))
        monkeypatch.undo()
        assert len(leaves) > 10
        calls = []
        entries_at = FramedDiagram.entries_at

        def counted(d, c):
            calls.append(c)
            return entries_at(d, c)
        monkeypatch.setattr(FramedDiagram, "entries_at", counted)
        for d in leaves:
            w = d.total_self_writhe()
            assert calls == []
            m = len(d.strand_components())
            per = [reference_self_writhe(d, i) for i in range(m)]
            assert w == sum(per)
            assert [d.self_writhe(i) for i in range(m)] == per
            calls.clear()

    def test_flat_self_crossing_has_no_sign(self):
        d = braid(TREFOIL).make_flat(1).disjoint_union(braid("s1"))
        with pytest.raises(DiagramError):
            d.total_self_writhe()
        with pytest.raises(DiagramError):
            d.self_writhe(0)
        assert d.self_writhe(1) == 1


class TestMoves:
    def test_smoothings_drop_one_crossing(self):
        d = braid(TREFOIL)
        for kind in ("A", "B"):
            assert d.smooth(0, kind).n_crossings == 2

    def test_a_flat_crossing_smooths_as_its_plus_resolution(self):
        # Its A-smoothing is the +1 resolution's A-smoothing, which is the
        # -1 resolution's B-smoothing, and not the +1 resolution's B.
        def form(x):
            return x.crossings, x.mate, x.free_loops
        d = braid(TREFOIL)
        for c in range(3):
            flat = d.make_flat(c)
            plus, minus = flat.resolve_flat(c, 1), flat.resolve_flat(c, -1)
            for kind, other in (("A", "B"), ("B", "A")):
                got = form(flat.smooth(c, kind))
                assert got == form(plus.smooth(c, kind))
                assert got == form(minus.smooth(c, other))
                assert got != form(plus.smooth(c, other))

    def test_kink_addition_signs(self):
        base = braid(HOPF)
        arc = base.arcs[0]
        plus = base.add_kink(arc, 1)
        minus = base.add_kink(arc, -1)
        move = detect_reduction(plus)
        assert isinstance(move, R1Kink) and move.sign == 1
        move = detect_reduction(minus)
        assert isinstance(move, R1Kink) and move.sign == -1

    def test_flat_resolution(self):
        d = braid(TREFOIL).make_flat(1)
        assert d.is_singular()
        assert d.resolve_flat(1, 1).canonical_code() != \
            d.resolve_flat(1, -1).canonical_code()
        with pytest.raises(DiagramError):
            d.resolve_flat(0, 1)  # not flat

    @pytest.mark.parametrize("move", ["switch_crossing", "resolve_flat",
                                      "make_flat", "smooth"])
    def test_moves_on_one_crossing_check_its_range(self, move):
        # -1 must not name the last crossing, and n must not be an
        # IndexError
        d = braid(TREFOIL)
        flat = d.make_flat(0).make_flat(1).make_flat(2)
        act = {"switch_crossing": lambda c: d.switch_crossing(c),
               "resolve_flat": lambda c: flat.resolve_flat(c, 1),
               "make_flat": lambda c: d.make_flat(c),
               "smooth": lambda c: d.smooth(c, "A")}[move]
        act(2)
        for c in (-1, 3):
            with pytest.raises(DiagramError, match=f"no crossing {c}"):
                act(c)

    def test_free_loops_never_go_negative(self):
        d = braid(HOPF).add_free_loops(2)
        assert d.add_free_loops(-2).free_loops == 0
        with pytest.raises(DiagramError, match="negative free loop count"):
            d.add_free_loops(-3)


class TestBadCrossings:
    def test_trefoil_one_bad(self):
        assert len(braid(TREFOIL).bad_crossings()) == 1

    def test_descending_after_switch(self):
        d = braid(TREFOIL)
        d2 = d.switch_crossing(d.bad_crossings()[0])
        assert d2.is_descending()


class TestParsing:
    @given(st.sampled_from(WORDS))
    def test_pd_round_trip(self, word):
        d = braid(word)
        again = parse_diagram(serialize_pd(d), "pd")
        assert again.canonical_code() == d.canonical_code()

    def test_flat_pd_round_trip(self):
        d = braid(TREFOIL).make_flat(2)
        again = parse_diagram(serialize_pd(d), "pd")
        assert again.canonical_code() == d.canonical_code()

    def test_gauss_trefoil(self):
        g = parse_diagram("O1+ U2+ O3+ U1+ O2+ U3+", "gauss")
        assert g.canonical_code() == braid(TREFOIL).canonical_code()

    def test_gauss_sign_consistency_checked(self):
        with pytest.raises(ParseError):
            parse_diagram("O1+ U1-", "gauss")

    @pytest.mark.parametrize("text", ["O1+ U1+\nO1+ U1+", "O1+ O1+ U1+",
                                      "O1+ U1+ U1+"])
    def test_gauss_repeated_visit_rejected(self, text):
        with pytest.raises(ParseError):
            parse_diagram(text, "gauss")

    def test_braid_idle_strand_becomes_loop(self):
        d = parse_diagram("s1 s3", "braid")
        # strands 1,2 close to kinked unknots; strand 3,4 likewise
        assert d.n_crossings == 2

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_diagram("X[1,2,3]", "pd")

    @pytest.mark.parametrize("text", ["X", "F", "X[", "O\nX"])
    def test_short_pd_line(self, text):
        with pytest.raises(ParseError):
            parse_diagram(text, "pd")

    def test_parse_error_names_position_once(self):
        with pytest.raises(ParseError) as info:
            parse_diagram("O\nX[1,2", "pd")
        assert info.value.pos == 2
        assert str(info.value).count("position") == 1

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bad", ["X[oops", "X[1,2,3]"])
    def test_parse_error_position_on_any_line_ending(self, eol, bad):
        # a line ending of two characters once counted as one
        text = eol.join(["X[1,2,3,4]", "", "O  # a loop", bad, ""])
        with pytest.raises(ParseError) as info:
            parse_diagram(text, "pd")
        assert info.value.pos == text.index(bad)

    def test_wide_idle_braid_closure_is_small(self):
        # only the two strands of the letter get entries; the rest are
        # counted as free loops
        tracemalloc.start()
        try:
            d = parse_diagram("s9999999", "braid")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (d.n_crossings, d.free_loops) == (1, 9999998)
        assert peak < 2**20

    def test_bad_braid_token(self):
        with pytest.raises(ParseError):
            parse_diagram("s0 q2", "braid")

    @pytest.mark.parametrize("text", ["s1_0", "s1^1_0", "s+1", "s\uff11",
                                      "s1^\u0663"])
    def test_braid_numbers_are_ascii_digits(self, text):
        # int() would read these as s10, s1^10, s1, s1 and s1^3
        with pytest.raises(ParseError):
            parse_diagram(text, "braid")
