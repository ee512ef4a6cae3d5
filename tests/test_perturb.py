import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein import perturb
from framedskein.corpus import DEFAULT_SEED, generate_corpus
from framedskein.diagram import (
    FramedDiagram,
    R2Pair,
    apply_reduction,
    parse_diagram,
    serialize_pd,
    untwisted_bigon,
)
from framedskein.perturb import (
    _moves,
    _poke,
    _poke_sites,
    _slide,
    r2_insertions,
    r2_removals,
    r3_moves,
    random_perturbation,
)
from framedskein.skein import evaluate_laurent, evaluate_series

WORDS = ["s1 s1", "s1 s1 s1", "s1 s2^-1 s1 s2^-1", "s1 s2 s1"]


def braid(word):
    return parse_diagram(word, "braid")


def resolved_corpus():
    return [e.diagram() for e in generate_corpus(DEFAULT_SEED)
            if e.n_flat == 0]


def random_braid(rng):
    width = rng.randint(2, 5)
    return braid(" ".join(f"s{rng.randint(1, width - 1)}"
                          f"{rng.choice(('', '^-1'))}"
                          for _ in range(rng.randint(1, 9))))


def site_rule_diagrams():
    """Resolved corpus entries, random perturbations of them, random
    2-5-strand braid closures and disjoint unions of those."""
    rng = random.Random(11)
    corpus = resolved_corpus()
    out = list(corpus)
    for d in corpus:
        out.append(random_perturbation(d, rng, steps=rng.randint(1, 2),
                                       max_crossings=11))
    braids = [random_braid(rng) for _ in range(60)]
    out.extend(braids)
    for _ in range(10):
        out.append(rng.choice(braids).disjoint_union(rng.choice(corpus)))
    return out


class TestR2:
    def test_insertions_add_two_crossings_and_preserve_value(self):
        d = braid("s1 s1")
        v = evaluate_laurent(d)
        pokes = list(r2_insertions(d))
        assert pokes
        for p in pokes:
            assert p.n_crossings == d.n_crossings + 2
            assert evaluate_laurent(p) == v

    def test_removals_undo_insertions(self):
        d = braid("s1 s1 s1")
        for p in r2_insertions(d):
            assert any(r.canonical_code() == d.canonical_code()
                       for r in r2_removals(p))

    def test_removal_of_cancelling_pair(self):
        d = braid("s1 s1^-1")
        reduced = list(r2_removals(d))
        assert reduced and all(r.n_crossings == 0 for r in reduced)

    def test_twisted_bigon_not_removable(self):
        # the Hopf bigons are clasps, not cancelling pairs
        assert list(r2_removals(braid("s1 s1"))) == []


class TestPokeSites:
    def test_sites_match_the_exhaustive_filter(self):
        # Every pair of arc senses that gives a planar poke, found by
        # building all four, in the order the sites come: equal senses
        # only, the pair of mates exactly when the mates share a face.
        triples = 0
        for d in site_rule_diagrams():
            mate = d.mate
            valid = []
            for face in d.faces():
                for e1 in face:
                    for e2 in face:
                        if e2 in (e1, mate[e1]):
                            continue
                        triples += 1
                        valid.extend(
                            (e1, e2, p, q)
                            for q in (False, True) for p in (False, True)
                            if _poke(d, mate[e1] if p else e1,
                                     mate[e2] if q else e2)._is_planar())
            assert all(p == q for _, _, p, q in valid)
            assert [(mate[e1], mate[e2]) if f else (e1, e2)
                    for e1, e2, f, _ in valid] == _poke_sites(d)
        assert triples > 10000

    def _count_pokes(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _poke(*args)
        monkeypatch.setattr(perturb, "_poke", counted)
        return calls

    def test_only_the_picked_poke_is_built(self, monkeypatch):
        calls = self._count_pokes(monkeypatch)
        big = [d for d in resolved_corpus() if d.n_crossings >= 6]
        assert big
        for d in big:
            for steps in (1, 2, 3):
                for seed in range(4):
                    calls.clear()
                    random_perturbation(d, random.Random(seed), steps=steps,
                                        max_crossings=d.n_crossings + 6)
                    assert len(calls) <= steps

    def test_insertions_build_one_poke_per_site(self, monkeypatch):
        calls = self._count_pokes(monkeypatch)
        for d in resolved_corpus():
            calls.clear()
            pokes = list(r2_insertions(d))
            assert len(calls) == len(pokes) == len(_poke_sites(d))

    def test_every_listed_poke_is_planar_and_removable(self):
        # The module docstring's proof: each listed poke lies in one face,
        # so the Euler count holds without a check, and its two new
        # crossings bound the untwisted bigon whose removal gives the
        # diagram back.
        def stored(d):
            return d.crossings, d.mate, d.free_loops

        pokes = 0
        for d in perturbed_corpus():
            n = d.n_crossings
            for e1, e2 in _poke_sites(d):
                p = _poke(d, e1, e2)
                assert p._is_planar(), (serialize_pd(d), e1, e2)
                move = untwisted_bigon(p, 4 * n)
                assert move == R2Pair(n, n + 1)
                assert stored(apply_reduction(p, move)[0]) == stored(d)
                pokes += 1
        assert pokes > 30000


def perturbed_corpus():
    """The resolved corpus entries and 320 perturbations of them, of 1-4
    steps and up to 11 crossings."""
    corpus = resolved_corpus()
    rng = random.Random(17)
    return corpus + [random_perturbation(corpus[seed % len(corpus)],
                                         random.Random(seed),
                                         steps=rng.randint(1, 4),
                                         max_crossings=11)
                     for seed in range(320)]


class CountingRandom(random.Random):
    """``random_perturbation`` draws once for each step it takes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


class TestR3:
    def test_braid_relation(self):
        d1 = braid("s1 s2 s1 s1")
        d2 = braid("s2 s1 s2 s1")
        assert d1.canonical_code() != d2.canonical_code()
        codes = {m.canonical_code() for m in r3_moves(d1)}
        assert d2.canonical_code() in codes

    def test_preserves_crossing_count_and_value(self):
        for word in WORDS:
            d = braid(word)
            v = evaluate_laurent(d)
            for m in r3_moves(d):
                assert m.n_crossings == d.n_crossings
                assert evaluate_laurent(m) == v

    def test_no_slide_across_a_flat_corner(self):
        # The one triangle of s1 s2 s1 slides; with any corner flat it has
        # no strand on top there, and is not listed.
        d = braid("s1 s2 s1")
        assert _moves(d)[1] == [f for f in d.faces() if len(f) == 3]
        for c in range(3):
            assert _moves(d.make_flat(c))[1] == []

    def test_every_listed_slide_is_planar(self):
        # The module docstring's proof: a slide keeps every face but the
        # triangle, which it replaces by another, so the Euler count holds
        # without a check.
        diagrams = perturbed_corpus()
        slides = 0
        for d in diagrams:
            for face in _moves(d)[1]:
                out = _slide(d, face)
                assert out._is_planar(), serialize_pd(d)
                assert len(out.faces()) == len(d.faces())
                slides += 1
        assert len(diagrams) >= 370 and slides >= 250

    def test_moves_are_reversible(self):
        d = braid("s1 s2 s1")
        for m in r3_moves(d):
            back = {x.canonical_code() for x in r3_moves(m)}
            assert d.canonical_code() in back


class TestRandomPerturbation:
    def test_each_step_builds_one_diagram(self, monkeypatch):
        made = []
        make = FramedDiagram._make.__func__

        def counted(cls, *args):
            made.append(args)
            return make(cls, *args)
        monkeypatch.setattr(FramedDiagram, "_make", classmethod(counted))
        steps = 0
        for e in generate_corpus(DEFAULT_SEED):
            d = e.diagram()
            for seed in range(6):
                rng = CountingRandom(seed)
                made.clear()
                random_perturbation(d, rng, steps=1 + seed % 3,
                                    max_crossings=d.n_crossings + seed % 4)
                assert len(made) == rng.draws, e.id
                steps += rng.draws
        assert steps >= 500

    def test_deterministic_for_seed(self):
        d = braid("s1 s2^-1 s1 s2^-1")
        a = random_perturbation(d, random.Random(7), steps=3)
        b = random_perturbation(d, random.Random(7), steps=3)
        assert a.canonical_code() == b.canonical_code()

    def test_respects_crossing_cap(self):
        d = braid("s1 s1 s1")
        for seed in range(6):
            p = random_perturbation(d, random.Random(seed), steps=4,
                                    max_crossings=7)
            assert p.n_crossings <= 7

    @given(st.sampled_from(WORDS), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_value_preserved(self, word, seed):
        d = braid(word)
        p = random_perturbation(d, random.Random(seed), steps=2,
                                max_crossings=10)
        assert evaluate_laurent(p) == evaluate_laurent(d)

    def test_series_value_preserved(self):
        d = braid("s1 s1 s1")
        p = random_perturbation(d, random.Random(3), steps=3)
        assert evaluate_series(p, 1, 6) == evaluate_series(d, 1, 6)

    def test_corpus_and_perturbations_unchanged(self):
        # A digest of the PD texts of the default corpus and of two
        # random perturbations of each resolved entry.  It pins the map
        # from seed to diagram, and so the memo keys and values that
        # depend on it; it changes only on purpose, with a reason.
        entries = generate_corpus(DEFAULT_SEED)
        texts = [e.pd for e in entries]
        for e in entries:
            if e.n_flat == 0:
                for seed in (1, 2):
                    p = random_perturbation(e.diagram(), random.Random(seed),
                                            steps=2, max_crossings=9)
                    texts.append(serialize_pd(p))
        assert len(texts) == 165
        assert zlib.crc32("".join(texts).encode()) == 3319466072

    def test_benchmark_perturbations_and_pokes_unchanged(self):
        # The seed map at the invariance benchmark's crossing cap, one
        # and two steps, and every poke of every resolved entry in the
        # order r2_insertions yields them.
        entries = resolved_corpus()
        texts = [serialize_pd(random_perturbation(d, random.Random(seed),
                                                  steps, max_crossings=11))
                 for d in entries for seed in (3, 4) for steps in (1, 2)]
        for d in entries:
            texts.extend(serialize_pd(p) for p in r2_insertions(d))
        assert len(texts) == 3352
        assert zlib.crc32("".join(texts).encode()) == 3803753861
