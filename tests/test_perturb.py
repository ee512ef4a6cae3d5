import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein.corpus import DEFAULT_SEED, generate_corpus
from framedskein.diagram import parse_diagram, serialize_pd
from framedskein.perturb import (
    r2_insertions,
    r2_removals,
    r3_moves,
    random_perturbation,
)
from framedskein.skein import evaluate_laurent, evaluate_series

WORDS = ["s1 s1", "s1 s1 s1", "s1 s2^-1 s1 s2^-1", "s1 s2 s1"]


def braid(word):
    return parse_diagram(word, "braid")


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

    def test_moves_are_reversible(self):
        d = braid("s1 s2 s1")
        for m in r3_moves(d):
            back = {x.canonical_code() for x in r3_moves(m)}
            assert d.canonical_code() in back


class TestRandomPerturbation:
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
