"""The top finite-type coefficient from the so(N) weight system.

For a diagram with k flat points the x^k coefficient of its derived
series invariant at n is 2^k * eps * W_N(G), with N = n + 2:

- eps is the product of the crossing signs of the flat points once each
  is resolved +1;
- G is the chord diagram with one circle per strand and one empty circle
  per free loop, and one chord per flat point between its two visits;
- W_N(G) sums over the 2^k smoothings of the chords.  An oriented
  smoothing joins the end arriving at one visit to the end leaving the
  other; a twisted one joins the two arriving ends and the two leaving
  ends.  Each state adds (-1)^(twisted chords) * N^(circles - 1).

Why: z = t - t^-1 = 2x + O(x^3), so the k-fold difference is z^k times
a signed sum of smoothings, and at x = 0 every c-component diagram is
worth delta^(c - 1) with delta = n + 2.  W_N is the so(N) vector weight
system (Bar-Natan, Topology 34 (1995)).

The weight system (``singular.son_weight_system``) reads only
``strand_components``, ``resolve_flat`` and ``crossing_sign``; the engine
is run only for the value it is compared with.
"""

import random

import pytest

from framedskein import singular, skein
from framedskein.corpus import default_corpus
from framedskein.diagram import parse_diagram
from framedskein.ring import GaussRational
from framedskein.singular import (
    chord_diagram,
    chord_weight,
    chords_of_circles,
    derived_invariant,
    flat_kink_unknot,
    insert_flat_kink,
    plus_resolution_sign,
    son_weight_system,
)
from framedskein.skein import evaluate_series


def braid(word):
    return parse_diagram(word, "braid")


def weight(sd, N):
    """W_N of the chord diagram of ``sd``, without the sign."""
    return chord_weight(*chord_diagram(sd), N)


def predicted_top(sd, n):
    k = len(sd.flat_crossings())
    return 2 ** k * son_weight_system(sd, n + 2)


def engine_top(sd, n):
    k = len(sd.flat_crossings())
    F = lambda d: evaluate_series(d, n, k)
    return derived_invariant(F, sd).value.coeffs[k]


def generated(seed, count, max_flat):
    """Braid closures of 2-4 strands and 4-10 letters, with 1 to
    ``max_flat`` flat points and sometimes a free loop."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        width = rng.randint(2, 4)
        word = " ".join(f"s{rng.randint(1, width - 1)}{rng.choice(('', '^-1'))}"
                        for _ in range(rng.randint(4, 10)))
        d = braid(word).add_free_loops(rng.randrange(2))
        k = rng.randint(1, min(max_flat, d.n_crossings))
        for c in rng.sample(range(d.n_crossings), k):
            d = d.make_flat(c)
        out.append(d)
    return out


def eight_flat(seed, count):
    """3- and 4-braid closures of 12 letters with 8 flat points, so that
    ``derived_invariant`` sums 256 resolutions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        width = rng.choice((3, 4))
        d = braid(" ".join(f"s{rng.randint(1, width - 1)}"
                           f"{rng.choice(('', '^-1'))}" for _ in range(12)))
        for c in rng.sample(range(12), 8):
            d = d.make_flat(c)
        out.append(d)
    return out


CASES = {
    "trefoil-3-flat": braid("s1 s1 s1").make_flat(0).make_flat(1).make_flat(2),
    "flat-kink": flat_kink_unknot(),
    "hopf-clasp": braid("s1 s1").make_flat(0),
    "generated": generated(7, 40, 5),
    # kink chains and braids whose +1 resolutions are of either sign
    "corpus": [e.diagram() for e in default_corpus() if e.n_flat],
}


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_top_coefficient_matches_the_engine(name, n):
    cases = CASES[name]
    for sd in cases if isinstance(cases, list) else [cases]:
        assert engine_top(sd, n) == GaussRational.of(predicted_top(sd, n)), \
            sd.crossings


def test_generated_cases_are_varied():
    # several strands, free loops, 1-5 flat points, and zero and
    # non-zero tops all occur
    cases = CASES["generated"]
    assert {len(sd.flat_crossings()) for sd in cases} == {1, 2, 3, 4, 5}
    assert any(len(sd.strand_components()) > 1 for sd in cases)
    assert any(sd.free_loops for sd in cases)
    tops = [predicted_top(sd, 0) for sd in cases]
    assert 0 in tops and any(tops)


def test_corpus_cases_have_both_signs():
    # eps = -1 must occur with a non-zero weight, or a dropped eps
    # would go unseen
    signs = {plus_resolution_sign(sd) for sd in CASES["corpus"]
             if weight(sd, 2)}
    assert signs == {1, -1}


def test_flat_kink_top_is_two_n_plus_two():
    # one circle, one isolated chord: N - 1 = n + 1, and the +1
    # resolution is the positive kink
    for n in range(4):
        assert predicted_top(flat_kink_unknot(), n) == 2 * (n + 1)


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_isolated_chord_gives_n_minus_one(N):
    # a flat kink's two visits are adjacent on its strand
    for sd in [flat_kink_unknot()] + CASES["generated"][:12]:
        kinked, _ = insert_flat_kink(sd, sd.arcs[0])
        assert weight(kinked, N) == (N - 1) * weight(sd, N)


# one 3-braid and two 4-braids; their tops at n = 0 and 1 are 256, 512,
# 0 and 1536, -1024, 0
EIGHT_FLAT = eight_flat(2, 3)


@pytest.mark.parametrize("n", [0, 1])
def test_eight_flat_points(n):
    tops = [predicted_top(sd, n) for sd in EIGHT_FLAT]
    for sd, top in zip(EIGHT_FLAT, tops):
        assert len(sd.flat_crossings()) == 8
        assert engine_top(sd, n) == GaussRational.of(top), sd.crossings
    assert any(tops)


# The four-term relation, checked on W alone.  A chord diagram here is a
# list of circles, each the list of tokens met along it: ("c", m) at
# each end of chord m, and ("p", i) at insertion position i.


def random_circles(rng):
    """1-3 circles, 0-3 chords and the positions 1, 2 and 3, each token
    put at a random place on a random circle."""
    circles = [[] for _ in range(rng.randint(1, 3))]
    tokens = [("c", m) for m in range(rng.randint(0, 3)) for _ in range(2)]
    for tok in tokens + [("p", 1), ("p", 2), ("p", 3)]:
        circle = rng.choice(circles)
        circle.insert(rng.randint(0, len(circle)), tok)
    return circles


def with_chords(circles, first, second):
    """``t_first * t_second``: chord "A" between the two positions of
    ``first``, then chord "B" between those of ``second``; at a position
    in both, A's end comes first."""
    labelled = []
    for circle in circles:
        labels = []
        for kind, x in circle:
            if kind == "c":
                labels.append(x)
            else:
                labels += [lab for lab, ends in (("A", first), ("B", second))
                           if x in ends]
        labelled.append(labels)
    return chords_of_circles(labelled)


def four_term(circles, N):
    """W(t12 t13) - W(t13 t12) + W(t12 t23) - W(t23 t12), and the four
    weights."""
    t12, t13, t23 = (1, 2), (1, 3), (2, 3)
    ws = [chord_weight(*with_chords(circles, f, s), N)
          for f, s in ((t12, t13), (t13, t12), (t12, t23), (t23, t12))]
    return ws[0] - ws[1] + ws[2] - ws[3], ws


FOUR_TERM_CASES = [random_circles(random.Random(seed)) for seed in range(150)]


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_four_term_relation(N):
    weights = []
    for circles in FOUR_TERM_CASES:
        total, ws = four_term(circles, N)
        assert total == 0, circles
        weights.append(ws)
    # for N > 1 the four weights differ on some configuration, so the sum
    # is not four copies of one number cancelling; W_1 is 0 on every
    # diagram with a chord, whose two smoothings cancel
    assert any(len(set(ws)) > 1 for ws in weights) == (N > 1)


def test_four_term_cases_are_varied():
    assert {len(c) for c in FOUR_TERM_CASES} == {1, 2, 3}
    assert {sum(kind == "c" for circle in c for kind, _ in circle) // 2
            for c in FOUR_TERM_CASES} == {0, 1, 2, 3}
    # positions that share a circle, and positions on different circles
    on = [{i: k for k, circle in enumerate(c) for kind, i in circle
           if kind == "p"} for c in FOUR_TERM_CASES]
    assert any(len(set(p.values())) == 1 for p in on)
    assert any(len(set(p.values())) == 3 for p in on)


def test_four_term_needs_the_twist_sign(monkeypatch):
    # with the (-1)^twisted sign dropped the relation fails, so the
    # check above has teeth
    monkeypatch.setattr(singular, "_TWIST", 1)
    assert any(four_term(circles, N)[0]
               for circles in FOUR_TERM_CASES for N in (2, 3))


def test_weight_system_calls_no_engine(monkeypatch):
    cases = CASES["generated"][:10] + EIGHT_FLAT
    want = [son_weight_system(sd, 3) for sd in cases]

    def boom(*args, **kwargs):
        raise AssertionError("the weight system ran the engine")
    monkeypatch.setattr(skein, "_evaluate_unchecked", boom)
    monkeypatch.setattr(singular, "evaluate_series", boom)
    assert [son_weight_system(sd, 3) for sd in cases] == want
    assert any(want)
