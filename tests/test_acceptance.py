"""End-to-end acceptance gate.

One test class per guaranteed property, each with its runtime budget;
every comparison is exact (polynomial/series equality, no tolerances).
"""

import random
import time

import pytest

from framedskein.corpus import default_corpus
from framedskein.diagram import parse_diagram
from framedskein.oracle import laurent_to_series, specialization_check
from framedskein.perturb import random_perturbation
from framedskein.ring import (
    I,
    ZERO,
    BiSeries,
    GaussRational,
    LaurentPoly,
    PowerSeries,
    base_constants,
)
from framedskein.singular import (
    FramingEvent,
    check_integrability,
    derived_invariant,
    figure_three_configuration,
    finite_type_vanishing,
    one_term_relation_check,
    total_framing,
    writhe_jump,
)
from framedskein.skein import (
    MemoTable,
    complexity_bound,
    default_params,
    evaluate,
    evaluate_laurent,
    evaluate_series,
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def resolved(corpus):
    return [e for e in corpus if e.n_flat == 0]


@pytest.fixture(scope="module")
def singular(corpus):
    return [e for e in corpus if e.n_flat > 0]


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, (
                f"runtime budget exceeded: {elapsed:.1f}s > {self.seconds}s")


def braid(word):
    return parse_diagram(word, "braid")


class TestCriterion1NormalizationAndKinks:
    def test_unknot_and_kink_laws_both_rings(self):
        with Budget(1):
            unknot = parse_diagram("O", "pd")
            pos, neg = braid("s1"), braid("s1^-1")
            for ring, kwargs in (("laurent", {}), ("series", {"n": 1,
                                                              "order": 6})):
                params = default_params(ring, **kwargs)
                assert evaluate(unknot, params) == params.one
                assert evaluate(pos, params) == params.alpha
                assert evaluate(neg, params) == params.alpha_inv


class TestCriterion2DisjointUnion:
    def test_free_loop_factor_corpus_wide(self, resolved):
        with Budget(30):
            for ring, kwargs in (("laurent", {}), ("series", {"n": 1,
                                                              "order": 5})):
                params = default_params(ring, **kwargs)
                memo = MemoTable()
                for e in resolved:
                    d = e.diagram()
                    v = evaluate(d, params, memo=memo)
                    for k in (1, 2, 3):
                        assert evaluate(d.add_free_loops(k), params,
                                        memo=memo) == params.delta ** k * v


class TestCriterion3OracleEquivalence:
    def test_statesum_specialization(self, resolved):
        assert len(resolved) >= 50
        with Budget(120):
            for e in resolved:
                assert specialization_check(e.diagram()), e.id


class TestCriterion4RegularIsotopyInvariance:
    def test_200_perturbation_pairs(self, resolved):
        with Budget(120):
            pairs = 0
            seed = 0
            while pairs < 200:
                e = resolved[pairs % len(resolved)]
                d = e.diagram()
                rng = random.Random(seed)
                p = random_perturbation(d, rng, steps=rng.randint(1, 2),
                                        max_crossings=11)
                assert evaluate_laurent(p) == evaluate_laurent(d), e.id
                assert evaluate_series(p, 0, 5) == evaluate_series(d, 0, 5), \
                    e.id
                pairs += 1
                seed += 1
            assert pairs == 200


class TestCriterion5CrossRingConsistency:
    def test_substitution_matches_series_engine(self, resolved):
        with Budget(120):
            for e in resolved:
                d = e.diagram()
                p = evaluate_laurent(d)
                for n in (0, 1, 2):
                    # the bridge raises if a z-pole of the value does
                    # not cancel
                    assert laurent_to_series(p, n, 8) == \
                        evaluate_series(d, n, 8), (e.id, n)


class TestCriterion6ConstantTermLaw:
    def test_v_n_0(self, resolved):
        for e in resolved:
            m = e.n_components
            d = e.diagram()
            for n in range(5):
                got = evaluate_series(d, n, 0).coeffs[0]
                assert got == GaussRational.of((n + 2) ** (m - 1)), (e.id, n)


class TestCriterion7FiniteTypeVanishing:
    def test_alternating_sums_vanish(self, singular):
        assert {e.n_flat for e in singular} == {1, 2, 3, 4}
        with Budget(120):
            for e in singular:
                k = e.n_flat
                for n in (0, 1):
                    for m in range(k):
                        assert finite_type_vanishing(n, m, e.diagram()), \
                            (e.id, n, m)


class TestCriterion8SingularCalculus:
    def test_kink_ordering_equalities(self):
        with Budget(30):
            for word in ("s1", "s1 s1", "s1 s1 s1"):
                h = braid(word)
                for arc in h.arcs[:2]:
                    sd, _, _ = figure_three_configuration(h, arc)
                    assert one_term_relation_check(evaluate_laurent, sd)

    def test_four_term_identity_on_corpus(self, singular):
        with Budget(30):
            two_flat = [e for e in singular if e.n_flat == 2]
            assert two_flat
            for e in two_flat:
                assert check_integrability(evaluate_laurent, e.diagram()), e.id

    def test_writhe_jumps(self, singular):
        one_flat = [e for e in singular if e.n_flat == 1]
        assert one_flat
        seen = set()
        for e in one_flat:
            d = e.diagram()
            p = d.flat_crossings()[0]
            jump = writhe_jump(d, p)
            if len(d.component_of_crossing(p)) == 1:
                assert sorted(map(abs, jump)) == [0] * (len(jump) - 1) + [2]
                seen.add("self")
            else:
                assert all(j == 0 for j in jump)
                seen.add("mixed")
        # the flat kink gives a guaranteed self point either way
        from framedskein.singular import flat_kink_unknot
        assert writhe_jump(flat_kink_unknot(), 0) == (2,)

    def test_total_framing_additivity_and_cancellation(self):
        e1 = [FramingEvent(0, 1, 2), FramingEvent(1, -1, 2)]
        e2 = [FramingEvent(0, 1, 0), FramingEvent(1, 1, 2)]
        a, b = total_framing(e1, 2), total_framing(e2, 2)
        assert total_framing(e1 + e2, 2) == \
            tuple(x + y for x, y in zip(a, b))
        cancel = e1 + [FramingEvent(0, -1, 2), FramingEvent(1, 1, 2)]
        assert total_framing(cancel, 2) == (0, 0)


class TestCriterion9BaseConstants:
    def test_displayed_prefixes_to_order_8(self):
        with Budget(1):
            consts = base_constants(8)
            z, a = consts["z"], consts["a"]
            # z = 2i + i x^2 + i x^4/12 + ...
            zx = [z.coeff(j, 0) for j in range(5)]
            assert zx == [GaussRational.of(0, 2), ZERO, I, ZERO,
                          GaussRational.of(0, "1/12")]
            # a = i + iy + i y^2/2 + ...
            ay = [a.coeff(0, k) for k in range(3)]
            assert ay == [I, I, GaussRational.of(0, "1/2")]
            one = BiSeries.one(8)
            assert a * a ** -1 == one
            assert z * z ** -1 == one


class TestCriterion10ComplexityDescent:
    WORDS = (
        "s3 s2 s2 s1^-1 s2 s1 s2^-1 s3^-1 s2 s1^-1 s3^-1 s2^-1 s1^-1 s2 s1 s1",
        "s3 s3 s2^-1 s3 s3^-1 s3^-1 s2^-1 s3 s2^-1 s2^-1 s1^-1 s2^-1 s3 s1 s2^-1 s1",
    )

    def test_strict_decrease_along_recursion(self):
        with Budget(60):
            params = default_params("laurent")
            edges = []
            nodes = 0
            for word in self.WORDS:
                memo = MemoTable()
                evaluate(braid(word), params, memo=memo,
                         on_expand=lambda p, c: edges.append((p, c)))
                nodes += len(memo)
            assert nodes >= 1000
            # every expansion emits (switched, A-smoothing, B-smoothing)
            assert len(edges) % 3 == 0 and edges
            for i in range(0, len(edges), 3):
                parent = edges[i][0]
                cp = complexity_bound(parent)
                switched = edges[i][1]
                assert complexity_bound(switched) < cp
                for _, child in edges[i + 1:i + 3]:
                    assert child.n_crossings < parent.n_crossings
