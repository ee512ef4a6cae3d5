import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein.corpus import default_corpus
from framedskein.diagram import DiagramError, FramedDiagram, parse_diagram
from framedskein.perturb import random_perturbation
from framedskein.ring import LaurentPoly
from framedskein.singular import (
    FramingEvent,
    _one_gon_at,
    check_integrability,
    derived_invariant,
    figure_three_configuration,
    finite_type_vanishing,
    flat_kink_unknot,
    insert_flat_kink,
    is_admissible_in_diagram,
    one_term_relation_check,
    resolution_table,
    resolve_all,
    total_framing,
    writhe_jump,
)
from framedskein.skein import evaluate_laurent, evaluate_series

A = LaurentPoly.var_a()


def braid(word):
    return parse_diagram(word, "braid")


class TestDerivedInvariant:
    def test_flat_kink_unknot(self):
        got = derived_invariant(evaluate_laurent, flat_kink_unknot())
        assert got.value == A - A ** -1
        assert got.table[(1,)] == A
        assert got.table[(-1,)] == A ** -1

    def test_flat_kink_series(self):
        got = derived_invariant(lambda d: evaluate_series(d, 0, 5),
                                flat_kink_unknot()).value
        # t - t^-1 = 2x + x^3/3 + ...
        assert [str(c) for c in got.coeffs] == ["0", "2", "0", "1/3", "0", "1/60"]

    def test_equal_resolution_values_give_zero(self):
        # whenever an evaluator takes the same value on both resolutions
        # the difference is exactly zero; component count is such an
        # evaluator, blind to over/under data
        d = braid("s1 s1^-1").make_flat(0)
        F = lambda dd: LaurentPoly.term(dd.n_components(), 0, 0)
        assert derived_invariant(F, d).value == LaurentPoly.zero()

    def test_resolutions_never_regularly_isotopic(self):
        # switching a self-crossing moves the writhe by 2 and switching a
        # mixed crossing moves the linking number, so the two resolutions
        # of a flat point are never equal as framed links
        for word, c in (("s1 s1^-1", 0), ("s1 s1 s1", 1)):
            d = braid(word).make_flat(c)
            assert derived_invariant(evaluate_laurent, d).value != \
                LaurentPoly.zero()

    def test_antisymmetry(self):
        sd = flat_kink_unknot()
        plus = derived_invariant(evaluate_laurent, sd).value
        # flipping the resolution convention at the point negates the value
        flipped = resolution_table(evaluate_laurent, sd)
        assert flipped[(1,)] - flipped[(-1,)] == plus
        assert flipped[(-1,)] - flipped[(1,)] == -plus

    def test_needs_flat_point(self):
        with pytest.raises(DiagramError):
            derived_invariant(evaluate_laurent, braid("s1 s1"))


class TestIntegrability:
    def _two_flat(self):
        sd, _, _ = figure_three_configuration(braid("s1 s1"),
                                              braid("s1 s1").arcs[0])
        return sd

    def test_holds(self):
        assert check_integrability(evaluate_laurent, self._two_flat())

    def test_holds_in_series_ring(self):
        F = lambda d: evaluate_series(d, 1, 4)
        assert check_integrability(F, self._two_flat())

    def test_corrupted_table_detected(self):
        sd = self._two_flat()
        table = resolution_table(evaluate_laurent, sd)
        bad = dict(table)
        bad[(1, -1)] = table[(1, 1)]
        assert not check_integrability(evaluate_laurent, sd, bad)

    def test_wrong_flat_count_rejected(self):
        with pytest.raises(DiagramError):
            check_integrability(evaluate_laurent, flat_kink_unknot())


class TestOneTermRelation:
    @pytest.mark.parametrize("word", ["s1", "s1 s1", "s1 s1 s1",
                                      "s1 s2^-1 s1 s2^-1"])
    def test_figure_three_configurations(self, word):
        h = braid(word)
        for arc in h.arcs:
            sd, _, _ = figure_three_configuration(h, arc)
            assert one_term_relation_check(evaluate_laurent, sd)

    def test_unknot_host_by_canonical_code(self):
        sd, _ = insert_flat_kink(flat_kink_unknot(), ((0, 3), (0, 0)))
        p1, p2 = sd.flat_crossings()
        for r in (1, -1):
            assert sd.resolve_flat(p2, r).canonical_code() == \
                sd.resolve_flat(p1, r).canonical_code()
        assert one_term_relation_check(evaluate_laurent, sd)

    def test_four_term_sum_vanishes(self):
        # the four one-flat diagrams carrying a +/- kink before or after
        # the flat point; both ordering equalities combine into a signed
        # four-term sum that cancels
        sd, p2 = insert_flat_kink(flat_kink_unknot(), ((0, 3), (0, 0)))
        p1 = sd.flat_crossings()[0]
        f = lambda one_flat: derived_invariant(evaluate_laurent,
                                               one_flat).value
        terms = {(site, r): f(sd.resolve_flat(site, r))
                 for site in (p1, p2) for r in (1, -1)}
        total = (terms[(p2, 1)] - terms[(p1, 1)]
                 - terms[(p2, -1)] + terms[(p1, -1)])
        assert total == LaurentPoly.zero()

    def test_shape_mismatch_rejected(self):
        # flat points that are not kink points
        sd = braid("s1 s1 s1").make_flat(0).make_flat(1)
        with pytest.raises(DiagramError):
            one_term_relation_check(evaluate_laurent, sd)


def arc_list_flat_kink(d, arc, side):
    """A flat kink on ``arc`` built from the arc list through the public
    constructor: the reference for ``insert_flat_kink``."""
    if arc not in d.arcs and (arc[1], arc[0]) not in d.arcs:
        raise DiagramError(f"no arc {arc!r}")
    u, v = arc
    c = d.n_crossings
    arcs = [a for a in d.arcs if a not in (arc, (arc[1], arc[0]))]
    if side == "left":
        arcs += [(u, (c, 3)), ((c, 1), (c, 2)), ((c, 0), v)]
    else:
        arcs += [(u, (c, 0)), ((c, 1), (c, 2)), ((c, 3), v)]
    return FramedDiagram(list(d.crossings) + [None], arcs, d.free_loops), c


class TestInsertFlatKink:
    def test_matches_the_arc_list_construction(self):
        cases = 0
        for e in default_corpus():
            d = e.diagram()
            for u, v in d.arcs:
                for arc in ((u, v), (v, u)):
                    for side in ("left", "right"):
                        got, c = insert_flat_kink(d, arc, side)
                        want, c_want = arc_list_flat_kink(d, arc, side)
                        assert c == c_want == d.n_crossings
                        assert (got.crossings, got.mate, got.free_loops) \
                            == (want.crossings, want.mate, want.free_loops)
                        cases += 1
        assert cases == 2592

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("arc", [((0, 0), (0, 2)), ((0, 1), (0, 1)),
                                     ((0, 0), (3, 1)), ((0, 4), (1, 0))])
    def test_non_arc_rejected(self, arc, side):
        d = braid("s1 s1 s1")
        assert arc not in d.arcs and arc[::-1] not in d.arcs
        with pytest.raises(DiagramError):
            insert_flat_kink(d, arc, side)

    def test_unknown_side_rejected(self):
        d = braid("s1 s1 s1")
        with pytest.raises(DiagramError, match="unknown side"):
            insert_flat_kink(d, d.arcs[0], "up")


def face_scan_one_gon(sd, c):
    """Whether crossing ``c`` bounds a 1-gon, read off the faces."""
    return any(len(face) == 1 and sd.mate[face[0]] >> 2 == c
               for face in sd.faces())


class TestOneGon:
    def test_slot_rule_matches_the_face_scan(self):
        entries = default_corpus()
        diagrams = [e.diagram() for e in entries]
        resolved = [d for e, d in zip(entries, diagrams) if not e.n_flat]
        rng = random.Random(17)
        diagrams += [random_perturbation(resolved[seed % len(resolved)],
                                         random.Random(seed),
                                         steps=rng.randint(1, 4),
                                         max_crossings=11)
                     for seed in range(200)]
        found = [_one_gon_at(d, c) for d in diagrams
                 for c in range(d.n_crossings)]
        assert found == [face_scan_one_gon(d, c) for d in diagrams
                         for c in range(d.n_crossings)]
        assert len(found) > 1900 and 100 < sum(found) < len(found)


class TestAdmissibility:
    def test_flat_kink_inadmissible(self):
        assert is_admissible_in_diagram(flat_kink_unknot(), 0) == "inadmissible"

    def test_mixed_point_undetermined(self):
        sd = braid("s1 s1").make_flat(0)
        assert is_admissible_in_diagram(sd, 0) == "undetermined"

    def test_clasp_on_trefoil_undetermined(self):
        sd = braid("s1 s1 s1").make_flat(1)
        assert is_admissible_in_diagram(sd, 1) == "undetermined"

    def test_point_out_of_range(self):
        # -1 must not name the last crossing, and n must not be an
        # IndexError
        for point in (-1, 1):
            with pytest.raises(DiagramError, match=f"no crossing {point}"):
                is_admissible_in_diagram(flat_kink_unknot(), point)


class TestWritheJump:
    def test_flat_kink_jump_is_two(self):
        assert writhe_jump(flat_kink_unknot(), 0) == (2,)

    def test_mixed_point_zero(self):
        sd = braid("s1 s1").make_flat(0)
        assert writhe_jump(sd, 0) == (0, 0)

    def test_self_point_concentrated(self):
        sd = braid("s1 s1 s1").make_flat(2)
        jump = writhe_jump(sd, 2)
        assert sorted(jump) in ([2], [-2]) or jump in ((2,), (-2,))

    def test_other_flats_cancel(self):
        sd, p1, p2 = figure_three_configuration(braid("s1 s1 s1"),
                                                braid("s1 s1 s1").arcs[0])
        assert writhe_jump(sd, p1) == (2,)

    def test_point_out_of_range(self):
        for point in (-1, 1):
            with pytest.raises(DiagramError, match=f"no crossing {point}"):
                writhe_jump(flat_kink_unknot(), point)


class TestTotalFraming:
    def test_examples(self):
        assert total_framing([FramingEvent(1, 1, 2)], 2) == (0, 2)
        assert total_framing([], 3) == (0, 0, 0)
        assert total_framing([FramingEvent(1, 1, 2), FramingEvent(1, -1, 2)],
                             2) == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            total_framing([FramingEvent(3, 1, 2)], 2)

    def test_bad_jump_rejected(self):
        with pytest.raises(ValueError):
            FramingEvent(0, 1, 1)

    events = st.lists(
        st.builds(FramingEvent, st.integers(0, 2),
                  st.sampled_from((1, -1)), st.sampled_from((0, 2))),
        max_size=8)

    @given(events, events)
    @settings(max_examples=40)
    def test_additive_under_concatenation(self, e1, e2):
        a = total_framing(e1, 3)
        b = total_framing(e2, 3)
        both = total_framing(e1 + e2, 3)
        assert both == tuple(x + y for x, y in zip(a, b))

    @given(events)
    @settings(max_examples=40)
    def test_negates_under_sign_reversal(self, e1):
        rev = [FramingEvent(e.component_index, -e.sign, e.jump) for e in e1]
        assert total_framing(rev, 3) == \
            tuple(-x for x in total_framing(e1, 3))


class TestFiniteTypeVanishing:
    def test_k1(self):
        assert finite_type_vanishing(0, 0, flat_kink_unknot())

    def test_k2(self):
        sd, _ = insert_flat_kink(flat_kink_unknot(), ((0, 3), (0, 0)))
        assert finite_type_vanishing(0, 0, sd)
        assert finite_type_vanishing(0, 1, sd)

    def test_k3_on_trefoil(self):
        sd = braid("s1 s1 s1")
        for c in range(3):
            sd = sd.make_flat(c)
        for m in range(3):
            for n in (0, 1):
                assert finite_type_vanishing(n, m, sd)

    def test_order_bound_enforced(self):
        with pytest.raises(ValueError):
            finite_type_vanishing(0, 1, flat_kink_unknot())

    def test_resolve_all_sign_count(self):
        sd = braid("s1 s1 s1").make_flat(0)
        with pytest.raises(DiagramError):
            resolve_all(sd, (1, 1))
