import pytest

from qatorsion.covers import (BOUNDARY, HomologyNotCyclicError, WhiteGraph,
                              abelianized_minor, homology_invariants,
                              kanenobu_minor_closed_form,
                              kanenobu_presentation, kanenobu_white_graph,
                              white_graph_presentation)
from qatorsion.foxcalc import gen, winv, wmul
from qatorsion.groupring import GroupRingElem
from qatorsion.torsion import torsion_from_minor

from oracles import homology, lens_presentation, relator_word, wpow, wreduce


def literal_relators(n):
    a1, a2, a3, a4 = gen(1), gen(2), gen(3), gen(4)
    b1 = wmul(wpow(wmul(winv(a1), a2), 10 * n), winv(a4), a1, a1)
    b2 = wmul(winv(a2), a3, wpow(wmul(winv(a2), a1), 10 * n), winv(a2))
    b3 = wmul(wpow(wmul(winv(a4), a3), 10 * n + 3), winv(a3), a2, winv(a3), winv(a3))
    b4 = wmul(winv(a1), a4, wpow(wmul(winv(a3), a4), 10 * n + 3), a4, a4)
    return b1, b2, b3, b4


def test_relators_match_the_displayed_words():
    for n in (0, 1, 3):
        cover = kanenobu_presentation(-10 * n, 10 * n + 3)
        for got, want in zip(cover.presentation.relators, literal_relators(n)):
            assert wreduce(relator_word(got)) == wreduce(want)


def test_relator_b2_shape_at_small_parameters():
    cover = kanenobu_presentation(0, 3)
    a1, a2, a3, a4 = gen(1), gen(2), gen(3), gen(4)
    relators = [relator_word(r) for r in cover.presentation.relators]
    assert wreduce(relators[0]) == wreduce(wmul(winv(a4), a1, a1))
    assert wreduce(relators[2]) == wreduce(
        wmul(wpow(wmul(winv(a4), a3), 3), winv(a3), a2, winv(a3), winv(a3)))


def test_homology_of_the_family():
    for n in range(11):
        cover = kanenobu_presentation(-10 * n, 10 * n + 3)
        factors, images = homology(cover)
        assert factors == [25]
        assert images == (13, 3, 6, 1)
        assert cover.g_classes == cover.h_classes == (13, 3, 6, 1)


def test_other_offsets_build_and_have_order_25():
    for j in range(1, 10):
        for n in (0, 1):
            cover = kanenobu_presentation(-10 * n - j, 10 * n + j + 3)
            factors, _images, _n = homology_invariants(cover.presentation)
            order = 1
            for f in factors:
                order *= f
            assert order == 25


def test_trefoil_white_graph():
    graph = WhiteGraph(vertices=1,
                       edges=((1, BOUNDARY, 1),) * 3,
                       cyclic=((0, 2, 4), (5, 3, 1)))
    cover = white_graph_presentation(graph)
    assert [relator_word(r) for r in cover.presentation.relators] == [
        ((1, 1), (1, 1), (1, 1))]
    factors, images = homology(cover)
    assert factors == [3] and images == (1,)


def test_unknot_white_graph():
    graph = WhiteGraph(vertices=1, edges=((1, BOUNDARY, 1),), cyclic=((0,), (1,)))
    cover = white_graph_presentation(graph)
    factors, images = homology(cover)
    assert factors == [] and images == (0,)


def test_cyclic_order_validation():
    with pytest.raises(ValueError):
        WhiteGraph(vertices=1, edges=((1, BOUNDARY, 1),), cyclic=((1,), (0,)))


def test_lens_minor_is_empty_determinant():
    cover = lens_presentation(7, 2)
    assert abelianized_minor(cover, 1, 1) == GroupRingElem.one(7)
    assert cover.g_classes == (1,) and cover.h_classes == (2,)


def test_minor_matches_closed_form_for_all_n():
    for n in range(11):
        cover = kanenobu_presentation(-10 * n, 10 * n + 3)
        assert abelianized_minor(cover, 4, 4) == kanenobu_minor_closed_form(n)


def test_minor_trivial_component_value():
    # the closed form evaluates to -30n - 2 at t = 1, matching the integer
    # minor of the homology presentation matrix
    for n in range(11):
        minor = kanenobu_minor_closed_form(n)
        assert sum(minor.coeffs) == -30 * n - 2


def test_minor_at_zero_twists_is_the_constant_part():
    minor0 = kanenobu_minor_closed_form(0)
    expect = GroupRingElem.from_terms(25, [
        (0, -1), (2, 1), (3, -1), (8, -1), (9, 1), (11, -1), (12, 1),
        (13, -1), (15, 1), (16, -1), (20, -1), (21, 1), (23, -1), (24, 1)])
    assert minor0 == expect


def test_minor_requires_cyclic_homology():
    cover = kanenobu_presentation(-1, 4)  # H_1 = Z/5 + Z/5
    with pytest.raises(HomologyNotCyclicError):
        abelianized_minor(cover, 4, 4)


def find_global_unit(a, b):
    n = a.modulus
    for s in (1, -1):
        for k in range(n):
            if b.values == tuple(s * a.values[(i - k) % n] for i in range(n)):
                return (s, k)
    return None


def test_minor_choice_consistency_up_to_global_unit():
    units = {}
    for n in (0, 1, 2):
        cover = kanenobu_presentation(-10 * n, 10 * n + 3)
        base = torsion_from_minor(abelianized_minor(cover, 4, 4),
                                  cover.g_classes[3], cover.h_classes[3])
        for r in range(1, 5):
            for s in range(1, 5):
                tau = torsion_from_minor(abelianized_minor(cover, r, s),
                                         cover.g_classes[r - 1],
                                         cover.h_classes[s - 1])
                unit = find_global_unit(base, tau)
                assert unit is not None, (n, r, s)
                if n == 0:
                    units[(r, s)] = unit
                else:
                    # the relating unit does not depend on n
                    assert units[(r, s)] == unit


def test_minor_matrix_entries():
    # spot-check two abelianized Fox-matrix entries of the (4,4) minor:
    # entry (1, 2) is n*sigma and entry (3, 2) is t^22
    from qatorsion.foxcalc import abelianize_relator_derivative
    for n in (1, 2):
        pres = kanenobu_presentation(-10 * n, 10 * n + 3).presentation
        sigma = GroupRingElem.from_terms(25, [(5 * k, 2) for k in range(5)])
        e12 = abelianize_relator_derivative(pres.relators[1], 1,
                                            pres.assignment, 25)
        assert e12 == sigma.scale(n)
        e32 = abelianize_relator_derivative(pres.relators[1], 3,
                                            pres.assignment, 25)
        assert e32 == GroupRingElem.t_power(25, 22)


# ---------------------------------------------------------------------------
# Twist regions as weighted edges
# ---------------------------------------------------------------------------

FAMILY = [(j, n) for j in range(10) for n in range(13)]


def test_expanded_graph_is_the_unit_edge_graph():
    from oracles import unit_kanenobu_white_graph
    for p in range(-7, 8):
        for q in range(-7, 8):
            graph = kanenobu_white_graph(p, q)
            assert len(graph.edges) == 6 + (p != 0) + (q != 0)
            assert graph.expanded() == unit_kanenobu_white_graph(p, q)
    for j, n in FAMILY:
        p, q = -10 * n - j, 10 * n + j + 3
        unit = unit_kanenobu_white_graph(p, q)
        assert kanenobu_white_graph(p, q).expanded() == unit
        assert unit.expanded() == unit


def test_expanded_presentation_reproduces_the_letter_relators():
    from oracles import unit_kanenobu_white_graph, unit_white_graph_relators
    for j, n in FAMILY:
        p, q = -10 * n - j, 10 * n + j + 3
        graph = kanenobu_white_graph(p, q)
        want = unit_white_graph_relators(unit_kanenobu_white_graph(p, q))
        unit = white_graph_presentation(graph.expanded()).presentation
        assert all(abs(k) == 1 for r in unit.relators for _u, k in r)
        assert tuple(relator_word(r) for r in unit.relators) == want
        bundled = white_graph_presentation(graph).presentation
        assert sum(len(r) for r in bundled.relators) == 2 * len(graph.edges) - 4
        assert tuple(relator_word(r) for r in bundled.relators) == want
    for n in range(4):
        bundled = kanenobu_presentation(-10 * n, 10 * n + 3).presentation
        assert tuple(relator_word(r) for r in bundled.relators) == literal_relators(n)


def test_weighted_edge_needs_a_nonzero_integer():
    for weight in (0, True, False, 1.0, -2.5, "1", None):
        with pytest.raises(ValueError):
            WhiteGraph(vertices=1, edges=((1, BOUNDARY, weight),), cyclic=((0,), (1,)))
    with pytest.raises(ValueError):
        WhiteGraph(vertices=1, edges=((True, BOUNDARY, 3),), cyclic=((0,), (1,)))


def test_weighted_trefoil_is_the_three_edge_graph():
    graph = WhiteGraph(vertices=1, edges=((1, BOUNDARY, 3),), cyclic=((0,), (1,)))
    unit = WhiteGraph(vertices=1, edges=((1, BOUNDARY, 1),) * 3,
                      cyclic=((0, 2, 4), (5, 3, 1)))
    assert graph.expanded() == unit
    cover = white_graph_presentation(graph)
    assert cover.presentation.relators == (((gen(1), 3),),)  # the run a1^3
    assert homology(cover) == ([3], (1,))
