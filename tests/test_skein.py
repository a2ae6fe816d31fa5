import random
from fractions import Fraction

import pytest

from qatorsion.diagrams import LinkDiagram, kanenobu_diagram, unknot_diagram
from qatorsion.laurent import Laurent
from qatorsion.pipeline import family_casson_walker
from qatorsion.skein import (CrossingBudgetError, goeritz_invariants,
                             jones_derivative_at, jones_polynomial,
                             kauffman_bracket, mullins_lambda)

from oracles import (braid_closure, figure_eight_diagram,
                     goeritz_invariants_black, kauffman_bracket_naive,
                     torus_knot_diagram)


def rand_braid(rng, strands=None, length=None):
    strands = strands or rng.randint(2, 4)
    length = length or rng.randint(1, 8)
    return [rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(length)], strands


def small_corpus():
    rng = random.Random(41)
    corpus = [braid_closure([1, 1, 1], 2), braid_closure([-1, -1, -1], 2),
              torus_knot_diagram(3, 5), figure_eight_diagram(),
              braid_closure([1], 2), kanenobu_diagram(0, 0),
              kanenobu_diagram(1, -1), kanenobu_diagram(-1, 2)]
    for _ in range(15):
        word, strands = rand_braid(rng)
        corpus.append(braid_closure(word, strands))
    return corpus


def split_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """The split diagram of a beside b: b's arc labels shifted past a's."""
    shift = max(a.arcs())
    shifted = tuple(tuple(x + shift for x in c) for c in b.crossings)
    return LinkDiagram(a.crossings + shifted, free_loops=a.free_loops + b.free_loops)


def test_sweep_bracket_equals_naive():
    # the corpus, then wider frontiers (up to 5 strands and 10 crossings),
    # then the cases of the last-crossing normalisation: free loops beside
    # crossings, and split diagrams whose sweep empties its frontier before
    # the last crossing
    rng = random.Random(43)
    wide = [braid_closure(*rand_braid(rng, rng.randint(2, 5), rng.randint(1, 10)))
            for _ in range(60)]
    loose = [LinkDiagram(d.crossings, free_loops=k)
             for d in small_corpus()[:6] for k in (1, 2)]
    split = [split_union(braid_closure(*rand_braid(rng, length=rng.randint(1, 5))),
                         braid_closure(*rand_braid(rng, length=rng.randint(1, 5))))
             for _ in range(10)]
    split += [split_union(braid_closure([1, 1, 1], 2), figure_eight_diagram()),
              split_union(braid_closure([1], 2), braid_closure([-1], 2))]
    for d in small_corpus() + wide + loose + split:
        assert kauffman_bracket(d) == kauffman_bracket_naive(d)


def test_jones_unknot():
    assert jones_polynomial(unknot_diagram()).upoly == Laurent.one()


def test_jones_trefoils():
    right = jones_polynomial(braid_closure([1, 1, 1], 2))
    assert right.t_polynomial() == Laurent({1: 1, 3: 1, 4: -1})
    left = jones_polynomial(braid_closure([-1, -1, -1], 2))
    assert left.t_polynomial() == Laurent({-1: 1, -3: 1, -4: -1})


def test_jones_figure_eight():
    v = jones_polynomial(figure_eight_diagram())
    assert v.t_polynomial() == Laurent({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})


def test_jones_torus_knot_35():
    v = jones_polynomial(torus_knot_diagram(3, 5))
    assert v.t_polynomial() == Laurent({4: 1, 6: 1, 10: -1})
    assert jones_derivative_at(v, -1) == 0


def test_jones_hopf_link_has_half_integer_grading():
    v = jones_polynomial(braid_closure([1, 1], 2))
    assert not v.is_integral()
    with pytest.raises(ValueError):
        jones_derivative_at(v, -1)


def test_jones_derivative_examples():
    one = jones_polynomial(unknot_diagram())
    assert jones_derivative_at(one, -1) == 0
    from qatorsion.skein import JonesPolynomial
    t = JonesPolynomial(Laurent({2: 1}))
    assert jones_derivative_at(t, -1) == 1


def test_jones_budget():
    d = kanenobu_diagram(-10, 13)  # 31 crossings
    with pytest.raises(CrossingBudgetError):
        jones_polynomial(d)
    assert jones_polynomial(d, budget=40) is not None


def test_reidemeister_invariance_via_braid_rewrites():
    rng = random.Random(42)
    for _ in range(15):
        word, strands = rand_braid(rng, length=rng.randint(2, 7))
        base = braid_closure(word, strands)
        v = jones_polynomial(base)
        sig = goeritz_invariants(base)[2] if base.is_connected() else None
        i = rng.randrange(len(word) + 1)
        g = rng.choice([1, -1]) * rng.randint(1, strands - 1)
        two = braid_closure(word[:i] + [g, -g] + word[i:], strands)
        assert jones_polynomial(two) == v
        if sig is not None and two.is_connected():
            assert goeritz_invariants(two)[2] == sig
        one = braid_closure(word + [rng.choice([1, -1]) * strands], strands + 1)
        assert jones_polynomial(one) == v
        if sig is not None and one.is_connected():
            assert goeritz_invariants(one)[2] == sig
        if strands >= 3:
            j = rng.randint(1, strands - 2)
            pos = rng.randrange(len(word) + 1)
            wa = word[:pos] + [j, j + 1, j] + word[pos:]
            wb = word[:pos] + [j + 1, j, j + 1] + word[pos:]
            da, db = braid_closure(wa, strands), braid_closure(wb, strands)
            assert jones_polynomial(da) == jones_polynomial(db)
            if da.is_connected() and db.is_connected():
                assert goeritz_invariants(da)[2] == goeritz_invariants(db)[2]


def test_determinant_is_jones_at_minus_one():
    for d in small_corpus():
        if not d.is_connected():
            continue
        v = jones_polynomial(d)
        det = goeritz_invariants(d)[1]
        if v.is_integral():
            assert abs(v.evaluate(-1)) == det


def test_signature_anchors():
    assert goeritz_invariants(unknot_diagram())[1:] == (1, 0)
    assert goeritz_invariants(braid_closure([1, 1, 1], 2))[1:] == (3, -2)
    assert goeritz_invariants(braid_closure([-1, -1, -1], 2))[1:] == (3, 2)
    assert goeritz_invariants(torus_knot_diagram(3, 5))[1:] == (1, -8)
    assert goeritz_invariants(figure_eight_diagram())[1:] == (5, 0)


def test_signature_is_coloring_independent():
    for d in small_corpus():
        if not d.is_connected():
            continue
        _g, det, sig = goeritz_invariants(d)
        assert goeritz_invariants_black(d) == (det, sig)


def test_goeritz_matches_white_graph_laplacian():
    # the generated diagram's white Goeritz form is exactly the homology
    # presentation matrix of its white graph (same signs), up to a
    # simultaneous reindexing of the regions
    from itertools import permutations

    from qatorsion.covers import kanenobu_presentation
    from qatorsion.foxcalc import presentation_matrix
    for (p, q) in [(0, 3), (-10, 13), (2, -3)]:
        d = kanenobu_diagram(p, q)
        g = goeritz_invariants(d)[0]
        pm = presentation_matrix(kanenobu_presentation(p, q).presentation)
        n = len(pm)
        assert len(g) == n
        assert any(
            all(g[perm[i]][perm[j]] == pm[i][j]
                for i in range(n) for j in range(n))
            for perm in permutations(range(n)))


def test_twist_family_det_and_signature():
    for p in range(-3, 4):
        for q in range(-3, 4):
            assert goeritz_invariants(kanenobu_diagram(p, q))[1:] == (25, 0)
    for n in range(4):
        d = kanenobu_diagram(-10 * n, 10 * n + 3)
        assert goeritz_invariants(d)[1:] == (25, 0)


def test_jones_equality_along_the_family():
    for (p, q) in [(0, 0), (0, 3), (2, 1), (-3, 2)]:
        v1 = jones_polynomial(kanenobu_diagram(p, q))
        v2 = jones_polynomial(kanenobu_diagram(p + 1, q - 1))
        assert v1 == v2


def test_connected_sum_of_figure_eights():
    v41 = jones_polynomial(figure_eight_diagram()).t_polynomial()
    v00 = jones_polynomial(kanenobu_diagram(0, 0)).t_polynomial()
    assert v00 == v41 * v41


def test_mullins_anchors():
    assert mullins_lambda(torus_knot_diagram(3, 5)) == -2
    assert mullins_lambda(unknot_diagram()) == 0
    assert mullins_lambda(kanenobu_diagram(0, 3)) == Fraction(-12, 25)


def test_mullins_constant_along_the_family():
    lam = mullins_lambda(kanenobu_diagram(0, 3))
    for (p, q) in [(1, 2), (2, 1), (3, 0), (-1, 4)]:
        assert mullins_lambda(kanenobu_diagram(p, q)) == lam


@pytest.mark.parametrize("j", [0] + [
    pytest.param(j, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4a: family_casson_walker(j) takes "
        "lambda of K_{0, j+3}, whose p + q is j + 3, not of a member"))
    for j in range(1, 7)])
def test_family_lambda_is_lambda_of_its_member(j):
    # the member K_{-j, j+3} of family j has p + q = 3, like every member
    assert family_casson_walker(j) == mullins_lambda(kanenobu_diagram(-j, j + 3))


def test_mullins_needs_nonzero_determinant():
    with pytest.raises(Exception):
        mullins_lambda(braid_closure([1, -1], 2))  # unlink, det 0


def test_jones_derivative_refuses_half_integer_exponents():
    from qatorsion.skein import JonesPolynomial
    # V = t^(1/2), as for a link with an even number of components
    v = JonesPolynomial(Laurent({1: 1}))
    for t0 in (4, 2, -1):
        with pytest.raises(ValueError, match="half-integer exponents"):
            jones_derivative_at(v, t0)


def test_frozen_jones_of_the_base_member():
    # frozen from the sweep bracket, cross-checked by |V(-1)| = 25 and the
    # naive state sum
    v = jones_polynomial(kanenobu_diagram(0, 3))
    assert v.t_polynomial() == Laurent({-7: -1, -6: 2, -5: -3, -4: 4, -3: -4,
                                        -2: 4, -1: -3, 0: 3, 1: -1})
    assert v.evaluate(-1) == 25


def test_casson_walker_of_two_strand_torus_covers_matches_lens_recursion():
    # the double branched cover of the positive (2,k) torus knot is the lens
    # space L(k,1); the surgery formula must reproduce the Casson-Walker
    # value derived from the correction-term recursion (two fully
    # independent computations)
    from oracles import lens_casson_walker
    for k in (3, 5, 7, 9, 11):
        d = braid_closure([1] * k, 2)
        assert mullins_lambda(d) == lens_casson_walker(k, 1)


def test_mirror_covariance():
    rng = random.Random(47)
    for _ in range(8):
        strands = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(2, 7))]
        d = braid_closure(word, strands)
        m = braid_closure([-w for w in word], strands)
        vu = jones_polynomial(d).upoly
        vm = jones_polynomial(m).upoly
        assert vm == Laurent({-e: c for e, c in vu.terms.items()})  # u -> 1/u
        if d.is_connected() and m.is_connected():
            assert goeritz_invariants(m)[2] == -goeritz_invariants(d)[2]
            assert goeritz_invariants(m)[1] == goeritz_invariants(d)[1]
