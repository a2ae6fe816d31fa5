"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (rational/integar arithmetic); the time limits
are generous wall-clock budgets asserted per criterion.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from qatorsion.covers import (abelianized_minor, kanenobu_minor_closed_form,
                              kanenobu_presentation)
from qatorsion.diagrams import kanenobu_diagram, unknot_diagram
from qatorsion.lattice import (CATALOG_CONDITION, UNIT_CONDITION, c_bound,
                               enumerate_definite_lattices, m_invariant,
                               qa_verdict)
from qatorsion.laurent import Laurent
from qatorsion.pipeline import family_casson_walker, run_family
from qatorsion.skein import (goeritz_invariants, jones_derivative_at,
                             jones_polynomial, mullins_lambda)
from qatorsion.torsion import d_invariants

from oracles import (alexander_polynomial, brute_m_invariant, d_lens_oracle,
                     diagonal, evaluate_vector_at_character, homology,
                     lens_character_value, torsion_growth, torsion_kanenobu,
                     torsion_lens, torus_knot_diagram, wirtinger_presentation)


@pytest.fixture(scope="module")
def catalog25(catalog25_session):
    return catalog25_session[0]


def _report(num, name, started):
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.time() - started:.2f}s)")


def test_criterion_01_minor_closed_form():
    start = time.time()
    for n in range(11):
        cover = kanenobu_presentation(-10 * n, 10 * n + 3)
        assert abelianized_minor(cover, 4, 4) == kanenobu_minor_closed_form(n), n
    elapsed = time.time() - start
    assert elapsed < 1.0, f"minor computation took {elapsed:.2f}s, budget 1s"
    _report(1, "minor closed form (n = 0..10, exact)", start)


def test_criterion_02_homology():
    start = time.time()
    for n in range(11):
        factors, images = homology(kanenobu_presentation(-10 * n, 10 * n + 3))
        assert factors == [25], n
        assert images == (13, 3, 6, 1), n
    elapsed = time.time() - start
    assert elapsed < 1.0, f"homology took {elapsed:.2f}s, budget 1s"
    _report(2, "H_1 = Z/25 with images (t^13, t^3, t^6, t)", start)


def test_criterion_03_torsion_growth():
    start = time.time()
    report = torsion_growth(10)
    assert report.affine, "tau_n must equal tau_0 + n*delta exactly"
    assert any(report.delta.values)
    assert report.delta_min < 0
    n0 = report.decreasing_from
    assert n0 is not None
    mins = report.min_values
    assert all(mins[m + 1] < mins[m] for m in range(n0, report.n_max))
    elapsed = time.time() - start
    assert elapsed < 1.0, f"growth took {elapsed:.2f}s, budget 1s"
    _report(3, f"affine torsion growth, min strictly decreasing from n = {n0}",
            start)


def test_criterion_04_jones_equality_grid():
    start = time.time()
    cache = {}

    def v(p, q):
        if (p, q) not in cache:
            cache[(p, q)] = jones_polynomial(kanenobu_diagram(p, q), budget=30)
        return cache[(p, q)]

    for p in range(-3, 4):
        for q in range(-3, 4):
            assert v(p, q) == v(p + 1, q - 1), (p, q)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"grid took {elapsed:.2f}s, budget 60s"
    _report(4, "Jones equality V(K_{p,q}) = V(K_{p+1,q-1}) on |p|,|q| <= 3",
            start)


def test_criterion_05_classical_anchors():
    start = time.time()
    t35 = torus_knot_diagram(3, 5)
    v35 = jones_polynomial(t35)
    assert jones_derivative_at(v35, -1) == 0
    assert goeritz_invariants(t35)[2] == -8
    assert mullins_lambda(t35) == -2
    unknot = unknot_diagram()
    assert jones_polynomial(unknot).upoly == Laurent.one()
    assert mullins_lambda(unknot) == 0
    # the 3-sphere: trivial torsion, lambda 0, single correction term 0
    from qatorsion.torsion import TorsionVector
    d = d_invariants(TorsionVector(1, (Fraction(0),)), Fraction(0))
    assert d == {0: Fraction(0)}
    _report(5, "T(3,5): V'(-1) = 0, sigma = -8, lambda = -2; unknot: V = 1, "
               "lambda = 0, d = {0}", start)


def test_criterion_06_determinant_signature():
    start = time.time()
    for p in range(-3, 4):
        for q in range(-3, 4):
            _g, det, sig = goeritz_invariants(kanenobu_diagram(p, q))
            assert (det, sig) == (25, 0), (p, q)
    for n in range(4):
        _g, det, sig = goeritz_invariants(kanenobu_diagram(-10 * n, 10 * n + 3))
        assert (det, sig) == (25, 0), n
    _report(6, "det = 25 and sigma = 0 on the grid and the twist family", start)


def test_criterion_07_lens_space_oracle():
    start = time.time()
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            tau = torsion_lens(p, q)
            # every nontrivial character value matches the classical form
            for k in range(1, p):
                got = evaluate_vector_at_character(list(tau.values), p, k)
                want = lens_character_value(p, q, k)
                assert got == want, (p, q, k)
            # the correction terms match the recursion up to the unit action
            d_oracle = sorted(d_lens_oracle(p, q))
            lam = -sum(d_lens_oracle(p, q), Fraction(0)) / p
            matches = any(
                sorted(2 * s * v - lam for v in tau.values) == d_oracle
                for s in (1, -1))
            assert matches, (p, q)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"lens oracle took {elapsed:.2f}s, budget 10s"
    _report(7, "lens spaces p <= 12: character values + correction terms", start)


def test_criterion_08_lattice_oracle(catalog25):
    start = time.time()
    checked = 0
    for disc in range(1, 26):
        for rank in range(1, 4):
            for lattice in enumerate_definite_lattices(rank, disc):
                assert m_invariant(lattice) == brute_m_invariant(lattice), \
                    lattice.gram
                checked += 1
    for k in range(1, 7):
        assert m_invariant(diagonal([-1] * k)) == 0
    elapsed = time.time() - start
    assert elapsed < 60.0, f"lattice oracle took {elapsed:.2f}s, budget 60s"
    _report(8, f"m == brute force on {checked} lattices (rank <= 3, "
               f"disc <= 25) and m(diag(-1)^k) = 0", start)


def test_criterion_09_conditional_verdict_and_divergence(catalog25):
    start = time.time()
    bound = c_bound(25, catalog25)
    assert not bound.complete
    lam = family_casson_walker(0)
    # the verdict for large twisting is conditional with exactly the two
    # unmet conditions
    for n in (8, 10):
        tau = torsion_kanenobu(n)
        d = d_invariants(tau, lam)
        verdict = qa_verdict(list(d.values()), 25, bound, unit_pinned=False)
        assert verdict.obstruction_fires
        assert verdict.verdict == "non-QA conditional"
        assert set(verdict.conditions_unmet) == {CATALOG_CONDITION,
                                                 UNIT_CONDITION}
    # min d diverges linearly with the exact slope 2 * min delta
    report = run_family(0, range(0, 11), catalog=catalog25)
    mins = [r.min_d for r in report.records]
    growth = torsion_growth(10)
    slope = 2 * growth.delta_min
    assert slope < 0
    n0 = growth.decreasing_from
    for m in range(max(n0, 1), 10):
        assert mins[m + 1] - mins[m] == slope
    _report(9, "conditional verdict with the two stated caveats; min d "
               f"diverges with exact slope {slope}", start)


def test_criterion_10_alexander_identity():
    start = time.time()
    for (p, q) in ((0, 3), (1, 2)):
        a = alexander_polynomial(wirtinger_presentation(kanenobu_diagram(p, q)))
        b = alexander_polynomial(wirtinger_presentation(kanenobu_diagram(p + 2, q)))
        assert a == b, (p, q)
    _report(10, "Alexander identity Delta(K_{p,q}) = Delta(K_{p+2,q})", start)
