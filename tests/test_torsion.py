import random
from fractions import Fraction
from math import gcd

import pytest

from qatorsion.covers import abelianized_minor, kanenobu_presentation
from qatorsion.groupring import GroupRingElem
from qatorsion.pipeline import torsion_growth, torsion_kanenobu
from qatorsion.torsion import (DEFAULT_EPSILON, TorsionPreconditionError,
                               TorsionVector, d_invariants, d_lens_oracle,
                               lens_casson_walker,
                               multiset_matches_up_to_unit, parse_epsilon,
                               torsion_from_minor, torsion_lens)

from oracles import torsion_linear_system_oracle


def test_zero_sum_normalisation():
    for n in range(4):
        tau = torsion_kanenobu(n)
        assert sum(tau.values, Fraction(0)) == 0
    with pytest.raises(ValueError):
        TorsionVector(3, (Fraction(1), Fraction(0), Fraction(0)))


def test_zero_minor_gives_zero_vector():
    tau = torsion_from_minor(GroupRingElem.zero(25), 1, 1)
    assert tau.is_zero()


def test_torsion_matches_linear_system_oracle():
    # 100 random minors, including non-coprime-free dual classes
    rng = random.Random(31)
    n = 25
    for _ in range(100):
        minor = GroupRingElem(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                                  for _ in range(n)])
        g = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
        h = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
        tau = torsion_from_minor(minor, g, h)
        oracle = torsion_linear_system_oracle(list(minor.coeffs), g, h, n)
        assert list(tau.values) == oracle


def test_torsion_kanenobu_matches_oracle():
    for n in (0, 1, 2):
        cover = kanenobu_presentation(-10 * n, 10 * n + 3)
        minor = abelianized_minor(cover, 4, 4)
        tau = torsion_kanenobu(n)
        oracle = torsion_linear_system_oracle(list(minor.coeffs), 1, 1, 25)
        assert list(tau.values) == oracle


def test_precondition_violation_reported():
    with pytest.raises(TorsionPreconditionError):
        torsion_from_minor(GroupRingElem.one(25), 5, 1)
    with pytest.raises(TorsionPreconditionError):
        torsion_from_minor(GroupRingElem.one(25), 1, 0)


def test_growth_is_affine_with_negative_direction():
    rep = torsion_growth(10)
    assert rep.affine
    assert not rep.delta.is_zero()
    assert rep.delta_min < 0
    assert rep.decreasing_from is not None
    mins = rep.min_values
    assert all(mins[m + 1] < mins[m]
               for m in range(rep.decreasing_from, rep.n_max))


def test_growth_delta_independent_of_range():
    assert torsion_growth(2).delta.values == torsion_growth(10).delta.values


def test_growth_needs_at_least_two_steps():
    with pytest.raises(ValueError):
        torsion_growth(1)


def test_unit_covariance():
    taus = [torsion_kanenobu(n) for n in range(4)]
    base_delta = taus[1] - taus[0]
    for sign in (1, -1):
        for k in range(25):
            shifted = [t.apply_unit(sign, k) for t in taus]
            deltas = [shifted[m + 1] - shifted[m] for m in range(3)]
            assert all(d.values == deltas[0].values for d in deltas)
            assert min(deltas[0].values) < 0
            # the unit action permutes/negates the coefficients
            assert sorted(deltas[0].values) in (
                sorted(base_delta.values),
                sorted(-v for v in base_delta.values))


def test_d_invariants_pointwise():
    tau = torsion_kanenobu(0)
    lam = Fraction(-12, 25)
    d = d_invariants(tau, lam)
    assert d == {k: 2 * v - lam for k, v in enumerate(tau.values)}
    zero = torsion_from_minor(GroupRingElem.zero(1), 1, 1) \
        if False else TorsionVector(1, (Fraction(0),))
    assert d_invariants(zero, Fraction(0)) == {0: Fraction(0)}


def test_d_lens_oracle_values():
    assert d_lens_oracle(1, 1) == [Fraction(0)]
    assert d_lens_oracle(2, 1) == [Fraction(1, 4), Fraction(-1, 4)]
    assert sorted(d_lens_oracle(3, 1)) == sorted(
        [Fraction(1, 2), Fraction(-1, 6), Fraction(-1, 6)])
    with pytest.raises(ValueError):
        d_lens_oracle(4, 2)
    with pytest.raises(ValueError):
        d_lens_oracle(3, 5)


def test_d_lens_orientation_reversal():
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) != 1 or q == p - q:
                continue
            assert sorted(d_lens_oracle(p, q)) == sorted(
                -x for x in d_lens_oracle(p, p - q))


def test_lens_torsion_matches_d_recursion_up_to_unit():
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            tau = torsion_lens(p, q)
            lam = lens_casson_walker(p, q)
            assert multiset_matches_up_to_unit(tau, lam, d_lens_oracle(p, q)) \
                is not None, (p, q)


def test_epsilon_parsing():
    assert parse_epsilon("default") == (1, 0)
    assert parse_epsilon("-1") == (-1, 0)
    assert parse_epsilon("-t^3") == (-1, 3)
    assert parse_epsilon("t^12") == (1, 12)
    assert parse_epsilon("+t") == (1, 1)
    with pytest.raises(ValueError):
        parse_epsilon("q^2")


def test_epsilon_override_is_the_unit_action():
    tau = torsion_kanenobu(1)
    tau_shift = torsion_kanenobu(1, "-t^7")
    assert tau_shift.values == tau.apply_unit(-1, 7).values


def test_json_shape():
    d = torsion_kanenobu(0).to_json_dict()
    assert d["N"] == 25
    assert set(d) == {"N", "tau", "epsilon", "note"}
    assert d["epsilon"] == DEFAULT_EPSILON
    assert d["tau"]["0"] == str(torsion_kanenobu(0).values[0])


def test_lens_component_values_via_package_primitives():
    from qatorsion.groupring import CyclotomicNumber, phi_at_divisor
    tau = torsion_lens(7, 2)
    one = CyclotomicNumber.one(7)
    want = ((CyclotomicNumber.zeta_power(7, 1) - one).inv()
            * (CyclotomicNumber.zeta_power(7, 2) - one).inv())
    assert phi_at_divisor(tau.as_group_ring(), 7) == want
    assert phi_at_divisor(tau.as_group_ring(), 1).rational_value() == 0


# Frozen expected values, computed once with the independent linear-system
# oracle (tests/oracles.py) and pinned here so both routes cannot drift
# together unnoticed.

TAU0_FROZEN = tuple(Fraction(s) for s in (
    "-1/5", "-13/25", "6/25", "2/25", "0", "0", "2/25", "6/25", "-13/25",
    "-1/5", "1/5", "-8/25", "6/25", "-3/25", "-2/5", "2/5", "7/25", "6/25",
    "7/25", "2/5", "-2/5", "-3/25", "6/25", "-8/25", "1/5"))

DELTA_FROZEN = tuple(Fraction(s) for s in (
    "2/5", "-2/5", "0", "-2/5", "2/5", "2/5", "-2/5", "0", "-2/5", "2/5",
    "2/5", "-2/5", "0", "-2/5", "2/5", "2/5", "-2/5", "0", "-2/5", "2/5",
    "2/5", "-2/5", "0", "-2/5", "2/5"))


def test_frozen_torsion_vectors():
    assert torsion_kanenobu(0).values == TAU0_FROZEN
    delta = torsion_kanenobu(1) - torsion_kanenobu(0)
    assert delta.values == DELTA_FROZEN
    assert torsion_kanenobu(5).values == tuple(
        a + 5 * d for a, d in zip(TAU0_FROZEN, DELTA_FROZEN))


def test_denominators_divide_a_power_of_the_modulus():
    def prime_support(n):
        out, d = set(), 2
        while d * d <= n:
            while n % d == 0:
                out.add(d)
                n //= d
            d += 1
        if n > 1:
            out.add(n)
        return out

    for tau, n in [(torsion_kanenobu(0), 25), (torsion_kanenobu(3), 25),
                   (torsion_lens(12, 5), 12), (torsion_lens(7, 2), 7)]:
        allowed = prime_support(n)
        for v in tau.values:
            assert prime_support(v.denominator) <= allowed
