import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatorsion.groupring import (CyclotomicNumber, GroupRingElem,
                                 _reconstruction_matrix, cyclotomic_polynomial,
                                 divisor_levels, euler_phi, phi_at_divisor,
                                 phi_reconstruct_divisors)

from oracles import (brute_convolution, cyclotomic_from_rational,
                     phi_component, phi_decompose, phi_reconstruct,
                     ramanujan_matrix_dense)

N = 25


def sigma():
    return GroupRingElem.from_terms(N, [(5 * k, 2) for k in range(5)])


def rand_elem(rng, n=N, denom=3):
    return GroupRingElem(n, [Fraction(rng.randint(-4, 4), rng.randint(1, denom))
                             for _ in range(n)])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(25) == tuple(
        1 if i % 5 == 0 else 0 for i in range(21))
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(25) == 20


def test_exponents_reduce_mod_n():
    assert (GroupRingElem.t_power(N, 24) * GroupRingElem.t_power(N, 3)
            == GroupRingElem.t_power(N, 2))


def test_one_is_identity():
    rng = random.Random(1)
    one = GroupRingElem.one(N)
    for _ in range(10):
        x = rand_elem(rng)
        assert one * x == x
        assert x * one == x


def test_sigma_squares_to_ten_sigma():
    s = sigma()
    assert s * s == s.scale(10)
    # and against the brute-force convolution
    conv = brute_convolution(list(s.coeffs), list(s.coeffs), N)
    assert list((s * s).coeffs) == conv


def test_multiplication_matches_brute_convolution():
    rng = random.Random(2)
    for _ in range(25):
        a, b = rand_elem(rng), rand_elem(rng)
        assert list((a * b).coeffs) == brute_convolution(list(a.coeffs),
                                                         list(b.coeffs), N)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        GroupRingElem.one(5) * GroupRingElem.one(25)


def test_integrality_preserved():
    rng = random.Random(3)
    for _ in range(20):
        a = GroupRingElem(N, [rng.randint(-5, 5) for _ in range(N)])
        b = GroupRingElem(N, [rng.randint(-5, 5) for _ in range(N)])
        for x in (a, b, a + b, a * b):
            assert all(c.denominator == 1 for c in x.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=N, max_size=N),
       st.lists(st.integers(-6, 6), min_size=N, max_size=N),
       st.lists(st.integers(-6, 6), min_size=N, max_size=N))
def test_ring_axioms(a, b, c):
    x, y, z = (GroupRingElem(N, v) for v in (a, b, c))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x


def test_phi_component_examples():
    s = sigma()
    assert phi_component(s, 0) == cyclotomic_from_rational(1, 10)
    assert phi_component(s, 1) == cyclotomic_from_rational(5, 10)
    assert phi_component(s, 2) == CyclotomicNumber.zero(25)
    with pytest.raises(ValueError):
        phi_component(s, 3)


def test_phi_is_ring_isomorphism():
    rng = random.Random(4)
    for _ in range(15):
        x, y = rand_elem(rng), rand_elem(rng)
        for d in divisor_levels(N):
            assert phi_at_divisor(x * y, d) == phi_at_divisor(x, d) * phi_at_divisor(y, d)
        assert phi_reconstruct_divisors(phi_decompose(x), N) == x


def test_coefficient_sum_is_trivial_component():
    rng = random.Random(5)
    for _ in range(15):
        x = rand_elem(rng)
        assert phi_at_divisor(x, 1) == cyclotomic_from_rational(1, sum(x.coeffs))


def test_reconstruct_examples():
    alpha = phi_reconstruct(Fraction(1), CyclotomicNumber.zero(5),
                            CyclotomicNumber.zero(25), N)
    assert alpha == GroupRingElem(N, [Fraction(1, N)] * N)  # the averaging idempotent
    zero = phi_reconstruct(0, CyclotomicNumber.zero(5), CyclotomicNumber.zero(25), N)
    assert zero == GroupRingElem.zero(N)
    x = GroupRingElem.t_power(N, 7)
    back = phi_reconstruct(phi_component(x, 0).coords[0],
                           phi_component(x, 1), phi_component(x, 2), N)
    assert back == x


def test_general_modulus_decomposition_round_trip():
    rng = random.Random(6)
    for n in (6, 10, 12, 7, 9):
        for _ in range(5):
            x = rand_elem(rng, n=n)
            assert phi_reconstruct_divisors(phi_decompose(x), n) == x


def test_round_trip_of_every_t_power_is_exact():
    # == also accepts an equal float, so check the types too
    for n in range(1, 41):
        for k in range(n):
            x = GroupRingElem.t_power(n, k)
            components = phi_decompose(x)
            assert all(type(c) is int for z in components.values() for c in z.coords)
            back = phi_reconstruct_divisors(components, n)
            assert back == x
            assert all(type(c) in (int, Fraction) for c in back.coeffs), (n, k)


def test_sparse_reconstruction_rows_match_the_dense_ramanujan_matrix():
    rng = random.Random(9)
    for n in range(1, 61):
        dense = ramanujan_matrix_dense(n)
        sparse = _reconstruction_matrix(n)
        assert len(sparse) == len(dense) == n
        for row, pairs in zip(dense, sparse):
            assert all(c != 0 for _col, c in pairs)
            expanded = [0] * len(row)
            for col, c in pairs:
                expanded[col] = c
            assert expanded == row, n
        x = rand_elem(rng, n=n)
        components = phi_decompose(x)
        stacked = [c for d in divisor_levels(n) for c in components[d].coords]
        assert list(phi_reconstruct_divisors(components, n).coeffs) == [
            sum(a * b for a, b in zip(row, stacked)) / n for row in dense]
    assert sum(map(len, _reconstruction_matrix(25))) == 225
    assert {len(row) for row in _reconstruction_matrix(25)} == {9}


def test_cyclotomic_inverse():
    one5 = CyclotomicNumber.one(5)
    w = CyclotomicNumber.zeta_power(5, 1) - one5
    assert w.inv() * w == one5
    sq = w * w
    assert sq.inv() * sq == one5
    prod = one5
    for k in range(1, 5):
        prod = prod * (CyclotomicNumber.zeta_power(5, k) - one5)
    assert prod == cyclotomic_from_rational(5, 5)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(25).inv()
    with pytest.raises(ValueError):
        CyclotomicNumber.one(5) * CyclotomicNumber.one(25)


def test_cyclotomic_inverse_randomised():
    rng = random.Random(7)
    for m in (5, 25):
        one = CyclotomicNumber.one(m)
        count = 0
        while count < 100:
            x = CyclotomicNumber(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                     for _ in range(euler_phi(m))])
            if x.is_zero():
                continue
            count += 1
            assert x.inv() * x == one


def test_json_round_trip():
    rng = random.Random(8)
    for _ in range(5):
        x = rand_elem(rng)
        d = x.to_json_dict()
        assert set(d) == {"modulus", "coeffs"}
        assert all("/" in s or s.lstrip("-").isdigit() for s in d["coeffs"])
        assert GroupRingElem(d["modulus"], [Fraction(c) for c in d["coeffs"]]) == x
