import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qatorsion.intmat import (_symmetric_bareiss, det_bareiss, identity,
                              smith_normal_form)

from oracles import det_laplace, mat_mul, symmetric_signature, transpose


def twist_family_matrix(n):
    return [[-10 * n + 2, 10 * n, 0, -1],
            [10 * n, -10 * n - 2, 1, 0],
            [0, 1, 10 * n, -10 * n - 3],
            [-1, 0, -10 * n - 3, 10 * n + 6]]


def check_snf(m):
    diag, u, v = smith_normal_form(m)
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    prod = mat_mul(mat_mul(u, m), v)
    for i in range(len(m)):
        for j in range(len(m[0]) if m else 0):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(d >= 0 for d in diag)
    return diag


def test_presentation_matrix_snf_is_25():
    for n in range(6):
        assert check_snf(twist_family_matrix(n)) == [1, 1, 1, 25]


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[0]]) == [0]
    assert check_snf([[7]]) == [7]
    assert check_snf([[1]]) == [1]
    # pivoting on whichever remainder turns up first, rather than on the
    # least entry of the trailing block, takes seconds on this matrix
    assert check_snf([[0, 3, 6, 0, -7, -9], [0, 4, -6, -8, -6, -1],
                      [0, 0, 7, 6, 0, 7], [-12, -3, 0, -10, 12, 0],
                      [0, 0, 0, 0, -1, -8], [0, 0, -11, 2, -6, -8]]) == [1, 1, 1, 1, 2, 28104]


def test_snf_random_and_det_product():
    rng = random.Random(13)
    for _ in range(250):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        diag = check_snf(m)
        if r == c:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det_bareiss(m))


def test_snf_diagonal_products_are_gcds_of_minors():
    # independent oracle: d1 ... dk is the gcd of the k x k minors, on
    # sparse rectangular matrices with forced zero rows and columns
    from itertools import combinations
    from math import gcd
    rng = random.Random(17)
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.2, 0.5, 0.8))
        m = [[rng.randint(-9, 9) if rng.random() < density else 0
              for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randint(0, r - 1)):
            m[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(0, c - 1)):
            for row in m:
                row[j] = 0
        diag = check_snf(m)
        prod = 1
        for k in range(1, min(r, c) + 1):
            prod *= diag[k - 1]
            minors = 0
            for rows in combinations(range(r), k):
                for cols in combinations(range(c), k):
                    minors = gcd(minors, det_laplace([[m[i][j] for j in cols]
                                                      for i in rows]))
            assert prod == minors, (m, diag, k)


def test_det_matches_laplace():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(0, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == det_laplace(m)


def _elimination_invariants(form):
    """(det, signature) from the pivots of the package's elimination: the
    last pivot, and Jacobi's rule."""
    rows = _symmetric_bareiss(form)
    minors = [1] + [rows[k][k] for k in range(len(form))]
    return minors[-1], sum((a * b > 0) - (a * b < 0) for a, b in zip(minors, minors[1:]))


def test_signature_basics():
    for form, sig in (([], 0), ([[5]], 1), ([[-2, 0], [0, 3]], 0),
                      ([[0, 1], [1, 0]], 0), ([[1, 0], [0, 1]], 2),
                      ([[0, 0], [0, 0]], 0), ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], 0)):
        assert symmetric_signature(form) == sig
        assert _elimination_invariants(form) == (det_bareiss(form), sig)


def test_signature_e8():
    e8 = [[2, -1, 0, 0, 0, 0, 0, 0],
          [-1, 2, -1, 0, 0, 0, 0, 0],
          [0, -1, 2, -1, 0, 0, 0, 0],
          [0, 0, -1, 2, -1, 0, 0, 0],
          [0, 0, 0, -1, 2, -1, 0, -1],
          [0, 0, 0, 0, -1, 2, -1, 0],
          [0, 0, 0, 0, 0, -1, 2, 0],
          [0, 0, 0, 0, -1, 0, 0, 2]]
    assert symmetric_signature(e8) == 8
    assert det_bareiss(e8) == 1
    assert symmetric_signature([[-x for x in row] for row in e8]) == -8
    assert _elimination_invariants(e8) == (1, 8)
    assert _elimination_invariants([[-x for x in row] for row in e8]) == (1, -8)


def test_signature_congruence_invariant():
    rng = random.Random(16)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        u = identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += c * u[j][k]
        cong = mat_mul(mat_mul(u, m), transpose(u))
        assert symmetric_signature(cong) == symmetric_signature(m)
        assert _elimination_invariants(cong)[1] == symmetric_signature(m)


@st.composite
def _symmetric_forms(draw):
    """Symmetric integer forms up to 6 x 6, mostly sparse, half of them
    with a zero diagonal, and half of them B^T S B for a k x n matrix B
    with k < n, so singular."""
    n = draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))
    zero_diagonal = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                m[i][j] = m[j][i] = draw(entry)
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        b = [[draw(entry) for _ in range(n)] for _ in range(k)]
        m = [[sum(b[p][i] * m[p][q] * b[q][j] for p in range(k) for q in range(k))
              for j in range(n)] for i in range(n)]
    return m


@settings(max_examples=400, deadline=None, derandomize=True)
@given(form=_symmetric_forms())
def test_elimination_pivots_give_determinant_and_signature(form):
    assert _elimination_invariants(form) == (det_bareiss(form),
                                             symmetric_signature(form))
