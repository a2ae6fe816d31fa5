import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatorsion import lattice
from qatorsion.intmat import _bareiss_step, _symmetric_bareiss, identity
from qatorsion.lattice import (CATALOG_CONDITION, MAX_COMPLETE_RANK,
                               UNIT_CONDITION, CBound, GramLattice,
                               LatticeError, _adjugate, _isometry_key,
                               _m_floor,
                               build_catalog, c_bound, catalog_from_json,
                               catalog_to_json,
                               enumerate_definite_lattices,
                               enumerate_in_ellipsoid, lattices_isometric,
                               m_invariant, qa_verdict)

from oracles import (_cofactor_adjugate, brute_coset_maxima, brute_m_invariant,
                     char_cosets, coset_square_maxima, d_lens_oracle, det_laplace,
                     diagonal, fraction_enumerate_in_ellipsoid, mat_mul,
                     pairwise_definite_lattices, transpose,
                     unpruned_definite_lattices)

NEG_E8 = GramLattice.from_rows([
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2]])


def test_definiteness_validation():
    with pytest.raises(LatticeError):
        diagonal([1])
    with pytest.raises(LatticeError, match="Gram matrix is not negative definite"):
        GramLattice.from_rows([[-1, 2], [2, -1]])
    with pytest.raises(LatticeError):
        GramLattice.from_rows([[-1, 0], [1, -1]])


def test_elimination_rejects_forms_that_are_not_positive_definite():
    for form in ([[1, 1], [1, 1]], [[1, 2], [2, 1]], [[2, 1, 0], [1, 2, 3], [0, 3, 1]],
                 [[0]], [[-1]]):
        assert min(row[k] for k, row in enumerate(_symmetric_bareiss(form))) <= 0
        with pytest.raises(LatticeError, match="form is not positive definite"):
            list(enumerate_in_ellipsoid(form, 4))
        with pytest.raises(LatticeError, match="Gram matrix is not negative definite"):
            GramLattice.from_rows([[-x for x in row] for row in form])


def test_disc_is_the_absolute_determinant(catalog25_session):
    for lat in list(catalog25_session[0]) + [NEG_E8]:
        assert lat.disc == abs(det_laplace(lat.gram)), lat.gram
    assert GramLattice.rank_zero().disc == 1


def _label(lat, chi):
    """The coset label adj(-G) chi mod 2D that coset_square_maxima keys on."""
    return tuple(sum(a * c for a, c in zip(row, chi)) % (2 * lat.disc)
                 for row in _adjugate(lat.gram))


def _representative(lat, label):
    """chi = -G L / D, a characteristic vector whose label is L."""
    image = [-sum(g * x for g, x in zip(row, label)) for row in lat.gram]
    assert all(x % lat.disc == 0 for x in image)
    return [x // lat.disc for x in image]


def _tridiagonal(rank, diagonal_entry):
    return [[diagonal_entry if i == j else int(abs(i - j) == 1) for j in range(rank)]
            for i in range(rank)]


def test_adjugate_is_det_times_inverse():
    # adj(-G) (-G) = D I, and adj(-G) is the cofactor oracle's, on small
    # forms, -E8, random diagonally dominant forms of rank 5..8, -A16 and
    # the D = 9701 form that MAX_M_DISC cites
    rng = random.Random(28)
    forms = [diagonal([-2, -3]).gram, NEG_E8.gram, [[-2, -1], [-1, -13]],
             [[-2, 1, 0], [1, -3, 1], [0, 1, -5]], _tridiagonal(16, -2),
             _tridiagonal(4, -10)]
    for r in (5, 5, 6, 6, 7, 7, 8, 8):
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
            g[i][i] = -sum(abs(x) for x in g[i]) - rng.randint(1, 4)
        forms.append(g)
    for gram in forms:
        lat = GramLattice.from_rows(gram)
        pos = [[-x for x in row] for row in gram]
        adj = _adjugate(lat.gram)
        assert adj == _cofactor_adjugate(pos)[0], gram
        assert mat_mul(adj, pos) == [[lat.disc * x for x in row]
                                     for row in identity(lat.rank)]
    assert [GramLattice.from_rows(g).disc for g in forms[4:6]] == [17, 9701]


def test_char_coset_counts():
    for lat in [GramLattice.rank_zero(), diagonal([-1]),
                diagonal([-1, -1]), diagonal([-25]),
                diagonal([-2, -3]),
                GramLattice.from_rows([[-2, -1], [-1, -13]])]:
        assert len(coset_square_maxima(lat)) == lat.disc
    assert coset_square_maxima(GramLattice.rank_zero()) == {(): 0}
    assert coset_square_maxima(diagonal([-1])) == {(1,): -1}


def test_char_cosets_have_characteristic_parity():
    for lat in [diagonal([-2, -3]), NEG_E8,
                GramLattice.from_rows([[-2, -1], [-1, -13]])]:
        for label in coset_square_maxima(lat):
            chi = _representative(lat, label)
            for i in range(lat.rank):
                assert (chi[i] - lat.gram[i][i]) % 2 == 0
            assert _label(lat, chi) == label


def test_doubling_by_lattice_vectors_stays_in_class():
    rng = random.Random(51)
    for lat in [diagonal([-3, -5]),
                GramLattice.from_rows([[-2, -1], [-1, -13]])]:
        for label in coset_square_maxima(lat):
            chi = _representative(lat, label)
            for _ in range(10):
                z = [rng.randint(-2, 2) for _ in range(lat.rank)]
                moved = [chi[i] + 2 * sum(lat.gram[i][j] * z[j]
                                          for j in range(lat.rank))
                         for i in range(lat.rank)]
                assert _label(lat, moved) == label


def test_m_of_unit_diagonals_is_zero():
    for k in range(1, 7):
        assert m_invariant(diagonal([-1] * k)) == 0
    assert m_invariant(GramLattice.rank_zero()) == 0


def test_m_of_negative_e8():
    assert m_invariant(NEG_E8) == 2
    assert coset_square_maxima(NEG_E8) == {(0,) * 8: 0}
    assert list(brute_coset_maxima(NEG_E8).values()) == [0]


def _orthogonal_sum(a: GramLattice, b: GramLattice) -> GramLattice:
    n, k = a.rank, b.rank
    return GramLattice.from_rows([list(row) + [0] * k for row in a.gram]
                                 + [[0] * n + list(row) for row in b.gram])


def test_m_of_unimodular_sums_within_budget():
    # One coset each: chi = 0 + 1 on -E8 + <-1> (its last coordinate is
    # odd, so chi^2 <= -1), chi = 0 on the even -E8 + -E8.
    start = time.perf_counter()
    e8_unit = _orthogonal_sum(NEG_E8, diagonal([-1]))
    assert list(coset_square_maxima(e8_unit).values()) == [-1]
    assert m_invariant(e8_unit) == 2
    e8_e8 = _orthogonal_sum(NEG_E8, NEG_E8)
    assert list(coset_square_maxima(e8_e8).values()) == [0]
    assert m_invariant(e8_e8) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"m of the unimodular sums took {elapsed:.2f}s, budget 1s"


def test_rank_one_maxima_match_lens_recursion():
    for p in range(2, 13):
        lat = diagonal([-p])
        maxima = sorted((v + 1) / 4 for v in coset_square_maxima(lat).values())
        assert maxima == sorted(d_lens_oracle(p, p - 1))


def test_m_matches_brute_force_spot():
    for lat in [diagonal([-2, -3]), diagonal([-25]),
                GramLattice.from_rows([[-2, -1], [-1, -13]]),
                diagonal([-1, -5, -5]),
                diagonal([-1, -1, -5, -5])]:
        assert m_invariant(lat) == brute_m_invariant(lat)
        brute = brute_coset_maxima(lat)
        by_label = {_label(lat, c.representative): brute[c.coset_id]
                    for c in char_cosets(lat)}
        assert len(by_label) == lat.disc
        assert coset_square_maxima(lat) == by_label


def test_m_on_catalog25_is_pinned(catalog25_session):
    want = ("-6 -2 -72/25 -6 -26/25 -7/5 -2 -2 -72/25 -6 "
            "-4/5 -22/25 -3/5 -36/25 -26/25 -7/5 -2 -2 -72/25 -6")
    got = [m_invariant(lat) for lat in catalog25_session[0]]
    assert got == [Fraction(x) for x in want.split()]


def test_c_bound25_within_budget(catalog25_session):
    catalog = [GramLattice(lat.gram) for lat in catalog25_session[0]]
    start = time.perf_counter()
    bound = c_bound(25, catalog)
    elapsed = time.perf_counter() - start
    assert bound.value == -6
    assert elapsed < 0.05, f"c_bound(25) took {elapsed:.3f}s, budget 0.05s"


def test_c_bound25_searches_each_distinct_block_once_per_call(monkeypatch,
                                                              catalog25_session):
    # The 20 lattices split into 41 orthogonal blocks with 10 distinct Gram
    # matrices.  <-25> has the least floor, -6, which its m reaches, so
    # every other member is pruned and <-25> is the one search.
    catalog = [GramLattice(lat.gram) for lat in catalog25_session[0]]
    calls, search = [], lattice._least_char_squares

    def counted(lat):
        calls.append(lat.gram)
        return search(lat)

    monkeypatch.setattr(lattice, "_least_char_squares", counted)
    assert c_bound(25, catalog).value == -6
    assert calls == [((-25,),)]
    # No table outlives the call: a second call searches <-25> again.
    calls.clear()
    assert c_bound(25, catalog).value == -6
    assert calls == [((-25,),)]
    calls.clear()
    assert m_invariant(diagonal([-5, -1, -5, -1])) == -2
    assert calls == [((-5,),)]


def test_m_is_congruence_invariant():
    rng = random.Random(52)
    for lat in [diagonal([-1, -2]), diagonal([-3, -5]),
                GramLattice.from_rows([[-2, -1], [-1, -13]]),
                diagonal([-2, -2, -3])]:
        base = m_invariant(lat)
        for _ in range(50):
            r = lat.rank
            u = identity(r)
            for _ in range(4):
                i, j = rng.randrange(r), rng.randrange(r)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(r):
                        u[i][k] += c * u[j][k]
            cong = mat_mul(mat_mul(u, [list(row) for row in lat.gram]),
                           transpose(u))
            assert m_invariant(GramLattice.from_rows(cong)) == base


def test_orthogonal_unit_summand_preserves_m_on_corpus():
    corpus = [diagonal([-2]), diagonal([-3, -5]),
              GramLattice.from_rows([[-2, -1], [-1, -13]]),
              diagonal([-25])]
    for lat in corpus:
        extended = _orthogonal_sum(lat, diagonal([-1]))
        assert m_invariant(extended) == m_invariant(lat)


def _permuted(lat: GramLattice, perm: list[int]) -> GramLattice:
    return GramLattice.from_rows([[lat.gram[i][j] for j in perm] for i in perm])


def test_m_of_units_plus_a_large_summand_within_budget():
    # m adds over orthogonal blocks, so the <-1> summands cost nothing; the
    # unsplit search over this D = 1000 lattice runs for minutes.
    lat = diagonal([-1, -1, -1, -1000])
    start = time.perf_counter()
    assert m_invariant(lat) == m_invariant(diagonal([-1000]))
    assert m_invariant(lat) == Fraction(-999, 4)
    assert m_invariant(_permuted(lat, [1, 3, 0, 2])) == Fraction(-999, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"m of <-1>^3 + <-1000> took {elapsed:.2f}s, budget 1s"


def test_m_summed_over_blocks_equals_the_unsplit_minimum():
    a = GramLattice.from_rows([[-2, -1], [-1, -13]])
    b = GramLattice.from_rows([[-2, 1, 0], [1, -3, 1], [0, 1, -5]])
    corpus = [_orthogonal_sum(diagonal([-2]), diagonal([-3])),
              _orthogonal_sum(a, diagonal([-5])),
              _orthogonal_sum(diagonal([-1]), b),
              _orthogonal_sum(a, GramLattice.from_rows([[-2, 1], [1, -3]])),
              _orthogonal_sum(diagonal([-3, -1]), a),
              _permuted(_orthogonal_sum(a, diagonal([-3, -2])),
                        [2, 0, 3, 1]),
              _permuted(_orthogonal_sum(diagonal([-2]), b), [1, 0, 3, 2])]
    for lat in corpus:
        unsplit = min((sq + lat.rank) / 4 for sq in coset_square_maxima(lat).values())
        assert m_invariant(lat) == unsplit, lat.gram


_SMALL_BLOCKS = (((-1,),), ((-2,),), ((-3,),), ((-2, 1), (1, -2)),
                 ((-2, 1), (1, -3)), ((-2, -1), (-1, -4)))


@st.composite
def _sums_with_a_repeated_block(draw):
    """B + B' (+ C), B' a copy of B in a permuted basis with sign changes,
    of rank at most 4, in a shuffled basis so that the copies of B sit at
    different positions."""
    block = draw(st.sampled_from(_SMALL_BLOCKS))
    k = len(block)
    perm = draw(st.permutations(range(k)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    copy = [[signs[i] * signs[j] * block[perm[i]][perm[j]] for j in range(k)]
            for i in range(k)]
    parts = [block, copy]
    if 2 * k < 4:
        parts.append(draw(st.sampled_from([b for b in _SMALL_BLOCKS
                                           if len(b) <= 4 - 2 * k])))
    lat = GramLattice.rank_zero()
    for part in parts:
        lat = _orthogonal_sum(lat, GramLattice.from_rows(part))
    return _permuted(lat, draw(st.permutations(range(lat.rank))))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lat=_sums_with_a_repeated_block())
def test_m_over_repeated_blocks_matches_the_brute_force_and_the_unsplit_search(lat):
    unsplit = min((sq + lat.rank) / 4 for sq in coset_square_maxima(lat).values())
    assert m_invariant(lat) == unsplit == brute_m_invariant(lat), lat.gram


@st.composite
def _definite_forms(draw):
    """A positive definite integer form B^T B + s I of rank 0..5 and a
    radius 0..200, with s growing with the radius so that the ellipsoid
    holds at most a few thousand vectors."""
    r = draw(st.integers(0, 5))
    radius = draw(st.integers(0, 200))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                      min_size=r, max_size=r))
    s = draw(st.integers(1 + radius // 16, 4 + radius // 16))
    form = [[sum(b[k][i] * b[k][j] for k in range(r)) + s * (i == j)
             for j in range(r)] for i in range(r)]
    parity = draw(st.one_of(st.none(), st.lists(st.integers(0, 1),
                                                min_size=r, max_size=r)))
    return form, radius, parity


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_definite_forms())
def test_integer_enumerator_matches_the_fraction_oracle(case):
    form, radius, parity = case
    assert (list(enumerate_in_ellipsoid(form, radius, parity))
            == list(fraction_enumerate_in_ellipsoid(form, radius, parity)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_definite_forms())
def test_elimination_pivots_are_the_leading_minors(case):
    form = case[0]
    rows = _symmetric_bareiss(form)
    for k in range(1, len(form) + 1):
        assert rows[k - 1][k - 1] == det_laplace([row[:k] for row in form[:k]])


def test_integer_enumerator_matches_the_oracle_on_catalog_adjugates(catalog25_session):
    for lat in catalog25_session[0]:
        form = _adjugate(lat.gram)
        parity = [lat.gram[i][i] % 2 for i in range(lat.rank)]
        for radius in (0, 5, 37, 200):
            for mask in (None, parity):
                assert (list(enumerate_in_ellipsoid(form, radius, mask))
                        == list(fraction_enumerate_in_ellipsoid(form, radius, mask)))


def test_enumeration_examples():
    assert [l.gram for l in enumerate_definite_lattices(1, 25)] == [((-25,),)]
    assert [l.gram for l in enumerate_definite_lattices(1, 1)] == [((-1,),)]
    assert enumerate_definite_lattices(0, 1) == [GramLattice.rank_zero()]
    assert enumerate_definite_lattices(0, 2) == []
    two_four = enumerate_definite_lattices(2, 4)
    assert sorted(l.gram for l in two_four) == [((-2, 0), (0, -2)),
                                                ((-1, 0), (0, -4))]
    with pytest.raises(LatticeError):
        enumerate_definite_lattices(5, 2)


def test_rank_two_enumeration_complete_against_wide_scan():
    def wide(disc, amax=40):
        found = []
        for a in range(1, amax):
            for c in range(a, amax):
                for b in range(0, a // 2 + 1):
                    if a * c - b * b == disc:
                        g = GramLattice.from_rows([[-a, -b], [-b, -c]])
                        if not any(lattices_isometric(g, h) for h in found):
                            found.append(g)
        return found

    for disc in (1, 2, 3, 4, 5, 11, 25):
        mine = enumerate_definite_lattices(2, disc)
        scan = wide(disc)
        assert len(mine) == len(scan), disc
        for lat in scan:
            assert any(lattices_isometric(lat, h) for h in mine)


def test_isometry_detects_diagonal_reordering():
    a = diagonal([-1, -4])
    b = diagonal([-4, -1])
    assert lattices_isometric(a, b)
    assert not lattices_isometric(a, diagonal([-2, -2]))


def test_enumeration_equals_the_pairwise_dedupe():
    cases = [(rank, disc) for rank in (1, 2, 3) for disc in range(1, 26)]
    cases += [(4, disc) for disc in (1, 2, 3, 6, 7, 10, 14)]
    for rank, disc in cases:
        got = [lat.gram for lat in enumerate_definite_lattices(rank, disc)]
        want = [lat.gram for lat in pairwise_definite_lattices(rank, disc)]
        assert got == want, (rank, disc)


def test_sign_normalised_scan_keeps_the_unpruned_representatives():
    # The oracle eliminates every filling, so it also checks that solving
    # for the last entry finds every value that gives the determinant, and
    # that the Delta prune skips no filling that passes.  The pairwise
    # oracle is too slow at rank 4 for these determinants.
    cases = [(rank, disc) for rank in (2, 3) for disc in range(1, 31)]
    # D = 30 and 28 are where the Delta prune cuts the most rank-4 fillings
    # (70 and 65; D = 29 ties 28 with fewer classes).
    cases += [(4, disc) for disc in (16, 20, 24, 25, 27, 28, 30)]
    for rank, disc in cases:
        got = [lat.gram for lat in enumerate_definite_lattices(rank, disc)]
        want = [lat.gram for lat in unpruned_definite_lattices(rank, disc)]
        assert got == want, (rank, disc)
    # a rank-3 filling of the D = 4 scan whose last entry (1, 2) has two
    # roots, both inside its range [-1, 1]
    filling = [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    rows = _symmetric_bareiss(filling)
    assert lattice._last_entry_roots(rows[0][0], rows[1][2], rows[2][2], 4) == [0, 1]
    for v in (0, 1):
        filling[1][2] = filling[2][1] = v
        assert det_laplace(filling) == 4


def test_carried_steps_give_the_minors_of_the_full_elimination():
    # The scan's bookkeeping on random forms, zero and negative leading
    # minors included: steps[i] is the form after i steps with the entries
    # of rows >= i read as 0 off the diagonal, row i's entries enter as
    # Delta_i v, and one step carries it on once row i is set.
    rng = random.Random(25)
    seen = set()
    for _ in range(500):
        r = rng.randint(2, 6)
        form = [[0] * r for _ in range(r)]
        for i in range(r):
            form[i][i] = rng.randint(-1, 4)
            for j in range(i + 1, r):
                form[i][j] = form[j][i] = rng.randint(-2, 2)
        steps = [[[form[a][b] if a == b else 0 for b in range(r)] for a in range(r)]
                 for _ in range(r - 1)]
        minors = [1]  # Delta_0, Delta_1, ...
        for i in range(r - 1):
            if i:
                _bareiss_step(steps[i - 1], steps[i], i - 1, minors[i - 1])
            q0 = steps[i][i][i + 1]  # at i = r - 2, the last entry's q0
            for j in range(i + 1, r):
                steps[i][i][j] += minors[i] * form[i][j]
            minors.append(steps[i][i][i])
            if not minors[-1]:
                break  # the scan prunes before it divides by a zero minor
        for k, minor in enumerate(minors):
            assert minor == det_laplace([row[:k] for row in form[:k]]), form
        seen.update((minor > 0) - (minor < 0) for minor in minors)
        if 0 in minors:
            continue
        # every leading minor is nonzero: no pivot is replaced
        full = _symmetric_bareiss(form)
        assert minors == [1] + [full[k][k] for k in range(r - 1)], form
        lead, b = minors[r - 2], steps[r - 2]
        det0 = (b[r - 2][r - 2] * b[r - 1][r - 1] - q0 * q0) // lead
        zeroed = [row[:] for row in form]
        zeroed[r - 2][r - 1] = zeroed[r - 1][r - 2] = 0
        rows = _symmetric_bareiss(zeroed)
        assert (q0, det0) == (rows[r - 2][r - 1], rows[r - 1][r - 1]), form
        disc = full[-1][-1]
        assert disc == (b[r - 2][r - 2] * b[r - 1][r - 1] - b[r - 2][r - 1] ** 2) // lead
        if lead > 0:
            roots = lattice._last_entry_roots(lead, q0, det0, disc)
            assert form[r - 2][r - 1] in roots and roots == sorted(roots), form
            for v in roots:
                zeroed[r - 2][r - 1] = zeroed[r - 1][r - 2] = v
                assert det_laplace(zeroed) == disc, form
    assert seen == {-1, 0, 1}


def test_catalog_classes_obey_the_sign_rule():
    # In scan order, the first nonzero off-diagonal entry touching each
    # index is positive in the negative-definite Gram matrix.
    for disc in range(1, 31):
        for lat in build_catalog(disc):
            r = lat.rank
            first: dict[int, int] = {}
            for i in range(r):
                for j in range(i + 1, r):
                    if lat.gram[i][j]:
                        first.setdefault(i, lat.gram[i][j])
                        first.setdefault(j, lat.gram[i][j])
            assert all(v > 0 for v in first.values()), (disc, lat.gram)


def test_classes_with_a_norm_one_vector_come_from_the_rank_below():
    # On the oracle, which scans from diagonal entry 1 and splits nothing
    # off: the classes with a -1 on the diagonal are <-1> + the classes of
    # rank - 1, representatives and all, and no other class has a vector of
    # norm 1.  This is what lets the package's scan start at 2.
    for disc in range(1, 31):
        below = unpruned_definite_lattices(0, disc)
        for rank in range(1, 5 if disc in (16, 20, 24, 25, 27) else 4):
            classes = unpruned_definite_lattices(rank, disc)
            split = [lat for lat in classes
                     if any(lat.gram[i][i] == -1 for i in range(rank))]
            assert [lat.gram for lat in split] == [
                ((-1,) + (0,) * (rank - 1),) + tuple((0,) + row for row in lat.gram)
                for lat in below], (rank, disc)
            assert all(_isometry_key(lat)[0] == 0 for lat in classes
                       if lat not in split), (rank, disc)
            below = classes


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_isometry_key_and_test_survive_a_basis_change(catalog25_session, data):
    lat = data.draw(st.sampled_from(catalog25_session[0]))
    r = lat.rank
    perm = data.draw(st.permutations(range(r)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r))
    u = [[signs[i] * int(perm[i] == j) for j in range(r)] for i in range(r)]
    moves = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1),
                      st.sampled_from((1, -1)))
    for i, j, c in data.draw(st.lists(moves, max_size=2)):
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    moved = GramLattice.from_rows(
        mat_mul(mat_mul(u, [list(row) for row in lat.gram]), transpose(u)))
    fresh = GramLattice(lat.gram)  # short vectors of its own, not the fixture's
    assert _isometry_key(moved) == _isometry_key(fresh)
    assert lattices_isometric(moved, fresh)
    assert lattices_isometric(fresh, moved)


def test_catalog25_classes_are_pairwise_non_isometric(catalog25_session):
    catalog = [GramLattice(lat.gram) for lat in catalog25_session[0]]
    pairs = [(a, b) for a in catalog for b in catalog if a is not b]
    assert len(catalog) == 20 and len(pairs) == 380
    assert not any(lattices_isometric(a, b) for a, b in pairs)


def test_build_catalog25_within_budget():
    start = time.perf_counter()
    catalog = build_catalog(25)
    elapsed = time.perf_counter() - start
    assert len(catalog) == 20
    assert elapsed < 0.1, f"build_catalog(25) took {elapsed:.2f}s, budget 0.1s"


def test_build_catalog25_runs_no_determinant_per_filling(monkeypatch):
    # The Delta prune and the solved last entry decide each filling, so the
    # scan eliminates no filling itself: every elimination is a lattice's
    # own (its disc and definiteness) or its short-vector search.  The scan
    # ran a determinant per filling (28,876), then an elimination per leaf.
    callers = []

    def counted(form):
        callers.append(sys._getframe(1).f_code.co_name)
        return _symmetric_bareiss(form)

    monkeypatch.setattr(lattice, "_symmetric_bareiss", counted)
    assert len(build_catalog(25)) == 20
    assert callers and set(callers) <= {"__post_init__", "enumerate_in_ellipsoid"}, \
        sorted(set(callers))


def test_build_catalog25_skips_sign_copies(monkeypatch):
    # every sign of every off-diagonal entry took 27,219 eliminations and
    # 413 isometry tests; the sign rule with one elimination per value of
    # the last entry 5,441 and 49, solving for the last entry 2,202 and 49;
    # splitting <-1> off, with each rank enumerated once, 1,470 and 47;
    # carrying the elimination down the fill, one per leaf, 221 and 47;
    # no leaf elimination, as the Delta prune and the solved last entry
    # decide it, and rank 1 read off directly, 140 and 47
    counts = {"_symmetric_bareiss": 0, "lattices_isometric": 0}

    def counted(name):
        inner = getattr(lattice, name)

        def call(*args):
            counts[name] += 1
            return inner(*args)
        return call

    for name in counts:
        monkeypatch.setattr(lattice, name, counted(name))
    assert len(build_catalog(25)) == 20
    assert counts["_symmetric_bareiss"] <= 150, counts
    assert counts["lattices_isometric"] <= 50, counts


def test_c_bound_examples():
    cb1 = c_bound(1, build_catalog(1))
    assert cb1.value == 0 and cb1.complete
    cb2 = c_bound(2, build_catalog(2))
    assert cb2.complete
    assert cb2.value == m_invariant(diagonal([-2]))
    with pytest.raises(LatticeError):
        c_bound(2, [diagonal([-3])])


@pytest.fixture(scope="module")
def catalogs_to_30():
    return {disc: build_catalog(disc) for disc in range(1, 31)}


def test_catalog_reads_each_rank_off_the_rank_above(catalogs_to_30):
    # build_catalog enumerates only the top rank; the catalog is still every
    # rank's enumeration, in rank order
    for disc, catalog in catalogs_to_30.items():
        assert catalog == [lat for r in range(min(disc - 1, MAX_COMPLETE_RANK) + 1)
                           for lat in enumerate_definite_lattices(r, disc)], disc


def test_m_floor_is_below_m_on_every_catalog_lattice(catalogs_to_30):
    for disc, catalog in catalogs_to_30.items():
        for lat in catalog:
            assert _m_floor(lat) <= m_invariant(lat), lat.gram
        # the floor is m exactly on <-1>^k + <-D>
        for k in range(4):
            lat = diagonal([-1] * k + [-disc])
            assert _m_floor(lat) == m_invariant(lat) == Fraction(1 - disc, 4)


def test_c_bound_is_the_minimum_of_m_over_the_catalog(catalogs_to_30):
    def exhaustive(disc, catalog):
        return CBound(disc=disc, value=min(m_invariant(lat) for lat in catalog),
                      complete=disc - 1 <= MAX_COMPLETE_RANK,
                      catalog_size=len(catalog))

    for disc, catalog in catalogs_to_30.items():
        assert c_bound(disc, catalog) == exhaustive(disc, catalog)
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
    committed = catalog_from_json((reference / "catalog_d25.json").read_text())
    want = exhaustive(25, committed)
    assert want == CBound(disc=25, value=Fraction(-6), complete=False, catalog_size=20)
    assert c_bound(25, committed[::-1]) == want
    rng = random.Random(15)
    for _ in range(5):
        rng.shuffle(committed)
        assert c_bound(25, committed) == want
    # in a subset without the m = -6 members, the least floor need not
    # belong to the least m
    for size in range(1, 20):
        subset = rng.sample(committed, size)
        assert c_bound(25, subset) == exhaustive(25, subset)


def test_c_bound_prunes_a_member_whose_search_is_over_the_cap(monkeypatch):
    # -A16 + <-3> (disc 51) has floor -12 >= m(<-51>) = -25/2, so it is never
    # searched; searching its -A16 block would pass MAX_M_VECTORS.
    rows = [[-2 if i == j else int(abs(i - j) == 1) for j in range(16)] + [0]
            for i in range(16)] + [[0] * 16 + [-3]]
    member = GramLattice.from_rows(rows)
    assert member.disc == 51 and _m_floor(member) == -12
    calls, search = [], lattice._least_char_squares

    def counted(lat):
        calls.append(lat.gram)
        return search(lat)

    monkeypatch.setattr(lattice, "_least_char_squares", counted)
    bound = c_bound(51, [member, diagonal([-51])])
    assert bound == CBound(disc=51, value=Fraction(-25, 2), complete=False,
                           catalog_size=2)
    assert calls == [((-51,),)]


def test_verdict_unknot_not_obstructed():
    bound = c_bound(1, build_catalog(1))
    v = qa_verdict([Fraction(0)], 1, bound, unit_pinned=True)
    assert v.verdict == "not obstructed"
    assert v.conditions_unmet == ()


def test_verdict_cardinality_check():
    bound = c_bound(1, build_catalog(1))
    with pytest.raises(LatticeError):
        qa_verdict([Fraction(0), Fraction(1)], 1, bound)


def test_verdict_synthetic_obstruction_is_conditional():
    catalog = build_catalog(2)
    bound = CBound(disc=25, value=Fraction(-6), complete=False, catalog_size=0)
    d_values = [Fraction(-100)] + [Fraction(0)] * 24
    v = qa_verdict(d_values, 25, bound, unit_pinned=False)
    assert v.obstruction_fires
    assert v.verdict == "non-QA conditional"
    assert set(v.conditions_unmet) == {CATALOG_CONDITION, UNIT_CONDITION}
    certified = qa_verdict(d_values, 25,
                           CBound(disc=25, value=Fraction(-6), complete=True,
                                  catalog_size=999), unit_pinned=True)
    assert certified.verdict == "non-QA certified"


def test_catalog_json_round_trip():
    catalog = build_catalog(4)
    text = catalog_to_json(catalog)
    back = catalog_from_json(text)
    assert back == catalog
    data = json.loads(text)
    assert all(set(d) == {"rank", "gram"} for d in data)
