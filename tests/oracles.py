"""Independent oracle implementations and fixtures used by the test suite.

The oracles are written from scratch (own polynomial helpers, own Gaussian
elimination) so that agreement with the package is a genuine two-route
check rather than the same code called twice.  The rest are fixtures and
slower general routes that the command line and the pipeline never run:
the non-abelian Fox calculus and Alexander polynomials, braid closures and
Wirtinger presentations, the black-surface Goeritz form, lens spaces and
their correction-term recursion, and the torsion growth report.  They build
on the package's own types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from qatorsion.covers import (BOUNDARY, BranchedCoverPresentation, WhiteGraph,
                              abelianized_minor, homology_invariants)
from qatorsion.diagrams import DiagramError, End, LinkDiagram
from qatorsion.foxcalc import (FreeWord, Letter, Presentation, Relator, gen,
                               relator, winv, wmul)
from qatorsion.groupring import (CyclotomicNumber, GroupRingElem, divisor_levels,
                                 euler_phi, phi_at_divisor,
                                 phi_reconstruct_divisors)
from qatorsion.intmat import _symmetric_bareiss, smith_normal_form
from qatorsion import lattice as lattice_module
from qatorsion.lattice import GramLattice, LatticeError
from qatorsion.laurent import Laurent
from qatorsion.pipeline import family_casson_walker, family_member, run_family
from qatorsion.skein import A_SMOOTHING, B_SMOOTHING, LOOP
from qatorsion.torsion import TorsionVector, torsion_from_minor


# ---------------------------------------------------------------------------
# Group-ring convolution, the slow way
# ---------------------------------------------------------------------------

def brute_convolution(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            out[(i + j) % n] += a[i] * b[j]
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra (own implementation)
# ---------------------------------------------------------------------------

def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a consistent (possibly overdetermined) full-column-rank system.

    Each equation is scaled to integers, then fraction-free Gauss-Jordan
    elimination (Bareiss) clears every pivot column: each entry stays an
    integer minor of the scaled system, so every division by the previous
    pivot is exact, and every pivot row ends with the same pivot d on its
    diagonal.  The only rational division is x_c = b_c / d, one per entry.
    """
    m, n = len(rows), len(rows[0])
    aug = []
    for row, b in zip(rows, rhs):
        entries = [Fraction(x) for x in row] + [Fraction(b)]
        scale = lcm(*(x.denominator for x in entries))
        aug.append([x.numerator * (scale // x.denominator) for x in entries])
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, m) if aug[i][c]), None)
        if piv is None:
            raise ValueError("system is rank-deficient")
        aug[c], aug[piv] = aug[piv], aug[c]
        pivot_row = aug[c]
        pv = pivot_row[c]
        for i in range(m):
            if i != c:
                row, f = aug[i], aug[i][c]
                aug[i] = [(pv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pv
    for i in range(n, m):
        if aug[i][n] != 0:
            raise ValueError("inconsistent system")
    return [Fraction(aug[c][n], prev) for c in range(n)]


def _cofactor_det(m) -> int:
    """Determinant of a square integer matrix by Laplace expansion along
    the rows, memoised on the set of columns left."""
    n = len(m)

    @lru_cache(maxsize=None)
    def expand(cols: tuple[int, ...]) -> int:
        row = n - len(cols)
        if row == n:
            return 1
        return sum((-1) ** k * m[row][c] * expand(cols[:k] + cols[k + 1:])
                   for k, c in enumerate(cols) if m[row][c])

    return expand(tuple(range(n)))


def _cofactor_adjugate(m) -> tuple[list[list[int]], int]:
    """The adjugate adj(M), with adj(M) M = det(M) I, and det(M)."""
    n = len(m)
    adj = [[(-1) ** (i + j) * _cofactor_det(
                [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]
    return adj, sum(m[0][j] * adj[j][0] for j in range(n))


def symmetric_signature(m) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric matrix,
    computed exactly by congruence reduction over Q.

    Zero diagonals are handled by borrowing from a row with a nonzero
    off-diagonal entry (the hyperbolic-plane case contributes +1 and -1,
    which is what the borrow produces after two pivots).
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sig = 0
    live = list(range(n))
    while live:
        # prefer a nonzero diagonal pivot
        piv = next((i for i in live if a[i][i] != 0), None)
        if piv is None:
            pair = None
            for i in live:
                for j in live:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # congruence: add row/col j to i, producing 2*a[i][j] on the diagonal
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        p = a[piv][piv]
        sig += 1 if p > 0 else -1
        live.remove(piv)
        for i in list(live):
            f = a[i][piv] / p
            if f:
                for k in range(n):
                    a[i][k] -= f * a[piv][k]
                for k in range(n):
                    a[k][i] -= f * a[k][piv]
    return sig


# ---------------------------------------------------------------------------
# Torsion as the solution of a rational linear system (no cyclotomics)
# ---------------------------------------------------------------------------

def torsion_linear_system_oracle(minor_coeffs: list[Fraction], g: int, h: int,
                                 n: int) -> list[Fraction]:
    """The unique zero-sum tau with (t^g - 1)(t^h - 1) tau = minor - avg,
    where avg spreads the coefficient sum evenly.

    Characterises the default-unit torsion without any cyclotomic
    arithmetic: component-wise it says exactly that each nontrivial
    character value of tau is (zeta^g - 1)^-1 (zeta^h - 1)^-1 times the
    character value of the minor, and the trivial component vanishes.
    """
    total = sum(minor_coeffs, Fraction(0))
    rhs_vec = [c - total / n for c in minor_coeffs]
    # multiplication-by-u matrix, u = (t^g - 1)(t^h - 1) = t^{g+h} - t^g - t^h + 1
    u = [Fraction(0)] * n
    for e, c in (((g + h) % n, 1), (g % n, -1), (h % n, -1), (0, 1)):
        u[e] += c
    rows = [[u[(i - j) % n] for j in range(n)] for i in range(n)]
    rows.append([Fraction(1)] * n)
    rhs = rhs_vec + [Fraction(0)]
    return solve_exact(rows, rhs)


def torsion_closed_form(minor: GroupRingElem, g: int, h: int) -> list[Fraction]:
    """The default-unit torsion with no cyclotomic arithmetic and no linear
    system (ROADMAP item 5): tau = (x - mean(x) sum_k t^k) / N^2 with
    x = a_g a_h minor and a_g = sum_{k<N} k t^{gk}, because
    phi_d(a_g) = N / (zeta_d^g - 1) for every divisor d > 1 of N (derived
    in the `torsion` module docstring); g and h must be units mod N."""
    n = minor.modulus

    def a(e: int) -> list[int]:
        out = [0] * n
        for k in range(n):
            out[e * k % n] += k
        return out

    x = brute_convolution(brute_convolution(a(g), a(h), n), list(minor.coeffs), n)
    mean = Fraction(sum(x), n)
    return [(c - mean) / n ** 2 for c in x]


# ---------------------------------------------------------------------------
# Rational polynomial arithmetic mod the p-th cyclotomic polynomial
# (standalone; used by the lens-space character oracle)
# ---------------------------------------------------------------------------

def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(num, den):
    num = [Fraction(x) for x in num]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while _ptrim(num) and len(num) >= len(den):
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        _ptrim(num)
    return _ptrim(q), _ptrim(num)


def cyclotomic_poly_oracle(m: int) -> list[Fraction]:
    """Phi_m by dividing x^m - 1 by the product of Phi_d for proper d | m."""
    if m == 1:
        return [Fraction(-1), Fraction(1)]
    num = [Fraction(0)] * (m + 1)
    num[0], num[m] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _pmul(den, cyclotomic_poly_oracle(d))
    q, r = _pdivmod(num, den)
    assert not r
    return q


@lru_cache(maxsize=None)
def _zeta_power_traces(d: int) -> tuple[Fraction, ...]:
    """Tr_{Q(zeta_d)/Q}(zeta_d^m) for m = 0..d-1, as the trace of
    multiplication by x^m on Q[x]/Phi_d: the sum over the power basis x^i
    of the x^i coefficient of x^(i+m) mod Phi_d."""
    phi = cyclotomic_poly_oracle(d)
    deg = len(phi) - 1
    powers, cur = [], [Fraction(1)] + [Fraction(0)] * (deg - 1)
    for _ in range(d + deg):
        powers.append(cur)
        lead = cur[-1]
        # times x; Phi_d is monic, so the x^deg term lead becomes -lead (Phi_d - x^deg)
        cur = [Fraction(0)] + cur[:-1]
        cur = [c - lead * p for c, p in zip(cur, phi)]
    return tuple(sum(powers[i + m][i] for i in range(deg)) for m in range(d))


def ramanujan_matrix_dense(n: int) -> list[list[Fraction]]:
    """The dense reconstruction matrix: n times the inverse of
    x -> (phi_d(x))_{d | n}, row k, column (d, i) of the stacked
    power-basis coordinates holding Tr(zeta_d^(i - k)), zeros included."""
    columns = [(d, i) for d in range(1, n + 1) if n % d == 0
               for i in range(len(cyclotomic_poly_oracle(d)) - 1)]
    return [[_zeta_power_traces(d)[(i - k) % d] for d, i in columns]
            for k in range(n)]


def poly_inverse_mod(a, modulus):
    """Inverse of a mod a rational polynomial, by extended Euclid."""
    r0, s0 = [Fraction(x) for x in modulus], []
    r1, s1 = _ptrim([Fraction(x) for x in a]), [Fraction(1)]
    while len(r1) > 1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        qs1 = _pmul(q, s1)
        new_s = [(s0[i] if i < len(s0) else Fraction(0)) -
                 (qs1[i] if i < len(qs1) else Fraction(0))
                 for i in range(max(len(s0), len(qs1)))]
        s0, s1 = s1, _ptrim(new_s)
    if not r1:
        raise ZeroDivisionError("not invertible")
    c = r1[0]
    inv = [x / c for x in s1]
    _q, rem = _pdivmod(inv, [Fraction(x) for x in modulus])
    return rem


def lens_character_value(p: int, q: int, k: int) -> list[Fraction]:
    """(zeta^k - 1)^-1 (zeta^{kq} - 1)^-1 in Q[x]/Phi_p, as a remainder mod
    Phi_p; the classical lens-space torsion at the character t -> zeta_p^k."""
    phi = cyclotomic_poly_oracle(p)

    def x_pow_minus_1(e):
        e %= p
        mono = [Fraction(0)] * (e + 1)
        mono[e] = Fraction(1)
        mono[0] -= 1
        _q, r = _pdivmod(mono, phi)
        return r

    a = poly_inverse_mod(x_pow_minus_1(k), phi)
    b = poly_inverse_mod(x_pow_minus_1(k * q), phi)
    prod = _pmul(a, b)
    _q, r = _pdivmod(prod, phi)
    return r


def evaluate_vector_at_character(coeffs, p: int, k: int) -> list[Fraction]:
    """sum_c coeffs[c] * x^{ck} reduced mod Phi_p."""
    phi = cyclotomic_poly_oracle(p)
    acc = [Fraction(0)] * max(1, len(phi) - 1)
    for c, val in enumerate(coeffs):
        if val:
            e = (c * k) % p
            mono = [Fraction(0)] * (e + 1)
            mono[e] = Fraction(val)
            _q, r = _pdivmod(mono, phi)
            for i, x in enumerate(r):
                acc[i] += x
    return _ptrim([Fraction(x) for x in acc])


# ---------------------------------------------------------------------------
# Characteristic cosets as the Smith-form box over Z^r / 2G Z^r
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharCoset:
    """A characteristic covector coset rep, in dual-basis coordinates:
    <chi, e_i> = chi[i], with chi[i] = G[i][i] mod 2."""

    representative: tuple[int, ...]
    coset_id: tuple[int, ...]


def _coset_labeller(lattice: GramLattice):
    """Return a function Z^r -> canonical label of the class mod 2*G*Z^r."""
    r = lattice.rank
    if r == 0:
        return lambda chi: ()
    two_g = [[2 * x for x in row] for row in lattice.gram]
    diag, u, _v = smith_normal_form(two_g)

    def label(chi) -> tuple[int, ...]:
        out = []
        for i in range(r):
            s = sum(u[i][j] * chi[j] for j in range(r))
            d = diag[i]
            out.append(s % d if d else s)
        return tuple(out)

    return label


def char_cosets(lattice: GramLattice) -> list[CharCoset]:
    """Exactly disc(L) pairwise-inequivalent characteristic cosets mod 2L."""
    r = lattice.rank
    if r == 0:
        return [CharCoset((), ())]
    two_g = [[2 * x for x in row] for row in lattice.gram]
    diag, u, _v = smith_normal_form(two_g)
    u_adj, u_det = _cofactor_adjugate(u)
    if u_det not in (1, -1):
        raise AssertionError("U must be unimodular")
    u_inv = [[u_det * x for x in row] for row in u_adj]
    parity = [lattice.gram[i][i] % 2 for i in range(r)]
    label = _coset_labeller(lattice)
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    # enumerate Z^r / 2G Z^r as the box over the Smith factors
    def walk(i: int, digits: list[int]):
        if i == r:
            vec = [sum(row[j] * digits[j] for j in range(r)) for row in u_inv]
            if all(vec[k] % 2 == parity[k] for k in range(r)):
                key = label(vec)
                reps.setdefault(key, tuple(vec))
            return
        for x in range(diag[i]):
            digits.append(x)
            walk(i + 1, digits)
            digits.pop()

    walk(0, [])
    expected = lattice.disc
    if len(reps) != expected:
        raise AssertionError(
            f"found {len(reps)} characteristic cosets, expected {expected}")
    return [CharCoset(rep, key) for key, rep in sorted(reps.items())]


# ---------------------------------------------------------------------------
# Diagonal lattices
# ---------------------------------------------------------------------------

def diagonal(entries: Sequence[int]) -> GramLattice:
    """The orthogonal sum <e_1> + ... + <e_r>."""
    r = len(entries)
    return GramLattice.from_rows([[entries[i] if i == j else 0 for j in range(r)]
                                  for i in range(r)])


# ---------------------------------------------------------------------------
# Brute-force characteristic-coset maxima (box scan)
# ---------------------------------------------------------------------------

def brute_coset_maxima(lattice) -> dict[tuple, Fraction]:
    """Independent re-derivation of the per-coset maxima of chi^2: greedy
    seeds, a provable coordinate box, and a full parity-constrained scan,
    keyed by the coset_id of char_cosets.

    chi^2 = chi^T adj(G) chi / det G; the scan compares the integers
    sq(chi) = chi^2 * |det G| and divides once per coset at the end."""
    from itertools import product

    r = lattice.rank
    if r == 0:
        return {(): Fraction(0)}
    gram = [list(row) for row in lattice.gram]
    adj, det = _cofactor_adjugate(gram)
    if det < 0:
        adj = [[-x for x in row] for row in adj]

    def sq(chi):
        return sum(chi[i] * sum(a * x for a, x in zip(adj[i], chi))
                   for i in range(r))

    def greedy(chi):
        cur, best = list(chi), sq(chi)
        moved = True
        while moved:
            moved = False
            for j in range(r):
                for s in (2, -2):
                    cand = [cur[i] + s * gram[i][j] for i in range(r)]
                    v = sq(cand)
                    if v > best:
                        cur, best = cand, v
                        moved = True
        return cur, best

    label = _coset_labeller(lattice)
    best: dict[tuple, int] = {}
    seeds = []
    for coset in char_cosets(lattice):
        chi, val = greedy(coset.representative)
        seeds.append(val)
        best[coset.coset_id] = val
    radius = max(-v for v in seeds)
    # |chi_i| <= sqrt(-chi^2 * -G_ii), with -chi^2 <= radius / |det G|
    bounds = [isqrt(radius * -gram[i][i] * abs(det)) // abs(det) + 1
              for i in range(r)]
    parity = [gram[i][i] % 2 for i in range(r)]
    ranges = []
    for i in range(r):
        lo = -bounds[i]
        if (lo - parity[i]) % 2:
            lo += 1
        ranges.append(range(lo, bounds[i] + 1, 2))
    for chi in product(*ranges):
        v = sq(chi)
        if -v <= radius:
            key = label(chi)
            if v > best[key]:
                best[key] = v
    return {key: Fraction(v, abs(det)) for key, v in best.items()}


def brute_m_invariant(lattice) -> Fraction:
    maxima = brute_coset_maxima(lattice)
    return min((v + lattice.rank) / 4 for v in maxima.values())


def coset_square_maxima(lattice: GramLattice) -> dict[tuple[int, ...], Fraction]:
    """For every characteristic coset, labelled by adj(-G) chi mod 2D, the
    maximum of chi^2 over the coset (a negative rational, or 0 for the
    empty lattice), from the package's integer search over the whole,
    unsplit Gram matrix."""
    least = lattice_module._least_char_squares(lattice)
    return {label: Fraction(-q, lattice.disc) for label, q in least.items()}


# ---------------------------------------------------------------------------
# Ellipsoid enumeration in exact rationals (the package's enumerator before
# it moved to integers)
# ---------------------------------------------------------------------------

def _ldl(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """A = L D L^T with L unit lower-triangular, D positive diagonal."""
    r = len(a)
    l = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    d = [Fraction(0)] * r
    a = [row[:] for row in a]
    for k in range(r):
        d[k] = a[k][k] - sum(d[j] * l[k][j] * l[k][j] for j in range(k))
        if d[k] <= 0:
            raise LatticeError("form is not positive definite")
        for i in range(k + 1, r):
            l[i][k] = (a[i][k] - sum(d[j] * l[i][j] * l[k][j] for j in range(k))) / d[k]
    return l, d


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for x >= 0, exact."""
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    return isqrt(num * den) // den


def fraction_enumerate_in_ellipsoid(form, radius: Fraction, parity=None):
    """All integer vectors x (including 0 when parity allows) with
    x^T A x <= radius, A positive definite; optionally restricted to
    x = parity mod 2.  Exact rational arithmetic throughout."""
    r = len(form)
    if r == 0:
        yield ()
        return
    a = [[Fraction(x) for x in row] for row in form]
    l, d = _ldl(a)
    radius = Fraction(radius)
    # Q(x) = sum_k d_k (x_k + sum_{i>k} l_ik x_i)^2, processed from k = r-1 down
    x = [0] * r

    def rec(k: int, remaining: Fraction):
        if k < 0:
            yield tuple(x)
            return
        shift = sum(l[i][k] * x[i] for i in range(k + 1, r))
        # d_k (x_k + shift)^2 <= remaining
        bound = remaining / d[k]
        root = _floor_sqrt(bound)
        lo_f = -shift - root - 1
        hi_f = -shift + root + 1
        lo = int(lo_f) - 2
        hi = int(hi_f) + 2
        for cand in range(lo, hi + 1):
            if parity is not None and (cand - parity[k]) % 2:
                continue
            val = d[k] * (cand + shift) ** 2
            if val <= remaining:
                x[k] = cand
                yield from rec(k - 1, remaining - val)
        x[k] = 0

    yield from rec(r - 1, radius)


# ---------------------------------------------------------------------------
# Determinants: Laplace expansion, and elimination over Q for larger matrices
# ---------------------------------------------------------------------------

def det_laplace(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_laplace(minor)
    return total


def det_fraction(m) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over
    Q, swapping in the first row below with a nonzero entry at a zero
    pivot."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


# ---------------------------------------------------------------------------
# Definite lattices by the pairwise dedupe: every scanned form is tested for
# isometry against every class found so far, each class's short vectors
# enumerated once (again only for a larger norm) and grouped by norm
# ---------------------------------------------------------------------------

_PAIRWISE_PRODUCT_BOUND = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2),
                           4: Fraction(4)}


def pairwise_definite_lattices(rank: int, disc: int) -> list:
    """The same reduced-form scan as the package, deduplicated pairwise;
    classes are the first scanned member, sorted by Gram matrix."""
    if rank == 0:
        return [GramLattice.rank_zero()] if disc == 1 else []
    bound = _PAIRWISE_PRODUCT_BOUND[rank] * disc
    found: list[_NormShells] = []

    def diag_scan(i, diag, prod):
        if i == rank:
            yield list(diag)
            return
        a = diag[-1] if diag else 1
        while prod * a ** (rank - i) <= bound:
            yield from diag_scan(i + 1, diag + [a], prod * a)
            a += 1

    positions = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    for diag in diag_scan(0, [], 1):
        mat = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]

        def fill(k):
            if k == len(positions):
                if det_laplace(mat) == disc and all(
                        det_laplace([row[:t] for row in mat[:t]]) > 0
                        for t in range(1, rank + 1)):
                    # |det| once per scanned form, not once per class
                    cand = _NormShells(GramLattice.from_rows(
                        [[-x for x in row] for row in mat]))
                    if not any(pairwise_isometric(cand, f) for f in found):
                        found.append(cand)
                return
            i, j = positions[k]
            half = min(diag[i], diag[j]) // 2
            for v in range(-half, half + 1):
                mat[i][j] = mat[j][i] = v
                fill(k + 1)
            mat[i][j] = mat[j][i] = 0

        fill(0)
    return sorted((f.lattice for f in found), key=lambda lat: lat.gram)


class _NormShells:
    """A lattice's nonzero vectors v up to some norm of the positive form
    B = -G, grouped by norm, each paired with its image B v; enumerated
    again only when a caller asks for a larger norm."""

    def __init__(self, lattice):
        self.lattice = lattice
        self.form = [[-x for x in row] for row in lattice.gram]
        self.det = abs(det_laplace(lattice.gram))
        self.radius = -1
        self.by_norm: dict[int, list] = {}

    def up_to(self, radius: int) -> dict[int, list]:
        if radius > self.radius:
            self.radius, self.by_norm = radius, {}
            for v in fraction_enumerate_in_ellipsoid(self.form, Fraction(radius)):
                if any(v):
                    image = tuple(_dot(row, v) for row in self.form)
                    self.by_norm.setdefault(_dot(v, image), []).append((v, image))
        return self.by_norm


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def pairwise_isometric(a: _NormShells, b: _NormShells) -> bool:
    """Match a's basis to b's vectors of equal norms and products, drawing
    candidates from b's vectors of each basis vector's norm."""
    r = a.lattice.rank
    if r != b.lattice.rank or a.det != b.det:
        return False
    if r == 0:
        return True
    pos_a = a.form
    by_norm = b.up_to(max(pos_a[i][i] for i in range(r)))
    chosen: list = []  # (v, B v) for the basis vectors matched so far

    def extend(k):
        if k == r:
            return abs(det_laplace([v for v, _image in chosen])) == 1
        for v, image in by_norm.get(pos_a[k][k], ()):
            if all(_dot(v, chosen[i][1]) == pos_a[k][i] for i in range(k)):
                chosen.append((v, image))
                if extend(k + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Definite lattices by the scan before sign normalisation: every sign of
# every off-diagonal entry, deduplicated with the package's isometry key and
# test
# ---------------------------------------------------------------------------

def unpruned_definite_lattices(rank: int, disc: int) -> list:
    """The package's reduced-form scan without its sign rule, so every sign
    copy of a filling reaches the dedupe; classes are the first scanned
    member, sorted by Gram matrix."""
    if rank == 0:
        return [GramLattice.rank_zero()] if disc == 1 else []
    # c_1 = 1: the package reads rank 1 off directly and keeps no bound for it
    bound = lattice_module._REDUCTION_PRODUCT_BOUND.get(rank, 1) * disc
    buckets: dict = {}

    def diag_scan(i, diag, prod):
        if i == rank:
            yield list(diag)
            return
        lo = diag[-1] if diag else 1
        a = lo
        while prod * a ** (rank - i) <= bound:
            diag.append(a)
            yield from diag_scan(i + 1, diag, prod * a)
            diag.pop()
            a += 1

    positions = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    for diag in diag_scan(0, [], 1):
        mat = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]

        def fill(k):
            if k == len(positions):
                rows = _symmetric_bareiss(mat)
                if rows[-1][-1] != disc or any(rows[k][k] <= 0 for k in range(rank)):
                    return
                neg = GramLattice(tuple(tuple(-x for x in row) for row in mat))
                bucket = buckets.setdefault(lattice_module._isometry_key(neg), [])
                if not any(lattice_module.lattices_isometric(neg, other)
                           for other in bucket):
                    bucket.append(neg)
                return
            i, j = positions[k]
            half = min(diag[i], diag[j]) // 2
            for v in range(-half, half + 1):
                mat[i][j] = mat[j][i] = v
                fill(k + 1)
            mat[i][j] = mat[j][i] = 0

        fill(0)
    return sorted((lat for bucket in buckets.values() for lat in bucket),
                  key=lambda lat: lat.gram)


# ---------------------------------------------------------------------------
# Kauffman bracket by the full state sum (the package's Laurent arithmetic
# and PD arc pairing, but none of its sweep)
# ---------------------------------------------------------------------------

def kauffman_bracket_naive(diagram: LinkDiagram) -> Laurent:
    """2^c state-sum bracket; the independent oracle for small diagrams."""
    n = len(diagram.crossings)
    if n == 0:
        return LOOP ** (diagram.free_loops - 1) if diagram.free_loops else Laurent.one()
    total = Laurent.zero()
    for mask in range(1 << n):
        parent: dict[End, End] = {}

        def find(x: End) -> End:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        def union(x: End, y: End) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        a_count = 0
        for ci in range(n):
            if mask & (1 << ci):
                a_count += 1
                pairs = A_SMOOTHING
            else:
                pairs = B_SMOOTHING
            for s1, s2 in pairs:
                union((ci, s1), (ci, s2))
        for e1, e2 in diagram._occurrences.values():
            union(e1, e2)
        loops = len({find((ci, k)) for ci in range(n) for k in range(4)})
        total = total + (Laurent.term(2 * a_count - n)
                         * LOOP ** (loops + diagram.free_loops - 1))
    return total


# ---------------------------------------------------------------------------
# PD orientation, components and shadow components by separate walks (a
# push/drain orienter and a shadow DFS), the references for the diagram's
# strand and face walks
# ---------------------------------------------------------------------------

def _pd_other_end(crossings) -> dict[End, End]:
    """Each end (crossing, slot) -> the other end of its arc."""
    ends: dict[int, list[End]] = {}
    for ci, c in enumerate(crossings):
        for k, arc in enumerate(c):
            ends.setdefault(arc, []).append((ci, k))
    return {x: y for a, b in ends.values() for x, y in ((a, b), (b, a))}


def push_drain_orientation(crossings) -> dict[int, tuple[End, End]]:
    """Arc -> (tail end, head end).  Each crossing's slot-0 arc is pushed as
    incoming, then each arc not yet directed, in sorted order, from its
    first end; draining the stack propagates every direction forward and
    backward along strands (entering slot k exits slot k+2), and a second,
    different direction for an arc raises the diagram's DiagramError."""
    other_end = _pd_other_end(crossings)
    direction: dict[int, tuple[End, End]] = {}
    pending: list[tuple[int, End, End]] = []

    def drain() -> None:
        while pending:
            arc, tail, head = pending.pop()
            if arc in direction:
                if direction[arc] != (tail, head):
                    raise DiagramError(f"inconsistent orientation at arc {arc}")
                continue
            direction[arc] = (tail, head)
            ci, k = head  # continue forward through the head crossing
            out = (ci, (k + 2) % 4)
            pending.append((crossings[ci][out[1]], out, other_end[out]))
            ci, k = tail  # and backward through the tail crossing
            inc = (ci, (k + 2) % 4)
            pending.append((crossings[ci][inc[1]], other_end[inc], inc))

    for ci in range(len(crossings)):
        pending.append((crossings[ci][0], other_end[(ci, 0)], (ci, 0)))
        drain()
    for arc in sorted({x for c in crossings for x in c}):
        if arc not in direction:
            first = min(end for end in other_end if crossings[end[0]][end[1]] == arc)
            pending.append((arc, first, other_end[first]))
            drain()
    return direction


def directed_components(crossings, direction) -> list[list[int]]:
    """Arc cycles of the components, each from its least arc."""
    comps = []
    seen: set[int] = set()
    for arc in sorted(direction):
        cyc = []
        while arc not in seen:
            seen.add(arc)
            cyc.append(arc)
            ci, k = direction[arc][1]
            arc = crossings[ci][(k + 2) % 4]
        if cyc:
            comps.append(cyc)
    return comps


def shadow_components(crossings) -> int:
    """Connected components of the shadow (crossings joined by arcs)."""
    other_end = _pd_other_end(crossings)
    seen: set[int] = set()
    count = 0
    for start in range(len(crossings)):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            ci = stack.pop()
            for k in range(4):
                cj, _ = other_end[(ci, k)]
                if cj not in seen:
                    seen.add(cj)
                    stack.append(cj)
    return count


# ---------------------------------------------------------------------------
# Jones polynomial
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# The twist-family white graph with one unit edge per crossing
# ---------------------------------------------------------------------------

def unit_kanenobu_white_graph(p: int, q: int) -> WhiteGraph:
    """K_{p,q}'s white graph with |p| and |q| parallel unit edges, built edge
    by edge; the bundled graph's `expanded()` must equal it exactly."""
    edges: list = []

    def add(a, b, s) -> int:
        edges.append((a, b, s))
        return len(edges) - 1

    sp = 1 if p > 0 else -1
    sq = 1 if q > 0 else -1
    p_bundle = [add(1, 2, sp) for _ in range(abs(p))]
    e_f = add(1, 4, 1)
    e_g = add(2, 3, -1)
    q_bundle = [add(3, 4, sq) for _ in range(abs(q))]
    c1 = add(1, BOUNDARY, 1)
    c2 = add(2, BOUNDARY, -1)
    c3a = add(3, BOUNDARY, -1)
    c3b = add(3, BOUNDARY, -1)
    c4a = add(4, BOUNDARY, 1)
    c4b = add(4, BOUNDARY, 1)

    def end_at(edge_id: int, vertex) -> int:
        a, b, _ = edges[edge_id]
        if a == vertex:
            return 2 * edge_id
        if b == vertex:
            return 2 * edge_id + 1
        raise AssertionError

    cyc1 = [end_at(e, 1) for e in p_bundle] + [end_at(e_f, 1), end_at(c1, 1)]
    cyc2 = [end_at(e_g, 2)] + [end_at(e, 2) for e in reversed(p_bundle)] + [end_at(c2, 2)]
    cyc3 = ([end_at(e, 3) for e in q_bundle]
            + [end_at(e_g, 3), end_at(c3a, 3), end_at(c3b, 3)])
    cyc4 = ([end_at(e_f, 4)] + [end_at(e, 4) for e in reversed(q_bundle)]
            + [end_at(c4a, 4), end_at(c4b, 4)])
    cyc_b = [end_at(c1, BOUNDARY), end_at(c4b, BOUNDARY), end_at(c4a, BOUNDARY),
             end_at(c3b, BOUNDARY), end_at(c3a, BOUNDARY), end_at(c2, BOUNDARY)]
    return WhiteGraph(vertices=4, edges=tuple(edges),
                      cyclic=(tuple(cyc1), tuple(cyc2), tuple(cyc3),
                              tuple(cyc4), tuple(cyc_b)))


def unit_white_graph_relators(graph: WhiteGraph) -> tuple:
    """The white-graph recipe letter by letter on a graph of unit edges:
    around vertex v, (a_j^-1 a_v)^sign or a_v^sign per edge-end."""
    relators = []
    for v in range(1, graph.vertices + 1):
        letters: list = []
        for end_id in graph.cyclic[v - 1]:
            a, b, sign = graph.edges[end_id // 2]
            assert sign in (1, -1)
            other = b if end_id % 2 == 0 else a
            u = [(v, 1)] if other == BOUNDARY else [(other, -1), (v, 1)]
            letters.extend(u if sign == 1 else [(g, -s) for g, s in reversed(u)])
        relators.append(tuple(letters))
    return tuple(relators)


def letter_scan_derivative(word, i: int, assignment, modulus: int) -> list[Fraction]:
    """Coefficients of ab(d word / d a_i) in Q[Z/N], one letter at a time."""
    out = [Fraction(0)] * modulus
    prefix = 0
    for g, s in word:
        if g == i:
            if s == 1:
                out[prefix % modulus] += 1
            else:
                out[(prefix - assignment[g - 1]) % modulus] -= 1
        prefix += s * assignment[g - 1]
    return out


# ---------------------------------------------------------------------------
# Non-abelian Fox calculus: the free group ring, Fox derivatives, and
# Alexander polynomials of deficiency-one presentations
# ---------------------------------------------------------------------------

def wpow(w: FreeWord, k: int) -> FreeWord:
    if k >= 0:
        return w * k
    return winv(w) * (-k)


def wreduce(w: FreeWord) -> FreeWord:
    out: list[Letter] = []
    for g, s in w:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def relator_word(r: Relator) -> FreeWord:
    """The relator written out letter by letter."""
    return wmul(*(wpow(u, k) for u, k in r))


def word_to_string(w: FreeWord) -> str:
    if not w:
        return "1"
    return " ".join(f"a{g}" if s == 1 else f"a{g}^-1" for g, s in w)


class FreeGroupRingElem:
    """Element of the integral group ring of a free group.

    Keys are freely reduced words; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FreeWord, int] | Iterable[tuple[FreeWord, int]] = ()):
        d: dict[FreeWord, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            if c:
                w = wreduce(w)
                d[w] = d.get(w, 0) + c
                if d[w] == 0:
                    del d[w]
        self.terms = d

    @classmethod
    def zero(cls) -> "FreeGroupRingElem":
        return cls()

    @classmethod
    def one(cls) -> "FreeGroupRingElem":
        return cls({(): 1})

    @classmethod
    def of_word(cls, w: FreeWord, c: int = 1) -> "FreeGroupRingElem":
        return cls({w: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeGroupRingElem) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "FreeGroupRingElem") -> "FreeGroupRingElem":
        d = dict(self.terms)
        for w, c in other.terms.items():
            d[w] = d.get(w, 0) + c
            if d[w] == 0:
                del d[w]
        out = FreeGroupRingElem.__new__(FreeGroupRingElem)
        out.terms = d
        return out

    def __sub__(self, other: "FreeGroupRingElem") -> "FreeGroupRingElem":
        return self + (-other)

    def __neg__(self) -> "FreeGroupRingElem":
        out = FreeGroupRingElem.__new__(FreeGroupRingElem)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __mul__(self, other: "FreeGroupRingElem") -> "FreeGroupRingElem":
        d: dict[FreeWord, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = wreduce(w1 + w2)
                d[w] = d.get(w, 0) + c1 * c2
                if d[w] == 0:
                    del d[w]
        out = FreeGroupRingElem.__new__(FreeGroupRingElem)
        out.terms = d
        return out

    def left_mul_word(self, w: FreeWord) -> "FreeGroupRingElem":
        return FreeGroupRingElem({wreduce(w + k): c for k, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "FreeGroupRingElem(0)"
        bits = [f"{c}*[{word_to_string(w)}]" for w, c in sorted(self.terms.items())]
        return "FreeGroupRingElem(" + " + ".join(bits) + ")"


def fox_derivative(w: FreeWord, i: int) -> FreeGroupRingElem:
    """Fox free derivative of the word w with respect to generator a_i.

    Characterised by d(a_j) = delta_ij, d(a_j^-1) = -delta_ij a_j^-1 and
    the product rule d(uv) = d(u) + u d(v); computed by a single left-to-
    right scan keeping the running prefix.
    """
    terms: dict[FreeWord, int] = {}
    prefix: list[Letter] = []
    for g, s in w:
        if g == i:
            if s == 1:
                key = wreduce(tuple(prefix))
                terms[key] = terms.get(key, 0) + 1
            else:
                key = wreduce(tuple(prefix) + ((g, -1),))
                terms[key] = terms.get(key, 0) - 1
            if terms.get(key) == 0:
                del terms[key]
        prefix.append((g, s))
    return FreeGroupRingElem(terms)


def abelianize(x: FreeGroupRingElem, assignment: Sequence[int],
               modulus: int) -> GroupRingElem:
    """Map Z[F] -> Z[Z/N]: each word goes to t^(sum of assigned exponents).

    assignment[i-1] is the image exponent of generator a_i.
    """
    out = [Fraction(0)] * modulus
    for w, c in x.terms.items():
        e = 0
        for g, s in w:
            if g > len(assignment):
                raise ValueError(f"generator a{g} has no abelianization assignment")
            e += s * assignment[g - 1]
        out[e % modulus] += c
    return GroupRingElem(modulus, out)


def abelianize_laurent(x: FreeGroupRingElem, assignment: Sequence[int]) -> Laurent:
    """Map Z[F] -> Z[t, t^-1] for an infinite-cyclic assignment."""
    terms: dict[int, int] = {}
    for w, c in x.terms.items():
        e = 0
        for g, s in w:
            if g > len(assignment):
                raise ValueError(f"generator a{g} has no abelianization assignment")
            e += s * assignment[g - 1]
        terms[e] = terms.get(e, 0) + c
    return Laurent(terms)


def fox_matrix(p: Presentation) -> list[list[FreeGroupRingElem]]:
    """Matrix with entry (i, j) the Fox derivative of relator j by a_i."""
    return [[fox_derivative(relator_word(r), i + 1) for r in p.relators]
            for i in range(p.gens)]


def _laurent_divide_exact(num: Laurent, den: Laurent) -> Laurent:
    """num / den in Z[t, t^-1] by dense long division of the shifted
    polynomials; raises ArithmeticError unless the quotient is exact and
    integral."""
    if num.is_zero():
        return num
    low_n, low_d = min(num.terms), min(den.terms)
    q, r = _pdivmod([num.terms.get(e, 0) for e in range(low_n, max(num.terms) + 1)],
                    [den.terms.get(e, 0) for e in range(low_d, max(den.terms) + 1)])
    if r or any(c.denominator != 1 for c in q):
        raise ArithmeticError("non-exact Laurent division")
    return Laurent({e + low_n - low_d: int(c) for e, c in enumerate(q)})


def laurent_det(a: list[list[Laurent]]) -> Laurent:
    """Determinant of a square Laurent matrix by fraction-free Bareiss
    elimination over Z[t, t^-1] (all interior divisions are exact)."""
    a = [list(row) for row in a]
    n = len(a)
    if n == 0:
        return Laurent.one()
    sign = 1
    prev = Laurent.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if piv is None:
                return Laurent.zero()
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = _laurent_divide_exact(num, prev)
            a[i][k] = Laurent.zero()
        prev = a[k][k]
    out = a[n - 1][n - 1]
    return out.scale(sign)


def alexander_polynomial(p: Presentation) -> Laurent:
    """Fox-calculus Alexander polynomial of a deficiency-one presentation
    whose assignment maps every generator into Z.

    The result is normalised to be symmetric (unchanged under t -> 1/t)
    with value 1 at t = 1.
    """
    if p.assignment is None or p.modulus is not None:
        raise ValueError("Alexander polynomial needs an infinite-cyclic assignment")
    if p.gens - len(p.relators) != 1:
        raise ValueError(
            f"presentation deficiency is {p.gens - len(p.relators)}, expected 1")
    if p.gens == 1:
        return Laurent.one()
    fox = [[abelianize_laurent(fox_derivative(relator_word(r), i + 1), p.assignment)
            for r in p.relators] for i in range(p.gens)]
    # deficiency one: the matrix is g x (g-1); deleting any generator row
    # gives the same polynomial up to a unit.  Compute two of them and make
    # sure they normalise identically.
    minor_last = laurent_det(fox[:-1])
    minor_first = laurent_det(fox[1:])
    delta = _normalize_alexander(minor_last)
    check = _normalize_alexander(minor_first)
    if delta != check:
        raise ArithmeticError("row-deleted Alexander minors disagree after normalisation")
    return delta


def _normalize_alexander(delta: Laurent) -> Laurent:
    if delta.is_zero():
        raise ArithmeticError("vanishing Alexander minor (is the diagram split?)")
    g = gcd(*delta.terms.values())
    if g > 1:
        delta = Laurent({e: c // g for e, c in delta.terms.items()})
    lo, hi = min(delta.terms), max(delta.terms)
    if (lo + hi) % 2 != 0:
        raise ArithmeticError("Alexander polynomial has odd span; not a knot group input")
    delta = delta.shift(-(lo + hi) // 2)
    mirror = Laurent({-e: c for e, c in delta.terms.items()})  # t -> 1/t
    if mirror != delta:
        if mirror == -delta:
            raise ArithmeticError("skew-symmetric Alexander minor; not a knot group input")
        raise ArithmeticError("Alexander minor failed to symmetrise")
    at1 = delta.evaluate(1)
    if at1 == -1:
        delta = delta.scale(-1)
    elif at1 != 1:
        raise ArithmeticError(f"Alexander value at 1 is {at1}, expected a unit")
    return delta


def presentation_to_text(p: Presentation) -> str:
    lines = [f"gens {p.gens}"]
    lines.extend(word_to_string(relator_word(r)) for r in p.relators)
    if p.assignment is not None:
        mod = 0 if p.modulus is None else p.modulus
        lines.append("assign " + " ".join(str(a) for a in p.assignment) + f" mod {mod}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Braid closures, torus and figure-eight knots, Wirtinger presentations
# ---------------------------------------------------------------------------

def braid_closure(word: Sequence[int], strands: int) -> LinkDiagram:
    """Closure of a braid word; letter +j / -j is the positive / negative
    elementary braid on strand positions (j-1, j), 1 <= j < strands, with
    all strands oriented upward."""
    if strands < 1:
        raise DiagramError("need at least one strand")
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise DiagramError(f"braid letter {letter} out of range for {strands} strands")
    next_label = 1
    init: list[int] = []
    for _ in range(strands):
        init.append(next_label)
        next_label += 1
    current = list(init)
    crossings: list[list[int]] = []
    for letter in word:
        j = abs(letter)
        li, ri = j - 1, j
        l_in, r_in = current[li], current[ri]
        new_l, new_r = next_label, next_label + 1
        next_label += 2
        if letter > 0:
            # under: r_in (slot 0) -> new_l (slot 2); over: l_in (3) -> new_r (1)
            crossings.append([r_in, new_r, new_l, l_in])
        else:
            # under: l_in (slot 0) -> new_r (slot 2); over: r_in (1) -> new_l (3)
            crossings.append([l_in, r_in, new_r, new_l])
        current[li], current[ri] = new_l, new_r
    # close up: the final arc at position i is the initial one
    relabel = {}
    free_loops = 0
    for i in range(strands):
        a, b = init[i], current[i]
        if a == b:
            free_loops += 1
        else:
            relabel[b] = a
    crossings = [[relabel.get(a, a) for a in c] for c in crossings]
    if not crossings:
        return LinkDiagram((), free_loops=free_loops or strands)
    return LinkDiagram(crossings, free_loops=free_loops)


def torus_knot_diagram(p: int = 3, q: int = 5) -> LinkDiagram:
    """The closed positive braid (s_1 s_2 ... s_{p-1})^q on p strands."""
    word = list(range(1, p)) * q
    return braid_closure(word, p)


def pd_text(diagram: LinkDiagram) -> str:
    """The diagram as PD text: its X[...] crossings, one O[k: ...] line of
    arcs per oriented component and one O[loop] per free loop."""
    xs = ", ".join("X[%d,%d,%d,%d]" % c for c in diagram.crossings)
    lines = [xs] if xs else []
    for idx, comp in enumerate(diagram.components()):
        lines.append(f"O[{idx}: " + " ".join(str(a) for a in comp) + "]")
    lines += ["O[loop]"] * diagram.free_loops
    return "\n".join(lines) + "\n"


def figure_eight_diagram() -> LinkDiagram:
    return braid_closure([1, -2, 1, -2], 3)


def wirtinger_presentation(diagram: LinkDiagram):
    """Wirtinger presentation of the knot group from the oriented diagram.

    Generators are the over-arcs (PD arcs merged through over-passes); each
    crossing contributes the relator w_out^-1 o^e w_in o^-e with e the
    crossing sign, and one redundant relator is dropped.  The infinite
    cyclic assignment sends every generator to t.
    """
    if diagram.free_loops:
        raise DiagramError("Wirtinger presentations need a connected knot diagram")
    arcs = diagram.arcs()
    parent = {a: a for a in arcs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ci in range(diagram.n_crossings):
        over_in, over_out = diagram.crossings[ci][1], diagram.crossings[ci][3]
        ra, rb = find(over_in), find(over_out)
        if ra != rb:
            parent[ra] = rb
    classes = sorted({find(a) for a in arcs})
    index = {cls: i + 1 for i, cls in enumerate(classes)}

    def gen_of(arc):
        return index[find(arc)]

    relators = []
    for ci in range(diagram.n_crossings):
        tup = diagram.crossings[ci]
        u_in, u_out, over = gen_of(tup[0]), gen_of(tup[2]), gen_of(tup[1])
        e = diagram.crossing_sign(ci)
        relators.append(relator(((u_out, -1), (over, e), (u_in, 1), (over, -e))))
    if relators:
        relators.pop()
    return Presentation(gens=len(classes), relators=tuple(relators),
                        assignment=tuple([1] * len(classes)), modulus=None)


# ---------------------------------------------------------------------------
# Goeritz invariants from the black surface
# ---------------------------------------------------------------------------

def goeritz_invariants_black(diagram: LinkDiagram) -> tuple[int, int]:
    """(determinant, signature) computed from the black surface; must agree
    with the white computation.

    The matrix is indexed by the black regions except the first.  A
    crossing whose black quadrants lie in two different regions adds eta
    to both diagonal entries and -eta to the two entries between them,
    where eta = +1 when black occupies quadrants q0 and q2 and -1 when it
    occupies q1 and q3.  The correction sums eta over the crossings with
    sign * eta = +1."""
    if diagram.n_crossings == 0:
        return 1, 0
    colors = diagram.colors
    fq = diagram.face_of_quadrant
    index = {f: i for i, f in enumerate(
        [f for f, c in enumerate(colors) if c == 0][1:])}
    g = [[0] * len(index) for _ in index]
    correction = 0
    for ci in range(diagram.n_crossings):
        q = 0 if colors[fq[(ci, 0)]] == 0 else 1
        eta = 1 if q == 0 else -1
        if diagram.crossing_sign(ci) * eta == 1:
            correction += eta
        f1, f2 = fq[(ci, q)], fq[(ci, q + 2)]
        if f1 == f2:
            continue
        i, j = index.get(f1), index.get(f2)
        for k in (i, j):
            if k is not None:
                g[k][k] += eta
        if i is not None and j is not None:
            g[i][j] -= eta
            g[j][i] -= eta
    return abs(det_fraction(g)), symmetric_signature(g) - correction


# ---------------------------------------------------------------------------
# Homology of a cover; lens spaces and their correction terms
# ---------------------------------------------------------------------------

def homology(cover: BranchedCoverPresentation
             ) -> tuple[list[int], Optional[tuple[int, ...]]]:
    """Invariant-factor decomposition of H_1 plus generator images when
    cyclic (normalised so the last generator maps to t)."""
    factors, images, _n = homology_invariants(cover.presentation)
    return factors, images


def lens_presentation(p: int, q: int = 1) -> BranchedCoverPresentation:
    """Genus-one presentation < a | a^p > of the lens space L(p, q); the
    dual-curve classes are g = t and h = t^q."""
    if p < 1:
        raise ValueError("need p >= 1")
    pres = Presentation(gens=1, relators=(((gen(1), p),),),
                        assignment=(1,), modulus=p)
    return BranchedCoverPresentation(presentation=pres,
                                     factors=(p,) if p > 1 else (),
                                     g_classes=(1,), h_classes=(q % p,))


def torsion_lens(p: int, q: int) -> TorsionVector:
    """Torsion of the lens space L(p, q) from its genus-one presentation:
    the minor is the empty determinant 1 and the dual classes are t, t^q."""
    cover = lens_presentation(p, q)
    minor = abelianized_minor(cover, 1, 1)
    return torsion_from_minor(minor, 1, q)


def d_lens_oracle(p: int, q: int) -> list[Fraction]:
    """Correction terms of the lens space L(p, q) by the standard recursion

        d(p, q, i) = ((2i + 1 - p - q)^2 - p*q) / (4*p*q) - d(q, p mod q, i mod q)

    with d(1, 0, 0) = 0; returns the p values indexed by i = 0..p-1.
    Implemented independently of the torsion pipeline so the two can be
    played against each other.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    if p == 1:
        return [Fraction(0)]
    if not (0 < q < p):
        raise ValueError("need 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("need gcd(p, q) = 1")

    def rec(p_: int, q_: int, i: int) -> Fraction:
        if p_ == 1:
            return Fraction(0)
        base = Fraction((2 * i + 1 - p_ - q_) ** 2 - p_ * q_, 4 * p_ * q_)
        return base - rec(q_, p_ % q_, i % q_)

    return [rec(p, q, i) for i in range(p)]


def lens_casson_walker(p: int, q: int) -> Fraction:
    """Casson-Walker invariant of L(p, q), from the zero-sum normalisation
    of the torsion: summing d = 2 tau - lambda over all Spin^c structures
    kills the torsion term, so lambda = -(sum of d) / p."""
    vals = d_lens_oracle(p, q)
    return -sum(vals, Fraction(0)) / p


def multiset_matches_up_to_unit(tau: TorsionVector, casson_walker: Fraction,
                                target: Sequence[Fraction]) -> Optional[int]:
    """Does {2 s tau(t^k) - lambda} equal the target multiset for some
    global unit sign s?  Returns the sign that works, else None.  (The t^k
    part of the unit action only permutes the multiset.)"""
    want = sorted(Fraction(x) for x in target)
    for sign in (1, -1):
        got = sorted(2 * sign * v - casson_walker for v in tau.values)
        if got == want:
            return sign
    return None


# ---------------------------------------------------------------------------
# Level components of Q[Z/p^m]
# ---------------------------------------------------------------------------

def prime_power_decompose(n: int) -> tuple[int, int]:
    """Return (p, m) with n = p^m, or raise ValueError."""
    if n < 2:
        raise ValueError("need n >= 2 for a prime-power decomposition")
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return n, 1
    m = 0
    rest = n
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, m


def phi_component(x: GroupRingElem, j: int) -> CyclotomicNumber:
    """Level-j component for a prime-power modulus N = p^m: substitute
    t -> zeta_{p^j} and reduce mod Phi_{p^j}.  Level 0 is the rational
    obtained by evaluating at t = 1."""
    p, m = prime_power_decompose(x.modulus) if x.modulus > 1 else (1, 0)
    if x.modulus == 1:
        if j != 0:
            raise ValueError("modulus 1 only has level 0")
        return phi_at_divisor(x, 1)
    if not (0 <= j <= m):
        raise ValueError(f"level {j} exceeds the maximal level {m} for N = {p}^{m}")
    return phi_at_divisor(x, p ** j)


def cyclotomic_from_rational(m: int, x) -> CyclotomicNumber:
    """The rational x as an element of Q(zeta_m)."""
    return CyclotomicNumber(m, [x] + [0] * (euler_phi(m) - 1))


def phi_decompose(x: GroupRingElem) -> dict[int, CyclotomicNumber]:
    """All divisor components of x."""
    return {d: phi_at_divisor(x, d) for d in divisor_levels(x.modulus)}


def phi_reconstruct(c0, c1: CyclotomicNumber, c2: CyclotomicNumber,
                    n: int = 25) -> GroupRingElem:
    """Prime-power convenience wrapper for N = p^2 (the default 25): build the
    unique x with level components (c0, c1, c2)."""
    p, m = prime_power_decompose(n)
    if m != 2:
        raise ValueError("three-component reconstruction needs N = p^2")
    comps = {
        1: c0 if isinstance(c0, CyclotomicNumber) else cyclotomic_from_rational(1, c0),
        p: c1,
        p * p: c2,
    }
    return phi_reconstruct_divisors(comps, n)


# ---------------------------------------------------------------------------
# Integer matrix products
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                row = out[i]
                for j in range(cols):
                    row[j] += v * bk[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


# ---------------------------------------------------------------------------
# Torsion growth over the base family
# ---------------------------------------------------------------------------

def torsion_kanenobu(n: int) -> TorsionVector:
    """Torsion of the branched double cover of K_{-10n,10n+3} via the (4,4)
    minor, with g = h = t."""
    return family_member(0, n, family_casson_walker(0)).tau


def unit_action(tau: TorsionVector, sign: int, shift: int) -> TorsionVector:
    """The global unit action tau -> sign * t^shift * tau: coefficient k of
    the result is sign * tau(t^(k - shift))."""
    if sign not in (1, -1):
        raise ValueError("unit sign must be +-1")
    n = tau.modulus
    return TorsionVector(n, tuple(sign * tau.values[(k - shift) % n]
                                  for k in range(n)))


@dataclass(frozen=True)
class TorsionGrowthReport:
    n_max: int
    min_values: tuple[Fraction, ...]     # min coefficient of tau_n, n = 0..n_max
    delta: TorsionVector                 # tau_{n+1} - tau_n (constant in n)
    affine: bool                         # tau_n == tau_0 + n*delta exactly
    delta_min: Fraction
    decreasing_from: Optional[int]       # min is strictly decreasing for n >= this

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "min_tau": [str(v) for v in self.min_values],
            "delta": {str(k): str(v) for k, v in enumerate(self.delta.values)},
            "affine": self.affine,
            "delta_min": str(self.delta_min),
            "strictly_decreasing_from": self.decreasing_from,
        }


def torsion_growth(n_max: int) -> TorsionGrowthReport:
    """Check tau_n = tau_0 + n * delta exactly over the base family
    n = 0..n_max and report the minimum coefficients; delta has zero sum and
    a negative minimum, so the minimum of tau_n eventually decreases without
    bound."""
    if n_max < 2:
        raise ValueError("need n_max >= 2 to see the growth")
    report = run_family(0, range(n_max + 1))
    mins = tuple(r.min_tau for r in report.records)
    decreasing_from = None
    for start in range(n_max):
        if all(mins[m + 1] < mins[m] for m in range(start, n_max)):
            decreasing_from = start
            break
    return TorsionGrowthReport(
        n_max=n_max, min_values=mins, delta=report.delta,
        affine=report.affine, delta_min=report.delta_min,
        decreasing_from=decreasing_from)
