"""Independent oracle implementations used by the test suite.

Everything here is deliberately written from scratch (own polynomial
helpers, own Gaussian elimination) so that agreement with the package is a
genuine two-route check rather than the same code called twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from qatorsion.covers import BOUNDARY, WhiteGraph
from qatorsion.diagrams import End, LinkDiagram
from qatorsion.intmat import invert_rational, smith_normal_form
from qatorsion.lattice import GramLattice, enumerate_in_ellipsoid
from qatorsion.laurent import Laurent
from qatorsion.skein import A_SMOOTHING, B_SMOOTHING, LOOP


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
    """Solve a consistent (possibly overdetermined) full-column-rank system."""
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if r < n:
        raise ValueError("system is rank-deficient")
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValueError("inconsistent system")
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][n]
    return sol


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
    u_inv = invert_rational(u)
    parity = [lattice.gram[i][i] % 2 for i in range(r)]
    label = _coset_labeller(lattice)
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    # enumerate Z^r / 2G Z^r as the box over the Smith factors
    def walk(i: int, digits: list[int]):
        if i == r:
            vec = []
            for row in u_inv:
                val = sum(row[j] * digits[j] for j in range(r))
                if val.denominator != 1:
                    raise AssertionError("U inverse must be integral")
                vec.append(int(val))
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
# Brute-force characteristic-coset maxima (box scan)
# ---------------------------------------------------------------------------

def brute_coset_maxima(lattice) -> dict[tuple, Fraction]:
    """Independent re-derivation of the per-coset maxima of chi^2: greedy
    seeds, a provable coordinate box, and a full parity-constrained scan,
    keyed by the coset_id of char_cosets."""
    from itertools import product

    r = lattice.rank
    if r == 0:
        return {(): Fraction(0)}
    inv = invert_rational([list(row) for row in lattice.gram])

    def chi_sq(chi):
        return sum(chi[i] * inv[i][j] * chi[j] for i in range(r) for j in range(r))

    def greedy(chi):
        cur, best = list(chi), chi_sq(chi)
        moved = True
        while moved:
            moved = False
            for j in range(r):
                for s in (2, -2):
                    cand = [cur[i] + s * lattice.gram[i][j] for i in range(r)]
                    v = chi_sq(cand)
                    if v > best:
                        cur, best = cand, v
                        moved = True
        return cur, best

    label = _coset_labeller(lattice)
    best: dict[tuple, Fraction] = {}
    seeds = []
    for coset in char_cosets(lattice):
        chi, val = greedy(coset.representative)
        seeds.append(val)
        best[coset.coset_id] = val
    radius = max(-v for v in seeds)
    bounds = []
    for i in range(r):
        b2 = radius * (-lattice.gram[i][i])
        bounds.append(isqrt(b2.numerator * b2.denominator) // b2.denominator + 1)
    parity = [lattice.gram[i][i] % 2 for i in range(r)]
    ranges = []
    for i in range(r):
        lo = -bounds[i]
        if (lo - parity[i]) % 2:
            lo += 1
        ranges.append(range(lo, bounds[i] + 1, 2))
    for chi in product(*ranges):
        v = chi_sq(list(chi))
        if -v <= radius:
            key = label(list(chi))
            if v > best[key]:
                best[key] = v
    return best


def brute_m_invariant(lattice) -> Fraction:
    maxima = brute_coset_maxima(lattice)
    return min((v + lattice.rank) / 4 for v in maxima.values())


# ---------------------------------------------------------------------------
# Recursive determinant (Laplace expansion)
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


# ---------------------------------------------------------------------------
# Definite lattices by the pairwise dedupe: every scanned form is tested for
# isometry against every class found so far, and each test enumerates the
# other lattice's short vectors afresh
# ---------------------------------------------------------------------------

_PAIRWISE_PRODUCT_BOUND = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2),
                           4: Fraction(4)}


def pairwise_definite_lattices(rank: int, disc: int) -> list:
    """The same reduced-form scan as the package, deduplicated pairwise;
    classes are the first scanned member, sorted by Gram matrix."""
    if rank == 0:
        return [GramLattice.rank_zero()] if disc == 1 else []
    bound = _PAIRWISE_PRODUCT_BOUND[rank] * disc
    found: list = []

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
                    neg = GramLattice.from_rows([[-x for x in row] for row in mat])
                    if not any(pairwise_isometric(neg, f) for f in found):
                        found.append(neg)
                return
            i, j = positions[k]
            half = min(diag[i], diag[j]) // 2
            for v in range(-half, half + 1):
                mat[i][j] = mat[j][i] = v
                fill(k + 1)
            mat[i][j] = mat[j][i] = 0

        fill(0)
    return sorted(found, key=lambda lat: lat.gram)


def pairwise_isometric(a, b) -> bool:
    """Match a's basis to b's vectors of equal norms and products, drawing
    candidates from every nonzero vector of b up to a's largest norm."""
    r = a.rank
    if r != b.rank or abs(det_laplace(a.gram)) != abs(det_laplace(b.gram)):
        return False
    if r == 0:
        return True
    pos_a = [[-x for x in row] for row in a.gram]
    pos_b = [[-x for x in row] for row in b.gram]
    radius = max(pos_a[i][i] for i in range(r))
    candidates = [v for v in enumerate_in_ellipsoid(pos_b, Fraction(radius))
                  if any(v)]

    def q_b(u, v):
        return sum(u[i] * pos_b[i][j] * v[j] for i in range(r) for j in range(r))

    chosen: list = []

    def extend(k):
        if k == r:
            return abs(det_laplace(chosen)) == 1
        for v in candidates:
            if q_b(v, v) == pos_a[k][k] and all(
                    q_b(v, chosen[i]) == pos_a[k][i] for i in range(k)):
                chosen.append(v)
                if extend(k + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


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
        total = total + Laurent.term(2 * a_count - n) * (LOOP ** loops)
    total = total * (LOOP ** diagram.free_loops)
    return total.divide_exact(LOOP)


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
