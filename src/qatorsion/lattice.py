"""Negative-definite integral lattices: the maximum of chi^2 over each
characteristic covector coset, the invariant

    m(L) = min over cosets of max { (chi^2 + rank) / 4 },

complete enumeration of definite lattices of small rank and given
discriminant, the lower-bound constant C(D), and the
not-quasi-alternating verdict record.

Everything is exact and runs on one integer matrix, the adjugate
adj = det(G) G^{-1}.  A characteristic covector chi (chi_i = G_ii mod 2, in
dual-basis coordinates) has D (-chi^2) = +-chi^T adj chi, an integer, and
two of them lie in the same coset mod 2G Z^r exactly when adj chi agrees
mod 2D, D = |det G|.  The search finds the least D (-chi^2) of every coset
by enumerating every characteristic chi with D (-chi^2) <= R for
R = 0, 1, 4, 16, ... until all D labels are seen: from then on every coset
has a vector within R, so its least value is among those enumerated.  R
never needs to pass D sum |G_ij|, a provable radius: x = G^{-1} chi moves
by 2Z^r into the cube [-1, 1)^r, where -chi^2 = -x^T G x <= sum |G_ij|.
The search makes no Fraction; only m itself is one,
(rank D - the largest least value) / (4D).

m adds over orthogonal sums.  The characteristic cosets of L1 + L2 are
the pairs of cosets of L1 and L2, and chi^2 and the rank add, so each
coset maximum of (chi^2 + rank) / 4 is the sum of the two maxima, and the
minimum over pairs is the sum of the two minima.  m_invariant therefore
splits G into the connected components of its off-diagonal support and
adds their m, computing each distinct block Gram matrix once; a <-1>
block adds 0 without a search.  The cube radius also gives every lattice
the floor m >= (rank - sum |G_ij|) / 4 (_m_floor), so c_bound visits its
catalog in increasing floor order and computes m only while the floor is
below the least m found so far; the members it does compute share one
table, each distinct block computed once per call.  No table outlives the
call that made it.  Of the D = 25 catalog only <-25> is searched.

The ellipsoid search is the Fincke-Pohst enumeration, on integers.  Every
form it is given is integral (-G, or +-adj) with an integer radius.  One
fraction-free elimination, intmat._symmetric_bareiss, factors it: its
pivots are the leading minors Delta_k, and with its rows u_k and Delta_0 = 1,
N Q(x) = sum_k c_k (Delta_k x_k + S_k)^2 with S_k = sum_{i>k} u_ki x_i,
N the lcm of the products Delta_{k-1} Delta_k and c_k = N / (Delta_{k-1}
Delta_k).  So each level's term is an integer, compared with an integer
remaining radius, and its candidates are exactly the x_k with
|Delta_k x_k + S_k| <= isqrt(remaining // c_k).  The same elimination
checks definiteness in GramLattice and in the catalog scan, and its last
pivot is the discriminant.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import cached_property
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .intmat import _symmetric_bareiss, det_bareiss
from .records import Record


class LatticeError(ValueError):
    pass


class GramLattice(Record):
    """A negative-definite symmetric integer bilinear form.

    `disc`, the discriminant det(-G), is derived from the Gram matrix when
    the lattice is built; it is not a field, so equality, the hash and the
    repr see the Gram matrix alone."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.gram
        r = len(g)
        for row in g:
            if len(row) != r:
                raise LatticeError("Gram matrix must be square")
        for i in range(r):
            for j in range(r):
                if g[i][j] != g[j][i]:
                    raise LatticeError("Gram matrix must be symmetric")
        rows = _symmetric_bareiss([[-x for x in row] for row in g])
        if any(rows[k][k] <= 0 for k in range(r)):
            raise LatticeError("Gram matrix is not negative definite")
        object.__setattr__(self, "disc", rows[-1][-1] if r else 1)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GramLattice":
        if not (isinstance(rows, (list, tuple)) and all(
                isinstance(row, (list, tuple)) and all(type(x) is int for x in row)
                for row in rows)):
            raise LatticeError("a Gram matrix must be a list of rows of integers")
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def rank_zero(cls) -> "GramLattice":
        return cls(())

    @property
    def rank(self) -> int:
        return len(self.gram)

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "gram": [list(r) for r in self.gram]}

    @classmethod
    def from_json_dict(cls, d) -> "GramLattice":
        """A Gram object {"rank": r, "gram": rows}, rank optional, or a bare
        list of rows."""
        if not isinstance(d, dict):
            return cls.from_rows(d)
        if "gram" not in d:
            raise LatticeError("a Gram object needs a 'gram' field")
        lat = cls.from_rows(d["gram"])
        if "rank" in d and not (type(d["rank"]) is int and d["rank"] == lat.rank):
            raise LatticeError("rank field disagrees with the Gram matrix")
        return lat

    @cached_property
    def _short_vectors(self) -> "_ShortVectors":
        return _ShortVectors(self)


class _ShortVectors:
    """The nonzero vectors of a lattice up to some norm (for the positive
    form -G), grouped by norm, each paired with its image (-G) v.  The
    search radius only grows, and only when a caller asks for more."""

    def __init__(self, lattice: GramLattice):
        self._form = [[-x for x in row] for row in lattice.gram]
        self._radius = 0
        self._by_norm: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}

    def within(self, radius: int
               ) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
        if radius > self._radius:
            by_norm: dict[int, list] = {}
            for v in enumerate_in_ellipsoid(self._form, radius):
                if any(v):
                    image = tuple([sum(map(mul, row, v)) for row in self._form])
                    by_norm.setdefault(sum(map(mul, v, image)), []).append((v, image))
            self._by_norm, self._radius = by_norm, radius
        return self._by_norm


# ---------------------------------------------------------------------------
# Exact ellipsoid enumeration (positive definite integer forms)
# ---------------------------------------------------------------------------

def enumerate_in_ellipsoid(form: Sequence[Sequence[int]], radius: int,
                           parity: Sequence[int] | None = None
                           ) -> Iterable[tuple[int, ...]]:
    """All integer vectors x (including 0 when parity allows) with
    x^T A x <= radius, A a positive definite integer form and radius an
    integer; optionally restricted to x = parity mod 2.  Vectors come
    depth-first from the last coordinate down, each level in increasing
    order.  Every step, the factorisation included, is on integers."""
    r = len(form)
    if r == 0:
        yield ()
        return
    u = _symmetric_bareiss(form)  # N Q(x) = sum_k c_k (Delta_k x_k + S_k)^2
    scale = [u[k][k] for k in range(r)]
    if min(scale) <= 0:
        raise LatticeError("form is not positive definite")
    denoms = [a * b for a, b in zip([1] + scale, scale)]  # Delta_{k-1} Delta_k
    common = lcm(*denoms)
    coef = [common // d for d in denoms]
    shift = [[(i, u[k][i]) for i in range(k + 1, r) if u[k][i]] for k in range(r)]
    step = 1 if parity is None else 2
    x = [0] * r
    rem = [0] * r      # N * radius minus the terms of the levels above k
    offset = [0] * r   # S_k
    ranges: list = [None] * r

    def candidates(k: int) -> range:
        # c_k (M_k x_k + S_k)^2 <= rem_k  <=>  |M_k x_k + S_k| <= t
        m = scale[k]
        s = offset[k] = sum(x[i] * a for i, a in shift[k])
        t = isqrt(rem[k] // coef[k])
        lo = -((t + s) // m)
        if parity is not None and (lo - parity[k]) % 2:
            lo += 1
        return range(lo, (t - s) // m + 1, step)

    k = r - 1
    rem[k] = common * radius
    ranges[k] = iter(candidates(k))
    while k < r:
        if k == 0:
            for x[0] in ranges[0]:
                yield tuple(x)
            k = 1
            continue
        for x[k] in ranges[k]:
            v = scale[k] * x[k] + offset[k]
            k -= 1
            rem[k] = rem[k + 1] - coef[k + 1] * v * v
            ranges[k] = iter(candidates(k))
            break
        else:
            k += 1


# ---------------------------------------------------------------------------
# Characteristic square maxima and m
# ---------------------------------------------------------------------------

def _adjugate(g: Sequence[Sequence[int]]) -> list[list[int]]:
    """adj(G) = det(G) G^{-1}, entry (i, j) the signed minor of G without
    row j and column i."""
    r = len(g)
    return [[(-1) ** (i + j) * det_bareiss([[g[a][b] for b in range(r) if b != i]
                                            for a in range(r) if a != j])
             for j in range(r)] for i in range(r)]


# m costs Omega(D), since every one of the D characteristic cosets gets its
# own maximum.  The cap applies to the whole discriminant, before m splits
# into orthogonal blocks.  At the cap (2-core VM, Python 3.11.7): <-10000>
# 0.03 s, [[-100, 1], [1, -100]] 0.04 s, the rank-4 tridiagonal form with
# diagonal -10 and off-diagonal 1 (D = 9701) 0.24 s; diag(-10, -10, -10, -10)
# splits into four equal blocks, searches one and takes under 1 ms.
MAX_M_DISC = 10_000

# The cost of m also grows with rank far below MAX_M_DISC, so one search
# enumerates at most MAX_M_VECTORS characteristic vectors, summed over its
# radius steps.  Counts: c_bound(25) 58 (it searches only <-25>), <-10000>
# 26,398, -A12 (disc 13) 81,672 in 2.2 s, -A15 94,684 in 2.7 s, the D = 9701
# form above 87,906; -A16 passes the cap and is refused after about 4 s.
MAX_M_VECTORS = 100_000


def _check_m_disc(disc: int) -> None:
    if disc > MAX_M_DISC:
        raise LatticeError(f"discriminant {disc} is above MAX_M_DISC = {MAX_M_DISC}, "
                           "the cap on computing m")


def _least_char_squares(lattice: GramLattice) -> dict[tuple[int, ...], int]:
    """For every characteristic coset, labelled by adj(G) chi mod 2D, the
    least D (-chi^2) over the coset, a non-negative integer.  Refuses to
    enumerate more than MAX_M_VECTORS vectors over all radius steps."""
    g, r, disc = lattice.gram, lattice.rank, lattice.disc
    adj = _adjugate(g)  # symmetric, so these rows are also its columns
    sign = (-1) ** (r + 1)  # sign * adj = D (-G^{-1}) is positive definite
    form = [[sign * x for x in row] for row in adj]
    cube = disc * sum(abs(x) for row in g for x in row)
    parity = [g[i][i] % 2 for i in range(r)]
    modulus = 2 * disc
    radius = 0
    visited = 0
    while True:
        least: dict[tuple[int, ...], int] = {}
        get = least.get
        for visited, chi in enumerate(enumerate_in_ellipsoid(form, radius, parity),
                                      visited + 1):
            if visited > MAX_M_VECTORS:
                raise LatticeError(
                    f"m of a rank {r} block of discriminant {disc} needs more than "
                    f"MAX_M_VECTORS = {MAX_M_VECTORS} characteristic vectors, "
                    "the cap on computing m")
            image = [sum(map(mul, col, chi)) for col in adj]
            q = sign * sum(map(mul, chi, image))
            label = tuple([x % modulus for x in image])
            if get(label, q + 1) > q:
                least[label] = q
        if len(least) == disc or radius >= cube:
            break
        radius = min(cube, max(1, 4 * radius))
    if len(least) != disc:
        raise AssertionError(
            f"found {len(least)} characteristic cosets, expected {disc}")
    return least


def _orthogonal_blocks(g: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], ...]]:
    """The Gram matrices of the connected components of the off-diagonal
    support of G, each on its indices in increasing order, ordered by their
    least index."""
    r = len(g)
    seen = [False] * r
    blocks = []
    for start in range(r):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in range(r):
                if g[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        block.sort()
        blocks.append(tuple(tuple(g[i][j] for j in block) for i in block))
    return blocks


def _block_m(gram: tuple[tuple[int, ...], ...]) -> Fraction:
    """m of one orthogonal block, from its least D (-chi^2) per coset:
    (rank D - the largest of them) / (4D).  <-1> has m = 0."""
    if gram == ((-1,),):
        return Fraction(0)
    block = GramLattice(gram)
    worst = max(_least_char_squares(block).values())
    return Fraction(block.rank * block.disc - worst, 4 * block.disc)


def _sum_over_blocks(lattice: GramLattice, table: dict) -> Fraction:
    """The sum of m over the orthogonal blocks of the lattice, looking each
    block Gram matrix up in `table` and filling it with `_block_m` first."""
    total = Fraction(0)
    for gram in _orthogonal_blocks(lattice.gram):
        if gram not in table:
            table[gram] = _block_m(gram)
        total += table[gram]
    return total


def _m_floor(lattice: GramLattice) -> Fraction:
    """A lower bound on m: (rank - sum |G_ij|) / 4, summed over all entries.

    Cube lemma: every characteristic coset holds a chi whose x = G^{-1} chi
    lies in the cube [-1, 1)^r (moving chi by 2G Z^r moves x by 2Z^r), and
    there -chi^2 = -x^T G x <= sum |G_ij|.  So the least -chi^2 of every
    coset is at most sum |G_ij|, each coset maximum of (chi^2 + r) / 4 is at
    least (r - sum |G_ij|) / 4, and so is their minimum m.

    The bound adds over orthogonal blocks as m does: no entry of G lies
    outside its blocks, so the rank and sum |G_ij| of G are the sums of
    those of its blocks, and the floor of G is the sum of its block floors.
    A <-1> block adds 1 - 1 = 0, as its m does; the floor is m exactly on
    <-1>^k + <-D>, where the coset of chi = D in <-D> has least -chi^2 = D."""
    return Fraction(lattice.rank - sum(abs(x) for row in lattice.gram for x in row), 4)


def m_invariant(lattice: GramLattice) -> Fraction:
    """min over characteristic cosets of max (chi^2 + rank)/4, as the sum of
    that minimum over the orthogonal blocks of the Gram matrix, each
    distinct block computed once.  Refuses a lattice whose whole
    discriminant is above MAX_M_DISC."""
    _check_m_disc(lattice.disc)
    return _sum_over_blocks(lattice, {})


# ---------------------------------------------------------------------------
# Enumeration of definite lattices
# ---------------------------------------------------------------------------

# diagonal-product bounds for Minkowski-reduced positive forms of rank <= 4
_REDUCTION_PRODUCT_BOUND = {0: Fraction(1), 1: Fraction(1), 2: Fraction(4, 3),
                            3: Fraction(2), 4: Fraction(4)}

MAX_COMPLETE_RANK = 4

# The dedupe compares a candidate only with the classes whose counts of
# vectors of norm 1..ISOMETRY_KEY_NORMS agree with its own.
ISOMETRY_KEY_NORMS = 3


def enumerate_definite_lattices(rank: int, disc: int) -> list[GramLattice]:
    """All negative-definite integral lattices of the given rank and
    discriminant, up to isomorphism.

    Completeness for rank <= 4 comes from the classical reduction bounds:
    a Minkowski-reduced positive form has sorted diagonal with
    2|a_ij| <= a_ii and diagonal product at most c_r * disc.  The scan
    covers that region and deduplicates by isometry, testing each candidate
    only against the classes with the same short-vector counts (an isometry
    invariant).  Each class is the first member of it the scan meets.

    The classes with a vector of norm 1 are not scanned: they are
    <-1> + A for the classes A of rank - 1 and the same discriminant.  A
    norm-1 vector v splits L = Zv + v^perp by x -> x - (x.v) v, and v^perp
    has the discriminant of L.  By Eichler's theorem a definite lattice is
    uniquely the orthogonal sum of indecomposables, so <-1> + A and <-1> + B
    are isometric only when A and B are, and each class is listed once.
    The representative is the one a scan from diagonal entry 1 keeps.  An
    entry 1 forces the off-diagonal entries of its row to 0, so the
    diagonals that begin with 1 scan <-1> + B over the rank - 1 region in
    its own order (with a larger product bound), and the first member of
    <-1> + A there is <-1> + the first member of A: every member of A has a
    sorted diagonal at least the successive minima entrywise, and the
    reduced members attain them, so the first member of A sits on that
    diagonal, which both regions hold.  The scan therefore starts its
    diagonal at 2 and drops every form with a norm-1 vector, which is
    isometric to a split class; the classes without one meet the same
    forms in the same order as before, so they keep their representatives.

    The scan fills the off-diagonal positions (0, 1), (0, 2), ..., (1, 2),
    ... in that order, each with increasing values, and it skips every
    filling whose first nonzero entry touching some index k is positive (in
    the positive form -G).  This drops no class and changes no
    representative.  Negating basis vector e_k negates exactly the entries
    touching k, so it keeps the filling inside the scan region (same
    diagonal, same |a_ij|) and in the same class.  If the first nonzero
    entry touching k is positive, the flipped filling agrees with it up to
    that position and is negative there, so the scan meets the flipped one
    first; such a filling is never the first member of its class, and the
    stored representatives all obey the rule.  Up to 2^(rank - 1) sign
    copies of each filling are skipped this way.

    The last position (r-2, r-1) is solved for instead of scanned.  One
    elimination with that entry v set to 0 gives the leading minors
    Delta_1..Delta_{r-1}, which do not contain v, so if one of them is not
    positive no v can pass.  After r-2 steps its row r-2 holds the bordered
    minor q(v) = q0 + Delta_{r-2} v (Delta_0 = 1), and Desnanot-Jacobi,
    det(v) Delta_{r-2} = Delta_{r-1} A - q(v)^2 with A free of v, gives
    det(v) = D exactly when
    (q0 + Delta_{r-2} v)^2 = q0^2 + Delta_{r-2} (det(0) - D): one isqrt,
    at most two values.  Those inside the position's range [-half, top] go,
    in increasing order, through the full elimination and the dedupe, as
    every value of the range did before.  The same leaves therefore reach
    the dedupe in the same order: if some v gives a positive definite form
    of determinant D, its leading block is positive definite, so the v = 0
    elimination replaces no pivot in its first r-1 steps and q0,
    Delta_{r-2} and det(0) are exact; a root that stems from a replaced
    pivot fails the full elimination.  The representatives do not change.
    """
    if rank > MAX_COMPLETE_RANK:
        raise LatticeError(
            f"complete enumeration is only implemented for rank <= {MAX_COMPLETE_RANK}")
    if rank < 0 or disc < 1:
        raise LatticeError("need rank >= 0 and disc >= 1")
    if rank == 0:
        return [GramLattice.rank_zero()] if disc == 1 else []
    classes = [GramLattice(((-1,) + (0,) * (rank - 1),)
                           + tuple((0,) + row for row in lat.gram))
               for lat in enumerate_definite_lattices(rank - 1, disc)]
    bound = _REDUCTION_PRODUCT_BOUND[rank] * disc
    buckets: dict[tuple[int, ...], list[GramLattice]] = {}

    def diag_scan(i: int, diag: list[int], prod: int):
        if i == rank:
            yield list(diag)
            return
        a = diag[-1] if diag else 2
        while prod * a ** (rank - i) <= bound:
            diag.append(a)
            yield from diag_scan(i + 1, diag, prod * a)
            diag.pop()
            a += 1

    positions = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    for diag in diag_scan(0, [], 1):
        mat = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]

        def fill(k: int, touched: int):
            # bit a of touched: an earlier position gave index a a nonzero
            # entry; until both i and j have one, (i, j) takes no v > 0
            if k == len(positions):
                rows = _symmetric_bareiss(mat)
                if rows[-1][-1] != disc or any(rows[k][k] <= 0 for k in range(rank)):
                    return
                neg = GramLattice(tuple(tuple(-x for x in row) for row in mat))
                key = _isometry_key(neg)
                if key[0]:
                    return  # a norm-1 vector: isometric to a split class
                bucket = buckets.setdefault(key, [])
                if not any(lattices_isometric(neg, other) for other in bucket):
                    bucket.append(neg)
                return
            i, j = positions[k]
            half = min(diag[i], diag[j]) // 2
            pair = 1 << i | 1 << j
            top = half if (touched & pair) == pair else 0
            values = range(-half, top + 1)
            if k == len(positions) - 1:
                values = [v for v in _last_entry_roots(mat, disc) if -half <= v <= top]
            for v in values:
                mat[i][j] = mat[j][i] = v
                fill(k + 1, touched | pair if v else touched)
            mat[i][j] = mat[j][i] = 0

        fill(0, 0)
    classes.extend(lat for bucket in buckets.values() for lat in bucket)
    return sorted(classes, key=lambda lat: lat.gram)


def _last_entry_roots(mat: Sequence[Sequence[int]], disc: int) -> list[int]:
    """The values v, in increasing order, that may give the form `mat`
    determinant `disc` with v in its last off-diagonal entry (r-2, r-1),
    which is 0 in `mat`; none when a leading pivot Delta_1..Delta_{r-1} is
    not positive.  det(v) = disc exactly when
    (q0 + Delta_{r-2} v)^2 = q0^2 + Delta_{r-2} (det(0) - disc)."""
    r = len(mat)
    rows = _symmetric_bareiss(mat)
    if any(rows[k][k] <= 0 for k in range(r - 1)):
        return []
    lead = rows[r - 3][r - 3] if r > 2 else 1  # Delta_{r-2}
    q0 = rows[r - 2][r - 1]
    square = q0 * q0 + lead * (rows[-1][-1] - disc)
    if square < 0:
        return []
    s = isqrt(square)
    if s * s != square:
        return []
    return [(q - q0) // lead for q in sorted({-s, s}) if (q - q0) % lead == 0]


def _isometry_key(lattice: GramLattice) -> tuple[int, ...]:
    """The number of vectors of each norm 1..ISOMETRY_KEY_NORMS."""
    by_norm = lattice._short_vectors.within(ISOMETRY_KEY_NORMS)
    return tuple(len(by_norm.get(n, ())) for n in range(1, ISOMETRY_KEY_NORMS + 1))


def lattices_isometric(a: GramLattice, b: GramLattice) -> bool:
    """Exact isometry test: map a's basis vectors, in order, to vectors of b
    with the same norms and pairwise products, and accept a unimodular
    choice.  b's short vectors are enumerated once and kept with b."""
    if a.rank != b.rank or a.disc != b.disc:
        return False
    r = a.rank
    if r == 0:
        return True
    pos_a = [[-x for x in row] for row in a.gram]
    by_norm = b._short_vectors.within(max(pos_a[k][k] for k in range(r)))
    shells = [by_norm.get(pos_a[k][k], ()) for k in range(r)]
    chosen: list[tuple[int, ...]] = []
    images: list[tuple[int, ...]] = []

    def extend(k: int) -> bool:
        if k == r:
            return abs(det_bareiss([list(v) for v in chosen])) == 1
        row = pos_a[k]
        for v, image in shells[k]:
            if any(sum(map(mul, v, images[i])) != row[i] for i in range(k)):
                continue
            chosen.append(v)
            images.append(image)
            if extend(k + 1):
                return True
            chosen.pop()
            images.pop()
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# C(D) and the verdict
# ---------------------------------------------------------------------------

class CBound(Record):
    """Lower-bound constant over a catalog of definite lattices with
    rank < disc = D.  `complete` is True only when the catalog provably
    holds every class of every rank 0..D-1."""

    disc: int
    value: Fraction
    complete: bool
    catalog_size: int

    def to_json_dict(self) -> dict:
        return {"disc": self.disc, "value": str(self.value),
                "complete": self.complete, "catalog_size": self.catalog_size}


# build_catalog(D) takes about 0.11 s at D = 60, 0.27 s at D = 100 and
# 0.74 s at D = 200 (best of several runs, 2-core VM, Python 3.11.7).
MAX_CATALOG_DISC = 200


def build_catalog(disc: int) -> list[GramLattice]:
    """All definite lattices with disc = D and rank < D, for ranks up to
    min(D-1, max rank the enumeration can certify).  Refuses D above
    MAX_CATALOG_DISC.

    Only the top rank is enumerated, which enumerates each rank below once.
    The classes of rank r - 1 are read back off the rank-r list: its
    classes with a -1 in the corner are <-1> + the classes of rank r - 1,
    in their order, and every other class has a diagonal entry below -1
    there."""
    if disc < 1:
        raise LatticeError(f"the determinant must be >= 1, got {disc}")
    if disc > MAX_CATALOG_DISC:
        raise LatticeError(f"determinant {disc} is above MAX_CATALOG_DISC = "
                           f"{MAX_CATALOG_DISC}, the cap on catalog builds")
    top = min(disc - 1, MAX_COMPLETE_RANK)
    ranks = [enumerate_definite_lattices(top, disc)]
    while len(ranks) <= top:
        ranks.append([GramLattice(tuple(row[1:] for row in lat.gram[1:]))
                      for lat in ranks[-1] if lat.gram[0][0] == -1])
    return [lat for lats in reversed(ranks) for lat in lats]


def c_bound(disc: int, catalog: Sequence[GramLattice]) -> CBound:
    """Minimum m over the catalog, by branch and bound on `_m_floor`: the
    members are visited in increasing (floor, catalog index) order, and m is
    computed only while the floor is below the least m found so far, each
    distinct orthogonal block once per call.  A member left out has
    m >= its floor >= that least m, so the minimum is exact.  Complete only
    when the enumeration certifies every rank 0..D-1
    (D-1 <= MAX_COMPLETE_RANK) and every class it finds is isometric to a
    catalog member."""
    if disc < 1:
        raise LatticeError(f"the determinant must be >= 1, got {disc}")
    for lat in catalog:
        if lat.disc != disc:
            raise LatticeError(f"catalog member has disc {lat.disc}, expected {disc}")
        if not lat.rank < disc:
            raise LatticeError(f"catalog member rank {lat.rank} is not < disc {disc}")
    members = list(catalog)
    if disc == 1:
        members.append(GramLattice.rank_zero())  # the only candidate
    if not members:
        raise LatticeError("empty catalog with disc > 1; no lower bound available")
    complete = disc - 1 <= MAX_COMPLETE_RANK and all(
        any(lattices_isometric(cls, lat) for lat in members)
        for cls in build_catalog(disc))
    # every block's discriminant divides disc, so one check covers them all
    _check_m_disc(disc)
    table: dict = {}  # one m per distinct block Gram matrix searched
    ranked = sorted(members, key=_m_floor)  # stable: ties keep catalog order
    value = _sum_over_blocks(ranked[0], table)
    for lat in ranked[1:]:
        if _m_floor(lat) >= value:
            break  # this member and every later one has m >= value
        value = min(value, _sum_over_blocks(lat, table))
    return CBound(disc=disc, value=value, complete=complete,
                  catalog_size=len(catalog))


class QAVerdict(Record):
    """Outcome of the obstruction check for one manifold."""

    disc: int
    min_d: Fraction
    bound: CBound
    obstruction_fires: bool        # min d < C(D) over the catalog
    unit_pinned: bool              # torsion unit ambiguity resolved?
    verdict: str                   # "not obstructed" | "non-QA certified" |
                                   # "non-QA conditional"
    conditions_unmet: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "disc": self.disc,
            "min_d": str(self.min_d),
            "c_bound": self.bound.to_json_dict(),
            "obstruction_fires": self.obstruction_fires,
            "unit_pinned": self.unit_pinned,
            "verdict": self.verdict,
            "conditions_unmet": list(self.conditions_unmet),
        }


CATALOG_CONDITION = "lattice catalog incomplete beyond rank 4"
UNIT_CONDITION = "torsion unit unpinned"


def qa_verdict(d_values: Sequence[Fraction], disc: int, bound: CBound,
               unit_pinned: bool = False) -> QAVerdict:
    """Certify non-quasi-alternating when some correction term drops below
    the catalog bound; downgrade to conditional while the catalog is
    incomplete or the torsion unit is unpinned."""
    vals = [Fraction(v) for v in d_values]
    if len(vals) != disc:
        raise LatticeError(
            f"need one correction term per Spin^c structure: got {len(vals)}, "
            f"expected {disc}")
    if bound.disc != disc:
        raise LatticeError("bound was computed for a different determinant")
    min_d = min(vals)
    fires = min_d < bound.value
    conditions = []
    if not bound.complete:
        conditions.append(CATALOG_CONDITION)
    if not unit_pinned:
        conditions.append(UNIT_CONDITION)
    if not fires:
        verdict = "not obstructed"
        conditions = []
    elif conditions:
        verdict = "non-QA conditional"
    else:
        verdict = "non-QA certified"
    return QAVerdict(disc=disc, min_d=min_d, bound=bound,
                     obstruction_fires=fires, unit_pinned=unit_pinned,
                     verdict=verdict, conditions_unmet=tuple(conditions))


# ---------------------------------------------------------------------------
# Catalog files
# ---------------------------------------------------------------------------

def catalog_to_json(catalog: Sequence[GramLattice]) -> str:
    return json.dumps([lat.to_json_dict() for lat in catalog], indent=1)


def catalog_from_json(text: str) -> list[GramLattice]:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
        raise LatticeError("a catalog must be a JSON list of Gram objects")
    return [GramLattice.from_json_dict(d) for d in data]
