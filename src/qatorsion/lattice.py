"""Negative-definite integral lattices: the maximum of chi^2 over each
characteristic covector coset, the invariant

    m(L) = min over cosets of max { (chi^2 + rank) / 4 },

complete enumeration of definite lattices of small rank and given
discriminant, the lower-bound constant C(D), and the
not-quasi-alternating verdict record.

Everything is exact and runs on one integer matrix, the adjugate
adj = det(G) G^{-1}.  A characteristic covector chi (chi_i = G_ii mod 2, in
dual-basis coordinates) has chi^2 = chi^T adj chi / det G, and two of them
lie in the same coset mod 2G Z^r exactly when adj chi agrees mod 2D,
D = |det G|.  The coset maxima come from enumerating every characteristic
chi with -chi^2 <= R for R = 0, 1/D, 4/D, 16/D, ... until all D labels are
seen: from then on every coset has a vector within R, so its maximum is
among those enumerated.  R never needs to pass sum |G_ij|, a provable
radius: x = G^{-1} chi moves by 2Z^r into the cube [-1, 1)^r, where
-chi^2 = -x^T G x <= sum |G_ij|.

m adds over orthogonal sums.  The characteristic cosets of L1 + L2 are
the pairs of cosets of L1 and L2, and chi^2 and the rank add, so each
coset maximum of (chi^2 + rank) / 4 is the sum of the two maxima, and the
minimum over pairs is the sum of the two minima.  m_invariant therefore
splits G into the connected components of its off-diagonal support and
adds their m; a <-1> summand (m = 0) costs nothing.

The ellipsoid search is the Fincke-Pohst enumeration, on integers.  Every
form it is given is integral (-G, or +-adj) with an integer radius.  The
LDL factorisation Q(x) = sum_k d_k (x_k + sum_{i>k} l_ik x_i)^2 is done
once in rationals; level k is scaled by M_k, the lcm of the denominators
of its l_ik, and all levels by one common denominator N, so that each
level's term is an integer c_k (M_k x_k + S_k)^2 compared with an integer
remaining radius, and its candidates are exactly the x_k with
|M_k x_k + S_k| <= isqrt(remaining // c_k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

from .intmat import det_bareiss


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class GramLattice:
    """A negative-definite symmetric integer bilinear form."""

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
        # negative definite: leading principal minors alternate in sign
        for k in range(1, r + 1):
            minor = det_bareiss([list(row[:k]) for row in g[:k]])
            if minor * (-1) ** k <= 0:
                raise LatticeError("Gram matrix is not negative definite")

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

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "GramLattice":
        r = len(entries)
        return cls.from_rows([[entries[i] if i == j else 0 for j in range(r)]
                              for i in range(r)])

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def disc(self) -> int:
        return abs(det_bareiss(self.gram))

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
                    image = tuple(_dot(row, v) for row in self._form)
                    by_norm.setdefault(_dot(v, image), []).append((v, image))
            self._by_norm, self._radius = by_norm, radius
        return self._by_norm


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# Exact ellipsoid enumeration (positive definite integer forms)
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


def enumerate_in_ellipsoid(form: Sequence[Sequence[int]], radius: int,
                           parity: Optional[Sequence[int]] = None
                           ) -> Iterable[tuple[int, ...]]:
    """All integer vectors x (including 0 when parity allows) with
    x^T A x <= radius, A a positive definite integer form and radius an
    integer; optionally restricted to x = parity mod 2.  Vectors come
    depth-first from the last coordinate down, each level in increasing
    order.  Only the LDL is rational; every search node is integer."""
    r = len(form)
    if r == 0:
        yield ()
        return
    l, d = _ldl([[Fraction(x) for x in row] for row in form])
    # Q(x) = sum_k d_k (x_k + sum_{i>k} l_ik x_i)^2.  With M_k the lcm of the
    # denominators of l_ik (i > k) and N a common denominator of every
    # d_k / M_k^2, N Q(x) = sum_k c_k (M_k x_k + S_k)^2 with integers
    # c_k = N d_k / M_k^2 and S_k = sum_{i>k} (M_k l_ik) x_i.
    scale = [lcm(*(l[i][k].denominator for i in range(k + 1, r))) for k in range(r)]
    common = lcm(*((d[k] / scale[k] ** 2).denominator for k in range(r)))
    coef = [int(common * d[k] / scale[k] ** 2) for k in range(r)]
    shift = [[(i, int(scale[k] * l[i][k])) for i in range(k + 1, r) if l[i][k]]
             for k in range(r)]
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
# 0.15 s, [[-100, 1], [1, -100]] 0.2 s, the rank-4 tridiagonal form with
# diagonal -10 and off-diagonal 1 (D = 9701) 1.0 s; diag(-10, -10, -10, -10)
# splits into four blocks and takes 2 ms.
MAX_M_DISC = 10_000


def _check_m_disc(disc: int) -> None:
    if disc > MAX_M_DISC:
        raise LatticeError(f"discriminant {disc} is above MAX_M_DISC = {MAX_M_DISC}, "
                           "the cap on computing m")


def coset_square_maxima(lattice: GramLattice) -> dict[tuple[int, ...], Fraction]:
    """For every characteristic coset, labelled by adj(G) chi mod 2D, the
    maximum of chi^2 over the coset (a negative rational, or 0 for the
    empty lattice).  Refuses D above MAX_M_DISC."""
    g, r, disc = lattice.gram, lattice.rank, lattice.disc
    _check_m_disc(disc)
    adj = _adjugate(g)
    sign = (-1) ** (r + 1)  # sign * adj = D (-G^{-1}) is positive definite
    form = [[sign * x for x in row] for row in adj]
    cube = disc * sum(abs(x) for row in g for x in row)
    parity = [g[i][i] % 2 for i in range(r)]
    radius = 0
    while True:
        least: dict[tuple[int, ...], int] = {}  # label -> least D (-chi^2)
        for chi in enumerate_in_ellipsoid(form, radius, parity):
            image = [_dot(row, chi) for row in adj]
            label = tuple(x % (2 * disc) for x in image)
            q = sign * _dot(chi, image)
            if label not in least or q < least[label]:
                least[label] = q
        if len(least) == disc or radius >= cube:
            break
        radius = min(cube, max(1, 4 * radius))
    if len(least) != disc:
        raise AssertionError(
            f"found {len(least)} characteristic cosets, expected {disc}")
    return {label: Fraction(-q, disc) for label, q in least.items()}


def _orthogonal_blocks(g: Sequence[Sequence[int]]) -> list[list[int]]:
    """The connected components of the off-diagonal support of G: index
    sets, each increasing, ordered by their least index."""
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
        blocks.append(sorted(block))
    return blocks


def m_invariant(lattice: GramLattice) -> Fraction:
    """min over characteristic cosets of max (chi^2 + rank)/4, as the sum of
    that minimum over the orthogonal blocks of the Gram matrix.  Refuses a
    lattice whose whole discriminant is above MAX_M_DISC."""
    _check_m_disc(lattice.disc)
    g = lattice.gram
    total = Fraction(0)
    for block in _orthogonal_blocks(g):
        part = GramLattice(tuple(tuple(g[i][j] for j in block) for i in block))
        maxima = coset_square_maxima(part)
        total += min((sq + part.rank) / 4 for sq in maxima.values())
    return total


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
    """
    if rank > MAX_COMPLETE_RANK:
        raise LatticeError(
            f"complete enumeration is only implemented for rank <= {MAX_COMPLETE_RANK}")
    if rank < 0 or disc < 1:
        raise LatticeError("need rank >= 0 and disc >= 1")
    if rank == 0:
        return [GramLattice.rank_zero()] if disc == 1 else []
    bound = _REDUCTION_PRODUCT_BOUND[rank] * disc
    buckets: dict[tuple[int, ...], list[GramLattice]] = {}

    def diag_scan(i: int, diag: list[int], prod: int):
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

    def offdiag_positions():
        return [(i, j) for i in range(rank) for j in range(i + 1, rank)]

    for diag in diag_scan(0, [], 1):
        positions = offdiag_positions()
        mat = [[diag[i] if i == j else 0 for j in range(rank)] for i in range(rank)]

        def fill(k: int):
            if k == len(positions):
                if det_bareiss(mat) != disc:
                    return
                try:
                    neg = GramLattice(tuple(tuple(-x for x in row) for row in mat))
                except LatticeError:  # not definite
                    return
                bucket = buckets.setdefault(_isometry_key(neg), [])
                if not any(lattices_isometric(neg, other) for other in bucket):
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
            if any(_dot(v, images[i]) != row[i] for i in range(k)):
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

@dataclass(frozen=True)
class CBound:
    """Lower-bound constant over a catalog of definite lattices with
    rank < disc = D.  `complete` is True only when the catalog provably
    covers every rank 0..D-1."""

    disc: int
    value: Fraction
    complete: bool
    catalog_size: int

    def to_json_dict(self) -> dict:
        return {"disc": self.disc, "value": str(self.value),
                "complete": self.complete, "catalog_size": self.catalog_size}


# build_catalog(D) takes 3.7 s at D = 60, 9.9 s at D = 100 and 33 s at
# D = 200 (2-core VM, Python 3.11.7).
MAX_CATALOG_DISC = 200


def build_catalog(disc: int, max_rank: Optional[int] = None) -> list[GramLattice]:
    """All definite lattices with disc = D and rank < D, for ranks up to
    min(D-1, max rank the enumeration can certify).  Refuses D above
    MAX_CATALOG_DISC."""
    if disc < 1:
        raise LatticeError(f"the determinant must be >= 1, got {disc}")
    if disc > MAX_CATALOG_DISC:
        raise LatticeError(f"determinant {disc} is above MAX_CATALOG_DISC = "
                           f"{MAX_CATALOG_DISC}, the cap on catalog builds")
    top = min(disc - 1, MAX_COMPLETE_RANK if max_rank is None else max_rank)
    catalog: list[GramLattice] = []
    for r in range(0, top + 1):
        catalog.extend(enumerate_definite_lattices(r, disc))
    return catalog


def c_bound(disc: int, catalog: Sequence[GramLattice]) -> CBound:
    """Minimum m over the catalog; complete only when the catalog can cover
    all ranks 0..D-1 (i.e. D-1 <= the certified enumeration rank)."""
    if disc < 1:
        raise LatticeError(f"the determinant must be >= 1, got {disc}")
    for lat in catalog:
        if lat.disc != disc:
            raise LatticeError(f"catalog member has disc {lat.disc}, expected {disc}")
        if not lat.rank < disc:
            raise LatticeError(f"catalog member rank {lat.rank} is not < disc {disc}")
    complete = disc - 1 <= MAX_COMPLETE_RANK
    values = [m_invariant(lat) for lat in catalog]
    if disc == 1:
        # the empty lattice is the only candidate
        values.append(Fraction(0))
    if not values:
        raise LatticeError("empty catalog with disc > 1; no lower bound available")
    return CBound(disc=disc, value=min(values), complete=complete,
                  catalog_size=len(catalog))


@dataclass(frozen=True)
class QAVerdict:
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
