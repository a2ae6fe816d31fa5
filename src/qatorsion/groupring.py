"""Exact arithmetic in the rational group ring Q[Z/N] and in cyclotomic fields.

Elements of Q[Z/N] are stored as length-N vectors of exact rationals
(coefficient of t^k at index k); all products are cyclic convolutions, so
exponents reduce mod N automatically.  The ring splits as

    Q[Z/N]  ~  (+)_{d | N}  Q(zeta_d),

one field summand per divisor of N, reached by the ring homomorphism
phi_d: t -> zeta_d (`phi_at_divisor`).  An element is rebuilt from its
components by traces: N x_k is the sum of chi(x) chi(t)^-k over the N
characters chi of Z/N, and those of order d are the Galois conjugates of
phi_d, so

    N x_k  =  sum_{d | N}  Tr_{Q(zeta_d)/Q}( phi_d(x) zeta_d^-k ),

and in the power basis the trace of zeta_d^m is the Ramanujan sum c_d(m)
(`phi_reconstruct_divisors`).

No floating point is used anywhere.  Coefficients are exact: integers stay
Python ints, in the group ring and in the cyclotomic fields alike, so the
components of an integral element, zeta_d^g - 1 and their products make no
`fractions.Fraction`.  Fractions begin at `CyclotomicNumber.inv` and at the
division by N of the reconstruction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .laurent import format_terms


def _as_exact(x):
    """An int or a Fraction as it is, so integral arithmetic makes no
    Fraction; a string is parsed as an exact rational."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# Dense polynomial helpers (lists of int or Fraction, index = degree)
# ---------------------------------------------------------------------------

def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return _poly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                       for i in range(n)])


def _poly_mul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod(num: Sequence, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q of num by a trimmed nonzero den.  Only
    num must hold Fractions, den may hold ints: each step divides an entry
    of num by den's leading coefficient, so the division is exact and the
    remainder holds Fractions too."""
    num = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    while _poly_trim(num) and len(num) >= len(den):
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] = c
        for i, b in enumerate(den):
            num[shift + i] -= c * b
    return _poly_trim(q), num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    # den is monic, so the long division stays in Z
    deg = len(den) - 1
    q = [0] * (m - deg + 1)
    for shift in range(m - deg, -1, -1):
        c = q[shift] = num[shift + deg]
        for i, b in enumerate(den):
            num[shift + i] -= c * b
    if any(num):
        raise ArithmeticError("cyclotomic division leaves a remainder")
    return tuple(q)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_basis_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e (0 <= e < m) is x^e reduced mod Phi_m, in the power basis."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    cur = [0] * deg
    cur[0] = 1
    rows = [tuple(cur)]
    for _ in range(m - 1):
        carry = cur[deg - 1]
        cur = [0] + cur[:deg - 1]
        if carry:
            # Phi is monic: x^deg = -(phi[0] + phi[1] x + ... + phi[deg-1] x^{deg-1})
            for i in range(deg):
                cur[i] -= carry * phi[i]
        rows.append(tuple(cur))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

class CyclotomicNumber:
    """An element of Q(zeta_m), stored in the power basis mod Phi_m.

    Conductor 1 is a bare rational (Phi_1 = x - 1, degree 1).  A
    coordinate is an int or a Fraction, and integers stay ints: sums,
    differences and products of integral elements make no Fraction.
    Nonzero elements are invertible; inversion, where Fractions begin,
    runs the extended Euclidean algorithm against Phi_m.
    """

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords: Iterable):
        self.conductor = conductor
        coords = tuple(_as_exact(c) for c in coords)
        deg = euler_phi(conductor)
        if len(coords) != deg:
            raise ValueError(
                f"conductor {conductor} needs {deg} coordinates, got {len(coords)}")
        self.coords = coords

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CyclotomicNumber":
        return cls(m, [0] * euler_phi(m))

    @classmethod
    def one(cls, m: int) -> "CyclotomicNumber":
        c = [0] * euler_phi(m)
        c[0] = 1
        return cls(m, c)

    @classmethod
    def zeta_power(cls, m: int, e: int) -> "CyclotomicNumber":
        """zeta_m^e as a power-basis element."""
        return cls(m, _power_basis_table(m)[e % m])

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.conductor, [-a for a in self.coords])

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        self._check(other)
        deg = len(self.coords)
        prod = [0] * (2 * deg - 1 if deg else 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        return CyclotomicNumber(self.conductor, _reduce_mod_phi(prod, self.conductor))

    def inv(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # extended gcd of a and Phi over Q[x]; gcd is a nonzero constant.
        # Each is a dividend in turn, so both start as Fractions.
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r1 = _poly_trim([Fraction(c) for c in self.coords])
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor mod Phi (impossible in a field)")
        c = r1[0]
        inv_coords = [x / c for x in s1]
        inv_coords += [0] * (len(self.coords) - len(inv_coords))
        return CyclotomicNumber(self.conductor, _reduce_mod_phi(inv_coords, self.conductor))

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclotomicNumber)
                and self.conductor == other.conductor
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.conductor, self.coords))

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.conductor}, {[str(c) for c in self.coords]})"


def _reduce_mod_phi(coords: Sequence, m: int) -> list:
    deg = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    out = list(coords)
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            for j in range(deg + 1):
                out[i - deg + j] -= c * phi[j]
    out = out[:deg]
    out += [0] * (deg - len(out))
    return out


# ---------------------------------------------------------------------------
# Group ring elements
# ---------------------------------------------------------------------------

class GroupRingElem:
    """An element of Q[Z/N]: coefficient of t^k sits at index k, an int or
    a Fraction."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Iterable):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        coeffs = tuple(_as_exact(c) for c in coeffs)
        if len(coeffs) != modulus:
            raise ValueError(f"need {modulus} coefficients, got {len(coeffs)}")
        self.modulus = modulus
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GroupRingElem":
        return cls(n, [0] * n)

    @classmethod
    def one(cls, n: int) -> "GroupRingElem":
        return cls.t_power(n, 0)

    @classmethod
    def t_power(cls, n: int, k: int) -> "GroupRingElem":
        c = [0] * n
        c[k % n] = 1
        return cls(n, c)

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[int, object]]) -> "GroupRingElem":
        """terms: iterable of (exponent, coefficient); exponents reduce mod n."""
        c = [0] * n
        for k, a in terms:
            c[k % n] += _as_exact(a)
        return cls(n, c)

    # -- queries -------------------------------------------------------------

    def _check(self, other: "GroupRingElem") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        return GroupRingElem(self.modulus,
                             [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        return GroupRingElem(self.modulus,
                             [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(self.modulus, [-a for a in self.coeffs])

    def scale(self, r) -> "GroupRingElem":
        r = _as_exact(r)
        return GroupRingElem(self.modulus, [r * a for a in self.coeffs])

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        self._check(other)
        n = self.modulus
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return GroupRingElem(n, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingElem)
                and self.modulus == other.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

    # -- presentation ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"GroupRingElem({self.modulus}, {self.to_string()!r})"

    def to_string(self) -> str:
        return format_terms(("" if k == 0 else "t" if k == 1 else f"t^{k}", c)
                            for k, c in enumerate(self.coeffs))

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "coeffs": [str(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# The character-component maps phi
# ---------------------------------------------------------------------------

def divisor_levels(n: int) -> list[int]:
    """All divisors of n in increasing order: the component index set of the
    splitting Q[Z/n] ~ (+)_{d|n} Q(zeta_d)."""
    return [d for d in range(1, n + 1) if n % d == 0]


def phi_at_divisor(x: GroupRingElem, d: int) -> CyclotomicNumber:
    """Ring homomorphism Q[Z/N] -> Q(zeta_d) sending t to zeta_d (d | N)."""
    n = x.modulus
    if n % d != 0:
        raise ValueError(f"{d} does not divide the modulus {n}")
    table = _power_basis_table(d)
    deg = euler_phi(d)
    out = [0] * deg
    for k, c in enumerate(x.coeffs):
        if c:
            row = table[k % d]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return CyclotomicNumber(d, out)


def _ramanujan_sum(d: int, m: int) -> int:
    """c_d(m) = Tr_{Q(zeta_d)/Q}(zeta_d^m) = mu(e) phi(d) / phi(e) with
    e = d / gcd(d, m): zeta_d^m is a primitive e-th root of unity, the
    primitive e-th roots sum to mu(e), which is minus the next-to-leading
    coefficient of Phi_e, and each is hit phi(d) / phi(e) times."""
    e = d // gcd(d, m)
    return -cyclotomic_polynomial(e)[-2] * euler_phi(d) // euler_phi(e)


@lru_cache(maxsize=None)
def _reconstruction_matrix(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """n times the inverse of x -> (phi_d(x))_{d | n}, one row per k as its
    (column, entry) pairs with entry != 0: column (d, i) of the stacked
    power-basis coordinates holds c_d(i - k).  Applied to the components of
    t^j it gives sum_{d | n} c_d(j - k), the sum of the (j - k)-th powers of
    all n-th roots of unity: n when j = k, else 0.

    Most entries vanish: c_d(m) = 0 whenever e = d / gcd(d, m) is not
    squarefree.  If p^2 divides e, multiplying a primitive e-th root of
    unity by a p-th root of unity gives another primitive e-th root, so
    the primitive e-th roots fall into classes zeta (1, w, ..., w^{p-1})
    with w a primitive p-th root of unity, and each class sums to 0.  At
    n = 25 that leaves 9 of the 25 entries of each row."""
    columns = [(d, i) for d in divisor_levels(n) for i in range(euler_phi(d))]
    return tuple(tuple((col, c) for col, (d, i) in enumerate(columns)
                       if (c := _ramanujan_sum(d, i - k)))
                 for k in range(n))


def phi_reconstruct_divisors(components: dict[int, CyclotomicNumber],
                             n: int) -> GroupRingElem:
    """Inverse of the components phi_at_divisor(x, d) over all d | n: the
    unique x in Q[Z/n] with the given divisor components."""
    divisors = divisor_levels(n)
    if sorted(components) != divisors:
        raise ValueError(f"need one component per divisor of {n}")
    stacked = []
    for d in divisors:
        c = components[d]
        if c.conductor != d:
            raise ValueError(f"component for divisor {d} has conductor {c.conductor}")
        stacked.extend(c.coords)
    return GroupRingElem(n, [Fraction(sum(c * stacked[col] for col, c in row)) / n
                             for row in _reconstruction_matrix(n)])
