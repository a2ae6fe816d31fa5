"""Exact arithmetic in the rational group ring Q[Z/N] and in cyclotomic fields.

Elements of Q[Z/N] are stored as length-N vectors of exact rationals
(coefficient of t^k at index k); all products are cyclic convolutions, so
exponents reduce mod N automatically.  For N a prime power p^m the ring
splits as

    Q[Z/N]  ~  Q  (+)  Q(zeta_p)  (+)  ...  (+)  Q(zeta_{p^m}),

one field summand per divisor of N.  The same splitting (indexed by
divisors) works for any cyclic N and is what the divisor-level functions
implement.

No floating point is used anywhere: coefficients are `fractions.Fraction`
over arbitrary-precision integers, and group-ring coefficients that are
integers stay Python ints.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .intmat import invert_rational
from .laurent import format_terms


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _as_exact(x):
    """An int stays an int, so integral group-ring arithmetic makes no
    Fraction; anything else becomes an exact rational."""
    return x if isinstance(x, int) else _as_fraction(x)


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
    """Quotient and remainder over Q of num by a trimmed nonzero den; the
    coefficients of num must be Fractions so that each division is exact."""
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
    num = [Fraction(0)] * m + [Fraction(1)]
    num[0] = Fraction(-1)  # x^m - 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod(num, den)
    if r or any(c.denominator != 1 for c in q):
        raise ArithmeticError("cyclotomic division is not exact over Z")
    return tuple(int(c) for c in q)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_basis_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row e (0 <= e < m) is x^e reduced mod Phi_m, in the power basis."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    rows = [tuple(cur)]
    for _ in range(m - 1):
        carry = cur[deg - 1]
        cur = [Fraction(0)] + cur[:deg - 1]
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

    Conductor 1 is a bare rational (Phi_1 = x - 1, degree 1).  Nonzero
    elements are invertible; inversion runs the extended Euclidean
    algorithm against Phi_m.
    """

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords: Iterable):
        self.conductor = conductor
        coords = tuple(_as_fraction(c) for c in coords)
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
        c = [Fraction(0)] * euler_phi(m)
        c[0] = Fraction(1)
        return cls(m, c)

    @classmethod
    def from_rational(cls, m: int, x) -> "CyclotomicNumber":
        c = [Fraction(0)] * euler_phi(m)
        c[0] = _as_fraction(x)
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
        prod = [Fraction(0)] * (2 * deg - 1 if deg else 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        return CyclotomicNumber(self.conductor, _reduce_mod_phi(prod, self.conductor))

    def inv(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        a = list(self.coords)
        # extended gcd of a and Phi over Q[x]; gcd is a nonzero constant
        r0, r1 = phi, _poly_trim(list(a))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor mod Phi (impossible in a field)")
        c = r1[0]
        inv_coords = [x / c for x in s1]
        inv_coords += [Fraction(0)] * (len(self.coords) - len(inv_coords))
        return CyclotomicNumber(self.conductor, _reduce_mod_phi(inv_coords, self.conductor))

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclotomicNumber)
                and self.conductor == other.conductor
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.conductor, self.coords))

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.conductor}, {[str(c) for c in self.coords]})"


def _reduce_mod_phi(coords: Sequence[Fraction], m: int) -> list[Fraction]:
    deg = euler_phi(m)
    phi = cyclotomic_polynomial(m)
    out = [Fraction(x) for x in coords]
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            for j in range(deg + 1):
                out[i - deg + j] -= c * phi[j]
    out = out[:deg]
    out += [Fraction(0)] * (deg - len(out))
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
    out = [Fraction(0)] * deg
    for k, c in enumerate(x.coeffs):
        if c:
            row = table[k % d]
            for i in range(deg):
                if row[i]:
                    out[i] += c * row[i]
    return CyclotomicNumber(d, out)


@lru_cache(maxsize=None)
def _decomposition_matrix_inverse(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the Q-linear map Q^n -> (+)_{d|n} Q(zeta_d) written in the
    monomial basis t^k and the power bases of the components."""
    divisors = divisor_levels(n)
    rows_per = [euler_phi(d) for d in divisors]
    size = sum(rows_per)
    if size != n:
        raise AssertionError("divisor degree sum must equal n")
    # column k = stacked components of t^k
    mat = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        base = 0
        for d, deg in zip(divisors, rows_per):
            row = _power_basis_table(d)[k % d]
            for i in range(deg):
                mat[base + i][k] = row[i]
            base += deg
    inv = invert_rational(mat)
    return tuple(tuple(r) for r in inv)


def phi_reconstruct_divisors(components: dict[int, CyclotomicNumber],
                             n: int) -> GroupRingElem:
    """Inverse of the components phi_at_divisor(x, d) over all d | n: the
    unique x in Q[Z/n] with the given divisor components."""
    divisors = divisor_levels(n)
    if sorted(components) != divisors:
        raise ValueError(f"need one component per divisor of {n}")
    stacked: list[Fraction] = []
    for d in divisors:
        c = components[d]
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(d, c)
        if c.conductor != d:
            raise ValueError(f"component for divisor {d} has conductor {c.conductor}")
        stacked.extend(c.coords)
    inv = _decomposition_matrix_inverse(n)
    coeffs = [sum((inv[i][j] * stacked[j] for j in range(n)), Fraction(0))
              for i in range(n)]
    return GroupRingElem(n, coeffs)
