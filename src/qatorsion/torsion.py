"""Torsion vectors of rational homology spheres with finite cyclic H_1,
and correction terms.

The torsion lives in Q[H], H = Z/N, normalised so the coefficient sum
(the trivial-character component) vanishes.  It is computed from a single
abelianized Fox minor D via its character components:

    phi_d(tau) = eps_d * (zeta_d^{g} - 1)^-1 (zeta_d^{h} - 1)^-1 * phi_d(D)

for every divisor d > 1 of N, where g and h are the homology classes of
the distinguished dual curves.  The units eps_d are not determined by this
computation.  The package uses one convention, eps_d = 1, which every
report names as "epsilon": "default"; the headline conclusions (affine
growth in the twist parameter, divergence of the minimum; see `pipeline`)
are invariant under the whole unit action tau -> +-t^k tau.

The inverse factors have a closed form in Q[Z/N].  Let a_g = sum_{k<N} k
t^{gk} and w = zeta_d^g != 1.  Shifting the sum by one step,

    (w - 1) phi_d(a_g) = sum_{k=1}^{N} (k - 1) w^k - sum_{k<N} k w^k
                       = (N - 1) w^N - sum_{k=1}^{N-1} w^k = N,

since w^N = 1 and the powers w^0, ..., w^{N-1} sum to 0.  So
phi_d(a_g) = N / (zeta_d^g - 1) at every divisor d > 1 (g a unit mod N),
and tau = (x - mean(x) sum_k t^k) / N^2 with x = a_g a_h D: two integer
convolutions and one division, with no cyclotomic field at all (ROADMAP
item 5; the test oracle `torsion_closed_form` checks it against
`torsion_from_minor`).
"""

from __future__ import annotations

from fractions import Fraction

from .groupring import (CyclotomicNumber, GroupRingElem, divisor_levels,
                        phi_at_divisor, phi_reconstruct_divisors)
from .records import Record

DEFAULT_EPSILON = "default"


class TorsionPreconditionError(ValueError):
    """A character component of a dual-curve class equals 1 where the
    torsion formula needs it invertible."""


class TorsionVector(Record):
    """tau as a zero-sum vector of exact rationals indexed by Z/N.

    values[k] is the coefficient of t^k, i.e. the torsion at the Spin^c
    structure labelled t^k under the fixed identification with H.  The
    vector is computed with the default unit convention; all values are
    only pinned up to the global unit action.
    """

    modulus: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.modulus:
            raise ValueError("value vector length must equal the modulus")
        if sum(self.values, Fraction(0)) != 0:
            raise ValueError("torsion vectors must have zero coefficient sum")

    def min_value(self) -> Fraction:
        return min(self.values)

    def __sub__(self, other: "TorsionVector") -> "TorsionVector":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return TorsionVector(self.modulus,
                             tuple(a - b for a, b in zip(self.values, other.values)))

    def to_json_dict(self) -> dict:
        return {
            "N": self.modulus,
            "tau": {str(k): str(v) for k, v in enumerate(self.values)},
            "epsilon": DEFAULT_EPSILON,
            "note": "defined up to unit",
        }


# ---------------------------------------------------------------------------
# Torsion from a minor
# ---------------------------------------------------------------------------

def torsion_from_minor(minor: GroupRingElem, g_class: int, h_class: int
                       ) -> TorsionVector:
    """Build the torsion vector from one abelianized Fox minor.

    g_class and h_class are the exponents of the dual-curve homology
    classes (elements of Z/N written as powers of t).  Component d of the
    result is (zeta_d^g - 1)^-1 (zeta_d^h - 1)^-1 phi_d(minor) for every
    divisor d > 1 of N, with the default unit eps_d = 1; the trivial
    component is 0.
    """
    n = minor.modulus
    components: dict[int, CyclotomicNumber] = {}
    for d in divisor_levels(n):
        if d == 1:
            components[1] = CyclotomicNumber.zero(1)
            continue
        if g_class % d == 0:
            raise TorsionPreconditionError(
                f"dual class g = t^{g_class} is trivial at conductor {d}")
        if h_class % d == 0:
            raise TorsionPreconditionError(
                f"dual class h = t^{h_class} is trivial at conductor {d}")
        one = CyclotomicNumber.one(d)
        fg = CyclotomicNumber.zeta_power(d, g_class) - one
        fh = CyclotomicNumber.zeta_power(d, h_class) - one
        components[d] = fg.inv() * fh.inv() * phi_at_divisor(minor, d)
    return TorsionVector(n, phi_reconstruct_divisors(components, n).coeffs)


# ---------------------------------------------------------------------------
# Correction terms
# ---------------------------------------------------------------------------

def d_invariants(tau: TorsionVector, casson_walker: Fraction) -> dict[int, Fraction]:
    """Pointwise d(t^k) = 2 tau(t^k) - lambda for an L-space with the given
    Casson-Walker invariant."""
    lam = Fraction(casson_walker)
    return {k: 2 * v - lam for k, v in enumerate(tau.values)}
