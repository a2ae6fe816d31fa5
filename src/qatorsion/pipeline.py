"""End-to-end orchestration: run one twist family through homology,
torsion, correction terms, and the lattice obstruction, with internal
consistency assertions at every step.

Every computation for a single member of the family goes through
`family_member`, so the family run, the growth report and the command
line's per-member subcommands all run the same checks.  Assertion failures
raise PipelineAssertionError naming the failed mathematical check, so drift
in any module surfaces with a diagnosable message (the command line maps
these to exit status 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from .covers import (abelianized_minor, kanenobu_minor_closed_form,
                     kanenobu_presentation)
from .diagrams import kanenobu_diagram
from .groupring import GroupRingElem
from .lattice import CBound, GramLattice, QAVerdict, c_bound, qa_verdict
from .skein import goeritz_invariants, mullins_lambda
from .torsion import (DEFAULT_EPSILON, TorsionVector, d_invariants,
                      torsion_from_minor)


class PipelineAssertionError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PipelineAssertionError(message)


@dataclass(frozen=True)
class FamilyRecord:
    """Everything computed for one member of the family."""

    n: int
    p: int
    q: int
    homology_factors: tuple[int, ...]
    homology_images: Optional[tuple[int, ...]]
    minor: Optional[GroupRingElem]
    tau: Optional[TorsionVector]
    min_tau: Optional[Fraction]
    d_values: Optional[dict[int, Fraction]]
    min_d: Optional[Fraction]
    determinant: int
    signature: int
    verdict: Optional[QAVerdict]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "q": self.q,
            "homology": [int(f) for f in self.homology_factors],
            "images": list(self.homology_images) if self.homology_images else None,
            "minor": self.minor.to_json_dict() if self.minor else None,
            "tau": self.tau.to_json_dict() if self.tau else None,
            "min_tau": str(self.min_tau) if self.min_tau is not None else None,
            "d": {str(k): str(v) for k, v in self.d_values.items()} if self.d_values else None,
            "min_d": str(self.min_d) if self.min_d is not None else None,
            "determinant": self.determinant,
            "signature": self.signature,
            "verdict": self.verdict.to_json_dict() if self.verdict else None,
        }


@dataclass(frozen=True)
class PipelineReport:
    offset: int                       # the family K_{-10n-j, 10n+j+3}
    epsilon: str
    casson_walker: Fraction
    records: tuple[FamilyRecord, ...]
    c_bound: Optional[CBound]
    delta: Optional[TorsionVector]    # tau_{n+1} - tau_n, when two or more taus exist

    @property
    def affine(self) -> bool:
        return self.delta is not None

    @property
    def delta_min(self) -> Optional[Fraction]:
        return self.delta.min_value() if self.delta else None

    def to_json_dict(self) -> dict:
        return {
            "family_offset": self.offset,
            "p_of_n": f"-10n-{self.offset}" if self.offset else "-10n",
            "q_of_n": f"10n+{self.offset + 3}",
            "epsilon": self.epsilon,
            "casson_walker": str(self.casson_walker),
            "c_bound": self.c_bound.to_json_dict() if self.c_bound else None,
            "affine_torsion_growth": self.affine,
            "delta_min": str(self.delta_min) if self.delta_min is not None else None,
            "records": [r.to_json_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=False)


def family_parameters(offset: int, n: int) -> tuple[int, int]:
    return -10 * n - offset, 10 * n + offset + 3


def family_casson_walker(offset: int) -> Fraction:
    """Casson-Walker invariant of the double branched covers in the family,
    computed once on the small member (p, q) = (0, offset + 3).

    Valid for every n because sliding (p, q) -> (p+1, q-1) preserves the
    Jones polynomial (checked exactly on small members by the test suite),
    the signature vanishes for these ribbon knots, and the surgery formula
    only sees V and sigma.
    """
    return mullins_lambda(kanenobu_diagram(0, offset + 3))


def family_member(offset: int, n: int, casson_walker: Fraction,
                  epsilon: str = DEFAULT_EPSILON,
                  bound: Optional[CBound] = None) -> FamilyRecord:
    """Compute and check the member K_{-10n-j, 10n+j+3} of family j = offset.

    H_1 must have order 25.  When it is cyclic, the abelianized (4,4)
    minor gives the torsion vector, the correction terms d = 2 tau - lambda
    (lambda = casson_walker) and, given a bound C(25), the verdict; for the
    base family the generator images and the minor must match their closed
    forms, and H_1 must be cyclic.  The diagram must have determinant 25
    and signature 0.
    """
    if not (0 <= offset <= 9):
        raise ValueError("family offset must be in 0..9")
    if n < 0:
        raise ValueError("need n >= 0")
    p, q = family_parameters(offset, n)
    cover = kanenobu_presentation(p, q)
    factors = cover.factors
    order = prod(factors) if factors is not None else 0
    _require(order == 25,
             f"homology order {order} != 25 for (p, q) = ({p}, {q})")
    images = cover.g_classes
    minor = tau = dvals = verdict = None
    if images is not None:
        minor = abelianized_minor(cover, 4, 4)
        _require(cover.modulus == 25, "cyclic homology with unexpected modulus")
        if offset == 0:
            _require(images == (13, 3, 6, 1),
                     "generator images differ from (t^13, t^3, t^6, t)")
            _require(minor == kanenobu_minor_closed_form(n),
                     "abelianized (4,4) minor disagrees with the closed form "
                     "-n*sigma*(1+t+t^3) - 1 + t^2 - ... + t^24")
        tau = torsion_from_minor(minor, cover.g_classes[3], cover.h_classes[3],
                                 epsilon)
        dvals = d_invariants(tau, casson_walker)
        if bound is not None:
            verdict = qa_verdict(list(dvals.values()), 25, bound,
                                 unit_pinned=False)
    elif offset == 0:
        _require(False, "the base family must have cyclic homology")
    _g, det, sig = goeritz_invariants(kanenobu_diagram(p, q))
    _require(det == 25, f"diagram determinant {det} != 25 at n = {n}")
    _require(sig == 0, f"diagram signature {sig} != 0 at n = {n}")
    return FamilyRecord(
        n=n, p=p, q=q,
        homology_factors=factors,
        homology_images=images,
        minor=minor, tau=tau,
        min_tau=tau.min_value() if tau else None,
        d_values=dvals,
        min_d=min(dvals.values()) if dvals else None,
        determinant=det, signature=sig, verdict=verdict)


def _affine_step(taus: dict[int, TorsionVector]) -> TorsionVector:
    """The per-unit-step difference delta of two or more torsion vectors
    keyed by n, after checking tau_m = tau_{n0} + (m - n0) * delta exactly
    for every m and that delta has a negative minimum coefficient."""
    ns = sorted(taus)
    n0, n1 = ns[0], ns[1]
    base = taus[n0]
    delta = TorsionVector(base.modulus,
                          tuple(v / (n1 - n0) for v in (taus[n1] - base).values),
                          taus[n1].unit_ambiguity)
    _require(all(taus[m].values == tuple(t0 + (m - n0) * d
                                         for t0, d in zip(base.values, delta.values))
                 for m in ns),
             "torsion is not affine in the twist parameter")
    _require(delta.min_value() < 0,
             "torsion growth direction: min coefficient of the "
             "per-step difference must be negative")
    return delta


def run_family(offset: int, n_values: Sequence[int],
               epsilon: str = DEFAULT_EPSILON,
               catalog: Optional[Sequence[GramLattice]] = None) -> PipelineReport:
    """Compute the full obstruction pipeline for K_{-10n-j, 10n+j+3}: every
    member through `family_member`, then the affine growth of the torsion
    in n whenever two or more members have one."""
    if not (0 <= offset <= 9):
        raise ValueError("family offset must be in 0..9")
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values or n_values[0] < 0:
        raise ValueError("need a nonempty range of n >= 0")
    lam = family_casson_walker(offset)
    bound = c_bound(25, catalog) if catalog is not None else None
    records = tuple(family_member(offset, n, lam, epsilon, bound)
                    for n in n_values)
    taus = {r.n: r.tau for r in records if r.tau is not None}
    return PipelineReport(offset=offset, epsilon=epsilon, casson_walker=lam,
                          records=records, c_bound=bound,
                          delta=_affine_step(taus) if len(taus) >= 2 else None)


def torsion_kanenobu(n: int, epsilon: str = DEFAULT_EPSILON) -> TorsionVector:
    """Torsion of the branched double cover of K_{-10n,10n+3} via the (4,4)
    minor, with g = h = t."""
    return family_member(0, n, family_casson_walker(0), epsilon).tau


@dataclass(frozen=True)
class TorsionGrowthReport:
    n_max: int
    epsilon: str
    min_values: tuple[Fraction, ...]     # min coefficient of tau_n, n = 0..n_max
    delta: TorsionVector                 # tau_{n+1} - tau_n (constant in n)
    affine: bool                         # tau_n == tau_0 + n*delta exactly
    delta_min: Fraction
    decreasing_from: Optional[int]       # min is strictly decreasing for n >= this

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "epsilon": self.epsilon,
            "min_tau": [str(v) for v in self.min_values],
            "delta": {str(k): str(v) for k, v in enumerate(self.delta.values)},
            "affine": self.affine,
            "delta_min": str(self.delta_min),
            "strictly_decreasing_from": self.decreasing_from,
        }


def torsion_growth(n_max: int, epsilon: str = DEFAULT_EPSILON) -> TorsionGrowthReport:
    """Check tau_n = tau_0 + n * delta exactly over the base family
    n = 0..n_max and report the minimum coefficients; delta has zero sum and
    a negative minimum, so the minimum of tau_n eventually decreases without
    bound."""
    if n_max < 2:
        raise ValueError("need n_max >= 2 to see the growth")
    report = run_family(0, range(n_max + 1), epsilon)
    mins = tuple(r.min_tau for r in report.records)
    decreasing_from = None
    for start in range(n_max):
        if all(mins[m + 1] < mins[m] for m in range(start, n_max)):
            decreasing_from = start
            break
    return TorsionGrowthReport(
        n_max=n_max, epsilon=epsilon, min_values=mins, delta=report.delta,
        affine=report.affine, delta_min=report.delta_min,
        decreasing_from=decreasing_from)
