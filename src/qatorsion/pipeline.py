"""End-to-end orchestration: run one twist family through homology,
torsion, correction terms, and the lattice obstruction, with internal
consistency assertions at every step.

Every computation for a single member of the family goes through
`family_member`, so the family run and the command line's per-member
subcommands all run the same checks.  Assertion failures raise
PipelineAssertionError naming the failed mathematical check, so drift in
any module surfaces with a diagnosable message (the command line maps
these to exit status 2).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import prod

from .covers import (abelianized_minor, kanenobu_minor_closed_form,
                     kanenobu_presentation, kanenobu_white_graph)
from .diagrams import kanenobu_diagram, parity_reduced_diagram
from .groupring import GroupRingElem
from .lattice import CBound, GramLattice, QAVerdict, c_bound, qa_verdict
from .records import Record
from .skein import goeritz_invariants, mullins_lambda
from .torsion import (DEFAULT_EPSILON, TorsionVector, d_invariants,
                      torsion_from_minor)


class PipelineAssertionError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PipelineAssertionError(message)


class FamilyRecord(Record):
    """Everything computed for one member of the family."""

    n: int
    p: int
    q: int
    homology_factors: tuple[int, ...]
    homology_images: tuple[int, ...] | None
    minor: GroupRingElem | None
    tau: TorsionVector | None
    min_tau: Fraction | None
    d_values: dict[int, Fraction] | None
    min_d: Fraction | None
    determinant: int
    signature: int
    verdict: QAVerdict | None

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


class PipelineReport(Record):
    offset: int                       # the family K_{-10n-j, 10n+j+3}
    casson_walker: Fraction
    records: tuple[FamilyRecord, ...]
    c_bound: CBound | None
    delta: TorsionVector | None       # tau_{n+1} - tau_n, when two or more taus exist

    @property
    def affine(self) -> bool:
        return self.delta is not None

    @property
    def delta_min(self) -> Fraction | None:
        return self.delta.min_value() if self.delta else None

    def to_json_dict(self) -> dict:
        return {
            "family_offset": self.offset,
            "p_of_n": f"-10n-{self.offset}" if self.offset else "-10n",
            "q_of_n": f"10n+{self.offset + 3}",
            "epsilon": DEFAULT_EPSILON,
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


@lru_cache(maxsize=None)
def family_casson_walker(offset: int) -> Fraction:
    """Casson-Walker invariant of the double branched cover of K_{0, offset+3}.

    Sliding (p, q) -> (p+1, q-1) preserves the Jones polynomial (checked
    exactly on small members by the test suite), the signature vanishes for
    these ribbon knots, and the surgery formula only sees V and sigma, so
    this is the invariant of every K_{p,q} with p + q = offset + 3.  Family
    members have p + q = 3, so it is theirs only for offset 0; for offset
    j >= 1 it is not (ROADMAP item 4a, pinned by the strict xfail
    `test_family_lambda_is_lambda_of_its_member`), and the d values built
    on it read 4j/25 too high.

    The value is a pure function of the offset, so it is computed once per
    offset per process and then served from a cache.  A test that patches
    the diagram or Jones path must call `family_casson_walker.cache_clear()`
    before and after, or it reads (or leaves behind) a stale value.
    """
    return mullins_lambda(kanenobu_diagram(0, offset + 3))


def family_member(offset: int, n: int, casson_walker: Fraction,
                  bound: CBound | None = None) -> FamilyRecord:
    """Compute and check the member K_{-10n-j, 10n+j+3} of family j = offset.

    The member's white graph holds each twist region as one weighted edge,
    so every step below costs the same for every n.  H_1 must have order
    25.  When it is cyclic, the abelianized (4,4) minor gives the torsion
    vector, the correction terms d = 2 tau - lambda (lambda =
    casson_walker) and, given a bound C(25), the verdict; for the base
    family the generator images and the minor must match their closed
    forms, and H_1 must be cyclic.  The diagram must have determinant 25
    and signature 0: both come from the Goeritz form of the parity-reduced
    diagram (each twist region cut to 1 or 2 crossings of its parity),
    lifted to the true twist counts.
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
        tau = torsion_from_minor(minor, cover.g_classes[3], cover.h_classes[3])
        dvals = d_invariants(tau, casson_walker)
        if bound is not None:
            verdict = qa_verdict(list(dvals.values()), 25, bound,
                                 unit_pinned=False)
    elif offset == 0:
        _require(False, "the base family must have cyclic homology")
    _g, det, sig = goeritz_invariants(
        *parity_reduced_diagram(kanenobu_white_graph(p, q)))
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
                          tuple(v / (n1 - n0) for v in (taus[n1] - base).values))
    _require(all(taus[m].values == tuple(t0 + (m - n0) * d
                                         for t0, d in zip(base.values, delta.values))
                 for m in ns),
             "torsion is not affine in the twist parameter")
    _require(delta.min_value() < 0,
             "torsion growth direction: min coefficient of the "
             "per-step difference must be negative")
    return delta


def run_family(offset: int, n_values: Sequence[int],
               catalog: Sequence[GramLattice] | None = None) -> PipelineReport:
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
    records = tuple(family_member(offset, n, lam, bound) for n in n_values)
    taus = {r.n: r.tau for r in records if r.tau is not None}
    return PipelineReport(offset=offset, casson_walker=lam, records=records,
                          c_bound=bound,
                          delta=_affine_step(taus) if len(taus) >= 2 else None)
