"""Output checker.  It imports nothing from qatorsion: every expected value
comes from the committed references in perfbench/reference/ and from the
small exact arithmetic below.

  family       stdout must be byte-identical to the reference (sha256)
  family_deep  the report must equal the one rebuilt from the committed
               affine form tau_n = tau_0 + n*delta (and likewise the minor)
  verdict      the JSON verdict must equal the one rebuilt from tau_0, delta,
               the Casson-Walker invariant and the committed C(25)
  catalog      the catalog must equal the reference up to isometry, judged by
               per-rank counts and by each lattice's counts of vectors of
               every norm up to THETA_NORMS (these separate all 20 reference
               classes); different representatives are allowed

`check(op, text, refs)` returns None for a correct output, else a reason.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import Counter
from fractions import Fraction
from math import isqrt

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
THETA_NORMS = 8
DISC = 25


def load_refs(ref_dir: str = REF_DIR) -> dict:
    """Read the committed references and verify them against the manifest."""
    with open(os.path.join(ref_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    texts = {}
    for name, entry in manifest.items():
        with open(os.path.join(ref_dir, name)) as fh:
            texts[name] = fh.read()
        if hashlib.sha256(texts[name].encode()).hexdigest() != entry["sha256"]:
            raise ValueError(f"reference {name} does not match its manifest digest")
    catalog = json.loads(texts["catalog_d25.json"])
    signature = catalog_signature(catalog)
    if max(signature.values()) > 1:
        raise ValueError("the catalog invariants no longer separate the "
                         "reference classes; raise THETA_NORMS")
    return {
        "catalog_path": os.path.join(ref_dir, "catalog_d25.json"),
        "family_sha256": json.loads(texts["family.json"])["sha256"],
        "affine": json.loads(texts["affine.json"]),
        "catalog_signature": signature,
    }


# ---------------------------------------------------------------------------
# Expected reports from the affine form
# ---------------------------------------------------------------------------

def _tau(entry: dict, n: int) -> list[Fraction]:
    return [Fraction(a) + n * Fraction(d)
            for a, d in zip(entry["tau0"], entry["delta"])]


def expected_record(entry: dict, j: int, n: int) -> dict:
    rec = {"n": n, "p": -10 * n - j, "q": 10 * n + j + 3,
           "homology": entry["homology"], "images": entry["images"],
           "minor": None, "tau": None, "min_tau": None, "d": None,
           "min_d": None, "determinant": entry["determinant"],
           "signature": entry["signature"], "verdict": None}
    if entry["cyclic"]:
        tau = _tau(entry, n)
        lam = Fraction(entry["casson_walker"])
        d = [2 * v - lam for v in tau]
        minor = [Fraction(a) + n * Fraction(b)
                 for a, b in zip(entry["minor0"], entry["minor_delta"])]
        rec.update({
            "minor": {"modulus": DISC, "coeffs": [str(c) for c in minor]},
            "tau": {"N": DISC, "tau": {str(k): str(v) for k, v in enumerate(tau)},
                    "epsilon": entry["tau_epsilon"], "note": entry["tau_note"]},
            "min_tau": str(min(tau)),
            "d": {str(k): str(v) for k, v in enumerate(d)},
            "min_d": str(min(d)),
        })
    return rec


def expected_family_report(affine: dict, j: int, ns) -> dict:
    entry = affine["offsets"][str(j)]
    ns = sorted(set(ns))
    growth = entry["cyclic"] and len(ns) >= 2
    return {
        "family_offset": j, "p_of_n": entry["p_of_n"], "q_of_n": entry["q_of_n"],
        "epsilon": entry["epsilon"], "casson_walker": entry["casson_walker"],
        "c_bound": None, "affine_torsion_growth": growth,
        "delta_min": str(min(Fraction(d) for d in entry["delta"])) if growth else None,
        "records": [expected_record(entry, j, n) for n in ns],
    }


def expected_verdict(affine: dict, n: int) -> dict:
    entry = affine["offsets"]["0"]
    lam = Fraction(entry["casson_walker"])
    min_d = min(2 * v - lam for v in _tau(entry, n))
    bound = affine["c_bound"]
    fires = min_d < Fraction(bound["value"])
    return {"disc": DISC, "min_d": str(min_d), "c_bound": bound,
            "obstruction_fires": fires, "unit_pinned": False,
            "verdict": "non-QA conditional" if fires else "not obstructed",
            "conditions_unmet": list(affine["conditions"]) if fires else []}


# ---------------------------------------------------------------------------
# Catalog invariants (exact, independent of the package)
# ---------------------------------------------------------------------------

def _inverse(a: list[list[int]]) -> tuple[Fraction, list[list[Fraction]]]:
    """(det, inverse) of a nonsingular integer matrix by Gauss-Jordan."""
    r = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(r)]
         for i, row in enumerate(a)]
    det = Fraction(1)
    for c in range(r):
        p = next((i for i in range(c, r) if m[i][c] != 0), None)
        if p is None:
            raise ValueError("singular Gram matrix")
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(r):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det, [row[r:] for row in m]


def lattice_signature(gram) -> tuple:
    """(rank, counts of vectors of norm 1..THETA_NORMS) of a negative-definite
    Gram matrix with |det| = DISC; raises ValueError on an invalid one."""
    r = len(gram)
    if r >= DISC or any(len(row) != r for row in gram):
        raise ValueError("Gram matrix must be square with rank < disc")
    if not all(isinstance(x, int) for row in gram for x in row):
        raise ValueError("Gram matrix must be integral")
    a = [[-x for x in row] for row in gram]
    if any(a[i][j] != a[j][i] for i in range(r) for j in range(r)):
        raise ValueError("Gram matrix must be symmetric")
    for k in range(1, r + 1):
        if _inverse([row[:k] for row in a[:k]])[0] <= 0:
            raise ValueError("Gram matrix is not negative definite")
    if r == 0:
        raise ValueError("rank 0 has disc 1")
    det, inv = _inverse(a)
    if det != DISC:
        raise ValueError(f"|det| = {abs(det)}, expected {DISC}")
    # |x_i| <= sqrt(B * (A^-1)_ii) for x^T A x <= B
    bounds = []
    for i in range(r):
        v = THETA_NORMS * inv[i][i]
        bounds.append(isqrt(v.numerator * v.denominator) // v.denominator + 1)
    counts = [0] * (THETA_NORMS + 1)
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        q = sum(x[i] * a[i][j] * x[j] for i in range(r) for j in range(r))
        if 0 < q <= THETA_NORMS:
            counts[q] += 1
    return (r, tuple(counts[1:]))


def catalog_signature(catalog) -> Counter:
    return Counter(lattice_signature(item["gram"]) for item in catalog)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def check(op: dict, text: str, refs: dict):
    """None if `text` is the correct output of `op`, else the reason."""
    kind = op["check"]
    try:
        if kind == "family":
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != refs["family_sha256"][str(op["j"])]:
                return f"family --j {op['j']}: output differs from the reference"
            return None
        doc = json.loads(text)
        if kind == "family_deep":
            want = expected_family_report(refs["affine"], op["j"], op["n"])
        elif kind == "verdict":
            want = expected_verdict(refs["affine"], op["k"])
        elif kind == "catalog":
            got = catalog_signature(doc)
            if got != refs["catalog_signature"]:
                return ("catalog differs from the reference up to isometry: "
                        f"{sum((got - refs['catalog_signature']).values())} extra, "
                        f"{sum((refs['catalog_signature'] - got).values())} missing")
            return None
        else:
            raise ValueError(f"unknown check {kind!r}")
    except (ValueError, KeyError, TypeError) as exc:
        return f"{kind}: malformed output ({type(exc).__name__}: {exc})"
    if doc != want:
        return f"{kind}: output differs from the expected {kind} result"
    return None
