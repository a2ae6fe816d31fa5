"""Regenerate the committed reference inputs under perfbench/reference/.

Usage (from the repository root, in a git checkout with a clean src/):

    python3 perfbench/make_reference.py

Writes
  catalog_d25.json  the output of `qatorsion catalog --det 25`; the verdict
                    workload reads it, so its set-up never builds a catalog
  family.json       sha256 of `qatorsion family --j J --nmax 10 --format json`
                    for J = 0..9
  affine.json       per offset j: tau_0 and delta with tau_n = tau_0 + n*delta,
                    the same for the (4,4) minor, and the n-independent fields
                    of a family record; the C(25) bound and verdict strings
  manifest.json     for each file: the commit that produced it and its sha256

The script checks the affine form exactly on n = 0..10 before writing it.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF = os.path.join(HERE, "reference")
sys.path.insert(0, os.path.join(ROOT, "src"))

from qatorsion import cli, lattice, pipeline  # noqa: E402


def _commit() -> str:
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           cwd=ROOT, capture_output=True, text=True, check=True)
    if dirty.stdout.strip():
        raise SystemExit("src/ has uncommitted changes; references must come "
                         "from a commit")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return head.stdout.strip()


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"qatorsion {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _affine(values_by_n):
    """(v0, delta) if the vectors are exactly affine in n, else None."""
    v0, v1 = values_by_n[0], values_by_n[1]
    delta = [b - a for a, b in zip(v0, v1)]
    for n, vals in values_by_n.items():
        if list(vals) != [a + n * d for a, d in zip(v0, delta)]:
            return None
    return [str(x) for x in v0], [str(x) for x in delta]


def family_affine(j: int) -> dict:
    report = pipeline.run_family(j, range(0, 11))
    doc = report.to_json_dict()
    rec0 = doc["records"][0]
    entry = {
        "casson_walker": doc["casson_walker"], "epsilon": doc["epsilon"],
        "p_of_n": doc["p_of_n"], "q_of_n": doc["q_of_n"],
        "homology": rec0["homology"], "images": rec0["images"],
        "determinant": rec0["determinant"], "signature": rec0["signature"],
        "cyclic": rec0["tau"] is not None,
    }
    for r in doc["records"]:
        for key in ("homology", "images", "determinant", "signature"):
            if r[key] != rec0[key]:
                raise SystemExit(f"j={j}: {key} changes with n")
    if entry["cyclic"]:
        taus = {r["n"]: [Fraction(r["tau"]["tau"][str(k)]) for k in range(25)]
                for r in doc["records"]}
        minors = {r["n"]: [Fraction(c) for c in r["minor"]["coeffs"]]
                  for r in doc["records"]}
        tau_form, minor_form = _affine(taus), _affine(minors)
        if tau_form is None or minor_form is None:
            raise SystemExit(f"j={j}: torsion or minor is not affine in n")
        entry.update({
            "tau0": tau_form[0], "delta": tau_form[1],
            "minor0": minor_form[0], "minor_delta": minor_form[1],
            "tau_epsilon": rec0["tau"]["epsilon"], "tau_note": rec0["tau"]["note"],
        })
    return entry


def main():
    commit = _commit()
    os.makedirs(REF, exist_ok=True)
    files = {}

    catalog_text = _cli(["catalog", "--det", "25"])
    files["catalog_d25.json"] = (catalog_text, "qatorsion catalog --det 25")

    digests = {}
    for j in range(10):
        out = _cli(["family", "--j", str(j), "--nmax", "10", "--format", "json"])
        digests[str(j)] = hashlib.sha256(out.encode()).hexdigest()
    files["family.json"] = (json.dumps({"sha256": digests}, indent=1) + "\n",
                            "qatorsion family --j J --nmax 10 --format json")

    catalog = lattice.catalog_from_json(catalog_text)
    bound = lattice.c_bound(25, catalog)
    affine = {
        "offsets": {str(j): family_affine(j) for j in range(10)},
        "c_bound": bound.to_json_dict(),
        "conditions": [lattice.CATALOG_CONDITION, lattice.UNIT_CONDITION],
    }
    files["affine.json"] = (json.dumps(affine, indent=1) + "\n",
                            "pipeline.run_family(j, range(0, 11)), "
                            "lattice.c_bound(25, catalog_d25)")

    manifest = {}
    for name, (text, how) in files.items():
        with open(os.path.join(REF, name), "w") as fh:
            fh.write(text)
        manifest[name] = {"commit": commit, "produced_by": how,
                          "sha256": hashlib.sha256(text.encode()).hexdigest()}
    with open(os.path.join(REF, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(files)} reference files at commit {commit}")


if __name__ == "__main__":
    main()
