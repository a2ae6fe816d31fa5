"""Self-test of the output checker.

Usage (from the repository root):  python3 perfbench/selftest.py

Real outputs of each workload's operation must pass check.check; the same
outputs with one torsion coefficient changed, one catalog lattice dropped
or duplicated, or a wrong verdict string must fail, which run.py counts as
a failed operation.  A catalog lattice given in another basis must pass,
because the catalog is compared up to isometry.  Exits 1 if any case
disagrees.
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qatorsion import cli, pipeline  # noqa: E402


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(argv) != 0:
            raise SystemExit(f"qatorsion {' '.join(argv)} failed")
    return buf.getvalue()


def _bump_tau(doc: dict, record: int) -> None:
    tau = doc["records"][record]["tau"]["tau"]
    tau["0"] = str(Fraction(tau["0"]) + 1)


def main() -> int:
    refs = check.load_refs()
    cases = []   # (description, op, text, should_pass)

    family_op = {"check": "family", "j": 0}
    text = _cli(["family", "--j", "0", "--nmax", "10", "--format", "json"])
    doc = json.loads(text)
    assert json.dumps(doc, indent=1) + "\n" == text, "family JSON round trip"
    _bump_tau(doc, 3)
    cases += [("family j=0 as produced", family_op, text, True),
              ("family j=0, one tau coefficient changed", family_op,
               json.dumps(doc, indent=1) + "\n", False)]

    deep_op = {"check": "family_deep", "j": 2, "n": [0, 40]}
    text = pipeline.run_family(2, [0, 40]).to_json()
    doc = json.loads(text)
    _bump_tau(doc, 1)
    cases += [("family_deep j=2 n=40 as produced", deep_op, text, True),
              ("family_deep j=2 n=40, one tau coefficient changed", deep_op,
               json.dumps(doc), False)]

    for k, wrong in ((8, "not obstructed"), (3, "non-QA conditional")):
        op = {"check": "verdict", "k": k}
        text = _cli(["verdict", "--n", str(k), "--catalog", refs["catalog_path"],
                     "--format", "json"])
        doc = json.loads(text)
        doc["verdict"] = wrong
        cases += [(f"verdict n={k} as produced", op, text, True),
                  (f"verdict n={k}, verdict string '{wrong}'", op,
                   json.dumps(doc), False)]

    catalog_op = {"check": "catalog"}
    with open(refs["catalog_path"]) as fh:
        catalog = json.load(fh)
    # another basis of the last lattice: e_1 -> e_1 + e_2 (unimodular)
    g = [row[:] for row in catalog[-1]["gram"]]
    r = len(g)
    for i in range(r):
        g[i][0] += g[i][1]
    for j in range(r):
        g[0][j] += g[1][j]
    rebased = catalog[:-1] + [{"rank": r, "gram": g}]
    cases += [("catalog as committed", catalog_op, json.dumps(catalog), True),
              ("catalog, last lattice in another basis", catalog_op,
               json.dumps(rebased), True),
              ("catalog, one lattice dropped", catalog_op,
               json.dumps(catalog[:-1]), False),
              ("catalog, one lattice replaced by a copy of another", catalog_op,
               json.dumps(catalog[:-1] + [catalog[-2]]), False)]

    bad = 0
    for desc, op, text, should_pass in cases:
        reason = check.check(op, text, refs)
        ok = (reason is None) == should_pass
        bad += not ok
        verdict = "passes" if reason is None else f"fails ({reason})"
        print(f"{'ok  ' if ok else 'BAD '} {desc}: {verdict}")
    print(f"{len(cases) - bad}/{len(cases)} checker cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
