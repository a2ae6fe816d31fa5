"""Run a fixed list of `qatorsion` command lines in one process and write
{argv: [exit code, stdout sha256, stderr]} as JSON, so that two source
trees can be compared with one diff:

    PYTHONPATH=src python tools/cli_sweep.py new.json
    PYTHONPATH=../parent/src python tools/cli_sweep.py old.json
    diff old.json new.json

The input files (PD codes, presentations, a Gram matrix and the reference
lattice catalog of perfbench/reference) are written to a temporary
directory that the sweep runs in, so every argv names them by the same
relative path whichever tree is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from qatorsion import cli
from qatorsion.diagrams import kanenobu_diagram

CATALOG = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "catalog_d25.json"

LITERAL_FILES = {
    "trefoil.pd": "X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]\nO[0: 1 2 3 4 5 6]\n",
    "figure8.pd": "X[4,2,5,1], X[8,6,1,5], X[6,3,7,4], X[2,7,3,8]\n",
    "hopf.pd": "X[4,1,3,2], X[2,3,1,4]\n",
    "torus24.pd": "X[1,5,2,8], X[5,3,6,2], X[3,7,4,6], X[7,1,8,4]\n",
    "unlink.pd": "O[loop], O[loop]\n",
    "trefoil_loop.pd": "X[1,4,2,5], X[3,6,4,1], X[5,2,6,3], O[loop]\n",
    "not_sphere.pd": "X[2,3,4,1], X[4,1,3,2]\n",
    "arc_thrice.pd": "X[1,1,1,2]\n",
    "rotated.pd": "X[2,5,1,4], X[3,6,4,1], X[5,2,6,3]\n",
    "hopf_rotated.pd": "X[4,1,3,2], X[3,1,4,2]\n",
    "reversed.pd": "X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]\nO[0: 6 5 4 3 2 1]\n",
    "garbled.pd": "X[1,4,2,5] Y[3]\n",
    "z6.pres": "gens 2\na1 a1\na2 a2 a2\n",
    "z3.pres": "gens 2\na1 a2^-1\na1 a1 a1\nassign 1 1 mod 3\n",
    "kept_relator.pres": "gens 2\na1 a2^-1\na1 a1 a1\nassign 1 1 mod 2\n",
    "infinite.pres": "gens 2\na1 a2\n",
    "gram.json": "[[-2, 1], [1, -3]]\n",
    "indefinite.json": "[[1, 0], [0, -1]]\n",
}

GENERATED = [(0, 3), (-1, 4), (2, -1), (-3, 6), (1, 1)]
BOTH = ("text", "json")


def invocations() -> list[list[str]]:
    runs: list[list[str]] = []
    for fmt in BOTH:
        f = ["--format", fmt]
        runs += [f + ["family", "--j", str(j), "--nmax", "10"] for j in range(10)]
        for command in ("torsion", "minor", "dinv"):
            runs += [f + [command, "--n", str(n)] for n in range(4)]
        runs += [f + ["verdict", "--n", str(n), "--catalog", "catalog_d25.json"]
                 for n in range(13)]
        for d in (1, 2, 3, 4, 5, 8, 12, 16, 25, 27):
            runs += [f + ["catalog", "--det", str(d)], f + ["cbound", "--det", str(d)]]
        runs += [f + ["cbound", "--det", "25", "--catalog", "catalog_d25.json"]]
        runs += [f + ["jones", "--kanenobu", str(p), str(q)]
                 for p in range(-6, 7) for q in range(-6, 7)]
        runs += [f + ["homology", "--kanenobu", str(p), str(q)]
                 for p, q in ((-10, 13), (3, -2), (0, 3))]
        for name in sorted(LITERAL_FILES) + [f"generated_{p}_{q}.pd" for p, q in GENERATED]:
            if name.endswith(".pd"):
                runs += [f + ["jones", "--pd", name], f + ["lambda", "--pd", name]]
            elif name.endswith(".pres"):
                runs += [f + ["homology", "--pres", name]]
            else:
                runs += [f + ["mlattice", "--gram", name]]
    # error inputs outside the files above
    runs += [["jones", "--kanenobu", "-10", "13"], ["jones", "--budget", "3", "--pd", "figure8.pd"],
             ["jones", "--pd", "missing.pd"], ["minor", "--n", "1_0"], ["torsion"],
             ["cbound", "--det", "0"], ["catalog", "--det", "-1"], ["verdict", "--n", "-1"]]
    return runs


def run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]


def main(out_path: str) -> int:
    out_path = os.path.abspath(out_path)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in LITERAL_FILES.items():
                Path(name).write_text(text)
            for p, q in GENERATED:
                crossings = kanenobu_diagram(p, q).crossings
                Path(f"generated_{p}_{q}.pd").write_text(
                    ", ".join("X[%d,%d,%d,%d]" % c for c in crossings) + "\n")
            shutil.copy(CATALOG, "catalog_d25.json")
            results = {" ".join(argv): run(argv) for argv in invocations()}
        finally:
            os.chdir(home)
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(results)} invocations -> {out_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_sweep.py OUT.json")
    sys.exit(main(sys.argv[1]))
