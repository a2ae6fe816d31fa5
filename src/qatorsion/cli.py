"""Command-line interface.

Subcommands cover the individual stages (minor, homology, torsion, jones,
lambda, dinv, mlattice, cbound, verdict) and the end-to-end family run.
Exit status: 0 on success, 1 on usage errors or malformed input files,
2 when an internal consistency assertion fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .covers import (HomologyNotCyclicError, HomologyNotFiniteError,
                     homology_invariants, kanenobu_presentation)
from .diagrams import DiagramError, LinkDiagram, kanenobu_diagram
from .foxcalc import presentation_from_text
from .lattice import (GramLattice, LatticeError, build_catalog, c_bound,
                      catalog_from_json, catalog_to_json, m_invariant)
from .pipeline import (FamilyRecord, PipelineAssertionError,
                       family_casson_walker, family_member, run_family)
from .skein import CrossingBudgetError, jones_polynomial, mullins_lambda
from .torsion import DEFAULT_EPSILON

USAGE_EXIT = 1
ASSERTION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=False))
    else:
        print(text)


def _load_diagram(args) -> LinkDiagram:
    if getattr(args, "pd", None):
        with open(args.pd) as fh:
            return LinkDiagram.from_text(fh.read())
    p, q = args.kanenobu
    return kanenobu_diagram(p, q)


def _load_catalog(args) -> list[GramLattice]:
    if getattr(args, "catalog", None):
        with open(args.catalog) as fh:
            return catalog_from_json(fh.read())
    return build_catalog(25)


def _member(args, bound=None) -> tuple[Fraction, FamilyRecord]:
    """Casson-Walker invariant and checked record of the n-th base-family
    member."""
    lam = family_casson_walker(0)
    epsilon = getattr(args, "epsilon", DEFAULT_EPSILON)
    return lam, family_member(0, args.n, lam, epsilon, bound)


def main(argv=None) -> int:
    parser = _Parser(prog="qatorsion",
                     description="torsion and lattice obstructions for "
                                 "branched double covers of the two-twist-region knots")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    # accept --format after the subcommand too
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_torsion = sub.add_parser("torsion", parents=[common], help="torsion vector of the n-th cover")
    p_torsion.add_argument("--n", type=int, required=True)
    p_torsion.add_argument("--epsilon", default=DEFAULT_EPSILON)

    p_minor = sub.add_parser("minor", parents=[common], help="abelianized (4,4) Fox minor")
    p_minor.add_argument("--n", type=int, required=True)

    p_hom = sub.add_parser("homology", parents=[common], help="first homology of a cover")
    g = p_hom.add_mutually_exclusive_group(required=True)
    g.add_argument("--pres", help="presentation file")
    g.add_argument("--kanenobu", nargs=2, type=int, metavar=("P", "Q"))

    p_jones = sub.add_parser("jones", parents=[common], help="Jones polynomial of a diagram")
    g = p_jones.add_mutually_exclusive_group(required=True)
    g.add_argument("--pd", help="PD code file")
    g.add_argument("--kanenobu", nargs=2, type=int, metavar=("P", "Q"))
    p_jones.add_argument("--budget", type=int, default=24)

    p_lambda = sub.add_parser("lambda", parents=[common], help="Casson-Walker invariant of the "
                                             "double branched cover of a diagram")
    p_lambda.add_argument("--pd", required=True)

    p_dinv = sub.add_parser("dinv", parents=[common], help="correction terms of the n-th cover")
    p_dinv.add_argument("--n", type=int, required=True)
    p_dinv.add_argument("--epsilon", default=DEFAULT_EPSILON)

    p_mlat = sub.add_parser("mlattice", parents=[common], help="m invariant of a lattice")
    p_mlat.add_argument("--gram", required=True, help="JSON file with a Gram matrix")

    p_cb = sub.add_parser("cbound", parents=[common], help="C(D) over a lattice catalog")
    p_cb.add_argument("--det", type=int, required=True)
    p_cb.add_argument("--catalog", help="catalog JSON (default: generate rank <= 4)")

    p_verdict = sub.add_parser("verdict", parents=[common], help="obstruction verdict for the n-th cover")
    p_verdict.add_argument("--n", type=int, required=True)
    p_verdict.add_argument("--catalog", help="catalog JSON (default: generate rank <= 4)")
    p_verdict.add_argument("--epsilon", default=DEFAULT_EPSILON)

    p_family = sub.add_parser("family", parents=[common], help="full pipeline over a range of n")
    p_family.add_argument("--j", type=int, default=0)
    p_family.add_argument("--nmax", type=int, required=True)
    p_family.add_argument("--epsilon", default=DEFAULT_EPSILON)
    p_family.add_argument("--catalog")

    p_cat = sub.add_parser("catalog", parents=[common], help="write the generated lattice catalog")
    p_cat.add_argument("--det", type=int, default=25)
    p_cat.add_argument("--out", help="output file (default stdout)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (DiagramError, LatticeError, HomologyNotFiniteError,
            HomologyNotCyclicError, CrossingBudgetError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PipelineAssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return ASSERTION_EXIT


def _dispatch(args) -> int:
    if args.command == "torsion":
        tau = _member(args)[1].tau
        text = "\n".join(f"t^{k}: {v}" for k, v in enumerate(tau.values))
        _emit(args, tau.to_json_dict(), text)
    elif args.command == "minor":
        minor = _member(args)[1].minor
        _emit(args, minor.to_json_dict(), minor.to_string())
    elif args.command == "homology":
        if args.pres:
            with open(args.pres) as fh:
                factors, images, modulus = homology_invariants(
                    presentation_from_text(fh.read()))
        else:
            # the cover already carries H_1; only an infinite H_1 (no
            # factors) goes back to raise with its free rank
            cover = kanenobu_presentation(*args.kanenobu)
            if cover.factors is None:
                homology_invariants(cover.presentation)
            factors, images, modulus = (list(cover.factors), cover.g_classes,
                                        cover.modulus)
        if not factors:
            group = "trivial"
        else:
            group = " + ".join(f"Z/{f}" for f in factors)
        payload = {"group": group, "factors": factors,
                   "images": list(images) if images else None,
                   "modulus": modulus}
        if images is not None and modulus and modulus > 1:
            gens = " ".join(
                f"a{i+1}->t^{k}" if k != 1 else f"a{i+1}->t"
                for i, k in enumerate(images))
            text = f"{group}; {gens}"
        else:
            text = group
        _emit(args, payload, text)
    elif args.command == "jones":
        v = jones_polynomial(_load_diagram(args), budget=args.budget)
        _emit(args, {"jones": v.to_string()}, v.to_string())
    elif args.command == "lambda":
        lam = mullins_lambda(_load_diagram(args))
        _emit(args, {"casson_walker": str(lam)}, str(lam))
    elif args.command == "dinv":
        lam, record = _member(args)
        d = record.d_values
        payload = {"N": record.tau.modulus, "lambda": str(lam),
                   "epsilon": record.tau.unit_ambiguity,
                   "d": {str(k): str(v) for k, v in d.items()},
                   "note": "defined up to the torsion unit action"}
        text = "\n".join(f"t^{k}: {v}" for k, v in d.items())
        _emit(args, payload, text)
    elif args.command == "mlattice":
        with open(args.gram) as fh:
            lat = GramLattice.from_json_dict(json.loads(fh.read()))
        value = m_invariant(lat)
        _emit(args, {"rank": lat.rank, "disc": lat.disc, "m": str(value)},
              str(value))
    elif args.command == "cbound":
        catalog = (_load_catalog(args) if args.det == 25 or args.catalog
                   else build_catalog(args.det))
        bound = c_bound(args.det, catalog)
        word = "complete" if bound.complete else "incomplete"
        _emit(args, bound.to_json_dict(), f"{bound.value} ({word})")
    elif args.command == "verdict":
        bound = c_bound(25, _load_catalog(args))
        verdict = _member(args, bound)[1].verdict
        text = verdict.verdict
        if verdict.conditions_unmet:
            text += " [" + "; ".join(verdict.conditions_unmet) + "]"
        _emit(args, verdict.to_json_dict(), text)
    elif args.command == "family":
        catalog = None
        if args.catalog:
            with open(args.catalog) as fh:
                catalog = catalog_from_json(fh.read())
        report = run_family(args.j, range(0, args.nmax + 1), args.epsilon,
                            catalog=catalog)
        if args.format == "json":
            print(report.to_json())
        else:
            print(f"family offset {report.offset}: lambda = {report.casson_walker}, "
                  f"affine growth = {report.affine}")
            for r in report.records:
                verdict = r.verdict.verdict if r.verdict else "-"
                print(f"  n={r.n}: H1 = {'x'.join(str(f) for f in r.homology_factors)}, "
                      f"det = {r.determinant}, sigma = {r.signature}, "
                      f"min d = {r.min_d}, verdict = {verdict}")
    elif args.command == "catalog":
        catalog = build_catalog(args.det)
        text = catalog_to_json(catalog)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {len(catalog)} lattices to {args.out}")
        else:
            print(text)
    else:  # pragma: no cover
        raise AssertionError(f"unhandled command {args.command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
