import importlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qatorsion.cli import main
from qatorsion.covers import kanenobu_presentation, kanenobu_white_graph
from qatorsion.diagrams import kanenobu_diagram, parity_reduced_diagram
from qatorsion.pipeline import family_parameters, run_family
from qatorsion.skein import goeritz_invariants, jones_polynomial

from oracles import pd_text, presentation_to_text, torus_knot_diagram


@pytest.fixture(scope="module")
def catalog25(catalog25_session):
    return catalog25_session


def test_family_parameters():
    assert family_parameters(0, 0) == (0, 3)
    assert family_parameters(0, 2) == (-20, 23)
    assert family_parameters(3, 1) == (-13, 16)


def test_run_family_base(catalog25):
    catalog, _path = catalog25
    report = run_family(0, range(0, 8), catalog=catalog)
    assert report.casson_walker == Fraction(-12, 25)
    assert report.affine and report.delta_min < 0
    mins = [r.min_d for r in report.records]
    assert all(mins[i + 1] < mins[i] for i in range(len(mins) - 1))
    for r in report.records:
        assert r.homology_factors == (25,)
        assert r.determinant == 25 and r.signature == 0
        assert r.d_values is not None
        # d = 2 tau - lambda pointwise
        for k, dv in r.d_values.items():
            assert dv == 2 * r.tau.values[k] - report.casson_walker
    # the verdict flips to conditional obstruction once min d < C
    verdicts = [r.verdict.verdict for r in report.records]
    assert verdicts[0] == "not obstructed"
    assert verdicts[-1] == "non-QA conditional"
    fired = [r.verdict.obstruction_fires for r in report.records]
    assert fired == sorted(fired)  # once it fires it stays fired


def test_run_family_other_offset():
    report = run_family(3, range(0, 3))
    assert report.affine
    for r in report.records:
        assert r.homology_factors == (25,)


def test_run_family_noncyclic_offset_reports_gracefully():
    report = run_family(1, range(0, 2))
    for r in report.records:
        assert r.homology_factors == (5, 5)
        assert r.tau is None and r.d_values is None


def test_report_json_is_reproducible(catalog25):
    catalog, _path = catalog25
    a = run_family(0, range(0, 3), catalog=catalog).to_json()
    b = run_family(0, range(0, 3), catalog=catalog).to_json()
    assert a == b
    data = json.loads(a)
    assert data["records"][0]["determinant"] == 25


def test_cross_module_consistency():
    # |H_1| = det(diagram) = |V(-1)| across the small grid and one large member
    from qatorsion.covers import homology_invariants
    pairs = [(p, q) for p in range(-3, 4) for q in range(-3, 4)] + [(-10, 13)]
    for (p, q) in pairs:
        cover = kanenobu_presentation(p, q)
        factors, _images, _n = homology_invariants(cover.presentation)
        order = 1
        for f in factors:
            order *= f
        d = kanenobu_diagram(p, q)
        det = goeritz_invariants(d)[1]
        assert order == det == 25
        v = jones_polynomial(d, budget=40)
        assert abs(v.evaluate(-1)) == det


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_minor_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "minor", "--n", "0")
    assert code == 0
    data = json.loads(out)
    assert data["modulus"] == 25
    from qatorsion.covers import kanenobu_minor_closed_form
    want = kanenobu_minor_closed_form(0)
    assert data["coeffs"] == [str(c) for c in want.coeffs]


def test_cli_homology_text(capsys):
    code, out, _ = run_cli(capsys, "homology", "--kanenobu", "-10", "13")
    assert code == 0
    assert out.strip() == "Z/25; a1->t^13 a2->t^3 a3->t^6 a4->t"


def test_cli_homology_kanenobu_runs_one_smith_normal_form(capsys, monkeypatch):
    import qatorsion.covers as covers
    real = covers.smith_normal_form
    calls = []

    def counted(m):
        calls.append(1)
        return real(m)

    monkeypatch.setattr(covers, "smith_normal_form", counted)
    for p, q, group in (("3", "-2", "Z/5 + Z/5"), ("-10", "13", "Z/25; ")):
        calls.clear()
        code, out, _ = run_cli(capsys, "homology", "--kanenobu", p, q)
        assert code == 0 and out.startswith(group)
        assert len(calls) == 1, (p, q)


def test_cli_homology_pres_file(tmp_path, capsys):
    pres = kanenobu_presentation(-10, 13).presentation
    path = tmp_path / "pres.txt"
    path.write_text(presentation_to_text(pres))
    code, out, _ = run_cli(capsys, "homology", "--pres", str(path))
    assert code == 0
    assert "Z/25" in out


def test_cli_torsion_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "torsion", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 25 and data["epsilon"] == "default"
    assert sum(Fraction(v) for v in data["tau"].values()) == 0


def test_cli_jones_kanenobu(capsys):
    code, out, _ = run_cli(capsys, "jones", "--kanenobu", "0", "0")
    assert code == 0
    assert out.strip().startswith("t^-4")


def test_cli_jones_kanenobu_refuses_an_over_budget_diagram_before_building_it(capsys):
    # K_{P,Q} has 8 + |P| + |Q| crossings; building the 50,008 of (50000, 0)
    # alone takes seconds
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "jones", "--kanenobu", "50000", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err.startswith("error: 50008 crossings exceed the budget 24;")
    code, _, err = run_cli(capsys, "jones", "--kanenobu", "8", "-9")
    assert code == 1 and err.startswith("error: 25 crossings exceed the budget 24;")
    code, out, _ = run_cli(capsys, "jones", "--kanenobu", "8", "-8")
    assert code == 0 and out.strip()


def test_cli_jones_pd_file(tmp_path, capsys):
    path = tmp_path / "t35.pd"
    path.write_text(pd_text(torus_knot_diagram(3, 5)))
    code, out, _ = run_cli(capsys, "jones", "--pd", str(path))
    assert code == 0
    assert out.strip() == "t^4 + t^6 - t^10"


def test_cli_lambda(tmp_path, capsys):
    path = tmp_path / "t35.pd"
    path.write_text(pd_text(torus_knot_diagram(3, 5)))
    code, out, _ = run_cli(capsys, "lambda", "--pd", str(path))
    assert code == 0
    assert out.strip() == "-2"


def test_cli_lambda_refuses_an_even_number_of_components(tmp_path, capsys):
    path = tmp_path / "hopf.pd"
    path.write_text("X[4,1,3,2], X[2,3,1,4]\n")
    err = _rejected(capsys, "lambda", "--pd", str(path))
    assert err == ("error: Casson-Walker formula needs an odd number of components; "
                   "the diagram has 2\n")


def test_cli_dinv(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "dinv", "--n", "0")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "-12/25"
    assert min(Fraction(v) for v in data["d"].values()) == Fraction(-14, 25)


def test_cli_mlattice(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[-25]]}))
    code, out, _ = run_cli(capsys, "mlattice", "--gram", str(path))
    assert code == 0
    assert out.strip() == "-6"


def test_cli_cbound_det1(capsys):
    code, out, _ = run_cli(capsys, "cbound", "--det", "1")
    assert code == 0
    assert out.strip() == "0 (complete)"


def test_cli_cbound_catalog_file(capsys, catalog25):
    _catalog, path = catalog25
    code, out, _ = run_cli(capsys, "cbound", "--det", "25",
                           "--catalog", str(path))
    assert code == 0
    assert out.strip().endswith("(incomplete)")


def test_cli_cbound_partial_catalog_is_incomplete(capsys, tmp_path):
    # Without its four m = -1 classes the D = 5 catalog has minimum -2/5;
    # the true C(5) is -1, so the bound must not claim completeness.
    code, out, _ = run_cli(capsys, "catalog", "--det", "5")
    full = json.loads(out)
    assert code == 0 and len(full) == 8
    # a member in another basis still counts: completeness is up to isometry
    full = [{"gram": [[-3, -1], [-1, -2]]} if entry["gram"] == [[-2, 1], [1, -3]]
            else entry for entry in full]
    path = tmp_path / "full.json"
    path.write_text(json.dumps(full))
    code, out, _ = run_cli(capsys, "cbound", "--det", "5", "--catalog", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"disc": 5, "value": "-1", "complete": True,
                               "catalog_size": 8}
    partial = [entry for entry in full
               if entry["gram"] not in ([[-5]], [[-1, 0], [0, -5]],
                                        [[-1, 0, 0], [0, -1, 0], [0, 0, -5]],
                                        [[-1, 0, 0, 0], [0, -1, 0, 0],
                                         [0, 0, -1, 0], [0, 0, 0, -5]])]
    assert len(partial) == 4
    path.write_text(json.dumps(partial))
    code, out, _ = run_cli(capsys, "cbound", "--det", "5", "--catalog", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"disc": 5, "value": "-2/5", "complete": False,
                               "catalog_size": 4}


def test_cli_catalog25_matches_the_committed_reference_bytes(capsys):
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
    code, out, _ = run_cli(capsys, "catalog", "--det", "25")
    assert code == 0
    assert out.encode() == (reference / "catalog_d25.json").read_bytes()


def test_cli_verdict(capsys, catalog25):
    _catalog, path = catalog25
    code, out, _ = run_cli(capsys, "verdict", "--n", "8", "--catalog", str(path))
    assert code == 0
    assert out.startswith("non-QA conditional")
    assert "catalog incomplete" in out and "unit unpinned" in out
    code, out, _ = run_cli(capsys, "verdict", "--n", "0", "--catalog", str(path))
    assert code == 0
    assert out.strip() == "not obstructed"


def test_cli_family(capsys, catalog25):
    _catalog, path = catalog25
    code, out, _ = run_cli(capsys, "--format", "json", "family", "--j", "0",
                           "--nmax", "3", "--catalog", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["affine_torsion_growth"] is True
    assert len(data["records"]) == 4


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minor"])  # missing --n
    assert exc.value.code == 1


def test_cli_bad_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.pd"
    path.write_text("X[1,2,3,4]")  # arcs appear once
    code, _out, err = run_cli(capsys, "jones", "--pd", str(path))
    assert code == 1
    assert "error" in err


def test_cli_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [["torsion", "--n", "0"], ["dinv", "--n", "0"],
                                  ["verdict", "--n", "0"], ["family", "--nmax", "0"]],
                         ids=["torsion", "dinv", "verdict", "family"])
def test_cli_has_no_unit_override(capsys, argv):
    # the torsion has one unit convention, named "default" in the JSON
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--epsilon=-t^3"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("usage: qatorsion")
    assert "unrecognized arguments: --epsilon=-t^3" in err


@pytest.mark.parametrize("argv", [["torsion", "--n", "0"], ["dinv", "--n", "0"],
                                  ["family", "--nmax", "0"]],
                         ids=["torsion", "dinv", "family"])
def test_cli_json_names_the_one_unit_convention(capsys, argv):
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    assert json.loads(out)["epsilon"] == "default"


def test_cli_assertion_failure_exit_code(capsys, monkeypatch):
    # force an internal consistency failure and check the exit-status contract
    import qatorsion.pipeline as pipeline
    from qatorsion.groupring import GroupRingElem

    monkeypatch.setattr(pipeline, "kanenobu_minor_closed_form",
                        lambda n: GroupRingElem.zero(25))
    code = main(["family", "--j", "0", "--nmax", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "assertion failed" in err and "minor" in err


# ---------------------------------------------------------------------------
# One checked path per family member
# ---------------------------------------------------------------------------

@pytest.fixture()
def small_catalog(tmp_path):
    """The one-lattice catalog <-25>; it attains the same C(25) = -6 as the
    full rank <= 4 catalog at a fraction of the cost."""
    path = tmp_path / "c25.json"
    path.write_text(json.dumps([{"rank": 1, "gram": [[-25]]}]))
    return path


def test_cli_member_subcommands_read_the_family_record(capsys, small_catalog):
    from qatorsion.lattice import catalog_from_json
    report = run_family(0, range(0, 13),
                        catalog=catalog_from_json(small_catalog.read_text()))
    for r in report.records:
        n = str(r.n)

        def cli_json(*argv):
            code, out, _ = run_cli(capsys, "--format", "json", *argv, "--n", n)
            assert code == 0
            return json.loads(out)

        assert cli_json("torsion") == r.tau.to_json_dict()
        assert cli_json("minor") == r.minor.to_json_dict()
        dinv = cli_json("dinv")
        assert dinv["lambda"] == str(report.casson_walker)
        assert dinv["d"] == {str(k): str(v) for k, v in r.d_values.items()}
        assert (cli_json("verdict", "--catalog", str(small_catalog))
                == r.verdict.to_json_dict())


def test_cli_verdict_runs_the_member_checks(capsys, monkeypatch, small_catalog):
    import qatorsion.pipeline as pipeline

    real = pipeline.goeritz_invariants

    def wrong_determinant(diagram, multiplicity):
        g, det, sig = real(diagram, multiplicity)
        return g, det + 1, sig

    monkeypatch.setattr(pipeline, "goeritz_invariants", wrong_determinant)
    code, _out, err = run_cli(capsys, "verdict", "--n", "8",
                              "--catalog", str(small_catalog))
    assert code == 2
    assert "assertion failed" in err and "determinant 26 != 25" in err


def test_cli_verdict_catches_a_flipped_bundle_crossing_type(capsys, monkeypatch,
                                                            small_catalog):
    # the member's signature comes from its parity-reduced diagram: report
    # the wrong sign for crossing 0, the lead crossing of the p = -80 twist
    # region, which stands for 79 of its crossings
    import qatorsion.pipeline as pipeline

    real = pipeline.parity_reduced_diagram

    def flipped(graph):
        diagram, multiplicity = real(graph)
        assert multiplicity[:2] == (79, 1)
        sign = diagram.crossing_sign
        diagram.crossing_sign = lambda ci: -sign(ci) if ci == 0 else sign(ci)
        return diagram, multiplicity

    monkeypatch.setattr(pipeline, "parity_reduced_diagram", flipped)
    code, _out, err = run_cli(capsys, "verdict", "--n", "8",
                              "--catalog", str(small_catalog))
    assert code == 2
    assert err.strip() == "assertion failed: diagram signature 79 != 0 at n = 8"


# ---------------------------------------------------------------------------
# Malformed input files exit 1 with a message
# ---------------------------------------------------------------------------

def test_cli_pd_with_malformed_entry_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.pd"
    path.write_text("X[1,1,2,2], X[3,4]")
    code, out, err = run_cli(capsys, "jones", "--pd", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "X[3,4]" in err


def _rejected(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "", (argv, code, out)
    assert err.startswith("error:")
    return err


@pytest.mark.parametrize("command", ["jones", "lambda"])
@pytest.mark.parametrize("text", ["X[2,3,4,1], X[4,1,3,2]\n",
                                  "X[2,3,4,1], X[4,1,3,2]\nO[loop]\n"])
def test_cli_pd_that_is_not_a_sphere_diagram_is_rejected(tmp_path, capsys, command, text):
    # every arc appears twice, but the two crossings trace 2 faces, not 4
    path = tmp_path / "torus.pd"
    path.write_text(text)
    assert "do not describe a sphere diagram" in _rejected(capsys, command, "--pd", str(path))


# Integers are ASCII digits: not other digit scripts (which int(), isdigit()
# and \d accept), not 1_000 and not " 3" (which int() accepts).
ARABIC_1, ARABIC_2 = "١", "٢"


@pytest.mark.parametrize("text", [f"X[{ARABIC_1},{ARABIC_2},2,1]",
                                  "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[0: 1 2 3 4 5 ٦]",
                                  f"X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] O[{ARABIC_1}: 1 2 3 4 5 6]"])
def test_cli_pd_with_non_ascii_digits_is_rejected(tmp_path, capsys, text):
    path = tmp_path / "bad.pd"
    path.write_text(text, encoding="utf-8")
    assert "malformed PD text" in _rejected(capsys, "jones", "--pd", str(path))


@pytest.mark.parametrize("text", [f"gens {ARABIC_2}\na{ARABIC_1} a{ARABIC_1}\na{ARABIC_2}\n",
                                  f"gens 2\na{ARABIC_1} a{ARABIC_1}\na{ARABIC_2}\n",
                                  "gens 1_0\na1\n", "gens +1\na1\n",
                                  f"gens 1\na1 a1\nassign {ARABIC_1} mod 2\n",
                                  "gens 1\na1 a1\nassign 1 mod 0_2\n",
                                  "gens 1\na1 a1\nassign 1 mod -2\n"])
def test_cli_presentation_with_a_bad_integer_is_rejected(tmp_path, capsys, text):
    path = tmp_path / "bad.pres"
    path.write_text(text, encoding="utf-8")
    assert "ASCII digits" in _rejected(capsys, "homology", "--pres", str(path))


@pytest.mark.parametrize("value", [ARABIC_1, "1_0", " 1"])
def test_cli_integer_option_with_a_bad_value_is_rejected(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["minor", "--n", value])
    assert exc.value.code == 1
    assert "ASCII digits" in capsys.readouterr().err


def test_cli_homology_refuses_an_assignment_that_keeps_a_relator(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("gens 2\na1 a2^-1\na1 a1 a1\nassign 1 1 mod 2\n")
    assert "relator 2" in _rejected(capsys, "homology", "--pres", str(path))
    path.write_text("gens 2\na1 a2^-1\na1 a1 a1\nassign 1 1 mod 3\n")
    code, out, _ = run_cli(capsys, "homology", "--pres", str(path))
    assert code == 0 and out == "Z/3; a1->t a2->t\n"


def test_cli_homology_without_a_generating_generator(tmp_path, capsys):
    # H_1 = Z/2 + Z/3 = Z/6, but neither a1 (order 2) nor a2 (order 3)
    # generates it: the images are read against the Smith-form generator
    path = tmp_path / "pres.txt"
    path.write_text("gens 2\na1 a1\na2 a2 a2\n")
    code, out, _ = run_cli(capsys, "homology", "--pres", str(path))
    assert code == 0 and out == "Z/6; a1->t^3 a2->t^2\n"


@pytest.mark.parametrize("mods", [("5", "2"), ("2", "5")])
def test_cli_presentation_with_two_assign_lines_is_rejected(tmp_path, capsys, mods):
    path = tmp_path / "pres.txt"
    path.write_text("gens 1\na1 a1\n" + "".join(f"assign 1 mod {m}\n" for m in mods))
    assert "at most one assign line" in _rejected(capsys, "homology", "--pres", str(path))


def test_cli_gram_with_fractional_entry_is_rejected(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[-1.5]]}))
    code, out, err = run_cli(capsys, "mlattice", "--gram", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "integers" in err


def test_cli_catalog_that_is_a_bare_matrix_is_rejected(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("[[-25]]")
    code, out, err = run_cli(capsys, "verdict", "--n", "0",
                             "--catalog", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Gram objects" in err


@pytest.mark.parametrize("argv", [["cbound", "--det", "25"], ["verdict", "--n", "0"],
                                  ["family", "--nmax", "0"]],
                         ids=["cbound", "verdict", "family"])
def test_cli_catalog_file_errors_are_usage_errors(tmp_path, capsys, argv):
    # the three commands that take --catalog read it through one loader
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, *argv, "--catalog", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "No such file" in err
    bare = tmp_path / "catalog.json"
    bare.write_text("[[-25]]")
    code, out, err = run_cli(capsys, *argv, "--catalog", str(bare))
    assert code == 1 and out == ""
    assert err.strip() == "error: a catalog must be a JSON list of Gram objects"


def test_cli_cbound_without_a_catalog_builds_the_one_of_its_determinant(tmp_path,
                                                                       capsys):
    code, out, _ = run_cli(capsys, "catalog", "--det", "5")
    assert code == 0
    path = tmp_path / "d5.json"
    path.write_text(out)
    code, built, _ = run_cli(capsys, "--format", "json", "cbound", "--det", "5")
    assert code == 0
    code, read, _ = run_cli(capsys, "--format", "json", "cbound", "--det", "5",
                            "--catalog", str(path))
    assert code == 0
    assert built == read
    assert json.loads(built) == {"disc": 5, "value": "-1", "complete": True,
                                 "catalog_size": 8}


def test_cli_cbound_needs_a_positive_determinant(capsys):
    code, out, err = run_cli(capsys, "cbound", "--det", "0")
    assert code == 1 and out == ""
    assert err.strip() == "error: the determinant must be >= 1, got 0"


def test_cli_catalog_needs_a_positive_determinant(capsys):
    for det in ("0", "-3"):
        code, out, err = run_cli(capsys, "catalog", "--det", det)
        assert code == 1 and out == ""
        assert err.strip() == f"error: the determinant must be >= 1, got {det}"


def test_cli_mlattice_and_catalog_refuse_a_discriminant_above_the_cap(tmp_path, capsys):
    import time

    from qatorsion.lattice import MAX_CATALOG_DISC, MAX_M_DISC
    path = tmp_path / "gram.json"
    path.write_text(json.dumps([[-1000, 0], [0, -1000]]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mlattice", "--gram", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.strip() == (f"error: discriminant 1000000 is above MAX_M_DISC = "
                           f"{MAX_M_DISC}, the cap on computing m")
    code, out, err = run_cli(capsys, "catalog", "--det", str(MAX_CATALOG_DISC + 1))
    assert code == 1 and out == ""
    assert err.strip() == (f"error: determinant {MAX_CATALOG_DISC + 1} is above "
                           f"MAX_CATALOG_DISC = {MAX_CATALOG_DISC}, the cap on "
                           "catalog builds")
    code, out, err = run_cli(capsys, "cbound", "--det", str(MAX_CATALOG_DISC + 1))
    assert code == 1 and "MAX_CATALOG_DISC" in err
    path.write_text(json.dumps([[-MAX_M_DISC]]))
    code, out, _ = run_cli(capsys, "mlattice", "--gram", str(path))
    assert code == 0 and out.strip() == f"{1 - MAX_M_DISC}/4"


def test_cli_mlattice_refuses_a_search_over_the_vector_cap(tmp_path):
    # -A16 has discriminant 17, far below MAX_M_DISC, but its search ran
    # for minutes before the cap
    import subprocess
    import sys

    import qatorsion
    from qatorsion.lattice import MAX_M_VECTORS
    path = tmp_path / "a16.json"
    path.write_text(json.dumps([[-2 if i == j else int(abs(i - j) == 1)
                                 for j in range(16)] for i in range(16)]))
    env = {"PYTHONPATH": str(Path(qatorsion.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-m", "qatorsion", "mlattice", "--gram", str(path)],
                         env=env, capture_output=True, text=True, timeout=10)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == (f"error: m of a rank 16 block of discriminant 17 needs more than "
                          f"MAX_M_VECTORS = {MAX_M_VECTORS} characteristic vectors, "
                          "the cap on computing m\n")


# ---------------------------------------------------------------------------
# Members at constant cost in n, checked against the full diagram path
# ---------------------------------------------------------------------------

def test_bundled_member_matches_the_full_path():
    # full path: the unit-edge graph, its relators written out letter by
    # letter and differentiated one letter at a time, and the Goeritz form
    # of the member's full 8 + |p| + |q| crossing diagram
    from oracles import letter_scan_derivative, relator_word

    from qatorsion.covers import kanenobu_white_graph, white_graph_presentation
    from qatorsion.foxcalc import determinant_cofactor
    from qatorsion.groupring import GroupRingElem
    from qatorsion.pipeline import family_casson_walker, family_member
    from qatorsion.torsion import d_invariants, torsion_from_minor
    for j in range(10):
        lam = family_casson_walker(j)
        for n in range(13):
            record = family_member(j, n, lam)
            p, q = family_parameters(j, n)
            cover = white_graph_presentation(kanenobu_white_graph(p, q).expanded())
            assert record.homology_factors == cover.factors
            assert record.homology_images == cover.g_classes
            if cover.g_classes is None:
                assert record.minor is record.tau is record.d_values is None
            else:
                pres = cover.presentation
                words = [relator_word(r) for r in pres.relators[:3]]
                minor = determinant_cofactor(
                    [[GroupRingElem(25, letter_scan_derivative(w, i, pres.assignment, 25))
                      for w in words] for i in (1, 2, 3)],
                    GroupRingElem.zero(25), GroupRingElem.one(25))
                tau = torsion_from_minor(minor, cover.g_classes[3], cover.h_classes[3])
                assert record.minor == minor
                assert record.tau.values == tau.values
                assert record.d_values == d_invariants(tau, lam)
            diagram = kanenobu_diagram(p, q)
            assert diagram.n_crossings == 8 + abs(p) + abs(q)
            _g, det, sig = goeritz_invariants(diagram)
            assert (record.determinant, record.signature) == (det, sig) == (25, 0)


def test_member_at_a_million_twists_within_budget():
    import time

    from qatorsion.covers import kanenobu_minor_closed_form
    from qatorsion.pipeline import family_casson_walker, family_member
    lam = family_casson_walker(0)
    start = time.perf_counter()
    record = family_member(0, 10 ** 6, lam)
    elapsed = time.perf_counter() - start
    assert record.minor == kanenobu_minor_closed_form(10 ** 6)
    assert record.determinant == 25 and record.signature == 0
    assert elapsed < 1.0, f"one member at n = 10^6 took {elapsed:.2f} s"


def test_family_casson_walker_is_computed_once_per_offset(monkeypatch):
    from qatorsion import pipeline
    from qatorsion.pipeline import family_casson_walker
    from qatorsion.skein import mullins_lambda
    calls = []

    def counted(diagram):
        calls.append(diagram)
        return mullins_lambda(diagram)

    family_casson_walker.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "mullins_lambda", counted)
            first = [family_casson_walker(j) for j in range(10)]
            assert len(calls) == 10
            assert [family_casson_walker(j) for j in range(10)] == first
            assert len(calls) == 10
    finally:
        family_casson_walker.cache_clear()
    assert first == [mullins_lambda(kanenobu_diagram(0, j + 3)) for j in range(10)]


def test_python_dash_m_runs_the_command_line(capsys, monkeypatch):
    import runpy
    import sys
    monkeypatch.setattr(sys, "argv", ["qatorsion", "homology", "--kanenobu", "-10", "13"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("qatorsion", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "Z/25; a1->t^13 a2->t^3 a3->t^6 a4->t\n"


# one process, calls in this order; the parser built by the first is shared
# by the rest, so a --format or an error of one call must not reach the next
BACK_TO_BACK_CALLS = (
    ("verdict", "--n", "3", "--format", "json"),
    ("verdict", "--n", "3"),
    ("--format", "json", "verdict", "--n", "3"),
    ("verdict", "--n", "x"),
    ("verdict", "--n", "8"),
    ("family", "--j", "2", "--nmax", "3", "--format", "json"),
    ("catalog", "--det", "5"),
)


def test_back_to_back_cli_calls_match_fresh_processes(capsys):
    import subprocess
    import sys

    import qatorsion
    env = {"PYTHONPATH": str(Path(qatorsion.__file__).resolve().parent.parent)}
    codes = []
    for argv in BACK_TO_BACK_CALLS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qatorsion", *argv], env=env,
                               capture_output=True, text=True, timeout=30)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 1, 0, 0, 0]


def _integral_minor(request):
    from qatorsion.covers import abelianized_minor, kanenobu_minor_closed_form
    for n in range(4):
        minor = abelianized_minor(kanenobu_presentation(-10 * n, 10 * n + 3), 4, 4)
        closed = kanenobu_minor_closed_form(n)
        assert minor == closed
        assert all(type(c) is int for c in minor.coeffs + closed.coeffs)


def _cyclotomic_components(request):
    from qatorsion.covers import kanenobu_minor_closed_form
    from qatorsion.groupring import CyclotomicNumber, phi_at_divisor
    for d in (5, 25):
        one = CyclotomicNumber.one(d)
        powers = [CyclotomicNumber.zeta_power(d, g) for g in (13, 3, 6, 1)]
        factors = [z - one for z in powers]
        for n in range(4):
            component = phi_at_divisor(kanenobu_minor_closed_form(n), d)
            values = [one, component, *powers, *factors]
            values += [f * h * component for f in factors for h in factors]
            assert all(type(c) is int for z in values for c in z.coords)


def _coset_search(request):
    from qatorsion import lattice
    for lat in request.getfixturevalue("catalog25_session")[0]:
        least = lattice._least_char_squares(lattice.GramLattice(lat.gram))
        assert len(least) == 25 and all(type(q) is int for q in least.values())


def _goeritz(request):
    for j in range(10):
        diagram, multiplicity = parity_reduced_diagram(
            kanenobu_white_graph(*family_parameters(j, 1)))
        assert goeritz_invariants(diagram, multiplicity)[1:] == (25, 0)


# each exact integer path, and the modules whose Fraction it must not call
NO_FRACTION_PATHS = {
    "integral minor": (_integral_minor, ("covers", "foxcalc", "groupring")),
    "cyclotomic components": (_cyclotomic_components, ("covers", "groupring")),
    "coset search": (_coset_search, ("lattice",)),
    "goeritz": (_goeritz, ("intmat", "skein")),
}


@pytest.mark.parametrize("path", sorted(NO_FRACTION_PATHS))
def test_integer_paths_make_no_fraction(path, monkeypatch, request):
    run, modules = NO_FRACTION_PATHS[path]

    def refuse(*args):
        raise AssertionError(f"the {path} made a Fraction")

    for name in modules:
        monkeypatch.setattr(importlib.import_module(f"qatorsion.{name}"), "Fraction",
                            refuse, raising=False)
    run(request)
