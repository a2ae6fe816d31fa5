import json
from fractions import Fraction

import pytest

from qatorsion.cli import main
from qatorsion.covers import kanenobu_presentation
from qatorsion.diagrams import kanenobu_diagram, torus_knot_diagram
from qatorsion.foxcalc import presentation_to_text
from qatorsion.pipeline import family_parameters, run_family
from qatorsion.skein import goeritz_invariants, jones_polynomial


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


def test_cli_jones_pd_file(tmp_path, capsys):
    path = tmp_path / "t35.pd"
    path.write_text(torus_knot_diagram(3, 5).to_text())
    code, out, _ = run_cli(capsys, "jones", "--pd", str(path))
    assert code == 0
    assert out.strip() == "t^4 + t^6 - t^10"


def test_cli_lambda(tmp_path, capsys):
    path = tmp_path / "t35.pd"
    path.write_text(torus_knot_diagram(3, 5).to_text())
    code, out, _ = run_cli(capsys, "lambda", "--pd", str(path))
    assert code == 0
    assert out.strip() == "-2"


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


def test_cli_epsilon_override(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "torsion", "--n", "0",
                           "--epsilon=-t^3")
    assert code == 0
    data = json.loads(out)
    from qatorsion.pipeline import torsion_kanenobu
    want = torsion_kanenobu(0).apply_unit(-1, 3)
    assert [Fraction(data["tau"][str(k)]) for k in range(25)] == list(want.values)


def test_cli_assertion_failure_exit_code(capsys, monkeypatch):
    # force an internal consistency failure and check the exit-status contract
    import qatorsion.pipeline as pipeline
    from qatorsion.groupring import GroupRingElem

    monkeypatch.setattr(pipeline, "kanenobu_minor_closed_form",
                        lambda n, modulus=25: GroupRingElem.zero(25))
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

    def wrong_determinant(diagram):
        g, det, sig = real(diagram)
        return g, det + 1, sig

    monkeypatch.setattr(pipeline, "goeritz_invariants", wrong_determinant)
    code, _out, err = run_cli(capsys, "verdict", "--n", "8",
                              "--catalog", str(small_catalog))
    assert code == 2
    assert "assertion failed" in err and "determinant 26 != 25" in err


# ---------------------------------------------------------------------------
# Malformed input files exit 1 with a message
# ---------------------------------------------------------------------------

def test_cli_pd_with_malformed_entry_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.pd"
    path.write_text("X[1,1,2,2], X[3,4]")
    code, out, err = run_cli(capsys, "jones", "--pd", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "X[3,4]" in err


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


def test_cli_cbound_needs_a_positive_determinant(capsys):
    code, out, err = run_cli(capsys, "cbound", "--det", "0")
    assert code == 1 and out == ""
    assert err.strip() == "error: the determinant must be >= 1, got 0"


def test_cli_catalog_needs_a_positive_determinant(capsys):
    for det in ("0", "-3"):
        code, out, err = run_cli(capsys, "catalog", "--det", det)
        assert code == 1 and out == ""
        assert err.strip() == f"error: the determinant must be >= 1, got {det}"
