"""The package's records and what the package costs to import.

The nine record classes share `records.Record` in place of
`dataclasses.dataclass(frozen=True)`: these tests pin the frozen-dataclass
behaviour they keep (keyword and positional construction, defaults,
validation in `__post_init__`, no assignment, field-wise `==`, `hash` and
`repr`), and that importing the package loads neither `dataclasses` nor
the `inspect` and `typing` modules."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qatorsion
from qatorsion.covers import BranchedCoverPresentation, WhiteGraph
from qatorsion.foxcalc import Presentation
from qatorsion.groupring import GroupRingElem
from qatorsion.lattice import CBound, GramLattice, LatticeError, QAVerdict
from qatorsion.pipeline import FamilyRecord, PipelineReport
from qatorsion.torsion import TorsionVector

# A bare interpreter (-S: no site module, which may load `typing` itself)
# imports the modules the command line and the benchmark start from.
IMPORT_GRAPH = """
import sys
sys.path.insert(0, sys.argv[1])
import qatorsion.cli, qatorsion.pipeline, qatorsion.lattice
print(sorted(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules))
"""


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    src = str(Path(qatorsion.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-S", "-c", IMPORT_GRAPH, src],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def _records():
    """One instance of each record class, built afresh on every call."""
    presentation = Presentation(1, (((((1, 1),), 3),),), (1,), 3)
    bound = CBound(25, Fraction(-1, 2), False, 20)
    verdict = QAVerdict(25, Fraction(-3, 5), bound, True, False,
                        "non-QA conditional", ("x",))
    tau = TorsionVector(3, (Fraction(1), Fraction(-1, 2), Fraction(-1, 2)))
    record = FamilyRecord(0, 0, 3, (25,), (1, 2), GroupRingElem(3, (1, 0, 0)),
                          tau, Fraction(-1, 2), None, Fraction(1), 25, 0, verdict)
    return [
        WhiteGraph(1, ((1, "B", 2),), ((0,), (1,))),
        presentation,
        BranchedCoverPresentation(presentation, (3,), (1,), (1,)),
        GramLattice(((-2, 1), (1, -3))),
        bound,
        verdict,
        tau,
        record,
        PipelineReport(0, "default", Fraction(-12, 25), (record,), bound, None),
    ]


# The reprs `dataclasses` gave these records.
REPRS = [
    "WhiteGraph(vertices=1, edges=((1, 'B', 2),), cyclic=((0,), (1,)))",
    "Presentation(gens=1, relators=(((((1, 1),), 3),),), assignment=(1,), modulus=3)",
    "BranchedCoverPresentation(presentation=Presentation(gens=1, "
    "relators=(((((1, 1),), 3),),), assignment=(1,), modulus=3), factors=(3,), "
    "g_classes=(1,), h_classes=(1,))",
    "GramLattice(gram=((-2, 1), (1, -3)))",
    "CBound(disc=25, value=Fraction(-1, 2), complete=False, catalog_size=20)",
    "QAVerdict(disc=25, min_d=Fraction(-3, 5), bound=CBound(disc=25, "
    "value=Fraction(-1, 2), complete=False, catalog_size=20), "
    "obstruction_fires=True, unit_pinned=False, verdict='non-QA conditional', "
    "conditions_unmet=('x',))",
    "TorsionVector(modulus=3, values=(Fraction(1, 1), Fraction(-1, 2), "
    "Fraction(-1, 2)), unit_ambiguity='default')",
]


def test_records_are_frozen_and_compare_by_field():
    records, again = _records(), _records()
    assert len({type(x) for x in records}) == 9
    for x, y in zip(records, again):
        assert x is not y and x == y and hash(x) == hash(y)
        assert not x != y and x != object()
        field = next(iter(vars(x)))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
        assert x == y
    assert [repr(x) for x in records[:len(REPRS)]] == REPRS
    # a record nests the reprs of the records it holds
    report = records[-1]
    assert repr(report) == (f"PipelineReport(offset=0, epsilon='default', "
                            f"casson_walker=Fraction(-12, 25), "
                            f"records=({records[-2]!r},), c_bound={records[4]!r}, "
                            f"delta=None)")
    assert records[1] != Presentation(1, records[1].relators, (1,), 5)
    # a record holding a dict cannot be hashed, as with dataclasses
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(FamilyRecord(0, 0, 3, (25,), None, None, None, None,
                          {0: Fraction(1)}, Fraction(1), 25, 0, None))


def test_records_build_by_keyword_with_defaults():
    x = Presentation(gens=0, relators=())
    assert x == Presentation(0, ()) == Presentation(0, relators=())
    assert repr(x) == "Presentation(gens=0, relators=(), assignment=None, modulus=None)"
    cover = BranchedCoverPresentation(x)
    assert (cover.factors, cover.g_classes, cover.h_classes) == (None, None, None)
    assert cover.modulus is None
    tau = TorsionVector(1, (Fraction(0),))
    assert tau.unit_ambiguity == "default"
    with pytest.raises(TypeError):
        Presentation(0)
    with pytest.raises(TypeError):
        Presentation(0, (), None, None, "extra")
    with pytest.raises(TypeError):
        Presentation(0, (), gens=1)
    with pytest.raises(TypeError):
        Presentation(0, (), moduli=3)


def test_gram_lattice_disc_is_derived_and_not_compared():
    lat = GramLattice(((-2, 1), (1, -3)))
    assert lat.disc == 5 and GramLattice.rank_zero().disc == 1
    other = GramLattice(lat.gram)
    object.__setattr__(other, "disc", 7)
    assert other == lat and hash(other) == hash(lat)
    assert "disc" not in repr(other)
    # the cached short vectors live in the instance dict, which
    # the frozen assignment leaves alone
    assert lat._short_vectors is lat._short_vectors


@pytest.mark.parametrize("build, error, message", [
    (lambda: TorsionVector(2, (Fraction(0),)),
     ValueError, "value vector length must equal the modulus"),
    (lambda: TorsionVector(2, (Fraction(1), Fraction(0))),
     ValueError, "torsion vectors must have zero coefficient sum"),
    (lambda: GramLattice(((-1, 0),)), LatticeError, "Gram matrix must be square"),
    (lambda: GramLattice(((-2, 1), (0, -2))),
     LatticeError, "Gram matrix must be symmetric"),
    (lambda: GramLattice(((1,),)), LatticeError, "Gram matrix is not negative definite"),
    (lambda: Presentation(-1, ()), ValueError, "generator count must be >= 0"),
    (lambda: Presentation(1, (((((2, 1),), 1),),)),
     ValueError, "relator letter a2 out of range (g=1)"),
    (lambda: Presentation(1, (), (1, 2)),
     ValueError, "assignment length must equal the generator count"),
    (lambda: WhiteGraph(1, ((1, "B", 0),), ((0,),)),
     ValueError, "edge 0 has weight 0, not a nonzero integer"),
])
def test_record_validation_keeps_its_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
