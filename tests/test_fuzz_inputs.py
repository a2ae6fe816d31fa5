"""Arbitrary text in each of the four input formats either parses or ends
with exit status 1 and an `error:` line; it never escapes as a traceback.

The PD code, presentation, Gram and catalog texts go through the
subcommand that reads them.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatorsion.cli import main
from qatorsion.covers import BOUNDARY, WhiteGraph, white_graph_presentation
from qatorsion.diagrams import LinkDiagram
from qatorsion.foxcalc import presentation_from_text
from qatorsion.lattice import GramLattice, catalog_from_json

from oracles import relator_word

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def _texts(fragments):
    """Raw text, and text glued from pieces of the format."""
    pieces = st.sampled_from(fragments) | st.text(max_size=3)
    return st.text(max_size=60) | st.lists(pieces, max_size=16).map("".join)


_JSON_KEYS = ("vertices", "edges", "cyclic", "rank", "gram")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-30, 30) | st.sampled_from(["B", "1"])
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=4),
    max_leaves=20)
_JSON_FRAGMENTS = ["{", "}", "[", "]", ",", ":", " ", '"B"', "-1", "0", "1", "2",
                   "-25", "1.5", "true", "null", "NaN"] + [f'"{k}"' for k in _JSON_KEYS]
_json_texts = _texts(_JSON_FRAGMENTS) | _json_values.map(json.dumps)

_PD_FRAGMENTS = ["X[", "]", ",", " ", "\n", "1", "2", "3", "4", "O[", "loop", ":",
                 "0", "-", "X[1,1,2,2]", "X[2,1,1,2]", "X[1,2,3,4]", "O[0: 1 2]"]
_PRES_FRAGMENTS = ["gens ", "gens", "0", "1", "2", "-1", "a1", "a2", "a3", "^-1",
                   " ", "\n", "assign ", " mod ", "#", "5"]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _parses(parse, path) -> bool:
    try:
        parse(path.read_text())  # the text as the command line reads it
    except ValueError:
        return False
    return True


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(path, text, parse, argv):
    path.write_text(text, encoding="utf-8")
    parsed = _parses(parse, path)
    code, err = _run(argv + [str(path)])
    assert code in ((0, 1) if parsed else (1,)), (text, code, err)
    if code == 1:
        assert any(line.startswith("error:") for line in err.splitlines()), (text, err)


@FUZZ
@given(text=_texts(_PD_FRAGMENTS))
def test_pd_text(input_path, text):
    _check(input_path, text, LinkDiagram.from_text, ["jones", "--pd"])


@FUZZ
@given(text=_texts(_PRES_FRAGMENTS))
def test_presentation_text(input_path, text):
    _check(input_path, text, presentation_from_text, ["homology", "--pres"])


@FUZZ
@given(text=_json_texts)
def test_gram_json(input_path, text):
    _check(input_path, text, lambda t: GramLattice.from_json_dict(json.loads(t)),
           ["mlattice", "--gram"])


@FUZZ
@given(text=_json_texts)
def test_catalog_json(input_path, text):
    _check(input_path, text, catalog_from_json,
           ["cbound", "--det", "25", "--catalog"])


@st.composite
def _weighted_graphs(draw):
    """White-graph fields whose cyclic orders fit its edges; the weights are
    nonzero integers, or 0, booleans and floats, which must be refused."""
    k = draw(st.integers(1, 3))
    verts = list(range(1, k + 1)) + [BOUNDARY]
    weight = st.integers(-40, 40) | st.booleans() | st.floats(-3, 3)
    edges = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts),
                                    weight), min_size=1, max_size=5))
    ends = {v: [] for v in verts}
    for e, (a, b, _w) in enumerate(edges):
        ends[a].append(2 * e)
        ends[b].append(2 * e + 1)
    return {"vertices": k, "edges": tuple(edges),
            "cyclic": tuple(tuple(draw(st.permutations(ends[v]))) for v in verts)}


def _cover_words(graph):
    try:
        cover = white_graph_presentation(graph)
    except ValueError as exc:
        return type(exc)
    return ([relator_word(r) for r in cover.presentation.relators], cover.factors,
            cover.g_classes)


@FUZZ
@given(fields=_weighted_graphs())
def test_weighted_white_graph(fields):
    weights = [w for _a, _b, w in fields["edges"]]
    if not all(type(w) is int and w != 0 for w in weights):
        with pytest.raises(ValueError):
            WhiteGraph(**fields)
        return
    graph = WhiteGraph(**fields)
    unit = graph.expanded()
    assert len(unit.edges) == sum(abs(w) for w in weights)
    assert unit.expanded() == unit
    assert _cover_words(graph) == _cover_words(unit)
