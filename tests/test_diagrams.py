import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qatorsion
from qatorsion.covers import BOUNDARY, WhiteGraph, kanenobu_white_graph
from qatorsion.diagrams import (DiagramError, LinkDiagram, _cycle_normal,
                                kanenobu_diagram, parity_reduced_diagram,
                                unknot_diagram, white_graph_diagram)

from oracles import (braid_closure, directed_components, figure_eight_diagram,
                     pd_text, push_drain_orientation, shadow_components,
                     torus_knot_diagram)


def test_arc_labels_must_appear_twice():
    with pytest.raises(DiagramError):
        LinkDiagram([(1, 2, 3, 4)])


def test_face_count_euler():
    for d in [braid_closure([1], 2), braid_closure([1, 1, 1], 2),
              figure_eight_diagram(), torus_knot_diagram(3, 5),
              kanenobu_diagram(0, 3)]:
        assert len(d.faces) == d.n_crossings + 2


def test_checkerboard_colors_proper():
    for d in [braid_closure([1, 1, 1], 2), figure_eight_diagram(),
              kanenobu_diagram(2, -1)]:
        colors = d.colors
        fq = d.face_of_quadrant
        for ci in range(d.n_crossings):
            for k in range(4):
                assert colors[fq[(ci, k)]] != colors[fq[(ci, (k + 1) % 4)]]
        assert colors[d.unbounded_face()] == 1


def test_components_and_writhe():
    assert braid_closure([1, 1, 1], 2).n_components() == 1
    assert braid_closure([1, 1, 1], 2).writhe() == 3
    assert braid_closure([-1, -1, -1], 2).writhe() == -3
    assert braid_closure([1, 1], 2).n_components() == 2
    assert braid_closure([1, -1], 2).n_components() == 2
    assert torus_knot_diagram(3, 5).writhe() == 10
    assert unknot_diagram().n_components() == 1
    assert figure_eight_diagram().writhe() == 0


def test_free_strand_becomes_loop():
    d = braid_closure([1], 3)  # strand 3 untouched
    assert d.free_loops == 1
    assert d.n_components() == 2


def test_twist_family_diagram_size_and_knottedness():
    for (p, q) in [(0, 0), (0, 3), (1, -1), (-2, 3), (3, 3), (-10, 13)]:
        d = kanenobu_diagram(p, q)
        assert d.n_crossings == 8 + abs(p) + abs(q)
        assert d.n_components() == 1
        assert d.is_connected()


def test_pd_text_round_trip():
    d = braid_closure([1, 1, 1], 2)
    text = pd_text(d)
    assert text.startswith("X[")
    assert "O[0:" in text
    back = LinkDiagram.from_text(text)
    assert back.crossings == d.crossings
    assert back.writhe() == d.writhe()


def test_pd_text_rejects_wrong_orientation_line():
    d = braid_closure([1, 1, 1], 2)
    comp = d.components()[0]
    text = ", ".join("X[%d,%d,%d,%d]" % c for c in d.crossings)
    bad = text + "\nO[0: " + " ".join(str(a) for a in reversed(comp)) + "]\n"
    with pytest.raises(DiagramError):
        LinkDiagram.from_text(bad)
    garbled = text + "\nO[0: 1 1 1]\n"
    with pytest.raises(DiagramError):
        LinkDiagram.from_text(garbled)


def test_nonplanar_tuples_rejected():
    # tuple soups whose rotation systems fail the sphere face count; the
    # constructor checks, before anything asks for the faces, and a free
    # loop beside the crossings does not skip the check
    for tuples in ([(1, 2, 3, 4), (1, 3, 2, 4)], [(2, 3, 4, 1), (4, 1, 3, 2)]):
        for loops in (0, 1):
            with pytest.raises(DiagramError, match="sphere diagram"):
                LinkDiagram(tuples, free_loops=loops)


def test_split_diagram_has_two_faces_per_extra_piece():
    # crossings + 2 per shadow component: two split trefoils have 6
    # crossings and 10 faces
    trefoil = braid_closure([1, 1, 1], 2)
    shifted = [tuple(a + 100 for a in c) for c in trefoil.crossings]
    split = LinkDiagram(trefoil.crossings + tuple(shifted))
    assert split.n_crossings == 6 and len(split.faces) == 10
    assert not split.is_connected()
    assert LinkDiagram(trefoil.crossings, free_loops=1).n_components() == 2


def test_white_graph_diagram_requires_boundary_rotation():
    graph = WhiteGraph(vertices=1, edges=((1, BOUNDARY, 1),) * 3,
                       cyclic=((0, 2, 4),))
    with pytest.raises(DiagramError):
        white_graph_diagram(graph)
    with_boundary = WhiteGraph(vertices=1, edges=((1, BOUNDARY, 1),) * 3,
                               cyclic=((0, 2, 4), (5, 3, 1)))
    d = white_graph_diagram(with_boundary)
    assert d.n_crossings == 3
    assert d.n_components() == 1


# Vertex 1 is an isolated region; a diagram with crossings has none.
ISOLATED_REGION = """
from qatorsion.covers import BOUNDARY, WhiteGraph
from qatorsion.diagrams import DiagramError, white_graph_diagram
graph = WhiteGraph(vertices=2, edges=((BOUNDARY, 2, -1),), cyclic=((), (1,), (0,)))
try:
    white_graph_diagram(graph)
except DiagramError as exc:
    print(graph.is_connected(), exc)
"""


def test_white_graph_connectivity_does_not_depend_on_the_hash_seed():
    src = str(Path(qatorsion.__file__).resolve().parent.parent)
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", ISOLATED_REGION], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False white graph is disconnected\n", seed


def test_generated_diagram_faces_match_white_regions():
    graph = kanenobu_white_graph(-1, 2)
    d = white_graph_diagram(graph)
    colors = d.colors
    whites = [f for f in range(len(d.faces)) if colors[f] == 1]
    # one white region per graph vertex plus the unbounded one
    assert len(whites) == graph.vertices + 1


def test_trefoil_graph_diagram_matches_homology_determinant():
    graph = WhiteGraph(vertices=1, edges=((1, BOUNDARY, 1),) * 3,
                       cyclic=((0, 2, 4), (5, 3, 1)))
    d = white_graph_diagram(graph)
    from qatorsion.skein import goeritz_invariants
    assert goeritz_invariants(d)[1] == 3


# Generated links whose orientation-dependent invariants are pinned:
# (vertices, edges, rotations) -> (components, writhe, Goeritz signature,
# Jones polynomial).  The values were computed when white_graph_diagram
# still passed its shadow walk's arc directions to LinkDiagram; the PD
# convention must orient every component the same way.
GENERATED_LINKS = [
    ((1, ((BOUNDARY, 1, -3), (BOUNDARY, 1, 1)), ((3, 1), (0, 2))),
     (2, -2, 1, "-t^(-5/2) - t^(-1/2)")),
    ((3, ((BOUNDARY, 1, -3), (3, 2, -2), (3, 1, 1), (2, 1, -1), (1, 2, 1)),
      ((5, 8, 1, 7), (6, 9, 3), (4, 2), (0,))),
     (2, -4, 3, "t^(-13/2) - t^(-11/2) + t^(-9/2) - 2*t^(-7/2) - t^(-3/2)")),
    ((3, ((BOUNDARY, 3, 2), (BOUNDARY, 3, -3), (1, 2, -2), (1, BOUNDARY, -2)),
      ((6, 4), (5,), (3, 1), (0, 7, 2))),
     (3, 3, -2, "t + 2*t^3 + t^5")),
    ((2, ((2, 1, -2), (BOUNDARY, 1, -2), (BOUNDARY, 2, 1), (BOUNDARY, 2, -3)),
      ((1, 3), (7, 5, 0), (6, 2, 4))),
     (3, 6, -2, "t - 2*t^2 + 3*t^3 - t^4 + 3*t^5 - t^6 + t^7")),
]


@pytest.mark.parametrize("graph_data, want", GENERATED_LINKS)
def test_generated_link_orientation_invariants(graph_data, want):
    from qatorsion.skein import goeritz_invariants, jones_polynomial
    vertices, edges, cyclic = graph_data
    d = white_graph_diagram(WhiteGraph(vertices=vertices, edges=edges, cyclic=cyclic))
    assert (d.n_components(), d.writhe(), goeritz_invariants(d)[2],
            jones_polynomial(d).to_string()) == want


def random_plane_white_graphs(rng, max_vertices, max_weight):
    """Random rotation systems on 1..max_vertices bounded vertices with one
    to five edges of weight +-1..+-max_weight; yields (graph, diagram) for
    those that build a diagram (planar and connected)."""
    while True:
        k = rng.randint(1, max_vertices)
        verts = list(range(1, k + 1)) + [BOUNDARY]
        edges = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(verts, 2)
            edges.append((a, b, rng.choice((-1, 1)) * rng.randint(1, max_weight)))
        ends = {v: [] for v in verts}
        for e, (a, b, _w) in enumerate(edges):
            ends[a].append(2 * e)
            ends[b].append(2 * e + 1)
        cyclic = tuple(tuple(rng.sample(ends[v], len(ends[v]))) for v in verts)
        try:
            graph = WhiteGraph(vertices=k, edges=tuple(edges), cyclic=cyclic)
            diagram = white_graph_diagram(graph)
        except (DiagramError, ValueError):
            continue  # not planar, or disconnected
        yield graph, diagram


def test_parity_reduced_diagram_lifts_to_the_full_goeritz_data():
    # random plane rotation systems with weighted edges; for knots the
    # lifted determinant and signature equal the full diagram's, for links
    # (whose components each diagram orients on its own) the determinant
    from qatorsion.skein import goeritz_invariants
    graphs = random_plane_white_graphs(random.Random(7), max_vertices=3, max_weight=6)
    seen = {1: 0, 2: 0}
    while min(seen.values()) < 40:
        graph, full = next(graphs)
        if not full.is_connected():
            continue
        edges = graph.edges
        reduced, multiplicity = parity_reduced_diagram(graph)
        assert reduced.n_crossings == sum(2 - abs(w) % 2 for _a, _b, w in edges)
        assert sum(multiplicity) == full.n_crossings
        assert reduced.n_components() == full.n_components()
        want = goeritz_invariants(full)[1:]
        got = goeritz_invariants(reduced, multiplicity)[1:]
        if full.n_components() == 1:
            assert got == want, graph
        else:
            assert got[0] == want[0], graph
        seen[min(full.n_components(), 2)] += 1


def test_strand_and_face_walks_match_the_separate_walks():
    # the PD tuples of seeded random plane white graphs, as generated and
    # with one to three crossings rotated by 1..3 slots, each also beside
    # the previous case as a split diagram, against the push/drain
    # orienter and the shadow DFS: same directions, components and shadow
    # count, or the same refusal
    rng = random.Random(24)
    graphs = random_plane_white_graphs(rng, max_vertices=4, max_weight=3)
    outcomes = Counter()
    previous = []
    for _ in range(2000):
        _graph, generated = next(graphs)
        rotated = list(generated.crossings)
        for ci in rng.sample(range(len(rotated)), min(len(rotated), rng.randint(1, 3))):
            r = rng.randint(1, 3)
            rotated[ci] = rotated[ci][r:] + rotated[ci][:r]
        for tuples in (list(generated.crossings), rotated):
            shift = 1 + max(max(c) for c in tuples)
            split = [tuple(a + shift for a in c) for c in previous]
            for crossings in (tuples, tuples + split):
                try:
                    want = push_drain_orientation(crossings)
                except DiagramError as exc:
                    with pytest.raises(DiagramError) as refused:
                        LinkDiagram(crossings)
                    assert str(refused.value) == str(exc), crossings
                    outcomes["refused"] += 1
                    continue
                d = LinkDiagram(crossings)
                comps = directed_components(crossings, want)
                assert d._direction == want, crossings
                assert d.n_components() == len(comps), crossings
                assert (sorted(map(_cycle_normal, d.components()))
                        == sorted(map(_cycle_normal, comps))), crossings
                shadows = shadow_components(crossings)
                assert d._shadows == shadows, crossings
                assert len(d.faces) == d.n_crossings + 2 * shadows
                outcomes[f"{shadows} shadows"] += 1
        previous = generated.crossings
    assert min(outcomes.values()) >= 500, outcomes
