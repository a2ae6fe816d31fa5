"""Planar link diagrams as PD codes, with faces, checkerboard colouring,
orientation, and constructors (the medial diagram of a signed white graph,
its parity reduction, and the twist-family diagrams).

PD convention: each crossing is a 4-tuple of arc labels in counterclockwise
order starting at the incoming under-strand, so the under-strand runs from
slot 0 to slot 2 and the over-strand occupies slots 1 and 3.  Arcs are the
edges of the shadow (segments between consecutive crossings, over or
under); every label appears exactly twice.  A crossing is positive when
the over-strand runs from slot 3 to slot 1.

Two walks build everything else.  The face walk traces the faces, the
orbits of the combinatorial map (quadrant k of a crossing, the corner
between slots k and k+1, lies in one face), and goes from each face to its
neighbours across arcs, colouring neighbours apart; each walk from a new
root covers one shadow component.  The class containing the designated
unbounded face is white.  The strand walk follows each strand forward (a
strand entering a crossing at slot k leaves at slot k+2), giving every arc
its direction and every component its cycle of arcs.  All of this happens
on the sphere, so invariants do not depend on which face is called
unbounded; the generated diagrams carry the geometric choice anyway so
that the white regions match the white graph they came from.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .covers import BOUNDARY, WhiteGraph, kanenobu_white_graph
from .tokens import UNSIGNED

End = tuple[int, int]  # (crossing index, slot 0..3)


class DiagramError(ValueError):
    pass


def _arc_ends(crossings: Sequence[Sequence[int]]) -> dict[int, list[End]]:
    ends: dict[int, list[End]] = {}
    for ci, c in enumerate(crossings):
        for k, arc in enumerate(c):
            ends.setdefault(arc, []).append((ci, k))
    return ends


def _walk_strands(crossings: Sequence[Sequence[int]], ends: dict[int, list[End]],
                  seeds: Iterable[Sequence[End]]
                  ) -> tuple[dict[int, tuple[End, End]], list[list[int]]]:
    """The strand walk: from each seed (tail, head) whose arc is not yet
    walked, follow the strand forward (entering a crossing at slot k, it
    leaves at slot k+2) until it closes up.  Returns arc -> (tail, head)
    and the component cycles, each from its seed arc."""
    direction: dict[int, tuple[End, End]] = {}
    cycles: list[list[int]] = []
    for tail, head in seeds:
        arc = crossings[tail[0]][tail[1]]
        cycle = []
        while arc not in direction:
            direction[arc] = (tail, head)
            cycle.append(arc)
            tail = (head[0], (head[1] + 2) % 4)
            arc = crossings[tail[0]][tail[1]]
            a, b = ends[arc]
            head = b if a == tail else a
        if cycle:
            cycles.append(cycle)
    return direction, cycles


class LinkDiagram:
    """An oriented link diagram.

    crossings: PD tuples.  free_loops: number of crossingless unknot
    components in addition to the PD code.  The constructor runs both
    walks and keeps their results as attributes:

    faces: each face as the set of its darts (crossing, slot), in the order
      the face walk traced them.
    face_of_quadrant: (c, k) -> index of the face holding quadrant k of
      crossing c.
    colors: per face, 1 = white (the class of the unbounded face), 0 = black.

    The arc directions come from the PD convention alone: the strand walk
    starts at each crossing's slot-0 arc, as incoming, and every crossing
    must be entered there; then at each arc not yet walked, in sorted
    order, so a component that is never an under-strand runs from the
    first end of its least arc.
    """

    def __init__(self, crossings: Sequence[tuple[int, int, int, int]],
                 free_loops: int = 0,
                 unbounded_quadrant: tuple[int, int] | None = None):
        self.crossings = tuple(tuple(int(x) for x in c) for c in crossings)
        self.free_loops = int(free_loops)
        if any(len(c) != 4 for c in self.crossings):
            raise DiagramError("every PD entry needs exactly 4 arc labels")
        self._occurrences = _arc_ends(self.crossings)
        for arc, occ in self._occurrences.items():
            if len(occ) != 2:
                raise DiagramError(f"arc {arc} appears {len(occ)} times, expected 2")
        self._unbounded_quadrant = unbounded_quadrant
        self._trace_faces()
        seeds = [(self.other_end((ci, 0)), (ci, 0)) for ci in range(self.n_crossings)]
        self._direction, self._cycles = _walk_strands(
            self.crossings, self._occurrences,
            seeds + [self._occurrences[arc] for arc in self.arcs()])
        for ci, c in enumerate(self.crossings):
            if self._direction[c[0]][1] != (ci, 0):
                raise DiagramError(f"inconsistent orientation at arc {c[0]}")

    # -- basic structure -----------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def arcs(self) -> list[int]:
        return sorted(self._occurrences)

    def other_end(self, end: End) -> End:
        ci, k = end
        arc = self.crossings[ci][k]
        a, b = self._occurrences[arc]
        return b if a == end else a

    def is_connected(self) -> bool:
        if not self.crossings:
            return self.free_loops <= 1
        return not self.free_loops and self._shadows == 1

    # -- faces and colouring ---------------------------------------------------

    def _trace_faces(self) -> None:
        """The face walk.  Each root dart starts a new shadow component,
        and the component lies on its own sphere exactly when it has
        c + 2 faces for its c crossings."""
        face_of_dart: dict[End, int] = {}
        self.faces: list[frozenset[End]] = []
        self.colors: list[int] = []
        self._shadows, proper = 0, True
        for root in ((ci, k) for ci in range(self.n_crossings) for k in range(4)):
            if root in face_of_dart:
                continue
            self._shadows += 1
            stack = [(root, 0)]
            while stack:
                dart, color = stack.pop()
                if dart in face_of_dart:
                    proper = proper and self.colors[face_of_dart[dart]] == color
                    continue
                orbit = []
                while dart not in face_of_dart:
                    face_of_dart[dart] = len(self.faces)
                    orbit.append(dart)
                    # dart (c, k+1) lies in the face across the arc at slot k
                    stack.append(((dart[0], (dart[1] + 1) % 4), 1 - color))
                    ci, k = self.other_end(dart)
                    dart = (ci, (k + 1) % 4)
                self.faces.append(frozenset(orbit))
                self.colors.append(color)
        expected = self.n_crossings + 2 * self._shadows
        if len(self.faces) != expected:
            raise DiagramError(
                f"face count {len(self.faces)} != crossings + 2 * shadow components "
                f"= {expected}; the PD tuples do not describe a sphere diagram")
        if not proper:
            raise DiagramError("diagram faces are not 2-colourable")
        # quadrant k at crossing c (corner between slots k and k+1) lies in
        # the face orbit containing the dart (c, k+1)
        self.face_of_quadrant = {
            (ci, k): face_of_dart[(ci, (k + 1) % 4)]
            for ci in range(self.n_crossings) for k in range(4)}
        if self.faces and self.colors[self.unbounded_face()] == 0:
            self.colors = [1 - c for c in self.colors]

    def unbounded_face(self) -> int:
        if not self.crossings:
            return 0
        return self.face_of_quadrant[self._unbounded_quadrant or (0, 0)]

    def white_quadrants_are_even(self, ci: int) -> bool:
        """True when the white quadrant pair at crossing ci is {q0, q2}."""
        c0 = self.colors[self.face_of_quadrant[(ci, 0)]]
        c1 = self.colors[self.face_of_quadrant[(ci, 1)]]
        if c0 == c1:
            raise DiagramError(f"crossing {ci} has equal-colour adjacent quadrants")
        return c0 == 1

    # -- orientation ------------------------------------------------------------

    def components(self) -> list[list[int]]:
        """Arc cycles of the oriented components (PD components only)."""
        return self._cycles

    def n_components(self) -> int:
        return len(self._cycles) + self.free_loops

    def crossing_sign(self, ci: int) -> int:
        """+1 when the over-strand runs slot 3 -> slot 1 (so the arc in
        slot 1 is outgoing)."""
        over_arc = self.crossings[ci][1]
        return 1 if self._direction[over_arc][0] == (ci, 1) else -1

    def writhe(self) -> int:
        return sum(self.crossing_sign(ci) for ci in range(len(self.crossings)))

    # -- parsing ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "LinkDiagram":
        """Parse PD text: X[a,b,c,d] crossing entries, O[k: a b ...]
        entries that list one component's arcs in its direction of travel
        (checked against the derived orientation) and O[loop] free loops,
        separated by commas and whitespace.  Anything else is a
        DiagramError."""
        end = _PD_TEXT.match(text).end()
        if end != len(text):
            raise DiagramError(f"malformed PD text at offset {end}: {text[end:end + 20]!r}")
        xs = re.findall(_PD_CROSSING, text)
        crossings = [tuple(int(v) for v in m) for m in xs]
        loops = len(re.findall(_PD_LOOP, text))
        olines = re.findall(_PD_ORIENTATION, text)
        diagram = cls(crossings, free_loops=loops)
        if olines:
            # verify the cycles are consistent with the derived orientation
            derived = {tuple(c) for c in
                       (_cycle_normal(comp) for comp in diagram.components())}
            for line in olines:
                cyc = [int(tok) for tok in re.split(r"[,\s]+", line.strip()) if tok]
                if _cycle_normal(cyc) not in derived:
                    reversed_norm = _cycle_normal(list(reversed(cyc)))
                    if reversed_norm in derived:
                        raise DiagramError(
                            "orientation line reverses a component; re-emit the PD "
                            "tuples for the reversed orientation instead")
                    raise DiagramError(f"orientation line {cyc} matches no component")
        return diagram

    def __repr__(self) -> str:
        return (f"LinkDiagram({len(self.crossings)} crossings, "
                f"{self.n_components()} components)")


_PD_INT = rf"\s*({UNSIGNED})\s*"
_PD_CROSSING = rf"X\[{_PD_INT},{_PD_INT},{_PD_INT},{_PD_INT}\]"
_PD_LOOP = r"O\[\s*loop\s*\]"
_PD_ORIENTATION = rf"O\[\s*{UNSIGNED}\s*:\s*([0-9,\s]+)\]"
_PD_TEXT = re.compile(rf"(?:{_PD_CROSSING}|{_PD_LOOP}|{_PD_ORIENTATION}|[,\s])*")


def _cycle_normal(cyc: Sequence[int]) -> tuple[int, ...]:
    if not cyc:
        return ()
    m = min(range(len(cyc)), key=lambda i: cyc[i])
    return tuple(cyc[m:]) + tuple(cyc[:m])


# ---------------------------------------------------------------------------
# Medial construction: signed plane white graph -> checkerboard diagram
# ---------------------------------------------------------------------------

def unknot_diagram() -> LinkDiagram:
    return LinkDiagram((), free_loops=1)


# Over-strand rule: at the crossing of an edge with sign +1 the over-strand
# is the diagonal flanking the white regions' corners of the first endpoint
# on the right (the "R(d)" diagonal); sign -1 takes the other diagonal.
# Flipping this constant mirrors every generated diagram; it is pinned by
# the anchor tests (positive-edge twist graphs give right-handed torus
# links, and the Goeritz matrix of the generated diagram coincides with the
# white-graph Laplacian, same signs).


def white_graph_diagram(graph: WhiteGraph) -> LinkDiagram:
    """Checkerboard link diagram whose white graph is `graph`.

    One crossing per unit edge of `graph.expanded()`, numbered alike;
    segments of the diagram correspond to corners between consecutive
    edge-ends at the graph's vertices (including the unbounded-region
    vertex, whose rotation must be supplied).  A rotation system that is
    not planar fails the sphere check of `LinkDiagram`: the medial map of
    a genus-g rotation system with E edges has E + 2 - 2g faces.
    """
    if not graph.has_boundary_cycle():
        raise DiagramError(
            "rebuilding the diagram needs the cyclic order at the boundary vertex")
    if not graph.is_connected():
        raise DiagramError("white graph is disconnected")
    graph = graph.expanded()
    n_edges = len(graph.edges)
    if n_edges == 0:
        return unknot_diagram()

    # Each edge-end id carries two crossing ports: L (counterclockwise side)
    # and R (clockwise side).  Port numbering per crossing e, with d the
    # end at the first endpoint and dbar at the second:
    #   slot 0 = R(d), slot 1 = L(dbar), slot 2 = R(dbar), slot 3 = L(d)
    def port(end_id: int, side: str) -> End:
        e = end_id // 2
        first = end_id % 2 == 0
        if side == "R":
            return (e, 0) if first else (e, 2)
        return (e, 3) if first else (e, 1)

    # Segments: one per corner (vertex v, consecutive ends e_i -> e_{i+1}
    # counterclockwise): connects L(e_i) to R(e_{i+1}).
    arc_of_port: dict[End, int] = {}
    arc_label = 0
    for rot in graph.cyclic:
        m = len(rot)
        for i in range(m):
            e_cur, e_nxt = rot[i], rot[(i + 1) % m]
            arc_label += 1
            for p in (port(e_cur, "L"), port(e_nxt, "R")):
                if p in arc_of_port:
                    raise DiagramError("corner segments collide; bad rotation data")
                arc_of_port[p] = arc_label

    raw = [[arc_of_port[(e, k)] for k in range(4)] for e in range(n_edges)]

    # Rotate each crossing so the under-strand's incoming port is slot 0:
    # the strand walk directs the shadow, then sign +1 puts the over-strand
    # on the R(d)-R(dbar) diagonal {0, 2} of the raw numbering, so the
    # under-strand takes {1, 3}; sign -1 swaps the two.
    ends = _arc_ends(raw)
    direction, _cycles = _walk_strands(raw, ends, (ends[arc] for arc in sorted(ends)))
    rotation_of = [next(s for s in ((1, 3) if sign == 1 else (0, 2))
                        if direction[raw[e][s]][1] == (e, s))
                   for e, (_a, _b, sign) in enumerate(graph.edges)]
    crossings = [tuple(raw[e][(rot + k) % 4] for k in range(4))
                 for e, rot in enumerate(rotation_of)]

    # The unbounded face: the white region of the boundary vertex.  Its
    # corner at any boundary edge e (with the boundary vertex as second
    # endpoint) is the raw quadrant between slots 1 and 2; as first
    # endpoint, between slots 3 and 0.
    unbounded = None
    for e, (a, b, _s) in enumerate(graph.edges):
        if b == BOUNDARY:
            raw_q = 1
        elif a == BOUNDARY:
            raw_q = 3
        else:
            continue
        unbounded = (e, (raw_q - rotation_of[e]) % 4)
        break
    if unbounded is None:
        raise DiagramError("white graph has no boundary edges; the unbounded "
                           "region would touch no crossing")
    return LinkDiagram(crossings, unbounded_quadrant=unbounded)


# ---------------------------------------------------------------------------
# The two-twist-region family
# ---------------------------------------------------------------------------

def kanenobu_diagram(p: int, q: int) -> LinkDiagram:
    """Diagram of K_{p,q} with 8 + |p| + |q| crossings, rebuilt from its
    white graph."""
    return white_graph_diagram(kanenobu_white_graph(p, q))


def parity_reduced_diagram(graph: WhiteGraph) -> tuple[LinkDiagram, tuple[int, ...]]:
    """The diagram of `graph` with each edge of weight w cut to 1 or 2
    crossings (|w| mod 2 kept, and the sign), plus, per crossing, how many
    crossings of the full diagram it stands for.

    A twist region cut by an even number of crossings connects its four
    ends as before, so the diagram keeps the components and, for a knot,
    each bundle's crossing type.  All crossings of one bundle share their
    two white regions, Goeritz sign and type, so the full diagram's Goeritz
    data is the reduced one's with the first crossing of each bundle
    counted |w| - |w'| + 1 times (`skein.goeritz_invariants`).  For a link,
    each diagram orients its components on its own, so only the determinant
    is sure to agree.  At most 2 * len(graph.edges) crossings, whatever the
    weights.
    """
    edges, multiplicity = [], []
    for a, b, weight in graph.edges:
        k = 2 - abs(weight) % 2
        edges.append((a, b, k if weight > 0 else -k))
        multiplicity += [abs(weight) - k + 1] + [1] * (k - 1)
    reduced = WhiteGraph(vertices=graph.vertices, edges=tuple(edges),
                         cyclic=graph.cyclic)
    return white_graph_diagram(reduced), tuple(multiplicity)
