"""Planar link diagrams as PD codes, with faces, checkerboard colouring,
orientation, and constructors (the medial diagram of a signed white graph,
its parity reduction, and the twist-family diagrams).

PD convention: each crossing is a 4-tuple of arc labels in counterclockwise
order starting at the incoming under-strand, so the under-strand runs from
slot 0 to slot 2 and the over-strand occupies slots 1 and 3.  Arcs are the
edges of the shadow (segments between consecutive crossings, over or
under); every label appears exactly twice.  A crossing is positive when
the over-strand runs from slot 3 to slot 1.

Faces are the orbits of the combinatorial map; quadrant k of a crossing
(the corner between slots k and k+1) lies in a face, the colouring
two-colours the faces, and the class containing the designated unbounded
face is white.  All of this happens on the sphere, so invariants do not
depend on which face is called unbounded; the generated diagrams carry the
geometric choice anyway so that the white regions match the white graph
they came from.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .covers import BOUNDARY, WhiteGraph
from .tokens import UNSIGNED

End = tuple[int, int]  # (crossing index, slot 0..3)


class DiagramError(ValueError):
    pass


class LinkDiagram:
    """An oriented link diagram.

    crossings: PD tuples.  free_loops: number of crossingless unknot
    components in addition to the PD code.  The arc directions come from
    the PD convention alone (the under-strand enters at slot 0), propagated
    along strands; a component that is never an under-strand runs from the
    first end of its least arc.
    """

    def __init__(self, crossings: Sequence[tuple[int, int, int, int]],
                 free_loops: int = 0,
                 unbounded_quadrant: tuple[int, int] | None = None):
        self.crossings = tuple(tuple(int(x) for x in c) for c in crossings)
        self.free_loops = int(free_loops)
        if any(len(c) != 4 for c in self.crossings):
            raise DiagramError("every PD entry needs exactly 4 arc labels")
        self._occurrences: dict[int, list[End]] = {}
        for ci, c in enumerate(self.crossings):
            for k, arc in enumerate(c):
                self._occurrences.setdefault(arc, []).append((ci, k))
        for arc, occ in self._occurrences.items():
            if len(occ) != 2:
                raise DiagramError(f"arc {arc} appears {len(occ)} times, expected 2")
        self._unbounded_quadrant = unbounded_quadrant
        self._shadows = self._count_shadows()
        self._trace_faces()
        self._colors: list[int] | None = None
        self._orientation = self._orient()

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

    def _count_shadows(self) -> int:
        """Connected components of the shadow (crossings joined by arcs)."""
        seen: set[int] = set()
        count = 0
        for start in range(len(self.crossings)):
            if start in seen:
                continue
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                ci = stack.pop()
                for k in range(4):
                    cj, _ = self.other_end((ci, k))
                    if cj not in seen:
                        seen.add(cj)
                        stack.append(cj)
        return count

    # -- faces and colouring ---------------------------------------------------

    def faces(self) -> list[frozenset[End]]:
        """Faces as orbits of the map; quadrant (c, k) of a crossing lies in
        face `face_of_quadrant()[(c, k)]`."""
        return self._faces

    def face_of_quadrant(self) -> dict[End, int]:
        return self._face_of_quadrant

    def _trace_faces(self) -> None:
        """Trace the faces, checking that every shadow component lies on
        its own sphere: a connected map with c crossings has c + 2 faces
        exactly when it is planar."""
        darts = [(ci, k) for ci in range(len(self.crossings)) for k in range(4)]
        face_id: dict[End, int] = {}
        faces: list[frozenset[End]] = []
        for start in darts:
            if start in face_id:
                continue
            orbit = []
            cur = start
            while cur not in face_id:
                face_id[cur] = len(faces)
                orbit.append(cur)
                nxt = self.other_end(cur)
                cur = (nxt[0], (nxt[1] + 1) % 4)
            faces.append(frozenset(orbit))
        expected = len(self.crossings) + 2 * self._shadows
        if len(faces) != expected:
            raise DiagramError(
                f"face count {len(faces)} != crossings + 2 * shadow components "
                f"= {expected}; the PD tuples do not describe a sphere diagram")
        self._faces = faces
        # quadrant k at crossing c (corner between slots k and k+1) lies in
        # the face orbit containing the dart (c, k+1)
        self._face_of_quadrant = {
            (ci, k): face_id[(ci, (k + 1) % 4)]
            for ci in range(len(self.crossings)) for k in range(4)}

    def checkerboard_colors(self) -> list[int]:
        """Colour 1 = white (the class of the unbounded face), 0 = black."""
        if self._colors is not None:
            return self._colors
        faces = self.faces()
        fq = self.face_of_quadrant()
        adj: list[set[int]] = [set() for _ in faces]
        for ci in range(len(self.crossings)):
            for k in range(4):
                a, b = fq[(ci, k)], fq[(ci, (k + 1) % 4)]
                adj[a].add(b)
                adj[b].add(a)
        colors = [-1] * len(faces)
        for start in range(len(faces)):
            if colors[start] != -1:
                continue
            colors[start] = 0
            stack = [start]
            while stack:
                f = stack.pop()
                for g in adj[f]:
                    if colors[g] == -1:
                        colors[g] = 1 - colors[f]
                        stack.append(g)
                    elif colors[g] == colors[f]:
                        raise DiagramError("diagram faces are not 2-colourable")
        unb = self.unbounded_face()
        if colors[unb] == 0:
            colors = [1 - c for c in colors]
        self._colors = colors
        return colors

    def unbounded_face(self) -> int:
        if not self.crossings:
            return 0
        if self._unbounded_quadrant is not None:
            return self.face_of_quadrant()[self._unbounded_quadrant]
        return self.face_of_quadrant()[(0, 0)]

    def white_quadrants_are_even(self, ci: int) -> bool:
        """True when the white quadrant pair at crossing ci is {q0, q2}."""
        colors = self.checkerboard_colors()
        fq = self.face_of_quadrant()
        c0 = colors[fq[(ci, 0)]]
        c1 = colors[fq[(ci, 1)]]
        if c0 == c1:
            raise DiagramError(f"crossing {ci} has equal-colour adjacent quadrants")
        return c0 == 1

    # -- orientation ------------------------------------------------------------

    def _orient(self) -> dict[int, tuple[End, End]]:
        """Directions for every arc: arc -> (tail end, head end).

        The PD convention forces the under-strand of each crossing to enter
        at slot 0 and leave at slot 2; directions propagate along strands
        (entering slot k exits slot k+2).  Components that are never an
        under-strand get an arbitrary but deterministic direction.
        """
        direction: dict[int, tuple[End, End]] = {}
        pending: list[tuple[int, End, End]] = []

        def push(arc: int, tail: End, head: End) -> None:
            pending.append((arc, tail, head))

        def drain() -> None:
            while pending:
                arc, tail, head = pending.pop()
                if arc in direction:
                    if direction[arc] != (tail, head):
                        raise DiagramError(f"inconsistent orientation at arc {arc}")
                    continue
                direction[arc] = (tail, head)
                ci, k = head  # continue forward through the head crossing
                out = (ci, (k + 2) % 4)
                push(self.crossings[ci][out[1]], out, self.other_end(out))
                ci, k = tail  # and backward through the tail crossing
                inc = (ci, (k + 2) % 4)
                push(self.crossings[ci][inc[1]], self.other_end(inc), inc)

        for ci in range(len(self.crossings)):
            push(self.crossings[ci][0], self.other_end((ci, 0)), (ci, 0))
            drain()
        for arc in self.arcs():
            if arc not in direction:
                a, b = self._occurrences[arc]
                push(arc, a, b)
                drain()
        return direction

    def orientation(self) -> dict[int, tuple[End, End]]:
        return self._orientation

    def components(self) -> list[list[int]]:
        """Arc cycles of the oriented components (PD components only)."""
        comps = []
        seen: set[int] = set()
        for arc in self.arcs():
            if arc in seen:
                continue
            cyc = []
            cur = arc
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                _, head = self._orientation[cur]
                ci, k = head
                cur = self.crossings[ci][(k + 2) % 4]
            comps.append(cyc)
        return comps

    def n_components(self) -> int:
        return len(self.components()) + self.free_loops

    def crossing_sign(self, ci: int) -> int:
        """+1 when the over-strand runs slot 3 -> slot 1 (so the arc in
        slot 1 is outgoing)."""
        over_arc = self.crossings[ci][1]
        return 1 if self._orientation[over_arc][0] == (ci, 1) else -1

    def writhe(self) -> int:
        return sum(self.crossing_sign(ci) for ci in range(len(self.crossings)))

    # -- serialisation ------------------------------------------------------------

    def to_text(self) -> str:
        xs = ", ".join("X[%d,%d,%d,%d]" % c for c in self.crossings)
        lines = [xs] if xs else []
        for idx, comp in enumerate(self.components()):
            lines.append(f"O[{idx}: " + " ".join(str(a) for a in comp) + "]")
        for _ in range(self.free_loops):
            lines.append("O[loop]")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LinkDiagram":
        """Parse `to_text` output: X[a,b,c,d] entries and optional O[...]
        orientation and free-loop entries, separated by commas and
        whitespace.  Anything else is a DiagramError."""
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

    rotations: dict[int | str, list[int]] = {}
    for v in range(1, graph.vertices + 1):
        rotations[v] = list(graph.cyclic[v - 1])
    rotations[BOUNDARY] = list(graph.cyclic[graph.vertices])

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
    for v, rot in rotations.items():
        m = len(rot)
        for i in range(m):
            e_cur, e_nxt = rot[i], rot[(i + 1) % m]
            arc_label += 1
            for p in (port(e_cur, "L"), port(e_nxt, "R")):
                if p in arc_of_port:
                    raise DiagramError("corner segments collide; bad rotation data")
                arc_of_port[p] = arc_label

    raw = [[arc_of_port[(e, k)] for k in range(4)] for e in range(n_edges)]

    # Components and directions on the shadow (enter slot k, exit k+2)
    occurrences: dict[int, list[End]] = {}
    for e in range(n_edges):
        for k in range(4):
            occurrences.setdefault(raw[e][k], []).append((e, k))
    direction: dict[int, tuple[End, End]] = {}
    for start_arc in sorted(occurrences):
        if start_arc in direction:
            continue
        tail, head = occurrences[start_arc]
        cur, t, h = start_arc, tail, head
        while cur not in direction:
            direction[cur] = (t, h)
            ci, k = h
            out = (ci, (k + 2) % 4)
            cur = raw[ci][out[1]]
            a, b = occurrences[cur]
            t, h = (out, b if a == out else a)

    # Rotate each crossing so the under-strand's incoming port is slot 0.
    # Sign +1: over-diagonal = {slot 0, slot 2} of the raw numbering
    # (the R(d)-R(dbar) strand); sign -1: the L-diagonal {1, 3}.
    crossings: list[tuple[int, int, int, int]] = []
    rotation_of: list[int] = []
    for e in range(n_edges):
        sign = graph.edges[e][2]
        over_slots = (0, 2) if sign == 1 else (1, 3)
        under_slots = (1, 3) if sign == 1 else (0, 2)
        under_in = next(s for s in under_slots
                        if direction[raw[e][s]][1] == (e, s))
        rot = under_in
        crossings.append(tuple(raw[e][(rot + k) % 4] for k in range(4)))
        rotation_of.append(rot)

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
    from .covers import kanenobu_white_graph
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
