"""Fundamental-group presentations of branched double covers from
checkerboard white graphs.

A white graph records the white regions of a checkerboard-coloured knot
diagram (one vertex per bounded white region, plus the distinguished
unbounded region), its crossings as signed edges, and the counterclockwise
cyclic order of edge-ends at each vertex.  A twist region of parallel
crossings is one edge whose weight counts them with their sign.  Reading
the recipe off the graph gives a genus-g Heegaard presentation of the
double branched cover: one generator and one relator per bounded vertex,
where a counterclockwise loop around vertex v_i records the run
(a_j^-1 a_i)^w for each edge of weight w to a bounded vertex v_j and the
run a_i^w for each edge to the unbounded region.

The boundary-edge convention reproduces the twist-family relators below
exactly; it is the first thing to suspect if a user-supplied graph yields
an unexpected homology order (cross-check against the diagram determinant).
"""

from __future__ import annotations

from math import gcd

from .foxcalc import (Presentation, Relator, Run, abelianize_relator_derivative,
                      determinant_cofactor, gen, presentation_matrix, winv,
                      wmul)
from .groupring import GroupRingElem
from .intmat import smith_normal_form
from .records import Record

BOUNDARY = "B"


class WhiteGraph(Record):
    """Signed plane multigraph of white regions, parallel edges bundled.

    vertices: number of bounded-region vertices, numbered 1..k.
    edges: (i, j, w) with 1-based vertex labels; j may be the string "B"
        for the unbounded-region vertex.  The weight w is a nonzero integer:
        the edge stands for |w| parallel edges of sign sgn(w), side by side
        in the cyclic orders (a twist region of |w| crossings).
    cyclic: entry v-1 lists the counterclockwise order of edge-end ids at
        bounded vertex v; an optional extra entry gives the order at "B"
        (needed to rebuild the link diagram, not for the presentation).
        The end ids of edge e are 2*e (at its first endpoint) and 2*e+1.
    """

    vertices: int
    edges: tuple[tuple[int | str, int | str, int], ...]
    cyclic: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (len(self.cyclic) in (self.vertices, self.vertices + 1)):
            raise ValueError("need one cyclic order per bounded vertex "
                             "(plus optionally one for the boundary vertex)")
        incident = {v: [] for v in range(1, self.vertices + 1)}
        incident[BOUNDARY] = []
        for e, (a, b, weight) in enumerate(self.edges):
            if type(weight) is not int or weight == 0:
                raise ValueError(f"edge {e} has weight {weight!r}, "
                                 "not a nonzero integer")
            for endpoint, end_id in ((a, 2 * e), (b, 2 * e + 1)):
                if endpoint == BOUNDARY:
                    incident[BOUNDARY].append(end_id)
                elif type(endpoint) is int and 1 <= endpoint <= self.vertices:
                    incident[endpoint].append(end_id)
                else:
                    raise ValueError(f"edge {e} endpoint {endpoint!r} out of range")
        for v in range(1, self.vertices + 1):
            if sorted(self.cyclic[v - 1]) != sorted(incident[v]):
                raise ValueError(
                    f"cyclic order at vertex {v} is not a permutation of its edge-ends")
        if len(self.cyclic) == self.vertices + 1:
            if sorted(self.cyclic[self.vertices]) != sorted(incident[BOUNDARY]):
                raise ValueError(
                    "boundary cyclic order is not a permutation of the boundary edge-ends")

    def expanded(self) -> "WhiteGraph":
        """The same graph with every edge of weight w written as |w| edges of
        sign sgn(w), numbered consecutively; their ends run in order at the
        first endpoint and in reverse at the second, as parallel edges do."""
        edges: list[tuple[int | str, int | str, int]] = []
        ends: dict[int, list[int]] = {}
        for e, (a, b, weight) in enumerate(self.edges):
            first = len(edges)
            edges.extend([(a, b, 1 if weight > 0 else -1)] * abs(weight))
            units = range(first, len(edges))
            ends[2 * e] = [2 * u for u in units]
            ends[2 * e + 1] = [2 * u + 1 for u in reversed(units)]
        return WhiteGraph(vertices=self.vertices, edges=tuple(edges),
                          cyclic=tuple(tuple(x for end in order for x in ends[end])
                                       for order in self.cyclic))

    # -- helpers -------------------------------------------------------------

    def other_end_vertex(self, end_id: int) -> int | str:
        edge = self.edges[end_id // 2]
        return edge[1] if end_id % 2 == 0 else edge[0]

    def has_boundary_cycle(self) -> bool:
        return len(self.cyclic) == self.vertices + 1

    def is_connected(self) -> bool:
        """Every bounded vertex and every edge endpoint lie in one component
        (the boundary vertex may have no edge)."""
        if not self.edges:
            return self.vertices <= 1
        adj = {v: set() for v in range(1, self.vertices + 1)}
        adj[BOUNDARY] = set()
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        stack = [self.edges[0][0]]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return all(v in seen for v, near in adj.items() if near or v != BOUNDARY)


class BranchedCoverPresentation(Record):
    """Presentation of pi_1 of a double branched cover plus the dual-curve
    homology data used by the torsion formula.

    factors are the invariant factors > 1 of H_1 (None when H_1 is
    infinite).  For white-graph presentations both distinguished generating
    sets agree: g_i = h_i = ab(a_i) in H_1, filled in when H_1 is finite
    cyclic.
    """

    presentation: Presentation
    factors: tuple[int, ...] | None = None
    g_classes: tuple[int, ...] | None = None
    h_classes: tuple[int, ...] | None = None

    @property
    def modulus(self) -> int | None:
        return self.presentation.modulus


class HomologyNotFiniteError(ValueError):
    pass


class HomologyNotCyclicError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The white-graph recipe
# ---------------------------------------------------------------------------

def white_graph_presentation(graph: WhiteGraph) -> BranchedCoverPresentation:
    """One generator and one relator per bounded vertex; the relator around
    v is the left-to-right product, in counterclockwise order, of the runs
    (a_j^-1 a_i)^w for edges of weight w to bounded v_j and a_i^w for edges
    to the unbounded region.

    H_1 is computed here, once: the cover carries its invariant factors and,
    when H_1 is finite cyclic, the generator images as the abelianization
    assignment and the dual-curve classes."""
    if not graph.is_connected():
        raise ValueError("white graph is disconnected")
    relators: list[Relator] = []
    for v in range(1, graph.vertices + 1):
        runs: list[Run] = []
        for end_id in graph.cyclic[v - 1]:
            weight = graph.edges[end_id // 2][2]
            other = graph.other_end_vertex(end_id)
            u = gen(v) if other == BOUNDARY else wmul(winv(gen(other)), gen(v))
            runs.append((u, weight))
        relators.append(tuple(runs))
    pres = Presentation(gens=graph.vertices, relators=tuple(relators))
    try:
        factors, images, modulus = homology_invariants(pres)
    except HomologyNotFiniteError:
        return BranchedCoverPresentation(presentation=pres)
    if images is not None:
        # attach the cyclic abelianization assignment
        pres = Presentation(gens=pres.gens, relators=pres.relators,
                            assignment=images, modulus=modulus)
        if not pres.check_assignment():
            raise AssertionError("homology assignment fails to kill a relator")
    return BranchedCoverPresentation(presentation=pres, factors=tuple(factors),
                                     g_classes=images, h_classes=images)


def homology_invariants(pres: Presentation
                        ) -> tuple[list[int], tuple[int, ...] | None, int | None]:
    """Invariant factors of H_1 plus, when H_1 is finite cyclic of order N,
    the generator images a_i -> t^{k_i}: normalised so the last generator
    with a unit image maps to t, or, when no generator's image is a unit
    (a1 -> t^3, a2 -> t^2 for <a1, a2 | a1^2, a2^3>), relative to the
    Smith-form generator.

    Returns (factors > 1, images or None, N or None).  Raises
    HomologyNotFiniteError when H_1 is infinite.
    """
    if pres.gens > len(pres.relators):
        # rank(M) <= #relators, so the matrix need not be built
        raise HomologyNotFiniteError(
            f"H_1 is infinite (free rank at least {pres.gens - len(pres.relators)})")
    m = presentation_matrix(pres)
    diag, u, _v = smith_normal_form(m)
    rank_deficit = pres.gens - len([d for d in diag if d != 0])
    if rank_deficit > 0:
        raise HomologyNotFiniteError(
            f"H_1 is infinite (free rank {rank_deficit})")
    factors = [d for d in diag if d > 1]
    if len(factors) == 0:
        return [], tuple([0] * pres.gens), 1
    if len(factors) > 1:
        return factors, None, None
    n = factors[0]
    # coker(M) = Z^g / im(M) ~ via x -> Ux ~ (+) Z/d_i; the lone factor > 1
    # sits at the position of n in diag
    pos = diag.index(n)
    raw = [u[pos][i] % n for i in range(pres.gens)]
    units = [x for x in raw if gcd(x, n) == 1]
    inv = pow(units[-1], -1, n) if units else 1
    images = tuple((x * inv) % n for x in raw)
    return [n], images, n


# ---------------------------------------------------------------------------
# The twist-family white graph (two twist regions with p and q half-twists)
# ---------------------------------------------------------------------------

def kanenobu_white_graph(p: int, q: int) -> WhiteGraph:
    """White graph of the two-twist-region ribbon knot K_{p,q}, one edge per
    twist region.

    Four bounded vertices: v1 (top left), v2 (bottom left), v3 (bottom
    right), v4 (top right).  An edge of weight p joins v1-v2 and one of
    weight q joins v3-v4 (none when the weight is 0), one +1 edge joins
    v1-v4, one -1 edge joins v2-v3, and the unbounded region receives a +1
    edge at v1, a -1 edge at v2, a -2 edge at v3 and a +2 edge at v4: at
    most eight edges for any p and q.
    """
    edges: list[tuple[int | str, int | str, int]] = []

    def add(a, b, weight) -> int | None:
        if not weight:
            return None
        edges.append((a, b, weight))
        return len(edges) - 1

    e_p = add(1, 2, p)
    e_f = add(1, 4, 1)
    e_g = add(2, 3, -1)
    e_q = add(3, 4, q)
    c1 = add(1, BOUNDARY, 1)
    c2 = add(2, BOUNDARY, -1)
    c3 = add(3, BOUNDARY, -2)
    c4 = add(4, BOUNDARY, 2)

    def order(*ends) -> tuple[int, ...]:
        # (edge, 0 at its first endpoint or 1 at its second) -> end id
        return tuple(2 * e + side for e, side in ends if e is not None)

    # counterclockwise around the unbounded vertex = clockwise around the
    # picture: start at v1's boundary edge and sweep over v4, v3, v2
    return WhiteGraph(vertices=4, edges=tuple(edges), cyclic=(
        order((e_p, 0), (e_f, 0), (c1, 0)),
        order((e_g, 0), (e_p, 1), (c2, 0)),
        order((e_q, 0), (e_g, 1), (c3, 0)),
        order((e_f, 1), (e_q, 1), (c4, 0)),
        order((c1, 1), (c4, 1), (c3, 1), (c2, 1))))


def kanenobu_presentation(p: int, q: int) -> BranchedCoverPresentation:
    """The four-generator presentation read off the K_{p,q} white graph."""
    return white_graph_presentation(kanenobu_white_graph(p, q))


# ---------------------------------------------------------------------------
# Abelianized Fox minors
# ---------------------------------------------------------------------------

def abelianized_minor(cover: BranchedCoverPresentation, r: int, s: int
                      ) -> GroupRingElem:
    """Determinant (cofactor expansion, exact) of the abelianized Fox matrix
    with generator row r and relator column s removed (1-based indices).

    Requires H_1 finite cyclic; the group-ring entries live in Q[Z/N].
    """
    pres = cover.presentation
    if pres.assignment is None or pres.modulus is None:
        raise HomologyNotCyclicError(
            "presentation has no finite cyclic abelianization; "
            "torsion minors need H_1 finite cyclic")
    n = pres.modulus
    g = pres.gens
    if not (1 <= r <= g and 1 <= s <= len(pres.relators)):
        raise ValueError("minor indices out of range")
    rows = [i for i in range(1, g + 1) if i != r]
    cols = [j for j in range(len(pres.relators)) if j != s - 1]
    mat = [[abelianize_relator_derivative(pres.relators[j], i, pres.assignment, n)
            for j in cols] for i in rows]
    return determinant_cofactor(mat, GroupRingElem.zero(n), GroupRingElem.one(n))


# ---------------------------------------------------------------------------
# The closed form the twist-family minor must match
# ---------------------------------------------------------------------------

def kanenobu_minor_closed_form(n: int) -> GroupRingElem:
    """Closed form of the (4,4) minor for the knot K_{-10n,10n+3}:

        -n*sigma*(1 + t + t^3) - 1 + t^2 - t^3 - t^8 + t^9 - t^11 + t^12
        - t^13 + t^15 - t^16 - t^20 + t^21 - t^23 + t^24,

    with sigma = 2(1 + t^5 + t^10 + t^15 + t^20).  The sign of the n-term
    is forced: evaluating the minor at t = 1 must reproduce the integer
    (4,4)-minor of the homology presentation matrix, which is -30n - 2.
    (Writing the n-term with a plus makes the formula inconsistent with the
    relator matrix it is derived from; only the linearity in n and the
    non-constancy matter downstream, but the tests pin the exact vector.)
    """
    sigma = GroupRingElem.from_terms(25, [(5 * k, 2) for k in range(5)])
    factor = GroupRingElem.from_terms(25, [(0, 1), (1, 1), (3, 1)])
    const = GroupRingElem.from_terms(25, [
        (0, -1), (2, 1), (3, -1), (8, -1), (9, 1), (11, -1), (12, 1),
        (13, -1), (15, 1), (16, -1), (20, -1), (21, 1), (23, -1), (24, 1)])
    return sigma.scale(-n) * factor + const
