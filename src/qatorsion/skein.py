"""Kauffman bracket, Jones polynomial, Goeritz form, link signature, and
the Casson-Walker invariant of the branched double cover via the
Jones/signature surgery formula.

Chirality conventions (pinned by the anchor tests and documented in the
README): a positive crossing is one whose over-strand runs slot 3 -> 1;
the A-smoothing joins slots (0,1) and (2,3).  With these choices the
closure of the positive 2-braid cubed is the right-handed trefoil with
V = t + t^3 - t^4 and signature -2, and the positive (3,5) torus knot has
sigma = -8, V'(-1) = 0, and Casson-Walker invariant -2 for its branched
double cover.

The bracket is evaluated by sweeping the diagram one crossing at a time,
carrying partial state sums indexed by how the open strand ends are paired
through the swept region, so twist regions cost polynomial work; the 2^c
state sum exists only as a test oracle.  The bracket is normalised at the
last crossing of the sweep, not by a division afterwards.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .diagrams import DiagramError, LinkDiagram
from .intmat import _symmetric_bareiss
from .laurent import Laurent, format_terms

LOOP = Laurent({2: -1, -2: -1})  # delta = -A^2 - A^(-2)

DEFAULT_CROSSING_BUDGET = 24

A_SMOOTHING = ((0, 1), (2, 3))
B_SMOOTHING = ((0, 3), (1, 2))


class CrossingBudgetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Kauffman bracket by frontier sweep
# ---------------------------------------------------------------------------

def _sweep_order(diagram: LinkDiagram) -> list[int]:
    """Order crossings so each new one shares as many arcs as possible with
    the already-swept region (keeps the open frontier narrow)."""
    remaining = set(range(len(diagram.crossings)))
    open_arcs: set[int] = set()
    order = []
    while remaining:
        best = max(remaining,
                   key=lambda ci: (sum(1 for a in diagram.crossings[ci] if a in open_arcs), -ci))
        order.append(best)
        remaining.remove(best)
        for a in diagram.crossings[best]:
            open_arcs.symmetric_difference_update({a})
    return order


def _merge_crossing(matching: frozenset, tup: Sequence[int],
                    smoothing) -> tuple[frozenset, int]:
    """Attach one smoothed crossing to the swept region.

    matching holds the open arcs (loose path ends) of the region as pairs
    (a, b), a < b, joined by a path.  The mate map sends each arc to the
    far end of its path; an arc not in it is its own far end (a new arc
    left open, or a kink arc whose other end is at this crossing).  Each
    smoothing pair joins two ends and closes a loop when they are the same
    arc or the two ends of one path.  Returns the new matching and the
    number of closed loops.
    """
    mate = {}
    for a, b in matching:
        mate[a], mate[b] = b, a
    closed = {a for a in tup if a in mate or tup.count(a) == 2}
    loops = 0
    for s1, s2 in smoothing:
        x, y = tup[s1], tup[s2]
        fx, fy = mate.get(x, x), mate.get(y, y)
        if x == y or fx == y:
            loops += 1
        else:
            mate[fx], mate[fy] = fy, fx
    return frozenset((a, b) for a, b in mate.items()
                     if a < b and a not in closed), loops


def kauffman_bracket(diagram: LinkDiagram) -> Laurent:
    """<D> in the variable A, normalised so <unknot> = 1 and a split unknot
    multiplies by -A^2 - A^(-2).

    The normalisation (one factor of delta less than the loop count) is
    taken at the last crossing of the sweep: every open end of the swept
    region meets that crossing, so in every state its second smoothing
    join closes a loop, and that loop goes uncounted."""
    n = len(diagram.crossings)
    if n == 0:
        if diagram.free_loops == 0:
            raise DiagramError("empty diagram")
        return LOOP ** (diagram.free_loops - 1)
    order = _sweep_order(diagram)
    states: dict[frozenset, Laurent] = {frozenset(): LOOP ** diagram.free_loops}
    for ci in order:
        tup = diagram.crossings[ci]
        uncounted = 1 if ci == order[-1] else 0
        new_states: dict[frozenset, Laurent] = {}
        for matching, coeff in states.items():
            for smoothing, weight in ((A_SMOOTHING, Laurent.term(1)),
                                      (B_SMOOTHING, Laurent.term(-1))):
                new_matching, loops = _merge_crossing(matching, tup, smoothing)
                add = coeff * weight * (LOOP ** (loops - uncounted))
                prev = new_states.get(new_matching)
                new_states[new_matching] = add if prev is None else prev + add
        states = {k: v for k, v in new_states.items() if not v.is_zero()}
    total = states.pop(frozenset(), Laurent.zero())
    if states:
        raise AssertionError("open strands remain after the sweep")
    return total


class JonesPolynomial:
    """V_L as a Laurent polynomial in u = t^(1/2); exponents are stored in
    half-units of t.  For knots every exponent is an even number of
    half-units, i.e. V is an honest polynomial in t."""

    __slots__ = ("upoly",)

    def __init__(self, upoly: Laurent):
        self.upoly = upoly

    def __eq__(self, other) -> bool:
        return isinstance(other, JonesPolynomial) and self.upoly == other.upoly

    def __hash__(self) -> int:
        return hash(self.upoly)

    def is_integral(self) -> bool:
        return all(e % 2 == 0 for e in self.upoly.terms)

    def t_polynomial(self) -> Laurent:
        if not self.is_integral():
            raise ValueError("half-integer exponents; not a polynomial in t")
        return Laurent({e // 2: c for e, c in self.upoly.terms.items()})

    def evaluate(self, t0) -> Fraction:
        return self.t_polynomial().evaluate(t0)

    def to_string(self) -> str:
        if self.is_integral():
            return self.t_polynomial().to_string()
        terms = self.upoly.terms
        return format_terms(
            ("" if e == 0 else f"t^({e}/2)" if e % 2 else f"t^{e // 2}", terms[e])
            for e in sorted(terms))

    def __repr__(self) -> str:
        return f"JonesPolynomial({self.to_string()!r})"


def _check_budget(n_crossings: int, budget: int) -> None:
    if n_crossings > budget:
        raise CrossingBudgetError(
            f"{n_crossings} crossings exceed the budget {budget}; for the "
            "two-twist-region family, slide (p, q) -> (p+1, q-1), which preserves "
            "the Jones polynomial, to reach a smaller diagram")


def jones_polynomial(diagram: LinkDiagram,
                     budget: int = DEFAULT_CROSSING_BUDGET) -> JonesPolynomial:
    """V_L(t) = ((-A)^(-3w) <D>) at A = t^(-1/4), exact."""
    _check_budget(diagram.n_crossings, budget)
    bracket = kauffman_bracket(diagram)
    w = diagram.writhe()
    sign = -1 if (3 * w) % 2 else 1
    normalised = bracket.shift(-3 * w).scale(sign)
    # A-exponent e -> t-exponent -e/4, i.e. u-exponent -e/2
    terms = {}
    for e, c in normalised.terms.items():
        if e % 2:
            raise AssertionError("odd bracket exponent after normalisation")
        terms[-e // 2] = c
    return JonesPolynomial(Laurent(terms))


def jones_derivative_at(v: JonesPolynomial, t0) -> Fraction:
    """Exact formal derivative of V in t, evaluated at a nonzero rational.
    A V with half-integer exponents (a link with an even number of
    components) raises ValueError."""
    t0 = Fraction(t0)
    if t0 == 0:
        raise ZeroDivisionError("evaluation point must be nonzero")
    return v.t_polynomial().derivative().evaluate(t0)


# ---------------------------------------------------------------------------
# Goeritz form, determinant, signature
# ---------------------------------------------------------------------------

def _goeritz_data(diagram: LinkDiagram,
                  multiplicity: Sequence[int] | None = None):
    """White Goeritz matrix, plus the correction term of the spanning-surface
    signature formula; crossing ci counts multiplicity[ci] times (default
    once).

    Returns (matrix, correction).  The matrix is indexed by the white
    regions except the one containing the unbounded face.
    """
    drop = diagram.unbounded_face()
    index = {f: i for i, f in enumerate(
        f for f, c in enumerate(diagram.colors) if c == 1 and f != drop)}
    size = len(index)
    g = [[0] * size for _ in range(size)]
    correction = 0
    fq = diagram.face_of_quadrant
    for ci in range(len(diagram.crossings)):
        m = 1 if multiplicity is None else multiplicity[ci]
        even_white = diagram.white_quadrants_are_even(ci)
        q_first, q_second = (0, 2) if even_white else (1, 3)
        f1, f2 = fq[(ci, q_first)], fq[(ci, q_second)]
        # eta: +1 when the white regions occupy quadrants q0 and q2
        eta = 1 if even_white else -1
        sign = diagram.crossing_sign(ci)
        # type II crossings (both strands oriented across the white axis the
        # same way) satisfy sign * eta == +1; they enter the correction
        if sign * eta == 1:
            correction += m * eta
        if f1 == f2:
            continue
        i, j = index.get(f1), index.get(f2)
        if i is not None and j is not None:
            g[i][j] -= m * eta
            g[j][i] -= m * eta
        # diagonal entries collect all incident crossings, including those
        # shared with the dropped region
        if i is not None:
            g[i][i] += m * eta
        if j is not None:
            g[j][j] += m * eta
    return g, correction


def goeritz_invariants(diagram: LinkDiagram,
                       multiplicity: Sequence[int] | None = None
                       ) -> tuple[list[list[int]], int, int]:
    """(Goeritz matrix, determinant, signature) of the diagram.

    determinant = |det G| and sig(G) come from the pivots of one
    fraction-free elimination; signature by the spanning-surface formula
    sig(G) - mu, where mu sums the Goeritz signs of the crossings whose two
    strands cross the white axis in the same direction.  With
    `multiplicity`, crossing ci stands for multiplicity[ci] parallel
    crossings like it: its share of G and of mu is scaled by that count,
    which lifts a parity-reduced diagram (`diagrams.parity_reduced_diagram`)
    to the full one.
    """
    if not diagram.is_connected():
        raise DiagramError("Goeritz invariants need a connected diagram")
    if diagram.n_crossings == 0:
        return [], 1, 0
    g, correction = _goeritz_data(diagram, multiplicity=multiplicity)
    rows = _symmetric_bareiss(g)
    minors = [1] + [rows[k][k] for k in range(len(g))]
    sigma = sum((a * b > 0) - (a * b < 0) for a, b in zip(minors, minors[1:]))
    return g, abs(minors[-1]), sigma - correction


# ---------------------------------------------------------------------------
# Casson-Walker invariant of the double branched cover
# ---------------------------------------------------------------------------

def mullins_lambda(diagram: LinkDiagram) -> Fraction:
    """lambda(double branched cover) = -V'(-1) / (6 V(-1)) + sigma / 4,
    normalised so the boundary of the negative definite E8 plumbing has
    lambda = -2.  Needs an odd number of components, so that V is a
    polynomial in t, and det != 0."""
    components = diagram.n_components()
    if components % 2 == 0:
        raise DiagramError(
            f"Casson-Walker formula needs an odd number of components; "
            f"the diagram has {components}")
    v = jones_polynomial(diagram)
    _g, det, sigma = goeritz_invariants(diagram)
    if det == 0:
        raise DiagramError("Casson-Walker formula needs nonzero determinant")
    v_at = v.evaluate(-1)
    if v_at == 0:
        raise DiagramError("V(-1) = 0 despite nonzero determinant; convention bug")
    dv = jones_derivative_at(v, -1)
    return -dv / (6 * v_at) + Fraction(sigma, 4)
