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
state sum exists only as a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .diagrams import DiagramError, LinkDiagram
from .intmat import symmetric_signature
from .laurent import Laurent

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

    matching pairs the open arcs (loose path ends) of the region; the
    smoothing wires the four slots of the crossing in two pairs.  Returns
    the new matching and the number of closed loops formed.
    """
    partner: dict[int, int] = {}
    for pair in matching:
        x, y = tuple(pair)
        partner[x] = y
        partner[y] = x
    touched = set(tup)
    slots_of: dict[int, list[int]] = {}
    for k, a in enumerate(tup):
        slots_of.setdefault(a, []).append(k)

    # tiny graph: slot nodes ("s", k) of degree 2, endpoint nodes ("e", arc)
    edges: list[tuple[tuple, tuple]] = []
    for s1, s2 in smoothing:
        edges.append((("s", s1), ("s", s2)))
    seen_paths: set[frozenset] = set()
    for a, ks in slots_of.items():
        if len(ks) == 2:
            edges.append((("s", ks[0]), ("s", ks[1])))
            continue
        k = ks[0]
        if a in partner:
            b = partner[a]
            if b in slots_of and b != a:
                key = frozenset((a, b))
                if key in seen_paths:
                    continue
                seen_paths.add(key)
                edges.append((("s", k), ("s", slots_of[b][0])))
            else:
                edges.append((("s", k), ("e", b)))
        else:
            edges.append((("s", k), ("e", a)))

    adj: dict[tuple, list[tuple]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[tuple] = set()
    loops = 0
    new_pairs: list[frozenset] = []
    for start in adj:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        ends = [node[1] for node in comp if node[0] == "e"]
        if not ends:
            loops += 1
        elif len(ends) == 2:
            new_pairs.append(frozenset(ends))
        else:
            raise AssertionError("path component with a bad number of ends")

    carried = [pair for pair in matching
               if not (set(pair) & touched)]
    return frozenset(carried + new_pairs), loops


def kauffman_bracket(diagram: LinkDiagram) -> Laurent:
    """<D> in the variable A, normalised so <unknot> = 1 and a split unknot
    multiplies by -A^2 - A^(-2)."""
    n = len(diagram.crossings)
    if n == 0:
        if diagram.free_loops == 0:
            raise DiagramError("empty diagram")
        return LOOP ** (diagram.free_loops - 1)
    states: dict[frozenset, Laurent] = {frozenset(): Laurent.one()}
    for ci in _sweep_order(diagram):
        tup = diagram.crossings[ci]
        new_states: dict[frozenset, Laurent] = {}
        for matching, coeff in states.items():
            for smoothing, weight in ((A_SMOOTHING, Laurent.term(1)),
                                      (B_SMOOTHING, Laurent.term(-1))):
                new_matching, loops = _merge_crossing(matching, tup, smoothing)
                add = coeff * weight * (LOOP ** loops)
                prev = new_states.get(new_matching)
                new_states[new_matching] = add if prev is None else prev + add
        states = {k: v for k, v in new_states.items() if not v.is_zero()}
    total = Laurent.zero()
    for matching, coeff in states.items():
        if matching:
            raise AssertionError("open strands remain after the sweep")
        total = total + coeff
    total = total * (LOOP ** diagram.free_loops)
    return total.divide_exact(LOOP)


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
            return self.t_polynomial().to_string("t")
        bits = []
        for e in sorted(self.upoly.terms):
            c = self.upoly.terms[e]
            if e % 2 == 0:
                mono = "" if e == 0 else f"t^{e // 2}"
            else:
                mono = f"t^({e}/2)"
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self) -> str:
        return f"JonesPolynomial({self.to_string()!r})"


def jones_polynomial(diagram: LinkDiagram,
                     budget: int = DEFAULT_CROSSING_BUDGET) -> JonesPolynomial:
    """V_L(t) = ((-A)^(-3w) <D>) at A = t^(-1/4), exact."""
    if diagram.n_crossings > budget:
        raise CrossingBudgetError(
            f"{diagram.n_crossings} crossings exceed the budget {budget}; for the "
            "two-twist-region family, slide (p, q) -> (p+1, q-1), which preserves "
            "the Jones polynomial, to reach a smaller diagram")
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
    """Exact formal derivative of V in t, evaluated at a nonzero rational."""
    t0 = Fraction(t0)
    if t0 == 0:
        raise ZeroDivisionError("evaluation point must be nonzero")
    if v.is_integral():
        return v.t_polynomial().derivative().evaluate(t0)
    if t0 < 0:
        raise ValueError("half-integer exponents cannot be evaluated at "
                         "negative arguments; links with an even number "
                         "of components are rejected here")
    root = _rational_sqrt(t0)
    if root is None:
        raise ValueError(f"half-integer exponents need a rational sqrt of {t0}")
    # dV/dt = (dV/du) / (2u) at u = sqrt(t0)
    du = v.upoly.derivative().evaluate(root)
    return du / (2 * root)


def _rational_sqrt(x: Fraction):
    from math import isqrt
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# Goeritz form, determinant, signature
# ---------------------------------------------------------------------------

def _goeritz_data(diagram: LinkDiagram, white: bool = True):
    """Goeritz matrix for the chosen colour class, plus the correction term
    of the spanning-surface signature formula.

    Returns (matrix, correction, region_faces).  The matrix is indexed by
    the regions of that colour except the one containing the unbounded
    face (for the white class) or an arbitrary fixed one (black class).
    """
    colors = diagram.checkerboard_colors()
    target = 1 if white else 0
    faces = diagram.faces()
    regions = [f for f in range(len(faces)) if colors[f] == target]
    if white:
        drop = diagram.unbounded_face()
    else:
        drop = regions[0]
    index = {f: i for i, f in enumerate(r for r in regions if r != drop)}
    size = len(index)
    g = [[0] * size for _ in range(size)]
    correction = 0
    fq = diagram.face_of_quadrant()
    for ci in range(len(diagram.crossings)):
        even_white = diagram.white_quadrants_are_even(ci)
        q_first, q_second = ((0, 2) if even_white == (target == 1)
                             else (1, 3))
        f1, f2 = fq[(ci, q_first)], fq[(ci, q_second)]
        eta = 1 if even_white == (target == 1) else -1
        # eta for this colour class: +1 when the class occupies quadrants
        # q0 and q2
        sign = diagram.crossing_sign(ci)
        # type II crossings (both strands oriented across the class axis the
        # same way) satisfy sign * eta == +1; they enter the correction
        if sign * eta == 1:
            correction += eta
        if f1 == f2:
            continue
        i, j = index.get(f1), index.get(f2)
        if i is not None and j is not None:
            g[i][j] -= eta
            g[j][i] -= eta
        # diagonal entries collect all incident crossings, including those
        # shared with the dropped region
        if i is not None:
            g[i][i] += eta
        if j is not None:
            g[j][j] += eta
    return g, correction, index


def goeritz_matrix(diagram: LinkDiagram) -> list[list[int]]:
    """White-class Goeritz matrix, unbounded region deleted."""
    g, _c, _i = _goeritz_data(diagram, white=True)
    return g


def goeritz_invariants(diagram: LinkDiagram) -> tuple[list[list[int]], int, int]:
    """(Goeritz matrix, determinant, signature) of the diagram.

    determinant = |det G|; signature by the spanning-surface formula
    sig(G) - mu, where mu sums the Goeritz signs of the crossings whose two
    strands cross the white axis in the same direction.
    """
    if not diagram.is_connected():
        raise DiagramError("Goeritz invariants need a connected diagram")
    if diagram.n_crossings == 0:
        return [], 1, 0
    from .intmat import det_bareiss
    g, correction, _ = _goeritz_data(diagram, white=True)
    det = abs(det_bareiss(g))
    sigma = symmetric_signature(g) - correction
    return g, det, sigma


def goeritz_invariants_black(diagram: LinkDiagram) -> tuple[int, int]:
    """(determinant, signature) computed from the black surface; must agree
    with the white computation."""
    if diagram.n_crossings == 0:
        return 1, 0
    from .intmat import det_bareiss
    g, correction, _ = _goeritz_data(diagram, white=False)
    return abs(det_bareiss(g)), symmetric_signature(g) - correction


def link_determinant(diagram: LinkDiagram) -> int:
    return goeritz_invariants(diagram)[1]


# ---------------------------------------------------------------------------
# Casson-Walker invariant of the double branched cover
# ---------------------------------------------------------------------------

def mullins_lambda(diagram: LinkDiagram,
                   budget: int = DEFAULT_CROSSING_BUDGET) -> Fraction:
    """lambda(double branched cover) = -V'(-1) / (6 V(-1)) + sigma / 4,
    normalised so the boundary of the negative definite E8 plumbing has
    lambda = -2.  Needs det != 0."""
    v = jones_polynomial(diagram, budget=budget)
    _g, det, sigma = goeritz_invariants(diagram)
    if det == 0:
        raise DiagramError("Casson-Walker formula needs nonzero determinant")
    v_at = v.evaluate(-1)
    if v_at == 0:
        raise DiagramError("V(-1) = 0 despite nonzero determinant; convention bug")
    dv = jones_derivative_at(v, -1)
    return -dv / (6 * v_at) + Fraction(sigma, 4)
