"""Free-group words, Fox free derivatives, finite presentations, and
Fox-calculus Alexander polynomials.

Words are stored unreduced as tuples of (generator, +-1) letters; free
reduction is available on demand and the Fox derivative is computed on the
word as given (it is invariant under free reduction, which the test suite
checks rather than assumes).  Generators are numbered from 1, matching the
a_1, a_2, ... naming used in presentations throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .groupring import GroupRingElem
from .laurent import Laurent

Letter = tuple[int, int]          # (generator index >= 1, exponent +-1)
FreeWord = tuple[Letter, ...]


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def word(*letters: Letter) -> FreeWord:
    for g, s in letters:
        if g < 1 or s not in (1, -1):
            raise ValueError(f"bad letter {(g, s)}")
    return tuple(letters)


def gen(i: int, s: int = 1) -> FreeWord:
    return word((i, s))


def wmul(*words: FreeWord) -> FreeWord:
    out: list[Letter] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def wpow(w: FreeWord, k: int) -> FreeWord:
    if k >= 0:
        return w * k
    return winv(w) * (-k)


def winv(w: FreeWord) -> FreeWord:
    return tuple((g, -s) for g, s in reversed(w))


def wreduce(w: FreeWord) -> FreeWord:
    out: list[Letter] = []
    for g, s in w:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def exponent_sums(w: FreeWord, gens: int) -> list[int]:
    sums = [0] * gens
    for g, s in w:
        if g > gens:
            raise ValueError(f"letter a{g} exceeds generator count {gens}")
        sums[g - 1] += s
    return sums


def word_to_string(w: FreeWord) -> str:
    if not w:
        return "1"
    return " ".join(f"a{g}" if s == 1 else f"a{g}^-1" for g, s in w)


def word_from_string(s: str) -> FreeWord:
    letters: list[Letter] = []
    for tok in s.split():
        if tok == "1":
            continue
        neg = tok.endswith("^-1")
        core = tok[:-3] if neg else tok
        if not core.startswith("a") or not core[1:].isdigit():
            raise ValueError(f"bad word token {tok!r}")
        letters.append((int(core[1:]), -1 if neg else 1))
    return tuple(letters)


# ---------------------------------------------------------------------------
# Free group ring elements: finite Z-combinations of reduced words
# ---------------------------------------------------------------------------

class FreeGroupRingElem:
    """Element of the integral group ring of a free group.

    Keys are freely reduced words; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FreeWord, int] | Iterable[tuple[FreeWord, int]] = ()):
        d: dict[FreeWord, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            if c:
                w = wreduce(w)
                d[w] = d.get(w, 0) + c
                if d[w] == 0:
                    del d[w]
        self.terms = d

    @classmethod
    def zero(cls) -> "FreeGroupRingElem":
        return cls()

    @classmethod
    def one(cls) -> "FreeGroupRingElem":
        return cls({(): 1})

    @classmethod
    def of_word(cls, w: FreeWord, c: int = 1) -> "FreeGroupRingElem":
        return cls({w: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeGroupRingElem) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "FreeGroupRingElem") -> "FreeGroupRingElem":
        d = dict(self.terms)
        for w, c in other.terms.items():
            d[w] = d.get(w, 0) + c
            if d[w] == 0:
                del d[w]
        out = FreeGroupRingElem.__new__(FreeGroupRingElem)
        out.terms = d
        return out

    def __sub__(self, other: "FreeGroupRingElem") -> "FreeGroupRingElem":
        return self + (-other)

    def __neg__(self) -> "FreeGroupRingElem":
        out = FreeGroupRingElem.__new__(FreeGroupRingElem)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __mul__(self, other: "FreeGroupRingElem") -> "FreeGroupRingElem":
        d: dict[FreeWord, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = wreduce(w1 + w2)
                d[w] = d.get(w, 0) + c1 * c2
                if d[w] == 0:
                    del d[w]
        out = FreeGroupRingElem.__new__(FreeGroupRingElem)
        out.terms = d
        return out

    def left_mul_word(self, w: FreeWord) -> "FreeGroupRingElem":
        return FreeGroupRingElem({wreduce(w + k): c for k, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "FreeGroupRingElem(0)"
        bits = [f"{c}*[{word_to_string(w)}]" for w, c in sorted(self.terms.items())]
        return "FreeGroupRingElem(" + " + ".join(bits) + ")"


def fox_derivative(w: FreeWord, i: int) -> FreeGroupRingElem:
    """Fox free derivative of the word w with respect to generator a_i.

    Characterised by d(a_j) = delta_ij, d(a_j^-1) = -delta_ij a_j^-1 and
    the product rule d(uv) = d(u) + u d(v); computed by a single left-to-
    right scan keeping the running prefix.
    """
    terms: dict[FreeWord, int] = {}
    prefix: list[Letter] = []
    for g, s in w:
        if g == i:
            if s == 1:
                key = wreduce(tuple(prefix))
                terms[key] = terms.get(key, 0) + 1
            else:
                key = wreduce(tuple(prefix) + ((g, -1),))
                terms[key] = terms.get(key, 0) - 1
            if terms.get(key) == 0:
                del terms[key]
        prefix.append((g, s))
    return FreeGroupRingElem(terms)


# ---------------------------------------------------------------------------
# Abelianization maps
# ---------------------------------------------------------------------------

def abelianize(x: FreeGroupRingElem, assignment: Sequence[int],
               modulus: int) -> GroupRingElem:
    """Map Z[F] -> Z[Z/N]: each word goes to t^(sum of assigned exponents).

    assignment[i-1] is the image exponent of generator a_i.
    """
    out = [Fraction(0)] * modulus
    for w, c in x.terms.items():
        e = 0
        for g, s in w:
            if g > len(assignment):
                raise ValueError(f"generator a{g} has no abelianization assignment")
            e += s * assignment[g - 1]
        out[e % modulus] += c
    return GroupRingElem(modulus, out)


def abelianize_word_derivative(w: FreeWord, i: int, assignment: Sequence[int],
                               modulus: int) -> GroupRingElem:
    """ab(fox_derivative(w, i)) computed in one linear scan.

    Same value as abelianizing the full derivative, but O(len(w)) instead of
    O(len(w)^2); used for the large twist-region relators.
    """
    out = [Fraction(0)] * modulus
    prefix = 0
    for g, s in w:
        if g > len(assignment):
            raise ValueError(f"generator a{g} has no abelianization assignment")
        if g == i:
            if s == 1:
                out[prefix % modulus] += 1
            else:
                out[(prefix - assignment[g - 1]) % modulus] -= 1
        prefix += s * assignment[g - 1]
    return GroupRingElem(modulus, out)


def abelianize_laurent(x: FreeGroupRingElem, assignment: Sequence[int]) -> Laurent:
    """Map Z[F] -> Z[t, t^-1] for an infinite-cyclic assignment."""
    terms: dict[int, int] = {}
    for w, c in x.terms.items():
        e = 0
        for g, s in w:
            if g > len(assignment):
                raise ValueError(f"generator a{g} has no abelianization assignment")
            e += s * assignment[g - 1]
        terms[e] = terms.get(e, 0) + c
    return Laurent(terms)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """A finite group presentation < a_1 .. a_g | r_1 .. r_k >.

    `assignment` optionally records an abelianization a_i -> t^assignment[i-1]
    into Z/`modulus`; modulus None means the infinite cyclic group Z (used by
    the Alexander polynomial machinery).
    """

    gens: int
    relators: tuple[FreeWord, ...]
    assignment: Optional[tuple[int, ...]] = None
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.gens < 0:
            raise ValueError("generator count must be >= 0")
        for r in self.relators:
            for g, _ in r:
                if g < 1 or g > self.gens:
                    raise ValueError(f"relator letter a{g} out of range (g={self.gens})")
        if self.assignment is not None and len(self.assignment) != self.gens:
            raise ValueError("assignment length must equal the generator count")

    def check_assignment(self) -> bool:
        """Every relator must die in the abelianization."""
        if self.assignment is None:
            return True
        for r in self.relators:
            e = sum(s * self.assignment[g - 1] for g, s in r)
            if self.modulus is None:
                if e != 0:
                    return False
            elif e % self.modulus != 0:
                return False
        return True


def presentation_matrix(p: Presentation) -> list[list[int]]:
    """Integer matrix with entry (i, j) = exponent sum of a_i in relator j."""
    cols = [exponent_sums(r, p.gens) for r in p.relators]
    return [[cols[j][i] for j in range(len(p.relators))] for i in range(p.gens)]


def fox_matrix(p: Presentation) -> list[list[FreeGroupRingElem]]:
    """Matrix with entry (i, j) the Fox derivative of relator j by a_i."""
    return [[fox_derivative(r, i + 1) for r in p.relators] for i in range(p.gens)]


# ---------------------------------------------------------------------------
# Determinants over commutative rings (cofactor expansion; matrices here
# are at most 3x3 for torsion minors)
# ---------------------------------------------------------------------------

def determinant_cofactor(mat, zero, one):
    n = len(mat)
    if n == 0:
        return one
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")

    def rec(rows, cols):
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        total = zero
        r = rows[0]
        for k, c in enumerate(cols):
            minor = rec(rows[1:], cols[:k] + cols[k + 1:])
            term = mat[r][c] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return rec(tuple(range(n)), tuple(range(n)))


# ---------------------------------------------------------------------------
# Alexander polynomials
# ---------------------------------------------------------------------------

def laurent_det(a: list[list[Laurent]]) -> Laurent:
    """Determinant of a square Laurent matrix by fraction-free Bareiss
    elimination over Z[t, t^-1] (all interior divisions are exact)."""
    a = [list(row) for row in a]
    n = len(a)
    if n == 0:
        return Laurent.one()
    sign = 1
    prev = Laurent.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if piv is None:
                return Laurent.zero()
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divide_exact(prev)
            a[i][k] = Laurent.zero()
        prev = a[k][k]
    out = a[n - 1][n - 1]
    return out.scale(sign)


def alexander_polynomial(p: Presentation) -> Laurent:
    """Fox-calculus Alexander polynomial of a deficiency-one presentation
    whose assignment maps every generator into Z.

    The result is normalised to be symmetric (unchanged under t -> 1/t)
    with value 1 at t = 1.
    """
    if p.assignment is None or p.modulus is not None:
        raise ValueError("Alexander polynomial needs an infinite-cyclic assignment")
    if p.gens - len(p.relators) != 1:
        raise ValueError(
            f"presentation deficiency is {p.gens - len(p.relators)}, expected 1")
    if p.gens == 1:
        return Laurent.one()
    fox = [[abelianize_laurent(fox_derivative(r, i + 1), p.assignment)
            for r in p.relators] for i in range(p.gens)]
    # deficiency one: the matrix is g x (g-1); deleting any generator row
    # gives the same polynomial up to a unit.  Compute two of them and make
    # sure they normalise identically.
    minor_last = laurent_det(fox[:-1])
    minor_first = laurent_det(fox[1:])
    delta = _normalize_alexander(minor_last)
    check = _normalize_alexander(minor_first)
    if delta != check:
        raise ArithmeticError("row-deleted Alexander minors disagree after normalisation")
    return delta


def _normalize_alexander(delta: Laurent) -> Laurent:
    if delta.is_zero():
        raise ArithmeticError("vanishing Alexander minor (is the diagram split?)")
    g = delta.content()
    if g > 1:
        delta = Laurent({e: c // g for e, c in delta.terms.items()})
    lo, hi = delta.min_exponent(), delta.max_exponent()
    if (lo + hi) % 2 != 0:
        raise ArithmeticError("Alexander polynomial has odd span; not a knot group input")
    delta = delta.shift(-(lo + hi) // 2)
    if delta.mirror() != delta:
        if delta.mirror() == -delta:
            raise ArithmeticError("skew-symmetric Alexander minor; not a knot group input")
        raise ArithmeticError("Alexander minor failed to symmetrise")
    at1 = delta.evaluate(1)
    if at1 == -1:
        delta = delta.scale(-1)
    elif at1 != 1:
        raise ArithmeticError(f"Alexander value at 1 is {at1}, expected a unit")
    return delta


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def presentation_to_text(p: Presentation) -> str:
    lines = [f"gens {p.gens}"]
    lines.extend(word_to_string(r) for r in p.relators)
    if p.assignment is not None:
        mod = 0 if p.modulus is None else p.modulus
        lines.append("assign " + " ".join(str(a) for a in p.assignment) + f" mod {mod}")
    return "\n".join(lines) + "\n"


def presentation_from_text(text: str) -> Presentation:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "gens":
        raise ValueError("presentation file must start with a 'gens <g>' line")
    gens = int(head[1])
    relators: list[FreeWord] = []
    assignment = None
    modulus: Optional[int] = None
    for ln in lines[1:]:
        if ln.startswith("assign "):
            body = ln[len("assign "):]
            if " mod " not in body:
                raise ValueError("assign line must end with 'mod <N>' (mod 0 for Z)")
            nums, mod_s = body.rsplit(" mod ", 1)
            assignment = tuple(int(x) for x in nums.split())
            modulus = int(mod_s)
            if modulus == 0:
                modulus = None
        else:
            relators.append(word_from_string(ln))
    return Presentation(gens=gens, relators=tuple(relators),
                        assignment=assignment, modulus=modulus)
