"""Free-group words, finite presentations, and abelianized Fox
derivatives of their relators.

Words are stored unreduced as tuples of (generator, +-1) letters.
Generators are numbered from 1, matching the a_1, a_2, ... naming used in
presentations throughout the package.

A relator is a tuple of runs (u, k), the word u raised to the integer power
k, multiplied left to right.  A twist region of k parallel crossings reads
into a relator as one run, so exponent sums, the abelianization check and
abelianized Fox derivatives cost the same whatever k is; a relator read
from text is the one-run case (w, 1).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .groupring import GroupRingElem
from .records import Record
from .tokens import parse_int

Letter = tuple[int, int]          # (generator index >= 1, exponent +-1)
FreeWord = tuple[Letter, ...]
Run = tuple[FreeWord, int]        # (u, k): the word u to the power k
Relator = tuple[Run, ...]


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


def winv(w: FreeWord) -> FreeWord:
    return tuple((g, -s) for g, s in reversed(w))


def relator(w: FreeWord, k: int = 1) -> Relator:
    """The one-run relator w^k."""
    return ((w, k),)


def exponent_sums(r: Relator, gens: int) -> list[int]:
    sums = [0] * gens
    for u, k in r:
        for g, s in u:
            if g > gens:
                raise ValueError(f"letter a{g} exceeds generator count {gens}")
            sums[g - 1] += k * s
    return sums


def word_from_string(s: str) -> FreeWord:
    letters: list[Letter] = []
    for tok in s.split():
        if tok == "1":
            continue
        neg = tok.endswith("^-1")
        core = tok[:-3] if neg else tok
        if not core.startswith("a"):
            raise ValueError(f"bad word token {tok!r}")
        letters.append((parse_int(core[1:], f"bad word token {tok!r}"),
                        -1 if neg else 1))
    return tuple(letters)


# ---------------------------------------------------------------------------
# Abelianization maps
# ---------------------------------------------------------------------------


def abelianize_relator_derivative(r: Relator, i: int, assignment: Sequence[int],
                                  modulus: int) -> GroupRingElem:
    """ab(d r / d a_i), the abelianized Fox derivative of the relator r,
    without writing out the runs.

    By the product rule a run u^k that follows a prefix with image t^P adds
    t^P (1 + t^e + ... + t^((k-1)e)) ab(d_i u) for k > 0, and
    -t^P (t^-e + t^-2e + ... + t^(ke)) ab(d_i u) for k < 0, where
    t^e = ab(u).  The powers of t^e repeat with period N / gcd(e, N), so a
    run costs O(N + len(u)) whatever |k| is.
    """
    out = [0] * modulus
    prefix = 0
    for u, k in r:
        du: list[tuple[int, int]] = []   # ab(d_i u) as (exponent, coefficient)
        e = 0
        for g, s in u:
            if g > len(assignment):
                raise ValueError(f"generator a{g} has no abelianization assignment")
            if g == i:
                du.append((e if s == 1 else e - assignment[g - 1], s))
            e += s * assignment[g - 1]
        if du:
            for x, c in _power_sum(e, k, modulus):
                for y, s in du:
                    out[(prefix + x + y) % modulus] += c * s
        prefix = (prefix + k * e) % modulus
    return GroupRingElem(modulus, out)


def _power_sum(e: int, k: int, modulus: int) -> list[tuple[int, int]]:
    """The geometric factor of d(u^k) = factor * d(u) under ab(u) = t^e, as
    (exponent mod N, coefficient) pairs: 1 + t^e + ... + t^((k-1)e) for
    k > 0 and -(t^-e + ... + t^(ke)) for k < 0."""
    step = e if k > 0 else -e
    first, sign = (0, 1) if k > 0 else (step, -1)
    period = modulus // gcd(e, modulus)
    full, rest = divmod(abs(k), period)
    return [((first + j * step) % modulus, sign * (full + (j < rest)))
            for j in range(min(abs(k), period))]


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

class Presentation(Record):
    """A finite group presentation < a_1 .. a_g | r_1 .. r_k >, each relator
    a tuple of runs (see the module docstring).

    `assignment` optionally records an abelianization a_i -> t^assignment[i-1]
    into Z/`modulus`; modulus None means the infinite cyclic group Z.
    """

    gens: int
    relators: tuple[Relator, ...]
    assignment: tuple[int, ...] | None = None
    modulus: int | None = None

    def __post_init__(self):
        if self.gens < 0:
            raise ValueError("generator count must be >= 0")
        for r in self.relators:
            for u, _k in r:
                for g, _ in u:
                    if g < 1 or g > self.gens:
                        raise ValueError(
                            f"relator letter a{g} out of range (g={self.gens})")
        if self.assignment is not None and len(self.assignment) != self.gens:
            raise ValueError("assignment length must equal the generator count")

    def check_assignment(self) -> bool:
        """Every relator must die in the abelianization."""
        return self.unkilled_relator() is None

    def unkilled_relator(self) -> int | None:
        """Index of the first relator the assignment does not send to 1, or
        None when it kills them all (or there is no assignment)."""
        if self.assignment is None:
            return None
        for j, r in enumerate(self.relators):
            e = sum(k * s * self.assignment[g - 1] for u, k in r for g, s in u)
            if (e if self.modulus is None else e % self.modulus) != 0:
                return j
        return None


def presentation_matrix(p: Presentation) -> list[list[int]]:
    """Integer matrix with entry (i, j) = exponent sum of a_i in relator j."""
    cols = [exponent_sums(r, p.gens) for r in p.relators]
    return [[cols[j][i] for j in range(len(p.relators))] for i in range(p.gens)]


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
# Text format
# ---------------------------------------------------------------------------


def presentation_from_text(text: str) -> Presentation:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "gens":
        raise ValueError("presentation file must start with a 'gens <g>' line")
    gens = parse_int(head[1], "generator count")
    relators: list[Relator] = []
    assignment = None
    modulus: int | None = None
    for ln in lines[1:]:
        if ln.startswith("assign "):
            if assignment is not None:
                raise ValueError("a presentation file has at most one assign line")
            body = ln[len("assign "):]
            if " mod " not in body:
                raise ValueError("assign line must end with 'mod <N>' (mod 0 for Z)")
            nums, mod_s = body.rsplit(" mod ", 1)
            assignment = tuple(parse_int(x, "assigned exponent", signed=True)
                               for x in nums.split())
            modulus = parse_int(mod_s, "assignment modulus")
            if modulus == 0:
                modulus = None
        else:
            relators.append(relator(word_from_string(ln)))
    return Presentation(gens=gens, relators=tuple(relators),
                        assignment=assignment, modulus=modulus)
