"""Integer-coefficient Laurent polynomials in one variable.

Stored as exponent -> coefficient dicts; used for Kauffman brackets
(variable A) and Jones polynomials of knots (variable t).  Jones
polynomials of links need t^(1/2); those are handled by keeping exponents
in half-units, see `skein.JonesPolynomial`.  `format_terms` prints every
exact polynomial of the package, group-ring elements included.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction


class Laurent:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | Iterable[tuple[int, int]] = ()):
        d: dict[int, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            if c:
                d[e] = d.get(e, 0) + c
                if d[e] == 0:
                    del d[e]
        self.terms = d

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    @classmethod
    def term(cls, exponent: int) -> "Laurent":
        return cls({exponent: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Laurent") -> "Laurent":
        d = dict(self.terms)
        for e, c in other.terms.items():
            d[e] = d.get(e, 0) + c
            if d[e] == 0:
                del d[e]
        out = Laurent.__new__(Laurent)
        out.terms = d
        return out

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __neg__(self) -> "Laurent":
        out = Laurent.__new__(Laurent)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
                if d[e] == 0:
                    del d[e]
        out = Laurent.__new__(Laurent)
        out.terms = d
        return out

    def scale(self, c: int) -> "Laurent":
        if c == 0:
            return Laurent.zero()
        out = Laurent.__new__(Laurent)
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def shift(self, k: int) -> "Laurent":
        out = Laurent.__new__(Laurent)
        out.terms = {e + k: c for e, c in self.terms.items()}
        return out

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative powers only exist for monomials")
        out = Laurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, x) -> Fraction:
        """Exact evaluation at a nonzero rational."""
        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * x ** e
        return total

    def derivative(self) -> "Laurent":
        return Laurent({e - 1: c * e for e, c in self.terms.items() if e != 0})

    def to_string(self) -> str:
        return format_terms(("" if e == 0 else "t" if e == 1 else f"t^{e}",
                             self.terms[e]) for e in sorted(self.terms))

    def __repr__(self) -> str:
        return f"Laurent({self.to_string()!r})"


def format_terms(terms: Iterable[tuple[str, object]]) -> str:
    """Print (monomial, coefficient) pairs in the given order as a sum, e.g.
    "2 - t + 3*t^2".  The monomial "" stands for 1; zero coefficients are
    skipped, and no terms print as "0"."""
    pieces = []
    for mono, c in terms:
        if not c:
            continue
        if not mono:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(mono)
        elif c == -1:
            pieces.append(f"-{mono}")
        else:
            pieces.append(f"{c}*{mono}")
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
