"""Exact integer and rational matrix utilities.

Smith normal form with unimodular transforms, Bareiss determinants,
rational inversion, and the signature of a symmetric matrix by congruence
reduction.  Everything is list-of-lists over int / Fraction; matrices in
this package are small (rank <= a few dozen), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Return (diagonal, U, V) with U*M*V diagonal, U and V unimodular,
    and the diagonal entries nonnegative with d1 | d2 | ... .

    The diagonal list has length min(rows, cols).  Step t moves a nonzero
    entry of least absolute value in the trailing block to (t, t) and
    reduces its row and column by it.  While a remainder is left, or an
    entry of the trailing block is not a multiple of the pivot (its row is
    then added to row t), the step starts again with a smaller pivot.
    """
    a = [list(map(int, row)) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    u, v = identity(rows), identity(cols)
    k = min(rows, cols)

    def add_row(src, dst, c):  # row_dst += c * row_src
        for x in (a, u):
            x[dst] = [p + c * q for p, q in zip(x[dst], x[src])]

    def add_col(src, dst, c):  # col_dst += c * col_src
        for x in (a, v):
            for r in x:
                r[dst] += c * r[src]

    for t in range(k):
        while True:
            block = [(abs(a[i][j]), i, j) for i in range(t, rows)
                     for j in range(t, cols) if a[i][j]]
            if not block:
                return [a[i][i] for i in range(k)], u, v
            _, pi, pj = min(block)
            a[t], a[pi], u[t], u[pi] = a[pi], a[t], u[pi], u[t]
            for x in (a, v):
                for r in x:
                    r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // p))
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // p))
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, rows)
                        if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            add_row(bad, t, 1)
        if p < 0:
            for x in (a, u):
                x[t] = [-q for q in x[t]]
    return [a[i][i] for i in range(k)], u, v


def invert_rational(m) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square matrix (entries int/Fraction)."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def symmetric_signature(m) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric matrix,
    computed exactly by congruence reduction over Q.

    Zero diagonals are handled by borrowing from a row with a nonzero
    off-diagonal entry (the hyperbolic-plane case contributes +1 and -1,
    which is what the borrow produces after two pivots).
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sig = 0
    live = list(range(n))
    while live:
        # prefer a nonzero diagonal pivot
        piv = next((i for i in live if a[i][i] != 0), None)
        if piv is None:
            pair = None
            for i in live:
                for j in live:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # congruence: add row/col j to i, producing 2*a[i][j] on the diagonal
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        p = a[piv][piv]
        sig += 1 if p > 0 else -1
        live.remove(piv)
        for i in list(live):
            f = a[i][piv] / p
            if f:
                for k in range(n):
                    a[i][k] -= f * a[piv][k]
                for k in range(n):
                    a[k][i] -= f * a[k][piv]
    return sig
