"""Exact integer matrix utilities.

Smith normal form with unimodular transforms, Bareiss determinants, and
the package's one fraction-free elimination of a symmetric form, whose
pivots give its determinant, its signature and whether it is positive
definite.  Everything is list-of-lists over int; matrices in this package
are small (rank <= a few dozen), so clarity beats asymptotics.
"""

from __future__ import annotations

from collections.abc import Sequence


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


def _symmetric_bareiss(form: Sequence[Sequence[int]]) -> list[list[int]]:
    """Bareiss elimination of a symmetric integer form, on its upper
    triangle only: row k (from 1) is row k after k - 1 steps, so u_kk is
    the leading minor Delta_k of a form congruent to `form` over Z, and the
    last one is det(form).  A zero pivot is replaced (`_place_pivot`);
    when the trailing block is zero, the remaining pivots are 0.  So the
    form is positive definite exactly when every pivot is positive (no
    replacement is then made, and the Delta_k are its own leading minors),
    and its signature is sum sign(Delta_{k-1} Delta_k) with Delta_0 = 1
    (Jacobi's rule).
    """
    a = [list(row) for row in form]
    r = len(a)
    prev = 1
    for k in range(r):
        if not a[k][k] and not _place_pivot(a, k):
            return a
        _bareiss_step(a, a, k, prev)
        prev = a[k][k]
    return a


def _bareiss_step(a: list[list[int]], out: list[list[int]], k: int, prev: int) -> None:
    """Step k + 1 of the elimination: `a` holds the form after k steps
    (upper triangle), whose pivot a[k][k] is nonzero, and prev = Delta_k.
    Rows k + 1.. of `out`, which may be `a`, get their values after
    k + 1 steps."""
    pivot, row = a[k][k], a[k]
    for i in range(k + 1, len(a)):
        above, below, c = a[i], out[i], row[i]
        for j in range(i, len(a)):
            below[j] = (pivot * above[j] - c * row[j]) // prev


def _place_pivot(a: list[list[int]], k: int) -> bool:
    """Make a[k][k] nonzero by a congruence of the trailing block (indices
    >= k): swap in a later nonzero diagonal entry or, when there is none,
    add index j to index i for some a_ij != 0, which puts 2 a_ij at (i, i),
    and swap that in.  False when the trailing block is zero.  Kept apart
    from the elimination loop, whose variables would otherwise be closure
    cells of these generator expressions."""
    r = len(a)
    for i in range(k + 1, r):  # the steps below need the whole block
        for j in range(k, i):
            a[i][j] = a[j][i]
    i = next((i for i in range(k + 1, r) if a[i][i]), None)
    if i is None:
        i, j = next(((i, j) for i in range(k, r) for j in range(i + 1, r) if a[i][j]),
                    (None, None))
        if i is None:
            return False
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] += row[j]
    a[k], a[i] = a[i], a[k]
    for row in a:
        row[k], row[i] = row[i], row[k]
    return True


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

