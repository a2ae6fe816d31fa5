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

    The diagonal list has length min(rows, cols).  Pivoting always picks a
    nonzero entry of minimal absolute value to limit growth.
    """
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):  # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # locate a minimal-absolute-value nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    k = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % (di if di else 1) != 0 or (di == 0 and dj != 0):
                # fold entry (i+1, i+1) into row i and re-reduce the 2x2 corner
                add_row(i + 1, i, 1)
                g, x, y = _xgcd(a[i][i], a[i][i + 1])
                # column ops: col_i, col_{i+1} -> combinations realising gcd
                ci = [r[i] for r in a]
                cj = [r[i + 1] for r in a]
                p, q = a[i][i] // g, a[i][i + 1] // g
                for r_idx in range(rows):
                    a[r_idx][i] = ci[r_idx] * x + cj[r_idx] * y
                    a[r_idx][i + 1] = -ci[r_idx] * q + cj[r_idx] * p
                vi = [r[i] for r in v]
                vj = [r[i + 1] for r in v]
                for r_idx in range(cols):
                    v[r_idx][i] = vi[r_idx] * x + vj[r_idx] * y
                    v[r_idx][i + 1] = -vi[r_idx] * q + vj[r_idx] * p
                # clear the off-diagonal remnants
                if a[i + 1][i]:
                    add_row(i, i + 1, -(a[i + 1][i] // a[i][i]))
                if a[i][i + 1]:
                    add_col(i, i + 1, -(a[i][i + 1] // a[i][i]))
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    diag = [a[i][i] for i in range(k)]
    return diag, u, v


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1), 0)
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


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
