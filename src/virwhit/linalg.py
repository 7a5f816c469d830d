"""Exact linear algebra over the rationals.

Square systems are solved by fraction-free (Bareiss) elimination: rows are
scaled to integers, the forward sweep uses the two-by-two determinant
update with exact division by the previous pivot, and back substitution
reintroduces fractions only at the end.  This avoids the intermediate
denominator blow-up of naive Gaussian elimination.

Rank, reduced row echelon form and nullspace bases (used for the exact
solution spaces of homogeneous Whittaker-condition systems) run directly
over Fractions; the matrices involved are small.

Sparse vectors throughout the package are dicts from basis labels to
nonzero coefficients; ``accumulate`` is the one update rule they share.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


class SingularMatrixError(ValueError):
    """Raised when a square system has no unique solution."""


def accumulate(acc: dict, items, scalar=1) -> dict:
    """acc += scalar * items for (key, coefficient) pairs; zeros are dropped."""
    if not scalar:
        return acc
    for key, value in items:
        new = acc.get(key, 0) + value * scalar
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def bareiss_solve(matrix: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Exact solution of the square system matrix * x = rhs."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("bareiss_solve expects a square system")
    if n == 0:
        return []
    aug = _integer_rows(
        [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    )
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            for cc in range(col + 1, n + 1):
                aug[r][cc] = _exact_div(
                    aug[col][col] * aug[r][cc] - aug[r][col] * aug[col][cc], prev
                )
            aug[r][col] = 0
        prev = aug[col][col]

    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x


def det(matrix: Matrix) -> Fraction:
    """Determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(v) for v in row] for row in matrix]
    scale = Fraction(1)
    work = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        work.append([int(x * mult) for x in row])
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        for r in range(col + 1, n):
            for cc in range(col + 1, n):
                work[r][cc] = _exact_div(
                    work[col][col] * work[r][cc] - work[r][col] * work[col][cc], prev
                )
            work[r][col] = 0
        prev = work[col][col]
    return Fraction(sign * work[n - 1][n - 1]) / scale


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1]) if matrix else 0


def nullspace(matrix: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free column of the RREF."""
    if ncols is None:
        if not matrix:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(matrix[0])
    if not matrix:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv in enumerate(pivots):
            vec[piv] = -reduced[row_idx][free]
        basis.append(vec)
    return basis
