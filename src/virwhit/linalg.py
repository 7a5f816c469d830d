"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) forward elimination serves every exact solve:
rows are scaled to primitive integer rows (denominators cleared, then the
gcd of the row divided out, so entries carry as few bits as the row
allows), columns without a pivot are skipped (rank profile), and each
update divides exactly by the previous pivot, so no intermediate
denominators grow.  One back substitution over the pivot
columns brings fractions back at the end.  Square solves, the
determinant, the rank and nullspace bases (among them the large, sparse
Whittaker-condition systems of the universal searches) wrap these two
steps.  There is no inverse: verma inverts the basis change by signs.

Sparse vectors throughout the package are dicts from basis labels to
nonzero coefficients; ``accumulate`` is the one update rule they share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _integer_rows(rows) -> tuple[list[list[int]], Fraction]:
    """Each row as a primitive integer row, and the product of the row factors.

    A row is multiplied by the lcm of its denominators and divided by the
    gcd of the resulting integers (its content); zero rows stay zero.
    """
    out = []
    num = den = 1
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (mult // x.denominator) for x in row]
        content = gcd(*ints) or 1
        if content > 1:
            ints = [x // content for x in ints]
        num *= mult
        den *= content
        out.append(ints)
    return out, Fraction(num, den)


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free forward elimination of integer rows, in place.

    Returns the pivot columns, pivot k sitting in row k, and the sign of
    the row permutation.  Rows below the last pivot end up zero.
    """
    nrows = len(rows)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        p = top[col]
        tail = top[col + 1 :]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[col]
            row[col:] = [0] + [
                _exact_div(p * x - f * y, prev) if x or y else 0
                for x, y in zip(row[col + 1 :], tail)
            ]
        pivots.append(col)
        prev = p
    return pivots, sign


def _back_substitute(rows: list[list[int]], pivots: list[int], col: int) -> list[Fraction]:
    """y with sum_j rows[i][pivots[j]] * y[j] == rows[i][col] for every pivot row i."""
    k = len(pivots)
    y = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        acc = Fraction(row[col])
        for j in range(i + 1, k):
            if row[pivots[j]] and y[j]:
                acc -= row[pivots[j]] * y[j]
        y[i] = acc / row[pivots[i]]
    return y


def bareiss_solve(matrix: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Exact solution of the square system matrix * x = rhs."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("expected a square system")
    aug, _ = _integer_rows(list(row) + [b] for row, b in zip(matrix, rhs))
    pivots, _ = _eliminate(aug)
    for col in range(n):
        if col >= len(pivots) or pivots[col] != col:
            raise SingularMatrixError(f"no pivot in column {col}")
    return _back_substitute(aug, pivots, n)


def det(matrix: Matrix) -> Fraction:
    """Determinant by fraction-free elimination."""
    work, scale = _integer_rows(matrix)
    pivots, sign = _eliminate(work)
    if len(pivots) < len(matrix):
        return Fraction(0)
    return sign * work[-1][-1] / scale if work else Fraction(1)


def rank(matrix: Matrix) -> int:
    return len(_eliminate(_integer_rows(matrix)[0])[0])


def nullspace(matrix: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free (non-pivot) column.

    The vector for a free column holds 1 there and 0 at every other free
    column, which makes the basis unique: it is the reduced-row-echelon one.
    """
    if ncols is None:
        if not matrix:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(matrix[0])
    work, _ = _integer_rows(matrix)
    pivots, _ = _eliminate(work)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for piv, value in zip(pivots, _back_substitute(work, pivots, free)):
            vec[piv] = -value
        basis.append(vec)
    return basis
