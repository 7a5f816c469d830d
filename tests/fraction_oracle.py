"""Fraction Gauss-Jordan reduction, the independent oracle for exact linear algebra.

It shares no code with ``virwhit.linalg``: no integer rows, no modular
arithmetic, only Fraction row operations.
"""


def reference_rref(matrix, ncols):
    """Reduced row echelon form of the first ncols columns and its pivot columns."""
    rows = [list(row) for row in matrix]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def reference_solve(matrix, rhs):
    """x with matrix x = rhs for a regular square matrix, by reducing [matrix | rhs]."""
    n = len(rhs)
    reduced, pivots = reference_rref([list(row) + [b] for row, b in zip(matrix, rhs)], n)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n] for row in reduced]
