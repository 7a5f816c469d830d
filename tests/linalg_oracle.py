"""The list-based modular LU that preceded the packed one in ``virwhit.linalg``,
kept as an oracle for ``_lu_mod`` and ``_lu_solve``.

Every entry is reduced mod p after every update, rows and factors are
plain lists, and the triangular solves run row by row.  It shares no code
with the packed kernels.
"""

from operator import mul


def reference_lu_mod(rows, p):
    """LU factors of the square integer rows mod p, or None if a column has no pivot.

    Returns (perm, lower, upper, inverses) with row perm[i] of the matrix
    equal to row i of L U mod p: lower[i] holds L[i][:i] (unit diagonal),
    upper[i] holds U[i][i+1:] from the last column back, inverses[i] is
    1/U[i][i] mod p.
    """
    n = len(rows)
    work = [[x % p for x in row] for row in rows]
    perm = list(range(n))
    inverses = []
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        perm[k], perm[pivot] = perm[pivot], perm[k]
        top = work[k]
        inv = pow(top[k], -1, p)
        inverses.append(inv)
        tail = top[k + 1 :]
        for i in range(k + 1, n):
            row = work[i]
            f = row[k] * inv % p
            row[k] = f
            if f:
                row[k + 1 :] = [(x - f * y) % p for x, y in zip(row[k + 1 :], tail)]
    lower = [row[:i] for i, row in enumerate(work)]
    upper = [row[:i:-1] for i, row in enumerate(work)]
    return perm, lower, upper, inverses


def reference_lu_solve(factors, rhs, p):
    """y with A y = rhs mod p, A given by its ``reference_lu_mod`` factors."""
    perm, lower, upper, inverses = factors
    z = []
    for i, row in zip(perm, lower):
        z.append((rhs[i] - sum(map(mul, row, z))) % p)
    y = []  # y[n-1], y[n-2], ...
    for i in range(len(z) - 1, -1, -1):
        y.append((z[i] - sum(map(mul, upper[i], y))) * inverses[i] % p)
    y.reverse()
    return y
