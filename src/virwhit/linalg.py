"""Exact linear algebra over the rationals.

Every routine first scales the rows to primitive integer rows
(denominators cleared, then the gcd of the row divided out, so entries
carry as few bits as the row allows).

Square solves run modulo a prime below 2^30 (Dixon's p-adic lifting):
one LU mod p, then x is lifted one p-digit at a time against the integer
rows, each coordinate is recovered by rational reconstruction over a
running common denominator, and the answer is returned only when the
exact integer check A x = b holds.  A Hadamard bound caps the lifting.

The determinant, the rank, nullspace bases (among them the large, sparse
Whittaker-condition systems of the universal searches) and the
singularity decision of a solve use one fraction-free (Bareiss) forward
elimination: columns without a pivot are skipped (rank profile) and each
update divides exactly by the previous pivot, so no intermediate
denominators grow; one back substitution over the pivot columns brings
fractions back at the end.  There is no inverse: verma inverts the basis
change by signs.

Sparse vectors throughout the package are dicts from basis labels to
nonzero coefficients; ``accumulate`` is the one update rule they share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

Matrix = list[list[Fraction]]


# Primes for the modular solve, first choice first: the five largest below
# 2^30, so that residues are single-digit CPython ints.  On level-12 Gram
# systems the LU mod such a prime ran twice as fast as mod 2^61 - 1, which
# more than pays for twice as many lifting steps.
PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83, 2**30 - 101, 2**30 - 105)


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


def _lu_mod(rows: list[list[int]], p: int):
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


def _lu_solve(factors, rhs: list[int], p: int) -> list[int]:
    """y with A y = rhs mod p, A given by its ``_lu_mod`` factors."""
    perm, lower, upper, inverses = factors
    z: list[int] = []
    for i, row in zip(perm, lower):
        z.append((rhs[i] - sum(map(mul, row, z))) % p)
    y: list[int] = []  # y[n-1], y[n-2], ...
    for i in range(len(z) - 1, -1, -1):
        y.append((z[i] - sum(map(mul, upper[i], y))) * inverses[i] % p)
    y.reverse()
    return y


def _reconstruct(residues: list[int], modulus: int):
    """Numerators and a common denominator D with nums[i] / D = residues[i] mod modulus.

    Rational reconstruction (Wang) with numerator and denominator bound
    sqrt(modulus / 2), run on D * residue with the denominator D found
    so far, so that after the first coordinate most runs stop at once.
    Returns None when some coordinate has no fraction within the bounds.
    """
    bound = isqrt((modulus - 1) // 2)
    den = 1
    nums: list[int] = []
    for x in residues:
        r0, r1 = modulus, den * x % modulus
        t0, t1 = 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if abs(t1) * den > bound:
            return None
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 != 1:
            nums = [v * t1 for v in nums]
            den *= t1
        nums.append(r1)
    return nums, den


def _dixon(a: list[list[int]], b: list[int], factors, p: int) -> list[Fraction]:
    """Solve a x = b by p-adic lifting; the answer is certified by a x = b exactly.

    Each step adds one p-digit to x mod p^k and keeps the integer residual
    (b - a x) / p^k.  Reconstruction is tried after every digit and is
    sure to succeed once sqrt(p^k / 2) reaches the Hadamard bound H on
    det a and on every Cramer numerator, H^2 = max(1, |b|^2) prod |col|^2;
    a check still failing at that point raises ArithmeticError.
    """
    bound = max(1, sum(v * v for v in b))
    for col in zip(*a):
        bound *= sum(v * v for v in col)
    x = [0] * len(b)
    residual = b
    modulus = 1
    while True:
        y = _lu_solve(factors, residual, p)
        x = [xi + modulus * yi for xi, yi in zip(x, y)]
        modulus *= p
        residual = [(r - sum(map(mul, row, y))) // p for r, row in zip(residual, a)]
        found = _reconstruct(x, modulus)
        if found is not None:
            nums, den = found
            if all(sum(map(mul, row, nums)) == den * v for row, v in zip(a, b)):
                return [Fraction(v, den) for v in nums]
        if (modulus - 1) // 2 >= bound:
            raise ArithmeticError("p-adic lifting passed the Hadamard bound uncertified")


def bareiss_solve(matrix: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Exact solution of the square system matrix * x = rhs.

    The primitive integer rows of the augmented system are factored once
    mod the first prime of ``PRIMES``, then x is lifted p-adically and
    certified by the exact integer check (``_dixon``).  When the LU finds
    no pivot mod p, the fraction-free ``rank`` decides: short rank raises
    SingularMatrixError, full rank moves on to the next prime; a regular
    matrix singular modulo every prime raises ArithmeticError.

    The name is that of the fraction-free (Bareiss) solve this method
    replaced.  It stays because ``perfbench/traced_job.py`` traces the
    function by name and the benchmark reports its per-layer numbers
    under it.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("expected a square system")
    aug, _ = _integer_rows(list(row) + [b] for row, b in zip(matrix, rhs))
    a = [row[:n] for row in aug]
    b = [row[n] for row in aug]
    for p in PRIMES:
        factors = _lu_mod(a, p)
        if factors is not None:
            return _dixon(a, b, factors, p)
        r = rank(a)
        if r < n:
            raise SingularMatrixError(f"rank {r} < {n}")
    raise ArithmeticError("regular matrix singular modulo every prime in PRIMES")


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
