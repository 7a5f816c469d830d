"""Exact linear algebra over the rationals.

Every routine first scales the rows to primitive integer rows
(denominators cleared, then the gcd of the row divided out, so entries
carry as few bits as the row allows).

Square solves run modulo a prime below 2^30 (Dixon's p-adic lifting):
one LU mod p, then x is lifted one p-digit at a time against the integer
rows, each coordinate is recovered by rational reconstruction over a
running common denominator, and the answer is returned only when the
exact integer check A x = b holds.  A Hadamard bound caps the lifting.
Primes are drawn largest first by a deterministic Miller-Rabin test.

The determinant, the rank, nullspace bases and the singularity decision
of a solve share one sparse exact elimination (``_echelon``) on
{column: int} rows: columns left to right (so the pivot columns are the
rank profile), updates only on the rows holding the pivot column, and
each updated row divided by its content.  Such a row is the primitive
vector of a line (its combinations with the pivot rows that vanish on
the pivot columns), so it is never larger than the fraction-free
(Bareiss) row on that line.  There is no inverse: verma inverts the
basis change by signs.

Sparse vectors throughout the package are dicts from basis labels to
nonzero coefficients; ``accumulate`` is the one update rule they share.
SparseVector is the one vector type built on it: U(Vir) elements, Verma
vectors, dual forms and universal Whittaker vectors all inherit its
arithmetic and its same-module check.  Nullspace rows may be dense lists
or such sparse {column: value} dicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import attrgetter, mul

Matrix = list[list[Fraction]]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5, 7 decide every n < 3,215,031,751."""
    bases = (2, 3, 5, 7)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**k, n) != n - 1 for k in range(s)):
            return False
    return True


def primes():
    """The primes below 2^30, largest first, for the modular solve.

    Their residues are single-digit CPython ints: on level-12 Gram systems
    the LU ran twice as fast as mod 2^61 - 1, which pays for the doubled
    number of lifting steps.
    """
    return filter(_is_prime, range(2**30 - 1, 1, -1))


class SingularMatrixError(ValueError):
    """Raised when a square system has no unique solution."""


class ContextMismatchError(ValueError):
    """Raised when vectors of different modules are combined."""


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


class SparseVector:
    """Base of the frozen dataclasses whose last field is ``terms``, a dict
    from basis label to nonzero coefficient; the other fields name the module.

    ``module`` is the tuple of those other fields.  Results are built with
    the class constructor from the module and new terms; combining vectors
    of different modules raises ContextMismatchError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        *names, last = cls.__annotations__
        if last != "terms":
            raise TypeError(f"{cls.__name__}: the last field must be terms")
        get = attrgetter(*names)
        cls.module = property(get if len(names) > 1 else lambda v: (get(v),))

    def shared_module(self, other: "SparseVector") -> tuple:
        """The module both vectors belong to."""
        module = self.module
        if module != other.module:
            raise ContextMismatchError(
                f"{type(self).__name__}s of different modules: {module} vs {other.module}"
            )
        return module

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, label) -> Fraction:
        return self.terms.get(tuple(label), Fraction(0))

    def add_scaled(self, other, scalar=1):
        """self + scalar * other."""
        module = self.shared_module(other)
        return type(self)(*module, accumulate(dict(self.terms), other.terms.items(), scalar))

    def __add__(self, other):
        return self.add_scaled(other)

    def __sub__(self, other):
        return self.add_scaled(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        terms = {k: c * scalar for k, c in self.terms.items()} if scalar else {}
        return type(self)(*self.module, terms)


def _integer_rows(rows) -> tuple[list[dict[int, int]], Fraction]:
    """Each row as a primitive integer row {column: int}, and the product of the row factors.

    A row is a dense list or a sparse {column: value} dict.  It is
    multiplied by the lcm of its denominators and divided by the gcd of
    the resulting integers (its content); zero rows stay empty.
    """
    out = []
    num = den = 1
    for row in rows:
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        entries = {j: x for j, x in pairs if x}
        mult = lcm(*(x.denominator for x in entries.values()))
        ints = {j: x.numerator * (mult // x.denominator) for j, x in entries.items()}
        content = gcd(*ints.values()) or 1
        if content > 1:
            ints = {j: x // content for j, x in ints.items()}
        num *= mult
        den *= content
        out.append(ints)
    return out, Fraction(num, den)


def _echelon(matrix, ncols: int, reduce: bool):
    """Sparse exact elimination of the primitive integer rows of matrix.

    Columns go left to right; the pivot is the row without a pivot that
    holds the column and has the fewest nonzeros (the first on a tie).
    Every other such row -- with ``reduce``, every earlier pivot row too
    -- becomes (a row - b pivot_row) / content, a / b being the pivot
    entry over the row's entry in lowest terms.  Returns the rows, the
    pivots as (column, row index) in column order, and the F with
    det(matrix) = det(rows) F when ``reduce`` is off.
    """
    rows, scale = _integer_rows(matrix)
    factor = 1 / scale
    waiting = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        holders = [i for i in waiting if col in rows[i]]
        if not holders:
            continue
        piv = min(holders, key=lambda i: len(rows[i]))
        waiting.remove(piv)
        top = rows[piv]
        p = top[col]
        earlier = [i for _, i in pivots if col in rows[i]] if reduce else []
        for i in holders + earlier:
            if i == piv:
                continue
            f = rows[i][col]
            g = gcd(p, f)
            a = p // g
            row = accumulate({j: a * v for j, v in rows[i].items()}, top.items(), -(f // g))
            content = gcd(*row.values()) or 1
            if content > 1:
                row = {j: v // content for j, v in row.items()}
            rows[i] = row
            if i in holders:
                factor *= Fraction(content, a)
        pivots.append((col, piv))
    return rows, pivots, factor


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
    mod the first of ``primes()``, then x is lifted p-adically and
    certified by the exact integer check (``_dixon``).  When the LU finds
    no pivot mod p, the exact ``rank`` decides: short rank raises
    SingularMatrixError, full rank moves on through the next primes until
    one does not divide the determinant.

    The name is that of the fraction-free (Bareiss) solve this method
    replaced.  It stays because ``perfbench/traced_job.py`` traces the
    function by name and the benchmark reports its per-layer numbers
    under it.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("expected a square system")
    aug, _ = _integer_rows(list(row) + [b] for row, b in zip(matrix, rhs))
    a = [[row.get(j, 0) for j in range(n)] for row in aug]
    b = [row.get(n, 0) for row in aug]
    for k, p in enumerate(primes()):
        factors = _lu_mod(a, p)
        if factors is not None:
            return _dixon(a, b, factors, p)
        if k == 0 and (r := rank(a)) < n:
            raise SingularMatrixError(f"rank {r} < {n}")
    raise AssertionError("a nonzero determinant has finitely many prime factors")


def det(matrix: Matrix) -> Fraction:
    """Determinant: the pivot rows in column order are upper triangular."""
    n = len(matrix)
    rows, pivots, factor = _echelon(matrix, n, reduce=False)
    if len(pivots) < n:
        return Fraction(0)
    order = [i for _, i in pivots]
    inversions = sum(x > y for k, x in enumerate(order) for y in order[k + 1 :])
    return (-1) ** inversions * prod(rows[i][c] for c, i in pivots) * factor


def rank(matrix: Matrix) -> int:
    ncols = len(matrix[0]) if matrix else 0
    return len(_echelon(matrix, ncols, reduce=False)[1])


def nullspace(matrix: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free (non-pivot) column.

    Rows may be sparse {column: value} dicts; ncols is then required.

    The vector for a free column holds 1 there and 0 at every other free
    column, which makes the basis unique: it is the reduced-row-echelon one,
    with -R_c[f] / R_c[c] at pivot column c for the reduced pivot row R_c.
    """
    if ncols is None:
        if not matrix or isinstance(matrix[0], dict):
            raise ValueError("ncols required for an empty or sparse matrix")
        ncols = len(matrix[0])
    rows, pivots, _ = _echelon(matrix, ncols, reduce=True)
    pivot_columns = {c for c, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_columns:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for c, i in pivots:
            if free in rows[i]:
                vec[c] = Fraction(-rows[i][free], rows[i][c])
        basis.append(vec)
    return basis
