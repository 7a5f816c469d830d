"""Exact square solves by one LU modulo a prime and p-adic lifting.

``bareiss_solve`` takes a square matrix of ints and a rational right-hand
side.  Only the commands that raise a form to its state (gaiotto, bmt)
load this module, through ``shapovalov.solve``, which calls it as
``linalg.bareiss_solve``; that name resolves to it on first access.

Square solves run modulo a prime below 2^30 (Dixon's p-adic lifting):
the rhs is cleared to integers over one common denominator, each
augmented row divided by its content, then one LU mod p; x is lifted
one p-digit at a time against the integer rows, each coordinate is
recovered by rational reconstruction over a running common denominator,
and the answer is returned only when the exact integer check A x = b
holds.  A Hadamard bound caps the lifting, and the primes tried: each
prime with no LU pivot divides det, so det = 0 once their product passes
it.  The LU, the triangular solves and the residual pack a vector into
one int of fixed-width slots: each row or column update is one big-int
multiply-add, reduced mod p only where a slot is read (delayed
reduction).  Primes are drawn largest first by a deterministic
Miller-Rabin test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul


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

    Their residues are single-digit CPython ints and the packed LU's
    slots half as wide as mod 2^61 - 1: on level-12 and level-14 Gram
    systems the LU ran 1.6-1.9x as fast, and the r = 1 Gaiotto raise at
    cutoffs 12, 14, 16 took 0.055, 0.18, 0.65 s against 0.076, 0.25,
    0.80 s, with twice the lifting steps (90, 132, 181 against 48, 68, 91).
    """
    return filter(_is_prime, range(2**30 - 1, 1, -1))


class SingularMatrixError(ValueError):
    """Raised when a square system has no unique solution."""


def _pack(values, width: int) -> int:
    """sum(values[i] << i * width): the values as the slots of one int."""
    return sum(v << i * width for i, v in enumerate(values))


def _lu_mod(rows: list[list[int]], p: int):
    """LU factors of the square integer rows mod p, or None if a column has no pivot.

    Each row is one int of W-bit slots; eliminating column k is one
    multiply-add per row below the pivot, row = (row >> W) + f * neg, neg
    holding (p - U[k][j]) mod p for j > k.  Only the pivot column and row
    are reduced mod p.  A slot starts below p and takes at most n - 1
    updates of at most (p - 1)^2: W = bitlen((n - 1)(p - 1)^2 + p - 1).

    Returns (perm, lcols, ucols, inverses, W): row i of L U is row
    perm[i] of the matrix; lcols[k] and ucols[j] hold (p - L[i][k]) mod p
    (i > k) and (p - U[i][j]) mod p (i < j) at slot perm[i]; inverses[i]
    is 1/U[i][i] mod p.
    """
    n = len(rows)
    width = ((n - 1) * (p - 1) ** 2 + p - 1).bit_length()
    mask = (1 << width) - 1
    work = [_pack([x % p for x in row], width) for row in rows]  # slot j: column k + j
    perm = list(range(n))
    lcols, ucols, inverses = [], [0] * n, []
    for k in range(n):
        pivot = next((i for i in range(k, n) if (work[i] & mask) % p), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        perm[k], perm[pivot] = perm[pivot], perm[k]
        top = [(work[k] >> j * width & mask) % p for j in range(n - k)]
        inverses.append(inv := pow(top[0], -1, p))
        neg = [-x % p for x in top[1:]]
        for j, x in enumerate(neg, k + 1):
            ucols[j] += x << perm[k] * width
        packed = _pack(neg, width)
        fs = [(row & mask) * inv % p for row in work[k + 1 :]]
        work[k + 1 :] = [(row >> width) + f * packed for row, f in zip(work[k + 1 :], fs)]
        lcols.append(sum(-f % p << perm[i] * width for i, f in enumerate(fs, k + 1)))
    return perm, lcols, ucols, inverses, width


def _lu_solve(factors, rhs: list[int], p: int) -> list[int]:
    """y with A y = rhs mod p, A given by its ``_lu_mod`` factors.

    One accumulator, rhs[i] in slot i, runs both solves column by column:
    acc += (slot perm[k] mod p) * lcols[k], then y[j] = slot perm[j] /
    U[j][j] and acc += y[j] * ucols[j].  A slot takes n - 1 updates, as in the LU.
    """
    perm, lcols, ucols, inverses, width = factors
    mask = (1 << width) - 1
    acc = _pack([v % p for v in rhs], width)
    for slot, col in zip(perm, lcols):
        acc += (acc >> slot * width & mask) % p * col
    y = [0] * len(rhs)
    for j in range(len(rhs) - 1, -1, -1):
        y[j] = (acc >> perm[j] * width & mask) * inverses[j] % p
        acc += y[j] * ucols[j]
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


def _dixon(a: list[list[int]], b: list[int], factors, p: int) -> tuple[list[int], int]:
    """Numerators and a common denominator of x with a x = b, by p-adic lifting.

    The answer is certified by the exact check a nums = den b.  Each step
    adds one p-digit y to x mod p^k.  The residual (b - a x) / p^k
    is one int R = sum_i r_i 2^{iB}; with the packed columns C_j of a,
    R = (R - sum_j y_j C_j) / p is exact as it is exact in every slot, and
    |r_i| <= |b_i| + sum_j |a_ij| < 2^{B-1}, so R + 2^{B-1} in every slot
    decodes exactly.  Reconstruction is tried after steps 1..8, then when
    the step count has grown by an eighth, and at the Hadamard bound H on
    det a and every Cramer numerator, H^2 = max(1, |b|^2) prod |col|^2,
    where it is sure to succeed; a check failing there raises ArithmeticError.
    """
    n = len(b)
    bound = max(1, sum(v * v for v in b)) * prod(sum(v * v for v in col) for col in zip(*a))
    top = max((abs(v) + sum(map(abs, row)) for row, v in zip(a, b)), default=0)
    size = top.bit_length() // 8 + 1  # bytes per slot, sign bit included
    half = 1 << 8 * size - 1
    bias = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    *columns, residual = [
        int.from_bytes(b"".join((v + half).to_bytes(size, "little") for v in col), "little") - bias
        for col in [*zip(*a), b]
    ]
    x, modulus, steps, tried = [0] * n, 1, 0, 0
    while True:
        data = (residual + bias).to_bytes(n * size, "little")
        r = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, n * size, size)]
        y = _lu_solve(factors, r, p)
        x = [xi + modulus * yi for xi, yi in zip(x, y)]
        modulus *= p
        residual = (residual - sum(map(mul, y, columns))) // p
        steps += 1
        capped = (modulus - 1) // 2 >= bound
        if capped or steps - tried >= max(1, tried // 8):
            tried = steps
            found = _reconstruct(x, modulus)
            if found is not None:
                nums, den = found
                if all(sum(map(mul, row, nums)) == den * v for row, v in zip(a, b)):
                    return found
        if capped:
            raise ArithmeticError("p-adic lifting passed the Hadamard bound uncertified")


def bareiss_solve(matrix: list[list[int]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact x with matrix * x = rhs, matrix a square matrix of ints.

    The rhs is cleared to integers over the lcm D of its denominators and
    each augmented row divided by its content.  The rows are factored
    once mod the first of ``primes()`` (``_lu_mod``); D x is lifted
    p-adically and certified by the exact integer check (``_dixon``).
    A prime with no LU pivot divides det, and the next is tried; once their
    product P has P^2 > prod |row|^2 >= det^2, det = 0 and
    SingularMatrixError is raised (254 primes on a level-12 Gram matrix).

    The name is that of the fraction-free (Bareiss) solve this method
    replaced; ``perfbench/traced_job.py`` traces it by name.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("expected a square system")
    scale = lcm(*(v.denominator for v in rhs))
    a, b = [], []
    for row, v in zip(matrix, rhs):
        bi = v.numerator * (scale // v.denominator)
        content = gcd(*row, bi) or 1
        a.append([x // content for x in row] if content > 1 else row)
        b.append(bi // content)
    bound = prod(sum(v * v for v in row) for row in a)  # Hadamard: det^2 <= bound
    divisors = 1  # the product of the primes with no LU pivot
    for p in primes():
        factors = _lu_mod(a, p)
        if factors is not None:
            nums, den = _dixon(a, b, factors, p)
            return [Fraction(v, den * scale) for v in nums]
        divisors *= p
        if divisors * divisors > bound:
            break
    raise SingularMatrixError(f"det = 0: primes down to {p} divide it, past the Hadamard bound")
