"""Level-wise Shapovalov Gram matrices and the exact solver behind them.

The contravariant form takes L_n adjoint to L_{-n} with <Delta|Delta> = 1.
The entry at (lambda, mu) is the |Delta>-coefficient of

    L_{i_k} ... L_{i_1}  L_{-mu} |Delta>,    lambda = (i_1 >= ... >= i_k).

Matrices are built by the Shapovalov recursion: for lambda = (k, rest),

    G_N[lambda][mu] = sum_nu G_{N-k}[rest][nu] * (L_k L_{-mu}|Delta>)_nu,

so row lambda is row ``rest`` of the lower Gram matrix applied to the
images of the level-N basis under the single generator L_k.

A GramMatrix stores integer rows: rows[lambda] = s^{len lambda} G_N[lambda]
with s = lcm(2 den c, den Delta), the scale of the Verma module.
s clears every coefficient of L_k L_{-mu}|Delta> (verma.scaled_images
reads those integers from its raising rows), and each part of lambda
adds one such factor.
The form is symmetric, so row i computes only its entries j >= i, from
the L_k images of those columns, and takes entry j < i as rows[j][i]
s^{len lambda_i - len lambda_j}, an exact division when the exponent is
negative.  Fractions appear only in the views (``entries``, ``pair``)
and in solutions.  Matrices are memoized in verma.context_tables(ctx),
beside the raising rows, so they are freed with the context.  Degeneracy is
reported through SingularGramError, never worked around: callers wanting
to raise indices at a degenerate weight must pick a different (c, Delta).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .linalg import SingularGramError, Value
from .verma import (
    Partition,
    VermaContext,
    context_tables,
    enumerate_partitions,
    partition_index,
    scaled_images,
)


class GramMatrix(Value):
    """G_N as integer rows: rows[i] = scale^{len partitions[i]} G_N[i]."""

    level: int
    context: VermaContext
    partitions: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]
    scale: int

    def row_scales(self) -> list[int]:
        """The denominators of the rows: G_N[i] = rows[i] / row_scales()[i]."""
        return [self.scale ** len(lam) for lam in self.partitions]

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        pairs = zip(self.rows, self.row_scales())
        return tuple(tuple(Fraction(x, d) for x in row) for row, d in pairs)

    def pair(self, coords) -> list[Fraction]:
        """G_N x for x given by its coordinates in partition order."""
        coords = [Fraction(x) for x in coords]
        den = lcm(*(x.denominator for x in coords))
        ints = [x.numerator * (den // x.denominator) for x in coords]
        return [
            Fraction(sum(a * x for a, x in zip(row, ints) if x), den * d)
            for row, d in zip(self.rows, self.row_scales())
        ]


def gram(level: int, ctx: VermaContext) -> GramMatrix:
    """The level-N Gram matrix, rows and columns in partition order."""
    tables = context_tables(ctx)
    key = ("gram", level)
    cached = tables.get(key)
    if cached is not None:
        return cached
    partitions = enumerate_partitions(level)
    lengths = [len(lam) for lam in partitions]
    powers = [tables.scale**e for e in range(level + 1)]
    rows: list[tuple[int, ...]] = []

    def unscaled(j: int, i: int) -> int:
        # Entry (i, j) from row j's, lambda_j being the longer: an exact division.
        value, rem = divmod(rows[j][i], powers[lengths[j] - lengths[i]])
        if rem:
            raise ArithmeticError(
                f"level {level}: entry {partitions[i], partitions[j]} mirrored from "
                f"{partitions[j], partitions[i]} is not integral after scaling by s^{lengths[i]}"
            )
        return value

    for i, lam in enumerate(partitions):
        if not lam:
            rows.append((1,))  # <Delta|Delta> = 1
            continue
        k, rest = lam[0], lam[1:]
        if not i or k != partitions[i - 1][0]:
            # The rows starting with k are contiguous: columns from here on.
            first, images = i, scaled_images(k, level, ctx, i)
        li = len(lam)  # mirrored: rows[j][i] = s^{len lambda_j} G[i][j]
        row = [
            rows[j][i] * powers[li - lj] if li >= lj else unscaled(j, i)
            for j, lj in enumerate(lengths[:i])
        ]
        lower = gram(level - k, ctx).rows[partition_index(level - k)[rest]]
        row.extend(sum(lower[t] * a for t, a in image) for image in images[i - first :])
        rows.append(tuple(row))
    result = tables[key] = GramMatrix(level, ctx, partitions, tuple(rows), tables.scale)
    return result


def solve(g: GramMatrix, rhs: list[Fraction]) -> list[Fraction]:
    """Exact x with g x = rhs.

    The integer rows go to ``linalg.bareiss_solve`` as they are, with
    the rhs scaled row by row by s^{len lambda}; it clears the rhs to
    integers once and solves by a packed LU mod a prime below 2^30 and
    p-adic lifting, certified by the exact integer check.  A degenerate
    level raises SingularGramError.
    """
    if len(rhs) != len(g.partitions):
        raise ValueError(
            f"rhs has length {len(rhs)}, expected {len(g.partitions)}"
        )
    scaled = [b * d for b, d in zip(rhs, g.row_scales())]
    try:
        return linalg.bareiss_solve(g.rows, scaled)
    except linalg.SingularMatrixError as exc:
        raise SingularGramError(g.level) from exc
