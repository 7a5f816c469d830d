"""Level-wise Shapovalov Gram matrices and the exact solver behind them.

The contravariant form takes L_n adjoint to L_{-n} with <Delta|Delta> = 1.
The entry at (lambda, mu) is the |Delta>-coefficient of

    L_{i_k} ... L_{i_1}  L_{-mu} |Delta>,    lambda = (i_1 >= ... >= i_k).

Matrices are built by the Shapovalov recursion: for lambda = (k, rest),

    G_N[lambda][mu] = sum_nu G_{N-k}[rest][nu] * (L_k L_{-mu}|Delta>)_nu,

so row lambda is row ``rest`` of the lower Gram matrix applied to the
images of the level-N basis under the single generator L_k.  Matrices are
memoized per process.  Degeneracy is reported through SingularGramError,
never worked around: callers wanting to raise indices at a degenerate
weight must pick a different (c, Delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .verma import (
    Partition,
    VermaContext,
    basis_vector,
    enumerate_partitions,
    partition_index,
)
from .verma import act as verma_act


class SingularGramError(ValueError):
    """The Shapovalov form is degenerate at this level for this (c, Delta)."""

    def __init__(self, level: int):
        super().__init__(f"singular Gram matrix at level {level}")
        self.level = level


@dataclass(frozen=True)
class GramMatrix:
    level: int
    context: VermaContext
    partitions: tuple[Partition, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def entry(self, row_partition, col_partition) -> Fraction:
        order = {p: i for i, p in enumerate(self.partitions)}
        return self.entries[order[tuple(row_partition)]][order[tuple(col_partition)]]


_CACHE: dict[tuple[int, VermaContext], GramMatrix] = {}


def gram(level: int, ctx: VermaContext) -> GramMatrix:
    """The level-N Gram matrix, rows and columns in partition order."""
    key = (level, ctx)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    partitions = enumerate_partitions(level)
    basis = [basis_vector(ctx, mu) for mu in partitions]
    images: dict[int, list[dict[Partition, Fraction]]] = {}
    rows = []
    for lam in partitions:
        if not lam:
            rows.append((Fraction(1),))  # <Delta|Delta> = 1
            continue
        k, rest = lam[0], lam[1:]
        if k not in images:
            images[k] = [verma_act(k, v).terms for v in basis]
        lower = gram(level - k, ctx)
        position = partition_index(level - k)
        row = lower.entries[position[rest]]
        rows.append(
            tuple(
                sum((row[position[nu]] * c for nu, c in image.items()), Fraction(0))
                for image in images[k]
            )
        )
    result = GramMatrix(level, ctx, partitions, tuple(rows))
    _CACHE[key] = result
    return result


def solve(g: GramMatrix, rhs: list[Fraction]) -> list[Fraction]:
    """Exact x with g x = rhs, by fraction-free elimination."""
    if len(rhs) != len(g.partitions):
        raise ValueError(
            f"rhs has length {len(rhs)}, expected {len(g.partitions)}"
        )
    try:
        return linalg.bareiss_solve([list(row) for row in g.entries], list(rhs))
    except linalg.SingularMatrixError as exc:
        raise SingularGramError(g.level) from exc
