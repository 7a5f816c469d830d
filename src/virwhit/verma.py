"""The Verma module V_{c,Delta}: level bases, generator action, basis change.

A partition (i_1 >= ... >= i_k > 0) labels the canonical basis vector
L_{-i_1} ... L_{-i_k} |Delta>, whose index word -i_1 <= ... <= -i_k is
normal-ordered.  Partitions of each level are enumerated once, in
reverse-lexicographic order, so matrix layouts and serializations are
deterministic.

V_{c,Delta} is induced from p = span{L_n, n >= 0} with the highest-weight
end rule chi(L_0) = Delta, chi(L_{n>0}) = 0.  Its straightener
(virasoro.Straightener, one per (c, Delta)) takes the partition itself as
the word, letter x standing for L_{-x}, so the action of L_m on a basis
vector is straightener(ctx).times(-m, partition), with no conversion: its
integer on nu is the coefficient times s^{1 + len partition - len nu},
with s = lcm(2 den c, den Delta).

The reversed monomials R_mu = L_{-mu_k} ... L_{-mu_1} |Delta> exist only
through reversed_monomial, a cached sparse integer column of the basis
change B; B does not depend on (c, Delta).  B^-1 = D B D with
D = diag((-1)^{len lambda}), so no elimination is needed: theta(L_{-n}) =
-L_{-n} extends to an anti-automorphism of U(Vir_-) with theta(L_{-lambda})
= (-1)^{len lambda} R_lambda, so theta(R_mu = sum_lambda B[lambda][mu]
L_{-lambda}) reads L_{-mu} = sum_lambda (-1)^{len lambda + len mu}
B[lambda][mu] R_lambda.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import neg

from .linalg import SparseVector, Value, accumulate
from .virasoro import Straightener, Straighteners

Partition = tuple[int, ...]


class VermaContext(Value):
    """Central charge c and conformal weight Delta."""

    c: Fraction
    delta: Fraction


class VermaVector(SparseVector):
    """Sparse vector in V_{c,Delta}, expanded in canonical partition monomials.

    Terms may mix levels; zero coefficients are never stored.
    """

    context: VermaContext
    terms: dict[Partition, Fraction] = {}

    def levels(self) -> set[int]:
        return {sum(p) for p in self.terms}

    def level_component(self, level: int) -> "VermaVector":
        return VermaVector(
            self.context,
            {p: c for p, c in self.terms.items() if sum(p) == level},
        )


def highest_weight_vector(ctx: VermaContext) -> VermaVector:
    return VermaVector(ctx, {(): Fraction(1)})


def basis_vector(ctx: VermaContext, partition) -> VermaVector:
    partition = tuple(partition)
    if any(p <= 0 for p in partition) or list(partition) != sorted(partition, reverse=True):
        raise ValueError(f"not a partition: {partition}")
    return VermaVector(ctx, {partition: Fraction(1)})


@lru_cache(maxsize=None)
def enumerate_partitions(level: int) -> tuple[Partition, ...]:
    """All partitions of ``level`` in reverse-lexicographic order."""
    if level < 0:
        raise ValueError("level must be nonnegative")

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(level, level))


@lru_cache(maxsize=None)
def partition_index(level: int) -> dict[Partition, int]:
    return {p: i for i, p in enumerate(enumerate_partitions(level))}


def partition_key(partition: Partition) -> tuple[int, int]:
    """Sort key of the canonical order: level, then place in enumerate_partitions."""
    level = sum(partition)
    return level, partition_index(level)[partition]


def partition_exponents(partition, size: int | None = None) -> tuple[int, ...]:
    """Multiplicities (n_1, ..., n_size); size defaults to the level."""
    partition = tuple(partition)
    if size is None:
        size = sum(partition)
    exps = [0] * size
    for part in partition:
        exps[part - 1] += 1
    return tuple(exps)


def exponents_partition(exponents) -> Partition:
    parts: list[int] = []
    for i, mult in enumerate(exponents, start=1):
        parts.extend([i] * mult)
    return tuple(sorted(parts, reverse=True))


def _highest_weight_rule(key) -> Straightener:
    # Letters are parts (L_{-x}); L_0 ends as Delta and L_{n>0} as 0.
    c, delta = key
    end = lambda x: None if x > 0 else delta if x == 0 else 0
    return Straightener(c, sign=-1, rank=neg, end=end, scalars=(delta,))


# One straightener per (c, Delta), each owning its memo and the Gram
# matrices shapovalov keeps in its tables; the family keeps the last
# virasoro.MAX_CONTEXTS.  The name is the one the benchmark's tracer reads
# cache_info() from.
_act_monomial = Straighteners(_highest_weight_rule)


def straightener(ctx: VermaContext) -> Straightener:
    """The highest-weight straightener of V_{c,Delta}: letter x is L_{-x}, so
    ``straightener(ctx).times(-m, partition)`` is L_m L_{-partition}|Delta>."""
    return _act_monomial[ctx.c, ctx.delta]


def act(m: int, v: VermaVector) -> VermaVector:
    """The module action of L_m; maps level l to level l - m."""
    return VermaVector(v.context, straightener(v.context).apply((-m,), v.terms))


@lru_cache(maxsize=None)
def reversed_monomial(partition: Partition) -> tuple[tuple[Partition, int], ...]:
    """Column mu of basis_change: R_mu = L_{-mu_k} ... L_{-mu_1}|Delta> as
    (lambda, integer) pairs, computed as L_{-mu_k} R_{mu_1..mu_{k-1}}.
    """
    if not partition:
        return (((), 1),)
    # Negative modes never meet c or Delta and give integer coefficients,
    # so each stored integer is exactly divisible by its power of s = 2.
    rule = _act_monomial[Fraction(0), Fraction(0)]
    acc: dict[Partition, int] = {}
    for parts, coeff in reversed_monomial(partition[:-1]):
        image = rule.times(partition[-1], parts)
        accumulate(acc, ((p, n >> (1 + len(parts) - len(p))) for p, n in image), coeff)
    return tuple(sorted(acc.items(), reverse=True))


def basis_change(level: int, ctx: VermaContext) -> list[list[Fraction]]:
    """Matrix expressing reversed monomials in the canonical basis.

    Column mu holds the canonical expansion of L_{-1}^{m_1}...L_{-k}^{m_k}
    |Delta> for the partition mu (see reversed_monomial); rows and columns
    are both indexed by enumerate_partitions(level).  The matrix is
    unimodular (determinant +-1), hence invertible for every context, and
    its inverse is D B D with D = diag((-1)^{len lambda}).
    """
    index = partition_index(level)
    rows = [[Fraction(0)] * len(index) for _ in index]
    for j, mu in enumerate(enumerate_partitions(level)):
        for lam, coeff in reversed_monomial(mu):
            rows[index[lam]][j] = Fraction(coeff)
    return rows
