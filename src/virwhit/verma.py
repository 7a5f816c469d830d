"""The Verma module V_{c,Delta}: level bases, generator action, basis change.

A partition (i_1 >= ... >= i_k > 0) labels the canonical basis vector
L_{-i_1} ... L_{-i_k} |Delta>, whose index word -i_1 <= ... <= -i_k is
normal-ordered.  Partitions of each level are enumerated once, in
reverse-lexicographic order, so matrix layouts and serializations are
deterministic.

The action of a single generator L_m is computed by migrating L_m through
the ordered word one commutation at a time (the left factor is already
ordered, so full word reordering is never needed).  The highest-weight
rules L_n|Delta> = 0 (n >= 1), L_0|Delta> = Delta|Delta> and z -> c are
applied at the end of the word.

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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import accumulate

Partition = tuple[int, ...]


@dataclass(frozen=True)
class VermaContext:
    """Central charge c and conformal weight Delta."""

    c: Fraction
    delta: Fraction


@dataclass(frozen=True)
class VermaVector:
    """Sparse vector in V_{c,Delta}, expanded in canonical partition monomials.

    Terms may mix levels; zero coefficients are never stored.
    """

    context: VermaContext
    terms: dict[Partition, Fraction] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, partition) -> Fraction:
        return self.terms.get(tuple(partition), Fraction(0))

    def levels(self) -> set[int]:
        return {sum(p) for p in self.terms}

    def level_component(self, level: int) -> "VermaVector":
        return VermaVector(
            self.context,
            {p: c for p, c in self.terms.items() if sum(p) == level},
        )

    def __add__(self, other: "VermaVector") -> "VermaVector":
        if self.context != other.context:
            raise ValueError("mixing Verma vectors from different contexts")
        merged = accumulate(dict(self.terms), other.terms.items())
        return VermaVector(self.context, merged)

    def __neg__(self) -> "VermaVector":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-other)

    def scale(self, scalar: Fraction | int) -> "VermaVector":
        scalar = Fraction(scalar)
        if not scalar:
            return VermaVector(self.context, {})
        return VermaVector(
            self.context, {p: c * scalar for p, c in self.terms.items()}
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


@lru_cache(maxsize=None)
def _act_monomial(
    m: int, parts: Partition, c: Fraction, delta: Fraction
) -> tuple[tuple[Partition, Fraction], ...]:
    # L_m applied to the canonical monomial for ``parts``, as a sparse vector.
    if not parts:
        if m > 0:
            return ()
        if m == 0:
            return (((), delta),) if delta else ()
        return (((-m,), Fraction(1)),)

    head, tail = parts[0], parts[1:]
    a = -head
    if m <= a:
        # Prepending keeps the word ordered.
        return (((-m,) + parts, Fraction(1)),)

    # L_m L_a = L_a L_m + (m - a) L_{m+a} + (c/12) m (m^2-1) delta_{m+a,0}
    acc: dict[Partition, Fraction] = {}
    for part, coeff in _act_monomial(m, tail, c, delta):
        accumulate(acc, _act_monomial(a, part, c, delta), coeff)
    accumulate(acc, _act_monomial(m + a, tail, c, delta), Fraction(m - a))
    if m + a == 0:
        central = c * Fraction(m * (m * m - 1), 12)
        accumulate(acc, ((tail, Fraction(1)),), central)
    return tuple(sorted(acc.items()))


def act(m: int, v: VermaVector) -> VermaVector:
    """The module action of L_m; maps level l to level l - m."""
    ctx = v.context
    acc: dict[Partition, Fraction] = {}
    for parts, coeff in v.terms.items():
        accumulate(acc, _act_monomial(m, parts, ctx.c, ctx.delta), coeff)
    return VermaVector(ctx, acc)


@lru_cache(maxsize=None)
def reversed_monomial(partition: Partition) -> tuple[tuple[Partition, int], ...]:
    """Column mu of basis_change: R_mu = L_{-mu_k} ... L_{-mu_1}|Delta> as
    (lambda, integer) pairs, computed as L_{-mu_k} R_{mu_1..mu_{k-1}}.
    """
    if not partition:
        return (((), 1),)
    acc: dict[Partition, int] = {}
    for parts, coeff in reversed_monomial(partition[:-1]):
        # Negative modes never meet c or Delta and give integer coefficients.
        image = _act_monomial(-partition[-1], parts, 0, 0)
        accumulate(acc, ((p, c.numerator) for p, c in image), coeff)
    return tuple(sorted(acc.items(), reverse=True))


def _basis_change(level: int, signed: bool = False) -> list[list[Fraction]]:
    # Dense B from its sparse columns; with ``signed``, D B D = B^-1.
    partitions = enumerate_partitions(level)
    index = partition_index(level)
    rows = [[Fraction(0)] * len(partitions) for _ in partitions]
    for j, mu in enumerate(partitions):
        for lam, coeff in reversed_monomial(mu):
            flip = signed and (len(lam) + len(mu)) % 2
            rows[index[lam]][j] = Fraction(-coeff if flip else coeff)
    return rows


def basis_change(level: int, ctx: VermaContext) -> list[list[Fraction]]:
    """Matrix expressing reversed monomials in the canonical basis.

    Column mu holds the canonical expansion of L_{-1}^{m_1}...L_{-k}^{m_k}
    |Delta> for the partition mu (see reversed_monomial); rows and columns
    are both indexed by enumerate_partitions(level).  The matrix is
    unimodular (determinant +-1), hence invertible for every context.
    """
    return _basis_change(level)


def basis_change_inverse(level: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of basis_change(level): canonical monomials in reversed ones.

    Column lam holds the expansion of L_{-lam}|Delta> in the reversed
    monomials.  It is D B D with D = diag((-1)^{len lambda}), proved in the
    module docstring.
    """
    return tuple(map(tuple, _basis_change(level, signed=True)))
