"""The Verma module V_{c,Delta}: level bases, generator action, basis change.

A partition (i_1 >= ... >= i_k > 0) labels the canonical basis vector
L_{-i_1} ... L_{-i_k} |Delta>, whose index word -i_1 <= ... <= -i_k is
normal-ordered.  Partitions of each level are enumerated once, in
reverse-lexicographic order, so matrix layouts and serializations are
deterministic.

V_{c,Delta} is induced from p = span{L_n, n >= 0} with the highest-weight
end rule chi(L_0) = Delta, chi(L_{n>0}) = 0.  ``act`` applies L_m through
its generic straightener (virasoro.Straightener, one per (c, Delta)),
whose word for a partition is its index word, the negated parts.  It is
the independent reference the tables below are tested against; no
command calls it, so only act imports virasoro.

scaled_images gives s (L_m L_{-mu}|Delta>), s = lcm(2 den c, den Delta),
to the Gram recursion, the state check and the form equations, from
level-graded integer rows of (index, integer) pairs stored as one flat
tuple each and filled the first time a caller asks for them:

- lowering rows, L_{-j} L_{-mu}|Delta> from L_{-j} L_{-a} = L_{-a} L_{-j}
  + (a - j) L_{-(a+j)}, have integer coefficients independent of
  (c, Delta), so every context shares one store of them;
- raising rows, s L_k L_{-mu}|Delta> for k > 0, from L_k L_{-a} rest =
  L_{-a} (L_k rest) + (k + a) L_{k-a} rest + delta_{k,a} (c/12) k (k^2 -
  1) rest, live in context_tables(ctx) beside shapovalov's Gram matrices;
  the last MAX_CONTEXTS contexts keep theirs, an older one's are freed.

Every raising value is exactly s times its coefficient: by induction over
the rule, the lowering rows and k + a are integers, L_0 = Delta + level
gives s Delta + s level, and s c k (k^2 - 1)/12 is an integer because
k (k^2 - 1)/12 lies in Z/2 and s c in 2Z.  The recursion takes a few
frames per part of mu.

The reversed monomials R_mu = L_{-mu_k} ... L_{-mu_1} |Delta> exist only
through reversed_monomial, a cached sparse integer column of the basis
change B built from the lowering rows; B does not depend on (c, Delta).
B^-1 = D B D with D = diag((-1)^{len lambda}), so no elimination is
needed: theta(L_{-n}) = -L_{-n} extends to an anti-automorphism of
U(Vir_-) with theta(L_{-lambda}) = (-1)^{len lambda} R_lambda, so
theta(R_mu = sum_lambda B[lambda][mu] L_{-lambda}) reads L_{-mu} =
sum_lambda (-1)^{len lambda + len mu} B[lambda][mu] R_lambda.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

from .linalg import SparseVector, Straighteners, Value, accumulate, accumulate_flat, pairs

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


def _highest_weight_rule(key):
    # Letters are modes; L_0 ends as Delta and L_{n>0} as 0.  Only act, the
    # reference, builds one, so the commands never load virasoro.
    from .virasoro import Straightener
    c, delta = key
    end = lambda x: None if x < 0 else delta if x == 0 else 0
    return Straightener(c, end=end, scalars=(delta,))


# One straightener per (c, Delta), each owning the memo of ``act``; the
# family keeps the last linalg.MAX_CONTEXTS.  The name is the one the
# benchmark's tracer reads cache_info() from.
_act_monomial = Straighteners(_highest_weight_rule)


def straightener(ctx: VermaContext):
    """The highest-weight virasoro.Straightener of V_{c,Delta}: letter x
    is L_x, so ``straightener(ctx).times(m, (-i_1, ..., -i_k))`` is L_m
    L_{-i_1} ... L_{-i_k}|Delta>."""
    return _act_monomial[ctx.c, ctx.delta]


class ContextTables(dict):
    """The raising rows and shapovalov's Gram matrices of one context, and
    its scale s = lcm(2 den c, den Delta)."""

    def __init__(self, key):
        super().__init__()
        self.scale = lcm(2 * key[0].denominator, key[1].denominator)


# One ContextTables per (c, Delta); the family keeps the last MAX_CONTEXTS.
_TABLES = Straighteners(ContextTables)


def context_tables(ctx: VermaContext) -> ContextTables:
    return _TABLES[ctx.c, ctx.delta]


def act(m: int, v: VermaVector) -> VermaVector:
    """The module action of L_m; maps level l to level l - m."""
    words = {tuple(-x for x in p): n for p, n in v.terms.items()}
    image = straightener(v.context).apply((m,), words)
    return VermaVector(v.context, {tuple(-x for x in w): n for w, n in image.items()})


# Lowering rows, shared by every context: _LOWERING[j, level][i] is
# L_{-j} L_{-mu}|Delta> for mu the i-th partition of the level, as one flat
# tuple (index at level + j, integer, index, integer, ...), or None until
# first asked for.
_LOWERING: dict[tuple[int, int], list] = {}


@lru_cache(maxsize=None)
def _splits(level: int) -> tuple[tuple[int, int], ...]:
    """(first part a, index of the rest at level - a) of each partition of
    a positive level."""
    return tuple(
        (mu[0], partition_index(level - mu[0])[mu[1:]]) for mu in enumerate_partitions(level)
    )


def _rows(store: dict, key: tuple[int, int]) -> list:
    rows = store.get(key)
    if rows is None:
        rows = store[key] = [None] * len(enumerate_partitions(key[1]))
    return rows


def _lowering(j: int, level: int, i: int) -> tuple:
    """Row i of _LOWERING[j, level], filled on first use.

    For mu = (a, rest) with a > j, L_{-j} L_{-a} = L_{-a} L_{-j} + (a - j)
    L_{-(a+j)}: the first term is row (j, level - a) of rest with each of
    its terms lowered by L_{-a}, the second a prepend.  No row is empty.
    """
    rows = _rows(_LOWERING, (j, level))
    row = rows[i]
    if row is not None:
        return row
    mu = enumerate_partitions(level)[i]
    index = partition_index(level + j)
    if not mu or mu[0] <= j:
        row = (index[(j,) + mu], 1)
    else:
        a, rest = _splits(level)[i]
        acc = {index[(a + j,) + mu[1:]]: a - j}
        upper = _rows(_LOWERING, (a, level - a + j))
        for t, n in pairs(_lowering(j, level - a, rest)):
            accumulate_flat(acc, upper[t] or _lowering(a, level - a + j, t), n)
        row = tuple(chain.from_iterable(acc.items()))
    rows[i] = row
    return row


def _raising(k: int, level: int, i: int, env: tuple) -> tuple:
    """Row i of tables[k, level] for k > 0, filled on first use: s L_k
    L_{-mu}|Delta> for mu the i-th partition of the level, flat like a
    lowering row over the indices at level - k.

    With mu = (a, rest), L_k L_{-a} rest = L_{-a} (L_k rest) + (k + a)
    L_{k-a} rest + delta_{k,a} (c/12) k (k^2 - 1) rest, where L_{k-a} is a
    raising row, L_0 = Delta + level - a, or a lowering row.  ``env`` is
    (tables, s, s Delta, s c).
    """
    tables, s, s_delta, s_c = env
    rows = _rows(tables, (k, level))
    row = rows[i]
    if row is not None:
        return row
    a, rest = _splits(level)[i]
    low = level - a
    acc: dict[int, int] = {}
    if low >= k:
        upper = _rows(_LOWERING, (a, low - k))
        for t, n in pairs(_rows(tables, (k, low))[rest] or _raising(k, low, rest, env)):
            accumulate_flat(acc, upper[t] or _lowering(a, low - k, t), n)
    if k > a:
        sub = _rows(tables, (k - a, low))[rest] or _raising(k - a, low, rest, env)
        accumulate_flat(acc, sub, k + a)
    elif k == a:
        # 2k s (Delta + low) plus s c k (k^2 - 1)/12, exact: s c is even.
        central = s_c * (k * (k * k - 1) // 6) // 2
        accumulate_flat(acc, (rest, 2 * k * (s_delta + s * low) + central), 1)
    else:
        accumulate_flat(acc, _lowering(a - k, low, rest), (k + a) * s)
    row = rows[i] = tuple(chain.from_iterable(acc.items()))
    return row


def scaled_images(m: int, level: int, ctx: VermaContext, start: int = 0) -> list:
    """s (L_m L_{-mu}|Delta>) for the mu of the level from index ``start``
    on, each as a list of (index at level - m, integer) pairs.

    Rows for m > 0 are read from context_tables(ctx)[m, level], rows for
    m < 0 are s times the context-free lowering rows, and L_0 is s (Delta
    + level).
    """
    tables = context_tables(ctx)
    s = tables.scale
    count = len(enumerate_partitions(level))
    if m < 0:
        rows = (_lowering(-m, level, i) for i in range(start, count))
        return [[(t, s * n) for t, n in pairs(row)] for row in rows]
    s_delta = s // ctx.delta.denominator * ctx.delta.numerator
    if m == 0:
        value = s_delta + s * level
        return [[(i, value)] if value else [] for i in range(start, count)]
    if m > level:
        return [[] for _ in range(start, count)]
    env = (tables, s, s_delta, s // ctx.c.denominator * ctx.c.numerator)
    return [list(pairs(_raising(m, level, i, env))) for i in range(start, count)]


@lru_cache(maxsize=None)
def reversed_monomial(partition: Partition) -> tuple[tuple[Partition, int], ...]:
    """Column mu of basis_change: R_mu = L_{-mu_k} ... L_{-mu_1}|Delta> as
    (lambda, integer) pairs, computed as L_{-mu_k} R_{mu_1..mu_{k-1}} from
    the lowering rows.
    """
    if not partition:
        return (((), 1),)
    j, level = partition[-1], sum(partition) - partition[-1]
    index, target = partition_index(level), enumerate_partitions(level + j)
    acc: dict[Partition, int] = {}
    for lam, coeff in reversed_monomial(partition[:-1]):
        row = _lowering(j, level, index[lam])
        accumulate(acc, ((target[t], n) for t, n in pairs(row)), coeff)
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
