"""Level-truncated dual forms on a Verma module: Gaiotto and BMT states.

A DualForm is a linalg.SparseVector: one flat map from partition labels
of level <= cutoff (a label's level is its sum) to coefficients with
respect to one of the two dual bases: the "decreasing" side is dual to
the canonical monomials L_{-i_1}...L_{-i_k}|Delta> (i_1 >= ... >= i_k),
the "increasing" side is dual to the reversed monomials
L_{-1}^{m_1}...L_{-k}^{m_k}|Delta>.  Both sides label coefficients by the
partition (the exponent multiset).  Context, cutoff and side name the
form's module, so only forms that agree on all three add; form_combine
truncates to the smaller cutoff first.  Conversion between sides is a
product with the transpose of the basis change B, or of B^-1 = D B D
(D = diag((-1)^{len lambda}), see verma), level by level: it reads only
the nonzero integer entries of the cached columns
verma.reversed_monomial(mu), and is never a solve.

The module action on forms is (L_m f)(v) = f(L_{-m} v), computed on the
decreasing side from the integer images of verma.scaled_images (s times
the Verma module's level-graded lowering and raising rows).  The
Whittaker conditions (L_k f)(v) = psi(L_k) f(v) at canonical basis
vectors v are one set of integer rows (_whittaker_rows), which
verify_whittaker_form pairs with f and whittaker_form_nullspace solves.
A cutoff-N form represents the exact restriction of a generally infinite
object to levels <= N, so every residual check is scoped to the levels
where it is fully determined: (L_k f - expected f) is complete on levels
<= N - k.

Scalars are rational, so the anti-linearity of the forms coincides with
linearity and all checks are exact equalities.

Gaiotto states live on the decreasing side, BMT states on the increasing
side, where L_{-1} acts on the dual labels by a plain exponent shift.
Every Gaiotto and BMT form, and the mu-derivatives of the basic Gaiotto
form, is one monomial form: a label whose parts all have a weight or are
frozen gets a coefficient chosen by its frozen multiplicities times one
weight per remaining part; other labels get zero.

This module holds what gaiotto, bmt and verify run: the builders,
convert_form, raise_indices and the two checks.  The rest (act_on_form,
form_combine, restrict_form, zero_form, eval_form, whittaker_form_nullspace,
check_L0_Li_on_basic, the basic-form helpers and CutoffExceededError)
lives in ``formops``, which only check-l0-li and library callers load.
act_on_form alone also resolves here, on first access: formops calls it
as ``forms.act_on_form``, the name the benchmark's tracer wraps.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, prod

from . import _resolver, linalg
from .shapovalov import gram, solve
from .verma import (
    Partition,
    VermaContext,
    VermaVector,
    context_tables,
    enumerate_partitions,
    reversed_monomial,
    scaled_images,
)
from .whittaker import (
    VerificationReport,
    WhittakerType,
    WhittakerType1N,
    WhittakerTypeR,
    subalgebra_indices,
)

DECREASING = "decreasing"
INCREASING = "increasing"

__getattr__ = _resolver(globals(), formops="act_on_form")


class DualForm(linalg.SparseVector):
    """Finitely truncated functional on V_{c,Delta}.

    ``terms`` maps partitions of level <= cutoff to their nonzero
    coefficients in the dual basis selected by ``basis_side``.
    """

    context: VermaContext
    cutoff: int
    basis_side: str
    terms: dict[Partition, Fraction]


def _cleared(terms: dict[Partition, Fraction]) -> tuple[dict[Partition, int], int]:
    """The terms over one common denominator: (integer terms, denominator)."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {p: c.numerator * (den // c.denominator) for p, c in terms.items()}, den


def _flip(terms: dict[Partition, Fraction]) -> dict[Partition, Fraction]:
    """D terms, with D = diag((-1)^{len lambda}); B^-1 = D B D."""
    return {p: -c if len(p) % 2 else c for p, c in terms.items()}


def convert_form(f: DualForm, side: str) -> DualForm:
    """Re-express the form on the other dual basis (contragredient change).

    f_inc = B^T f_dec with B = basis_change, and f_dec = (B^-1)^T f_inc =
    D B^T D f_inc.  Entry mu of B^T g reads the nonzero entries of column
    mu of B, verma.reversed_monomial(mu).
    """
    if side == f.basis_side:
        return f
    # Over one common denominator every column sum is an integer sum.
    ints, den = _cleared(_flip(f.terms) if side == DECREASING else f.terms)
    out = {}
    for lvl in sorted({sum(p) for p in ints}):
        for mu in enumerate_partitions(lvl):
            value = sum(ints[lam] * b for lam, b in reversed_monomial(mu) if lam in ints)
            if value:
                out[mu] = Fraction(value, den)
    return DualForm(f.context, f.cutoff, side, _flip(out) if side == DECREASING else out)


def _whittaker_rows(typ: WhittakerType, ctx: VermaContext, cutoff: int):
    """The Whittaker conditions that a cutoff-N form determines, as integer rows.

    Yields (k, mu, row) by k, then level <= N - k, then partition mu; row
    is s den psi(L_k) times L_{-k} L_{-mu}|Delta> - psi(L_k) L_{-mu}|Delta>
    over canonical labels, so its pairing with a decreasing-side form f is
    s den psi(L_k) ((L_k f) - psi(L_k) f)(L_{-mu}|Delta>).
    """
    s = context_tables(ctx).scale
    for k in subalgebra_indices(typ, cutoff):
        expected = typ.value(k)
        for lvl in range(cutoff - k + 1):
            upper = enumerate_partitions(lvl + k)
            for mu, image in zip(enumerate_partitions(lvl), scaled_images(-k, lvl, ctx)):
                row = {upper[t]: a * expected.denominator for t, a in image}
                if expected:
                    row[mu] = -expected.numerator * s
                yield k, mu, row


def _monomial_form(ctx, cutoff, side, weights, frozen, coefficients) -> DualForm:
    """coefficients[m_frozen] * prod_j weights[j]^{m_j} on the labels of level <= cutoff.

    m_j counts the parts j of a label and m_frozen lists the counts of the
    parts in ``frozen``; a label with a part in neither gets zero; 0^0 = 1.
    """
    allowed = weights.keys() | set(frozen)
    terms: dict[Partition, Fraction] = {}
    for lvl in range(cutoff + 1):
        for label in enumerate_partitions(lvl):
            counts = Counter(label)
            coeff = coefficients.get(tuple(counts[j] for j in frozen))
            if coeff and counts.keys() <= allowed:
                coeff *= prod(weights[j] ** m for j, m in counts.items() if j in weights)
                if coeff:
                    terms[label] = coeff
    return DualForm(ctx, cutoff, side, terms)


def _exponent_table(coefficients, length: int, names: str) -> dict[tuple[int, ...], Fraction]:
    """The nonzero coefficients by exponent tuple, sorted, every tuple
    checked, zeros too: the checks come first, so the sort compares ints."""
    table: dict[tuple[int, ...], Fraction] = {}
    for exponents, coeff in coefficients.items():
        exponents = tuple(exponents)
        if not all(isinstance(e, int) for e in exponents):
            raise ValueError(f"exponents must be integers, got {exponents}")
        if len(exponents) != length:
            raise ValueError(f"expected {length} exponents ({names})")
        if any(e < 0 for e in exponents):
            raise ValueError("exponents must be nonnegative")
        if coeff:
            table[exponents] = table.get(exponents, 0) + Fraction(coeff)
    return dict(sorted(table.items()))


def gaiotto_form(
    psi: WhittakerTypeR,
    coefficients: dict[tuple[int, ...], Fraction],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Finite combination of basic Gaiotto forms, truncated at the cutoff.

    The basic form of exponents (n_{r-1}, ..., n_1) is mu_r^{n_r} ...
    mu_s^{n_s} on the labels with those low multiplicities and no index
    above the rank s, and zero elsewhere.
    """
    r = psi.r
    table = _exponent_table(coefficients, r - 1, f"n_{r - 1}..n_1")
    weights = {j: psi.mu[j - r] for j in range(r, psi.rank + 1)}
    return _monomial_form(ctx, cutoff, DECREASING, weights, range(r - 1, 0, -1), table)


def bmt_form(
    psi: WhittakerType1N,
    coefficients: dict[tuple[int, ...], Fraction],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Finite combination of basic BMT forms, truncated at the cutoff.

    The basic form of exponents (m_2, ..., m_{n-1}) lives on the increasing
    side: nu_1^{m_1} nu_n^{m_n} on the labels with those middle
    multiplicities and no index above n, and zero elsewhere.
    """
    n = psi.n
    table = _exponent_table(coefficients, n - 2, f"m_2..m_{n - 1}")
    weights = {1: psi.nu1, n: psi.nun}
    return _monomial_form(ctx, cutoff, INCREASING, weights, range(2, n), table)


def bmt_special_form(
    psi: WhittakerType1N,
    lambdas: tuple[Fraction, ...],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Geometric combination B_{m_2..m_{n-1}} = prod lambda_j^{m_j}, 0^0 = 1.

    That is the single monomial form nu_1^{m_1} lambda_2^{m_2} ...
    lambda_{n-1}^{m_{n-1}} nu_n^{m_n}, with nothing frozen.
    """
    n = psi.n
    lambdas = tuple(Fraction(v) for v in lambdas)
    if len(lambdas) != n - 2:
        raise ValueError(f"expected {n - 2} lambda values (lambda_2..lambda_{n - 1})")
    weights = {1: psi.nu1, **dict(enumerate(lambdas, start=2)), n: psi.nun}
    return _monomial_form(ctx, cutoff, INCREASING, weights, (), {(): Fraction(1)})


def raise_indices(f: DualForm) -> VermaVector:
    """Module vector w with <L_{-lambda} Delta, w> = f(L_{-lambda} Delta).

    Solves gram(level) * b = (f on the canonical level basis) for every
    level up to the cutoff.  SingularGramError, naming the level and its
    Kac value, propagates from the first such level where G is degenerate.
    """
    ctx = f.context
    coeffs = convert_form(f, DECREASING).terms
    terms: dict[Partition, Fraction] = {}
    for lvl in sorted({sum(p) for p in coeffs}):
        order = enumerate_partitions(lvl)
        rhs = [coeffs.get(p, Fraction(0)) for p in order]
        for part, value in zip(order, solve(gram(lvl, ctx), rhs)):
            if value:
                terms[part] = value
    return VermaVector(ctx, terms)


def verify_whittaker_form(f: DualForm, typ: WhittakerType) -> VerificationReport:
    """Residuals of every Whittaker condition reachable inside the cutoff.

    For each checked k the residual (L_k f) - psi(L_k) f is restricted to
    levels <= cutoff - k, where the truncated data determines it fully.
    The first nonzero row of each k is its least label in partition_key
    order, reported as on f's side: entry mu of either conversion reads
    only labels up to mu in that order, mu itself with coefficient 1 (B
    is unitriangular).
    """
    ints, den = _cleared(convert_form(f, DECREASING).terms)
    scale = den * context_tables(f.context).scale
    failures = {}
    for k, mu, row in _whittaker_rows(typ, f.context, f.cutoff):
        if k not in failures:
            value = sum(ints[p] * a for p, a in row.items() if p in ints)
            if value:
                failures[k] = (sum(mu), mu, Fraction(value, scale * typ.value(k).denominator))
    return VerificationReport.build(typ, subalgebra_indices(typ, f.cutoff), failures, f.cutoff)


def verify_whittaker_state(
    w: VermaVector, typ: WhittakerType, cutoff: int
) -> VerificationReport:
    """Whittaker conditions on a level-truncated module vector.

    The level-l component of (L_k - psi(L_k)) w is complete whenever
    l + k <= cutoff; only those components are asserted.  With w_l =
    ints[l] / dens[l], s L_k w_{l+k} is ints[l + k] times the integer
    images of verma.scaled_images, cross-multiplied against psi(L_k) w_l; a
    failing k reports, from the same integers, its lowest failing level
    and there its least wrong label in partition_key order.
    """
    s = context_tables(w.context).scale
    ints, dens = [], []
    for lvl in range(cutoff + 1):
        cleared, den = _cleared(w.level_component(lvl).terms)
        ints.append([cleared.get(p, 0) for p in enumerate_partitions(lvl)])
        dens.append(den)
    indices = subalgebra_indices(typ, cutoff)
    failures = {}
    for k in indices:
        expected = typ.value(k)
        for lvl in range(cutoff - k + 1):
            image = [0] * len(ints[lvl])
            for x, pairs in zip(ints[lvl + k], scaled_images(k, lvl + k, w.context)):
                if x:
                    for t, a in pairs:
                        image[t] += x * a
            # image / (s dens[lvl + k]) against psi(L_k) ints[lvl] / dens[lvl].
            left = dens[lvl] * expected.denominator
            right = expected.numerator * s * dens[lvl + k]
            wrong = [t for t, (a, b) in enumerate(zip(image, ints[lvl])) if a * left != b * right]
            if wrong:  # the least label: enumerate_partitions is in partition_key order
                t = wrong[0]
                coeff = Fraction(image[t] * left - ints[lvl][t] * right, s * dens[lvl + k] * left)
                failures[k] = (lvl, enumerate_partitions(lvl)[t], coeff)
                break
    return VerificationReport.build(typ, indices, failures, cutoff)
