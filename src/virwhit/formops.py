"""What dual forms offer beyond the state pipeline of gaiotto, bmt and
verify: the module action on forms, form arithmetic, evaluation on
vectors, the nullspace of the truncated Whittaker conditions and the
closed-form L_0 and L_i check of check-l0-li.

Only check-l0-li and library callers load this module.  It calls
``forms.act_on_form``, ``forms.convert_form`` and ``forms.gaiotto_form``
by those names, so that a rebinding there (the benchmark's tracer wraps
all three) reaches these calls too.
"""

from __future__ import annotations

from fractions import Fraction

from . import forms, linalg
from .forms import DECREASING, INCREASING, DualForm, _cleared, _flip, _monomial_form
from .forms import _whittaker_rows
from .verma import Partition, VermaContext, VermaVector, context_tables, enumerate_partitions
from .verma import partition_key, reversed_monomial, scaled_images
from .whittaker import ResidualCheck, VerificationReport, WhittakerType, WhittakerType1N
from .whittaker import WhittakerTypeR


class CutoffExceededError(ValueError):
    """An argument vector has terms above the form's cutoff."""


def zero_form(ctx: VermaContext, cutoff: int, basis_side: str = DECREASING) -> DualForm:
    return DualForm(ctx, cutoff, basis_side, {})


def form_combine(a: DualForm, b: DualForm, sb: Fraction = Fraction(1)) -> DualForm:
    """a + sb * b, truncated to the smaller cutoff."""
    cutoff = min(a.cutoff, b.cutoff)
    return restrict_form(a, cutoff).add_scaled(restrict_form(b, cutoff), sb)


def restrict_form(f: DualForm, cutoff: int) -> DualForm:
    cutoff = max(0, cutoff)
    if cutoff == f.cutoff:
        return f
    terms = {p: c for p, c in f.terms.items() if sum(p) <= cutoff}
    return DualForm(f.context, cutoff, f.basis_side, terms)


def _side_coords(side: str, terms: dict[Partition, Fraction]) -> dict[Partition, Fraction]:
    """Coordinates of a sparse canonical vector in the side's monomials.

    On the increasing side these are B^-1 v = D B D v, one scatter of the
    reversed-monomial column of every label in D v.
    """
    if side == DECREASING:
        return terms
    acc: dict[Partition, Fraction] = {}
    for mu, coeff in _flip(terms).items():
        linalg.accumulate(acc, reversed_monomial(mu), coeff)
    return _flip(acc)


def eval_form(f: DualForm, v: VermaVector) -> Fraction:
    """Pair the form with a vector of its module; linear, exact."""
    if v.context != f.context:
        raise linalg.ContextMismatchError(f"form on {f.context}, vector of {v.context}")
    top = max(v.levels(), default=0)
    if top > f.cutoff:
        raise CutoffExceededError(f"argument has level {top} above cutoff {f.cutoff}")
    return sum(
        (
            f.terms.get(p, 0) * value
            for p, value in _side_coords(f.basis_side, v.terms).items()
        ),
        Fraction(0),
    )


def act_on_form(m: int, f: DualForm) -> DualForm:
    """(L_m f)(v) = f(L_{-m} v); the cutoff drops by max(m, 0).

    Computed on the decreasing side for either basis side, from the
    integer images of L_{-m}.  For m above the cutoff every reachable
    evaluation lands outside the stored window and the result is the zero
    form of cutoff 0.
    """
    ctx = f.context
    ints, den = _cleared(forms.convert_form(f, DECREASING).terms)
    scale = den * context_tables(ctx).scale
    sources = {sum(p) for p in ints}
    new_cutoff = max(0, f.cutoff - max(m, 0))
    terms: dict[Partition, Fraction] = {}
    for lvl in range(new_cutoff + 1):
        if lvl + m not in sources:
            continue
        values = [ints.get(p, 0) for p in enumerate_partitions(lvl + m)]
        for mu, image in zip(enumerate_partitions(lvl), scaled_images(-m, lvl, ctx)):
            value = sum(values[t] * a for t, a in image)
            if value:
                terms[mu] = Fraction(value, scale)
    return forms.convert_form(DualForm(ctx, new_cutoff, DECREASING, terms), f.basis_side)


def gaiotto_basic_form(
    psi: WhittakerTypeR,
    exponents: tuple[int, ...],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Basic Gaiotto form with the low multiplicities frozen to ``exponents``."""
    return forms.gaiotto_form(psi, {tuple(exponents): Fraction(1)}, cutoff, ctx)


def bmt_basic_form(
    psi: WhittakerType1N,
    exponents: tuple[int, ...],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Basic BMT form with middle multiplicities (m_2, ..., m_{n-1}) frozen."""
    return forms.bmt_form(psi, {tuple(exponents): Fraction(1)}, cutoff, ctx)


def _first_nonzero(terms: dict[Partition, Fraction]) -> tuple | None:
    if not terms:
        return None
    part = min(terms, key=partition_key)
    return (sum(part), part, terms[part])


def whittaker_form_nullspace(
    typ: WhittakerType, ctx: VermaContext, cutoff: int
) -> tuple[int, list[DualForm]]:
    """Exact solution space of the truncated Whittaker-condition system.

    Unknowns are all level-wise coefficients of a form truncated at the
    cutoff (on the side natural to the type); equations are every residual
    component that the truncation determines.  Returns the nullspace
    dimension and a deterministic basis of forms.
    """
    side = DECREASING if isinstance(typ, WhittakerTypeR) else INCREASING
    unknowns = [p for lvl in range(cutoff + 1) for p in enumerate_partitions(lvl)]
    index = {p: i for i, p in enumerate(unknowns)}

    # Each equation is f(L_{-k} v - psi(L_k) v) = 0 for a canonical basis
    # vector v; per (k, level) these span the same rows as the equations
    # taken at the side's own basis vectors, since basis_change is invertible.
    rows = [
        {index[p]: value for p, value in _side_coords(side, row).items()}
        for _, _, row in _whittaker_rows(typ, ctx, cutoff)
    ]

    kernel = linalg.nullspace(rows, ncols=len(unknowns))
    terms = ({unknowns[j]: v for j, v in vec.items()} for vec in kernel)
    return len(kernel), [DualForm(ctx, cutoff, side, t) for t in terms]


def _mu_derivative(psi: WhittakerTypeR, l: int, cutoff: int, ctx: VermaContext) -> DualForm:
    """d/d(mu_l) of the all-zero-exponent basic Gaiotto form f.

    On a label with k parts l it is k mu_l^{k-1} times the other factors,
    that is k times f on the label less one part l: the monomial form with
    the part l frozen as well.
    """
    r = psi.r
    weights = {j: psi.mu[j - r] for j in range(r, psi.rank + 1) if j != l}
    zeros = (0,) * (r - 1)
    table = {(k, *zeros): k * psi.mu[l - r] ** (k - 1) for k in range(1, cutoff // l + 1)}
    return _monomial_form(ctx, cutoff, DECREASING, weights, (l, *range(r - 1, 0, -1)), table)


def check_L0_Li_on_basic(
    psi: WhittakerTypeR, cutoff: int, ctx: VermaContext
) -> VerificationReport:
    """Closed-form action of L_0 and of L_i (i < r) on the simplest state.

    Verifies, coefficient by coefficient up to the cutoff, that

        L_0 f = (Delta + sum_l l mu_l d/dmu_l) f
        L_i f = sum_{l=r}^{s-i} (l - i) mu_{i+l} d/dmu_l f

    for the basic form f with all free exponents zero, evaluating the
    derivatives through the exponent rule on concrete rational mu values.
    The comparison runs on the family's own labels (no parts below r):
    that component is exact because every multi-merge correction raises an
    index past 2r >= rank, where the form vanishes.  Components along
    labels with smaller parts belong to the other basic families and are
    not covered by these identities.
    """
    r, s = psi.r, psi.rank
    basic = gaiotto_basic_form(psi, (0,) * (r - 1), cutoff, ctx)
    derivatives = {l: _mu_derivative(psi, l, cutoff, ctx) for l in range(r, s + 1)}
    checks = []
    for i in range(r):
        expected = ctx.delta if i == 0 else Fraction(0)
        rhs = basic.scale(expected)
        for l in range(r, s - i + 1):
            rhs = form_combine(rhs, derivatives[l], (l - i) * psi.mu[i + l - r])
        # form_combine truncates to the complete window, cutoff - i.
        residual = form_combine(forms.act_on_form(i, basic), rhs, Fraction(-1))
        family = {p: c for p, c in residual.terms.items() if all(part >= r for part in p)}
        checks.append(
            ResidualCheck(
                operator_index=i,
                expected=expected,
                complete_levels=cutoff - i,
                first_failure=_first_nonzero(family),
            )
        )
    return VerificationReport(tuple(checks))
