"""Level-truncated dual forms on a Verma module: Gaiotto and BMT states.

A DualForm stores, for each level up to its cutoff, coefficients with
respect to one of the two dual bases: the "decreasing" side is dual to
the canonical monomials L_{-i_1}...L_{-i_k}|Delta> (i_1 >= ... >= i_k),
the "increasing" side is dual to the reversed monomials
L_{-1}^{m_1}...L_{-k}^{m_k}|Delta>.  Both sides label coefficients by the
partition (the exponent multiset); conversion between sides is a product
with the transpose of verma.basis_change or of its cached integer inverse,
level by level, and never a solve.

The module action on forms is (L_m f)(v) = f(L_{-m} v).  It is computed on
the decreasing side, where the value at L_{-mu}|Delta> reads the canonical
expansion of L_{-m} L_{-mu}|Delta> directly; increasing-side forms are
converted to the decreasing side and back.  A cutoff-N form
represents the exact restriction of a generally infinite object to levels
<= N, so every residual check is scoped to the levels where it is fully
determined: (L_k f - expected f) is complete on levels <= N - k.

Scalars are rational, so the anti-linearity of the forms coincides with
linearity and all checks are exact equalities.

Gaiotto states live on the decreasing side, BMT states on the increasing
side, where L_{-1} acts on the dual labels by a plain exponent shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .shapovalov import gram, solve
from .verma import (
    Partition,
    VermaContext,
    VermaVector,
    basis_change,
    basis_change_inverse,
    basis_vector,
    enumerate_partitions,
)
from .verma import act as verma_act
from .whittaker import (
    ResidualCheck,
    VerificationReport,
    WhittakerType,
    WhittakerType1N,
    WhittakerTypeR,
)

DECREASING = "decreasing"
INCREASING = "increasing"


class CutoffExceededError(ValueError):
    """An argument vector has terms above the form's cutoff."""


@dataclass(frozen=True)
class DualForm:
    """Finitely truncated functional on V_{c,Delta}.

    ``levels`` maps each level to a sparse map partition -> coefficient in
    the dual basis selected by ``basis_side``.  Missing levels are zero.
    """

    context: VermaContext
    cutoff: int
    basis_side: str
    levels: dict[int, dict[Partition, Fraction]]

    def level_terms(self, level: int) -> dict[Partition, Fraction]:
        return self.levels.get(level, {})

    def is_zero(self) -> bool:
        return all(not terms for terms in self.levels.values())


def _trimmed(levels: dict[int, dict[Partition, Fraction]]) -> dict:
    return {
        lvl: {p: c for p, c in terms.items() if c}
        for lvl, terms in sorted(levels.items())
        if any(terms.values())
    }


def zero_form(ctx: VermaContext, cutoff: int, basis_side: str = DECREASING) -> DualForm:
    return DualForm(ctx, cutoff, basis_side, {})


def form_combine(a: DualForm, b: DualForm, sb: Fraction = Fraction(1)) -> DualForm:
    """a + sb * b, truncated to the smaller cutoff."""
    if a.basis_side != b.basis_side or a.context != b.context:
        raise ValueError("forms live on different bases or contexts")
    cutoff = min(a.cutoff, b.cutoff)
    levels = {
        lvl: linalg.accumulate(dict(a.level_terms(lvl)), b.level_terms(lvl).items(), sb)
        for lvl in range(cutoff + 1)
    }
    return DualForm(a.context, cutoff, a.basis_side, _trimmed(levels))


def form_scale(f: DualForm, scalar: Fraction) -> DualForm:
    scalar = Fraction(scalar)
    if not scalar:
        return zero_form(f.context, f.cutoff, f.basis_side)
    return DualForm(
        f.context,
        f.cutoff,
        f.basis_side,
        {lvl: {p: c * scalar for p, c in t.items()} for lvl, t in f.levels.items()},
    )


def restrict_form(f: DualForm, cutoff: int) -> DualForm:
    cutoff = max(0, cutoff)
    return DualForm(
        f.context,
        cutoff,
        f.basis_side,
        {lvl: dict(t) for lvl, t in f.levels.items() if lvl <= cutoff},
    )


def _side_coords(side: str, component: VermaVector, level: int) -> list[Fraction]:
    """Coordinates of a homogeneous canonical vector in the side's monomials."""
    order = enumerate_partitions(level)
    canonical = [component.coefficient(p) for p in order]
    if side == DECREASING:
        return canonical
    inverse = basis_change_inverse(level)
    return [
        sum((a * b for a, b in zip(row, canonical) if b), Fraction(0))
        for row in inverse
    ]


def eval_form(f: DualForm, v: VermaVector) -> Fraction:
    """Pair the form with a module vector; linear, exact."""
    total = Fraction(0)
    for level in sorted(v.levels()):
        if level > f.cutoff:
            raise CutoffExceededError(
                f"argument has level {level} above cutoff {f.cutoff}"
            )
        coeffs = f.level_terms(level)
        component = v.level_component(level)
        if not coeffs:
            continue
        coords = _side_coords(f.basis_side, component, level)
        order = enumerate_partitions(level)
        for idx, part in enumerate(order):
            c = coeffs.get(part)
            if c and coords[idx]:
                total += c * coords[idx]
    return total


def convert_form(f: DualForm, side: str) -> DualForm:
    """Re-express the form on the other dual basis (contragredient change).

    f_inc = B^T f_dec with B = basis_change, and f_dec = (B^-1)^T f_inc.
    """
    if side == f.basis_side:
        return f
    levels: dict[int, dict[Partition, Fraction]] = {}
    for lvl in range(f.cutoff + 1):
        terms = f.level_terms(lvl)
        if not terms:
            continue
        order = enumerate_partitions(lvl)
        if side == INCREASING:
            matrix = basis_change(lvl, f.context)
        else:
            matrix = basis_change_inverse(lvl)
        vec = [terms.get(p, Fraction(0)) for p in order]
        out = [
            sum((row[col] * x for row, x in zip(matrix, vec) if x), Fraction(0))
            for col in range(len(order))
        ]
        levels[lvl] = {p: out[i] for i, p in enumerate(order) if out[i]}
    return DualForm(f.context, f.cutoff, side, _trimmed(levels))


def act_on_form(m: int, f: DualForm) -> DualForm:
    """(L_m f)(v) = f(L_{-m} v); the cutoff drops by max(m, 0).

    Computed on the decreasing side for either basis side.  For m above the cutoff every reachable evaluation lands outside the
    stored window and the result is the zero form of cutoff 0.
    """
    new_cutoff = max(0, f.cutoff - max(m, 0))
    f_dec = convert_form(f, DECREASING)
    levels: dict[int, dict[Partition, Fraction]] = {}
    for lvl in range(new_cutoff + 1):
        src = lvl + m
        coeffs = f_dec.level_terms(src) if 0 <= src else {}
        if not coeffs:
            continue
        component_terms: dict[Partition, Fraction] = {}
        for mu in enumerate_partitions(lvl):
            image = verma_act(-m, basis_vector(f.context, mu))
            value = sum(
                (coeffs[p] * c for p, c in image.terms.items() if p in coeffs),
                Fraction(0),
            )
            if value:
                component_terms[mu] = value
        if component_terms:
            levels[lvl] = component_terms
    return convert_form(
        DualForm(f.context, new_cutoff, DECREASING, levels), f.basis_side
    )


def _counts(partition: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in partition:
        out[part] = out.get(part, 0) + 1
    return out


def gaiotto_basic_form(
    psi: WhittakerTypeR,
    exponents: tuple[int, ...],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Basic Gaiotto form with the free low indices frozen to ``exponents``.

    ``exponents`` lists (n_{r-1}, ..., n_1).  The coefficient on the dual
    label with multiplicities n_i is the product of psi scalars
    mu_s^{n_s} ... mu_r^{n_r}; labels using any index above the rank, or
    whose low multiplicities differ from ``exponents``, get zero.
    """
    r, s = psi.r, psi.rank
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != r - 1:
        raise ValueError(f"expected {r - 1} exponents (n_{r - 1}..n_1)")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    required = {r - 1 - j: exponents[j] for j in range(r - 1)}  # part -> multiplicity
    levels: dict[int, dict[Partition, Fraction]] = {}
    for lvl in range(cutoff + 1):
        terms: dict[Partition, Fraction] = {}
        for partition in enumerate_partitions(lvl):
            counts = _counts(partition)
            if any(counts.get(i, 0) != required[i] for i in required):
                continue
            if any(part > s for part in counts):
                continue
            coeff = Fraction(1)
            for i in range(r, s + 1):
                n_i = counts.get(i, 0)
                if n_i:
                    coeff *= psi.mu[i - r] ** n_i
                if not coeff:
                    break
            if coeff:
                terms[partition] = coeff
        if terms:
            levels[lvl] = terms
    return DualForm(ctx, cutoff, DECREASING, levels)


def gaiotto_form(
    psi: WhittakerTypeR,
    coefficients: dict[tuple[int, ...], Fraction],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Finite combination of basic Gaiotto forms, truncated at the cutoff."""
    total = zero_form(ctx, cutoff, DECREASING)
    for exponents, coeff in sorted(coefficients.items()):
        coeff = Fraction(coeff)
        if not coeff:
            continue
        total = form_combine(
            total, gaiotto_basic_form(psi, exponents, cutoff, ctx), coeff
        )
    return total


def bmt_basic_form(
    psi: WhittakerType1N,
    exponents: tuple[int, ...],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Basic BMT form with middle multiplicities (m_2, ..., m_{n-1}) frozen.

    Lives on the increasing side; the coefficient on the dual label with
    multiplicities m_i is nu_1^{m_1} nu_n^{m_n}, and labels using any index
    above n get zero.
    """
    n = psi.n
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != n - 2:
        raise ValueError(f"expected {n - 2} exponents (m_2..m_{n - 1})")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    levels: dict[int, dict[Partition, Fraction]] = {}
    for lvl in range(cutoff + 1):
        terms: dict[Partition, Fraction] = {}
        for partition in enumerate_partitions(lvl):
            counts = _counts(partition)
            if any(counts.get(j, 0) != exponents[j - 2] for j in range(2, n)):
                continue
            if any(part > n for part in counts):
                continue
            coeff = psi.nu1 ** counts.get(1, 0) * psi.nun ** counts.get(n, 0)
            terms[partition] = coeff
        if terms:
            levels[lvl] = terms
    return DualForm(ctx, cutoff, INCREASING, levels)


def bmt_form(
    psi: WhittakerType1N,
    coefficients: dict[tuple[int, ...], Fraction],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Finite combination of basic BMT forms, truncated at the cutoff."""
    total = zero_form(ctx, cutoff, INCREASING)
    for exponents, coeff in sorted(coefficients.items()):
        coeff = Fraction(coeff)
        if not coeff:
            continue
        total = form_combine(total, bmt_basic_form(psi, exponents, cutoff, ctx), coeff)
    return total


def bmt_special_form(
    psi: WhittakerType1N,
    lambdas: tuple[Fraction, ...],
    cutoff: int,
    ctx: VermaContext,
) -> DualForm:
    """Geometric combination B_{m_2..m_{n-1}} = prod lambda_j^{m_j}.

    The support is truncated to tuples whose frozen part already fits the
    cutoff (sum j*m_j <= cutoff); 0^0 counts as 1.
    """
    n = psi.n
    lambdas = tuple(Fraction(v) for v in lambdas)
    if len(lambdas) != n - 2:
        raise ValueError(f"expected {n - 2} lambda values (lambda_2..lambda_{n - 1})")

    support: dict[tuple[int, ...], Fraction] = {}

    def fill(j: int, prefix: tuple[int, ...], weight: int, coeff: Fraction) -> None:
        if j == n:
            support[prefix] = coeff
            return
        max_m = (cutoff - weight) // j
        for m in range(max_m + 1):
            factor = lambdas[j - 2] ** m if m else Fraction(1)
            if factor:
                fill(j + 1, prefix + (m,), weight + j * m, coeff * factor)

    fill(2, (), 0, Fraction(1))
    return bmt_form(psi, support, cutoff, ctx)


def raise_indices(f: DualForm) -> VermaVector:
    """Module vector w with <L_{-lambda} Delta, w> = f(L_{-lambda} Delta).

    Solves gram(level) * b = (f on the canonical level basis) for every
    level up to the cutoff.  SingularGramError propagates when the form is
    degenerate at some level.
    """
    ctx = f.context
    f_dec = convert_form(f, DECREASING)
    terms: dict[Partition, Fraction] = {}
    for lvl in range(f.cutoff + 1):
        coeffs = f_dec.level_terms(lvl)
        if not coeffs:
            continue
        order = enumerate_partitions(lvl)
        rhs = [coeffs.get(p, Fraction(0)) for p in order]
        component = solve(gram(lvl, ctx), rhs)
        for idx, part in enumerate(order):
            if component[idx]:
                terms[part] = component[idx]
    return VermaVector(ctx, terms)


def _check_indices(typ: WhittakerType, cutoff: int) -> list[int]:
    if isinstance(typ, WhittakerTypeR):
        return list(range(typ.r, cutoff + 1))
    return ([1] if cutoff >= 1 else []) + list(range(typ.n, cutoff + 1))


def _first_nonzero(f: DualForm) -> tuple | None:
    for lvl in sorted(f.levels):
        terms = f.levels[lvl]
        for part in enumerate_partitions(lvl):
            if terms.get(part):
                return (lvl, part, terms[part])
    return None


def verify_whittaker_form(f: DualForm, typ: WhittakerType) -> VerificationReport:
    """Residuals of every Whittaker condition reachable inside the cutoff.

    For each checked k the residual (L_k f) - psi(L_k) f is restricted to
    levels <= cutoff - k, where the truncated data determines it fully.
    """
    checks = []
    for k in _check_indices(typ, f.cutoff):
        expected = typ.value(k)
        window = f.cutoff - k
        residual = form_combine(
            act_on_form(k, f), restrict_form(f, window), -expected
        )
        failure = _first_nonzero(residual)
        checks.append(
            ResidualCheck(
                operator_index=k,
                expected=expected,
                complete_levels=window,
                residual_zero=failure is None,
                first_failure=failure,
            )
        )
    return VerificationReport(tuple(checks))


def verify_whittaker_state(
    w: VermaVector, typ: WhittakerType, cutoff: int
) -> VerificationReport:
    """Whittaker conditions on a level-truncated module vector.

    The level-l component of (L_k - psi(L_k)) w is complete whenever
    l + k <= cutoff; only those components are asserted.
    """
    checks = []
    for k in _check_indices(typ, cutoff):
        expected = typ.value(k)
        failure = None
        for lvl in range(cutoff - k + 1):
            residual = verma_act(k, w.level_component(lvl + k)) - w.level_component(
                lvl
            ).scale(expected)
            if not residual.is_zero():
                part = min(residual.terms)
                failure = (lvl, part, residual.terms[part])
                break
        checks.append(
            ResidualCheck(
                operator_index=k,
                expected=expected,
                complete_levels=cutoff - k,
                residual_zero=failure is None,
                first_failure=failure,
            )
        )
    return VerificationReport(tuple(checks))


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
    unknowns: list[tuple[int, Partition]] = []
    for lvl in range(cutoff + 1):
        for part in enumerate_partitions(lvl):
            unknowns.append((lvl, part))
    index = {u: i for i, u in enumerate(unknowns)}

    # Each equation is f(L_{-k} v - psi(L_k) v) = 0 for a canonical basis
    # vector v; per (k, level) these span the same rows as the equations
    # taken at the side's own basis vectors, since basis_change is invertible.
    rows: list[list[Fraction]] = []
    for k in _check_indices(typ, cutoff):
        expected = typ.value(k)
        for lo in range(cutoff - k + 1):
            for mu in enumerate_partitions(lo):
                v = basis_vector(ctx, mu)
                residual = verma_act(-k, v) - v.scale(expected)
                row = [Fraction(0)] * len(unknowns)
                for lvl in residual.levels():
                    coords = _side_coords(side, residual.level_component(lvl), lvl)
                    for part, value in zip(enumerate_partitions(lvl), coords):
                        row[index[(lvl, part)]] += value
                if any(row):
                    rows.append(row)

    kernel = linalg.nullspace(rows, ncols=len(unknowns))
    basis = []
    for vec in kernel:
        levels: dict[int, dict[Partition, Fraction]] = {}
        for (lvl, part), value in zip(unknowns, vec):
            if value:
                levels.setdefault(lvl, {})[part] = value
        basis.append(DualForm(ctx, cutoff, side, levels))
    return len(kernel), basis


def _basic_mu_derivative(
    psi: WhittakerTypeR, wrt: int, cutoff: int, ctx: VermaContext
) -> DualForm:
    """d/d(mu_wrt) of the all-zero-exponent basic form, exponent rule.

    The basic coefficient on multiplicities (n_s..n_r) is the monomial
    prod mu_j^{n_j}; its derivative in mu_wrt is evaluated coefficient by
    coefficient as n * mu_wrt^(n-1) * (other factors), zero when n = 0.
    """
    r, s = psi.r, psi.rank
    levels: dict[int, dict[Partition, Fraction]] = {}
    for lvl in range(cutoff + 1):
        terms: dict[Partition, Fraction] = {}
        for partition in enumerate_partitions(lvl):
            counts = _counts(partition)
            if any(part < r or part > s for part in counts):
                continue
            n_wrt = counts.get(wrt, 0)
            if not n_wrt:
                continue
            coeff = Fraction(n_wrt) * psi.mu[wrt - r] ** (n_wrt - 1)
            for j in range(r, s + 1):
                if j == wrt or not coeff:
                    continue
                n_j = counts.get(j, 0)
                if n_j:
                    coeff *= psi.mu[j - r] ** n_j
            if coeff:
                terms[partition] = coeff
        if terms:
            levels[lvl] = terms
    return DualForm(ctx, cutoff, DECREASING, levels)


def _restrict_support(f: DualForm, min_part: int) -> DualForm:
    """Component of the form along labels whose parts all reach min_part."""
    levels = {
        lvl: {p: c for p, c in terms.items() if all(part >= min_part for part in p)}
        for lvl, terms in f.levels.items()
    }
    return DualForm(f.context, f.cutoff, f.basis_side, _trimmed(levels))


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
    derivatives = {
        l: _basic_mu_derivative(psi, l, cutoff, ctx) for l in range(r, s + 1)
    }
    checks = []

    rhs = form_scale(basic, ctx.delta)
    for l in range(r, s + 1):
        scalar = Fraction(l) * psi.mu[l - r]
        if scalar:
            rhs = form_combine(rhs, derivatives[l], scalar)
    residual = _restrict_support(
        form_combine(act_on_form(0, basic), rhs, Fraction(-1)), r
    )
    failure = _first_nonzero(residual)
    checks.append(
        ResidualCheck(
            operator_index=0,
            expected=ctx.delta,
            complete_levels=cutoff,
            residual_zero=failure is None,
            first_failure=failure,
        )
    )

    for i in range(1, r):
        rhs = zero_form(ctx, cutoff - i, DECREASING)
        for l in range(r, s - i + 1):
            scalar = Fraction(l - i) * psi.mu[i + l - r]
            if scalar:
                rhs = form_combine(rhs, restrict_form(derivatives[l], cutoff - i), scalar)
        residual = _restrict_support(
            form_combine(act_on_form(i, basic), rhs, Fraction(-1)), r
        )
        failure = _first_nonzero(residual)
        checks.append(
            ResidualCheck(
                operator_index=i,
                expected=Fraction(0),
                complete_levels=cutoff - i,
                residual_zero=failure is None,
                first_failure=failure,
            )
        )
    return VerificationReport(tuple(checks))
