"""The per-family form builders that preceded ``forms._monomial_form``,
and the Whittaker checks that preceded the integer state check and the
one-conversion form check, kept as independent oracles for them.

Each builder enumerates the labels up to the cutoff on its own and writes
its own coefficient rule; a combination is the sum of one basic form per
exponent tuple, and the special BMT form sums one basic form per support
tuple.  They share no code with the one-pass builder apart from the
DualForm type and its addition.

The checks form every residual as a sparse vector: the state check with
the Fraction module action ``verma.act``, the form check with
``act_on_form``, which converts an increasing-side form to the decreasing
side and back for every L_k.
"""

from collections import Counter
from fractions import Fraction

from virwhit.formops import act_on_form, form_combine, restrict_form, zero_form
from virwhit.forms import DECREASING, INCREASING, DualForm
from virwhit.verma import VermaVector, act, enumerate_partitions, partition_key
from virwhit.whittaker import ResidualCheck, VerificationReport, subalgebra_indices


def reference_gaiotto_basic_form(psi, exponents, cutoff, ctx):
    """The product mu_r^{n_r}..mu_s^{n_s} on labels whose n_{r-1}..n_1 equal ``exponents``."""
    r, s = psi.r, psi.rank
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != r - 1:
        raise ValueError(f"expected {r - 1} exponents (n_{r - 1}..n_1)")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    required = {r - 1 - j: exponents[j] for j in range(r - 1)}  # part -> multiplicity
    terms = {}
    for lvl in range(cutoff + 1):
        for partition in enumerate_partitions(lvl):
            counts = Counter(partition)
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
    return DualForm(ctx, cutoff, DECREASING, terms)


def reference_bmt_basic_form(psi, exponents, cutoff, ctx):
    """nu_1^{m_1} nu_n^{m_n} on labels whose m_2..m_{n-1} equal ``exponents``."""
    n = psi.n
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != n - 2:
        raise ValueError(f"expected {n - 2} exponents (m_2..m_{n - 1})")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    terms = {}
    for lvl in range(cutoff + 1):
        for partition in enumerate_partitions(lvl):
            counts = Counter(partition)
            if any(counts.get(j, 0) != exponents[j - 2] for j in range(2, n)):
                continue
            if any(part > n for part in counts):
                continue
            terms[partition] = psi.nu1 ** counts.get(1, 0) * psi.nun ** counts.get(n, 0)
    return DualForm(ctx, cutoff, INCREASING, terms)


def reference_combination(basic, side, psi, coefficients, cutoff, ctx):
    """The sum of coeff * basic(psi, exponents, cutoff, ctx), in exponent order."""
    total = zero_form(ctx, cutoff, side)
    for exponents, coeff in sorted(coefficients.items()):
        if coeff:
            form = basic(psi, exponents, cutoff, ctx)
            total = form_combine(total, form, Fraction(coeff))
    return total


def reference_bmt_special_form(psi, lambdas, cutoff, ctx):
    """The BMT combination with B_{m_2..m_{n-1}} = prod lambda_j^{m_j}, 0^0 = 1."""
    n = psi.n
    lambdas = tuple(Fraction(v) for v in lambdas)
    if len(lambdas) != n - 2:
        raise ValueError(f"expected {n - 2} lambda values (lambda_2..lambda_{n - 1})")

    support = {}

    def fill(j, prefix, weight, coeff):
        if j == n:
            support[prefix] = coeff
            return
        for m in range((cutoff - weight) // j + 1):
            factor = lambdas[j - 2] ** m if m else Fraction(1)
            if factor:
                fill(j + 1, prefix + (m,), weight + j * m, coeff * factor)

    fill(2, (), 0, Fraction(1))
    return reference_combination(
        reference_bmt_basic_form, INCREASING, psi, support, cutoff, ctx
    )


def reference_mu_derivative(psi, wrt, cutoff, ctx):
    """d/d(mu_wrt) of the all-zero-exponent basic Gaiotto form, by the exponent rule."""
    r, s = psi.r, psi.rank
    terms = {}
    for lvl in range(cutoff + 1):
        for partition in enumerate_partitions(lvl):
            counts = Counter(partition)
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
    return DualForm(ctx, cutoff, DECREASING, terms)


def _first_nonzero(terms):
    if not terms:
        return None
    part = min(terms, key=partition_key)
    return (sum(part), part, terms[part])


def reference_verify_whittaker_form(f, typ):
    """(L_k f) - psi(L_k) f on levels <= cutoff - k, for every checked k."""
    checks = []
    for k in subalgebra_indices(typ, f.cutoff):
        expected = typ.value(k)
        window = f.cutoff - k
        residual = form_combine(act_on_form(k, f), restrict_form(f, window), -expected)
        checks.append(ResidualCheck(k, expected, window, _first_nonzero(residual.terms)))
    return VerificationReport(tuple(checks))


def reference_verify_whittaker_state(w, typ, cutoff):
    """The level-l component of (L_k - psi(L_k)) w for every l + k <= cutoff."""
    by_level = {}
    for p, coeff in w.terms.items():
        by_level.setdefault(sum(p), {})[p] = coeff
    component = [VermaVector(w.context, by_level.get(lvl, {})) for lvl in range(cutoff + 1)]
    checks = []
    for k in subalgebra_indices(typ, cutoff):
        expected = typ.value(k)
        failure = None
        for lvl in range(cutoff - k + 1):
            residual = act(k, component[lvl + k]).add_scaled(component[lvl], -expected)
            failure = _first_nonzero(residual.terms)
            if failure is not None:
                break
        checks.append(ResidualCheck(k, expected, cutoff - k, failure))
    return VerificationReport(tuple(checks))
