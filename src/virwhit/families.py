"""What the universal modules offer beyond ``universal search`` and
``check-lemmas``: the dot action and its nilpotency indices, the
classified level-zero Whittaker subspaces and the explicit vector
families, the two printed n = 5 vectors among them.

Only ``universal family`` and library callers load this module.
"""

from __future__ import annotations

from fractions import Fraction

from .universal import (
    PseudoPartition,
    UniversalVector,
    act_universal,
    basis_vector,
    generating_vector,
    level0_words,
    validate_pseudo_partition,
)
from .whittaker import WhittakerType1N, WhittakerTypeR


class NotClassifiedError(ValueError):
    """The requested target order falls outside the classified ranges."""


def dot_act(m: int, v: UniversalVector) -> UniversalVector:
    """Shifted action (L_m - psi(L_m)) v for subalgebra generators.

    A generator outside the subalgebra raises IndexOutsideSubalgebraError.
    """
    scalar = v.whittaker_type.value(m)
    return act_universal(m, v).add_scaled(v, -scalar)


def nilpotency_index(m: int, v: UniversalVector) -> int:
    """Least k with the k-fold dot action of L_m annihilating v; past
    10,000 steps RuntimeError is raised."""
    if v.is_zero():
        raise ValueError("nilpotency index is defined for nonzero vectors")
    count = 0
    current = v
    while not current.is_zero():
        current = dot_act(m, current)
        count += 1
        if count > 10_000:
            raise RuntimeError("dot action did not nilpotate within 10,000 steps")
    return count


def dot_nilpotency_bound(m: int, word, typ: WhittakerTypeR, c: Fraction) -> int:
    """Upper bound 2 max(k_+ + 1, k_- + 1) for the nilpotency index on L_word |w>.

    k_- (resp. k_+) is the largest number of iterated commutators of L_m
    with the negative (resp. nonnegative) factor X of the word that still
    act nonzero on |w>.  For L_m in the subalgebra, ad(L_m)^j(X)|w> =
    (L_m - psi(L_m))^j X|w>, so k + 1 is the nilpotency index of the dot
    action on X|w>.  An m below the order raises IndexOutsideSubalgebraError,
    through dot_act.
    """
    word = validate_pseudo_partition(typ, word)
    factors = (tuple(x for x in word if x < 0), tuple(x for x in word if x >= 0))
    return 2 * max(nilpotency_index(m, basis_vector(typ, c, x)) for x in factors)


def restricted_type(psi: WhittakerTypeR, r_prime: int) -> WhittakerTypeR:
    """The type (psi(L_{r'}), ..., psi(L_s), 0, ..., 0) of order r'."""
    values = tuple(psi.value(k) for k in range(r_prime, 2 * r_prime + 1))
    return WhittakerTypeR(r_prime, values)


def whittaker_subspace_level0(
    psi: WhittakerTypeR, r_prime: int, c: Fraction, max_length: int = 5
) -> list[UniversalVector]:
    """Spanning vectors of the classified Whittaker subspace of order r'.

    For rank s in {2r-1, 2r}: r' = r yields span{|w>}, and orders
    s-r+2 <= r' <= s yield the level-zero words whose smallest letter is
    at least s-r'+1.  For s < 2r-1 the same span formula covers
    r <= r' <= s.  Every other r' raises NotClassifiedError.  The spanning
    set is restricted to words no longer than ``max_length``.
    """
    if not isinstance(psi, WhittakerTypeR):
        raise ValueError(f"the classified subspaces need an order type, got {psi}")
    r, s = psi.r, psi.rank
    high_rank = s >= 2 * r - 1  # the rank is at most 2r
    if high_rank and r_prime == r:
        return [generating_vector(psi, c)]
    if not ((s - r + 2 if high_rank else r) <= r_prime <= s):
        raise NotClassifiedError(f"order {r_prime} is not classified for rank {s}, order {r}")
    lowest = s - r_prime + 1
    words: list[PseudoPartition] = [()]
    words.extend(level0_words(lowest, r - 1, max_length))
    return [basis_vector(psi, c, w) for w in words]


def family_w_l_2(
    psi: WhittakerType1N, l: int, c: Fraction, alpha0: Fraction = Fraction(1)
) -> UniversalVector:
    """The n = 4 Whittaker family: sum_k alpha_k L_2^{l-k} L_3^{2k} |w>.

    alpha_k = -(l+1-k) / (4 k nu_4) * alpha_{k-1}; l = 0 degenerates to
    alpha_0 |w>.  It is family_w_l_2_n's formula at n = 4.
    """
    if psi.n != 4:
        raise ValueError("this family lives in the n = 4 module")
    return _family_w_l(psi, l, c, alpha0)


def family_w_l_2_n(
    psi: WhittakerType1N, l: int, c: Fraction, alpha0: Fraction = Fraction(1)
) -> UniversalVector:
    """The n > 4 generalization: sum_k alpha_k L_{n-2}^{l-k} L_{n-1}^{2k} |w>.

    alpha_{k+1} = -(n-3)(l-k) / (2 (n-2) (k+1) nu_n) * alpha_k.
    """
    if psi.n <= 4:
        raise ValueError("this family needs n > 4")
    return _family_w_l(psi, l, c, alpha0)


def _family_w_l(psi: WhittakerType1N, l: int, c, alpha0) -> UniversalVector:
    n = psi.n
    if l < 0:
        raise ValueError("l must be nonnegative")
    alpha = Fraction(alpha0)
    if not alpha:
        raise ValueError("alpha0 must be nonzero")
    terms: dict[PseudoPartition, Fraction] = {}
    for k in range(l + 1):
        if k:
            alpha *= Fraction(-(n - 3) * (l - k + 1)) / (2 * (n - 2) * k * psi.nun)
        terms[(n - 2,) * (l - k) + (n - 1,) * (2 * k)] = alpha
    return UniversalVector(psi, Fraction(c), terms)


def family_w_1_l_n(
    psi: WhittakerType1N, l: int, c: Fraction, alpha_l: Fraction = Fraction(1)
) -> UniversalVector:
    """The second n > 4 family: sum_{k=l}^{n-1} alpha_k L_k L_{n-1}^{k-l} |w>.

    alpha_{k+1} = -(k-1) / ((n-2)(k+1-l) nu_n) * alpha_k for l <= k <= n-3,
    with the separate terminal step
    alpha_{n-1} = -(n-3) / ((n-2)(n-l) nu_n) * alpha_{n-2}.
    """
    n = psi.n
    if n <= 4:
        raise ValueError("this family needs n > 4")
    if not 2 <= l <= n - 2:
        raise ValueError(f"l must satisfy 2 <= l <= {n - 2}")
    alpha_l = Fraction(alpha_l)
    if not alpha_l:
        raise ValueError("alpha_l must be nonzero")
    alphas: dict[int, Fraction] = {l: alpha_l}
    for k in range(l, n - 2):
        alphas[k + 1] = alphas[k] * Fraction(-(k - 1)) / ((n - 2) * (k + 1 - l) * psi.nun)
    alphas[n - 1] = alphas[n - 2] * Fraction(-(n - 3)) / ((n - 2) * (n - l) * psi.nun)
    terms: dict[PseudoPartition, Fraction] = {}
    for k in range(l, n):
        word = tuple(sorted((k,) + (n - 1,) * (k - l)))
        terms[word] = terms.get(word, Fraction(0)) + alphas[k]
    return UniversalVector(psi, Fraction(c), terms)


def example_n5(which: str, psi: WhittakerType1N, c: Fraction) -> UniversalVector:
    """The two explicit n = 5 Whittaker vectors, with mu = nu_5."""
    if psi.n != 5:
        raise ValueError("these vectors live in the n = 5 module")
    mu = psi.nun
    if which == "w_11_23":
        terms = {
            (2, 3): Fraction(1),
            (2, 4, 4): Fraction(-1) / (3 * mu),
            (3, 3, 4): Fraction(-1) / (3 * mu),
            (3, 4, 4, 4): Fraction(5) / (27 * mu**2),
            (4, 4, 4, 4, 4): Fraction(-2) / (81 * mu**3),
        }
    elif which == "w_2_2":
        terms = {
            (2, 2): Fraction(1),
            (2, 3, 4): Fraction(-2) / (3 * mu),
            (2, 4, 4, 4): Fraction(4) / (27 * mu**2),
            (3, 3, 4, 4): Fraction(1) / (9 * mu**2),
            (3, 4, 4, 4, 4): Fraction(-4) / (81 * mu**3),
            (4,): Fraction(-1, 3),
            (4, 4, 4, 4, 4, 4): Fraction(4) / (729 * mu**4),
        }
    else:
        raise ValueError(f"unknown example {which!r}; use w_11_23 or w_2_2")
    return UniversalVector(psi, Fraction(c), terms)
