"""Universal Whittaker modules: exact generator action and vector families.

Basis vectors are labeled by pseudo-partitions: non-decreasing tuples of
generator indices drawn from the letters that are NOT in the Whittaker
subalgebra (for an order-r type: all integers below r; for a pair type:
all integers below n except 1).  The tuple (a_1 <= ... <= a_k) stands for
L_{a_1} ... L_{a_k} |w>, with |w> the generating Whittaker vector; the
empty tuple is |w> itself.

The module is induced from the Whittaker subalgebra p with the end rule
chi = psi: a letter of p that reaches |w> becomes psi(L_k).  The action
is virasoro.Straightener with that rule, one per (type, central charge);
a word is applied by folding its letters in from the right, and
``search_whittaker`` and ``lemma_clauses`` read the straightener's
integer images.  The letter order is the index order, except that for a
pair type letter 1 ranks just below n, so that every letter of p ranks
above the basis letters.

Statistics of a pseudo-partition: level = minus the sum of its negative
letters, length = the number of nonnegative letters, and l-value = the
smallest nonnegative letter (the subalgebra order when there is none).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import pos

from . import linalg
from .linalg import SparseVector, Value, accumulate
from .virasoro import Straightener, Straighteners
from .whittaker import (
    VerificationReport,
    WhittakerType,
    WhittakerType1N,
    WhittakerTypeR,
    subalgebra_indices,
)

PseudoPartition = tuple[int, ...]


class NotClassifiedError(ValueError):
    """The requested target order falls outside the classified ranges."""


def pp_level(word: PseudoPartition) -> int:
    return -sum(word[: bisect_left(word, 0)])


def pp_length(word: PseudoPartition) -> int:
    return len(word) - bisect_left(word, 0)


def word_key(word: PseudoPartition) -> tuple:
    """Sort key of the universal side's label order: level, length, then the word."""
    return pp_level(word), pp_length(word), word


def pp_l_value(word: PseudoPartition, order: int) -> int:
    nonneg = [x for x in word if x >= 0]
    return min(nonneg) if nonneg else order


def pp_counts(word: PseudoPartition) -> list[tuple[int, int]]:
    """(index, multiplicity) pairs, ascending by index."""
    out: list[tuple[int, int]] = []
    for letter in word:
        if out and out[-1][0] == letter:
            out[-1] = (letter, out[-1][1] + 1)
        else:
            out.append((letter, 1))
    return out


def validate_pseudo_partition(typ: WhittakerType, word) -> PseudoPartition:
    word = tuple(word)
    if list(word) != sorted(word):
        raise ValueError(f"letters must be non-decreasing: {word}")
    for letter in word:
        if typ.in_subalgebra(letter):
            raise ValueError(f"letter {letter} is not a basis letter for {typ}")
    return word


class UniversalVector(SparseVector):
    """Sparse vector in a universal Whittaker module."""

    whittaker_type: WhittakerType
    central_charge: Fraction
    terms: dict[PseudoPartition, Fraction] = {}

    def max_level(self) -> int:
        return max((pp_level(w) for w in self.terms), default=0)

    def max_length(self) -> int:
        return max((pp_length(w) for w in self.terms), default=0)


def generating_vector(typ: WhittakerType, c: Fraction) -> UniversalVector:
    """|w>, the cyclic Whittaker vector of the universal module."""
    return UniversalVector(typ, Fraction(c), {(): Fraction(1)})


def basis_vector(typ: WhittakerType, c: Fraction, word) -> UniversalVector:
    return UniversalVector(
        typ, Fraction(c), {validate_pseudo_partition(typ, word): Fraction(1)}
    )


def _psi_rule(key) -> Straightener:
    # Letters are modes and end as psi; for pair types letter 1 ranks just
    # below n, above the basis letters 2..n-1.
    typ, c = key
    rank = pos
    if isinstance(typ, WhittakerType1N):
        n = typ.n
        rank = lambda x: 2 * n - 1 if x == 1 else 2 * x
    end = lambda x: typ.value(x) if typ.in_subalgebra(x) else None
    scalars = [typ.value(k) for k in subalgebra_indices(typ, typ.top)]
    return Straightener(c, rank=rank, end=end, scalars=scalars)


# One straightener per (type, central charge).
_REWRITERS = Straighteners(_psi_rule)


def apply_word(word, v: UniversalVector) -> UniversalVector:
    """Left-multiply by L_{word[0]} ... L_{word[-1]}, exactly."""
    terms = _REWRITERS[v.whittaker_type, v.central_charge].apply(tuple(word), v.terms)
    return UniversalVector(v.whittaker_type, v.central_charge, terms)


def act_universal(m: int, v: UniversalVector) -> UniversalVector:
    """The exact, untruncated action of L_m."""
    return apply_word((m,), v)


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


def _checked_indices(
    module_typ: WhittakerType, max_level: int, target: WhittakerType
) -> list[int]:
    """Target indices to check on a span of words of level <= ``max_level``.

    The list covers every index at which a generator can act nonzero on the
    span (module rank plus maximal level) and every index with a
    nonzero target value, so a passing check certifies all conditions.
    """
    return subalgebra_indices(target, max(target.top, module_typ.rank + max_level + 1))


def verify_whittaker_vector(
    v: UniversalVector, target: WhittakerType
) -> VerificationReport:
    """Exact Whittaker-condition check against a target type: the residual
    at k is act_universal(k, v) - target(L_k) v, as in ``dot_act``.

    The checked index set covers every generator that can act nonzero on
    the vector's support (module rank plus maximal level), so a passing
    report certifies all conditions, untruncated.
    """
    indices = _checked_indices(v.whittaker_type, v.max_level(), target)
    failures = {}
    for k in indices:
        residual = act_universal(k, v).add_scaled(v, -target.value(k)).terms
        if residual:
            word = min(residual, key=word_key)
            failures[k] = (pp_level(word), word, residual[word])
    return VerificationReport.build(target, indices, failures, None)


def level0_words(
    min_letter: int, max_letter: int, max_length: int
) -> list[PseudoPartition]:
    """All nonempty non-decreasing words over [min_letter, max_letter]."""
    out: list[PseudoPartition] = []
    for length in range(1, max_length + 1):
        out.extend(
            itertools.combinations_with_replacement(
                range(min_letter, max_letter + 1), length
            )
        )
    return out


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


class ClauseResult(Value):
    clause: str
    passed: bool
    detail: str = ""


class CommutatorBoundsReport(Value):
    order_index: int
    word: PseudoPartition
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


# The detail of each clause, from the numbers lemma_clauses gives it.
_DETAILS = {
    "raising_length_drop": "max length {} must drop below {}".format,
    "lowering_level_drop": "max level {} must drop below {}".format,
    "raising_vanishes": "[L_{}, L_plus]|w> must vanish for m > {}".format,
    "lowering_vanishes": "[L_{}, L_minus] L_plus |w> must vanish for m > {}".format,
    "lowering_level_window": "max level {} must not exceed {}".format,
    "leading_term": lambda word, n, lift, den: (
        f"coefficient on {word} is {Fraction(n, den)}, expected {Fraction(lift, den)}"
    ),
    "remainder_split": lambda word=None, n=0, den=1: (
        "remainder splits into the level/length classes"
        if word is None
        else f"term {word} (coeff {Fraction(n, den)}) escapes both classes"
    ),
}


def check_lemma_bounds(
    m: int, word, psi: WhittakerTypeR, c: Fraction
) -> CommutatorBoundsReport:
    """Level and length bounds for commutators against the split word.

    Splits the pseudo-partition into its negative and nonnegative factors
    and checks, for whichever ranges contain m: vanishing of
    [L_m, L_plus]|w> above the rank and its length drop inside the
    subalgebra window; vanishing of [L_m, L_minus] L_plus |w> above
    rank + level, the level window bound below that, and the strict level
    drop inside the subalgebra window; and, when m = k + rank for the
    smallest represented depth k, the exact leading coefficient
    count(-k) psi(L_s) (2k + s) together with the level/length classes of
    the remainder.  No range contains an m below the order r.

    The clauses are those of ``lemma_clauses``, each with its detail.  The
    check-lemmas command reads the verdicts of ``lemma_clauses`` itself and
    builds this report only for a check with a failing clause.
    """
    if not isinstance(psi, WhittakerTypeR):
        raise ValueError(f"the lemma bounds need an order type, got {psi}")
    word = validate_pseudo_partition(psi, word)
    clauses = tuple(
        ClauseResult(clause, passed, _DETAILS[clause](*numbers))
        for clause, passed, numbers in lemma_clauses(m, word, psi, _REWRITERS[psi, c])
    )
    return CommutatorBoundsReport(m, word, clauses)


def lemma_clauses(
    m: int, word: PseudoPartition, psi: WhittakerTypeR, rule: Straightener
) -> list[tuple[str, bool, tuple]]:
    """The (clause, passed, numbers) of ``check_lemma_bounds`` for L_m against
    a valid ``word`` of the order type ``psi``, with ``rule`` the straightener
    of psi's module; the numbers are what the clause's detail prints, and
    an m below the order r has no clause.

    Only L_m L_plus |w> and L_m L_word |w> are straightened; the two
    products of each commutator apply as many letters to |w>, so their
    integers share one graded denominator and subtract as ints.  For
    m >= r, L_m |w> is psi(L_m) |w>, so L_plus L_m |w> is psi(L_m) on the
    ordered word plus; the words of L_m L_plus |w> have no negative
    letter, so L_minus only prepends minus to each.
    """
    r, s = psi.r, psi.rank
    if m < r:
        return []
    split = bisect_left(word, 0)
    minus, plus = word[:split], word[split:]
    level, length = -sum(minus), len(plus)

    m_plus = dict(rule.times(m, plus))
    comm_plus = accumulate(dict(m_plus), ((plus, n) for _, n in rule.times(m, ())), -1)
    minus_m_plus = ((minus + u, n) for u, n in m_plus.items())
    comm_minus = accumulate(dict(rule.times(m, word)), minus_m_plus, -1)
    max_level = max(map(pp_level, comm_minus), default=0)

    if m <= s:
        max_length = max(map(len, comm_plus), default=0)  # no negative letters
        clauses = [
            ("raising_length_drop", not comm_plus or max_length < length, (max_length, length)),
            ("lowering_level_drop", not comm_minus or max_level < level, (max_level, level)),
        ]
    else:
        clauses = [("raising_vanishes", not comm_plus, (m, s))]
        if m > s + level:
            clauses.append(("lowering_vanishes", not comm_minus, (m, s + level)))
        else:
            bound = level + s - m
            ok = not comm_minus or max_level <= bound
            clauses.append(("lowering_level_window", ok, (max_level, bound)))

    if minus and m == s - minus[-1]:
        # Smallest depth k; comm_minus's integer for v is over scale^(top - len v),
        # scale^2 on the leading word.  scale clears psi(L_s)'s denominator.
        k, top, scale = -minus[-1], 1 + len(word), rule.scale
        mu = psi.value(s)
        lift = minus.count(-k) * (2 * k + s) * mu.numerator * (scale // mu.denominator) * scale
        leading_word = minus[:-1] + plus
        n = comm_minus.get(leading_word, 0)
        clauses.append(("leading_term", n == lift, (leading_word, n, lift, scale * scale)))
        remainder = accumulate(dict(comm_minus), ((leading_word, -lift),))
        escaping = [u for u in remainder if (pp_level(u), pp_length(u)) >= (level - k, length)]
        term = ()
        if escaping:
            out_word = min(escaping, key=word_key)
            term = (out_word, remainder[out_word], scale ** (top - len(out_word)))
        clauses.append(("remainder_split", not escaping, term))

    return clauses


class SearchResult(Value):
    ansatz: tuple[PseudoPartition, ...]
    checked_indices: tuple[int, ...]
    dimension: int
    basis: tuple[UniversalVector, ...]


def search_whittaker(
    psi: WhittakerType,
    ansatz,
    target: WhittakerType,
    c: Fraction,
) -> SearchResult:
    """Exact nullspace of the target Whittaker conditions on an ansatz span.

    Builds the homogeneous linear system expressing (L_k - target(L_k)) v = 0
    on the span of the given pseudo-partitions and returns a deterministic
    basis of its solution space.  The checked indices cover the target's
    generators up to the largest index that can act nonzero on the ansatz.
    """
    words = sorted(
        (validate_pseudo_partition(psi, w) for w in ansatz),
        key=word_key,
    )
    if len(set(words)) != len(words):
        raise ValueError("ansatz contains duplicate pseudo-partitions")
    max_level = max((pp_level(w) for w in words), default=0)
    ks = _checked_indices(psi, max_level, target)

    # Row (k, out) is scaled to integers by den s^{1 + top - len out}, with
    # top the longest word and den clearing the target values: the
    # straightener's integer for a word then takes den s^{top - len word}.
    rule = _REWRITERS[psi, Fraction(c)]
    s = rule.scale
    top = max(map(len, words), default=0)
    values = {k: target.value(k) for k in ks}
    den = lcm(*(v.denominator for v in values.values()))
    ends = {k: -v.numerator * (den // v.denominator) * s for k, v in values.items()}
    rows: dict[tuple[int, PseudoPartition], dict[int, int]] = {}
    for j, word in enumerate(words):
        lift = s ** (top - len(word))
        for k in ks:
            residual = {out: n * lift * den for out, n in rule.times(k, word)}
            accumulate(residual, ((word, ends[k] * lift),))
            for out, coeff in residual.items():
                rows.setdefault((k, out), {})[j] = coeff

    kernel = linalg.nullspace(list(rows.values()), ncols=len(words))
    terms = ({words[j]: v for j, v in vec.items()} for vec in kernel)
    basis = tuple(UniversalVector(psi, Fraction(c), t) for t in terms)
    return SearchResult(tuple(words), tuple(ks), len(kernel), basis)
