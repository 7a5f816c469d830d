"""The Fraction lemma check that preceded the integer one, kept as an
oracle for ``universal.check_lemma_bounds``.

It builds each commutator [L_m, L_part] L_rest |w> from two ``apply_word``
products, both folded from |w> and returned as Fractions, subtracts them
as Fractions and reads every clause off the resulting vectors.  It shares
with the integer check only the straightener that both products go
through and the pseudo-partition statistics.
"""

from fractions import Fraction

from virwhit.universal import (
    ClauseResult,
    CommutatorBoundsReport,
    apply_word,
    basis_vector,
    generating_vector,
    pp_length,
    pp_level,
    validate_pseudo_partition,
    word_key,
)
from virwhit.whittaker import WhittakerTypeR


def reference_check_lemma_bounds(
    m: int, word, psi: WhittakerTypeR, c: Fraction
) -> CommutatorBoundsReport:
    """``universal.check_lemma_bounds`` as four Fraction ``apply_word`` products."""
    word = validate_pseudo_partition(psi, word)
    r, s = psi.r, psi.rank
    minus = tuple(x for x in word if x < 0)
    plus = tuple(x for x in word if x >= 0)
    level = pp_level(word)
    length = pp_length(word)
    base = generating_vector(psi, c)
    clauses: list[ClauseResult] = []

    def residual_commutator(outer: int, inner: tuple[int, ...], rest: tuple[int, ...]):
        # [L_outer, L_inner] L_rest |w>
        left = apply_word((outer,) + inner + rest, base)
        right = apply_word(inner + (outer,) + rest, base)
        return left - right

    comm_plus = residual_commutator(m, plus, ())
    if m > s:
        clauses.append(
            ClauseResult(
                "raising_vanishes",
                comm_plus.is_zero(),
                f"[L_{m}, L_plus]|w> must vanish for m > {s}",
            )
        )
    if r <= m <= s:
        ok = comm_plus.is_zero() or comm_plus.max_length() < length
        clauses.append(
            ClauseResult(
                "raising_length_drop",
                ok,
                f"max length {comm_plus.max_length()} must drop below {length}",
            )
        )

    comm_minus = residual_commutator(m, minus, plus)
    if m > s + level:
        clauses.append(
            ClauseResult(
                "lowering_vanishes",
                comm_minus.is_zero(),
                f"[L_{m}, L_minus] L_plus |w> must vanish for m > {s + level}",
            )
        )
    if s < m <= s + level:
        ok = comm_minus.is_zero() or comm_minus.max_level() <= level + s - m
        clauses.append(
            ClauseResult(
                "lowering_level_window",
                ok,
                f"max level {comm_minus.max_level()} must not exceed {level + s - m}",
            )
        )
    if r <= m <= s:
        ok = comm_minus.is_zero() or comm_minus.max_level() < level
        clauses.append(
            ClauseResult(
                "lowering_level_drop",
                ok,
                f"max level {comm_minus.max_level()} must drop below {level}",
            )
        )

    depths = [-x for x in minus]
    k = min(depths) if depths else None
    if k is not None and m == k + s:
        count_k = sum(1 for x in minus if x == -k)
        expected = Fraction(count_k) * psi.value(s) * (2 * k + s)
        remaining = list(word)
        remaining.remove(-k)
        leading_word = tuple(remaining)
        actual = comm_minus.coefficient(leading_word)
        clauses.append(
            ClauseResult(
                "leading_term",
                actual == expected,
                f"coefficient on {leading_word} is {actual}, expected {expected}",
            )
        )
        remainder = comm_minus.add_scaled(basis_vector(psi, c, leading_word), -expected)
        ok = True
        detail = "remainder splits into the level/length classes"
        for out_word, coeff in sorted(remainder.terms.items(), key=lambda t: word_key(t[0])):
            out_level = pp_level(out_word)
            if out_level > level - k or (
                out_level == level - k and pp_length(out_word) >= length
            ):
                ok = False
                detail = f"term {out_word} (coeff {coeff}) escapes both classes"
                break
        clauses.append(ClauseResult("remainder_split", ok, detail))

    return CommutatorBoundsReport(m, word, tuple(clauses))
