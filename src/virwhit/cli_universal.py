"""The universal-side commands (universal family, universal search,
check-lemmas) and the JSON writers of universal vectors and lemma reports.
A command returns (document body, whether every verification passed).
"""

from __future__ import annotations

import random
from math import comb

from . import universal
from .cli_common import ConfigError, report_json, type_json, whittaker_type
from .rational import format_rational
from .whittaker import WhittakerTypeR

# Most ansatz words a universal search may build.  In process on a 2-vCPU
# host (Python 3.11, nu_1 = 1, nu_n = 2, c = -11/5) the search over 219 words
# (n = 5, length 9) took 0.01 s, over 454 words (n = 5, length 12) 0.03 s
# and over 1715 words (n = 9, length 6) 0.16-0.17 s at 20.4 MB VmHWM.
MAX_ANSATZ_WORDS = 500


def _universal_vector_json(v: universal.UniversalVector) -> dict:
    variant = "order-r" if isinstance(v.whittaker_type, WhittakerTypeR) else "pair-1n"
    terms = []
    for word in sorted(v.terms, key=universal.word_key):
        counts = [{"index": i, "multiplicity": m} for i, m in universal.pp_counts(word)]
        terms.append(
            {
                "pseudo_partition": {"variant": variant, "counts": counts},
                "coefficient": format_rational(v.terms[word]),
            }
        )
    return {"terms": terms}


def _lemma_report_json(report: universal.CommutatorBoundsReport) -> dict:
    return {
        "operator_index": report.order_index,
        "word": list(report.word),
        "passed": report.passed,
        "clauses": [
            {"clause": c.clause, "passed": c.passed, "detail": c.detail} for c in report.clauses
        ],
    }


# The universal families by their --family name, in cli's --family choices
# order.  Each builder is handed the universal module and looks its
# function up there when called, so a function replaced there takes effect.
FAMILIES = {
    "w-l-2": lambda u, psi, a: u.family_w_l_2(psi, a.l, a.c, a.alpha0),
    "w-l-2-n": lambda u, psi, a: u.family_w_l_2_n(psi, a.l, a.c, a.alpha0),
    "w-1-l-n": lambda u, psi, a: u.family_w_1_l_n(psi, a.l, a.c, a.alpha0),
    "example-n5-w11-23": lambda u, psi, a: u.example_n5("w_11_23", psi, a.c),
    "example-n5-w2-2": lambda u, psi, a: u.example_n5("w_2_2", psi, a.c),
}


def cmd_universal_family(args):
    psi = whittaker_type(args)
    vector = FAMILIES[args.family](universal, psi, args)
    report = universal.verify_whittaker_vector(vector, psi)
    parameters = {
        "family": args.family,
        **type_json(psi),
        "central_charge": format_rational(args.c),
        "l": args.l,
        "alpha0": format_rational(args.alpha0),
    }
    body = {
        "parameters": parameters,
        "vector": _universal_vector_json(vector),
        "verification": report_json(report),
    }
    return body, report.passed


def cmd_universal_search(args):
    psi = whittaker_type(args)
    length = args.length
    # Nonempty multisets of at most `length` letters from 2..n-1:
    # sum_{k=1}^{length} C(n-3+k, k) = C(n-2+length, length) - 1.
    words = comb(psi.n - 2 + length, length) - 1
    if words > MAX_ANSATZ_WORDS:
        raise ConfigError(
            f"the ansatz would have {words} words, more than the limit "
            f"{MAX_ANSATZ_WORDS}; lower --n or --length"
        )
    ansatz = universal.level0_words(2, psi.n - 1, length)
    result = universal.search_whittaker(psi, ansatz, psi, args.c)
    body = {
        "parameters": {
            **type_json(psi),
            "central_charge": format_rational(args.c),
            "max_length": length,
        },
        "ansatz_description": (
            f"nonempty level-0 words over letters 2..{psi.n - 1} "
            f"with length <= {length}"
        ),
        "ansatz_size": len(result.ansatz),
        "checked_indices": [f"L_{k}" for k in result.checked_indices],
        "nullspace_dimension": result.dimension,
        "basis": [_universal_vector_json(v) for v in result.basis],
    }
    return body, True


def _random_pseudo_partition(rng: random.Random, r: int, max_level: int, max_length: int):
    letters = []
    level_budget = rng.randint(0, max_level)
    while level_budget > 0:
        step = rng.randint(1, level_budget)
        letters.append(-step)
        level_budget -= step
    letters.extend(rng.randint(0, r - 1) for _ in range(rng.randint(0, max_length)))
    return tuple(sorted(letters))


def cmd_check_lemmas(args):
    psi = whittaker_type(args)
    rng = random.Random(args.seed)
    s = psi.rank
    failures = []
    clause_counts: dict[str, int] = {}
    # One straightener for the command; a passing check only adds to the
    # counts, so only a failing one is checked again for its report.
    rule = universal._REWRITERS[psi, args.c]
    for _ in range(args.samples):
        word = _random_pseudo_partition(rng, psi.r, args.max_level, args.max_length)
        level = universal.pp_level(word)
        m_choices = [
            rng.randint(s + 1, s + level + 3),
            rng.randint(psi.r, s),
            (min(-x for x in word if x < 0) + s) if level else None,
        ]
        for m in m_choices:
            if m is None:
                continue
            failed = False
            for clause, passed, _ in universal.lemma_clauses(m, word, psi, rule):
                clause_counts[clause] = clause_counts.get(clause, 0) + 1
                failed = failed or not passed
            if failed:
                report = universal.check_lemma_bounds(m, word, psi, args.c)
                failures.append(_lemma_report_json(report))
    body = {
        "parameters": {
            **type_json(psi),
            "central_charge": format_rational(args.c),
            "samples": args.samples,
            "seed": args.seed,
            "max_level": args.max_level,
            "max_length": args.max_length,
        },
        "clause_counts": dict(sorted(clause_counts.items())),
        "failures": failures,
        "passed": not failures,
    }
    return body, not failures
