"""Command-line interface with exact-rational JSON I/O.

Rationals cross this boundary as "p/q" strings, never floats.  Every
document carries {"schema": "virwhit/1"}; orderings are fixed everywhere,
so identical configs produce byte-identical output.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 unusable configuration, 3 degenerate Shapovalov form at some level.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import comb

from . import forms, universal
from .rational import format_rational, parse_rational
from .shapovalov import SingularGramError, gram
from .verma import (
    VermaContext,
    VermaVector,
    basis_vector,
    enumerate_partitions,
    exponents_partition,
    partition_exponents,
    partition_index,
)
from .whittaker import VerificationReport, WhittakerType1N, WhittakerTypeR

SCHEMA = "virwhit/1"
HARD_CUTOFF_LIMIT = 12
# Most ansatz words a universal search may build.  On a 2-vCPU host 219
# words (n = 5, length 9) took 1 s and 454 words (n = 5, length 12) 5 s;
# 1715 words (n = 9, length 6) took six minutes.
MAX_ANSATZ_WORDS = 500

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


class ConfigError(ValueError):
    pass


def _rat(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rat_list(text: str) -> list[Fraction]:
    return [_rat(part) for part in text.split(",") if part.strip()]


def _json_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans raise TypeError, never truncate."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _check_cutoff(cutoff: int) -> int:
    if cutoff < 0 or cutoff > HARD_CUTOFF_LIMIT:
        raise ConfigError(
            f"cutoff must lie in 0..{HARD_CUTOFF_LIMIT}, got {cutoff}"
        )
    return cutoff


# ---------------------------------------------------------------------------
# JSON serialization (deterministic orderings throughout)


def _exponents_json(partition, level: int, side: str) -> list[int]:
    exps = list(partition_exponents(partition, size=level))
    if side == forms.DECREASING:
        exps.reverse()
    return exps


def _partition_from_exponents(exponents, side: str):
    exps = [_json_int(e, "exponent") for e in exponents]
    if any(e < 0 for e in exps):
        raise ConfigError(f"negative exponent in {exps}")
    if side == forms.DECREASING:
        exps.reverse()
    return exponents_partition(exps)


def _form_json(f: forms.DualForm) -> dict:
    levels = []
    for lvl in range(f.cutoff + 1):
        terms = f.level_terms(lvl)
        if not terms:
            continue
        entries = []
        for part in enumerate_partitions(lvl):
            coeff = terms.get(part)
            if coeff:
                entries.append(
                    {
                        "exponents": _exponents_json(part, lvl, f.basis_side),
                        "coefficient": format_rational(coeff),
                    }
                )
        levels.append({"level": lvl, "terms": entries})
    return {"basis_side": f.basis_side, "cutoff": f.cutoff, "levels": levels}


def _form_from_json(obj: dict, ctx: VermaContext) -> forms.DualForm:
    side = obj["basis_side"]
    if side not in (forms.DECREASING, forms.INCREASING):
        raise ConfigError(f"unknown basis side {side!r}")
    cutoff = _check_cutoff(_json_int(obj["cutoff"], "cutoff"))
    levels: dict[int, dict] = {}
    for block in obj.get("levels", []):
        lvl = _json_int(block["level"], "level")
        if not 0 <= lvl <= cutoff:
            raise ConfigError(f"form level {lvl} lies outside 0..{cutoff}")
        terms = levels.setdefault(lvl, {})  # a repeated block adds to its level
        for entry in block.get("terms", []):
            part = _partition_from_exponents(entry["exponents"], side)
            if sum(part) != lvl:
                raise ConfigError(f"exponents {entry['exponents']} are not level {lvl}")
            if part in terms:
                raise ConfigError(f"level {lvl} repeats exponents {entry['exponents']}")
            terms[part] = parse_rational(entry["coefficient"])
    return forms.DualForm(ctx, cutoff, side, {lvl: t for lvl, t in levels.items() if t})


def _state_json(w: VermaVector) -> dict:
    terms = []
    for part in sorted(w.terms, key=lambda p: (sum(p), partition_index(sum(p))[p])):
        terms.append(
            {"partition": list(part), "coefficient": format_rational(w.terms[part])}
        )
    return {"terms": terms}


def _state_from_json(obj: dict, ctx: VermaContext, cutoff: int) -> VermaVector:
    terms = {}
    for entry in obj.get("terms", []):
        part = tuple(_json_int(p, "partition part") for p in entry["partition"])
        if sum(part) > cutoff:
            raise ConfigError(f"state term {list(part)} lies above cutoff {cutoff}")
        basis_vector(ctx, part)  # raises ValueError unless part is a partition
        if part in terms:
            raise ConfigError(f"state repeats partition {list(part)}")
        terms[part] = parse_rational(entry["coefficient"])
    return VermaVector(ctx, terms)


def _failure_json(failure) -> dict | None:
    if failure is None:
        return None
    level, label, coeff = failure
    return {
        "level": level,
        "label": list(label),
        "coefficient": format_rational(coeff),
    }


def _report_json(report: VerificationReport) -> dict:
    checks = []
    for check in report.checks:
        checks.append(
            {
                "check": check.name,
                "expected": format_rational(check.expected),
                "complete_levels": check.complete_levels,
                "residual_zero": check.residual_zero,
                "first_failure": _failure_json(check.first_failure),
            }
        )
    return {"passed": report.passed, "checks": checks}


def _universal_vector_json(v: universal.UniversalVector) -> dict:
    if isinstance(v.whittaker_type, WhittakerTypeR):
        variant = "order-r"
    else:
        variant = "pair-1n"
    terms = []
    ordered = sorted(
        v.terms,
        key=lambda w: (universal.pp_level(w), universal.pp_length(w), w),
    )
    for word in ordered:
        terms.append(
            {
                "pseudo_partition": {
                    "variant": variant,
                    "counts": [
                        {"index": idx, "multiplicity": mult}
                        for idx, mult in universal.pp_counts(word)
                    ],
                },
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
            {
                "clause": c.clause,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in report.clauses
        ],
    }


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Commands


def _cmd_gram(args) -> int:
    level = _check_cutoff(args.level)
    ctx = VermaContext(args.c, args.delta)
    blocks = []
    for lvl in range(level + 1):
        g = gram(lvl, ctx)
        blocks.append(
            {
                "level": lvl,
                "partitions": [list(p) for p in g.partitions],
                "entries": [
                    [format_rational(v) for v in row] for row in g.fraction_rows()
                ],
            }
        )
    doc = {
        "schema": SCHEMA,
        "command": "gram",
        "central_charge": format_rational(args.c),
        "conformal_weight": format_rational(args.delta),
        "max_level": level,
        "levels": blocks,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _parse_coeff_map(text: str, expected_len: int, what: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {what} JSON: {exc}")
    out = {}
    if not isinstance(raw, list):
        raise ConfigError(f"{what} must be a list of entries")
    for entry in raw:
        try:
            exps = tuple(_json_int(e, "exponent") for e in entry["exponents"])
            value = parse_rational(entry["coefficient"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed {what} entry {entry!r}: {exc!r}")
        if len(exps) != expected_len:
            raise ConfigError(
                f"{what} exponent tuples must have length {expected_len}"
            )
        if exps in out:
            raise ConfigError(f"malformed {what} entry {entry!r}: repeated exponents")
        out[exps] = value
    return out


def _coeff_map_json(coeffs: dict) -> list:
    return [
        {"exponents": list(exps), "coefficient": format_rational(value)}
        for exps, value in sorted(coeffs.items())
    ]


def _cmd_gaiotto(args) -> int:
    cutoff = _check_cutoff(args.cutoff)
    psi = WhittakerTypeR(args.r, tuple(args.mu))
    ctx = VermaContext(args.c, args.delta)
    if args.coeffs:
        coeffs = _parse_coeff_map(args.coeffs, psi.r - 1, "coefficients")
    else:
        coeffs = {(0,) * (psi.r - 1): Fraction(1)}
    form = forms.gaiotto_form(psi, coeffs, cutoff, ctx)
    state = forms.raise_indices(form)
    form_report = forms.verify_whittaker_form(form, psi)
    state_report = forms.verify_whittaker_state(state, psi, cutoff)
    doc = {
        "schema": SCHEMA,
        "command": "gaiotto",
        "parameters": {
            "r": psi.r,
            "mu": [format_rational(v) for v in psi.mu],
            "central_charge": format_rational(ctx.c),
            "conformal_weight": format_rational(ctx.delta),
            "cutoff": cutoff,
            "coefficients": _coeff_map_json(coeffs),
        },
        "form": _form_json(form),
        "state": _state_json(state),
        "verification": _report_json(form_report),
        "state_verification": _report_json(state_report),
    }
    _emit(doc, args.out)
    return EXIT_OK if form_report.passed and state_report.passed else EXIT_VERIFICATION


def _cmd_bmt(args) -> int:
    cutoff = _check_cutoff(args.cutoff)
    psi = WhittakerType1N(args.n, args.nu1, args.nun)
    ctx = VermaContext(args.c, args.delta)
    if args.coeffs and args.lambdas:
        raise ConfigError("give either --coeffs or --lambdas, not both")
    if args.lambdas is not None:
        lambdas = tuple(args.lambdas)
        if len(lambdas) != psi.n - 2:
            raise ConfigError(
                f"--lambdas needs {psi.n - 2} values lambda_2..lambda_{psi.n - 1}"
            )
        form = forms.bmt_special_form(psi, lambdas, cutoff, ctx)
        coeff_doc = {"lambdas": [format_rational(v) for v in lambdas]}
    else:
        if args.coeffs:
            coeffs = _parse_coeff_map(args.coeffs, psi.n - 2, "coefficients")
        else:
            coeffs = {(0,) * (psi.n - 2): Fraction(1)}
        form = forms.bmt_form(psi, coeffs, cutoff, ctx)
        coeff_doc = {"coefficients": _coeff_map_json(coeffs)}
    state = forms.raise_indices(form)
    form_report = forms.verify_whittaker_form(form, psi)
    state_report = forms.verify_whittaker_state(state, psi, cutoff)
    doc = {
        "schema": SCHEMA,
        "command": "bmt",
        "parameters": {
            "n": psi.n,
            "nu1": format_rational(psi.nu1),
            "nun": format_rational(psi.nun),
            "central_charge": format_rational(ctx.c),
            "conformal_weight": format_rational(ctx.delta),
            "cutoff": cutoff,
            **coeff_doc,
        },
        "form": _form_json(form),
        "state": _state_json(state),
        "verification": _report_json(form_report),
        "state_verification": _report_json(state_report),
    }
    _emit(doc, args.out)
    return EXIT_OK if form_report.passed and state_report.passed else EXIT_VERIFICATION


def _type_from_parameters(params: dict):
    if "r" in params:
        return WhittakerTypeR(
            _json_int(params["r"], "r"), tuple(parse_rational(v) for v in params["mu"])
        )
    return WhittakerType1N(
        _json_int(params["n"], "n"),
        parse_rational(params["nu1"]),
        parse_rational(params["nun"]),
    )


def _cmd_verify(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read document: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("malformed document: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}")
    params = doc.get("parameters", {})
    try:
        typ = _type_from_parameters(params)
        ctx = VermaContext(
            parse_rational(params["central_charge"]),
            parse_rational(params["conformal_weight"]),
        )
        form = _form_from_json(doc["form"], ctx)
        state = None
        if "state" in doc:
            state = _state_from_json(doc["state"], ctx, form.cutoff)
    except KeyError as exc:
        raise ConfigError(f"malformed document: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed document: {exc}")

    form_report = forms.verify_whittaker_form(form, typ)
    results = {
        "schema": SCHEMA,
        "command": "verify",
        "input": doc.get("command", "unknown"),
        "verification": _report_json(form_report),
    }
    passed = form_report.passed

    if state is not None:
        state_report = forms.verify_whittaker_state(state, typ, form.cutoff)
        f_dec = forms.convert_form(form, forms.DECREASING)
        roundtrip_ok = True
        first_mismatch = None
        for lvl in range(form.cutoff + 1):
            g = gram(lvl, ctx)
            pairings = g.pair([state.coefficient(p) for p in g.partitions])
            for lam, pairing in zip(g.partitions, pairings):
                expected = f_dec.level_terms(lvl).get(lam, Fraction(0))
                if pairing != expected:
                    roundtrip_ok = False
                    first_mismatch = {
                        "level": lvl,
                        "label": list(lam),
                        "pairing": format_rational(pairing),
                        "form_value": format_rational(expected),
                    }
                    break
            if not roundtrip_ok:
                break
        results["state_verification"] = _report_json(state_report)
        results["raise_roundtrip"] = {
            "passed": roundtrip_ok,
            "first_mismatch": first_mismatch,
        }
        passed = passed and state_report.passed and roundtrip_ok

    results["passed"] = passed
    _emit(results, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _make_pair_type(args) -> WhittakerType1N:
    if args.nu1 is None or args.nun is None:
        raise ConfigError("--nu1 and --nun are required")
    return WhittakerType1N(args.n, args.nu1, args.nun)


def _cmd_universal_family(args) -> int:
    psi = _make_pair_type(args)
    c = args.c
    name = args.family
    if name == "w-l-2":
        vector = universal.family_w_l_2(psi, args.l, c, args.alpha0)
    elif name == "w-l-2-n":
        vector = universal.family_w_l_2_n(psi, args.l, c, args.alpha0)
    elif name == "w-1-l-n":
        vector = universal.family_w_1_l_n(psi, args.l, c, args.alpha0)
    elif name == "example-n5-w11-23":
        vector = universal.example_n5("w_11_23", psi, c)
    elif name == "example-n5-w2-2":
        vector = universal.example_n5("w_2_2", psi, c)
    else:
        raise ConfigError(f"unknown family {name!r}")
    report = universal.verify_whittaker_vector(vector, psi)
    doc = {
        "schema": SCHEMA,
        "command": "universal-family",
        "parameters": {
            "family": name,
            "n": psi.n,
            "nu1": format_rational(psi.nu1),
            "nun": format_rational(psi.nun),
            "central_charge": format_rational(c),
            "l": args.l,
            "alpha0": format_rational(args.alpha0),
        },
        "vector": _universal_vector_json(vector),
        "verification": _report_json(report),
    }
    _emit(doc, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_universal_search(args) -> int:
    psi = _make_pair_type(args)
    length = args.length
    if length < 1 or length > HARD_CUTOFF_LIMIT:
        raise ConfigError(f"--length must lie in 1..{HARD_CUTOFF_LIMIT}")
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
    doc = {
        "schema": SCHEMA,
        "command": "universal-search",
        "parameters": {
            "n": psi.n,
            "nu1": format_rational(psi.nu1),
            "nun": format_rational(psi.nun),
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
    _emit(doc, args.out)
    return EXIT_OK


def _random_pseudo_partition(rng: random.Random, r: int, max_level: int, max_length: int):
    letters = []
    level_budget = rng.randint(0, max_level)
    while level_budget > 0:
        step = rng.randint(1, level_budget)
        letters.append(-step)
        level_budget -= step
    letters.extend(rng.randint(0, r - 1) for _ in range(rng.randint(0, max_length)))
    return tuple(sorted(letters))


def _cmd_check_lemmas(args) -> int:
    psi = WhittakerTypeR(args.r, tuple(args.mu))
    rng = random.Random(args.seed)
    s = psi.rank
    failures = []
    clause_counts: dict[str, int] = {}
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
            report = universal.check_lemma_bounds(m, word, psi, args.c)
            for clause in report.clauses:
                clause_counts[clause.clause] = clause_counts.get(clause.clause, 0) + 1
                if not clause.passed:
                    failures.append(_lemma_report_json(report))
    doc = {
        "schema": SCHEMA,
        "command": "check-lemmas",
        "parameters": {
            "r": psi.r,
            "mu": [format_rational(v) for v in psi.mu],
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
    _emit(doc, args.out)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def _cmd_check_l0_li(args) -> int:
    cutoff = _check_cutoff(args.cutoff)
    psi = WhittakerTypeR(args.r, tuple(args.mu))
    ctx = VermaContext(args.c, args.delta)
    report = forms.check_L0_Li_on_basic(psi, cutoff, ctx)
    doc = {
        "schema": SCHEMA,
        "command": "check-l0-li",
        "parameters": {
            "r": psi.r,
            "mu": [format_rational(v) for v in psi.mu],
            "central_charge": format_rational(ctx.c),
            "conformal_weight": format_rational(ctx.delta),
            "cutoff": cutoff,
        },
        "verification": _report_json(report),
    }
    _emit(doc, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virwhit",
        description=(
            "Exact Virasoro computations: Shapovalov Gram matrices, Gaiotto "
            "and BMT states, universal Whittaker modules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="Shapovalov Gram matrices for levels 0..N")
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("gaiotto", help="build, raise and verify a Gaiotto state")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mu", type=_rat_list, required=True, help="mu_r,...,mu_2r")
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--coeffs", help="JSON list of {exponents, coefficient}")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gaiotto)

    p = sub.add_parser("bmt", help="build, raise and verify a BMT state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu1", type=_rat, required=True)
    p.add_argument("--nun", type=_rat, required=True)
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--coeffs", help="JSON list of {exponents, coefficient}")
    p.add_argument("--lambdas", type=_rat_list, help="lambda_2,...,lambda_{n-1}")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bmt)

    p = sub.add_parser("verify", help="re-verify a serialized state or form")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p_universal = sub.add_parser("universal", help="universal Whittaker modules")
    sub_universal = p_universal.add_subparsers(dest="subcommand", required=True)

    p = sub_universal.add_parser("family", help="construct and verify a family vector")
    p.add_argument(
        "--family",
        required=True,
        choices=["w-l-2", "w-l-2-n", "w-1-l-n", "example-n5-w11-23", "example-n5-w2-2"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu1", type=_rat, required=True)
    p.add_argument("--nun", type=_rat, required=True)
    p.add_argument("--c", type=_rat, default=Fraction(0))
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--alpha0", type=_rat, default=Fraction(1))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_universal_family)

    p = sub_universal.add_parser("search", help="exact Whittaker-vector search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu1", type=_rat, required=True)
    p.add_argument("--nun", type=_rat, required=True)
    p.add_argument("--c", type=_rat, default=Fraction(0))
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_universal_search)

    p = sub.add_parser("check-lemmas", help="randomized commutator bound checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mu", type=_rat_list, required=True)
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--max-length", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_lemmas)

    p = sub.add_parser("check-l0-li", help="closed-form L_0 and L_i identities")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mu", type=_rat_list, required=True)
    p.add_argument("--c", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    p.add_argument("--cutoff", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_l0_li)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularGramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
