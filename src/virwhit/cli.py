"""Command-line interface with exact-rational JSON I/O.

Rationals cross this boundary as "p/q" strings, never floats; orderings are
fixed everywhere, so identical configs produce byte-identical output.  Each
JSON object (the Whittaker type and the Verma context, flat keys of
"parameters"; the form; the state; the --coeffs map) has one writer and one
reader, which first checks for a JSON object or list.  A command returns its
document body and whether it passed; ``main`` alone adds {"schema":
"virwhit/1", "command": ...}, writes stdout and --out and picks the exit code.
The Verma, Shapovalov, forms and universal modules are imported by the
commands and codecs that use them, so each call loads only what it runs;
they are used as module attributes, looked up at call time.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 unusable configuration, 3 degenerate Shapovalov form at some level.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import partial
from math import comb

from .linalg import SingularGramError
from .rational import format_ratio, format_rational, parse_rational
from .whittaker import VerificationReport, WhittakerType, WhittakerType1N, WhittakerTypeR

TYPE_CHECKING = False
if TYPE_CHECKING:  # names of annotations only
    from . import forms, universal
    from .verma import VermaContext, VermaVector

SCHEMA = "virwhit/1"
HARD_CUTOFF_LIMIT = 12
# Most ansatz words a universal search may build.  On a 2-vCPU host
# (Python 3.11) 219 words (n = 5, length 9) took 0.07 s, 454 words (n = 5,
# length 12) 0.2 s and 1715 words (n = 9, length 6) 1.9-2.1 s at 38 MB peak.
MAX_ANSATZ_WORDS = 500
# Most samples a check-lemmas run may draw.  On a 2-vCPU host (Python 3.11)
# 1000 samples at --max-level 12 --max-length 12 (each mu 13/7, c = 13/5,
# seed 7) took 0.5-0.8 s for r = 2, 0.85-0.9 s for r = 3 and 1.9-2.3 s at
# 115 MB peak for r = 12, the largest --r.
MAX_LEMMA_SAMPLES = 1000
# Largest --n of bmt and universal family.  On a 2-vCPU host the w-1-l-n
# family at --l 2 took 1.2 s and 73 MB at n = 100, and 12.4 s and 734 MB at
# n = 200; bmt at n = 100 and cutoff 12 took 0.3 s.
MAX_PAIR_N = 100
# Most bits in the numerator or the denominator of a parameter (c, Delta,
# mu, nu, lambda, alpha0 and the --coeffs values, from flags or a verify
# document); state and form coefficients carry 245-475 bits and are not
# bounded.  At 160 bits with four distinct denominators (c, Delta and two
# mu or nu values) on a 2-vCPU host (Python 3.11), gaiotto --r 1 took 7.6 s
# and bmt --n 4 7.4 s at cutoff 12 (30 MB peak), mostly in the Gram
# solves' packed residual updates and rational reconstruction; their
# verify 1.1 s, gram --level 12 0.5 s (47 MB peak).  With c = 1/7...7 and
# Delta = 3/7...7 (48 digits) and mu = (1, 0) gaiotto took 2.2 s.
MAX_PARAMETER_BITS = 160

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


class ConfigError(ValueError):
    pass


def _rat(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rat_list(text: str) -> list[Fraction]:
    return [_rat(part) for part in text.split(",")]


def _parameter(value: Fraction, name: str) -> Fraction:
    """``value`` if its numerator and denominator fit in MAX_PARAMETER_BITS."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_PARAMETER_BITS:
        raise ConfigError(f"{name} has {bits} bits, more than the limit {MAX_PARAMETER_BITS}")
    return value


def _read_parameter(text, name: str) -> Fraction:
    return _parameter(parse_rational(text), name)


def _json_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans raise TypeError, never truncate."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _require(value, kind: type, message: str):
    """``value`` if it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        raise ConfigError(message)
    return value


def _check_range(name: str, value: int, low: int, high: int) -> int:
    if value < low or value > high:
        raise ConfigError(f"{name} must lie in {low}..{high}, got {value}")
    return value


def _check_cutoff(cutoff: int) -> int:
    return _check_range("cutoff", cutoff, 0, HARD_CUTOFF_LIMIT)


# ---------------------------------------------------------------------------
# Codecs: one writer and one reader per JSON object, deterministic orderings


def _type_json(psi: WhittakerType) -> dict:
    if isinstance(psi, WhittakerTypeR):
        return {"r": psi.r, "mu": [format_rational(v) for v in psi.mu]}
    return {"n": psi.n, "nu1": format_rational(psi.nu1), "nun": format_rational(psi.nun)}


def _type_from_json(obj) -> WhittakerType:
    _require(obj, dict, "parameters must be a JSON object")
    if "r" in obj:
        mu = _require(obj["mu"], list, "mu must be a JSON list")
        mu = tuple(_read_parameter(v, "mu") for v in mu)
        return WhittakerTypeR(_json_int(obj["r"], "r"), mu)
    return WhittakerType1N(
        _json_int(obj["n"], "n"),
        _read_parameter(obj["nu1"], "nu1"),
        _read_parameter(obj["nun"], "nun"),
    )


def _context_json(ctx: VermaContext) -> dict:
    return {
        "central_charge": format_rational(ctx.c),
        "conformal_weight": format_rational(ctx.delta),
    }


def _context_from_json(obj) -> VermaContext:
    from . import verma
    _require(obj, dict, "parameters must be a JSON object")
    return verma.VermaContext(
        _read_parameter(obj["central_charge"], "central_charge"),
        _read_parameter(obj["conformal_weight"], "conformal_weight"),
    )


def _form_json(f: forms.DualForm) -> dict:
    from . import forms, verma
    step = -1 if f.basis_side == forms.DECREASING else 1  # exponents n_k..n_1 or n_1..n_k
    levels: list[dict] = []
    for part in sorted(f.terms, key=verma.partition_key):
        lvl = sum(part)
        if not levels or levels[-1]["level"] != lvl:
            levels.append({"level": lvl, "terms": []})
        levels[-1]["terms"].append(
            {
                "exponents": list(verma.partition_exponents(part, size=lvl))[::step],
                "coefficient": format_rational(f.terms[part]),
            }
        )
    return {"basis_side": f.basis_side, "cutoff": f.cutoff, "levels": levels}


def _form_from_json(obj, ctx: VermaContext) -> forms.DualForm:
    from . import forms, verma
    _require(obj, dict, "form must be a JSON object")
    side = obj["basis_side"]
    if side not in (forms.DECREASING, forms.INCREASING):
        raise ConfigError(f"unknown basis side {side!r}")
    step = -1 if side == forms.DECREASING else 1
    cutoff = _check_cutoff(_json_int(obj["cutoff"], "cutoff"))
    terms: dict = {}  # a repeated level block adds to its level
    for block in obj.get("levels", []):
        lvl = _json_int(block["level"], "level")
        if not 0 <= lvl <= cutoff:
            raise ConfigError(f"form level {lvl} lies outside 0..{cutoff}")
        for entry in block.get("terms", []):
            exps = [_json_int(e, "exponent") for e in entry["exponents"]]
            if any(e < 0 for e in exps):
                raise ConfigError(f"negative exponent in {exps}")
            part = verma.exponents_partition(exps[::step])
            if sum(part) != lvl:
                raise ConfigError(f"exponents {entry['exponents']} are not level {lvl}")
            if part in terms:
                raise ConfigError(f"level {lvl} repeats exponents {entry['exponents']}")
            terms[part] = parse_rational(entry["coefficient"])
    return forms.DualForm(ctx, cutoff, side, {p: c for p, c in terms.items() if c})


def _state_json(w: VermaVector) -> dict:
    from . import verma
    terms = []
    for part in sorted(w.terms, key=verma.partition_key):
        terms.append(
            {"partition": list(part), "coefficient": format_rational(w.terms[part])}
        )
    return {"terms": terms}


def _state_from_json(obj, ctx: VermaContext, cutoff: int) -> VermaVector:
    from . import verma
    _require(obj, dict, "state must be a JSON object")
    terms = {}
    for entry in obj.get("terms", []):
        part = tuple(_json_int(p, "partition part") for p in entry["partition"])
        if sum(part) > cutoff:
            raise ConfigError(f"state term {list(part)} lies above cutoff {cutoff}")
        verma.basis_vector(ctx, part)  # raises ValueError unless part is a partition
        if part in terms:
            raise ConfigError(f"state repeats partition {list(part)}")
        terms[part] = parse_rational(entry["coefficient"])
    return verma.VermaVector(ctx, terms)


def _coeffs_json(coeffs: dict) -> list:
    return [
        {"exponents": list(exps), "coefficient": format_rational(value)}
        for exps, value in sorted(coeffs.items())
    ]


def _coeffs_from_json(raw, length: int) -> dict:
    _require(raw, list, "coefficients must be a list of entries")
    out = {}
    for entry in raw:
        bad = f"malformed coefficients entry {entry!r}"
        try:
            exps = tuple(_json_int(e, "exponent") for e in entry["exponents"])
            value = _read_parameter(entry["coefficient"], "--coeffs coefficient")
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{bad}: {exc!r}")
        # Not left to the basic forms: they never see a zero coefficient.
        if len(exps) != length:
            raise ConfigError(f"coefficients exponent tuples must have length {length}")
        if exps in out:
            raise ConfigError(f"{bad}: repeated exponents")
        out[exps] = value
    return out


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
    from . import universal
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


# ---------------------------------------------------------------------------
# Commands: each returns (document body, whether every verification passed);
# a command's docstring is its --help text.


def _whittaker_type(args) -> WhittakerType:
    """The order type of --r/--mu, or else the pair type of --n/--nu1/--nun."""
    if "r" in vars(args):
        return WhittakerTypeR(args.r, tuple(args.mu))
    return WhittakerType1N(args.n, args.nu1, args.nun)


def _context(args) -> VermaContext:
    from . import verma
    return verma.VermaContext(args.c, args.delta)


def _coefficients(args, length: int) -> dict:
    """The --coeffs map, or the one basic form with zero exponents without it."""
    if not args.coeffs:
        return {(0,) * length: Fraction(1)}
    try:
        raw = json.loads(args.coeffs)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"bad coefficients JSON: {exc}")
    coeffs = _coeffs_from_json(raw, length)
    if not any(coeffs.values()):
        raise ConfigError("--coeffs has no nonzero coefficient: the form would be zero")
    return coeffs


def _cmd_gram(args):
    """Shapovalov Gram matrices for levels 0..N"""
    from . import shapovalov
    level = _check_cutoff(args.level)
    ctx = _context(args)
    blocks = []
    for lvl in range(level + 1):
        g = shapovalov.gram(lvl, ctx)
        entries: list[list[str]] = []  # symmetric: format j >= i, mirror the strings
        for i, (row, d) in enumerate(zip(g.rows, g.row_scales())):
            entries.append([above[i] for above in entries] + [format_ratio(x, d) for x in row[i:]])
        blocks.append(
            {
                "level": lvl,
                "partitions": [list(p) for p in g.partitions],
                "entries": entries,
            }
        )
    return {**_context_json(ctx), "max_level": level, "levels": blocks}, True


def _state_document(psi: WhittakerType, form: forms.DualForm, coefficients: dict):
    """Raise the form to its state and verify both."""
    from . import forms
    state = forms.raise_indices(form)
    form_report = forms.verify_whittaker_form(form, psi)
    state_report = forms.verify_whittaker_state(state, psi, form.cutoff)
    parameters = {
        **_type_json(psi),
        **_context_json(form.context),
        "cutoff": form.cutoff,
        **coefficients,
    }
    body = {
        "parameters": parameters,
        "form": _form_json(form),
        "state": _state_json(state),
        "verification": _report_json(form_report),
        "state_verification": _report_json(state_report),
    }
    return body, form_report.passed and state_report.passed


def _cmd_gaiotto(args):
    """build, raise and verify a Gaiotto state"""
    from . import forms
    cutoff = _check_cutoff(args.cutoff)
    psi, ctx = _whittaker_type(args), _context(args)
    coeffs = _coefficients(args, psi.r - 1)
    form = forms.gaiotto_form(psi, coeffs, cutoff, ctx)
    return _state_document(psi, form, {"coefficients": _coeffs_json(coeffs)})


def _cmd_bmt(args):
    """build, raise and verify a BMT state"""
    from . import forms
    cutoff = _check_cutoff(args.cutoff)
    _check_range("--n", args.n, 3, MAX_PAIR_N)
    psi, ctx = _whittaker_type(args), _context(args)
    if args.coeffs and args.lambdas:
        raise ConfigError("give either --coeffs or --lambdas, not both")
    if args.lambdas is not None:
        form = forms.bmt_special_form(psi, tuple(args.lambdas), cutoff, ctx)
        coefficients = {"lambdas": [format_rational(v) for v in args.lambdas]}
    else:
        coeffs = _coefficients(args, psi.n - 2)
        form = forms.bmt_form(psi, coeffs, cutoff, ctx)
        coefficients = {"coefficients": _coeffs_json(coeffs)}
    return _state_document(psi, form, coefficients)


def _first_pairing_mismatch(state: VermaVector, form: forms.DualForm) -> dict | None:
    """First label, level by level, where <label, state> differs from the form."""
    from . import forms, shapovalov
    f_dec = forms.convert_form(form, forms.DECREASING)
    for lvl in range(form.cutoff + 1):
        g = shapovalov.gram(lvl, state.context)
        pairings = g.pair([state.coefficient(p) for p in g.partitions])
        for lam, pairing in zip(g.partitions, pairings):
            expected = f_dec.coefficient(lam)
            if pairing != expected:
                return {
                    "level": lvl,
                    "label": list(lam),
                    "pairing": format_rational(pairing),
                    "form_value": format_rational(expected),
                }
    return None


def _cmd_verify(args):
    """re-verify a serialized state or form"""
    from . import forms
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read document: {exc}")
    _require(doc, dict, "malformed document: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}")
    params, state = doc.get("parameters", {}), None
    try:
        typ = _type_from_json(params)
        ctx = _context_from_json(params)
        form = _form_from_json(doc["form"], ctx)
        if "state" in doc:
            state = _state_from_json(doc["state"], ctx, form.cutoff)
    except KeyError as exc:
        raise ConfigError(f"malformed document: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed document: {exc}")

    report = forms.verify_whittaker_form(form, typ)
    body = {"input": doc.get("command", "unknown"), "verification": _report_json(report)}
    passed = report.passed
    if state is not None:
        state_report = forms.verify_whittaker_state(state, typ, form.cutoff)
        mismatch = _first_pairing_mismatch(state, form)
        body["state_verification"] = _report_json(state_report)
        body["raise_roundtrip"] = {"passed": mismatch is None, "first_mismatch": mismatch}
        passed = passed and state_report.passed and mismatch is None
    body["passed"] = passed
    return body, passed


# The universal families by their --family name.  Each builder is handed
# the universal module and looks its function up there when called, so a
# function replaced there takes effect.
FAMILIES = {
    "w-l-2": lambda u, psi, a: u.family_w_l_2(psi, a.l, a.c, a.alpha0),
    "w-l-2-n": lambda u, psi, a: u.family_w_l_2_n(psi, a.l, a.c, a.alpha0),
    "w-1-l-n": lambda u, psi, a: u.family_w_1_l_n(psi, a.l, a.c, a.alpha0),
    "example-n5-w11-23": lambda u, psi, a: u.example_n5("w_11_23", psi, a.c),
    "example-n5-w2-2": lambda u, psi, a: u.example_n5("w_2_2", psi, a.c),
}


def _cmd_universal_family(args):
    """construct and verify a family vector"""
    from . import universal
    _check_range("--l", args.l, 0, HARD_CUTOFF_LIMIT)
    _check_range("--n", args.n, 3, MAX_PAIR_N)
    psi = _whittaker_type(args)
    vector = FAMILIES[args.family](universal, psi, args)
    report = universal.verify_whittaker_vector(vector, psi)
    parameters = {
        "family": args.family,
        **_type_json(psi),
        "central_charge": format_rational(args.c),
        "l": args.l,
        "alpha0": format_rational(args.alpha0),
    }
    body = {
        "parameters": parameters,
        "vector": _universal_vector_json(vector),
        "verification": _report_json(report),
    }
    return body, report.passed


def _cmd_universal_search(args):
    """exact Whittaker-vector search"""
    from . import universal
    psi = _whittaker_type(args)
    length = _check_range("--length", args.length, 1, HARD_CUTOFF_LIMIT)
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
            **_type_json(psi),
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


def _cmd_check_lemmas(args):
    """randomized commutator bound checks"""
    from . import universal
    _check_range("--r", args.r, 1, HARD_CUTOFF_LIMIT)
    _check_range("--samples", args.samples, 1, MAX_LEMMA_SAMPLES)
    _check_range("--max-level", args.max_level, 0, HARD_CUTOFF_LIMIT)
    _check_range("--max-length", args.max_length, 0, HARD_CUTOFF_LIMIT)
    psi = _whittaker_type(args)
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
    body = {
        "parameters": {
            **_type_json(psi),
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


def _cmd_check_l0_li(args):
    """closed-form L_0 and L_i identities"""
    from . import forms
    _check_range("--r", args.r, 1, HARD_CUTOFF_LIMIT)
    cutoff = _check_cutoff(args.cutoff)
    psi, ctx = _whittaker_type(args), _context(args)
    report = forms.check_L0_Li_on_basic(psi, cutoff, ctx)
    body = {
        "parameters": {**_type_json(psi), **_context_json(ctx), "cutoff": cutoff},
        "verification": _report_json(report),
    }
    return body, report.passed


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    group = partial(argparse.ArgumentParser, add_help=False)  # declares options once
    out = group()
    out.add_argument("--out")
    charge = group()
    charge.add_argument("--c", type=_rat, required=True)
    context = group(parents=[charge])
    context.add_argument("--delta", type=_rat, required=True)
    order = group()
    order.add_argument("--r", type=int, required=True)
    order.add_argument("--mu", type=_rat_list, required=True, help="mu_r,...,mu_2r")
    pair = group()
    pair.add_argument("--n", type=int, required=True)
    pair.add_argument("--nu1", type=_rat, required=True)
    pair.add_argument("--nun", type=_rat, required=True)
    pair_module = group(parents=[pair])  # the universal commands default to c = 0
    pair_module.add_argument("--c", type=_rat, default=Fraction(0))
    state = group(parents=[context])
    state.add_argument("--cutoff", type=int, required=True)
    state.add_argument("--coeffs", help="JSON list of {exponents, coefficient}")

    parser = argparse.ArgumentParser(
        prog="virwhit",
        description=(
            "Exact Virasoro computations: Shapovalov Gram matrices, Gaiotto "
            "and BMT states, universal Whittaker modules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *groups):
        """Add ``name``, e.g. "universal search", whose document is "universal-search"."""
        under = sub_universal if name.startswith("universal ") else sub
        p = under.add_parser(name.split()[-1], help=func.__doc__, parents=[*groups, out])
        p.set_defaults(func=func, document=name.replace(" ", "-"))
        return p

    command("gram", _cmd_gram, context).add_argument("--level", type=int, required=True)
    command("gaiotto", _cmd_gaiotto, order, state)
    p = command("bmt", _cmd_bmt, pair, state)
    p.add_argument("--lambdas", type=_rat_list, help="lambda_2,...,lambda_{n-1}")
    command("verify", _cmd_verify).add_argument("--input", required=True)
    sub_universal = sub.add_parser("universal", help="universal Whittaker modules")
    sub_universal = sub_universal.add_subparsers(dest="subcommand", required=True)
    p = command("universal family", _cmd_universal_family, pair_module)
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--alpha0", type=_rat, default=Fraction(1))
    p = command("universal search", _cmd_universal_search, pair_module)
    p.add_argument("--length", type=int, required=True)
    p = command("check-lemmas", _cmd_check_lemmas, order, charge)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--max-length", type=int, default=5)
    p = command("check-l0-li", _cmd_check_l0_li, order, context)
    p.add_argument("--cutoff", type=int, default=5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            for x in value if isinstance(value, list) else [value]:
                if isinstance(x, Fraction):
                    _parameter(x, f"--{name}")
        body, passed = args.func(args)
    except SingularGramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:  # ConfigError and the library's own checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = json.dumps({"schema": SCHEMA, "command": args.document, **body}, indent=2)
    sys.stdout.write(text + "\n")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK if passed else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
