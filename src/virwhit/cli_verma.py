"""The Verma-side commands (gram, gaiotto, bmt, verify, check-l0-li) and
the JSON codecs of the Verma context, the form, the state and --coeffs.

Each JSON object has one writer and one reader, which first checks for a
JSON object or list.  A command returns (document body, whether every
verification passed).  forms is imported by the commands that run it, so
gram loads only verma and shapovalov.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import shapovalov, verma
from .cli_common import LIMITS, SCHEMA, ConfigError, parameter, report_json, type_json
from .cli_common import whittaker_type
from .rational import format_ratio, format_rational, parse_rational
from .whittaker import WhittakerType, WhittakerType1N, WhittakerTypeR

TYPE_CHECKING = False
if TYPE_CHECKING:  # names of annotations only
    from . import forms
    from .verma import VermaContext, VermaVector


def _read_parameter(text, name: str) -> Fraction:
    return parameter(parse_rational(text), name)


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
    c, delta = format_rational(ctx.c), format_rational(ctx.delta)
    return {"central_charge": c, "conformal_weight": delta}


def _context_from_json(obj) -> VermaContext:
    _require(obj, dict, "parameters must be a JSON object")
    return verma.VermaContext(
        _read_parameter(obj["central_charge"], "central_charge"),
        _read_parameter(obj["conformal_weight"], "conformal_weight"),
    )


def _form_json(f: forms.DualForm) -> dict:
    from . import forms
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
    from . import forms
    _require(obj, dict, "form must be a JSON object")
    side = obj["basis_side"]
    if side not in (forms.DECREASING, forms.INCREASING):
        raise ConfigError(f"unknown basis side {side!r}")
    step = -1 if side == forms.DECREASING else 1
    cutoff, (low, high) = _json_int(obj["cutoff"], "cutoff"), LIMITS["cutoff"]
    if not low <= cutoff <= high:
        raise ConfigError(f"cutoff must lie in {low}..{high}, got {cutoff}")
    terms: dict = {}  # a repeated level block adds to its level
    for block in obj.get("levels", []):
        lvl = _json_int(block["level"], "level")
        if not 0 <= lvl <= cutoff:
            raise ConfigError(f"form level {lvl} lies outside 0..{cutoff}")
        for entry in block.get("terms", []):
            exps = [_json_int(e, "exponent") for e in entry["exponents"]]
            if any(e < 0 for e in exps):
                raise ConfigError(f"negative exponent in {exps}")
            if sum(i * e for i, e in enumerate(exps[::step], 1)) != lvl:
                raise ConfigError(f"exponents {entry['exponents']} are not level {lvl}")
            part = verma.exponents_partition(exps[::step])
            if part in terms:
                raise ConfigError(f"level {lvl} repeats exponents {entry['exponents']}")
            terms[part] = parse_rational(entry["coefficient"])
    return forms.DualForm(ctx, cutoff, side, {p: c for p, c in terms.items() if c})


def _state_json(w: VermaVector) -> dict:
    parts = sorted(w.terms, key=verma.partition_key)
    terms = [{"partition": list(p), "coefficient": format_rational(w.terms[p])} for p in parts]
    return {"terms": terms}


def _state_from_json(obj, ctx: VermaContext, cutoff: int) -> VermaVector:
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
    items = sorted(coeffs.items())
    return [{"exponents": list(e), "coefficient": format_rational(v)} for e, v in items]


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
        # Checked here too, for the CLI's own message; the forms check every entry.
        if len(exps) != length:
            raise ConfigError(f"coefficients exponent tuples must have length {length}")
        if exps in out:
            raise ConfigError(f"{bad}: repeated exponents")
        out[exps] = value
    return out


def _coefficients(args, length: int) -> dict:
    """The --coeffs map, or the one basic form with zero exponents without it."""
    if args.coeffs is None:
        return {(0,) * length: Fraction(1)}
    try:
        raw = json.loads(args.coeffs)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"bad coefficients JSON: {exc}")
    coeffs = _coeffs_from_json(raw, length)
    if not any(coeffs.values()):
        raise ConfigError("--coeffs has no nonzero coefficient: the form would be zero")
    return coeffs


def cmd_gram(args):
    level, ctx = args.level, verma.VermaContext(args.c, args.delta)
    blocks = []
    for lvl in range(level + 1):
        g = shapovalov.gram(lvl, ctx)
        entries: list[list[str]] = []  # symmetric: format j >= i, mirror the strings
        for i, (row, d) in enumerate(zip(g.rows, g.row_scales())):
            entries.append([above[i] for above in entries] + [format_ratio(x, d) for x in row[i:]])
        partitions = [list(p) for p in g.partitions]
        blocks.append({"level": lvl, "partitions": partitions, "entries": entries})
    return {**_context_json(ctx), "max_level": level, "levels": blocks}, True


def _state_document(psi: WhittakerType, form: forms.DualForm, coefficients: dict):
    """Raise the form to its state and verify both."""
    from . import forms
    state = forms.raise_indices(form)
    form_report = forms.verify_whittaker_form(form, psi)
    state_report = forms.verify_whittaker_state(state, psi, form.cutoff)
    parameters = {**type_json(psi), **_context_json(form.context), "cutoff": form.cutoff}
    parameters.update(coefficients)
    body = {
        "parameters": parameters,
        "form": _form_json(form),
        "state": _state_json(state),
        "verification": report_json(form_report),
        "state_verification": report_json(state_report),
    }
    return body, form_report.passed and state_report.passed


def cmd_gaiotto(args):
    from . import forms
    psi, ctx = whittaker_type(args), verma.VermaContext(args.c, args.delta)
    coeffs = _coefficients(args, psi.r - 1)
    form = forms.gaiotto_form(psi, coeffs, args.cutoff, ctx)
    return _state_document(psi, form, {"coefficients": _coeffs_json(coeffs)})


def cmd_bmt(args):
    from . import forms
    cutoff, psi, ctx = args.cutoff, whittaker_type(args), verma.VermaContext(args.c, args.delta)
    if args.coeffs is not None and args.lambdas is not None:
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
    from . import forms
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


def cmd_verify(args):
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
        command = _require(doc.get("command", "unknown"), str, "command must be a string")
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
    body = {"input": command, "verification": report_json(report)}
    passed = report.passed
    if state is not None:
        state_report = forms.verify_whittaker_state(state, typ, form.cutoff)
        mismatch = _first_pairing_mismatch(state, form)
        body["state_verification"] = report_json(state_report)
        body["raise_roundtrip"] = {"passed": mismatch is None, "first_mismatch": mismatch}
        passed = passed and state_report.passed and mismatch is None
    body["passed"] = passed
    return body, passed


def cmd_check_l0_li(args):
    from . import forms
    psi, ctx = whittaker_type(args), verma.VermaContext(args.c, args.delta)
    report = forms.check_L0_Li_on_basic(psi, args.cutoff, ctx)
    body = {
        "parameters": {**type_json(psi), **_context_json(ctx), "cutoff": args.cutoff},
        "verification": report_json(report),
    }
    return body, report.passed
