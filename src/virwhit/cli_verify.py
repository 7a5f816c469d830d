"""The verify command and the JSON readers of the documents it re-checks:
the Whittaker type, the Verma context, the form and the state.

Each reader first checks for a JSON object or list; the writers are in
cli_verma, which verify does not load.  cmd_verify returns (document
body, whether every verification passed).
"""

from __future__ import annotations

import json

from . import forms, shapovalov, verma
from .cli_common import SCHEMA, ConfigError, bounded, json_int, read_parameter, report_json
from .cli_common import require
from .rational import format_rational, parse_rational
from .whittaker import WhittakerType, WhittakerType1N, WhittakerTypeR

TYPE_CHECKING = False
if TYPE_CHECKING:  # names of annotations only
    from .verma import VermaContext, VermaVector


def _type_from_json(obj) -> WhittakerType:
    require(obj, dict, "parameters must be a JSON object")
    if "r" in obj:
        mu = require(obj["mu"], list, "mu must be a JSON list")
        mu = tuple(read_parameter(v, "mu") for v in mu)
        return WhittakerTypeR(json_int(obj["r"], "r"), mu)
    return WhittakerType1N(
        json_int(obj["n"], "n"),
        read_parameter(obj["nu1"], "nu1"),
        read_parameter(obj["nun"], "nun"),
    )


def _context_from_json(obj) -> VermaContext:
    require(obj, dict, "parameters must be a JSON object")
    return verma.VermaContext(
        read_parameter(obj["central_charge"], "central_charge"),
        read_parameter(obj["conformal_weight"], "conformal_weight"),
    )


def _form_from_json(obj, ctx: VermaContext) -> forms.DualForm:
    require(obj, dict, "form must be a JSON object")
    side = obj["basis_side"]
    if side not in (forms.DECREASING, forms.INCREASING):
        raise ConfigError(f"unknown basis side {side!r}")
    step = -1 if side == forms.DECREASING else 1
    cutoff = bounded(json_int(obj["cutoff"], "cutoff"), "cutoff", "cutoff")
    terms: dict = {}  # a repeated level block adds to its level
    for block in obj.get("levels", []):
        lvl = json_int(block["level"], "level")
        if not 0 <= lvl <= cutoff:
            raise ConfigError(f"form level {lvl} lies outside 0..{cutoff}")
        for entry in block.get("terms", []):
            exps = [json_int(e, "exponent") for e in entry["exponents"]]
            if any(e < 0 for e in exps):
                raise ConfigError(f"negative exponent in {exps}")
            if sum(i * e for i, e in enumerate(exps[::step], 1)) != lvl:
                raise ConfigError(f"exponents {entry['exponents']} are not level {lvl}")
            part = verma.exponents_partition(exps[::step])
            if part in terms:
                raise ConfigError(f"level {lvl} repeats exponents {entry['exponents']}")
            terms[part] = parse_rational(entry["coefficient"])
    return forms.DualForm(ctx, cutoff, side, {p: c for p, c in terms.items() if c})


def _state_from_json(obj, ctx: VermaContext, cutoff: int) -> VermaVector:
    require(obj, dict, "state must be a JSON object")
    terms = {}
    for entry in obj.get("terms", []):
        part = tuple(json_int(p, "partition part") for p in entry["partition"])
        if sum(part) > cutoff:
            raise ConfigError(f"state term {list(part)} lies above cutoff {cutoff}")
        verma.basis_vector(ctx, part)  # raises ValueError unless part is a partition
        if part in terms:
            raise ConfigError(f"state repeats partition {list(part)}")
        terms[part] = parse_rational(entry["coefficient"])
    return verma.VermaVector(ctx, terms)


def _first_pairing_mismatch(state: VermaVector, form: forms.DualForm) -> dict | None:
    """First label, level by level, where <label, state> differs from the form."""
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
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read document: {exc}")
    require(doc, dict, "malformed document: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ConfigError(f"unsupported schema {doc.get('schema')!r}")
    params, state = doc.get("parameters", {}), None
    try:
        command = require(doc.get("command", "unknown"), str, "command must be a string")
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
