"""The Verma-side commands that build documents (gram, gaiotto, bmt,
check-l0-li), the JSON writers of the Verma context, the form and the
state, and the --coeffs codec.  verify and the readers are in cli_verify.

A command returns (document body, whether every verification passed).
forms and formops are imported by the commands that run them, so gram
loads only verma and shapovalov.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import shapovalov, verma
from .cli_common import ConfigError, json_int, read_parameter, report_json, require, type_json
from .cli_common import whittaker_type
from .rational import format_ratio, format_rational
from .whittaker import WhittakerType

TYPE_CHECKING = False
if TYPE_CHECKING:  # names of annotations only
    from . import forms
    from .verma import VermaContext, VermaVector


def _context_json(ctx: VermaContext) -> dict:
    c, delta = format_rational(ctx.c), format_rational(ctx.delta)
    return {"central_charge": c, "conformal_weight": delta}


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


def _state_json(w: VermaVector) -> dict:
    parts = sorted(w.terms, key=verma.partition_key)
    terms = [{"partition": list(p), "coefficient": format_rational(w.terms[p])} for p in parts]
    return {"terms": terms}


def _coeffs_json(coeffs: dict) -> list:
    items = sorted(coeffs.items())
    return [{"exponents": list(e), "coefficient": format_rational(v)} for e, v in items]


def _coeffs_from_json(raw, length: int) -> dict:
    require(raw, list, "coefficients must be a list of entries")
    out = {}
    for entry in raw:
        bad = f"malformed coefficients entry {entry!r}"
        try:
            exps = tuple(json_int(e, "exponent") for e in entry["exponents"])
            value = read_parameter(entry["coefficient"], "--coeffs coefficient")
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


def cmd_check_l0_li(args):
    from . import formops
    psi, ctx = whittaker_type(args), verma.VermaContext(args.c, args.delta)
    report = formops.check_L0_Li_on_basic(psi, args.cutoff, ctx)
    body = {
        "parameters": {**type_json(psi), **_context_json(ctx), "cutoff": args.cutoff},
        "verification": report_json(report),
    }
    return body, report.passed
