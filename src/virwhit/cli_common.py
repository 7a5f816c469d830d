"""What cli and the command modules share: limits, the Whittaker type of
the options, the type and report JSON writers, and the checks the JSON
readers make (a parameter, an integer, an object or a list).  The command
modules use this, never virwhit.cli: that runs as __main__ under
``python -m``, and importing it by name would compile it a second time.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import format_rational, parse_rational
from .whittaker import VerificationReport, WhittakerType, WhittakerType1N, WhittakerTypeR

SCHEMA = "virwhit/1"
# Range of each integer size option by argparse dest (--seed has none),
# checked by main before any command runs and by verify on a document's
# cutoff.  At the bounds (fresh process, 2-vCPU host, Python 3.11) gaiotto
# --r 1 and bmt --n 100 at cutoff 12 take 0.14 s, gram --level 12 0.08 s.
LIMITS = {
    "cutoff": (0, 12),
    "level": (0, 12),
    "l": (0, 12),
    "length": (1, 12),
    # family w-1-l-n --l 2 at n = 100: 0.9 s, 74 MB; at n = 200: 12.4 s, 734 MB.
    "n": (3, 100),
    # gaiotto and check-l0-li take 0.1 s at r = 12; gaiotto --r 20000 1.0 s.
    "r": (1, 12),
    # check-lemmas --r 12 --max-level 12 --max-length 12 (each mu 13/7,
    # c = 13/5, seed 7): 0.82-0.86 s and 79 MB peak for 1000 samples.
    "samples": (1, 1000),
    "max_level": (0, 12),
    "max_length": (0, 12),
}
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


class ConfigError(ValueError):
    pass


def bounded(value: int, key: str, name: str) -> int:
    """``value`` if it lies in the range of LIMITS[key]; ``name`` names it."""
    low, high = LIMITS[key]
    if not low <= value <= high:
        raise ConfigError(f"{name} must lie in {low}..{high}, got {value}")
    return value


def parameter(value: Fraction, name: str) -> Fraction:
    """``value`` if its numerator and denominator fit in MAX_PARAMETER_BITS."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_PARAMETER_BITS:
        raise ConfigError(f"{name} has {bits} bits, more than the limit {MAX_PARAMETER_BITS}")
    return value


def read_parameter(text, name: str) -> Fraction:
    return parameter(parse_rational(text), name)


def json_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans raise TypeError, never truncate."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def require(value, kind: type, message: str):
    """``value`` if it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        raise ConfigError(message)
    return value


def whittaker_type(args) -> WhittakerType:
    """The order type of --r/--mu, or else the pair type of --n/--nu1/--nun."""
    if "r" in vars(args):
        return WhittakerTypeR(args.r, tuple(args.mu))
    return WhittakerType1N(args.n, args.nu1, args.nun)


def type_json(psi: WhittakerType) -> dict:
    if isinstance(psi, WhittakerTypeR):
        return {"r": psi.r, "mu": [format_rational(v) for v in psi.mu]}
    return {"n": psi.n, "nu1": format_rational(psi.nu1), "nun": format_rational(psi.nun)}


def _failure_json(failure) -> dict | None:
    if failure is None:
        return None
    level, label, coeff = failure
    return {"level": level, "label": list(label), "coefficient": format_rational(coeff)}


def report_json(report: VerificationReport) -> dict:
    checks = [
        {
            "check": check.name,
            "expected": format_rational(check.expected),
            "complete_levels": check.complete_levels,
            "residual_zero": check.residual_zero,
            "first_failure": _failure_json(check.first_failure),
        }
        for check in report.checks
    ]
    return {"passed": report.passed, "checks": checks}
