"""Every JSON writer of the CLI and its reader are inverse to each other.

Each value is written, sent through ``json.dumps``/``json.loads`` as a
document would be, and read back; the reader must return the value itself.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virwhit.cli import (
    ConfigError,
    _coeffs_from_json,
    _coeffs_json,
    _context_from_json,
    _context_json,
    _form_from_json,
    _form_json,
    _state_from_json,
    _state_json,
    _type_from_json,
    _type_json,
)
from virwhit.forms import DECREASING, INCREASING, DualForm
from virwhit.verma import VermaContext, VermaVector, enumerate_partitions
from virwhit.whittaker import WhittakerType1N, WhittakerTypeR

CTX = VermaContext(Fraction(11, 3), Fraction(2, 7))
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)
nonzero = rationals.filter(bool)


def through_json(obj):
    return json.loads(json.dumps(obj))


@st.composite
def sparse_labels(draw, cutoff):
    """A few partitions of each level 0..cutoff with nonzero coefficients."""
    terms = {}
    for lvl in range(cutoff + 1):
        labels = draw(st.sets(st.sampled_from(enumerate_partitions(lvl)), max_size=3))
        terms.update((p, draw(nonzero)) for p in sorted(labels))
    return terms


@st.composite
def forms(draw):
    cutoff = draw(st.integers(0, 12))
    side = draw(st.sampled_from([DECREASING, INCREASING]))
    return DualForm(CTX, cutoff, side, draw(sparse_labels(cutoff)))


@st.composite
def types(draw):
    if draw(st.booleans()):
        r = draw(st.integers(1, 12))
        mu = draw(st.lists(rationals, min_size=r + 1, max_size=r + 1).filter(any))
        return WhittakerTypeR(r, tuple(mu))
    return WhittakerType1N(draw(st.integers(3, 100)), draw(nonzero), draw(nonzero))


@settings(deadline=None)
@given(forms())
def test_form_round_trip(f):
    assert _form_from_json(through_json(_form_json(f)), CTX) == f


@settings(deadline=None)
@given(st.data())
def test_state_round_trip(data):
    cutoff = data.draw(st.integers(0, 12))
    w = VermaVector(CTX, data.draw(sparse_labels(cutoff)))
    assert _state_from_json(through_json(_state_json(w)), CTX, cutoff) == w


@given(st.data())
def test_coefficient_map_round_trip(data):
    length = data.draw(st.integers(0, 5))
    exponents = st.tuples(*[st.integers(0, 9)] * length)
    coeffs = data.draw(st.dictionaries(exponents, rationals, max_size=6))
    assert _coeffs_from_json(through_json(_coeffs_json(coeffs)), length) == coeffs


@given(types(), rationals, rationals)
def test_type_and_context_round_trip(psi, c, delta):
    ctx = VermaContext(c, delta)
    parameters = through_json({**_type_json(psi), **_context_json(ctx)})
    assert _type_from_json(parameters) == psi
    assert _context_from_json(parameters) == ctx


@pytest.mark.parametrize("value", [[], "x", 3, None])
def test_readers_reject_non_objects(value):
    with pytest.raises(ConfigError):
        _type_from_json(value)
    with pytest.raises(ConfigError):
        _context_from_json(value)
    with pytest.raises(ConfigError):
        _form_from_json(value, CTX)
    with pytest.raises(ConfigError):
        _state_from_json(value, CTX, 3)
    if not isinstance(value, list):
        with pytest.raises(ConfigError):
            _coeffs_from_json(value, 1)
