from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from virwhit.rational import format_rational, parse_rational


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * (1 / a) == 1


@given(rationals)
def test_string_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("text, expected", [("3/4", Fraction(3, 4)), ("-5/3", Fraction(-5, 3)), ("7", Fraction(7)), ("0", Fraction(0))])
def test_parse_examples(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["3/-4", "1.5", "", "4/0", "a/b", "--3"])
def test_parse_rejects_bad_literals(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_examples():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(5)) == "5"
