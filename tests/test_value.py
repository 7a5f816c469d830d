"""The immutable records keep the semantics of frozen dataclasses.

Every record class of the package is built on ``linalg.Value``: equal
fields give equal records with equal hashes, a record never equals one of
another class, assignment raises AttributeError, and the repr is the
dataclass one (error messages such as ContextMismatchError print it).
"""

from fractions import Fraction

import pytest

from virwhit.forms import DualForm
from virwhit.shapovalov import GramMatrix, gram
from virwhit.universal import (
    ClauseResult,
    CommutatorBoundsReport,
    SearchResult,
    UniversalVector,
)
from virwhit.verma import VermaContext, VermaVector
from virwhit.virasoro import EnvelopingElement
from virwhit.whittaker import (
    ResidualCheck,
    VerificationReport,
    WhittakerType1N,
    WhittakerTypeR,
)

CTX = VermaContext(Fraction(13, 7), Fraction(-11, 5))
PSI = WhittakerType1N(5, Fraction(13, 7), Fraction(-11, 5))
C = Fraction(13, 5)
CHECK = ResidualCheck(1, Fraction(13, 7), None)
CLAUSE = ClauseResult("raising_vanishes", True)
WORD_VECTOR = UniversalVector(PSI, C, {(0,): Fraction(1)})

# Each record class with the arguments of one instance.
RECORDS = {
    WhittakerTypeR: (1, (Fraction(3, 2), Fraction(5))),
    WhittakerType1N: (5, Fraction(13, 7), Fraction(-11, 5)),
    ResidualCheck: (2, Fraction(0), 4, (3, (2, 1), Fraction(1, 2))),
    VerificationReport: ((CHECK,),),
    VermaContext: (Fraction(13, 7), Fraction(-11, 5)),
    VermaVector: (CTX, {(2,): Fraction(1), (1, 1): Fraction(-3, 4)}),
    GramMatrix: (1, CTX, ((1,),), ((2,),), 35),
    DualForm: (CTX, 3, "decreasing", {(1,): Fraction(2)}),
    UniversalVector: (PSI, C, {(-1, 0): Fraction(5)}),
    ClauseResult: ("leading_term", False, "detail"),
    CommutatorBoundsReport: (3, (-1, 0, 2), (CLAUSE,)),
    SearchResult: (((0,),), (1, 5), 1, (WORD_VECTOR,)),
    EnvelopingElement: (C, {(-1, 1): Fraction(1)}),
}


def _hash_or_type_error(record):
    try:
        return hash(record)
    except TypeError:  # a dict field, as with a frozen dataclass
        return TypeError


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(*RECORDS[cls]), cls(*RECORDS[cls])
    assert a == b and not a != b
    assert _hash_or_type_error(a) == _hash_or_type_error(b)
    assert cls(**dict(zip(cls._fields, RECORDS[cls]))) == a


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_of_another_class_is_unequal(cls):
    other = type(cls.__name__, (cls,), {})
    assert other._fields == cls._fields
    assert cls(*RECORDS[cls]) != other(*RECORDS[cls])
    assert other(*RECORDS[cls]) != cls(*RECORDS[cls])


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_assignment_raises(cls):
    record = cls(*RECORDS[cls])
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, RECORDS[cls][0])
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_every_hashable_record_hashes_as_its_field_tuple():
    for cls, args in RECORDS.items():
        record = cls(*args)
        if _hash_or_type_error(record) is not TypeError:
            assert hash(record) == hash(tuple(getattr(record, f) for f in cls._fields))


def test_keyword_construction_and_defaults():
    check = ResidualCheck(operator_index=2, expected=Fraction(1, 3), complete_levels=5)
    assert check == ResidualCheck(2, Fraction(1, 3), 5, None)
    assert check.first_failure is None and check.residual_zero
    assert ClauseResult("x", True) == ClauseResult(clause="x", passed=True, detail="")
    with pytest.raises(TypeError):
        ResidualCheck(2, Fraction(1))  # complete_levels has no default
    with pytest.raises(TypeError):
        ResidualCheck(2, Fraction(1), 5, None, 6)
    with pytest.raises(TypeError):
        ResidualCheck(2, Fraction(1), 5, operator_index=3)
    with pytest.raises(TypeError):
        ResidualCheck(2, Fraction(1), 5, unknown=3)


def test_default_terms_are_fresh_dicts():
    a, b = VermaVector(CTX), VermaVector(CTX)
    assert a.terms == {} and a.terms is not b.terms
    assert a.is_zero() and a == b
    u, v = UniversalVector(PSI, C), UniversalVector(PSI, C)
    assert u.terms is not v.terms


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        WhittakerTypeR(0, (Fraction(1),))
    with pytest.raises(ValueError):
        WhittakerTypeR(1, (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        WhittakerType1N(2, Fraction(1), Fraction(1))
    assert WhittakerTypeR(1, (1, 2)).mu == (Fraction(1), Fraction(2))


def test_repr_is_the_dataclass_repr():
    assert repr(CTX) == "VermaContext(c=Fraction(13, 7), delta=Fraction(-11, 5))"
    assert repr(CLAUSE) == "ClauseResult(clause='raising_vanishes', passed=True, detail='')"
    assert repr(VermaVector(CTX)) == f"VermaVector(context={CTX!r}, terms={{}})"


def test_gram_matrix_caches_entries_on_a_frozen_record():
    g = gram(2, CTX)
    assert g.entries is g.entries
    assert g.entries[0][0] == 4 * CTX.delta + CTX.c / 2


def test_hash_is_kept_after_the_first_call():
    record, twin = VermaContext(*RECORDS[VermaContext]), VermaContext(*RECORDS[VermaContext])
    before = repr(record)
    fields = hash((record.c, record.delta))
    assert hash(record) == fields and hash(record) == fields
    assert hash(twin) == hash(record) and twin == record
    assert repr(record) == before
    vector = VermaVector(*RECORDS[VermaVector])
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(vector)
