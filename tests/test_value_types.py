"""The value types declare their fields in __slots__: no instance dict, and a
misspelt attribute is refused rather than silently added.  The records
compare and hash field by field, never equal a value of another class, and
read their normalised fields reduced."""

import pytest

from metaplectic.chars import HChar, SChar, TameChar
from metaplectic.classify import CyclicForm, NormalForm, SSData, ss_data
from metaplectic.coeff import field_make
from metaplectic.galois import InducedParams
from metaplectic.laurent import LaurentSeries
from metaplectic.meta import MetaPhiGamma, SSRep, ps_image
from metaplectic.metagroup import MetaElem, PMatrix, QuadCharParams
from metaplectic.phigamma import make_rank1
from metaplectic.record import Record

F25 = field_make(5, 2)
A, B = F25.elem((1, 2)), F25.elem((3, 0))

VALUES = {
    "FieldSpec": lambda: F25,
    "FieldElem": lambda: F25.elem((1, 2)),
    "LaurentSeries": lambda: LaurentSeries.from_int_coeffs(F25, {-1: 2, 3: 1}, 8),
    # products are built by laurent._series, not by the constructor
    "LaurentSeries from _series": lambda: LaurentSeries.one(F25, 8) * LaurentSeries.one(F25, 6),
    "PhiGammaModule": lambda: make_rank1(TameChar.trivial(F25), 10),
    "PMatrix": lambda: PMatrix(1, 2, 0, 3),
    "MetaElem": lambda: MetaElem(PMatrix(1, 2, 0, 3), -1),
    "QuadCharParams": lambda: QuadCharParams(-1, 0),
    "TameChar": lambda: TameChar(A, 3),
    "SChar": lambda: SChar(A, 1),
    "HChar": lambda: HChar(5, 1, 2),
    "InducedParams": lambda: InducedParams(2, 7, A),
    "SSRep": lambda: SSRep(F25, 1, TameChar(A, 3)),
    "MetaPhiGamma": lambda: ps_image(TameChar(A, 3), TameChar(B, 1)),
    "SSData": lambda: ss_data(F25, 1),
    "CyclicForm": lambda: CyclicForm(F25, 2, (A, B), (-1, -3), (0, 1), (None, None)),
    "NormalForm": lambda: NormalForm(F25, 2, 1, A, 3),
}

# record class -> (fields, (index of one field, another value for it))
RECORDS = {
    PMatrix: ((1, 2, 0, 3), (3, 4)),
    MetaElem: ((PMatrix(1, 2, 0, 3), 1), (1, -1)),
    QuadCharParams: ((-1, 0), (1, 2)),
    TameChar: ((A, 3), (0, B)),
    SChar: ((A, 1), (1, 0)),
    HChar: ((5, 1, 2), (2, 3)),
    InducedParams: ((2, 7, A), (1, 8)),
    SSRep: ((F25, 1, TameChar(A, 3)), (2, TameChar(B, 3))),
    MetaPhiGamma: ((SChar(A, 1), InducedParams(1, 3, B), ()), (2, (InducedParams(1, 3, B),))),
    SSData: ((F25, 1, 0, (), (1,), (A,), ()), (5, (B,))),
    CyclicForm: ((F25, 2, (A, B), (-1, -3), (0, 1), (None, None)), (2, (A, A))),
    NormalForm: ((F25, 2, 1, A, 3), (4, 2)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_has_slots_only(name):
    value = VALUES[name]()
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.misspelt = 1


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_compare_and_hash_field_by_field(cls):
    fields, (i, value) = RECORDS[cls]
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    changed = cls(*fields[:i], value, *fields[i + 1:])
    assert a != changed and not a == changed
    # a record of another class with the very same fields is not equal
    twin = object.__new__(type("Twin", (Record,), {"__slots__": cls.__slots__}))
    for name in cls.__slots__:
        setattr(twin, name, getattr(a, name))
    assert twin._key == a._key and a != twin and twin != a


def test_records_of_two_classes_with_equal_fields_differ():
    assert TameChar(A, 1) != SChar(A, 1) and SChar(A, 1) != TameChar(A, 1)
    assert QuadCharParams(1, 0) != (1, 0) and MetaElem(PMatrix(1, 0, 0, 1), 1) != PMatrix(1, 0, 0, 1)


def test_records_read_their_normalised_fields_reduced():
    assert TameChar(A, 9).tame == 1 and TameChar(A, -1).tame == 3 and TameChar(A, 9) == TameChar(A, 1)
    assert SChar(A, 7).tame == 1 and SChar(A, -2).tame == 0 and SChar(A, 7) == SChar(A, 1)
    chi = HChar(5, 6, -1)
    assert (chi.e1, chi.e2) == (2, 3) and chi == HChar(5, 2, 3)
    assert InducedParams(2, 30, A).H == 6 and InducedParams(2, -1, A).H == 23
    P = InducedParams(2, 30, A)
    assert P == InducedParams(2, 6, A) and hash(P) == hash(InducedParams(2, 6, A))
    form = CyclicForm(F25, 2, (A, B), (-1, -3), (-4, 5), (None, None))
    assert form.b == (0, 1) and form == CyclicForm(F25, 2, (A, B), (-1, -3), (0, 1), (None, None))
