"""The value types declare their fields in __slots__: no instance dict, and a
misspelt attribute is refused rather than silently added."""

import pytest

from metaplectic.chars import TameChar
from metaplectic.coeff import field_make
from metaplectic.laurent import LaurentSeries
from metaplectic.metagroup import MetaElem, PMatrix, QuadCharParams
from metaplectic.phigamma import make_rank1

F25 = field_make(5, 2)

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
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_has_slots_only(name):
    value = VALUES[name]()
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.misspelt = 1
