import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import coeff
from metaplectic.coeff import (
    TABLE_MAX_ORDER,
    FieldElem,
    _poly_mulmod,
    _poly_powmod,
    _trim,
    factorial_in,
    field_make,
    nth_roots,
    omega_of_unit,
)
from metaplectic.selftest import nth_root_law, omega_law

F3 = field_make(3)
F5 = field_make(5)
F25 = field_make(5, 2)
F625 = field_make(5, 4)


def brute_first_irreducible(p, m):
    """Oracle: enumerate monic degree-m polynomials in counting order and
    return the first with no monic factor of degree <= m/2 (trial division)."""

    def monics(d):
        for idx in range(p ** d):
            c = []
            t = idx
            for _ in range(d):
                c.append(t % p)
                t //= p
            yield tuple(c) + (1,)

    def divides(small, big):
        big = list(big)
        ds = len(small) - 1
        inv = pow(small[-1], p - 2, p)
        for i in range(len(big) - 1, ds - 1, -1):
            q = big[i] * inv % p
            if q:
                for j in range(ds + 1):
                    big[i - ds + j] = (big[i - ds + j] - q * small[j]) % p
        return all(c == 0 for c in big[:ds])

    for cand in monics(m):
        if not any(divides(s, cand) for d in range(1, m // 2 + 1) for s in monics(d)):
            return cand
    raise AssertionError


def test_field_make_deterministic_modulus():
    assert F3.modulus == (0, 1)
    assert F25.modulus == brute_first_irreducible(5, 2) == (2, 0, 1)
    assert F625.modulus == brute_first_irreducible(5, 4) == (2, 0, 0, 0, 1)
    assert field_make(3, 4).modulus == brute_first_irreducible(3, 4)
    # binomials X^m + c are skipped in the first five fields (a prime of m
    # not dividing p - 1, or 4 | m with p = 3 mod 4) and searched in the rest
    for p, m in [(5, 3), (7, 4), (3, 6), (7, 5), (11, 4), (7, 3), (13, 3), (11, 5)]:
        assert field_make(p, m).modulus == brute_first_irreducible(p, m)
        assert coeff.FieldSpec(p, m).modulus == field_make(p, m).modulus


def test_large_fields_find_their_modulus():
    # no binomial is irreducible here, so the search starts past all p of them
    assert field_make(1000003, 4).modulus == (1, 1, 0, 0, 1)
    assert field_make(100003, 8).modulus == (26, 1, 0, 0, 0, 0, 0, 0, 1)
    assert field_make(9999991, 8).modulus == (4, 1, 0, 0, 0, 0, 0, 0, 1)
    assert field_make(999999929, 7).modulus == (1, 1, 0, 0, 0, 0, 0, 1)


def test_field_make_rejects_bad_p():
    with pytest.raises(ValueError, match="odd prime"):
        field_make(4)
    with pytest.raises(ValueError, match="odd prime"):
        field_make(2)
    with pytest.raises(ValueError, match="odd prime"):
        field_make(9)


def test_field_arith_examples():
    assert int(F5.from_int(4).inv()) == 4
    assert int(F3.from_int(2) + F3.from_int(2)) == 1
    a = F625.elem((1, 2, 0, 3))
    assert (a ** (5 ** 4 - 1)).is_one()
    with pytest.raises(ZeroDivisionError, match="zero inverse"):
        F5.zero().inv()


def test_inverses_and_negative_powers():
    for x in F625.nonzero_elements():
        assert (x * x.inv()).is_one()
    a = F25.elem((2, 3))
    assert a ** -3 == (a.inv()) ** 3


def test_nth_roots_counts():
    one = F625.one()
    roots = nth_roots(one, 4)
    assert len(roots) == 4
    assert all((y ** 4).is_one() for y in roots)
    assert roots == sorted(roots, key=lambda y: y.coeffs)
    assert nth_roots(one, 1) == [one]
    assert nth_roots(F5.from_int(4), 4) == []


def test_nth_roots_group_structure():
    nth_root_law(random.Random(17), F25, 30)


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
@pytest.mark.parametrize("p,m", [(5, 2), (3, 3), (3, 4)], ids=["F25", "F27", "F81"])
def test_nth_roots_match_a_scan(p, m, tabled, monkeypatch):
    # every nonzero x and n in {1, 2, 3, 4, 8}: the same roots in the same
    # order, read off the log table or, in a copy of the field built above
    # TABLE_MAX_ORDER, found from one root and the roots of unity
    spec = field_make(p, m)
    if not tabled:
        monkeypatch.setattr(coeff, "TABLE_MAX_ORDER", 0)
        spec = coeff.FieldSpec(p, m)
    assert bool(spec._tables()) == tabled
    elems = list(spec.nonzero_elements())
    powers = {n: [y ** n for y in elems] for n in (1, 2, 3, 4, 8)}
    for x in elems:
        for n, ys in powers.items():
            scan = sorted((y for y, yn in zip(elems, ys) if yn == x), key=lambda y: y.coeffs)
            assert [y.coeffs for y in nth_roots(x, n)] == [y.coeffs for y in scan]


def test_omega_of_unit():
    assert int(omega_of_unit(2, F3)) == 2
    assert int(omega_of_unit(Fraction(1, 2), F5)) == 3
    with pytest.raises(ValueError, match="not a unit"):
        omega_of_unit(10, F5)
    with pytest.raises(ValueError, match="not a unit"):
        omega_of_unit(Fraction(1, 5), F5)


def test_omega_multiplicative():
    omega_law(random.Random(23), F5, 300)


def test_factorials():
    assert factorial_in(F5, 0).is_one()
    assert int(factorial_in(F5, 4)) == 24 % 5
    assert int(factorial_in(F3, 2)) == 2
    big = 1000003
    assert int(factorial_in(field_make(big), big - 1)) == big - 1  # Wilson


def test_serialization_round_trip():
    from metaplectic.cli import elem_from_json, elem_to_json

    a = F625.elem((1, 0, 4, 2))
    assert elem_from_json(elem_to_json(a), F625) == a
    assert elem_to_json(a) == {"p": 5, "m": 4, "coeffs": [1, 0, 4, 2]}


# -- log/antilog tables against polynomial arithmetic --

table_settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)
SMALL_FIELDS = [(p, m) for p in (3, 5, 7) for m in (1, 2, 3, 4)]


def poly_elem(spec, poly):
    return FieldElem(spec, poly + (0,) * (spec.m - len(poly)))


def poly_mul(a, b):
    spec = a.spec
    return poly_elem(spec, _poly_mulmod(_trim(a.coeffs), _trim(b.coeffs), spec.modulus, spec.p))


def poly_pow(a, e):
    spec = a.spec
    return poly_elem(spec, _poly_powmod(_trim(a.coeffs), e, spec.modulus, spec.p))


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
@table_settings
@given(data=st.data())
def test_table_arithmetic_matches_polynomial_arithmetic(p, m, data):
    spec = field_make(p, m)
    q = spec.order
    vec = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    a, b = (spec.elem(data.draw(st.one_of(st.just((0,) * m), vec))) for _ in range(2))
    e = data.draw(st.integers(-2 * q, 2 * q))
    assert spec._tables()
    assert a * b == poly_mul(a, b)
    assert a * 0 == 0 and 1 * a == a
    if a.is_zero():
        assert a ** 0 == 1
        assert a ** abs(e) == (1 if e == 0 else 0)
        with pytest.raises(ZeroDivisionError, match="zero inverse"):
            a.inv()
        with pytest.raises(ZeroDivisionError, match="zero inverse"):
            a ** -1
        return
    inv = poly_pow(a, q - 2)
    assert poly_mul(a, inv) == 1
    assert a.inv() == inv
    assert a ** e == (poly_pow(a, e) if e >= 0 else poly_pow(inv, -e))
    if not b.is_zero():
        assert a / b == poly_mul(a, poly_pow(b, q - 2))


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_table_zero_powers_and_inverse(p, m):
    zero = field_make(p, m).zero()
    assert zero ** 0 == 1 and zero ** 3 == 0 and zero * zero == 0
    with pytest.raises(ZeroDivisionError, match="zero inverse"):
        zero.inv()
    with pytest.raises(ZeroDivisionError, match="zero inverse"):
        zero ** -1


def test_table_generator_is_least_primitive_element():
    for spec in (F3, F25, field_make(3, 3), field_make(7, 2)):
        log = spec._tables()
        exp = spec._exp
        q = spec.order
        assert len(exp) == q - 1 and len(log) == q
        assert all(log[x.coeffs] == k for k, x in enumerate(exp))

        def order(x):
            y, k = x, 1
            while not y.is_one():
                y, k = poly_mul(y, x), k + 1
            return k

        primitive = [x for x in spec.nonzero_elements() if order(x) == q - 1]
        assert exp[1] == primitive[0]


def test_products_are_table_entries():
    a, b = F625.elem((1, 2, 0, 3)), F625.elem((4, 0, 1, 1))
    assert a * b is b * a
    assert a.inv() is a ** (F625.order - 2)
    assert a * 0 is F625.zero()


def test_field_make_builds_no_table(monkeypatch):
    monkeypatch.setattr(coeff, "_FIELD_CACHE", {})
    spec = field_make(7, 4)
    assert spec._log is None and spec._exp is None
    x = spec.elem((1, 2, 3, 4))
    assert x + x - x == x and len(list(spec.nonzero_elements())) == 7 ** 4 - 1
    assert spec._log is None
    assert x * x == poly_mul(x, x)
    assert len(spec._tables()) == spec.order


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 4)])
def test_tabled_negation_is_coefficientwise(monkeypatch, p, m):
    monkeypatch.setattr(coeff, "_FIELD_CACHE", {})
    spec = field_make(p, m)
    elems = [spec.zero(), *spec.nonzero_elements()]
    # before the table: negation and equality build none
    untabled = [-x for x in elems]
    assert all(-y == x for x, y in zip(elems, untabled)) and spec._log is None
    spec._tables()
    antilog = {id(e) for e in spec._exp}
    for x, y in zip(elems, untabled):
        neg = -x
        assert neg.coeffs == tuple(-c % p for c in x.coeffs) and neg == y
        assert id(neg) in antilog if not x.is_zero() else neg.is_zero()


def test_large_field_uses_polynomial_arithmetic(monkeypatch):
    monkeypatch.setattr(coeff, "_FIELD_CACHE", {})
    spec = field_make(67, 2)
    q = spec.order
    assert q > TABLE_MAX_ORDER >= max(7 ** 4, 13 ** 3)
    for x in (spec.elem((3, 5)), spec.elem((0, 66)), spec.from_int(2)):
        assert (x * x.inv()).is_one()
        assert (x ** (q - 1)).is_one()
        assert x ** -3 == x.inv() ** 3
        assert x * x == poly_mul(x, x)
    zero = spec.zero()
    assert zero ** 0 == 1 and zero ** 5 == 0
    with pytest.raises(ZeroDivisionError, match="zero inverse"):
        zero.inv()
    assert spec._log is False and spec._exp is None
