import random
from fractions import Fraction

import pytest

from metaplectic.coeff import (
    factorial_in,
    field_make,
    nth_roots,
    omega_of_unit,
)

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
    from math import gcd

    rng = random.Random(17)
    q = F25.order
    elems = list(F25.nonzero_elements())
    for _ in range(30):
        x = rng.choice(elems)
        n = rng.randrange(1, 12)
        roots = nth_roots(x, n)
        assert len(roots) in (0, gcd(n, q - 1))
        for y in roots:
            assert y ** n == x


def test_omega_of_unit():
    assert int(omega_of_unit(2, F3)) == 2
    assert int(omega_of_unit(Fraction(1, 2), F5)) == 3
    with pytest.raises(ValueError, match="not a unit"):
        omega_of_unit(10, F5)
    with pytest.raises(ValueError, match="not a unit"):
        omega_of_unit(Fraction(1, 5), F5)


def test_omega_multiplicative():
    rng = random.Random(23)
    for _ in range(300):
        a = Fraction(rng.randrange(1, 60), rng.choice([1, 2, 3, 7, 11]))
        b = Fraction(rng.randrange(1, 60), rng.choice([1, 2, 3, 7, 11]))
        try:
            wa, wb = omega_of_unit(a, F5), omega_of_unit(b, F5)
        except ValueError:
            continue
        assert wa * wb == omega_of_unit(a * b, F5)


def test_factorials():
    assert factorial_in(F5, 0).is_one()
    assert int(factorial_in(F5, 4)) == 24 % 5
    assert int(factorial_in(F3, 2)) == 2


def test_serialization_round_trip():
    from metaplectic.coeff import elem_from_json

    a = F625.elem((1, 0, 4, 2))
    assert elem_from_json(a.to_json()) == a
    assert a.to_json() == {"p": 5, "m": 4, "coeffs": [1, 0, 4, 2]}
