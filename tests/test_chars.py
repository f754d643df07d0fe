import pytest

from metaplectic.coeff import field_make
from metaplectic.chars import (
    HChar,
    SChar,
    TameChar,
    char_restrict_S,
    quadratic_chars,
)
from metaplectic.cli import parse_tame_char

F5 = field_make(5)
F25 = field_make(5, 2)
F3 = field_make(3)


def test_restriction_examples():
    assert char_restrict_S(TameChar.trivial(F5)).is_trivial()
    chi = TameChar(F5.from_int(3), 3)
    s = char_restrict_S(chi)
    assert s.val_p2 == F5.from_int(9) and s.tame == 3 % 2
    for eps in quadratic_chars(F5):
        assert char_restrict_S(chi.mul(eps)) == s


def test_restriction_is_homomorphism():
    import random

    rng = random.Random(4)
    elems = list(F25.nonzero_elements())
    for _ in range(40):
        a = TameChar(rng.choice(elems), rng.randrange(4))
        b = TameChar(rng.choice(elems), rng.randrange(4))
        sa, sb = char_restrict_S(a), char_restrict_S(b)
        assert char_restrict_S(a.mul(b)) == SChar(sa.val_p2 * sb.val_p2, sa.tame + sb.tame)


def test_quadratic_chars():
    for spec in (F3, F5, F25):
        qs = quadratic_chars(spec)
        assert len(qs) == 4
        for eps in qs:
            assert eps.mul(eps) == TameChar.trivial(spec)
        assert len({(tuple(e.unram.coeffs), e.tame) for e in qs}) == 4


def test_chi_z_matches_quadratic_family():
    from metaplectic.meta import least_nonsquare_unit
    from metaplectic.metagroup import chi_z

    p = 5
    u0 = least_nonsquare_unit(p)
    family = {(tuple(e.unram.coeffs), e.tame) for e in quadratic_chars(F5)}
    quads = [chi_z(z, p) for z in (1, u0, p, u0 * p)]
    tames = [TameChar(F5.from_int(q.unram), q.tame) for q in quads]
    hit = {(tuple(t.unram.coeffs), t.tame) for t in tames}
    assert hit == family


def test_h_bracket_examples():
    chi = HChar(5, 3, 1)
    assert chi.bracket(0, 0) == chi
    assert chi.bracket(1, 1).bracket(1, 1) == chi
    r = 3
    lhs = HChar(5, r, 0).swap().bracket(1, 0)
    assert lhs == HChar(5, 2, r)


def test_char_mul():
    a = TameChar(F5.from_int(2), 1)
    b = TameChar(F5.from_int(3), 2)
    ab = a.mul(b)
    assert int(ab.unram) == 6 % 5 and ab.tame == 3
    sa, sb = char_restrict_S(a), char_restrict_S(b)
    assert SChar(sa.val_p2 * sb.val_p2, sa.tame + sb.tame) == char_restrict_S(ab)


def test_parse_tame_char():
    assert parse_tame_char("1", F5) == TameChar.trivial(F5)
    chi = parse_tame_char("mu(3)*omega^2", F5)
    assert int(chi.unram) == 3 and chi.tame == 2
    chi = parse_tame_char("omega", F5)
    assert chi.unram.is_one() and chi.tame == 1
    chi = parse_tame_char("mu([0,1])", F25)
    assert chi.unram == F25.elem((0, 1))
    with pytest.raises(ValueError, match="cannot parse"):
        parse_tame_char("exp(x)", F5)
    with pytest.raises(ValueError):
        parse_tame_char("mu(0)", F5)


def test_value_at_unit():
    chi = TameChar(F5.from_int(2), 3)
    assert int(chi.value_at_unit(2)) == pow(2, 3, 5)
    with pytest.raises(ValueError, match="not a unit"):
        chi.value_at_unit(5)
