import random

import pytest

from metaplectic.coeff import field_make
from metaplectic.galois import (
    InducedParams,
    canonicalize,
    dual_params,
    half_twist_exponents,
    iso_test,
    lemma1_classify,
    lemma2_reduce,
    lfield_param,
    orbit,
    primitive,
    quad_twist,
    tame_twist,
)
from metaplectic.chars import SChar
from metaplectic.cli import elem_to_json, params_from_json
from metaplectic.meta import MetaPhiGamma, coset_quad_chars, meta_ind
from metaplectic.metagroup import QuadCharParams
from metaplectic.selftest import lemma2_law

F3 = field_make(3)
F5 = field_make(5)
F81 = field_make(3, 4)

rng = random.Random(9)


def test_canonicalize_examples():
    assert canonicalize(InducedParams(4, 75, F3.one())).H == 25
    assert canonicalize(InducedParams(4, 0, F3.one())).H == 0
    P = InducedParams(4, 25, F3.one())
    assert canonicalize(P) == P
    # a least H keeps its record; at n = 1 every H is least
    Q = InducedParams(1, 3, F5.one())
    assert canonicalize(P) is P and canonicalize(Q) is Q
    assert canonicalize(InducedParams(4, 75, F3.one())) == P
    assert canonicalize(canonicalize(InducedParams(4, 7, F5.one()))) == canonicalize(
        InducedParams(4, 7, F5.one())
    )


def test_iso_test():
    assert iso_test(InducedParams(4, 75, F3.one()), InducedParams(4, 25, F3.one()))
    assert not iso_test(
        InducedParams(4, 75, F3.one()), InducedParams(4, 75, F3.from_int(2))
    )
    with pytest.raises(ValueError, match="incomparable"):
        iso_test(InducedParams(4, 5, F3.one()), InducedParams(2, 5, F3.one()))
    # Frobenius twists are isomorphic
    for _ in range(60):
        H = rng.randrange(1, 80)
        assert iso_test(
            InducedParams(4, H, F3.one()), InducedParams(4, 3 * H, F3.one())
        )
    # equivalence relation on random samples
    ps = [InducedParams(4, rng.randrange(80), F3.from_int(rng.randrange(1, 3))) for _ in range(12)]
    for a in ps:
        assert iso_test(a, a)
        for b in ps:
            assert iso_test(a, b) == iso_test(b, a)


def test_primitive():
    assert primitive(1, 4, 3)
    assert not primitive(3 ** 2 + 1, 4, 3)
    assert primitive(15, 4, 3)
    assert not primitive(40, 4, 3)
    assert not primitive(26, 4, 5)
    with pytest.raises(ValueError, match="exponent range"):
        primitive(0, 4, 3)
    with pytest.raises(ValueError, match="exponent range"):
        primitive(80, 4, 3)


def test_quad_twist():
    P = InducedParams(4, 10, F81.from_int(2))
    assert quad_twist(P, QuadCharParams(1, 0)) == P
    assert quad_twist(P, QuadCharParams(-1, 0)) == P  # (-1)^4 = 1
    assert quad_twist(P, QuadCharParams(1, 1)).H == (10 + 40) % 80
    # odd degree feels the unramified sign
    P1 = InducedParams(1, 2, F5.from_int(2))
    assert int(quad_twist(P1, QuadCharParams(-1, 0)).Lam) == 3


def test_lemma1_examples():
    assert lemma1_classify(InducedParams(4, 39, F5.one())) == 3
    assert lemma1_classify(InducedParams(4, 26, F5.one())) is None  # not primitive
    assert lemma1_classify(InducedParams(4, 13 * 4, F5.one())) is None
    assert lemma1_classify(InducedParams(4, 1, F5.one())) is None  # not invariant
    with pytest.raises(ValueError, match="incomparable"):
        lemma1_classify(InducedParams(2, 1, F5.one()))


def test_invariance_congruence():
    # the closed-form solution set against the half twist applied to every exponent
    for p in (3, 5, 7):
        one = field_make(p).one()
        half = QuadCharParams(1, (p - 1) // 2)
        fixed = set()
        for H in range(1, p ** 4 - 1):
            P = InducedParams(4, H, one)
            if iso_test(quad_twist(P, half), P):
                fixed.add(H)
        assert half_twist_exponents(p) == fixed, p


def lemma1_oracle(P):
    """lemma1_classify by its definition: for a primitive P fixed by the half
    twist, the least odd h' in 3..2p-1 whose window parameter has a tame
    twist isomorphic to P; None otherwise."""
    p = P.spec.p
    if P.H == 0 or not primitive(P.H, 4, p):
        return None
    if not iso_test(quad_twist(P, QuadCharParams(1, (p - 1) // 2)), P):
        return None
    for hp in range(3, 2 * p, 2):
        window = InducedParams(4, (p * p + 1) // 2 * hp, P.Lam)
        if any(iso_test(tame_twist(window, a), P) for a in range(p - 1)):
            return hp
    return None


def test_lemma1_matches_its_definition():
    for p in (3, 5, 7, 11, 13):
        one = field_make(p).one()
        for H in range(p ** 4 - 1):
            P = InducedParams(4, H, one)
            assert lemma1_classify(P) == lemma1_oracle(P), (p, H)


def test_lemma2_exhaustive():
    # p = 3 is acceptance criterion 7
    assert lemma2_law(F5, range(1, 2 * (5 ** 4 - 1) + 1, 2)) == 5 ** 4 - 1


def reference_lemma2_reduce(h, p):
    """lemma2_reduce by base-p digits, as first written: renormalize mod
    2(p^2 - 1); strip the p^2 digit with a half twist; choose the unique a
    making the middle digit 0 or 1; repair a negative low digit with
    +2(p+1) and, in the leftover -1 case, the Frobenius intertwining
    (2p+1 ~ p+2); finally send h' = 1 to p."""
    if h % 2 == 0:
        raise ValueError("odd required")
    a_total = 0
    h = h % (2 * (p * p - 1))
    h0, h1, h2 = h % p, (h // p) % p, h // (p * p)
    if h2 == 1:
        a_total += (p - 1) // 2
        h -= p * p - 1
        h0, h1 = h % p, h // p
    a = h1 // 2
    h1p = h1 - 2 * a
    h0p = h0 - 2 * a
    a_total += a
    hp = h0p + p * h1p
    if h1p == 0 and h0p < 0:
        a_total -= 1
        hp = h0p + 2 * (p + 1)
        if h0p == -1:
            hp = p + 2
    if hp == 1:
        hp = p
    if hp % 2 == 0 or not 3 <= hp <= 2 * p - 1:
        raise AssertionError(f"reduction of {h} left the window: {hp}")
    return a_total % (p - 1), hp


def test_lemma2_matches_the_digit_reduction():
    for p in (3, 5, 7, 11, 13, 17):
        bound = 6 * (p * p - 1)
        for h in range(1 - bound, bound, 2):
            assert lemma2_reduce(h, p) == reference_lemma2_reduce(h, p), (p, h)
    rng = random.Random(20)
    for p in (101, 1009, 999999937):
        for _ in range(2000):
            h = 2 * rng.randrange(-10 ** 30, 10 ** 30) + 1
            assert lemma2_reduce(h, p) == reference_lemma2_reduce(h, p), (p, h)


def test_lemma2_examples():
    assert lemma2_reduce(1, 3)[1] == 3
    a, hp = lemma2_reduce(15, 3)
    assert hp == 5
    with pytest.raises(ValueError, match="odd required"):
        lemma2_reduce(4, 3)


def test_lfield_param():
    assert lfield_param(F3, 1).H == 5
    assert lfield_param(F5, 3).H == 39
    with pytest.raises(ValueError, match="reducible for even exponent"):
        lfield_param(F3, 2)
    # odd parameters are twist-invariant irreducibles
    for h in (1, 3, 5, 7):
        P = lfield_param(F5, h)
        assert lemma1_classify(P) is not None


def test_dual():
    P = InducedParams(4, 39, F5.from_int(2))
    assert dual_params(P).H == (624 - 39) % 624
    assert dual_params(dual_params(P)) == P
    assert dual_params(P).Lam == F5.from_int(2).inv()


def test_serialization():
    P = InducedParams(4, 39, F81.elem((1, 2, 0, 1)))
    assert params_from_json({"n": 4, "H": 39, "Lam": elem_to_json(P.Lam)}, F81) == P


@pytest.mark.parametrize("n", [0, -1])
def test_induced_params_refuses_a_degree_below_one(n):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        InducedParams(n, 3, F5.one())


# The parameter algebra as it stood before the twists became derived records
# over cached Frobenius powers: the orbit as a set of powers, every record
# built by the public constructor, negation coefficient by coefficient.
def ref_orbit(H, n, p):
    mod = p ** n - 1
    return {H * p ** i % mod for i in range(n)}


def ref_canonicalize(P):
    H = min(ref_orbit(P.H, P.n, P.spec.p))
    return P if H == P.H else InducedParams(P.n, H, P.Lam)


def ref_iso_test(P1, P2):
    if P1.n != P2.n or P1.spec != P2.spec:
        raise ValueError("incomparable")
    return P1.Lam == P2.Lam and P2.H in ref_orbit(P1.H, P1.n, P1.spec.p)


def ref_quad_twist(P, eps):
    spec, Lam = P.spec, P.Lam
    if eps.unram != 1 and P.n % 2:
        Lam = spec.elem([-c for c in Lam.coeffs])
    return InducedParams(P.n, P.H + eps.tame * ((spec.p ** P.n - 1) // (spec.p - 1)), Lam)


def ref_tame_twist(P, a):
    p = P.spec.p
    return InducedParams(P.n, P.H + a * ((p ** P.n - 1) // (p - 1)), P.Lam)


def ref_meta_ind(s_char, base):
    return MetaPhiGamma(s_char, base, tuple(ref_quad_twist(base, q) for q in coset_quad_chars(s_char.spec.p)))


def assert_same_record(got, want):
    assert type(got) is type(want) and got == want and hash(got) == hash(want)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_parameter_algebra_matches_the_reference(p):
    rng = random.Random(p)
    eps_all = [QuadCharParams(u, t) for u in (1, -1) for t in (0, (p - 1) // 2)]
    for spec in (field_make(p), field_make(p, 2)):
        for n in (1, 2, 3, 4):
            mod = p ** n - 1
            # negative H and H >= p^n - 1 among the drawn exponents
            edges = [0, 1, -1, mod - 1, mod, mod + 1, -mod, 2 * mod + 3]
            for H in edges + [rng.randrange(-3 * mod, 3 * mod) for _ in range(12)]:
                Lam = spec.elem([rng.randrange(p) for _ in range(spec.m)])
                if Lam.is_zero():
                    Lam = spec.one()
                assert orbit(H, n, p) == ref_orbit(H, n, p)
                P = InducedParams(n, H, Lam)
                got, want = canonicalize(P), ref_canonicalize(P)
                assert_same_record(got, want)
                assert (got is P) == (want is P) and (n > 1 or got is P)
                conjugate = InducedParams(n, H * p ** rng.randrange(n), Lam)
                other = InducedParams(n, rng.randrange(-mod, 2 * mod), rng.choice([Lam, spec.one()]))
                for Q in (P, conjugate, other, canonicalize(other)):
                    assert iso_test(P, Q) == ref_iso_test(P, Q) == iso_test(Q, P)
                for eps in eps_all:
                    assert_same_record(quad_twist(P, eps), ref_quad_twist(P, eps))
                for a in (0, 1, -1, p - 1, rng.randrange(-3 * p, 3 * p)):
                    assert_same_record(tame_twist(P, a), ref_tame_twist(P, a))
                s_char = SChar(Lam * Lam, rng.randrange(p))
                got, want = meta_ind(s_char, P), ref_meta_ind(s_char, P)
                assert_same_record(got, want)
                for a, b in zip(got.summands, want.summands):
                    assert_same_record(a, b)
