import random
from math import gcd

import pytest

from metaplectic.coeff import field_make
from metaplectic.chars import SChar, TameChar, char_restrict_S, quadratic_chars
from metaplectic.classify import ss_partner
from metaplectic.galois import (
    InducedParams,
    canonicalize,
    half_twist_exponents,
    iso_test,
    lemma1_classify,
    orbit,
    primitive,
)
from metaplectic.meta import (
    _r_of_hprime,
    _ss_exponent,
    SSRep,
    admissible,
    enumerate_tame_chars,
    invert_ss_image,
    irr_iso_test,
    meta_ind,
    meta_irred_test,
    ps_image,
    ss_image,
    ss_lam0,
    ss_sprime,
    verify_bijection,
)
from metaplectic.selftest import bijection_law, ps_twist_law, ss_image_law

F3 = field_make(3)
F5 = field_make(5)
F25 = field_make(5, 2)

rng = random.Random(77)


def test_ssrep_validation():
    with pytest.raises(ValueError, match="excluded parameter"):
        SSRep.plain(F5, 2)
    with pytest.raises(ValueError, match="out of range"):
        SSRep.plain(F5, 7)


def test_irr_iso_ss_brute_force():
    # the classification conditions over all tame characters with F25 values
    fixing = []
    for eta in enumerate_tame_chars(F25):
        got = irr_iso_test(SSRep(F25, 1, eta), SSRep.plain(F25, 1))
        expect = (eta.unram ** 4).is_one()  # swap partner of r=1 is r=1 at p=5
        assert got == expect
        if got:
            fixing.append(eta)
    assert len(fixing) == 16  # 4 fourth roots of unity x 4 tame exponents


def test_hecke_cokernel():
    # the constituents (r, 1) and (p-1-r, omega^r) of the lambda = 0 Hecke
    # cokernel are never isomorphic; at r = (p-1)/2 the extension splits and
    # neither constituent is a supersingular parameter
    for r in (0, 1, 3, 4):
        c1 = SSRep.plain(F5, r)
        c2 = SSRep(F5, 4 - r, TameChar(F5.one(), r))
        assert not irr_iso_test(c1, c2)
    with pytest.raises(ValueError, match="excluded parameter"):
        SSRep(F5, 2, TameChar(F5.one(), 2))


def test_meta_ind_summands():
    base = InducedParams(1, 0, F5.one())
    M = meta_ind(SChar(F5.one(), 0), base)
    keys = sorted(s.sort_key() for s in M.summands)
    expect = sorted(
        InducedParams(1, e.tame, e.unram).sort_key() for e in quadratic_chars(F5)
    )
    assert keys == expect
    assert meta_irred_test(M)


def test_meta_irred_reducible_base():
    # H = p + 1 is fixed by the Frobenius, so the degree-2 base is reducible
    # and its twists coincide in pairs
    M = meta_ind(SChar(F5.one(), 0), InducedParams(2, 6, F5.one()))
    assert len({canonicalize(s).sort_key() for s in M.summands}) == 2
    assert not meta_irred_test(M)


def test_ps_image():
    chi1 = TameChar(F25.from_int(2), 1)
    chi2 = TameChar(F25.from_int(3), 2)
    assert ps_image(chi1, chi2).s_char == char_restrict_S(chi1.mul(chi2))
    # class depends only on restriction to S
    ps_twist_law(chi1, chi2)


def test_ss_image_examples():
    M = ss_image(SSRep.plain(F5, 1))
    assert M.base.H == 39 and M.base.Lam.is_one()
    assert M.s_char == SChar(F5.one(), 1)
    M = ss_image(SSRep.plain(F5, 0))
    assert M.base.H == 533 and int(M.base.Lam) == 4


def test_ss_image_twist_compatibility():
    from metaplectic.galois import InducedParams

    eta = TameChar(F5.from_int(2), 1)
    chi = TameChar(F5.from_int(3), 2)
    M1 = ss_image(SSRep(F5, 1, eta.mul(chi)))
    M2 = ss_image(SSRep(F5, 1, eta))
    step = (5 ** 4 - 1) // 4
    assert M1.base == InducedParams(
        4, M2.base.H + chi.tame * step, M2.base.Lam * chi.unram ** 4
    )
    s2 = M2.s_char
    assert M1.s_char == SChar(s2.val_p2 * chi.unram ** 4, s2.tame + 2 * chi.tame)


def test_ss_image_lemma1_and_invariance():
    ss_image_law((3, 5, 7))


def test_invert_ss_image():
    rec = invert_ss_image(InducedParams(4, 39, F5.one()))
    assert rec.r == 1 and irr_iso_test(rec, SSRep.plain(F5, 1))
    with pytest.raises(ValueError, match="not twist-invariant-irreducible"):
        invert_ss_image(InducedParams(4, 1, F5.one()))
    with pytest.raises(ValueError, match="lambda not a norm"):
        invert_ss_image(InducedParams(4, 5, F3.one()))


@pytest.mark.parametrize("spec", [F5, field_make(3, 2)], ids=["F5", "F9"])
def test_invert_ss_image_returns_the_first_eta(spec):
    # the first eta, in enumerate_tame_chars order, whose full ss_image matches
    etas = list(enumerate_tame_chars(spec))
    for r in admissible(spec.p):
        for eta in etas:
            M = ss_image(SSRep(spec, r, eta)).base
            rec = invert_ss_image(M)
            first = next(e for e in etas if iso_test(ss_image(SSRep(spec, rec.r, e)).base, M))
            assert rec == SSRep(spec, rec.r, first)
            assert irr_iso_test(rec, SSRep(spec, r, eta))


def reference_invert_tame(M, r):
    """The tame exponent of invert_ss_image by a scan: the least t in
    0..p-2 whose weight-r image exponent lies in the Frobenius orbit of M.H."""
    p = M.spec.p
    conjugates = orbit(M.H, 4, p)
    return next(t for t in range(p - 1) if _ss_exponent(p, r, t) % (p ** 4 - 1) in conjugates)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("m", [1, 2])
def test_invert_tame_matches_the_scan(p, m):
    spec = field_make(p, m)
    for H in range(p ** 4 - 1):
        hprime = lemma1_classify(InducedParams(4, H, spec.one()))
        if hprime is None:
            continue
        r = _r_of_hprime(p, hprime)
        M = InducedParams(4, H, ss_lam0(spec, r))
        rec = invert_ss_image(M)
        assert (rec.r, rec.eta.tame) == (r, reference_invert_tame(M, r)), (p, m, H)


def test_functoriality_of_images():
    # isomorphic supersingular parameters have isomorphic images
    for _ in range(40):
        p = rng.choice([3, 5])
        spec = field_make(p, 2)
        r = rng.choice(admissible(p))
        chars = list(enumerate_tame_chars(spec))
        e1, e2 = rng.choice(chars), rng.choice(chars)
        a, b = SSRep(spec, r, e1), SSRep(spec, r, e2)
        if irr_iso_test(a, b):
            assert iso_test(ss_image(a).base, ss_image(b).base)


def test_verify_bijection_small_field():
    report = bijection_law(F3)
    assert report["up_to_twist_ss"] == 2 and report["ss_classes"] == 2


def reference_verify_bijection(spec):
    """verify_bijection by enumeration of field elements: every (r, eta)
    with eta(p) a FieldElem, keyed by the coefficient vector of eta(p)^4,
    and every (H, Lam) tested for the fourth-power norm condition by a
    power.  A test-only oracle for the exponent coordinates of the library."""
    p, q = spec.p, spec.order
    half = (p - 1) // 2
    step = (p ** 4 - 1) // (p - 1)
    weights = admissible(p)
    lam0s = {r: ss_lam0(spec, r) for r in weights}

    def partner_of(r):
        partner = ss_partner(p, r)
        return None if partner == half else partner

    def class_key(r, eta):
        tau = eta.tame % half
        w4 = (eta.unram ** 4).coeffs
        cands = [(r, tau, w4)]
        if partner_of(r) is not None:
            cands.append((partner_of(r), (tau + r) % half, w4))
        return min(cands)

    def base(r, eta):
        H = (p * p + 1) // 2 * ss_sprime(p, r) + (r - 1 + eta.tame) * step
        return InducedParams(4, H, lam0s[r] * eta.unram ** 4)

    def r_of(hprime):
        return (p - hprime) // 2 if hprime <= p else (3 * p - hprime) // 2

    class_to_image = {}
    consistent = True
    for r in weights:
        for eta in enumerate_tame_chars(spec):
            img = canonicalize(base(r, eta))
            img = (img.H, img.Lam.coeffs)
            if class_to_image.setdefault(class_key(r, eta), img) != img:
                consistent = False
    image_set = set(class_to_image.values())

    canonical_H = {min(orbit(H, 4, p)) for H in half_twist_exponents(p) if primitive(H, 4, p)}
    qualifying = set()
    for H in canonical_H:
        lam0_inv = lam0s[r_of(lemma1_classify(InducedParams(4, H, spec.one())))].inv()
        for lam in spec.nonzero_elements():
            if ((lam * lam0_inv) ** ((q - 1) // gcd(4, q - 1))).is_one():
                qualifying.add((H, lam.coeffs))

    seen = set()
    twist_classes = 0
    for x in canonical_H:
        if x not in seen:
            twist_classes += 1
            while x not in seen:
                seen.add(x)
                x = min(orbit(x + step, 4, p))
    ss_twist = {r if partner_of(r) is None else min(r, partner_of(r)) for r in weights}
    trivial = TameChar.trivial(spec)
    return {
        "schema": 1,
        "p": p,
        "m": spec.m,
        "ss_classes": len(class_to_image),
        "galois_classes": len(qualifying),
        "galois_classes_all_lam": len(canonical_H) * (q - 1),
        "lam_coset_index": gcd(4, q - 1),
        "injective": len(image_set) == len(class_to_image),
        "surjective": image_set == qualifying,
        "class_function_consistent": consistent,
        "up_to_twist_ss": len(ss_twist),
        "up_to_twist_galois": twist_classes,
        "pairs": sorted((r, lemma1_classify(base(r, trivial))) for r in weights),
    }


REFERENCE_FIELDS = [(p, m) for p in (3, 5, 7) for m in range(1, 6) if p ** m <= 343]
REFERENCE_FIELDS += [(11, 1), (13, 1), (5, 4), (3, 6), (11, 2), (13, 2), (17, 1), (19, 1)]


@pytest.mark.parametrize("p,m", REFERENCE_FIELDS, ids=[f"{p}^{m}" for p, m in REFERENCE_FIELDS])
def test_verify_bijection_matches_the_field_element_enumeration(p, m):
    spec = field_make(p, m)
    assert verify_bijection(spec) == reference_verify_bijection(spec)
