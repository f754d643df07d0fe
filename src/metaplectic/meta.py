"""Genuine-representation parameters and both directions of the
supersingular / twist-invariant-Galois correspondence.

Irreducible genuine representations are stored as finite parameter
records: a supersingular is (r, eta) with 0 <= r <= p-1, r != (p-1)/2
and a tame twist eta; a principal series is its pair of tame characters
(chi1, chi2).  No infinite-dimensional space is ever materialized; the
image formulas are parameter-to-parameter.

The image of a supersingular (r, eta) has underlying degree-4 induced
parameter with exponent (p^2+1)/2 * s' (s' = p - 2r or 3p - 2r), tame
twist r - 1, and unramified value (-1)^{(p-1)/2} (r!)^2 (r'!)^2, all
shifted by eta.  Over a fixed coefficient field the unramified value of
an attainable parameter therefore ranges over a coset of fourth powers;
the enumeration of qualifying Galois parameters carries that norm
condition (an unattainable value becomes attainable after enlarging the
field), and invert_ss_image reports exactly this failure mode.

Neither direction of the correspondence enumerates field elements.
Write n = q - 1 and index = gcd(4, n), and fix a generator g of F_q^*
with eta(p) = g^k and Lam = g^l.  Then eta(p)^4 is 4k mod n, which runs
over the multiples of index, and the image's Lam is lam0(r) eta(p)^4.
So a Lam is attainable at weight r exactly when Lam / lam0(r) is an
index-th power, that is when Lam and lam0(r) agree after raising to the
power n/index: the classes of one class head (r, tau) map onto one such
power class of Lam values.  lam0(r) lies in F_p, so its power class is
one modular power in F_p, and verify_bijection visits each (r, tame) and
each canonical Galois exponent once, never k, l or g; invert_ss_image
solves the tame shift from the Frobenius orbit and eta(p) as a fourth
root.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .coeff import factorial_in, nth_roots
from .chars import SChar, TameChar, char_restrict_S
from .classify import ss_partner
from .galois import (
    InducedParams,
    canonicalize,
    frobenius,
    half_twist_exponents,
    lemma1_classify,
    lemma1_window,
    primitive,
    quad_twist,
)
from .metagroup import chi_z
from .record import Record

__all__ = [
    "SSRep",
    "MetaPhiGamma",
    "irr_iso_test",
    "meta_ind",
    "meta_irred_test",
    "ps_image",
    "ss_image",
    "invert_ss_image",
    "verify_bijection",
    "enumerate_tame_chars",
    "least_nonsquare_unit",
    "coset_quad_chars",
    "ss_class_key",
]


class SSRep(Record):
    """A genuine supersingular parameter (r, eta)."""

    __slots__ = ("spec", "r", "eta")

    def __init__(self, spec, r, eta):
        p = spec.p
        if not 0 <= r <= p - 1:
            raise ValueError("parameter out of range")
        if r == (p - 1) // 2:
            raise ValueError("excluded parameter")
        self.spec = spec
        self.r = r
        self.eta = eta

    @classmethod
    def plain(cls, spec, r):
        return cls(spec, r, TameChar.trivial(spec))


def _class_head(p, r, tame):
    """The (r, tau) part of a supersingular class key, tau = tame mod (p-1)/2:
    the lesser of (r, tau) and its partner (partner(r), tau + r).  The
    fourth power w4 of eta(p) completes the key and is the same on both
    sides of the identification."""
    half = (p - 1) // 2
    tau = tame % half
    partner = ss_partner(p, r)
    if partner == half:  # r = 0 or p-1
        return (r, tau)
    return min((r, tau), (partner, (tau + r) % half))


def ss_class_key(rep):
    """A canonical isomorphism-class key for a supersingular parameter.

    The class of (r, eta) is determined by r, the tame exponent mod
    (p-1)/2 and the fourth power of eta(p), up to the single partner
    identification (r, tau) ~ (partner(r), tau + r): the key is
    _class_head(p, r, tame) + (w4,), with w4 the coefficient vector of
    eta(p)^4.  The w4 run over the index-th powers of F_q^*, index =
    gcd(4, q-1), so verify_bijection counts (q-1)/index classes per head
    without forming any w4."""
    return _class_head(rep.spec.p, rep.r, rep.eta.tame) + ((rep.eta.unram ** 4).coeffs,)


def irr_iso_test(a, b):
    """Isomorphism of supersingular parameters: equal class keys (the
    r-partner rule with the tame and fourth-power conditions)."""
    if a.spec != b.spec:
        raise ValueError("incomparable")
    return ss_class_key(a) == ss_class_key(b)


def admissible(p):
    """The supersingular weights r in 0..p-1, without the excluded (p-1)/2."""
    return [r for r in range(p) if r != (p - 1) // 2]


def least_nonsquare_unit(p):
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError("no nonsquare unit (p must be odd)")


@lru_cache(maxsize=None)
def coset_quad_chars(p):
    """The quadratic characters chi_g for the fixed coset representatives
    {1, u0, p, u0 p} of the squares, u0 the least positive nonsquare.

    Memoized per p; the tuple is shared, and like every record its
    entries are never changed after construction."""
    u0 = least_nonsquare_unit(p)
    return tuple(chi_z(g, p) for g in (1, u0, p, u0 * p))


class MetaPhiGamma(Record):
    """A metaplectic module in parameter form: the character of the
    squares acting, a base InducedParams, and its orbit under the 4
    quadratic twists (indexed by the coset representatives {1, u0, p, u0 p})."""

    __slots__ = ("s_char", "base", "summands")

    def __init__(self, s_char, base, summands):
        self.s_char = s_char
        self.base = base
        self.summands = summands


def meta_ind(s_char, base):
    """Induction from the squares: the 4 coset summands of quadratic twists."""
    summands = tuple(quad_twist(base, q) for q in coset_quad_chars(s_char.spec.p))
    return MetaPhiGamma(s_char, base, summands)


def meta_irred_test(M):
    """Irreducibility of a metaplectic parameter object.

    True when the 4 twist summands are pairwise non-isomorphic, or when
    the orbit collapses onto a single absolutely irreducible base.
    """
    keys = [canonicalize(s).sort_key() for s in M.summands]
    if len(set(keys)) == len(keys):
        return True
    base = M.base
    return base.H != 0 and primitive(base.H, base.n, base.spec.p)


def ps_image(chi1, chi2):
    """The metaplectic image of the genuine principal series of (chi1, chi2).

    The S-action is (chi1 chi2)|_S; the base is the rank-1 parameter of
    chi2 and the summands are its 4 quadratic twists, so the underlying
    degree-4 object is the sum of the characters chi2 * epsilon.
    """
    s_char = char_restrict_S(chi1.mul(chi2))
    base = InducedParams(1, chi2.tame, chi2.unram)
    return meta_ind(s_char, base)


def ss_lam0(spec, r):
    """The closed-form fourth power of the unramified value at (r, eta = 1)."""
    p = spec.p
    sign = spec.from_int((-1) ** ((p - 1) // 2 % 2))
    return sign * factorial_in(spec, r) ** 2 * factorial_in(spec, ss_partner(p, r)) ** 2


def ss_sprime(p, r):
    half = (p - 1) // 2
    return p - 2 * r if r < half else 3 * p - 2 * r


def _ss_exponent(p, r, tame):
    """The degree-4 exponent of the image of (r, omega^tame * unramified),
    not yet reduced mod p^4 - 1: (p^2+1)/2 * s' with the tame twist
    r - 1 + tame absorbed."""
    step = (p ** 4 - 1) // (p - 1)
    return (p * p + 1) // 2 * ss_sprime(p, r) + (r - 1 + tame) * step


def ss_image(rep):
    """The metaplectic image of a supersingular parameter (r, eta).

    Base parameter: degree 4, exponent (p^2+1)/2 * s' with the tame
    twist r - 1 + eta absorbed, unramified value lam0(r) eta(p)^4; the
    S-character is omega^r * eta^2 restricted to S.
    """
    spec, r, eta = rep.spec, rep.r, rep.eta
    u4 = eta.unram ** 4
    base = InducedParams(4, _ss_exponent(spec.p, r, eta.tame), ss_lam0(spec, r) * u4)
    s_char = SChar(u4, r + 2 * eta.tame)
    return meta_ind(s_char, base)


def _r_of_hprime(p, hprime):
    return (p - hprime) // 2 if hprime <= p else (3 * p - hprime) // 2


def enumerate_tame_chars(spec):
    p = spec.p
    for tame in range(p - 1):
        for u in spec.nonzero_elements():
            yield TameChar(u, tame)


def invert_ss_image(M):
    """Recover a supersingular parameter from a degree-4 Galois parameter.

    Classifies the twist-invariant exponent to get h' (hence r), then
    solves for the first eta, in enumerate_tame_chars order, whose image
    is M.  The image exponent depends only on the tame part of eta: a
    conjugate x of M.H whose window split (a, h') (galois.lemma1_window)
    reads h' is the image of the tame (a - r + 1) mod (p - 1), and that part is
    the least of these.  The image's Lam is lam0(r) eta(p)^4, so eta(p)
    is the least fourth root of Lam / lam0(r) in counting order (index
    sum c_j p^j, not the lexicographic order of nth_roots).  Raises when
    the parameter is not attainable: either it is not
    twist-invariant-irreducible, or its unramified value is not a norm
    from the field (enlarge m).
    """
    if isinstance(M, MetaPhiGamma):
        M = M.base
    spec = M.spec
    hprime, splits = lemma1_window(M)
    if hprime is None:
        raise ValueError("not twist-invariant-irreducible")
    p = spec.p
    r = _r_of_hprime(p, hprime)
    tame = min((a - r + 1) % (p - 1) for a, hp in splits if hp == hprime)
    roots = nth_roots(M.Lam / ss_lam0(spec, r), 4)
    if not roots:
        raise ValueError("lambda not a norm in field")
    u = min(roots, key=lambda y: y.coeffs[::-1])
    return SSRep(spec, r, TameChar(u, tame))


def verify_bijection(spec):
    """Solve both sides of the supersingular correspondence and report.

    Both sides run in the coordinates of the module docstring, n = q - 1
    and index = gcd(4, n); Lam^(n/index) labels the class of Lam modulo
    index-th powers.  A class head (r, tau) (_class_head, the key of
    ss_class_key without w4) carries one class per w4 = eta(p)^4, n/index
    of them, and maps them onto the Lam of the class of lam0(r), each over
    H, the canonical exponent of (r, tame).  A canonical Galois exponent H
    (a primitive solution of the half-twist congruences,
    half_twist_exponents) qualifies with exactly the Lam of the class of
    lam0(r(H)).  Two classes are equal or disjoint, so the report is read
    off one (H, label) per head, from every (r, tame), and one per
    canonical H, with label = lam0(r)^(n/index), one modular power in
    F_p: no eta or Lam is visited.  The report carries the class counts,
    injectivity and surjectivity of the forward map, both up-to-twist
    counts and the (r, h') pair table.
    """
    p = spec.p
    n = spec.order - 1
    index = gcd(4, n)
    mod, powers = frobenius(4, p)
    step = mod // (p - 1)
    weights = admissible(p)
    label = {r: pow(int(ss_lam0(spec, r)), n // index, p) for r in weights}

    def least(x):  # the canonical exponent: the least of the Frobenius orbit
        return min([x * q % mod for q in powers])

    # class head -> (canonical H, label of r) of its first member
    heads = {}
    consistent = True
    for r in weights:
        for tame in range(p - 1):
            img = (least(_ss_exponent(p, r, tame)), label[r])
            if heads.setdefault(_class_head(p, r, tame), img) != img:
                consistent = False
    images = set(heads.values())
    injective = len(images) == len(heads)

    canonical_H = {least(H) for H in half_twist_exponents(p) if primitive(H, 4, p)}
    qualifying = set()
    for H in canonical_H:
        hprime = lemma1_classify(InducedParams(4, H, spec.one()))
        if hprime is None:
            raise AssertionError(f"canonical exponent {H} has no window exponent")
        qualifying.add((H, label[_r_of_hprime(p, hprime)]))
    surjective = images == qualifying

    # up-to-twist classes on the Galois side: the tame shift commutes with
    # Frobenius (p * step == step) and keeps the congruences and primitivity,
    # so it permutes the canonical exponents; each cycle is one class
    seen = set()
    twist_classes = 0
    for x in canonical_H:
        if x in seen:
            continue
        twist_classes += 1
        while x not in seen:
            seen.add(x)
            x = least(x + step)
    # on the supersingular side, r up to the partner identification
    ss_twist_classes = len({_class_head(p, r, 0)[0] for r in weights})

    one = spec.one()
    pairs = sorted(
        (r, lemma1_classify(InducedParams(4, _ss_exponent(p, r, 0), one))) for r in weights
    )

    return {
        "schema": 1,
        "p": p,
        "m": spec.m,
        "ss_classes": len(heads) * (n // index),
        "galois_classes": len(canonical_H) * (n // index),
        "galois_classes_all_lam": len(canonical_H) * n,
        "lam_coset_index": index,
        "injective": injective,
        "surjective": surjective,
        "class_function_consistent": consistent,
        "up_to_twist_ss": ss_twist_classes,
        "up_to_twist_galois": twist_classes,
        "pairs": pairs,
    }
