"""Parameterized mod-p Galois representations induced from unramified subfields.

A parameter (n, H, Lam) stands for the n-dimensional representation
obtained by inducing the H-th power of the level-n fundamental character
from the degree-n unramified subfield and twisting by an unramified
character; only the n-th power Lam of the unramified value is stored,
which is a complete extension-free invariant.  Tame twists are absorbed
into H through omega = (level-n character)^{(p^n-1)/(p-1)}, so the pair
(H mod p^n - 1, Lam) is a unique representation of the parameter.

Isomorphism testing is membership of one H in the Frobenius orbit of the
other together with equality of Lam; canonicalize picks the minimum of the
orbit, which is {H} at n = 1.  Both read p^n - 1 and the p^i from
frobenius, built once per (n, p).  Twists build their records in _twist.

The degree-4 window split.  Write N = p^4 - 1, half = (p^2 + 1)/2 and
step = N/(p - 1) = 2(p + 1) half, the shift of H by omega.  An exponent
x = half y, y read mod N/half = 2(p^2 - 1), splits as

    y = a 2(p + 1) + h',   0 <= a < p - 1,   0 <= h' < 2(p + 1),

so the parameter of x is the omega^a twist of that of half h'.  The
window is the odd h' in [3, 2p - 1]; of the other odd residues, 1 and
2p + 1 are Frobenius conjugates of p and p + 2 (p (2p + 1) == p + 2 mod
2(p^2 - 1)).  Every window exponent is fixed by the tame quadratic
twist, since (p^2 - 1) half h' == N/2 for odd h', and Frobenius and tame
shifts keep that congruence.
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record

__all__ = [
    "InducedParams",
    "canonicalize",
    "frobenius",
    "iso_test",
    "primitive",
    "quad_twist",
    "half_twist_exponents",
    "lemma1_classify",
    "lemma1_window",
    "lemma2_reduce",
    "lfield_param",
    "dual_params",
]


class InducedParams(Record):
    """(degree n, total exponent H mod p^n - 1, unramified value Lam = lambda^n)."""

    __slots__ = ("n", "H", "Lam")

    def __init__(self, n, H, Lam):
        if n < 1:
            raise ValueError("degree must be >= 1")
        if Lam.is_zero():
            raise ValueError("unramified value must be nonzero")
        self.n, self.H, self.Lam = n, H % (Lam.spec.p ** n - 1), Lam

    @property
    def spec(self):
        return self.Lam.spec

    def sort_key(self):
        return (self.n, self.H, self.Lam.coeffs)


@lru_cache(maxsize=None)
def frobenius(n, p):
    """(p^n - 1, (p^i)_{i<n}): the modulus of the exponents and the Frobenius powers."""
    return p ** n - 1, tuple(p ** i for i in range(n))


def orbit(H, n, p):
    """The Frobenius orbit {H p^i mod p^n - 1 : 0 <= i < n} of an exponent."""
    mod, powers = frobenius(n, p)
    return {H * q % mod for q in powers}


def canonicalize(P):
    """Replace H by the minimum of its Frobenius orbit; Lam unchanged.
    P itself when its H is that minimum already, as at n = 1."""
    n, H = P.n, P.H
    if n == 1:
        return P
    mod, powers = frobenius(n, P.Lam.spec.p)
    least = min([H * q % mod for q in powers])
    return P if least == H else InducedParams(n, least, P.Lam)


def iso_test(P1, P2):
    """Isomorphism of induced parameters: same Frobenius orbit, same Lam."""
    n, spec = P1.n, P1.Lam.spec
    if n != P2.n or (P2.Lam.spec is not spec and P2.Lam.spec != spec):
        raise ValueError("incomparable")
    mod, powers = frobenius(n, spec.p)
    return P1.Lam == P2.Lam and P2.H in [P1.H * q % mod for q in powers]


def primitive(h, n, p):
    """Whether (p^n - 1)/(p^d - 1) divides h for no proper divisor d of n."""
    if not 1 <= h <= p ** n - 2:
        raise ValueError("exponent range")
    top = p ** n - 1
    for d in range(1, n):
        if n % d == 0 and h % (top // (p ** d - 1)) == 0:
            return False
    return True


def quad_twist(P, eps):
    """Twist by a quadratic character given as QuadCharParams.

    The tame part is tame_twist by eps.tame; the unramified part
    multiplies Lam by (+-1)^n.
    """
    return _twist(P, eps.tame, -P.Lam if eps.unram != 1 and P.n % 2 else P.Lam)


def tame_twist(P, a):
    """Twist by omega^a: H shifts by a (p^n - 1)/(p - 1)."""
    return _twist(P, a, P.Lam)


def _twist(P, a, Lam):
    """The omega^a twist of the checked record P, with the nonzero value Lam:
    H is normalised as in __init__, and nothing is checked again."""
    n, p = P.n, Lam.spec.p
    mod = frobenius(n, p)[0]
    Q = object.__new__(InducedParams)
    Q.n, Q.H, Q.Lam = n, (P.H + a * (mod // (p - 1))) % mod, Lam
    return Q


def dual_params(P):
    """The dual parameter: H negates, Lam inverts."""
    return InducedParams(P.n, -P.H, P.Lam.inv())


def half_twist_exponents(p):
    """The degree-4 exponents H fixed by the tame quadratic twist: the
    solutions of

    (p^i - 1) H == (p^4 - 1)/2  mod p^4 - 1  for some 1 <= i <= 3.

    For i in {1, 2}, g = p^i - 1 divides both p^4 - 1 and the right side,
    so the solutions are H == (p^4 - 1)/(2g) mod (p^4 - 1)/g: g of them.
    i = 3 adds none: p^3 - 1 is p - 1 times the odd p^2 + p + 1, so its
    congruence has the solutions of i = 1.
    """
    mod = p ** 4 - 1
    target = mod // 2
    out = set()
    for i in (1, 2):
        g = p ** i - 1
        spacing = mod // g
        out.update(range(target // g % spacing, mod, spacing))
    return out


def window_split(y, p):
    """The window split (a, h') of y (module docstring), y read mod 2(p^2 - 1)."""
    return divmod(y % (2 * (p * p - 1)), 2 * (p + 1))


def lemma1_classify(P):
    """Classify a 4-dimensional parameter invariant under the tame quadratic twist.

    When P is primitive (hence irreducible) and invariant under twisting
    by the order-2 tame character, it is, up to twist, induced from the
    exponent (p^2 + 1)/2 * h' for an odd h' with 3 <= h' <= 2p - 1; the
    least such h' is returned (for p in {3, 5} the match is unique; for
    larger p distinct windows can be twist-equivalent, e.g. 3 and 5 at
    p = 7, and the minimum is the canonical representative).  None is
    the negative answer.
    """
    return lemma1_window(P)[0]


def lemma1_window(P):
    """(lemma1_classify(P), splits): the window splits of x/half over the
    conjugates x of P.H that half divides; none when P.H is 0 or not primitive."""
    if P.n != 4:
        raise ValueError("incomparable")
    p, H = P.Lam.spec.p, P.H
    if H == 0 or not primitive(H, 4, p):
        return None, []
    half = (p * p + 1) // 2
    splits = [window_split(x // half, p) for x in orbit(H, 4, p) if not x % half]
    return min((hp for _, hp in splits if hp % 2 and 3 <= hp < 2 * p), default=None), splits


def lemma2_reduce(h, p):
    """Reduce an odd exponent to the window [3, 2p - 1]: (a, h') from the
    window split (module docstring) of y = h, with h' = 1 and 2p + 1 sent
    to their Frobenius conjugates p and p + 2.  The induced parameter of
    (p^2+1)/2 * h is the omega^a twist of that of (p^2+1)/2 * h'.
    """
    if h % 2 == 0:
        raise ValueError("odd required")
    a, hp = window_split(h, p)
    return a, p if hp == 1 else p + 2 if hp == 2 * p + 1 else hp


def lfield_param(spec, h):
    """The degree-4 parameter of inducing the h-th power from the ramified
    quadratic-over-quadratic subfield; defined for odd h only."""
    if h % 2 == 0:
        raise ValueError("reducible for even exponent")
    p = spec.p
    return InducedParams(4, (p * p + 1) // 2 * h % (p ** 4 - 1), spec.one())
