"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (the arithmetic is exact); the runtime budgets
are asserted with the stated bounds.  Criterion 6's stated parameter set
for p = 3 includes values excluded by the classification itself (r = 1
is the excluded middle weight and r = 3 is out of range for p = 3), so
the oracle cross-check runs over every admissible r for p = 3 and
additionally over r in {0, 1, 3} for p = 5, a strict superset of any
consistent reading; see the decisions ledger.
"""

import random
import time

from metaplectic.coeff import field_make
from metaplectic.chars import char_restrict_S
from metaplectic.meta import enumerate_tame_chars
from metaplectic.phigamma import make_induced, phi_gamma_commutes
from metaplectic.selftest import (
    bijection_law,
    chi_z_law,
    cocycle_law,
    conjugation_law,
    containment_law,
    lemma2_law,
    normal_form_law,
    ps_image_law,
    psi_law,
    splitting_law,
    two_route_law,
)


def report(n, elapsed, detail):
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f} s) {detail}")


def test_criterion_1_cocycle_suite():
    t0 = time.time()
    rng = random.Random(20240501)
    for p in (3, 5):
        cocycle_law(rng, p, 5000)
        splitting_law(rng, p, 5000)
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, elapsed, "10^4 cocycle triples and 10^4 splitting pairs, p in {3,5}, exact")


def test_criterion_2_conjugation_law():
    t0 = time.time()
    rng = random.Random(20240502)
    for p in (3, 5):
        conjugation_law(rng, p, 500)
        chi_z_law(rng, p, 500)
    elapsed = time.time() - t0
    report(2, elapsed, "10^3 conjugation samples and 10^3 chi_z = Hilbert pairs, exact")


def test_criterion_3_phi_gamma_suite():
    t0 = time.time()
    rng = random.Random(20240503)
    for p, N in ((3, 60), (5, 80)):
        spec = field_make(p)
        modules = [make_induced(spec, 4, h, prec=N) for h in (5, 39)]
        for D in modules:
            for c in (2, 1 + p, 1 + p * p):
                assert phi_gamma_commutes(D, c)
        psi_law(rng, modules[0], 100)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(3, elapsed, "commutation (h in {5,39}, 3 units) + psi identities on 200 vectors")


def test_criterion_4_normalization_round_trip():
    t0 = time.time()
    rng = random.Random(20240504)
    normal_form_law(rng, (3, 5), 100, 20)
    elapsed = time.time() - t0
    report(4, elapsed, "100 seeded noisy cyclic forms reproduce the noise-free normal form")


def test_criterion_5_supersingular_closed_form():
    t0 = time.time()
    two_route_law((3, 5, 7))
    elapsed = time.time() - t0
    assert elapsed < 1
    report(5, elapsed, "cycle route equals closed form for all admissible r, p in {3,5,7}")


def test_criterion_6_simulation_oracle():
    t0 = time.time()
    containment_law([(3, r) for r in (0, 2)] + [(5, r) for r in (0, 1, 3)], 4)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(6, elapsed, "dual-Frobenius containment, K=4 digits, all admissible r at p=3 plus p=5 r in {0,1,3}")


def test_criterion_7_lemma2_exhaustive():
    t0 = time.time()
    count = lemma2_law(field_make(3), range(1, 2 * (3 ** 4 - 1) + 1, 2))
    elapsed = time.time() - t0
    assert elapsed < 10
    report(7, elapsed, f"all {count} odd exponents in [1, 2(p^4-1)] reduce with verified isomorphism")


def test_criterion_8_bijection():
    t0 = time.time()
    rep3 = bijection_law(field_make(3, 4))
    rep5 = bijection_law(field_make(5, 4))
    assert rep3["up_to_twist_ss"] == 2 and rep5["up_to_twist_ss"] == 4
    assert rep5["pairs"] == [(0, 5), (1, 3), (3, 9), (4, 7)]
    elapsed = time.time() - t0
    assert elapsed < 300
    report(
        8,
        elapsed,
        f"bijection verified at m=4: counts {rep3['ss_classes']}={rep3['galois_classes']} (p=3), "
        f"{rep5['ss_classes']}={rep5['galois_classes']} (p=5), pair table matches",
    )


def test_criterion_9_principal_series_images():
    t0 = time.time()
    spec = field_make(5, 2)
    chars = list(enumerate_tame_chars(spec))
    assert len(chars) == 96
    groups = {}
    for c1 in chars:
        for c2 in chars:
            M, keys = ps_image_law(c1, c2)
            rkey = (char_restrict_S(c1).sort_key(), char_restrict_S(c2).sort_key())
            mkey = (M.s_char.sort_key(), tuple(sorted(keys)))
            if rkey in groups:
                assert groups[rkey] == mkey
            else:
                groups[rkey] = mkey
    assert len(set(groups.values())) == len(groups)
    elapsed = time.time() - t0
    report(
        9,
        elapsed,
        f"{len(chars) ** 2} tame pairs over F_25 collapse to {len(groups)} classes by restriction only",
    )
