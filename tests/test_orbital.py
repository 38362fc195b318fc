import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hensel.lattices import (
    GammaElement,
    contains,
    enumerate_window,
    grading,
    is_stable,
)
from hensel.orbital import (
    OrbitalReport,
    _inclusion_counts,
    closed_form_count,
    count_stable,
    shell_count,
    twisted_count,
    verify_fundamental_lemma,
)
from hensel.padics import INFINITY
from hensel.primes import smallest_nonresidue
from test_lattices import lattice_from_xy, window_class_count


def gamma(p, a, b, delta=None, prec=30):
    if delta is None:
        delta = smallest_nonresidue(p)
    return GammaElement.from_rationals(p, a, b, delta, prec)


# -- the direct oracle ---------------------------------------------------------------


def _window_precision(m: int, gamma: GammaElement) -> int:
    """Digits needed for membership solves in a radius-m window, with guard.

    Valuations that have to be read off during the triangular solves are
    bounded by a small multiple of the window radius; the budget below keeps
    every decision inside known digits (a failure raises PrecisionError
    rather than guessing, so an insufficient budget is loud, not wrong).
    """
    spread = 0
    if gamma.val_a is not INFINITY:
        spread = max(spread, -min(0, gamma.val_a))
    spread = max(spread, -min(0, gamma.val_b))
    return 4 * m + 12 + 2 * spread


def _direct_counts(gamma: GammaElement, m: int, prec: int) -> dict:
    """Stable classes per grading class, by the full membership test on
    every class of the window."""
    counts = {0: 0, 1: 0}
    for lat in enumerate_window(gamma.p, m, prec):
        if is_stable(lat, gamma):
            counts[grading(lat)] += 1
    return counts


# -- counting -------------------------------------------------------------------


def test_count_total_vb1():
    counts = count_stable(gamma(3, 1, 3), m=2)
    assert sum(counts.values()) == 5  # 1 + 1 + 3, shell by shell


def test_count_total_vb2():
    counts = count_stable(gamma(3, 1, 9), m=3)
    assert sum(counts.values()) == 17  # 1 + 1 + 3 + 3 + 9


def test_count_vanishes_without_unit_norm():
    g = gamma(3, Fraction(1, 3), 3)  # val(a) < 0: not in the unit group
    for m in (1, 2, 3):
        assert count_stable(g, m) == {0: 0, 1: 0}


def test_twisted_examples():
    assert twisted_count(gamma(3, 1, 3), 1, m=2) == -3
    assert twisted_count(gamma(3, 1, 9), 1, m=3) == 9
    assert twisted_count(gamma(5, 1, 5), 1, m=2) == -5


def test_twist_zero_equals_untwisted():
    g = gamma(3, 1, 9)
    counts = count_stable(g, m=3)
    assert twisted_count(g, 0, m=3) == counts[0] + counts[1]


def test_closed_form_examples():
    assert closed_form_count(3, 1, 1) == -3  # -1 + 1 - 3 over the shells
    assert closed_form_count(3, 2, 1) == 9  # 1 - 1 + 3 - 3 + 9
    assert closed_form_count(3, 1, 0) == 5
    assert closed_form_count(3, 2, 0) == 17
    with pytest.raises(ValueError):
        closed_form_count(3, 0, 1)


def test_shell_counts_pair_up():
    # consecutive shells share the same size, which drives the telescoping
    for p in (3, 5, 7):
        for vb in (1, 2, 3):
            for w in range(-vb, vb):
                if (vb - w) % 2 == 1:
                    assert shell_count(p, w, vb) == shell_count(p, w + 1, vb)
            assert shell_count(p, -vb, vb) == p**vb


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("vb", [1, 2])
@pytest.mark.parametrize("kappa", [0, 1])
def test_counts_match_closed_form(p, vb, kappa):
    g = gamma(p, 1, p**vb)
    assert twisted_count(g, kappa, m=vb + 1) == closed_form_count(p, vb, kappa)


# -- the counting engine agrees with the direct oracle ----------------------------


def direct(g, m):
    """The direct oracle: the full membership test on every class."""
    return _direct_counts(g, m, _window_precision(m, g))


@pytest.mark.parametrize(
    "p,va,vb,m",
    [(3, 0, 1, 2), (3, 0, 2, 3), (3, 0, 3, 4), (5, 0, 1, 2), (7, 0, 1, 2),
     (3, -1, 1, 2), (5, 1, 1, 2), (3, 0, 1, 3)],
)
def test_direct_and_pruned_scans_agree(p, va, vb, m):
    a = Fraction(1, p**-va) if va < 0 else Fraction(p**va)
    g = gamma(p, a, p**vb)
    assert direct(g, m) == count_stable(g, m)


def test_pruned_scan_agrees_on_nonsquare_choice():
    # delta = 2 vs a unit-times-square variant for p = 7 (3 is the smallest)
    g1 = gamma(7, 1, 7, delta=3)
    g2 = gamma(7, 1, 7, delta=5)
    assert count_stable(g1, 2) == count_stable(g2, 2) == direct(g1, 2) == direct(g2, 2)


@pytest.mark.parametrize(
    "p,a,b,delta,m",
    [
        (3, Fraction(3), Fraction(1), 2, 2),  # b a unit, a above it
        (3, Fraction(1), Fraction(1), 2, 2),  # both units
        (3, Fraction(0), Fraction(3), 2, 2),  # a exactly zero
        (3, Fraction(0), Fraction(1), 2, 2),
        (5, Fraction(26), Fraction(10), 3, 2),  # val(a) = 0 through 25 + 1
        (3, Fraction(2, 5), Fraction(3), 2, 2),  # fractional unit a
        (3, Fraction(1), Fraction(9, 5), 2, 3),  # fractional b of valuation 2
    ],
)
def test_scan_routes_agree_on_edge_elements(p, a, b, delta, m):
    g = gamma(p, a, b, delta=delta, prec=40)
    assert direct(g, m) == count_stable(g, m)


def test_unit_b_fixes_exactly_one_class():
    # with b a unit the element generates the maximal quadratic order, and
    # only the class of the standard lattice survives
    for p in (3, 5):
        for a in (0, 1, p):
            counts = count_stable(gamma(p, a, 1), m=2)
            assert counts == {0: 1, 1: 0}


def test_counts_depend_only_on_valuations():
    base = count_stable(gamma(3, 1, 9), m=3)
    assert count_stable(gamma(3, Fraction(2, 5), Fraction(9, 5)), m=3) == base
    assert count_stable(gamma(3, 7, 18), m=3) == base


# the largest radius whose window the direct oracle scans: about 3,000 classes
ORACLE_RADIUS = {3: 3, 5: 2, 7: 1, 11: 1, 13: 1}


@st.composite
def elements(draw):
    """(p, a, b, delta, m) from the unit, vanishing and outside regimes."""
    p = draw(st.sampled_from(sorted(ORACLE_RADIUS)))
    m = draw(st.integers(0, ORACLE_RADIUS[p]))
    assert window_class_count(p, m) <= 3000

    def unit():
        n = draw(st.integers(-300, 300).filter(lambda n: n % p))
        d = draw(st.integers(1, 60).filter(lambda d: d % p))
        return Fraction(n, d)

    regime = draw(st.sampled_from(("unit", "vanishing", "outside")))
    if regime == "unit":
        va, vb = 0, draw(st.integers(1, 3))
    elif regime == "vanishing":
        va, vb = draw(
            st.sampled_from(
                ((-1, 1), (1, 1), (2, 1), (1, 2), (-1, 2), (0, -1),
                 (-2, 1), (-3, 1), (-2, 2))
            )
        )
    else:
        va, vb = draw(st.integers(0, 2)), 0
    a = unit() * Fraction(p) ** va
    if draw(st.booleans()) and va > 0:
        a = Fraction(0)  # a exactly zero, val(a) infinite
    b = unit() * Fraction(p) ** vb
    delta = draw(
        st.integers(2, 400).filter(lambda d: pow(d, (p - 1) // 2, p) == p - 1)
    )
    return p, a, b, delta, m


def inclusion_oracle(g, m):
    """Classes of the window with gamma(L) <= L, by the membership test."""
    counts = {0: 0, 1: 0}
    for lat in enumerate_window(g.p, m, _window_precision(m, g)):
        b1, b2 = lat.basis(g.b.precision)
        if contains(lat, g.apply(b1)) and contains(lat, g.apply(b2)):
            counts[grading(lat)] += 1
    return counts


@settings(max_examples=60, deadline=None)
@given(elements())
def test_engine_matches_direct_oracle(case):
    p, a, b, delta, m = case
    g = gamma(p, a, b, delta=delta, prec=40)
    assert count_stable(g, m) == direct(g, m)
    if g.det_valuation != 0:
        # count_stable returns zeros here without counting; with val(a) < 0
        # one linear condition can cancel at a leading digit, which the
        # inclusion counts must still settle stratum by stratum
        assert _inclusion_counts(p, g.val_a, g.val_b, m) == inclusion_oracle(g, m)


@pytest.mark.parametrize("p", [101, 1009, 10007])
def test_large_p_matches_closed_form(p):
    start = time.perf_counter()
    for vb in (1, 2, 3):
        g = gamma(p, 1, p**vb)
        m = (vb + 1) // 2
        for kappa in (0, 1):
            assert twisted_count(g, kappa, m) == closed_form_count(p, vb, kappa)
        assert count_stable(g, m) == count_stable(g, m + 1)
    # the engine's work does not grow with p: a scan that visits all p - 1
    # leading digits of every stratum takes seconds at p = 10007
    assert time.perf_counter() - start < 1.0


# -- invariance properties ---------------------------------------------------------


def test_saturation():
    g = gamma(3, 1, 9)
    assert count_stable(g, 3) == count_stable(g, 4)


def test_delta_independence():
    for p, vb in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        nonsquares = [d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1]
        baseline = None
        for d in nonsquares:
            counts = count_stable(gamma(p, 1, p**vb, delta=d), vb + 1)
            if baseline is None:
                baseline = counts
            assert counts == baseline


def test_precision_independence():
    g_lo = gamma(3, 1, 9, prec=26)
    g_hi = gamma(3, 1, 9, prec=52)
    assert _direct_counts(g_lo, 3, 26) == _direct_counts(g_hi, 3, 52)


def test_sign_structure():
    for p in (3, 5):
        for vb in (1, 2, 3):
            t = twisted_count(gamma(p, 1, p**vb), 1, m=vb + 1)
            assert abs(t) == p**vb
            assert t == (-1) ** vb * abs(t)


def xy_is_stable(vb: int, vy: int, vx) -> bool:
    """Oracle: the stability inequality pair for L(x, y) in the unit-norm
    regime, -vb <= val(y) <= vb and val(x) >= (val(y) - vb)/2 (vx may be
    INFINITY)."""
    return -vb <= vy <= vb and 2 * vx >= vy - vb


def test_stability_matches_inequality_pair():
    # membership route vs the valuation inequalities, on the xy family
    p, vb = 3, 2
    g = gamma(p, 1, p**vb)
    for w in range(-4, 5):
        for vx in list(range(-4, 1)) + [INFINITY]:
            x = Fraction(1, p**-vx) if vx is not INFINITY else Fraction(0)
            lat = lattice_from_xy(p, x, Fraction(p) ** w, prec=40)
            assert is_stable(lat, g) == xy_is_stable(vb, w, vx), (w, vx)


def test_grading_split_counts_by_shell():
    # stable classes at val(y) = w land in grading class w mod 2
    p, vb = 3, 2
    g = gamma(p, 1, p**vb)
    counts = count_stable(g, vb + 1)
    expect = {0: 0, 1: 0}
    for w in range(-vb, vb + 1):
        expect[w % 2] += shell_count(p, w, vb)
    assert counts == expect


# -- the verification report -------------------------------------------------------


def test_verify_unit_regime_vb1():
    rep = verify_fundamental_lemma(3, 1, 3, 2)
    assert isinstance(rep, OrbitalReport)
    assert rep.regime == "unit"
    assert rep.twisted == -3 == rep.expected
    assert rep.saturated and rep.verdict


def test_verify_unit_regime_vb2():
    rep = verify_fundamental_lemma(3, 1, 9, 2)
    assert rep.twisted == 9 == rep.expected
    assert rep.verdict


def test_verify_vanishing_regime():
    rep = verify_fundamental_lemma(3, Fraction(1, 3), 3, 2)
    assert rep.regime == "vanishing"
    assert rep.twisted == 0 == rep.expected
    assert rep.verdict


def test_verify_vanishing_when_norm_not_unit():
    rep = verify_fundamental_lemma(3, 3, 3, 2)  # val(a), val(b) both positive
    assert rep.regime == "vanishing"
    assert rep.untwisted == 0 and rep.verdict


def test_verify_outside_regime():
    rep = verify_fundamental_lemma(3, 1, 1, 2)  # val(b) = 0
    assert rep.regime == "outside"
    assert rep.expected is None and rep.verdict is None


def test_verify_kappa_zero_uses_closed_form():
    rep = verify_fundamental_lemma(3, 1, 9, 2, kappa=0)
    assert rep.expected == 17 and rep.verdict


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_fundamental_lemma(4, 1, 3, 2)
    with pytest.raises(ValueError):
        verify_fundamental_lemma(3, 1, 0, 2)
    with pytest.raises(ValueError):
        verify_fundamental_lemma(3, 1, 3, 4)  # square delta
    with pytest.raises(ValueError):
        verify_fundamental_lemma(3, 1, 3, 2, window=-1)


def test_default_window_is_half_of_val_b_in_unit_regime():
    assert [verify_fundamental_lemma(3, 1, 3**vb, 2).window for vb in (1, 2, 3, 4)] == [
        1, 1, 2, 2
    ]
    assert verify_fundamental_lemma(3, Fraction(1, 3), 9, 2).window == 3  # vanishing
    assert verify_fundamental_lemma(3, 1, 1, 2).window == 1  # outside


def test_undersized_window_fails_saturation():
    rep = verify_fundamental_lemma(3, 1, 3, 2, window=0)
    assert rep.saturated is False
    assert rep.verdict is False
