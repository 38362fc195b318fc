import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hensel.lattices import (
    GammaElement,
    Lattice2,
    _window_strata,
    canonicalize,
    contains,
    enumerate_window,
    grading,
    is_stable,
)
from hensel.padics import PadicScalar, from_rational


def frac_scalar(q, p, prec=20):
    q = Fraction(q)
    return from_rational(q.numerator, q.denominator, p, prec)


def vec(p, a, b, prec=20):
    return (frac_scalar(a, p, prec), frac_scalar(b, p, prec))


# -- lattice constructors and the class count, shared with test_orbital ----------


def standard_lattice(p: int) -> Lattice2:
    """L0 = Z_p e1 + Z_p e2."""
    return Lattice2(p, 0, 0, PadicScalar.zero(p))


def lattice_from_xy(p: int, x, y, prec: int) -> Lattice2:
    """The lattice Z_p e1 + Z_p (x e1 + y e2) for rational x, y (y != 0)."""
    return canonicalize(vec(p, 1, 0, prec), vec(p, x, y, prec))


def shifted(lat: Lattice2, h: int) -> Lattice2:
    """The homothetic lattice p^h L."""
    return Lattice2(lat.p, lat.alpha + h, lat.beta + h, lat.offdiag.shift(h))


def homothety_normalize(lat: Lattice2) -> Lattice2:
    """Scale by a power of p so that min(alpha, beta, val(offdiag)) = 0."""
    m = min(lat.alpha, lat.beta, lat.offdiag.valuation)
    return lat if m == 0 else shifted(lat, -m)


def window_class_count(p: int, m: int) -> int:
    """Number of homothety classes meeting the window of radius m."""
    return sum(size for *_, size in _window_strata(p, m))


# -- canonical form ------------------------------------------------------------


def test_canonicalize_standard_basis():
    L = canonicalize(vec(3, 1, 0), vec(3, 0, 1))
    assert (L.alpha, L.beta) == (0, 0)
    assert L.offdiag.is_zero
    assert L == standard_lattice(3)


def test_canonicalize_worked_example():
    # basis {e1, (1/3) e1 + (1/9) e2}: alpha = 0, beta = -2, offdiag = 1/3
    L = canonicalize(vec(3, 1, 0), vec(3, Fraction(1, 3), Fraction(1, 9)))
    assert (L.alpha, L.beta) == (0, -2)
    assert L.offdiag.exact_value == Fraction(1, 3)


def test_canonicalize_is_basis_independent():
    p = 5
    v1, v2 = vec(p, 7, 10), vec(p, Fraction(2, 5), 3)
    L = canonicalize(v1, v2)
    # recombine: swap, add multiples, scale by units
    w1 = (v1[0] + v2[0] * frac_scalar(3, p), v1[1] + v2[1] * frac_scalar(3, p))
    w2 = (v2[0] * frac_scalar(-7, p), v2[1] * frac_scalar(-7, p))
    assert canonicalize(w2, w1) == L


def test_canonicalize_rejects_dependent_vectors():
    with pytest.raises(ValueError):
        canonicalize(vec(3, 1, 2), vec(3, 2, 4))
    with pytest.raises(ValueError):
        canonicalize(vec(3, 1, 0), vec(3, 5, 0))


def test_canonicalize_insufficient_precision_is_loud():
    from hensel.padics import PrecisionError

    p = 3
    # alpha = 5, but the off-diagonal entry is only known to 3 digits, so
    # its reduction mod p^5 cannot be decided
    v1 = (frac_scalar(3**5, p, prec=3), frac_scalar(0, p))
    v2 = (frac_scalar(7, p, prec=3), frac_scalar(1, p, prec=3))
    with pytest.raises(PrecisionError):
        canonicalize(v1, v2)


def test_homothety_normalize():
    assert homothety_normalize(standard_lattice(3)) == standard_lattice(3)
    scaled = shifted(standard_lattice(3), 1)
    assert homothety_normalize(scaled) == standard_lattice(3)
    L = canonicalize(vec(3, 1, 0), vec(3, Fraction(1, 3), Fraction(1, 9)))
    N = homothety_normalize(L)
    assert (N.alpha, N.beta) == (2, 0)
    assert N.offdiag.exact_value == 3
    assert homothety_normalize(N) == N


def test_grading():
    assert grading(standard_lattice(3)) == 0
    assert grading(shifted(standard_lattice(3), -1)) == 0  # homothety shifts by 2
    L_odd = lattice_from_xy(3, 0, 3, prec=12)
    assert grading(L_odd) == 1
    L_even = lattice_from_xy(3, 0, 9, prec=12)
    assert grading(L_even) == 0


def test_contains():
    p = 3
    L0 = standard_lattice(p)
    assert contains(L0, vec(p, 1, 0))
    assert not contains(L0, vec(p, Fraction(1, 3), 0))
    Lp = lattice_from_xy(p, 0, p, prec=12)
    assert contains(Lp, vec(p, 0, 3))
    assert not contains(Lp, vec(p, 0, 1))


# -- stability ------------------------------------------------------------------


def unit_gamma(p=3, vb=1, delta=None, prec=24):
    from hensel.primes import smallest_nonresidue

    return GammaElement.from_rationals(
        p, 1, p**vb, delta if delta is not None else smallest_nonresidue(p), prec
    )


def test_gl2zp_element_fixes_standard_lattice():
    assert is_stable(standard_lattice(3), unit_gamma())


def test_stability_fails_above_window():
    gamma = unit_gamma(p=3, vb=1)
    L = lattice_from_xy(3, 0, 9, prec=20)  # val(y) = 2 > val(b) = 1
    assert not is_stable(L, gamma)


def test_stability_at_window_edge():
    gamma = unit_gamma(p=3, vb=1)
    L = lattice_from_xy(3, 0, 3, prec=20)  # val(y) = 1 = val(b)
    assert is_stable(L, gamma)


def test_gamma_element_validation():
    with pytest.raises(ValueError):
        GammaElement.from_rationals(3, 1, 0, 2, 12)  # b = 0
    with pytest.raises(ValueError):
        GammaElement.from_rationals(3, 1, 3, 4, 12)  # 4 is a square unit
    with pytest.raises(ValueError):
        GammaElement.from_rationals(3, 1, 3, 3, 12)  # 3 is not a unit


def test_gamma_unit_norm_flag_and_determinant():
    g = unit_gamma(p=3, vb=1)
    assert g.is_unit_norm
    assert g.det_valuation == 0
    assert g.det.exact_value == 1 - 9 * 2
    g2 = GammaElement.from_rationals(3, Fraction(1, 3), 3, 2, 12)
    assert not g2.is_unit_norm
    assert g2.det_valuation == -2


def test_is_stable_invariant_under_homothety_and_rebasing():
    gamma = unit_gamma(p=3, vb=2, prec=30)
    rng = random.Random(7)
    for lat in enumerate_window(3, 2, prec=30):
        direct = is_stable(lat, gamma)
        assert is_stable(shifted(lat, 3), gamma) == direct
        assert is_stable(shifted(lat, -2), gamma) == direct
        rebased = _random_rebase(lat, rng, prec=30)
        assert is_stable(rebased, gamma) == direct


# -- enumeration ----------------------------------------------------------------


def test_enumerate_window_radius_zero():
    assert enumerate_window(3, 0) == [standard_lattice(3)]


def test_enumerate_window_rejects_small_precision():
    with pytest.raises(ValueError):
        enumerate_window(3, 2, prec=5)


def _perm_tuple(x, y, mod):
    return (x % mod, y % mod)


def _subgroup_oracle_classes(p, m):
    """Independent count of homothety classes meeting the window: enumerate
    every subgroup of (Z/p^{2m})^2 (each corresponds to a lattice between
    p^m L0 and p^{-m} L0), turn its generators into an integer column form
    [[A, C], [0, D]], and deduplicate after dividing out the content."""
    mod = p ** (2 * m)
    elems = [(x, y) for x in range(mod) for y in range(mod)]

    def closure(gens):
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            nxt = []
            for g in gens:
                for h in frontier:
                    s = ((g[0] + h[0]) % mod, (g[1] + h[1]) % mod)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return frozenset(seen)

    subgroups = set()
    for g1 in elems:
        subgroups.add(closure([g1]))
        for g2 in elems:
            subgroups.add(closure([g1, g2]))

    def _xgcd_pair(a, b):
        """(g, u, v) with u a + v b = g = gcd(a, b) >= 0."""
        old_r, r = a, b
        old_u, u = 1, 0
        old_v, v = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_u, u = u, old_u - q * u
            old_v, v = v, old_v - q * v
        if old_r < 0:
            old_r, old_u, old_v = -old_r, -old_u, -old_v
        return old_r, old_u, old_v

    def hnf_triple(subgroup):
        """Integer column form [[a, c], [0, d]] of the lattice generated by
        the subgroup representatives together with (mod, 0) and (0, mod)."""
        gens = list(subgroup) + [(mod, 0), (0, mod)]
        # combine generators until one carries the gcd of all y-coordinates
        X, Y = 0, 0
        for x, y in gens:
            g, u, v = _xgcd_pair(Y, y)
            X, Y = u * X + v * x, g
        d = Y
        assert d > 0, "full-rank subgroup expected"
        a = 0
        for x, y in gens:
            a = __import__("math").gcd(a, x - (y // d) * X)
        assert a > 0
        return a, d, X % a

    normalized = set()
    for s in subgroups:
        a, d, c = hnf_triple(s)
        va = _valp(a, p)
        vd = _valp(d, p)
        vc = _valp(c, p) if c else None
        h = min(va, vd) if vc is None else min(va, vd, vc)
        a, d = a // p**h, d // p**h
        c = c // p**h if c else 0
        normalized.add((_valp(a, p), _valp(d, p), c))
    return normalized


def _valp(n, p):
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_enumerate_window_matches_subgroup_oracle(p, m):
    ours = enumerate_window(p, m)
    oracle = _subgroup_oracle_classes(p, m)
    assert len(ours) == len(oracle) == window_class_count(p, m)
    ours_triples = {
        (
            lat.alpha,
            lat.beta,
            0 if lat.offdiag.is_zero else int(lat.offdiag.exact_value),
        )
        for lat in ours
    }
    assert ours_triples == oracle


def test_enumerate_window_no_duplicates_and_normalized():
    for p, m in [(2, 2), (3, 1), (5, 1)]:
        lats = enumerate_window(p, m)
        assert len(set(lats)) == len(lats)
        for lat in lats:
            assert homothety_normalize(lat) == lat


def test_enumerate_window_monotone_in_radius():
    small = enumerate_window(3, 1)
    big = enumerate_window(3, 2)
    assert set(small) <= set(big)
    # and the shared part appears in the same relative order
    pos = {lat: i for i, lat in enumerate(big)}
    order = [pos[lat] for lat in small if lat in pos]
    assert order == sorted(order)


def _tree_neighbours(lat, prec=30):
    """The p + 1 classes next to lat on the Bruhat-Tits tree: the lattices M
    with pL < M < L of index p, one per line of L/pL."""
    p = lat.p
    v1, v2 = lat.basis(prec)

    def times_p(v):
        return (v[0].shift(1), v[1].shift(1))

    out = [canonicalize(v1, times_p(v2))]
    for k in range(p):
        kk = from_rational(k, 1, p, prec)
        w = (v2[0] + kk * v1[0], v2[1] + kk * v1[1])
        out.append(canonicalize(w, times_p(v1)))
    return [homothety_normalize(m) for m in out]


@pytest.mark.parametrize("p,m", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2)])
def test_window_is_tree_ball_of_radius_twice_m(p, m):
    # the saturation certificate rests on this: the window of radius m is
    # the ball of radius 2m around L0 on the tree
    ball = {standard_lattice(p)}
    frontier = set(ball)
    for _ in range(2 * m):
        nxt = set()
        for lat in frontier:
            nbrs = _tree_neighbours(lat)
            assert len(set(nbrs)) == p + 1
            nxt.update(n for n in nbrs if n not in ball)
        ball |= nxt
        frontier = nxt
    assert set(enumerate_window(p, m)) == ball
    assert len(ball) == window_class_count(p, m) == 1 + (p + 1) * (p ** (2 * m) - 1) // (p - 1)


def _filtered_window_strata(p: int, m: int):
    """Reference for `_window_strata`: every (alpha, beta, vc) of the cube,
    kept when it is normalized and meets the window bound (O(m^3) steps)."""
    for alpha in range(2 * m + 1):
        for beta in range(2 * m + 1):
            if min(alpha, beta) == 0 and max(alpha, beta) <= 2 * m:
                yield alpha, beta, None, 1
            for vc in range(alpha):
                if min(alpha, beta, vc) != 0:
                    continue
                if max(alpha, beta, alpha + beta - vc) > 2 * m:
                    continue
                yield alpha, beta, vc, (p - 1) * p ** (alpha - vc - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_window_strata_match_filtered_cube(p):
    # the direct generator yields the same strata, in the same order
    for m in range(9):
        strata = list(_window_strata(p, m))
        assert strata == list(_filtered_window_strata(p, m))
        assert len(strata) == (2 * m + 1) ** 2


def test_enumerate_window_deterministic():
    a = enumerate_window(5, 1)
    b = enumerate_window(5, 1)
    assert a == b


# -- canonical uniqueness under random basis changes ----------------------------


def _random_rebase(lat, rng, prec=24):
    """Re-express the lattice in a random Z_p-unimodular combination of its
    canonical basis and re-canonicalize."""
    p = lat.p
    while True:
        u11, u12, u21, u22 = (rng.randrange(0, p**4) for _ in range(4))
        if (u11 * u22 - u12 * u21) % p != 0:
            break
    b1, b2 = lat.basis(prec)
    m = [[frac_scalar(u11, p, prec), frac_scalar(u12, p, prec)],
         [frac_scalar(u21, p, prec), frac_scalar(u22, p, prec)]]
    w1 = (b1[0] * m[0][0] + b2[0] * m[1][0], b1[1] * m[0][0] + b2[1] * m[1][0])
    w2 = (b1[0] * m[0][1] + b2[0] * m[1][1], b1[1] * m[0][1] + b2[1] * m[1][1])
    return canonicalize(w1, w2)


def test_canonical_form_stable_under_random_rebasing():
    rng = random.Random(20240817)
    pool = enumerate_window(3, 1, prec=24) + enumerate_window(5, 1, prec=24)
    for _ in range(120):
        lat = rng.choice(pool)
        assert _random_rebase(lat, rng) == lat


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**30),
)
@settings(max_examples=120, deadline=None)
def test_canonical_form_uniqueness_property(p, alpha, beta, c_seed, seed):
    c = c_seed % p ** max(alpha, 0) if alpha > 0 else 0
    lat = Lattice2(p, alpha, beta, frac_scalar(c, p, 24).shift(min(alpha, 0)))
    assert _random_rebase(lat, random.Random(seed)) == lat
