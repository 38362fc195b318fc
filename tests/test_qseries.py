import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hensel.qseries import (
    QExpansion,
    delta,
    eigencheck,
    euler_coefficients,
    hecke_apply,
    hecke_coset_reduce,
    hecke_coset_reps,
    theta_functional_equation_residual,
    theta_residual_bound,
)


def delta_naive(truncation):
    """Independent oracle: expand q prod (1 - q^n)^24 factor by factor with
    exact binomial coefficients."""
    t = truncation - 1
    acc = [1] + [0] * t
    for n in range(1, t + 1):
        # multiply by (1 - q^n)^24 = sum_j C(24, j) (-1)^j q^{nj}
        out = [0] * (t + 1)
        for j in range(0, min(24, t // n) + 1):
            coef = (-1) ** j * math.comb(24, j)
            for i in range(t + 1 - n * j):
                out[i + n * j] += coef * acc[i]
        acc = out
    return QExpansion(12, (0, *acc))


def delta_pentagonal(truncation):
    """Oracle: q prod (1 - q^n)^24 as 24 sparse passes of Euler's pentagonal
    series prod (1 - q^n) = sum_k (-1)^k q^{k(3k -+ 1)/2}."""
    t = truncation - 1
    terms = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 <= t:
        sign = -1 if k % 2 else 1
        terms.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= t:
            terms.append((k * (3 * k + 1) // 2, sign))
        k += 1
    acc = [1] + [0] * t
    for _ in range(24):
        out = [0] * (t + 1)
        for g, s in terms:
            for i in range(t + 1 - g):
                out[i + g] += s * acc[i]
        acc = out
    return QExpansion(12, (0, *acc))


# -- the cusp form ---------------------------------------------------------------


def test_delta_leading_coefficients():
    f = delta(8)
    assert f.coeff(0) == 0  # cuspidal
    assert f.coeff(1) == 1
    assert f.coeff(2) == -24
    assert f.coeff(3) == 252
    assert f.weight == 12 and f.level == 1
    assert delta(1).coefficients == (0, 1)


def test_delta_matches_naive_product_expansion():
    assert delta(60).coefficients == delta_naive(60).coefficients


def test_delta_matches_pentagonal_product_through_2000():
    assert delta(2000).coefficients == delta_pentagonal(2000).coefficients
    assert delta_pentagonal(60).coefficients == delta_naive(60).coefficients


def test_ramanujan_congruence_mod_691():
    # Ramanujan: 691, the numerator of B_12, ties Delta to E_12 (mod 691)
    t = 2000
    f = delta(t)
    sigma11 = [0] * (t + 1)
    for d in range(1, t + 1):
        for m in range(d, t + 1, d):
            sigma11[m] += d**11
    assert all((f.coeff(n) - sigma11[n]) % 691 == 0 for n in range(1, t + 1))


def test_delta_rejects_zero_truncation():
    with pytest.raises(ValueError):
        delta(0)


def test_expansion_rejects_empty_series_and_bad_level():
    with pytest.raises(ValueError, match="constant coefficient"):
        QExpansion(12, ())
    with pytest.raises(ValueError, match="level"):
        QExpansion(12, (0, 1), level=0)


# -- the averaging operator --------------------------------------------------------


def test_hecke_on_zero_series():
    zero = QExpansion(12, (0,) * 13)
    out = hecke_apply(zero, 3)
    assert all(c == 0 for c in out.coefficients)


def test_hecke_coefficient_rule_b1():
    f = delta(8)
    assert hecke_apply(f, 2).coeff(1) == f.coeff(2) == -24


def test_hecke_coefficient_rule_b2():
    f = delta(8)
    # b_2 = a_4 + 2^{11} a_1 = -1472 + 2048 = 576 = (-24) * a_2
    assert hecke_apply(f, 2).coeff(2) == 576
    assert f.coeff(4) == -1472


def test_hecke_truncation_bookkeeping():
    f = delta(100)
    out = hecke_apply(f, 3)
    assert out.truncation == 33
    with pytest.raises(ValueError):
        hecke_apply(QExpansion(12, (0, 1)), 3)  # too short for p = 3


def test_hecke_rejects_composite():
    with pytest.raises(ValueError):
        hecke_apply(delta(20), 4)


def test_eigencheck_examples():
    f = delta(150)
    assert eigencheck(f, 2, depth=50) == (True, -24)
    assert eigencheck(f, 3, depth=50) == (True, 252)


def test_eigencheck_detects_perturbation():
    f = delta(150)
    coeffs = list(f.coefficients)
    coeffs[9] += 1  # keep a_1 = 1 but break the relation elsewhere
    g = QExpansion(12, tuple(coeffs))
    ok, _ = eigencheck(g, 2, depth=50)
    assert not ok


def test_eigencheck_requires_normalization():
    f = QExpansion(12, tuple(2 * c for c in delta(60).coefficients))
    with pytest.raises(ValueError):
        eigencheck(f, 2)


def test_eigencheck_depth_bound():
    f = delta(40)
    with pytest.raises(ValueError):
        eigencheck(f, 2, depth=30)


@given(
    st.sampled_from([(2, 3), (2, 5), (3, 5)]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=30, max_size=30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_hecke_operators_commute(pq, coeffs, weight):
    p, q = pq
    f = QExpansion(weight, tuple(coeffs))
    lhs = hecke_apply(hecke_apply(f, p), q)
    rhs = hecke_apply(hecke_apply(f, q), p)
    t = min(lhs.truncation, rhs.truncation)
    assert lhs.coefficients[: t + 1] == rhs.coefficients[: t + 1]


# -- multiplicative coefficient generation -------------------------------------------


def test_euler_base_cases():
    a = euler_coefficients({2: 0, 3: 0, 5: 0, 7: 0}, weight=12, truncation=10)
    assert a[1] == 1
    assert a[2] == a[3] == a[5] == a[7] == 0
    assert a[4] == -(2**11)
    assert a[9] == -(3**11)


def test_euler_reproduces_product_coefficients():
    f = delta_naive(60)
    ap = {p: f.coeff(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)}
    a = euler_coefficients(ap, weight=12, truncation=60)
    assert a[4] == -1472
    assert a[6] == -6048 == a[2] * a[3]
    assert all(a[n] == f.coeff(n) for n in range(1, 61))


def test_euler_missing_prime():
    with pytest.raises(ValueError):
        euler_coefficients({2: -24}, weight=12, truncation=10)


def test_euler_character_hook():
    # with chi(p) = 0 the prime-power recursion drops its second term
    a = euler_coefficients(
        {2: 5, 3: 1, 5: 0, 7: 0}, weight=2, truncation=8, chi=lambda p: 0
    )
    assert a[4] == 25 and a[8] == 125


# -- coset representatives ------------------------------------------------------------


def test_reps_count_and_shape():
    reps = hecke_coset_reps(2)
    assert len(reps) == 3
    assert ((2, 0), (0, 1)) in reps
    assert hecke_coset_reps(5)[0] == ((1, 0), (0, 5))
    with pytest.raises(ValueError):
        hecke_coset_reps(6)


def test_reduce_fixes_representatives():
    for p in (2, 3, 5):
        for rep in hecke_coset_reps(p):
            assert hecke_coset_reduce(rep) == rep


def test_reduce_column_shift():
    p = 5
    for u in range(p):
        assert hecke_coset_reduce(((1, u + p), (0, p))) == ((1, u), (0, p))


def test_reduce_requires_prime_determinant():
    with pytest.raises(ValueError):
        hecke_coset_reduce(((2, 0), (0, 2)))


def _det_p_matrices(p, bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0:
                    if b * c == -p:
                        for d in range(-bound, bound + 1):
                            yield ((a, b), (c, d))
                    continue
                num = p + b * c
                if num % a == 0 and -bound <= num // a <= bound:
                    yield ((a, b), (c, num // a))


def left_unimodular_equivalent(m1, m2) -> bool:
    """Oracle: whether m2 = g m1 for some integral g with det g = 1 (exact
    check: m2 adj(m1) must be divisible by det(m1) and the quotient
    unimodular)."""
    (a, b), (c, d) = m1
    det = a * d - b * c
    (e, f), (g2, h) = m2
    # m2 * adj(m1)
    q = ((e * d - f * c, -e * b + f * a), (g2 * d - h * c, -g2 * b + h * a))
    if any(entry % det for row in q for entry in row):
        return False
    u = tuple(tuple(entry // det for entry in row) for row in q)
    return u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1


@pytest.mark.parametrize("p", [2, 3])
def test_reduction_exhaustive_class_consistency(p):
    bound = 2 * p
    mats = list(_det_p_matrices(p, bound))
    reps = set(hecke_coset_reps(p))
    reduced = {}
    for m in mats:
        r = hecke_coset_reduce(m)
        assert r in reps
        assert hecke_coset_reduce(r) == r  # idempotent
        reduced[m] = r
    assert set(reduced.values()) == reps
    # same representative exactly when related by a determinant-one factor,
    # over every pair in the bounded set
    for m1 in mats:
        r1 = reduced[m1]
        for m2 in mats:
            assert (r1 == reduced[m2]) == left_unimodular_equivalent(m1, m2)


# -- analytic checks ---------------------------------------------------------------


def test_theta_residual_at_fixed_point():
    assert theta_functional_equation_residual(1.0, 50) < 1e-15


def test_theta_residual_small():
    assert theta_functional_equation_residual(2.0, 40) < 1e-12


def test_theta_symmetry_under_inversion():
    r1 = theta_functional_equation_residual(2.0, 50)
    r2 = theta_functional_equation_residual(0.5, 50)
    # residuals at t and 1/t measure the same identity, scaled by sqrt(t)
    assert abs(r1 * math.sqrt(2.0) - r2) < 1e-12


def test_theta_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta_functional_equation_residual(0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=st.floats(0.05, 20.0), m_max=st.integers(1, 60))
def test_theta_residual_within_bound(t, m_max):
    # soundness: the truncation tails and rounding never exceed the bound
    assert theta_functional_equation_residual(t, m_max) <= theta_residual_bound(t, m_max)

