import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hensel.arith import (
    DirichletCharacter,
    FrobeniusClass,
    dirichlet_sum_partial,
    euler_product_partial,
    frobenius_quadratic,
    lseries_gap_bound,
    reciprocity_check,
)
from hensel.primes import legendre_symbol, primes_upto


# -- characters -------------------------------------------------------------------


def test_mod_four_values():
    chi = DirichletCharacter.mod_four()
    assert chi(3) == -1
    assert chi(2) == 0
    assert chi(5) == 1
    assert chi(-1) == chi(3)  # periodicity through negative arguments
    assert chi(7 + 4 * 100) == chi(7)


def test_multiplicativity_grid():
    for chi in (
        DirichletCharacter.trivial(),
        DirichletCharacter.mod_four(),
        DirichletCharacter.mod_eight(),
        DirichletCharacter.legendre(7),
    ):
        for n in range(1, 40):
            for m in range(1, 40):
                assert chi(n * m) == chi(n) * chi(m)


def test_character_table_validation():
    with pytest.raises(ValueError):
        DirichletCharacter(4, {1: 1})  # incomplete
    with pytest.raises(ValueError):
        DirichletCharacter(4, {1: 1, 3: 1, 2: 1})  # non-unit residue
    with pytest.raises(ValueError):
        DirichletCharacter(5, {1: 1, 2: 1, 3: -1, 4: 1})  # not multiplicative
    with pytest.raises(ValueError):
        DirichletCharacter(3, {1: 1, 2: 2})  # a value outside +-1


# -- Frobenius classes ---------------------------------------------------------------


def test_gaussian_field_examples():
    assert frobenius_quadratic(-1, 5) is FrobeniusClass.SPLIT
    assert frobenius_quadratic(-1, 3) is FrobeniusClass.INERT
    assert frobenius_quadratic(-1, 2) is FrobeniusClass.RAMIFIED


def test_frobenius_at_two():
    # 2 is unramified in Q(sqrt d) for d = 1 mod 4: split for d = 1 mod 8,
    # inert for d = 5 mod 8; otherwise it divides the discriminant 4d
    assert frobenius_quadratic(5, 2) is FrobeniusClass.INERT
    assert frobenius_quadratic(-3, 2) is FrobeniusClass.INERT
    assert frobenius_quadratic(17, 2) is FrobeniusClass.SPLIT
    for d in (-1, 2, 3):
        assert frobenius_quadratic(d, 2) is FrobeniusClass.RAMIFIED


def test_frobenius_validation():
    with pytest.raises(ValueError):
        frobenius_quadratic(12, 5)  # not squarefree
    with pytest.raises(ValueError):
        frobenius_quadratic(0, 5)
    with pytest.raises(ValueError):
        frobenius_quadratic(-1, 6)  # not prime


def test_split_iff_square_root_exists():
    for d in (-1, 2, 3, -5, 10):
        for p in primes_upto(60):
            if (2 * d) % p == 0:
                continue
            has_root = any(x * x % p == d % p for x in range(p))
            expected = FrobeniusClass.SPLIT if has_root else FrobeniusClass.INERT
            assert frobenius_quadratic(d, p) is expected


def test_two_squares_criterion():
    # split exactly at p = 1 mod 4, for all odd p up to 10^4
    for p in primes_upto(10**4):
        if p == 2:
            continue
        cls = frobenius_quadratic(-1, p)
        assert (cls is FrobeniusClass.SPLIT) == (p % 4 == 1)


def test_reciprocity_gaussian_field():
    assert reciprocity_check(-1, DirichletCharacter.mod_four(), 1000) == []


def test_reciprocity_detects_wrong_character():
    mm = reciprocity_check(-1, DirichletCharacter.trivial(), 100)
    assert mm and mm[0][0] == 3  # first odd inert prime exposes it


def test_reciprocity_sqrt_two():
    assert reciprocity_check(2, DirichletCharacter.mod_eight(), 1000) == []
    # and the mod-8 pattern really is the Legendre symbol of 2
    for p in primes_upto(500):
        if p == 2:
            continue
        assert DirichletCharacter.mod_eight()(p) == legendre_symbol(2, p)


def test_reciprocity_split_prime_field():
    # q = 5: the quadratic-residue character mod 5 tracks sqrt(5)
    assert reciprocity_check(5, DirichletCharacter.legendre(5), 2000) == []


# -- L-series ---------------------------------------------------------------------


def test_single_term_sum():
    assert dirichlet_sum_partial(DirichletCharacter.trivial(), 2.0, 1) == 1.0


def test_region_of_convergence_enforced():
    with pytest.raises(ValueError):
        dirichlet_sum_partial(DirichletCharacter.trivial(), 1.0, 10)
    with pytest.raises(ValueError):
        euler_product_partial(DirichletCharacter.trivial(), 0.5, 10)


def test_zeta_sum_and_product_approach_each_other():
    chi = DirichletCharacter.trivial()
    gaps = []
    for n_max, p_max in [(10**3, 10**2), (10**4, 10**3), (10**5, 10**4)]:
        gaps.append(
            abs(
                dirichlet_sum_partial(chi, 2.0, n_max)
                - euler_product_partial(chi, 2.0, p_max)
            )
        )
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3
    assert abs(dirichlet_sum_partial(chi, 2.0, 10**5) - math.pi**2 / 6) < 1e-4


def test_mod_four_sum_vs_product():
    chi = DirichletCharacter.mod_four()
    s = dirichlet_sum_partial(chi, 2.0, 10**6)
    p = euler_product_partial(chi, 2.0, 10**5)
    assert abs(s - p) < 1e-6


REAL_CHARACTERS = [
    DirichletCharacter.trivial(),
    DirichletCharacter.mod_four(),
    DirichletCharacter.mod_eight(),
    DirichletCharacter.legendre(5),
    DirichletCharacter.legendre(7),
    DirichletCharacter.legendre(13),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    chi=st.sampled_from(REAL_CHARACTERS),
    s=st.floats(1.05, 4.0),
    n_max=st.integers(1, 5000),
    p_max=st.integers(2, 5000),
)
def test_lseries_gap_within_bound(chi, s, n_max, p_max):
    # soundness: a correct sum and product never stand further apart
    partial_sum = dirichlet_sum_partial(chi, s, n_max)
    product = euler_product_partial(chi, s, p_max)
    assert abs(partial_sum - product) <= lseries_gap_bound(s, n_max, p_max, product)


def test_lseries_gap_bound_overflows_to_inf():
    # near s = 1 the product's tail bound e^E - 1 overflows a float
    assert lseries_gap_bound(1 + 1e-12, 10**5, 10**4, 1.5) == math.inf
