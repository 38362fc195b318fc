import math
import random
from fractions import Fraction

import pytest

from hensel.arith import (
    DirichletCharacter,
    FrobeniusClass,
    UnityRoot,
    artin_local_factor,
    artin_local_factor_2d,
    dirichlet_sum_partial,
    euler_product_partial,
    frobenius_quadratic,
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


def test_order_four_character():
    i = UnityRoot(4, 1)
    chi = DirichletCharacter(5, {1: 1, 2: i, 4: i * i, 3: i * i * i})
    assert chi(2) == UnityRoot(4, 1)
    assert chi(4) == -1  # order-2 values surface as plain integers
    assert chi(2) * chi(3) == chi(6) == 1
    assert not chi.is_real
    assert abs(chi.value_as_complex(2) - 1j) < 1e-15


def test_unity_root_arithmetic():
    z = UnityRoot(6, 1)
    assert z * z == UnityRoot(3, 1)
    assert z * UnityRoot(6, 5) == 1
    assert UnityRoot(2, 1) == -1
    assert UnityRoot(1, 0) == 1
    assert UnityRoot(4, 1) != 1
    assert (-1) * UnityRoot(4, 1) == UnityRoot(4, 3)
    with pytest.raises(ValueError):
        UnityRoot(4, 1).as_int()


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


def test_complex_character_sum_is_complex():
    i = UnityRoot(4, 1)
    chi = DirichletCharacter(5, {1: 1, 2: i, 4: i * i, 3: i * i * i})
    val = dirichlet_sum_partial(chi, 2.0, 1000)
    assert isinstance(val, complex) and abs(val.imag) > 0


# -- local factors -------------------------------------------------------------------


def test_abelian_factor_dimension_one():
    chi = DirichletCharacter.mod_four()
    for p in (5, 13):
        lhs = artin_local_factor([chi(p)], p, 2.0)
        assert abs(lhs - 1 / (1 - chi(p) * p**-2.0)) < 1e-15


def test_geometric_factor():
    assert abs(artin_local_factor([1], 2, 2.0) - Fraction(4, 3)) < 1e-15


def test_trace_det_form_matches_eigenvalue_form():
    rng = random.Random(5)
    for _ in range(50):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = rng.choice([2, 3, 5, 7])
        s = rng.uniform(1.5, 3.0)
        lhs = artin_local_factor([a, b], p, s)
        rhs = artin_local_factor_2d(a + b, a * b, p, s)
        assert abs(lhs - rhs) < 1e-12


def test_unity_root_eigenvalues_accepted():
    v = artin_local_factor([UnityRoot(4, 1), UnityRoot(4, 3)], 5, 2.0)
    w = artin_local_factor_2d(0, 1, 5, 2.0)  # trace i + (-i) = 0, det 1
    assert abs(v - w) < 1e-15
