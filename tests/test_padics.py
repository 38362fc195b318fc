from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hensel.padics import (
    INFINITY,
    PadicScalar,
    PrecisionError,
    from_rational,
    is_square_unit,
    valp_fraction,
)


def test_from_rational_identity_element():
    x = from_rational(1, 1, 3, 4)
    assert x.valuation == 0
    assert x.unit_digits == (1, 0, 0, 0)


def test_from_rational_six_base_three():
    x = from_rational(6, 1, 3, 4)
    assert x.valuation == 1
    assert x.unit_digits == (2, 0, 0, 0)


def test_from_rational_uniformizer_inverse():
    x = from_rational(1, 3, 3, 4)
    assert x.valuation == -1
    assert x.unit_digits == (1, 0, 0, 0)


def test_from_rational_rejects_bad_input():
    with pytest.raises(ValueError):
        from_rational(1, 1, 4, 4)  # not prime
    with pytest.raises(ValueError):
        from_rational(1, 1, 1, 4)
    with pytest.raises(ZeroDivisionError):
        from_rational(1, 0, 3, 4)
    with pytest.raises(ValueError):
        from_rational(1, 1, 3, 0)


def test_mul_inverse_law():
    two = from_rational(2, 1, 3, 5)
    half = from_rational(1, 2, 3, 5)
    assert two * half == from_rational(1, 1, 3, 5)
    assert two * two.inv() == from_rational(1, 1, 3, 5)


def test_additive_inverse_gives_exact_zero():
    x = from_rational(7, 5, 3, 6)
    z = x + (-x)
    assert z.is_zero
    assert z.valuation == INFINITY
    assert z.unit_digits == ()


def test_square_of_six_base_three():
    # 36 = 3^2 * 4 and 4 = 1 + 1*3 in base 3
    x = from_rational(6, 1, 3, 6)
    s = x * x
    assert s.valuation == 2
    assert s.unit_digits[:3] == (1, 1, 0)


def test_valuation_examples():
    assert from_rational(9, 1, 3, 4).valuation == 2
    assert PadicScalar.zero(3).valuation == INFINITY
    assert from_rational(7, 25, 5, 4).valuation == -2


def test_is_square_unit():
    assert is_square_unit(from_rational(1, 1, 3, 4))
    assert not is_square_unit(from_rational(2, 1, 3, 4))
    assert is_square_unit(from_rational(4, 1, 5, 4))
    assert not is_square_unit(from_rational(2, 1, 5, 4))


def test_is_square_unit_rejections():
    with pytest.raises(ValueError):
        is_square_unit(from_rational(1, 1, 2, 4))  # p = 2
    with pytest.raises(ValueError):
        is_square_unit(from_rational(3, 1, 3, 4))  # not a unit


def test_mismatched_primes_rejected():
    with pytest.raises(ValueError):
        from_rational(1, 1, 3, 4) + from_rational(1, 1, 5, 4)


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PadicScalar.zero(3).inv()


def test_addition_cancellation_reduces_precision():
    # 1 + 3^2 minus 1 cancels two leading digits
    x = from_rational(1 + 9, 1, 3, 6)
    y = from_rational(-1, 1, 3, 6)
    s = x + y
    assert s.valuation == 2
    assert s.precision == 4  # absolute precision 6, two digits consumed


def test_addition_full_cancellation_of_nonzero_raises():
    x = from_rational(1 + 3**4, 1, 3, 4)  # the 3^4 digit is beyond precision
    y = from_rational(-1, 1, 3, 4)
    with pytest.raises(PrecisionError):
        x + y


def test_equality_truncates_to_shared_precision():
    x = from_rational(1, 1, 3, 3)
    y = from_rational(1 + 3**5, 1, 3, 8)  # differs only beyond K = 3
    assert x == y
    assert x.exact_value != y.exact_value
    assert x.exact_value == from_rational(1, 1, 3, 9).exact_value


def test_reduce_mod_examples():
    x = from_rational(1, 3, 3, 8)
    assert x.reduce_mod(0) == x  # digits all below position 0 already
    assert x.reduce_mod(-1).is_zero
    y = from_rational(3 + 9 + 27, 1, 3, 8)
    r = y.reduce_mod(2)
    assert r.exact_value == 3


def test_shift_is_exact():
    x = from_rational(5, 1, 3, 6)
    assert x.shift(3).valuation == 3
    assert x.shift(3).exact_value == Fraction(135)
    assert x.shift(-2).valuation == -2


# -- property tests -----------------------------------------------------------

primes = st.sampled_from([2, 3, 5, 7, 11])
small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-120, max_value=120).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=120),
)
shifts = st.integers(min_value=-5, max_value=5)

PREC = 40


def scalar(p, q, e):
    q = Fraction(q) * Fraction(p) ** e
    return from_rational(q.numerator, q.denominator, p, PREC)


@given(primes, small_rationals, shifts, small_rationals, shifts)
@settings(max_examples=300)
def test_valuation_of_product_adds(p, q1, e1, q2, e2):
    x, y = scalar(p, q1, e1), scalar(p, q2, e2)
    assert (x * y).valuation == x.valuation + y.valuation


@given(primes, small_rationals, shifts, small_rationals, shifts)
@settings(max_examples=300)
def test_ultrametric_inequality(p, q1, e1, q2, e2):
    x, y = scalar(p, q1, e1), scalar(p, q2, e2)
    s = x + y
    assert s.valuation >= min(x.valuation, y.valuation)
    if x.valuation != y.valuation:
        assert s.valuation == min(x.valuation, y.valuation)


@given(primes, small_rationals, shifts)
@settings(max_examples=200)
def test_mul_by_inverse_is_one(p, q, e):
    x = scalar(p, q, e)
    assert x * x.inv() == from_rational(1, 1, p, PREC)


@given(primes, small_rationals, small_rationals)
@settings(max_examples=300)
def test_from_rational_is_ring_homomorphism(p, q1, q2):
    x, y = scalar(p, q1, 0), scalar(p, q2, 0)
    s = Fraction(q1) + Fraction(q2)
    prod = Fraction(q1) * Fraction(q2)
    if s != 0:
        assert x + y == from_rational(s.numerator, s.denominator, p, PREC)
    else:
        assert (x + y).is_zero
    assert x * y == from_rational(prod.numerator, prod.denominator, p, PREC)


@given(primes, small_rationals, shifts)
@settings(max_examples=200)
def test_valp_fraction_matches_scalar_valuation(p, q, e):
    value = Fraction(q) * Fraction(p) ** e
    assert valp_fraction(value, p) == scalar(p, q, e).valuation
