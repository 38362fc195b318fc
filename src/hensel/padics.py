"""Exact p-adic scalar arithmetic at a declared finite precision.

A scalar is stored as a valuation plus a unit part known modulo p^K, where
K is the scalar's own effective precision.  Binary operations propagate the
minimum precision of their operands; cancellation of leading digits in an
addition reduces the precision of the result by the number of digits lost,
so downstream code can observe (and assert on) surviving precision.

Scalars built through :func:`from_rational` additionally carry their exact
rational value.  The exact value never influences the digit model except in
one place: when an addition cancels every available digit, it decides
between the exact zero element and a loud :class:`PrecisionError` for a
value that is known to be nonzero but has no surviving digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .primes import is_prime

INFINITY = math.inf


class PrecisionError(ArithmeticError):
    """A result could not be determined at the available precision."""


def _valp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valp_fraction(x: Fraction | int, p: int):
    """Exact p-adic valuation of a rational; INFINITY for zero."""
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _valp(x.numerator, p) - _valp(x.denominator, p)


class PadicScalar:
    """A p-adic number: prime, valuation, unit digits, effective precision.

    The represented value is p^v * (d_0 + d_1 p + ... + d_{K-1} p^{K-1})
    with d_0 != 0; the zero element has valuation +infinity and no digits.
    Instances are immutable.
    """

    __slots__ = ("p", "_v", "_unit", "_prec", "_exact")

    def __init__(self, p, v, unit, prec, exact=None):
        # unit == 0 encodes the zero element regardless of v and prec.
        if unit:
            if prec < 1:
                raise PrecisionError(
                    f"nonzero {p}-adic scalar with no significant digits"
                )
            if not 0 < unit < p**prec:
                raise ValueError("unit part out of range for the precision")
            if unit % p == 0:
                raise ValueError("unit part must not be divisible by p")
        self.p = p
        self._v = v if unit else 0
        self._unit = unit
        self._prec = prec if unit else 0
        self._exact = exact

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicScalar":
        return cls(p, 0, 0, 0, exact=Fraction(0))

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._unit == 0

    @property
    def valuation(self):
        """Valuation as an int, or INFINITY for the zero element."""
        return INFINITY if self.is_zero else self._v

    @property
    def precision(self) -> int:
        return self._prec

    @property
    def unit_digits(self) -> tuple:
        """The K base-p digits of the unit part, least significant first."""
        u, out = self._unit, []
        for _ in range(self._prec):
            u, d = divmod(u, self.p)
            out.append(d)
        return tuple(out)

    @property
    def exact_value(self):
        """Exact rational value when known (rational-born scalars), else None."""
        return self._exact

    def __repr__(self):
        if self.is_zero:
            return f"PadicScalar(p={self.p}, 0)"
        return (
            f"PadicScalar(p={self.p}, val={self._v}, digits={self.unit_digits})"
        )

    def _require_same_prime(self, other):
        if not isinstance(other, PadicScalar):
            raise TypeError(f"expected PadicScalar, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"mismatched primes {self.p} and {other.p}")

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        """Equality up to the shared precision of the two operands."""
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if self.p != other.p:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self._v != other._v:
            return False
        k = min(self._prec, other._prec)
        return self._unit % self.p**k == other._unit % self.p**k

    __hash__ = None  # precision-truncated equality is not hash-compatible

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._require_same_prime(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.p
        exact = None
        if self._exact is not None and other._exact is not None:
            exact = self._exact + other._exact
        # absolute precision: position of the first unknown digit
        abs_prec = min(self._v + self._prec, other._v + other._prec)
        v0 = min(self._v, other._v)
        mod = p ** (abs_prec - v0)
        s = (
            self._unit * p ** (self._v - v0)
            + other._unit * p ** (other._v - v0)
        ) % mod
        if s == 0:
            # every available digit cancelled
            if exact is not None and exact != 0:
                raise PrecisionError(
                    "addition cancelled all significant digits of a nonzero value"
                )
            return PadicScalar.zero(p)
        t = _valp(s, p)
        return PadicScalar(p, v0 + t, s // p**t, abs_prec - v0 - t, exact)

    def __neg__(self):
        if self.is_zero:
            return self
        exact = None if self._exact is None else -self._exact
        unit = self.p**self._prec - self._unit
        return PadicScalar(self.p, self._v, unit, self._prec, exact)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_same_prime(other)
        if self.is_zero or other.is_zero:
            return PadicScalar.zero(self.p)
        exact = None
        if self._exact is not None and other._exact is not None:
            exact = self._exact * other._exact
        prec = min(self._prec, other._prec)
        unit = (self._unit * other._unit) % self.p**prec
        return PadicScalar(self.p, self._v + other._v, unit, prec, exact)

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero p-adic scalar")
        exact = None if self._exact is None else 1 / self._exact
        unit = pow(self._unit, -1, self.p**self._prec)
        return PadicScalar(self.p, -self._v, unit, self._prec, exact)

    def __truediv__(self, other):
        self._require_same_prime(other)
        return self * other.inv()

    def shift(self, h: int) -> "PadicScalar":
        """Multiply by p^h (exact valuation shift, digits unchanged)."""
        if self.is_zero or h == 0:
            return self
        exact = None
        if self._exact is not None:
            exact = self._exact * Fraction(self.p) ** h
        return PadicScalar(self.p, self._v + h, self._unit, self._prec, exact)

    def reduce_mod(self, k: int) -> "PadicScalar":
        """Canonical representative modulo p^k Z_p (digits at positions >= k
        set to zero).  The result is an exact rational whose expansion ends
        below position k, so the absolute precision of the input is kept:
        the zeroed high digits are known, not merely unknown."""
        p = self.p
        if self.is_zero or self._v >= k:
            return PadicScalar.zero(p)
        abs_prec = self._v + self._prec
        if abs_prec < k:
            raise PrecisionError(
                f"need digits up to p^{k} but scalar is only known to p^{abs_prec}"
            )
        u = self._unit % p ** (k - self._v)
        if u == 0:
            return PadicScalar.zero(p)
        t = _valp(u, p)
        v = self._v + t
        unit = u // p**t
        exact = Fraction(unit * p**max(v, 0), p**max(-v, 0))
        return PadicScalar(p, v, unit, abs_prec - v, exact)


# -- module-level functions ------------------------------------------------


def from_rational(numerator, denominator, p, prec) -> PadicScalar:
    """p-adic expansion of numerator/denominator with `prec` unit digits.

    The valuation is the exact p-adic valuation of the rational; the unit
    part is its image modulo p^prec.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    if prec < 1:
        raise ValueError("precision must be a positive integer")
    x = Fraction(numerator, denominator)
    if x == 0:
        return PadicScalar.zero(p)
    vn = _valp(x.numerator, p)
    vd = _valp(x.denominator, p)
    un = x.numerator // p**vn
    ud = x.denominator // p**vd
    unit = un * pow(ud, -1, p**prec) % p**prec
    return PadicScalar(p, vn - vd, unit, prec, exact=x)


def is_square_unit(u: PadicScalar) -> bool:
    """Whether a unit of Z_p (p odd) is a square.

    For odd p a unit is a square exactly when its leading digit is a
    quadratic residue mod p (Hensel lifting promotes the mod-p solution).
    """
    if u.p == 2:
        raise ValueError("square criterion by leading digit requires odd p")
    if u.valuation != 0:
        raise ValueError("is_square_unit needs a unit (valuation 0)")
    d0 = u.unit_digits[0]
    return pow(d0, (u.p - 1) // 2, u.p) == 1
