"""Truncated q-expansions with exact coefficients, and their operators.

Everything algebraic here is exact (integers or fractions): the cusp-form
expansion (Jacobi's sparse series for the cube of the product, raised to the
eighth power in one pass of an exact recurrence), the averaging operator at
a prime, the eigenvalue check, and the multiplicative coefficient recursion.
Only the theta check at the end of the module uses floating point, and
`theta_residual_bound` proves how large its residual can be when the
computation is correct: truncation tails plus rounding.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .primes import is_prime


class QExpansion:
    """A q-series sum a_n q^n known exactly through n = truncation."""

    __slots__ = ("weight", "coefficients", "level")

    def __init__(self, weight: int, coefficients: tuple, level: int = 1):
        if len(coefficients) < 1:
            raise ValueError("need at least the constant coefficient")
        if level < 1:
            raise ValueError("level must be a positive integer")
        self.weight = weight
        self.coefficients = coefficients
        self.level = level

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def coeff(self, n: int):
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient {n} beyond truncation {self.truncation}")
        return self.coefficients[n]


def delta(truncation: int) -> QExpansion:
    """The weight-12 cusp form q prod_{n>=1} (1 - q^n)^24, exactly to q^T.

    Jacobi's identity gives the cube of the product as a sparse series,
    prod (1 - q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}, and the eighth
    power g of f = sum a_j q^j (a_0 = 1) follows from the exact power
    recurrence n g_n = sum_{1<=j<=n} (9j - n) a_j g_{n-j}: one pass over
    the O(sqrt T) nonzero a_j per coefficient.  The division by n is exact;
    a remainder would mean a broken recurrence, so it raises.  The
    24-factor pentagonal product is kept in the test suite as the oracle.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    t = truncation - 1  # room left after the leading factor q
    jacobi = []  # (j, a_j, 9 j a_j) for the nonzero a_j with 1 <= j <= t
    k = 1
    while (j := k * (k + 1) // 2) <= t:
        a = (-1) ** k * (2 * k + 1)
        jacobi.append((j, a, 9 * j * a))
        k += 1
    g = [1] + [0] * t
    for n in range(1, t + 1):
        s = 0
        for j, a, nine_ja in jacobi:
            if j > n:
                break
            s += (nine_ja - n * a) * g[n - j]
        g[n], r = divmod(s, n)
        if r:
            raise ArithmeticError(f"power recurrence left remainder {r} at q^{n}")
    return QExpansion(12, (0, *g))


def _exact_power(p: int, e: int):
    """p^e as an int for e >= 0 and a Fraction below (never a float)."""
    return p**e if e >= 0 else Fraction(1, p**-e)


def hecke_apply(f: QExpansion, p: int, chi_p=1) -> QExpansion:
    """Averaging operator at p on q-expansions.

    Coefficient rule: b_n = a_{np} + chi(p) p^{k-1} a_{n/p}, the second term
    only when p | n.  Producing n requires a_{np}, so the output records the
    honest truncation floor(T/p) instead of padding.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t_out = f.truncation // p
    if t_out < 1:
        raise ValueError(
            f"truncation {f.truncation} too small for the operator at {p}"
        )
    w = chi_p * _exact_power(p, f.weight - 1)
    coeffs = []
    for n in range(t_out + 1):
        b = f.coefficients[n * p]
        if n % p == 0:
            b = b + w * f.coefficients[n // p]
        coeffs.append(b)
    return QExpansion(f.weight, tuple(coeffs), f.level)


def eigencheck(f: QExpansion, p: int, depth: int | None = None):
    """Whether the operator at p sends f to a_p f, through the given depth.

    Requires a_1 = 1 (the eigenvalue of a normalized eigenform at p is the
    coefficient a_p itself).  Returns (is_eigen, a_p).
    """
    if f.coeff(1) != 1:
        raise ValueError("eigencheck requires a normalized series with a_1 = 1")
    hf = hecke_apply(f, p)
    if depth is None:
        depth = hf.truncation
    if depth > hf.truncation:
        raise ValueError(
            f"depth {depth} needs input truncation at least {depth * p}"
        )
    lam = f.coeff(p)
    ok = all(hf.coeff(n) == lam * f.coeff(n) for n in range(depth + 1))
    return ok, lam


def euler_coefficients(ap: dict, weight: int, truncation: int, chi=None) -> list:
    """Coefficients a_1..a_T generated from prime data by the two rules
    behind the degree-2 local factors:

        a_{p^{r+1}} = a_p a_{p^r} - chi(p) p^{k-1} a_{p^{r-1}}
        a_{mn}      = a_m a_n                 for coprime m, n.

    chi is a callable giving the character value at a prime (default 1).
    Returns a list indexed by n (entry 0 is unused and set to 0).
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if chi is None:
        chi = lambda _p: 1
    a = [0] * (truncation + 1)
    a[1] = 1
    spf = list(range(truncation + 1))  # smallest prime factor
    for q in range(2, truncation + 1):
        if spf[q] == q:
            for mult in range(q * q, truncation + 1, q):
                if spf[mult] == mult:
                    spf[mult] = q
    for n in range(2, truncation + 1):
        p = spf[n]
        e, m = 0, n
        while m % p == 0:
            m //= p
            e += 1
        if p not in ap:
            raise ValueError(f"missing coefficient for prime {p}")
        if m > 1:
            a[n] = a[m] * a[p**e]
        elif e == 1:
            a[n] = ap[p]
        else:
            a[n] = ap[p] * a[p ** (e - 1)] - chi(p) * _exact_power(
                p, weight - 1
            ) * a[p ** (e - 2)]
    return a


# -- double-coset representatives --------------------------------------------

Matrix = tuple[tuple[int, int], tuple[int, int]]


def hecke_coset_reps(p: int) -> list[Matrix]:
    """The p + 1 integral representatives of determinant-p matrices modulo
    the unimodular action on the left: [[1, u], [0, p]] for 0 <= u < p and
    [[p, 0], [0, 1]]."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    reps = [((1, u), (0, p)) for u in range(p)]
    reps.append(((p, 0), (0, 1)))
    return reps


def hecke_coset_reduce(mat: Matrix) -> Matrix:
    """Reduce an integral matrix of prime determinant to its representative.

    Row reduction over the integers (left multiplication by determinant-one
    matrices): clear the lower-left entry with an extended-gcd step, then
    shift the upper-right entry into [0, lower-right).  Idempotent, and two
    matrices reduce to the same representative exactly when they differ by
    a unimodular factor on the left.
    """
    (a, b), (c, d) = mat
    det = a * d - b * c
    if not is_prime(det):
        raise ValueError(f"determinant {det} is not prime")
    g, x, y = _xgcd(a, c)
    # [[x, y], [-c//g, a//g]] has determinant 1 and sends column 1 to (g, 0)
    b2 = x * b + y * d
    d2 = (-c // g) * b + (a // g) * d
    assert g * d2 == det
    return ((g, b2 % d2), (0, d2))


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) > 0 and x a + y b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# -- the theta check ---------------------------------------------------------


def theta_functional_equation_residual(t: float, m_max: int = 50) -> float:
    """|sum_{|n|<=M} e^{-pi n^2 t} - t^{-1/2} sum_{|n|<=M} e^{-pi n^2 / t}|.

    Both sides are the purely imaginary-axis specialization of the theta
    transformation law theta(t) = t^{-1/2} theta(1/t), where they are real;
    `theta_residual_bound` bounds what the truncation and rounding leave.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    s1 = 1.0 + 2.0 * sum(math.exp(-math.pi * n * n * t) for n in range(1, m_max + 1))
    s2 = 1.0 + 2.0 * sum(math.exp(-math.pi * n * n / t) for n in range(1, m_max + 1))
    return abs(s1 - s2 / math.sqrt(t))


def _theta_tail(x: float, m_max: int) -> float:
    """R(x) = e^{-pi (M+1)^2 x} / (1 - e^{-2 pi (M+1) x}) >= sum_{n>M} e^{-pi n^2 x}.

    For n = M + 1 + k with k >= 0, n^2 >= (M+1)^2 + 2 (M+1) k, so the tail is
    at most e^{-pi (M+1)^2 x} sum_k e^{-2 pi (M+1) k x}, a geometric series.
    """
    a = math.pi * (m_max + 1)
    return math.exp(-a * (m_max + 1) * x) / -math.expm1(-2 * a * x)


def theta_residual_bound(t: float, m_max: int = 50) -> float:
    """An upper bound on `theta_functional_equation_residual(t, m_max)` for
    a correct computation.

    With theta(x) = sum_{n in Z} e^{-pi n^2 x} and the tail R(x) of
    `_theta_tail`, the truncated sides are s1 = theta(t) - 2 tail(t) and
    s2 = theta(1/t) - 2 tail(1/t).  The law theta(t) = t^{-1/2} theta(1/t)
    leaves s1 - s2 t^{-1/2} = 2 tail(1/t) t^{-1/2} - 2 tail(t), at most
    2 R(t) + 2 R(1/t) t^{-1/2} in absolute value.

    Rounding, with eps = sys.float_info.epsilon and exp within an ulp: each
    side adds M + 1 terms and scales once, so summation is off by at most
    (M + 2) eps/2 times the side.  An exponential is off by an ulp plus a
    few eps (the rounding of its argument a = pi n^2 x) times a; since
    a e^{-a} summed over n is at most 1/(4 sqrt(x)) + 1/e, that adds a few
    eps times theta(x) over a side.  Both sides are at most theta(t), and
    theta(t) <= 1 + 2 int_0^oo e^{-pi u^2 t} du = 1 + t^{-1/2}.  So the term
    4 (M + 2) eps * 2 (1 + t^{-1/2}) covers all of it, the final
    subtraction and the evaluation of this bound included, with room to
    spare.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    root = math.sqrt(t)
    tails = 2 * _theta_tail(t, m_max) + 2 * _theta_tail(1 / t, m_max) / root
    return tails + 4 * (m_max + 2) * sys.float_info.epsilon * 2 * (1 + 1 / root)
