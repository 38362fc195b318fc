"""Real Dirichlet characters, quadratic Frobenius classes, L-series checks.

Characters are real: a table of the integers +-1 on the units, and 0 off
them.  Frobenius classes for quadratic fields are decided through the
quadratic-residue criterion, never by floating point.  The analytic partial
sum and product at the bottom are the only floating-point code in the
module; `lseries_gap_bound` states how far apart a correct pair of them can
be, so that their comparison is a certificate rather than a chosen tolerance.
"""

from __future__ import annotations

import enum
import math
import sys

from .primes import is_prime, legendre_symbol, primes_upto


class DirichletCharacter:
    """A real character: completely multiplicative, periodic mod N, +-1 on
    the units and zero off them."""

    def __init__(self, modulus: int, table: dict):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
        if sorted(table) != units:
            raise ValueError("table must cover exactly the residues coprime to N")
        for r, v in table.items():
            if v not in (1, -1):
                raise ValueError(f"character value at {r} must be +-1, got {v!r}")
        vals = {r: int(v) for r, v in table.items()}
        one = 1 % modulus
        if vals[one] != 1:
            raise ValueError("a character sends 1 to 1")
        for r in units:
            for s in units:
                if vals[r] * vals[s] != vals[r * s % modulus]:
                    raise ValueError(
                        f"table is not multiplicative at ({r}, {s}) mod {modulus}"
                    )
        self.modulus = modulus
        self._values = vals

    def __call__(self, n: int) -> int:
        """Value at any integer: table lookup mod N, zero on shared factors."""
        r = n % self.modulus
        if math.gcd(r, self.modulus) != 1:
            return 0
        return self._values[r]

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus})"

    # -- stock characters ---------------------------------------------------

    @classmethod
    def trivial(cls, modulus: int = 1) -> "DirichletCharacter":
        return cls(modulus, {r: 1 for r in range(modulus) if math.gcd(r, modulus) == 1})

    @classmethod
    def mod_four(cls) -> "DirichletCharacter":
        """chi(n) = (-1)^((n-1)/2) on odd n: +1 at 1 mod 4, -1 at 3 mod 4."""
        return cls(4, {1: 1, 3: -1})

    @classmethod
    def mod_eight(cls) -> "DirichletCharacter":
        """The quadratic character mod 8 that is +1 exactly at +-1 mod 8."""
        return cls(8, {1: 1, 3: -1, 5: -1, 7: 1})

    @classmethod
    def legendre(cls, q: int) -> "DirichletCharacter":
        """The quadratic-residue character mod an odd prime q."""
        if q == 2 or not is_prime(q):
            raise ValueError("legendre character needs an odd prime modulus")
        return cls(q, {r: legendre_symbol(r, q) for r in range(1, q)})


class FrobeniusClass(enum.Enum):
    SPLIT = "split"  # identity substitution: the prime factors completely
    INERT = "inert"  # the nontrivial involution of the quadratic field
    RAMIFIED = "ramified"

    @property
    def sign(self) -> int:
        if self is FrobeniusClass.RAMIFIED:
            raise ValueError("ramified primes carry no sign")
        return 1 if self is FrobeniusClass.SPLIT else -1


def _is_squarefree(d: int) -> bool:
    d = abs(d)
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        while d % f == 0:
            d //= f
        f += 1
    return True


def frobenius_quadratic(d: int, p: int) -> FrobeniusClass:
    """Substitution class of p in the quadratic field attached to sqrt(d).

    The primes dividing the discriminant (d if d = 1 mod 4, else 4d) are
    ramified.  For d = 1 mod 4 the prime 2 is unramified: it splits when
    d = 1 mod 8 and is inert when d = 5 mod 8.  Away from 2d the class is
    split exactly when d is a quadratic residue mod p.
    """
    if d == 0 or not _is_squarefree(d):
        raise ValueError("d must be a squarefree nonzero integer")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 and d % 4 == 1:
        return FrobeniusClass.SPLIT if d % 8 == 1 else FrobeniusClass.INERT
    if (2 * d) % p == 0:
        return FrobeniusClass.RAMIFIED
    if legendre_symbol(d % p, p) == 1:
        return FrobeniusClass.SPLIT
    return FrobeniusClass.INERT


def reciprocity_check(d: int, chi: DirichletCharacter, p_max: int) -> list:
    """Compare the Frobenius sign against chi(p) for unramified p <= p_max.

    Returns the list of mismatches as (p, frobenius sign, chi(p)); an empty
    list certifies that chi tracks the splitting of primes in the field.
    """
    mismatches = []
    for p in primes_upto(p_max):
        if (2 * d) % p == 0:
            continue
        sign = frobenius_quadratic(d, p).sign
        if chi(p) != sign:
            mismatches.append((p, sign, chi(p)))
    return mismatches


# -- L-series partial sums and products ---------------------------------------


def dirichlet_sum_partial(chi: DirichletCharacter, s: float, n_max: int) -> float:
    """sum_{n <= n_max} chi(n) n^{-s} for real s > 1 (float arithmetic)."""
    if s <= 1:
        raise ValueError("partial sums are only taken in the region s > 1")
    vals = [float(chi(r)) for r in range(chi.modulus)]
    total = 0.0
    mod = chi.modulus
    for n in range(1, n_max + 1):
        v = vals[n % mod]
        if v:
            total += v * n**-s
    return total


def euler_product_partial(chi: DirichletCharacter, s: float, p_max: int) -> float:
    """prod_{p <= p_max} (1 - chi(p) p^{-s})^{-1} for real s > 1."""
    if s <= 1:
        raise ValueError("partial products are only taken in the region s > 1")
    total = 1.0
    for p in primes_upto(p_max):
        v = chi(p)
        if v:
            total /= 1 - v * p**-s
    return total


def lseries_gap_bound(s: float, n_max: int, p_max: int, product: float) -> float:
    """An upper bound on |S_N - P_P| for a correct computation, where S_N is
    `dirichlet_sum_partial(chi, s, N)` and P_P = `product` is
    `euler_product_partial(chi, s, P)` for a real character chi, s > 1.

    Both approach L(s, chi) = sum chi(n) n^-s = prod (1 - chi(p) p^-s)^-1,
    so |S_N - P_P| <= |L - S_N| + |L - P_P| plus the rounding of each side.

    The sum's tail: |L - S_N| <= sum_{n > N} n^-s <= int_N^oo x^-s dx
    = N^(1-s) / (s - 1).

    The product's tail: L = P_P * T with T = prod_{p > P} (1 - chi(p) p^-s)^-1.
    For |x| < 1, |log(1 - x)| <= sum_k |x|^k = |x| / (1 - |x|); with
    |x| = p^-s < P^-s this gives |log T| <= sum_{p > P} p^-s / (1 - P^-s)
    <= int_P^oo x^-s dx / (1 - P^-s) = P^(1-s) / ((s - 1)(1 - P^-s)) = E.
    Hence |T - 1| <= e^E - 1 and |L - P_P| <= |P_P| expm1(E).

    Rounding, with eps = sys.float_info.epsilon and pow within an ulp: each
    term of the sum is off by at most eps relative, and recursive summation
    of N terms adds at most N eps/2 times their absolute sum, which is at
    most zeta(s) <= 1 + int_1^oo x^-s dx = s / (s - 1).  Each of the
    pi(P) <= P factors of the product is off by at most 2 eps relative: the
    power x = p^-s, whose error reaches 1 - x scaled by x / (1 - x) <= 1
    since x <= 1/2, then the subtraction and the division.  So P_P is off
    by at most about 2 P eps |P_P|.  The term 4 eps (N s / (s - 1) + P |P_P|)
    is twice these; the spare factor covers the final subtraction and the
    evaluation of this bound, whose terms are each computed within a few eps.

    Returns inf where e^E overflows: the check then carries no information.
    """
    eps = sys.float_info.epsilon
    e = p_max ** (1 - s) / ((s - 1) * (1 - p_max**-s))
    growth = math.expm1(e) if e < 700 else math.inf
    return (
        n_max ** (1 - s) / (s - 1)
        + abs(product) * growth
        + 4 * eps * (n_max * (s / (s - 1)) + p_max * abs(product))
    )
