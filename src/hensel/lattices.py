"""Rank-2 Z_p-lattices in Q_p^2: canonical forms, enumeration, stability.

A lattice is stored in upper-triangular canonical form

    L = Z_p (p^alpha e1)  +  Z_p (c e1 + p^beta e2),

where the off-diagonal entry c is the unique reduced representative of its
class modulo p^alpha (all of its digits at positions >= alpha are zero).
Every lattice has exactly one such form, so structural equality of the
canonical fields decides lattice equality.  The homothety-normalized form
additionally satisfies min(alpha, beta, val(c)) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .padics import PadicScalar, from_rational, is_square_unit

Vector = tuple[PadicScalar, PadicScalar]


def power_of_p(p: int, e: int, prec: int) -> PadicScalar:
    """The scalar p^e at the given precision."""
    if e >= 0:
        return from_rational(p**e, 1, p, prec)
    return from_rational(1, p**-e, p, prec)


class Lattice2:
    """Canonical form of a rank-2 Z_p-lattice (not necessarily normalized)."""

    __slots__ = ("p", "alpha", "beta", "offdiag")

    def __init__(self, p: int, alpha: int, beta: int, offdiag: PadicScalar):
        if offdiag.p != p:
            raise ValueError("offdiag prime differs from lattice prime")
        self.p = p
        self.alpha = alpha
        self.beta = beta
        # constructor enforces canonicality; reduce_mod is idempotent
        self.offdiag = offdiag.reduce_mod(alpha)

    def key(self):
        off = self.offdiag
        if off.is_zero:
            digits = None
        else:
            # strip trailing zeros so the key ignores representation precision
            d = list(off.unit_digits)
            while d and d[-1] == 0:
                d.pop()
            digits = (off.valuation, tuple(d))
        return (self.p, self.alpha, self.beta, digits)

    def __eq__(self, other):
        return isinstance(other, Lattice2) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        c = "0" if self.offdiag.is_zero else repr(self.offdiag)
        return f"Lattice2(p={self.p}, alpha={self.alpha}, beta={self.beta}, offdiag={c})"

    def basis(self, prec: int) -> tuple[Vector, Vector]:
        """The canonical basis vectors (p^alpha e1) and (c e1 + p^beta e2)."""
        zero = PadicScalar.zero(self.p)
        return (
            (power_of_p(self.p, self.alpha, prec), zero),
            (self.offdiag, power_of_p(self.p, self.beta, prec)),
        )

    def shifted(self, h: int) -> "Lattice2":
        """The homothetic lattice p^h L."""
        return Lattice2(self.p, self.alpha + h, self.beta + h, self.offdiag.shift(h))


def standard_lattice(p: int) -> Lattice2:
    """L0 = Z_p e1 + Z_p e2."""
    return Lattice2(p, 0, 0, PadicScalar.zero(p))


def canonicalize(v1: Vector, v2: Vector) -> Lattice2:
    """Canonical form of the lattice spanned by two independent vectors.

    Column reduction over Z_p: pivot on the coordinate of e2 with the
    smaller valuation, eliminate the other, scale both columns by units,
    and reduce the off-diagonal entry modulo p^alpha.  The result does not
    depend on the input basis.
    """
    (u1, u2), (w1, w2) = v1, v2
    p = u1.p
    if u2.valuation < w2.valuation:
        u1, u2, w1, w2 = w1, w2, u1, u2
    if w2.is_zero:
        raise ValueError("dependent vectors: both lie in Q_p e1")
    if not u2.is_zero:
        r = u2 / w2  # val >= 0 by pivot choice
        u1 = u1 - r * w1
    if u1.is_zero:
        raise ValueError("dependent vectors span a rank-1 module")
    alpha = u1.valuation
    beta = w2.valuation
    offdiag = w1 / w2.shift(-beta)  # scale column 2 by the unit part of w2
    return Lattice2(p, alpha, beta, offdiag)


def lattice_from_xy(p: int, x, y, prec: int) -> Lattice2:
    """The lattice Z_p e1 + Z_p (x e1 + y e2) for rational x, y (y != 0)."""
    x = Fraction(x)
    y = Fraction(y)
    zero = PadicScalar.zero(p)
    one = from_rational(1, 1, p, prec)
    xs = from_rational(x.numerator, x.denominator, p, prec)
    ys = from_rational(y.numerator, y.denominator, p, prec)
    return canonicalize((one, zero), (xs, ys))


def homothety_normalize(lat: Lattice2) -> Lattice2:
    """Scale by a power of p so that min(alpha, beta, val(offdiag)) = 0."""
    m = min(lat.alpha, lat.beta, lat.offdiag.valuation)
    if m == 0:
        return lat
    return lat.shifted(-m)


def grading(lat: Lattice2) -> int:
    """Index parity class: the difference of lengths against L0, mod 2.

    The length difference equals minus the valuation of the canonical basis
    determinant, i.e. -(alpha + beta); only its parity is retained.
    """
    return (-(lat.alpha + lat.beta)) % 2


def contains(lat: Lattice2, w: Vector) -> bool:
    """Whether the vector lies in the lattice (triangular solve over Z_p)."""
    w1, w2 = w
    t = w2.shift(-lat.beta)
    s = (w1 - lat.offdiag * t).shift(-lat.alpha)
    return t.valuation >= 0 and s.valuation >= 0


class GammaElement:
    """The matrix [[a, b*delta], [b, a]] acting on Q_p^2.

    Represents a + b*sqrt(delta) in the quadratic extension generated by a
    square root of a non-square unit delta.  b must be nonzero, which makes
    the characteristic polynomial irreducible.  The determinant a^2 - b^2
    delta and its valuation are cached; `is_unit_norm` flags the regime
    val(a) = 0, val(b) > 0.
    """

    __slots__ = ("p", "a", "b", "delta", "det", "det_valuation", "is_unit_norm")

    def __init__(self, a: PadicScalar, b: PadicScalar, delta: PadicScalar):
        p = a.p
        if b.p != p or delta.p != p:
            raise ValueError("mismatched primes among a, b, delta")
        if b.is_zero:
            raise ValueError("b must be nonzero")
        if delta.valuation != 0 or is_square_unit(delta):
            raise ValueError("delta must be a non-square unit of Z_p")
        self.p = p
        self.a = a
        self.b = b
        self.delta = delta
        self.det = a * a - b * b * delta
        self.det_valuation = self.det.valuation
        self.is_unit_norm = a.valuation == 0 and b.valuation > 0

    @classmethod
    def from_rationals(cls, p, a, b, delta, prec) -> "GammaElement":
        a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
        return cls(
            from_rational(a.numerator, a.denominator, p, prec),
            from_rational(b.numerator, b.denominator, p, prec),
            from_rational(delta.numerator, delta.denominator, p, prec),
        )

    @property
    def val_a(self):
        return self.a.valuation

    @property
    def val_b(self):
        return self.b.valuation

    def apply(self, w: Vector) -> Vector:
        w1, w2 = w
        return (self.a * w1 + self.b * self.delta * w2, self.b * w1 + self.a * w2)

    def apply_inverse(self, w: Vector) -> Vector:
        w1, w2 = w
        inv_det = self.det.inv()
        return (
            (self.a * w1 - self.b * self.delta * w2) * inv_det,
            (self.a * w2 - self.b * w1) * inv_det,
        )

    def __repr__(self):
        return (
            f"GammaElement(p={self.p}, val_a={self.val_a}, val_b={self.val_b})"
        )


def is_stable(lat: Lattice2, gamma: GammaElement) -> bool:
    """Whether gamma(L) = L.

    For unit determinant, gamma(L) is a sublattice of L of equal index, so
    the inclusion gamma(L) <= L already forces equality.  Otherwise both
    inclusions are tested (L <= gamma(L) via gamma^{-1}(L) <= L); they can
    never hold simultaneously when the determinant valuation is nonzero,
    because the index of gamma(L) in L differs from zero by exactly that
    valuation.
    """
    if lat.p != gamma.p:
        raise ValueError("lattice and gamma have different primes")
    prec = max(
        gamma.a.precision, gamma.b.precision, 2 * (abs(lat.alpha) + abs(lat.beta)) + 6
    )
    b1, b2 = lat.basis(prec)
    if not (contains(lat, gamma.apply(b1)) and contains(lat, gamma.apply(b2))):
        return False
    if gamma.det_valuation == 0:
        return True
    return contains(lat, gamma.apply_inverse(b1)) and contains(
        lat, gamma.apply_inverse(b2)
    )


# -- enumeration -------------------------------------------------------------


def _window_strata(p: int, m: int):
    """Yield (alpha, beta, vc, size) strata of the homothety classes that meet
    the window p^m L0 <= L <= p^{-m} L0 for some homothety representative,
    in ascending (alpha, beta).

    vc is the valuation of the off-diagonal entry; None encodes offdiag = 0.
    size is the number of classes in the stratum: 1 for offdiag = 0, else
    the (p - 1) p^{alpha - vc - 1} residues mod p^alpha of valuation vc.
    A normalized class (alpha, beta >= 0, min(alpha, beta, val c) = 0) has a
    representative inside the window exactly when

        max(alpha, beta, alpha + beta - val(c)) <= 2m,

    since p^{m'} L0 <= L forces m' >= each of those three quantities and the
    scaling freedom contributes the other m.
    """
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


def window_class_count(p: int, m: int) -> int:
    """Number of homothety classes meeting the window of radius m."""
    return sum(size for *_, size in _window_strata(p, m))


def enumerate_window(p: int, m: int, prec: int | None = None) -> list[Lattice2]:
    """One normalized representative per homothety class meeting the window.

    Deterministic order: ascending (alpha, beta), then lexicographic on the
    absolute digit vector of the off-diagonal residue.
    """
    if m < 0:
        raise ValueError("window radius must be nonnegative")
    if prec is None:
        prec = 2 * m + 6
    if prec < 2 * m + 6:
        raise ValueError(f"precision {prec} below safe floor {2 * m + 6}")

    def digit_vec(c: int, alpha: int) -> tuple:
        return tuple(c // p**i % p for i in range(alpha))

    out = []
    for (alpha, beta), strata in groupby(_window_strata(p, m), key=lambda s: s[:2]):
        cs = []
        for _, _, vc, _ in strata:
            if vc is None:
                cs.append(0)
            else:
                cs.extend(u * p**vc for u in range(1, p ** (alpha - vc)) if u % p != 0)
        cs.sort(key=lambda c: digit_vec(c, alpha))
        for c in cs:
            out.append(Lattice2(p, alpha, beta, from_rational(c, 1, p, prec)))
    return out
