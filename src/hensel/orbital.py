"""Orbital and twisted orbital integrals as homothety-class counts.

The orbital integral of the unit-ball indicator at gamma counts the
homothety classes of gamma-stable lattices; the twisted variant weights
each class by a sign depending on its index parity (n = 2, kappa in
{0, 1}, so the twist weights are exact signed integers).

One engine produces the counts.  It walks the strata (alpha, beta, val c)
of the window's canonical forms, the subtrees of the digit tree of the
off-diagonal residue c, and accepts or rejects each stratum whole from the
valuations of a, b and c alone (see the comment above `_inclusion_counts`
for why they settle a stratum).  The walk is O(m^2) integer comparisons at
window radius m, and their number does not depend on p.

The test suite checks the engine against a direct scan that runs the full
membership test (`lattices.is_stable`) on every class of small windows
(`lattices.enumerate_window`); that oracle lives in `tests/test_orbital.py`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .lattices import GammaElement, _window_strata
from .padics import INFINITY, valp_fraction
from .primes import is_prime, legendre_symbol

# Outcome of one transfer-identity verification.  counts maps each grading
# class to its stable-class count; expected, closed_form and verdict are None
# where they do not apply.
OrbitalReport = namedtuple(
    "OrbitalReport",
    "p val_a val_b kappa window counts untwisted twisted expected"
    " closed_form saturated verdict regime",
)


# -- the counting engine -------------------------------------------------------
#
# For the class (alpha, beta, c) with basis (p^alpha e1) and (c e1 + p^beta e2),
# solving the triangular system shows that gamma(L) <= L is equivalent to the
# four valuation conditions
#
#   (i)    val(b) + alpha - beta                     >= 0
#   (ii)   val(a p^beta - c b)                       >= beta
#   (iii)  val(a p^beta + c b)                       >= beta
#   (iv)   val(delta p^{2 beta} - c^2)               >= alpha + beta - val(b)
#
# A stratum (alpha, beta, vc) holds the (p - 1) p^{alpha - vc - 1} residues c
# mod p^alpha of valuation vc: the subtree of the digit tree under the
# leading digit of c.  Every class of a stratum meets the conditions or none
# does, and the integer valuations va = val(a), vb = val(b) and vc (infinite
# for c = 0) decide which:
#
# * (i) does not involve c: vb + alpha >= beta;
# * (ii) and (iii) hold together iff val(a p^beta) >= beta and
#   val(c b) >= beta, since their sum and difference are 2 a p^beta and
#   2 c b and p is odd; a digit that cancels one of them breaks the other.
#   So they hold iff va >= 0 and vc + vb >= beta;
# * (iv) never cancels: delta is a non-square unit, so the value has
#   valuation min(2 beta, 2 vc) exactly, and (iv) is
#   2 min(beta, vc) >= alpha + beta - vb.
#
# No digit below the leading one matters, so the walk visits each stratum
# once, whatever p is.  `_window_strata` yields exactly (2m + 1)^2 strata,
# so the walk is O(m^2) integer comparisons.


def _inclusion_counts(p: int, va, vb: int, m: int) -> dict:
    """Counts, per grading class, the classes of the window with gamma(L) <= L
    for gamma with val(a) = va (INFINITY for a = 0) and val(b) = vb."""
    counts = {0: 0, 1: 0}
    for alpha, beta, vc, size in _window_strata(p, m):
        if vc is None:
            vc = INFINITY  # c = 0
        if (
            vb + alpha >= beta
            and va >= 0
            and vc + vb >= beta
            and 2 * min(beta, vc) >= alpha + beta - vb
        ):
            counts[(alpha + beta) % 2] += size
    return counts


def _stable_counts(p: int, va, vb: int, m: int) -> dict:
    """Counts, per grading class, the gamma-stable classes of the window."""
    if min(va, vb) != 0:
        # the norm form is anisotropic, so val det = val(a^2 - b^2 delta) is
        # 2 min(va, vb); gamma(L) has index p^{val det} in L, so it never
        # equals L
        return {0: 0, 1: 0}
    # unit determinant: gamma(L) <= L has index 1, so it is gamma(L) = L
    return _inclusion_counts(p, va, vb, m)


def count_stable(gamma: GammaElement, m: int) -> dict:
    """Count gamma-stable homothety classes in the window, per grading class."""
    return _stable_counts(gamma.p, gamma.val_a, gamma.val_b, m)


def twisted_count(gamma: GammaElement, kappa: int, m: int) -> int:
    """Stable-class count with grading class r weighted by (-1)^(r*kappa)."""
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    counts = count_stable(gamma, m)
    if kappa == 0:
        return counts[0] + counts[1]
    return counts[0] - counts[1]


def shell_count(p: int, w: int, vb: int) -> int:
    """Number of admissible off-diagonal classes at off-axis valuation w.

    For val(y) = w the stability inequalities leave the classes of x in
    Q_p/Z_p with val(x) >= (w - vb)/2; since valuations are integers this
    is p^{(vb-w)/2} for w of the same parity as vb and p^{(vb-w-1)/2}
    otherwise.
    """
    if not -vb <= w <= vb:
        return 0
    if (vb - w) % 2 == 0:
        return p ** ((vb - w) // 2)
    return p ** ((vb - w - 1) // 2)


def closed_form_count(p: int, vb: int, kappa: int) -> int:
    """Signed stable-class total in the unit-norm regime, summed shell by
    shell: sum over w in [-vb, vb] of (-1)^(kappa*w) p^{f(w)}."""
    if vb <= 0:
        raise ValueError("closed form requires val(b) >= 1")
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    total = 0
    for w in range(-vb, vb + 1):
        sign = -1 if (kappa and w % 2) else 1
        total += sign * shell_count(p, w, vb)
    return total


def verify_fundamental_lemma(
    p: int,
    a,
    b,
    delta,
    kappa: int = 1,
    window: int | None = None,
) -> OrbitalReport:
    """Compare the twisted count of stable classes with the transfer constant.

    In the regime val(a) = 0, val(b) > 0 (so a + b sqrt(delta) is a unit of
    the quadratic order) the expected twisted total is (-p)^{val(b)}, and the
    verdict also requires the shell-by-shell closed form to agree.  When
    a + b sqrt(delta) is not a unit of the order the expected total is 0.
    The remaining boundary val(b) = 0 is reported without a verdict.

    The default window in the unit regime has radius ceil(val(b)/2), and the
    count is repeated at radius m + 1 as a saturation certificate.  The
    certificate is sound because:

    * the fixed-point set F of gamma on the Bruhat-Tits tree of PGL_2(Q_p)
      is convex, i.e. a subtree (Serre, *Trees*, ch. I, sec. 6): gamma maps
      the one path between two fixed vertices to a path with the same ends,
      so it fixes that path;
    * F contains the vertex L0 in the unit regime, where gamma is integral
      with unit determinant;
    * the window of radius m is, as a set of homothety classes, the tree
      ball of radius 2m around L0.

    If F left the ball of radius 2m, the path from L0 to a vertex of F
    outside it would lie in F and meet distance 2m + 1, inside the window of
    radius m + 1, so the two counts would differ.  Equal counts therefore
    show that the window holds all of F.  (In the unit regime F is the ball
    of radius val(b), which the default window just holds.)  The vanishing
    and outside regimes keep the radius val(b) + 1; in the vanishing regime
    the counts are zero by the index argument in `_stable_counts`.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    ra, rb, rdelta = Fraction(a), Fraction(b), Fraction(delta)
    if rb == 0:
        raise ValueError("b must be nonzero")
    # the count reads only val(a), val(b) and delta's square class; the symbol
    # of n/d is that of n d, and it is 0 unless delta is a unit
    if legendre_symbol(rdelta.numerator * rdelta.denominator, p) != -1:
        raise ValueError("delta must be a non-square unit of Z_p")
    va = valp_fraction(ra, p)
    vb = valp_fraction(rb, p)

    if va == 0 and vb > 0:
        regime = "unit"
        closed = closed_form_count(p, vb, kappa)
        expected = (-p) ** vb if kappa == 1 else closed
    elif min(va, vb) != 0:
        regime = "vanishing"  # a + b sqrt(delta) is not a unit of the order
        closed = None
        expected = 0
    else:
        regime = "outside"  # val(b) = 0: not covered by the identity
        closed = None
        expected = None

    if window is None:
        window = (vb + 1) // 2 if regime == "unit" else max(vb, 0) + 1
    if window < 0:
        raise ValueError("window radius must be nonnegative")
    m = window
    counts = _stable_counts(p, va, vb, m)
    saturated = counts == _stable_counts(p, va, vb, m + 1)

    untwisted = counts[0] + counts[1]
    twisted = counts[0] - counts[1] if kappa == 1 else untwisted
    verdict = None
    if expected is not None:
        verdict = twisted == expected and saturated
        if regime == "unit":
            verdict = verdict and twisted == closed

    return OrbitalReport(
        p=p,
        val_a=va,
        val_b=vb,
        kappa=kappa,
        window=m,
        counts=counts,
        untwisted=untwisted,
        twisted=twisted,
        expected=expected,
        closed_form=closed,
        saturated=saturated,
        verdict=verdict,
        regime=regime,
    )
