"""Volume of T and S: quadrature, closed form, derivative, and optimal offset.

The volume of T splits along the chord plane x_1 = c into a slab of the
small ball and a cap of the unit ball:

    vol T = int_{1/2-a}^{c-a} v_{n-1} (1/4 - x^2)^((n-1)/2) dx
          + int_{c}^{1}       v_{n-1} (1  - x^2)^((n-1)/2) dx

(c - a reduces to a - 1/2 at the canonical offset).  With x = sin(phi)/2
in the slab and x = sin(phi) in the cap, both are J = int cos^n(phi) dphi,

    vol T = v_{n-1} [(1/2)^n J(-asin(2a-1), asin(2(c-a))) + J(asin c, pi/2)],

whose integrand is smooth at both ends; the quadrature route takes it in
log scale relative to its peak, so one code path serves every n.
"""

from __future__ import annotations

import collections
import math
import operator

from .construction import CANONICAL_OFFSET, ConstructionParams, _check_offset, chord_coordinate
from .errors import DomainError, NumericError, checked_dimension
from .specfun import (LogValue, _log_ball_cap_fraction, _log_ball_cap_fractions, _log_gamma_half_ratio,
                      unit_ball_volume)

LOG_HALF = math.log(0.5)
LOG_TWO = math.log(2.0)
LOG_PI = math.log(math.pi)

# The 15-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(15)
# to the bit (tests/test_volume.py checks it); the quadrature route needs no numpy.
_GL_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
)
_GL_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)

# The quadrature route's one relative tolerance.  A looser one saves little
# time, and a tighter one no accuracy: from n ~ 500 up the rounding floor
# CLOSED_FORM_REL_ERROR * |log vol T| sets error_bound.
_QUADRATURE_TOL = 1e-12

# The most panels adaptive_gauss_legendre splits an interval into.  The
# quadrature route takes at most 8 at every n in 2..10000.
_MAX_PANELS = 4096

MAX_DIMENSION = 10000  # the documented range is 2 <= n <= MAX_DIMENSION

# Bound on |error of log vol T| / |log vol T| for vol_T_closed_form, which
# it reports as error_bound.  Against a 60-digit mpmath oracle the largest
# ratio found is 2.79e-15, at n = 480, a = 0.9020519483741545 (90 digits
# agree), over some 30000 random (n, a) with n in 2..10000 and a in
# (1/2, 1); it comes from rounding in log-gamma terms as large as
# |log vol T|.  tests/test_volume.py checks the bound on a grid and at
# seeded offsets.
CLOSED_FORM_REL_ERROR = 1e-14


class VolumeEstimate(collections.namedtuple("VolumeEstimate", "log_value error_bound")):
    """A log-domain volume (a LogValue) with error_bound, an absolute bound
    on the error of log_value."""

    __slots__ = ()

    def __new__(cls, log_value, error_bound):
        if error_bound < 0:
            raise DomainError("error_bound must be nonnegative")
        return super().__new__(cls, log_value, error_bound)


class RatioRow(collections.namedtuple("RatioRow", "n ratio scaled margin log_error_bound")):
    """Per-dimension record of the counterexample inequality.

    margin = 2^n * (vol S / vol B) - 1; positivity refutes the (1/2)^n
    bound at dimension n.  log_error_bound is the volume's error_bound: an
    absolute bound on the error of log(ratio).
    """

    __slots__ = ()


class RatioTable(collections.namedtuple("RatioTable", "n ratio scaled margin")):
    """RatioRow's first four fields as columns, one entry per dimension: n
    an integer array, the rest float64 arrays."""

    __slots__ = ()


def adaptive_gauss_legendre(f, lo: float, hi: float):
    """Integrate f on [lo, hi] by 15-point Gauss-Legendre on 1, 2, 4, ...
    equal panels, every node of a level in one call of f (a list of floats
    in, an iterable of as many floats out), until two levels agree to
    _QUADRATURE_TOL relative.  Each level's weighted sum is taken by math.fsum.

    Returns (value, error_estimate), the estimate being the last
    difference of levels; raises NumericError (carrying the best estimate
    and achieved error) if the next level would exceed _MAX_PANELS panels.
    """
    if hi <= lo:
        return 0.0, 0.0
    value = err = math.inf
    panels = 1
    while panels <= _MAX_PANELS:
        width = (hi - lo) / panels
        x = [lo + width * (k + 0.5 * (1.0 + t)) for k in range(panels) for t in _GL_NODES]
        fine = 0.5 * width * math.fsum(map(operator.mul, _GL_WEIGHTS * panels, f(x)))
        err = abs(fine - value)
        if err <= _QUADRATURE_TOL * abs(fine):
            return fine, err
        value = fine
        panels *= 2
    raise NumericError(
        f"quadrature used more than {_MAX_PANELS} panels without reaching tolerance {_QUADRATURE_TOL}",
        best_estimate=value,
        achieved_error=err,
    )


def _log_cos_power(n: int, lo: float, hi: float):
    """(log J, relative error) for J = int_lo^hi cos^n, -pi/2 <= lo < hi <= pi/2.

    The integrand is (cos(p + d) / cos p)^n = exp(n log1p(-2 sin^2(d/2) - tan(p) sin d)),
    exactly 1 at the peak p (0 clipped to [lo, hi]).  log cos is concave with
    curvature <= -1, so it is below e^-60 where n (|tan p| |d| + d^2/2) >= 60;
    cutting the interval there lets the first level see the peak.
    """
    p = min(max(0.0, lo), hi)
    slope = math.tan(p)
    room = 2.0 * 60.0 / n
    # The root of n (|tan p| d + d^2/2) = 60, rationalized: the difference
    # sqrt(tan^2 p + room) - |tan p| cancels to 0 on a steep peak.
    reach = room / (math.sqrt(slope * slope + room) + abs(slope))

    exp, log1p, sin = math.exp, math.log1p, math.sin  # local names: the loop below is hot

    def g(d):
        return [exp(n * log1p(-2.0 * sin(0.5 * t) ** 2 - slope * sin(t))) for t in d]

    value, err = adaptive_gauss_legendre(g, max(lo - p, -reach), min(hi - p, reach))
    return n * math.log(math.cos(p)) + math.log(value), err / value


def vol_T_quadrature(n: int, a: float = CANONICAL_OFFSET) -> VolumeEstimate:
    """vol T by adaptive quadrature of the two J integrals displayed above.

    error_bound is the larger last level difference of the two J, relative,
    plus CLOSED_FORM_REL_ERROR * |log vol T| for rounding in log v_{n-1},
    n log cos p and the sum, which the quadrature does not see.
    """
    n = ConstructionParams(n, a).n
    c = chord_coordinate(a)
    log_slab, rel_slab = _log_cos_power(n, -math.asin(2.0 * a - 1.0), math.asin(2.0 * (c - a)))
    log_cap, rel_cap = _log_cos_power(n, math.asin(c), 0.5 * math.pi)
    log_vn1 = unit_ball_volume(n - 1).log_magnitude
    slab = n * LOG_HALF + log_slab
    log_vol = log_vn1 + max(slab, log_cap) + math.log1p(math.exp(-abs(slab - log_cap)))
    error = max(rel_slab, rel_cap) + CLOSED_FORM_REL_ERROR * abs(log_vol)
    return VolumeEstimate(LogValue(log_vol), error)


def _log_scaled(n, a: float, log_cap):
    """log(2^n vol T / v_n) at the dimension or array of dimensions n, where
    log_cap(t) is the log of the unit-ball cap fraction beyond x_1 = t at n.

    The slab piece is the unit ball (the small ball rescaled) over
    [1 - 2a, 2(c - a)]: 1 minus two caps where the slab holds the center,
    the difference of two caps, in log scale, where it lies to one side.
    The cap piece is 2^n times the cap beyond the chord plane c.
    """
    import numpy as np

    c = chord_coordinate(a)
    u1 = 2.0 * (c - a)
    if u1 > 0.0:
        log_slab = np.log(1.0 - np.exp(log_cap(u1)) - np.exp(log_cap(2.0 * (a - 0.5))))
    else:
        near, far = log_cap(-u1), log_cap(2.0 * (a - 0.5))
        log_slab = near + np.log1p(-np.exp(far - near))
    return np.logaddexp(log_slab, n * LOG_TWO + log_cap(c))


def _closed_form(n: int, a: float) -> tuple[VolumeEstimate, float]:
    """vol_T_closed_form's estimate, and log(2^n vol T / v_n).  The latter is
    of order 1 at every n; formed without v_n and (1/2)^n, it does not round
    at the ulp of |log vol T| (7e-12 at n = 10000)."""
    n = ConstructionParams(n, a).n
    log_scaled = float(_log_scaled(n, a, lambda t: _log_ball_cap_fraction(n, t)))
    log_vol = unit_ball_volume(n).log_magnitude + n * LOG_HALF + log_scaled
    est = VolumeEstimate(LogValue(log_vol), CLOSED_FORM_REL_ERROR * abs(log_vol))
    return est, log_scaled


def vol_T_closed_form(n: int, a: float = CANONICAL_OFFSET) -> VolumeEstimate:
    """vol T in closed form via regularized-incomplete-beta slab fractions.

    Slab piece: the radius-1/2 ball (volume (1/2)^n v_n) restricted to a
    slab, rescaled to unit radius; cap piece: the unit ball beyond x_1 = c.
    Both fractions are carried as logs, so neither underflows at large n.
    error_bound is CLOSED_FORM_REL_ERROR * |log vol T|.
    """
    return _closed_form(n, a)[0]


def ratio_S(n: int, a: float = CANONICAL_OFFSET, method: str = "closed_form") -> RatioRow:
    """vol S / vol B and its 2^n-scaled form, computed in log domain."""
    if method == "closed_form":
        est, log_scaled = _closed_form(n, a)
    elif method == "quadrature":
        est = vol_T_quadrature(n, a)
        log_scaled = est.log_value.log_magnitude - unit_ball_volume(int(n)).log_magnitude + n * LOG_TWO
    else:
        raise DomainError(f"unknown method {method!r}")
    n = int(n)
    scaled = math.exp(LOG_TWO + log_scaled)
    return RatioRow(n=n, ratio=math.exp(LOG_TWO + n * LOG_HALF + log_scaled), scaled=scaled,
                    margin=scaled - 1.0, log_error_bound=est.error_bound)


def dvol_da(n: int, a: float = CANONICAL_OFFSET) -> float:
    """Derivative of vol T in the offset a.

    Differentiating the split integral, the boundary terms at the chord
    plane cancel (the two integrands agree there), leaving

        v_{n-1} * [(1/4 - (a - 1/2)^2)^p - (1/4 - (c - a)^2)^p]

    with p = (n-1)/2; zero exactly at equidistance, for every n.
    """
    n = ConstructionParams(n, a).n
    c = chord_coordinate(a)
    p = 0.5 * (n - 1)
    log_vn1 = unit_ball_volume(n - 1).log_magnitude
    return (math.exp(log_vn1 + p * math.log(0.25 - (a - 0.5) ** 2))
            - math.exp(log_vn1 + p * math.log(0.25 - (c - a) ** 2)))


def _sign_change_exact(a: float) -> bool:
    """Whether 3x^2 - x - 3/4, in rational arithmetic, is < 0 at x = a and
    > 0 at the next double up: then a is the double just below the root
    (1 + sqrt 10)/6, and vol T rises up to a and falls from the next double."""
    # Imported here: fractions imports decimal, which no start-up needs.
    from fractions import Fraction

    lo, hi = Fraction(a), Fraction(math.nextafter(a, 1.0))
    return 3 * lo * lo - lo < Fraction(3, 4) < 3 * hi * hi - hi


def maximize_a(n: int) -> float:
    """The offset maximizing vol T, CANONICAL_OFFSET, in every dimension n >= 2.

    dvol_da = v_{n-1} (A^p - B^p), A = 1/4 - (a - 1/2)^2, B = 1/4 - (c - a)^2,
    p = (n - 1)/2 > 0, has the sign of A - B = ((c - a) - (a - 1/2))(c - 1/2),
    with c > 1/2 and (c - a) - (a - 1/2) = -(3a^2 - a - 3/4)/(2a): vol T rises
    where 3a^2 - a - 3/4 < 0 and falls where it is > 0, whatever n.
    _sign_change_exact(CANONICAL_OFFSET) puts the root between it and the
    next double up.
    """
    ConstructionParams(n)
    return CANONICAL_OFFSET


def ratio_table(n_max: int, a: float = CANONICAL_OFFSET) -> RatioTable:
    """RatioRow's first four fields for every dimension in [2, n_max], as
    columns; each positive margin is the direct check of the
    counterexample inequality at that n.

    The same _log_scaled as ratio_S, but each of its three caps is taken
    for all n at once by the recurrence in n of _log_ball_cap_fractions,
    from a few scalar seeds.
    """
    import numpy as np

    n_max = checked_dimension(n_max, 2)
    if n_max > MAX_DIMENSION:
        raise DomainError(f"need 2 <= n_max <= {MAX_DIMENSION}, got {n_max}")
    _check_offset(a)
    n = np.arange(2, n_max + 1)
    # 1 / (alpha B(alpha, 1/2)) = Gamma(n/2 + 1) / (Gamma(n/2 + 3/2) sqrt(pi)).
    log_coef = -_log_gamma_half_ratio(0.5 * n + 1.0) - 0.5 * LOG_PI
    log_scaled = _log_scaled(n, a, lambda t: _log_ball_cap_fractions(t, log_coef))
    scaled = np.exp(LOG_TWO + log_scaled)
    return RatioTable(n, np.exp(LOG_TWO + n * LOG_HALF + log_scaled), scaled, scaled - 1.0)
