"""Equatorial-slab concentration certificates.

Most of a high-dimensional ball's volume lies near any hyperplane through
the center: for n >= 3 and c >= 1 the slab |x_1| <= c/sqrt(n-1) holds a
fraction at least 1 - (2/c) e^(-c^2/2) of the unit ball (A. Blum,
J. Hopcroft and R. Kannan, Foundations of Data Science, Cambridge UP,
2020, Theorem 2.7, in this form; see also K. Ball, An Elementary
Introduction to Modern Convex Geometry, 1997, Lecture 8).  Rescaled to the
radius-1/2 ball (fractions are scale invariant), this certifies
vol S / vol B > (1/2)^n for every dimension where the theorem's slab fits
inside the construction's slab of half-width a - 1/2, i.e. where
c/sqrt(n-1) <= 2a - 1.
"""

from __future__ import annotations

import collections
import math
import sys

from .construction import CANONICAL_OFFSET, _check_offset
from .errors import CertificateError, DomainError, checked_dimension


class ConcentrationCertificate(collections.namedtuple("ConcentrationCertificate", "c n_min bound_factor")):
    """A constant c together with the range of dimensions it certifies.

    bound_factor = 2 (1 - (2/c) e^(-c^2/2)) is the certified lower bound
    for the 2^n-scaled ratio; the certificate is only meaningful when it
    exceeds 1.
    """

    __slots__ = ()


#: Every certifying constant exceeds this one: the c with bound factor
#: 2 (1 - (2/c) e^(-c^2/2)) = 1, i.e. c^2 e^(c^2) = 16, so c* = sqrt(W(16))
#: (Lambert W), to the nearest double.  Slab bound: Blum, Hopcroft and
#: Kannan (2020), Theorem 2.7 (module docstring).
C_STAR = 1.4328966178558202


def concentration_bound(c: float) -> float:
    """1 - (2/c) e^(-c^2/2); may be negative (vacuous) and is returned as-is."""
    if not c >= 1.0:
        raise DomainError(f"the inequality requires c >= 1, got {c!r}")
    return 1.0 - (2.0 / c) * math.exp(-0.5 * c * c)


def _width_ok_from(c: float, a: float) -> int:
    """Smallest n >= 3 with c/sqrt(n-1) <= 2a - 1.  k = (c / (2a - 1))^2 is
    exact in the doubles c and a, so n is exact at every size."""
    # Imported here, not at the top: fractions imports decimal, which adds
    # 5-8 ms (~3 % on a 2-vCPU Intel Xeon VM) to every start-up of the CLI,
    # for a path only threshold takes.
    from fractions import Fraction

    _check_offset(a)
    k = (Fraction(c) / (2 * Fraction(a) - 1)) ** 2 if math.isfinite(c) else math.inf
    if not k <= sys.float_info.max:
        raise DomainError(f"c={c!r} fits the slab only in dimensions beyond the float range")
    return max(3, math.ceil(k) + 1)


def certified_ratio_lower_bound(n: int, c: float) -> float:
    """Certified lower bound for 2^n * vol S / vol B at dimension n and the
    canonical offset.

    Valid whenever the theorem's slab (rescaled to radius 1/2) fits inside
    the construction's slab; then vol S / vol B >= 2 (1/2)^n bound(c).
    """
    n = checked_dimension(n, 3)
    bound = concentration_bound(c)
    needed = _width_ok_from(c, CANONICAL_OFFSET)
    if n < needed:
        raise CertificateError(f"slab width c/sqrt(n-1) exceeds 2a - 1 at n={n}; "
                               f"c={c} certifies only n >= {needed}")
    return 2.0 * bound


def minimal_certified_n(c: float, a: float = CANONICAL_OFFSET) -> ConcentrationCertificate:
    """Certificate for the smallest dimension the constant c covers, if its
    bound factor, checked first, is above 1."""
    bound_factor = 2.0 * concentration_bound(c)
    if not bound_factor > 1.0:
        raise CertificateError(f"c={c} gives bound factor {bound_factor:.6f} <= 1: no certificate")
    return ConcentrationCertificate(c=c, n_min=_width_ok_from(c, a), bound_factor=bound_factor)


def certifying_constants(
    a: float = CANONICAL_OFFSET, c_min: float = 1.0, c_max: float = 3.0
) -> tuple[float, float, int]:
    """The constants in [c_min, c_max] that certify the smallest dimension
    n_min, as the interval (c_lo, c_hi], closed at c_lo if c_lo = c_min >
    C_STAR, and n_min itself.  The bound factor grows with c and the slab
    needs c <= (2a - 1) sqrt(n - 1), so c_lo = max(c_min, C_STAR), n_min is
    the width of the smallest double that certifies (c_lo, or the double
    after C_STAR, whose own bound factor rounds to 1), and c_hi is the
    largest double up to min(c_max, (2a - 1) sqrt(n_min - 1)).
    """
    if not 1.0 <= c_min <= c_max:
        raise DomainError(f"need 1 <= c_min <= c_max, got [{c_min}, {c_max}]")
    if not c_max > C_STAR:
        raise CertificateError(f"no certifying constant in [{c_min}, {c_max}]")
    c_lo = max(c_min, C_STAR)
    n_min = _width_ok_from(c_lo if c_lo > C_STAR else math.nextafter(C_STAR, math.inf), a)
    # m = floor((2a - 1) sqrt(n_min - 1) 2^53) by an exact integer square
    # root.  The form is at least C_STAR > 1, so m has 54 bits or more, and
    # m cut to 53 bits is the largest double up to the form.
    p, q = a.as_integer_ratio()
    m = math.isqrt(((2 * p - q) ** 2 * (n_min - 1) << 106) // (q * q))
    shift = m.bit_length() - 53
    return c_lo, min(c_max, math.ldexp(m >> shift, shift - 53)), n_min


def best_certificate(
    a: float = CANONICAL_OFFSET, c_min: float = 1.0, c_max: float = 3.0
) -> ConcentrationCertificate:
    """The certificate with the smallest n_min over c in [c_min, c_max],
    at the largest such c (the most slack above 1)."""
    return minimal_certified_n(certifying_constants(a, c_min, c_max)[1], a)
