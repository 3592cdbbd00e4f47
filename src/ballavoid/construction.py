"""Geometry of the counterexample set.

The one-sided body T is the intersection of the open half-space x_1 > 1/2,
the open ball of radius 1/2 centered at a*e_1, and the open unit ball; the
full set S is T together with its reflection through the origin.

Every membership test, the sampler's included, goes through one kernel
that compares x_1 and |x|^2 with the strict inequalities of the
definition: boundary points are outside.  Points are plain numpy arrays;
the distinguished axis is coordinate 0.
"""

from __future__ import annotations

import collections
import math

from .errors import DomainError, checked_dimension

#: Offset of the small-ball center along e_1 that maximizes the volume of T:
#: the root (1 + sqrt 10)/6 of 3a^2 - a - 3/4 = 0 in (1/2, 1), as the nearest
#: double, 0.6937129433613966 (0.047 ulp below the root).  isqrt(10 * 4^120) is
#: 2^120 sqrt 10 to within 1, far below the quotient's ulp, and int / int rounds
#: correctly.  volume._sign_change_exact checks that the root lies between it
#: and the next double up; changing it alters every FROZEN hash.
CANONICAL_OFFSET = ((1 << 120) + math.isqrt(10 << 240)) / (6 << 120)


def _check_offset(a: float) -> None:
    """DomainError unless a lies in (1/2, 1), the offsets of the construction."""
    if not 0.5 < a < 1.0:
        raise DomainError(f"offset must lie in (1/2, 1), got {a!r}")


def chord_coordinate(a: float) -> float:
    """x_1-coordinate of the hyperplane through the intersection of the
    spheres ||x|| = 1 and ||x - a e_1|| = 1/2.

    Equals (a^2 + 3/4) / (2a) and lies in (1/2, 1) for a in (1/2, 1).
    """
    if not a > 0.5:
        raise DomainError(
            f"spheres are nested for offset a={a!r} (need a + 1/2 > 1); no chord plane"
        )
    return (a * a + 0.75) / (2.0 * a)


def equidistance_residual(a: float) -> float:
    """(a - 1/2) - (c(a) - a): zero exactly when a*e_1 sits midway between
    the plane x_1 = 1/2 and the chord plane, i.e. at the canonical offset."""
    _check_offset(a)
    return (a - 0.5) - (chord_coordinate(a) - a)


class ConstructionParams(collections.namedtuple("ConstructionParams", "n a")):
    """Dimension and offset defining T and S.

    The half-space threshold, the small radius and the outer radius are
    fixed at 1/2, 1/2 and 1 by the construction; _tightened holds them.
    _make, and so _replace, builds through __new__ and its checks.
    """

    __slots__ = ()

    def __new__(cls, n, a=CANONICAL_OFFSET):
        n = checked_dimension(n, 2)
        _check_offset(a)
        return super().__new__(cls, n, a)

    _make = classmethod(lambda cls, fields: cls(*fields))


def _tightened(a: float, eps: float) -> tuple[float, float, float]:
    """(t, r, R) = (1/2 + eps, 1/2 - eps, 1 - eps): the threshold, small and
    outer radius of T at offset a, the construction's only three lengths,
    tightened by eps, which must lie in [0, (a - 1/2)/2)."""
    if not 0.0 <= eps < (a - 0.5) / 2.0:
        raise DomainError(f"epsilon must lie in [0, (a - 1/2)/2), got {eps!r} for a={a!r}")
    return 0.5 + eps, 0.5 - eps, 1.0 - eps


def _in_T_mask(params: ConstructionParams, x1, sq, out, work, test):
    """The definition of T, written once: out = (t < x1) & (sq < R^2) &
    (sq - 2a x1 < r^2 - a^2) for first coordinates x1 and squared norms sq,
    with (t, r, R) = (1/2, 1/2, 1) from _tightened at eps = 0.  work (float)
    and test (bool) are scratch arrays shaped like x1."""
    import numpy as np

    t, r, outer = _tightened(params.a, 0.0)
    a = params.a
    np.less(t, x1, out=out)
    out &= np.less(sq, outer * outer, out=test)
    np.multiply(x1, -2.0 * a, out=work)
    work += sq
    out &= np.less(work, r * r - a * a, out=test)
    return out


def component(params: ConstructionParams, X):
    """Component labels of the points X (shape (..., n)) as int8: +1 in T,
    -1 in -T, 0 outside S."""
    import numpy as np

    X = np.asarray(X, dtype=float)
    if X.ndim == 0 or X.shape[-1] != params.n:
        raise DomainError(f"points have shape {X.shape}, expected (..., {params.n})")
    x1 = X[..., 0]
    inside = np.empty(x1.shape, dtype=bool)
    _in_T_mask(params, np.abs(x1), np.einsum("...i,...i->...", X, X),
               inside, np.empty(x1.shape), np.empty(x1.shape, dtype=bool))
    return np.where(inside, np.sign(x1), 0.0).astype(np.int8)
