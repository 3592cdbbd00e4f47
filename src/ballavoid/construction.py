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

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import DomainError, GeometryError

#: Offset of the small-ball center along e_1 that maximizes the volume of T:
#: the unique root of 3a^2 - a - 3/4 = 0 in (1/2, 1).
CANONICAL_OFFSET = (1.0 + math.sqrt(10.0)) / 6.0


def canonical_offset() -> float:
    """The volume-maximizing offset (1 + sqrt(10)) / 6."""
    return CANONICAL_OFFSET


def chord_coordinate(a: float) -> float:
    """x_1-coordinate of the hyperplane through the intersection of the
    spheres ||x|| = 1 and ||x - a e_1|| = 1/2.

    Equals (a^2 + 3/4) / (2a) and lies in (1/2, 1) for a in (1/2, 1).
    """
    if not a + 0.5 > 1.0:
        raise GeometryError(
            f"spheres are nested for offset a={a!r} (need a + 1/2 > 1); no chord plane"
        )
    return (a * a + 0.75) / (2.0 * a)


def equidistance_residual(a: float) -> float:
    """(a - 1/2) - (c(a) - a): zero exactly when a*e_1 sits midway between
    the plane x_1 = 1/2 and the chord plane, i.e. at the canonical offset."""
    if not 0.5 < a < 1.0:
        raise DomainError(f"offset must lie in (1/2, 1), got {a!r}")
    return (a - 0.5) - (chord_coordinate(a) - a)


@dataclass(frozen=True)
class ConstructionParams:
    """Dimension and offset defining T and S.

    The cap radius and half-space threshold are fixed at 1/2 by the
    construction; they are class constants so invariants can refer to
    them by name.
    """

    n: int
    a: float = CANONICAL_OFFSET
    cap_radius: ClassVar[float] = 0.5
    threshold: ClassVar[float] = 0.5

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise DomainError(f"dimension must be an integer >= 2, got {self.n!r}")
        if not 0.5 < self.a < 1.0:
            raise DomainError(f"offset must lie in (1/2, 1), got {self.a!r}")


@dataclass(frozen=True)
class PairClass:
    """Classification of a point pair drawn for the distance audit."""

    tag: str  # same_component | cross_component | outside
    distance: float


def _tightened(params: ConstructionParams, eps: float) -> tuple[float, float, float]:
    """(t, r, R) = (1/2 + eps, 1/2 - eps, 1 - eps): the threshold, small and
    outer radius of T tightened by eps, which must lie in [0, (a - 1/2)/2)."""
    if not 0.0 <= eps < (params.a - 0.5) / 2.0:
        raise DomainError(f"epsilon must lie in [0, (a - 1/2)/2), got {eps!r} for a={params.a!r}")
    return params.threshold + eps, params.cap_radius - eps, 1.0 - eps


def _in_T_mask(params: ConstructionParams, x1: np.ndarray, sq: np.ndarray, eps: float,
               out: np.ndarray, work: np.ndarray, test: np.ndarray) -> np.ndarray:
    """The definition of T, written once: out = (t < x1) & (sq < R^2) &
    (sq - 2a x1 < r^2 - a^2) for first coordinates x1 and squared norms sq,
    with (t, r, R) from _tightened; strict at eps = 0 and non-strict for
    eps > 0 (the closed inner approximation).  work (float) and test (bool)
    are scratch arrays shaped like x1."""
    t, r, outer = _tightened(params, eps)
    a = params.a
    less = np.less if eps == 0.0 else np.less_equal
    less(t, x1, out=out)
    out &= less(sq, outer * outer, out=test)
    np.multiply(x1, -2.0 * a, out=work)
    work += sq
    out &= less(work, r * r - a * a, out=test)
    return out


def component(params: ConstructionParams, X, eps: float = 0.0) -> np.ndarray:
    """Component labels of the points X (shape (..., n)) as int8: +1 in T,
    -1 in -T, 0 outside S.  With eps > 0 the closed inner approximation
    (every inequality tightened by eps) is tested instead."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0 or X.shape[-1] != params.n:
        raise DomainError(f"points have shape {X.shape}, expected (..., {params.n})")
    x1 = X[..., 0]
    inside = np.empty(x1.shape, dtype=bool)
    _in_T_mask(params, np.abs(x1), np.einsum("...i,...i->...", X, X), eps,
               inside, np.empty(x1.shape), np.empty(x1.shape, dtype=bool))
    return np.where(inside, np.sign(x1), 0.0).astype(np.int8)


def _check_point(params: ConstructionParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (params.n,):
        raise DomainError(f"point has shape {x.shape}, expected ({params.n},)")
    return x


def in_T(params: ConstructionParams, x) -> bool:
    """Strict membership in the one-sided body T."""
    return bool(component(params, _check_point(params, x)) == 1)


def in_S(params: ConstructionParams, x) -> bool:
    """Membership in S = T union -T."""
    return bool(component(params, _check_point(params, x)) != 0)


def classify_pair(params: ConstructionParams, x, y) -> PairClass:
    """Classify a pair for the distance-1 audit.

    Same-component pairs lie in one open ball of radius 1/2, hence distance
    < 1; cross pairs have x_1 > 1/2 and y_1 < -1/2, hence distance > 1.
    Violations of either bound are the audited theorem and must surface in
    the recorded distance, never be dropped.
    """
    x = _check_point(params, x)
    y = _check_point(params, y)
    distance = float(np.linalg.norm(x - y))
    sx, sy = component(params, np.stack([x, y]))
    if sx == 0 or sy == 0:
        return PairClass("outside", distance)
    if sx == sy:
        return PairClass("same_component", distance)
    return PairClass("cross_component", distance)


def inner_approximation(
    params: ConstructionParams, epsilon: float
) -> Callable[[np.ndarray], bool]:
    """Closed membership predicate with every strict inequality tightened
    by epsilon; a subset of S by construction."""
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    _tightened(params, epsilon)

    def predicate(x) -> bool:
        return bool(component(params, _check_point(params, x), epsilon) != 0)

    return predicate
