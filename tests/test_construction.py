import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballavoid import sampling
from ballavoid.construction import (
    CANONICAL_OFFSET,
    ConstructionParams,
    chord_coordinate,
    _in_T_mask,
    _tightened,
    component,
    equidistance_residual,
)
from ballavoid.errors import DomainError


def e1(n, value=1.0):
    x = np.zeros(n)
    x[0] = value
    return x


def label(p, x):
    """component's label of the single point x."""
    return int(component(p, x))


def bisect_offset_polynomial():
    # Root of 3a^2 - a - 3/4 in (1/2, 1), the defining equation of the offset.
    f = lambda a: 3 * a * a - a - 0.75
    lo, hi = 0.5, 1.0
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCanonicalOffset:
    def test_matches_bisection_oracle(self):
        assert CANONICAL_OFFSET == pytest.approx(bisect_offset_polynomial(), abs=1e-10)
        assert CANONICAL_OFFSET == pytest.approx(0.6937129434, abs=1e-10)

    def test_nearest_double_to_the_root(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        assert CANONICAL_OFFSET == float((1 + mpmath.sqrt(10)) / 6)

    def test_in_valid_range(self):
        assert 0.5 < CANONICAL_OFFSET < 1.0

    def test_equidistance_defining_property(self):
        assert equidistance_residual(CANONICAL_OFFSET) == pytest.approx(0.0, abs=1e-12)


class TestChordCoordinate:
    def test_canonical_value(self):
        c = chord_coordinate(CANONICAL_OFFSET)
        assert c == pytest.approx(0.8874258867, abs=1e-9)
        # At the canonical offset the chord plane equals 2a - 1/2.
        assert c == pytest.approx(2 * CANONICAL_OFFSET - 0.5, abs=1e-12)

    def test_hand_arithmetic(self):
        assert chord_coordinate(0.75) == pytest.approx(0.875, abs=1e-15)

    def test_nested_spheres_rejected(self):
        with pytest.raises(DomainError):
            chord_coordinate(0.5)
        with pytest.raises(DomainError):
            chord_coordinate(0.3)

    def test_range_guarantee(self):
        for a in np.linspace(0.501, 0.999, 50):
            assert 0.5 < chord_coordinate(float(a)) < 1.0


class TestEquidistanceResidual:
    def test_hand_arithmetic(self):
        assert equidistance_residual(0.75) == pytest.approx(0.125, abs=1e-14)

    def test_strictly_increasing_and_brackets_root(self):
        grid = np.linspace(0.51, 0.99, 49)
        vals = [equidistance_residual(float(a)) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0 < vals[-1]

    def test_domain(self):
        with pytest.raises(DomainError):
            equidistance_residual(0.4)


def params_builds(n, a):
    """ConstructionParams(n, a) built three ways: by the constructor, by
    _make and by _replace of a valid record."""
    return [lambda: ConstructionParams(n, a), lambda: ConstructionParams._make([n, a]),
            lambda: ConstructionParams(3)._replace(n=n, a=a)]


class TestParams:
    def test_defaults_to_canonical(self):
        p = ConstructionParams(3)
        assert p.a == CANONICAL_OFFSET
        assert _tightened(p.a, 0.0) == (0.5, 0.5, 1.0)

    @pytest.mark.parametrize("bad_a", [0.5, 1.0, 0.2, 1.4])
    def test_offset_range_enforced(self, bad_a):
        for build in params_builds(3, bad_a):
            with pytest.raises(DomainError, match=re.escape(f"offset must lie in (1/2, 1), got {bad_a!r}")):
                build()

    def test_dimension_enforced(self):
        for build in params_builds(1, CANONICAL_OFFSET):
            with pytest.raises(DomainError, match="dimension must be an integer >= 2, got 1"):
                build()

    def test_copies_are_equal(self):
        p = ConstructionParams(5, 0.6)
        for other in (p._replace(n=5), copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert type(other) is ConstructionParams and other == p
        assert ConstructionParams._make([5, 0.6]) == p


class TestMembership:
    def test_small_ball_center_inside(self):
        p = ConstructionParams(4)
        assert label(p, e1(4, p.a)) == 1

    def test_threshold_boundary_excluded(self):
        p = ConstructionParams(4)
        assert label(p, e1(4, 0.5)) == 0

    def test_near_axis_point(self):
        # |0.99 - a| ~ 0.296 < 0.5 by hand.
        p = ConstructionParams(2)
        assert label(p, e1(2, 0.99)) == 1

    def test_reflection_and_origin(self):
        p = ConstructionParams(3)
        assert label(p, e1(3, -p.a)) == -1
        assert label(p, np.zeros(3)) == 0

    def test_dimension_mismatch(self):
        p = ConstructionParams(3)
        with pytest.raises(DomainError):
            component(p, np.zeros(4))
        with pytest.raises(DomainError):
            component(p, np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
    def test_central_symmetry(self, coords):
        p = ConstructionParams(3)
        x = np.array(coords)
        assert label(p, x) == -label(p, -x)

    def test_membership_implies_shell_bounds(self):
        # Points of T straight from the rejection sampler.
        p = ConstructionParams(5)
        pts, _ = sampling.sample_T(p, np.random.Generator(np.random.PCG64(11)), 2000)
        norms = np.linalg.norm(pts, axis=1)
        assert pts.shape == (2000, 5)
        assert np.all((pts[:, 0] > 0.5) & (pts[:, 0] < 1.0))
        assert np.all((norms > 0.5) & (norms < 1.0))


class TestClassifyPair:
    """The audit's classes of a pair: both points in one component (distance
    < 1), in opposite components (distance > 1), or a point outside S."""

    def test_antipodal_centers_cross(self):
        p = ConstructionParams(3)
        x, y = e1(3, p.a), e1(3, -p.a)
        assert component(p, np.stack([x, y])).tolist() == [1, -1]
        assert np.linalg.norm(x - y) == pytest.approx(2 * p.a, abs=1e-12)
        assert np.linalg.norm(x - y) > 1.0

    def test_nearby_points_same_component(self):
        p = ConstructionParams(2)
        x, y = e1(2, p.a), e1(2, 0.99)
        assert component(p, np.stack([x, y])).tolist() == [1, 1]
        assert np.linalg.norm(x - y) == pytest.approx(0.99 - p.a, abs=1e-12)

    def test_outside_point(self):
        p = ConstructionParams(3)
        assert component(p, np.stack([np.zeros(3), e1(3, p.a)])).tolist() == [0, 1]

    def test_dimension_mismatch(self):
        p = ConstructionParams(3)
        with pytest.raises(DomainError):
            component(p, np.zeros((2, 2)))


class TestInnerApproximation:
    """The closed inner approximation that figure --epsilon draws: T with
    every inequality tightened by eps."""

    def test_epsilon_range_enforced(self):
        p = ConstructionParams(3)
        assert _tightened(p.a, 0.0) == (0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            _tightened(p.a, -1e-3)
        with pytest.raises(DomainError):
            _tightened(p.a, (p.a - 0.5) / 2)


def definition_in_T(a, y):
    """The paper's T transcribed directly: y_1 > 1/2,
    (y_1 - a)^2 + sum_{i>=2} y_i^2 < 1/4 and sum_i y_i^2 < 1.  Returns
    (membership, distance to the nearest of the three boundaries in the
    value of its left-hand side)."""
    lhs = [0.5 - y[0],
           (y[0] - a) ** 2 + sum(v * v for v in y[1:]) - 0.25,
           sum(v * v for v in y) - 1.0]
    return all(v < 0 for v in lhs), min(abs(v) for v in lhs)


class TestComponent:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_matches_definition(self, n):
        p = ConstructionParams(n)
        rng = np.random.default_rng(100 + n)
        # Points near both small-ball centers, plus a wide box.
        near = rng.normal(0.0, 0.35 / math.sqrt(n), (3000, n))
        near[:, 0] += rng.choice([-p.a, p.a], 3000)
        X = np.vstack([near, rng.uniform(-1.1, 1.1, (1000, n))])
        labels = component(p, X)
        assert labels.dtype == np.int8 and labels.shape == (len(X),)
        checked = {-1: 0, 0: 0, 1: 0}
        for x, label in zip(X, labels):
            pos, gap_pos = definition_in_T(p.a, x.tolist())
            neg, gap_neg = definition_in_T(p.a, (-x).tolist())
            if min(gap_pos, gap_neg) < 1e-9:
                continue
            assert label == (1 if pos else -1 if neg else 0), (x, label)
            checked[int(label)] += 1
        assert min(checked.values()) > 100, checked

    def test_labels_keep_leading_shape(self):
        p = ConstructionParams(3)
        X = np.zeros((2, 4, 3))
        X[0, 1, 0] = p.a
        X[1, 2, 0] = -p.a
        labels = component(p, X)
        assert labels.shape == (2, 4)
        assert labels[0, 1] == 1 and labels[1, 2] == -1
        assert np.count_nonzero(labels) == 2

    def test_kernel_rejects_point_outside_small_ball(self):
        # x_1 > 1/2 and |x| < 1, but |x - a e_1|^2 = 0.3806 > 1/4.
        p = ConstructionParams(2)
        x = np.array([0.55, 0.6])
        assert x[0] > 0.5 and x @ x < 1.0
        assert label(p, x) == 0
        out, test = np.empty(1, dtype=bool), np.empty(1, dtype=bool)
        _in_T_mask(p, x[:1], np.array([x @ x]), out, np.empty(1), test)
        assert not out[0]
