import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ballavoid.concentration import certified_ratio_lower_bound
from ballavoid.construction import ConstructionParams, chord_coordinate
from ballavoid.errors import DomainError, NumericError
from ballavoid.sampling import sample_unit_ball
from ballavoid.specfun import (
    LogValue,
    _ball_cap_fraction,
    _log_ball_cap_fraction,
    _log_gamma_half_ratio,
    reg_inc_beta,
    slab_fraction,
    unit_ball_volume,
)
from ballavoid.volume import _log_scaled, ratio_S, ratio_table, vol_T_closed_form
from test_volume import mpmath_log_vol_T


class TestLogValue:
    def test_roundtrip_is_identity(self):
        for v in (0.37, 1.0, 2.5, 1000.0):
            assert LogValue(math.log(v)).linear() == pytest.approx(v, rel=2.3e-16)
        # Extreme exponents: half an ulp of the log already costs ~1e-14
        # relative on the way back, so only a looser identity can hold.
        for v in (1e-200, 1e150):
            assert LogValue(math.log(v)).linear() == pytest.approx(v, rel=1e-13)


# Functions taking a dimension, each with a value it accepts.  One rule
# holds for all: an int or numpy integer is accepted and converted with
# int(); a bool, a float or any other type is a DomainError.
DIMENSION_ARGUMENTS = [
    pytest.param(unit_ball_volume, 5, id="unit_ball_volume"),
    pytest.param(lambda n: slab_fraction(n, -0.1, 0.1), 5, id="slab_fraction"),
    pytest.param(lambda n: sample_unit_ball(n, np.random.default_rng(0), 3).tolist(), 5,
                 id="sample_unit_ball"),
    pytest.param(ConstructionParams, 5, id="ConstructionParams"),
    pytest.param(ratio_S, 5, id="ratio_S"),
    pytest.param(lambda n: ratio_table(n).margin.tolist(), 5, id="ratio_table"),
    pytest.param(lambda n: certified_ratio_lower_bound(n, 2.0), 30,
                 id="certified_ratio_lower_bound"),
]


class TestDimensionArgument:
    @pytest.mark.parametrize("f,n", DIMENSION_ARGUMENTS)
    def test_numpy_integer_same_as_int(self, f, n):
        assert f(np.int64(n)) == f(n)

    def test_converted_to_int(self):
        assert type(ConstructionParams(np.int64(5)).n) is int

    @pytest.mark.parametrize("bad", [True, 2.5, 5.0, "5", np.float64(5.0)], ids=repr)
    @pytest.mark.parametrize("f,n", DIMENSION_ARGUMENTS)
    def test_rejects_non_integers(self, f, n, bad):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            f(bad)


class TestUnitBallVolume:
    @pytest.mark.parametrize("n,expected", [(1, 2.0), (2, math.pi), (3, 4 * math.pi / 3)])
    def test_small_dimensions(self, n, expected):
        assert unit_ball_volume(n).linear() == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(DomainError):
            unit_ball_volume(0)

    def test_high_dimension_underflows_linear_only(self):
        big = unit_ball_volume(2000)
        assert math.isfinite(big.log_magnitude)
        assert big.linear() < sys.float_info.min


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.3, 4.5) == 0.0
        assert reg_inc_beta(1.0, 2.3, 4.5) == 1.0

    def test_uniform_distribution(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_hand_integrated_value(self):
        # I_z(1, 2) = int_0^z 2(1-t) dt = 1 - (1-z)^2
        assert reg_inc_beta(0.25, 1.0, 2.0) == pytest.approx(0.4375, abs=1e-14)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            z = float(rng.random())
            a = float(rng.uniform(0.1, 60.0))
            b = float(rng.uniform(0.1, 60.0))
            assert reg_inc_beta(z, a, b) == pytest.approx(
                float(special.betainc(a, b, z)), abs=1e-13
            )

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.floats(1e-6, 1.0 - 1e-6),
        a=st.floats(0.05, 80.0),
        b=st.floats(0.05, 80.0),
    )
    def test_symmetry_identity(self, z, a, b):
        # Evaluate at an exact complement pair: w + z_c == 1 exactly by
        # Sterbenz's lemma, so the rounding of 1 - z cannot move either side.
        w = 1.0 - z
        z_c = 1.0 - w
        assert reg_inc_beta(z_c, a, b) == pytest.approx(
            1.0 - reg_inc_beta(w, b, a), abs=1e-12
        )

    def test_continued_fraction_failure_reports_best_estimate(self):
        # At z = 1/2 and shapes of 10^6 the fraction needs far more than its
        # 499 Lentz pairs; the last convergent and factor are pinned.
        with pytest.raises(NumericError, match="did not converge") as info:
            reg_inc_beta(0.5, 1e6, 1e6)
        assert info.value.best_estimate == pytest.approx(1772.4540724625763, rel=1e-9)
        assert info.value.achieved_error == pytest.approx(8.17e-14, rel=1e-2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, math.inf, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, math.inf)
        with pytest.raises(NumericError):
            reg_inc_beta(0.5, 1e308, 1.0)


# Dimensions over the documented range, and cap ends t below 1/8 (where a
# cap may take the complement route I_{t^2}(1/2, (n+1)/2)) and above it.
# n = 3428 at t = 0.0249 is where a front factor taking lgamma(alpha + 1/2)
# - lgamma(alpha) directly gave the largest cap error on this grid (1.7e-11).
_CAP_NS = sorted({*np.geomspace(2, 10000, 25).round().astype(int).tolist(), 3428})
_CAP_TS = (1e-3, 0.01, 0.0249, 0.05, 0.1, 0.2, 0.5, 0.9)


def test_log_gamma_half_ratio_at_every_dimension():
    # x = (n + 1)/2, the caps' shape, and x = n/2 + 1, ratio_table's, for
    # n = 2..10000; the direct difference was off by up to 1.7e-11.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = 0.5 * np.arange(3, 10003)
    half = mpmath.mpf(1) / 2
    exact = [float(mpmath.loggamma(mpmath.mpf(v) + half) - mpmath.loggamma(v)) for v in x.tolist()]
    for r in (_log_gamma_half_ratio(x), list(map(_log_gamma_half_ratio, x.tolist()))):
        assert np.abs(np.subtract(r, exact)).max() <= 5e-13


class TestRegIncBetaMeasured:
    def test_relative_error_at_cap_shapes(self):
        # Largest relative error found at the cap shapes over every
        # n = 2..10000 at these t: 1.8e-12 (n = 265, t = 0.1); 3.0e-13 on
        # this grid.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for n in _CAP_NS:
            alpha = 0.5 * (n + 1)
            for t in _CAP_TS:
                for z, p, q in ((t * t, 0.5, alpha), ((1.0 - t) * (1.0 + t), alpha, 0.5)):
                    exact = float(mpmath.betainc(p, q, 0, mpmath.mpf(z), regularized=True))
                    if exact >= sys.float_info.min:
                        assert reg_inc_beta(z, p, q) == pytest.approx(exact, rel=2e-12, abs=0), (n, t, p)

    def test_closed_form_bound_covers_the_caps(self):
        # Each t is the slab end 2(a - 1/2) of the closed form at a = 1/2 + t/2.
        mpmath = pytest.importorskip("mpmath")
        for n in _CAP_NS:
            for t in _CAP_TS:
                mpmath.mp.dps = 40
                exact = float(mpmath.betainc((n + 1) / mpmath.mpf(2), 0.5, 0, 1 - mpmath.mpf(t) ** 2,
                                             regularized=True) / 2)
                if exact >= sys.float_info.min:
                    assert _ball_cap_fraction(n, t) == pytest.approx(exact, rel=2e-12, abs=0), (n, t)
                mpmath.mp.dps = 60
                a = 0.5 + 0.5 * t
                est = vol_T_closed_form(n, a)
                err = abs(est.log_value.log_magnitude - float(mpmath_log_vol_T(n, a, mpmath)))
                assert err <= est.error_bound, (n, t, err, est.error_bound)


class TestSlabFraction:
    def test_whole_ball(self):
        for n in (1, 2, 7, 100):
            assert slab_fraction(n, -1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_half_ball_by_symmetry(self):
        for n in (1, 2, 7, 100):
            assert slab_fraction(n, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_hand_cubic_dimension_three(self):
        # (3/2)(h - h^3/3) at h = 1/2
        assert slab_fraction(3, -0.5, 0.5) == pytest.approx(0.6875, abs=1e-14)

    def test_rejects_swapped_bounds(self):
        with pytest.raises(DomainError):
            slab_fraction(3, 0.5, -0.5)
        with pytest.raises(DomainError):
            slab_fraction(3, -1.5, 0.5)

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 17, 55, 100):
            for t in rng.uniform(-1.0, 1.0, 30):
                t = float(t)
                total = slab_fraction(n, -1.0, t) + slab_fraction(n, t, 1.0)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 30):
            u = np.sort(rng.uniform(-1.0, 1.0, 20))
            vals_upper = [slab_fraction(n, -1.0, float(t)) for t in u]
            assert all(b >= a for a, b in zip(vals_upper, vals_upper[1:]))
            vals_lower = [slab_fraction(n, float(t), 1.0) for t in u]
            assert all(b <= a for a, b in zip(vals_lower, vals_lower[1:]))

    def test_against_quadrature_oracle(self):
        # Direct adaptive quadrature of v_{n-1}(1-x^2)^((n-1)/2) / v_n.
        rng = np.random.default_rng(4)
        for n in range(2, 21):
            norm = math.exp(
                unit_ball_volume(n - 1).log_magnitude - unit_ball_volume(n).log_magnitude
            )
            for _ in range(100):
                u0, u1 = sorted(rng.uniform(-1.0, 1.0, 2))
                ref, err = integrate.quad(
                    lambda x: norm * (1.0 - x * x) ** (0.5 * (n - 1)), u0, u1
                )
                if ref < 1e-6:
                    continue  # quad's own error dominates for slivers
                assert slab_fraction(n, float(u0), float(u1)) == pytest.approx(
                    ref, rel=1e-9
                )

    def test_symmetric_slab_is_one_cap_twice(self):
        # A symmetric slab takes its cap once; the bytes are those of the
        # two-cap expression at every dimension, on both branches of the cap.
        for n in range(3, 10001):
            for w in (1e-9, 0.2, 0.9, 1.0 / math.sqrt(n - 1.0), min(1.0, 3.0 / math.sqrt(n - 1.0))):
                two_caps = 1.0 - _ball_cap_fraction(n, w) - _ball_cap_fraction(n, w)
                assert slab_fraction(n, -w, w) == two_caps, (n, w)

    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    def test_thin_cap_near_center(self, n):
        # P(x_1 > t) for t down to 1e-9: the complement branch needs
        # 1 - z = t^2, which z = 1 - t^2 had rounded away.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        alpha = mpmath.mpf(n + 1) / 2
        for t in (1e-9, 1e-6, 1e-3):
            exact = mpmath.betainc(alpha, 0.5, 0, 1 - mpmath.mpf(t) ** 2, regularized=True) / 2
            assert slab_fraction(n, t, 1.0) == pytest.approx(float(exact), rel=2e-14, abs=0)


def log_slab_fraction(n, u0, u1):
    """log slab_fraction(n, u0, u1) from the slab term of volume._log_scaled,
    whose log_cap argument maps the two slab ends it asks for at offset a to
    the ends of [u0, u1], and drops the chord cap.  A slab around the center
    takes the branch of a < sqrt(3)/2 (1 minus two caps), a slab on one side
    that of a > sqrt(3)/2 (the difference of two caps in log scale)."""
    if u0 < 0.0 < u1:
        a, near, far = 0.6, u1, -u0
    else:
        a = 0.95
        near, far = (u0, u1) if u0 >= 0.0 else (-u1, -u0)
    c = chord_coordinate(a)
    ends = {abs(2.0 * (c - a)): near, 2.0 * (a - 0.5): far}
    return float(_log_scaled(n, a, lambda t: _log_ball_cap_fraction(n, ends[t]) if t in ends
                                 else -math.inf))


class TestLogSlabFraction:
    def test_matches_log_of_linear_value(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 7, 100):
            for u0, u1 in np.sort(rng.uniform(-1.0, 1.0, (30, 2)), axis=1):
                linear = slab_fraction(n, float(u0), float(u1))
                assert log_slab_fraction(n, float(u0), float(u1)) == pytest.approx(
                    math.log(linear), rel=1e-13, abs=1e-13
                )

    @pytest.mark.parametrize("u0,u1", [(0.8, 1.0), (0.6, 0.9), (-0.9, -0.6)])
    def test_deep_slabs_beyond_underflow(self, u0, u1):
        # At n = 5000 these fractions lie far below the smallest double.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        n = 5000

        def cap(t):
            t = mpmath.mpf(abs(t))
            return mpmath.betainc(mpmath.mpf(n + 1) / 2, 0.5, 0, 1 - t * t, regularized=True) / 2

        exact = mpmath.log(cap(u0) - cap(u1) if u0 >= 0 else cap(u1) - cap(u0))
        assert slab_fraction(n, u0, u1) == 0.0
        assert log_slab_fraction(n, u0, u1) == pytest.approx(float(exact), rel=1e-14)
