import math
import sys

import numpy as np
import pytest

from ballavoid import specfun, volume
from ballavoid.cli import main
from ballavoid.concentration import best_certificate
from ballavoid.construction import CANONICAL_OFFSET, ConstructionParams, chord_coordinate
from ballavoid.errors import DomainError, NumericError
from ballavoid.figure import build_figure_spec
from ballavoid.sampling import SamplerConfig, mc_volume_ratio, pair_audit
from ballavoid.specfun import unit_ball_volume
from ballavoid.volume import (
    CLOSED_FORM_REL_ERROR,
    MAX_DIMENSION,
    RatioTable,
    _log_cos_power,
    _sign_change_exact,
    adaptive_gauss_legendre,
    dvol_da,
    maximize_a,
    ratio_S,
    ratio_table,
    vol_T_closed_form,
    vol_T_quadrature,
)

A = CANONICAL_OFFSET
C = chord_coordinate(A)


def table_rows(table):
    """The rows of a RatioTable, one named tuple of its four fields per
    dimension."""
    return [RatioTable._make(row) for row in zip(*(column.tolist() for column in table))]


def seeded_offsets(rng, count):
    """count (n, a) over the documented range: n log-uniform in
    2..MAX_DIMENSION, and a equally often 1/2 + 10^u, 1 - 10^u (u uniform
    in (-6, log10 1/2)) or uniform in (1/2, 1)."""
    n = np.rint(np.exp(rng.uniform(math.log(2.0), math.log(MAX_DIMENSION), count))).astype(int)
    u = 10.0 ** rng.uniform(-6.0, math.log10(0.5), count)
    a = np.choose(rng.integers(3, size=count), [0.5 + u, 1.0 - u, rng.uniform(0.5, 1.0, count)])
    return list(zip(n.tolist(), a.tolist()))


# --- independent antiderivative oracles (dimensions 2 and 3 only) --------

def _circle_area_antiderivative(x, r):
    # int sqrt(r^2 - x^2) dx
    return 0.5 * x * math.sqrt(r * r - x * x) + 0.5 * r * r * math.asin(x / r)


def oracle_vol_T2(a=A):
    c = chord_coordinate(a)
    h = a - 0.5
    slab = 2.0 * (_circle_area_antiderivative(h, 0.5) - _circle_area_antiderivative(-h, 0.5))
    cap = 2.0 * (_circle_area_antiderivative(1.0, 1.0) - _circle_area_antiderivative(c, 1.0))
    return slab, cap


def _cubic_antiderivative(x, r):
    # int (r^2 - x^2) dx
    return r * r * x - x**3 / 3.0


def oracle_vol_T3(a=A):
    c = chord_coordinate(a)
    h = a - 0.5
    slab = math.pi * (_cubic_antiderivative(h, 0.5) - _cubic_antiderivative(-h, 0.5))
    cap = math.pi * (_cubic_antiderivative(1.0, 1.0) - _cubic_antiderivative(c, 1.0))
    return slab, cap


# Frozen from the oracles above.
VOL_T2 = 0.4475095645950514
VOL_T3 = 0.3273785868196076
RATIO_2 = 0.2848934371448171
RATIO_3 = 0.1563117610643393


class TestOracleSelfConsistency:
    def test_frozen_values_match_antiderivatives(self):
        slab2, cap2 = oracle_vol_T2()
        slab3, cap3 = oracle_vol_T3()
        assert slab2 + cap2 == pytest.approx(VOL_T2, abs=1e-14)
        assert slab3 + cap3 == pytest.approx(VOL_T3, abs=1e-14)
        assert 2 * (slab2 + cap2) / math.pi == pytest.approx(RATIO_2, abs=1e-14)
        assert 2 * (slab3 + cap3) / (4 * math.pi / 3) == pytest.approx(RATIO_3, abs=1e-14)


class TestVolT:
    def test_quadrature_n2(self):
        assert vol_T_quadrature(2, A).log_value.linear() == pytest.approx(VOL_T2, abs=1e-9)

    def test_quadrature_n3(self):
        assert vol_T_quadrature(3, A).log_value.linear() == pytest.approx(VOL_T3, abs=1e-9)

    def test_closed_form_n2(self):
        assert vol_T_closed_form(2, A).log_value.linear() == pytest.approx(VOL_T2, abs=1e-12)

    def test_closed_form_n3(self):
        assert vol_T_closed_form(3, A).log_value.linear() == pytest.approx(VOL_T3, abs=1e-12)

    def test_degenerate_offset_limit_is_half_small_ball(self):
        # As a -> 1/2+ the cap sliver vanishes and T tends to the half of
        # the small ball beyond x_1 = 1/2, of area pi/8 in the plane.
        vols = [vol_T_closed_form(2, a).log_value.linear() for a in (0.52, 0.51, 0.502, 0.5005)]
        assert all(b < a for a, b in zip(vols, vols[1:]))
        assert vols[-1] == pytest.approx(math.pi / 8, abs=5e-3)

    def test_method_agreement_over_random_offsets(self):
        # Over 12000 such draws the largest difference was 0.10 of the
        # summed bounds.
        for n, a in seeded_offsets(np.random.default_rng(42), 1000):
            q, cf = vol_T_quadrature(n, a), vol_T_closed_form(n, a)
            diff = abs(q.log_value.log_magnitude - cf.log_value.log_magnitude)
            assert diff <= q.error_bound + cf.error_bound, (n, a)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            vol_T_closed_form(1, A)
        with pytest.raises(DomainError):
            vol_T_quadrature(3, 0.3)
        with pytest.raises(DomainError, match="error_bound must be nonnegative"):
            volume.VolumeEstimate(unit_ball_volume(2), -1e-300)

    def test_high_dimension_stays_finite(self):
        est = vol_T_closed_form(5000)
        assert math.isfinite(est.log_value.log_magnitude)
        assert est.log_value.linear() < sys.float_info.min


def mpmath_log_vol_T(n, a, mp):
    """log vol T from 60-digit incomplete beta values, caps in the
    complement form I_{1-t^2}((n+1)/2, 1/2)/2."""
    a = mp.mpf(a)
    c = (a * a + mp.mpf(3) / 4) / (2 * a)

    def cap(t):
        if t >= 1:
            return mp.mpf(0)
        return mp.betainc((n + 1) / mp.mpf(2), mp.mpf(1) / 2, 0, 1 - t * t, regularized=True) / 2

    u0, u1 = 2 * (mp.mpf(1) / 2 - a), 2 * (c - a)
    slab = cap(-u1) - cap(-u0) if u1 <= 0 else 1 - cap(u1) - cap(-u0)
    log_vn = n / mp.mpf(2) * mp.log(mp.pi) - mp.loggamma(1 + mp.mpf(n) / 2)
    return log_vn + mp.log(mp.power(2, -n) * slab + cap(c))


class TestClosedFormErrorBound:
    @pytest.mark.parametrize("a", [0.55, A, 0.9, 0.99])
    def test_bound_holds_against_mpmath(self, a):
        # The deep caps at a = 0.9 and 0.99 underflowed on a linear scale
        # (log-volume off by 0.04 and 0.13 at n = 3000); at the canonical
        # offset rounding alone exceeds 1e-12 at n = 3000.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for n in (2, 3, 10, 100, 1000, 3000, 10000):
            est = vol_T_closed_form(n, a)
            err = abs(est.log_value.log_magnitude - float(mpmath_log_vol_T(n, a, mpmath)))
            assert err <= est.error_bound, (n, err, est.error_bound)
            assert est.error_bound == CLOSED_FORM_REL_ERROR * abs(est.log_value.log_magnitude)

    def test_bounds_hold_at_seeded_offsets(self):
        # Both routes against one 60-digit value.  Over 16000 such draws
        # the largest errors were 0.24 of the closed form's bound and 0.065
        # of the quadrature's.  The largest known closed-form error, first
        # here, is 2.79e-15 of |log vol T| (0.28 of the bound), and 90
        # digits agree (CLOSED_FORM_REL_ERROR).
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for n, a in [(480, 0.9020519483741545), *seeded_offsets(np.random.default_rng(7), 300)]:
            exact = float(mpmath_log_vol_T(n, a, mpmath))
            for est in (vol_T_closed_form(n, a), vol_T_quadrature(n, a)):
                err = abs(est.log_value.log_magnitude - exact)
                assert err <= est.error_bound, (n, a, err, est.error_bound)

    def test_offset_near_chord_equal_to_center(self):
        # At a = sqrt(3)/2 the chord plane passes through a e_1, so the slab
        # ends a hair from the small ball's center: caps at t ~ 1e-9 lost
        # up to 1e-8 of the log-volume when formed from 1 - t^2.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for n in (2, 3, 8, 40):
            for delta in (-1e-9, 1e-9, -1e-6, 1e-6):
                a = math.sqrt(0.75) + delta
                est = vol_T_closed_form(n, a)
                err = abs(est.log_value.log_magnitude - float(mpmath_log_vol_T(n, a, mpmath)))
                assert err <= est.error_bound, (n, delta, err)


class TestQuadratureRoute:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10000])
    def test_matches_closed_form(self, n):
        # Integrated in x, every n >= 523 exhausted the panel budget: the
        # first panel missed the cap's boundary layer.
        for a in (0.55, A, 0.9, 0.99):
            cf = vol_T_closed_form(n, a).log_value.log_magnitude
            q = vol_T_quadrature(n, a).log_value.log_magnitude
            assert abs(q - cf) <= 1e-12 * max(1.0, abs(cf)), (n, a)

    @pytest.mark.parametrize("n", [2, 3, 10, 15, 100, 522, 1000, 10000])
    def test_error_bound_holds_against_mpmath(self, n):
        # The bound was the panel estimate alone, blind to rounding outside
        # the panels: 0.0 at n = 2, a = 0.694 against an error of 2.2e-16,
        # and 2.4e-15 at n = 1000, a* against 4.5e-13.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for a in (0.55, A, 0.694, 0.99):
            exact = float(mpmath_log_vol_T(n, a, mpmath))
            est = vol_T_quadrature(n, a)
            err = abs(est.log_value.log_magnitude - exact)
            assert err <= est.error_bound, (n, a, err, est.error_bound)

    @pytest.mark.parametrize("n", [2, 3, 10, 1000, 10000, 10**6])
    def test_cos_power_matches_wallis(self, n):
        # int_{-pi/2}^{pi/2} cos^n = sqrt(pi) Gamma((n+1)/2) / Gamma(n/2 + 1),
        # half of it on either side of the peak; the log-gammas cancel to
        # 1e-10 at n = 10^6, so they are taken at 40 digits.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        half = mpmath.mpf(n) / 2
        log_full = float(mpmath.log(mpmath.sqrt(mpmath.pi) * mpmath.gammaprod([half + 0.5], [half + 1])))
        for lo, hi, shift in ((-math.pi / 2, math.pi / 2, 0.0), (0.0, math.pi / 2, math.log(0.5))):
            log_j, rel_err = _log_cos_power(n, lo, hi)
            assert log_j == pytest.approx(log_full + shift, rel=1e-13, abs=1e-13)
            assert 0.0 <= rel_err < 1e-12


class TestRatioAgainstMpmath:
    @pytest.mark.parametrize("n", [500, 5000, 10000])
    def test_scaled_ratio(self, n):
        # The ratio used to subtract a log v_n it had just added, and carried
        # n log 2 through the sum: at n = 5000 and 10000 that cost 1.65e-12
        # of the scaled ratio at the canonical offset.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        log_vn = n / mpmath.mpf(2) * mpmath.log(mpmath.pi) - mpmath.loggamma(1 + mpmath.mpf(n) / 2)
        for a in (0.55, A, 0.9, 0.99):
            log_scaled = mpmath_log_vol_T(n, a, mpmath) - log_vn + (n + 1) * mpmath.log(2)
            row = ratio_S(n, a)
            assert abs(math.log(row.scaled) - float(log_scaled)) <= row.log_error_bound, a
            if a == A:
                assert row.scaled == pytest.approx(float(mpmath.exp(log_scaled)), rel=5e-13)


class TestRatio:
    def test_frozen_ratio_n2(self):
        row = ratio_S(2)
        assert row.ratio == pytest.approx(RATIO_2, abs=1e-12)
        assert f"{row.ratio:.10g}".startswith("0.2848")
        assert row.scaled == pytest.approx(4 * RATIO_2, rel=1e-12)
        assert row.margin > 0

    def test_frozen_ratio_n3(self):
        row = ratio_S(3)
        assert row.ratio == pytest.approx(RATIO_3, abs=1e-12)
        assert f"{row.ratio:.10g}".startswith("0.1563")

    def test_rows_are_immutable_tuples(self):
        row = ratio_S(2)
        assert tuple(row) == (row.n, row.ratio, row.scaled, row.margin, row.log_error_bound)
        # Every record of the package is a named tuple: its fields can be
        # neither set nor joined by others, as it has no __dict__.
        params = ConstructionParams(2)
        config = SamplerConfig(0, 10**4, params)
        records = [unit_ball_volume(2), vol_T_closed_form(2), row, ratio_table(5), params,
                   best_certificate(), build_figure_spec(params), config, pair_audit(config),
                   mc_volume_ratio(config)]
        assert len({type(record) for record in records}) == 10
        for record in records:
            assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
            assert not hasattr(record, "__dict__"), type(record)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], 3)
            with pytest.raises(AttributeError):
                record.note = "mutable"

    def test_quadrature_method_matches(self):
        assert ratio_S(2, method="quadrature").ratio == pytest.approx(RATIO_2, rel=1e-10)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            ratio_S(2, method="sorcery")

    def test_table_margins_and_monotone_scaled(self):
        table = ratio_table(200)
        assert table.n.tolist() == list(range(2, 201))
        assert (table.margin > 0).all()
        assert ((1.0 < table.scaled) & (table.scaled < 2.0)).all()
        assert (np.diff(table.scaled) > 0).all()

    def test_table_bounds_validated(self):
        with pytest.raises(DomainError):
            ratio_table(1)
        with pytest.raises(DomainError):
            ratio_table(10001)
        with pytest.raises(DomainError):
            ratio_table(10, float("nan"))

    def test_small_ball_containment_bracket(self):
        # vol T < (1/2)^n v_n + unit-cap volume.
        from ballavoid.specfun import slab_fraction

        for n in (2, 3, 10, 40):
            vol_t = vol_T_closed_form(n).log_value.log_magnitude
            log_vn = unit_ball_volume(n).log_magnitude
            upper = np.logaddexp(
                n * math.log(0.5) + log_vn, log_vn + math.log(slab_fraction(n, C, 1.0))
            )
            assert vol_t <= upper


SQRT3_2 = math.sqrt(0.75)  # offset where the chord plane passes through a e_1
TABLE_OFFSETS = [0.501, 0.51, 0.55, A, SQRT3_2 - 1e-9, SQRT3_2, SQRT3_2 + 1e-9, 0.9, 0.99]


class TestRatioTable:
    """ratio_table takes every cap for all n at once by the recurrence in n;
    ratio_S, one dimension at a time, is its reference."""

    @pytest.mark.parametrize("a", TABLE_OFFSETS)
    def test_matches_ratio_S_at_every_n(self, a):
        # The branch is chosen per (n, t).  Chosen per cap alone
        # (complement where t < 1/8), a = 0.9 broke the bound 6e5-fold at
        # n = 9999 and a = 0.51 gave NaN rows; with every cap summed
        # downward, a = 0.501 broke it 92-fold at n = 2.
        rows = table_rows(ratio_table(10000, a))
        assert [r.n for r in rows] == list(range(2, 10001))
        for row in rows:
            ref = ratio_S(row.n, a)
            assert abs(math.log(row.scaled) - math.log(ref.scaled)) <= ref.log_error_bound, (row.n, a)
            assert math.isclose(row.ratio, ref.ratio, rel_tol=1e-9), (row.n, a)
            assert math.isclose(row.margin, ref.margin, rel_tol=1e-9, abs_tol=1e-15), (row.n, a)

    def test_matches_ratio_S_at_seeded_offsets(self):
        # 50 seeded dimensions at each of 150 seeded offsets.  Over some
        # 40000 such rows the largest difference was 0.30 of the bound.
        rng = np.random.default_rng(11)
        for _, a in seeded_offsets(rng, 150):
            dims = sorted({n for n, _ in seeded_offsets(rng, 50)})
            scaled = ratio_table(dims[-1], a).scaled
            for n in dims:
                ref = ratio_S(n, a)
                assert abs(math.log(scaled[n - 2]) - math.log(ref.scaled)) <= ref.log_error_bound, (n, a)

    @pytest.mark.parametrize("a", TABLE_OFFSETS)
    def test_rows_match_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        rows = table_rows(ratio_table(10000, a))
        for n in (2, 3, 14, 15, 166, 1000, 5000, 9999, 10000):
            row = rows[n - 2]
            log_vn = n / mpmath.mpf(2) * mpmath.log(mpmath.pi) - mpmath.loggamma(1 + mpmath.mpf(n) / 2)
            log_scaled = mpmath_log_vol_T(n, a, mpmath) - log_vn + (n + 1) * mpmath.log(2)
            assert abs(math.log(row.scaled) - float(log_scaled)) <= ratio_S(n, a).log_error_bound, (n, a)

    @pytest.mark.parametrize("n_min, n_max", [(3, 3), (15, 15), (9999, 10000), (7, 300), (640, 2001)])
    def test_sub_range_matches_full_table(self, n_min, n_max):
        # A shorter table seeds its downward chains at its own n_max.
        for a in (0.51, A, 0.9):
            full = table_rows(ratio_table(10000, a))[n_min - 2:n_max - 1]
            part = table_rows(ratio_table(n_max, a))[n_min - 2:]
            assert [r.n for r in part] == [r.n for r in full]
            for p, f in zip(part, full):
                assert abs(math.log(p.scaled) - math.log(f.scaled)) <= ratio_S(f.n, a).log_error_bound, (p.n, a)

    def test_columns_without_per_row_records(self, monkeypatch, capsys):
        def no_rows(*args, **kwargs):
            raise AssertionError("a RatioRow was built")

        # Patched on the class itself, so a RatioRow built through any
        # module's binding of the name fails.
        monkeypatch.setattr(volume.RatioRow, "__new__", no_rows)
        table = ratio_table(10000)
        assert isinstance(table, RatioTable)
        assert table.n.dtype.kind == "i"
        for column in table:
            assert isinstance(column, np.ndarray) and column.shape == (9999,)
        assert all(column.dtype == np.float64 for column in table[1:])
        np.testing.assert_array_equal(table.margin, table.scaled - 1.0)
        for fmt in ("json", "csv", "text"):
            assert main(["table", "--max-n", "10000", "--format", fmt]) == 0
        capsys.readouterr()

    def test_scalar_evaluations_do_not_grow_with_n_max(self, monkeypatch):
        # Only the seeds of the chains are scalar: at most two per parity
        # and cap.  Every continued fraction, reg_inc_beta's included, is
        # counted.
        calls = {"reg_inc_beta": 0, "_beta_continued_fraction": 0}
        for name in calls:
            def counted(*args, _f=getattr(specfun, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(specfun, name, counted)
        for n_max in (100, 10000):
            for a in (0.55, A, SQRT3_2 + 1e-9, 0.99):
                calls.update(dict.fromkeys(calls, 0))
                ratio_table(n_max, a)
                assert 0 < calls["_beta_continued_fraction"] <= 12, (n_max, a, calls)
                assert calls["reg_inc_beta"] <= 12, (n_max, a, calls)


class TestDerivative:
    def test_zero_at_canonical_offset(self):
        for n in (2, 3, 10, 60):
            scale = math.exp(unit_ball_volume(n - 1).log_magnitude)
            assert abs(dvol_da(n, A)) <= 1e-10 * scale

    def test_sign_past_the_maximum(self):
        assert dvol_da(2, 0.75) < 0
        assert dvol_da(2, 0.6) > 0

    def test_finite_difference_at_fixed_point(self):
        h = 1e-5
        fd = (
            vol_T_closed_form(3, 0.68 + h).log_value.linear()
            - vol_T_closed_form(3, 0.68 - h).log_value.linear()
        ) / (2 * h)
        assert dvol_da(3, 0.68) == pytest.approx(fd, rel=1e-6)

    def test_finite_difference_at_random_points(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            a = float(rng.uniform(0.55, 0.95))
            h = 1e-6
            fd = (
                vol_T_closed_form(n, a + h).log_value.linear()
                - vol_T_closed_form(n, a - h).log_value.linear()
            ) / (2 * h)
            assert dvol_da(n, a) == pytest.approx(fd, rel=1e-6)


def bisect_dvol_root(n):
    lo, hi = 0.6, 0.8
    assert dvol_da(n, lo) > 0 > dvol_da(n, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dvol_da(n, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMaximizer:
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_matches_bisection_oracle(self, n):
        root = bisect_dvol_root(n)
        assert root == pytest.approx(CANONICAL_OFFSET, abs=1e-10)
        assert maximize_a(n) == pytest.approx(root, abs=1e-7)

    @pytest.mark.parametrize("n", [76, 100, 150, 166, 244, 1000, 10000])
    def test_recovers_offset_in_higher_dimensions(self, n):
        # A golden section on the closed-form volume, which rounding
        # flattens near its maximum, missed the offset by 1.4e-7 at n = 166,
        # 1.4e-6 at n = 244, 0.053 at n = 1000 and 0.13 at n = 10000.
        assert maximize_a(n) == pytest.approx(CANONICAL_OFFSET, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 166, 1000, 10000])
    def test_exact_to_the_last_bits(self, n):
        # The maximizer is the root (1 + sqrt 10)/6 in every dimension, and
        # CANONICAL_OFFSET is the nearest double to it, 0.047 ulp below.
        assert maximize_a(n) == CANONICAL_OFFSET

    def test_same_offset_in_every_dimension(self):
        assert {maximize_a(n) for n in range(2, MAX_DIMENSION + 1)} == {CANONICAL_OFFSET}

    def test_sign_change_exact_only_at_the_offset(self):
        assert _sign_change_exact(CANONICAL_OFFSET)
        assert not _sign_change_exact(math.nextafter(CANONICAL_OFFSET, 0.0))
        assert not _sign_change_exact(math.nextafter(CANONICAL_OFFSET, 1.0))

    def test_argmax_invariant_across_dimensions(self):
        values = [maximize_a(n) for n in (2, 5, 12)]
        assert max(values) - min(values) <= 1e-7

    def test_preconditions(self):
        with pytest.raises(DomainError):
            maximize_a(1)


def sin_list(x):
    return [math.sin(t) for t in x]


class TestAdaptiveQuadrature:
    def test_smooth_integral(self):
        val, err = adaptive_gauss_legendre(sin_list, 0.0, math.pi)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval(self):
        assert adaptive_gauss_legendre(sin_list, 1.0, 1.0) == (0.0, 0.0)

    def test_one_call_of_f_per_level(self):
        sizes = []

        def f(x):
            sizes.append(len(x))
            return [math.exp(-t * t) for t in x]

        val, err = adaptive_gauss_legendre(f, -6.0, 6.0)
        assert sizes == [15 * 2**k for k in range(len(sizes))]
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert err <= 1e-12 * val

    def test_rule_is_leggauss_to_the_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert volume._GL_NODES == tuple(nodes.tolist())
        assert volume._GL_WEIGHTS == tuple(weights.tolist())

    def test_budget_exhaustion_reports_best_estimate(self, monkeypatch):
        monkeypatch.setattr(volume, "_MAX_PANELS", 4)
        f = lambda x: [math.sin(1000.0 * t) for t in x]
        with pytest.raises(NumericError) as info:
            adaptive_gauss_legendre(f, 0.0, 10.0)
        assert info.value.best_estimate is not None
        assert info.value.achieved_error is not None
