import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

import ballavoid
from ballavoid import sampling
from ballavoid.construction import ConstructionParams, component
from ballavoid.errors import DomainError, NumericError
from ballavoid.sampling import (
    _AUDIT_STREAM,
    _VOLUME_STREAM,
    AuditReport,
    SamplerConfig,
    _chunk_rng,
    mc_volume_ratio,
    pair_audit,
    sample_T,
    sample_unit_ball,
)
from ballavoid.specfun import slab_fraction
from ballavoid.volume import ratio_S

N_SAMPLES = 200_000


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def ball_points(n, rng, count, radius=1.0):
    """count uniform points of the open n-ball of the given radius."""
    return radius * sample_unit_ball(n, rng, count)


def draw_T(params, rng, count):
    """count points of T and the acceptance rate, by rejection as sample_T
    documents it: blocks of min(max(still needed, 2048), max(1, 2^19 // n))
    uniform points of B(a e_1, 1/2), each kept if component() puts it in
    T; rows are gathered by plain indexing, which rejects an out-of-range
    index."""
    blocks, filled, hits, proposed = [], 0, 0, 0
    while filled < count:
        m = min(max(count - filled, 2048), max(1, 2**19 // params.n))
        y = ball_points(params.n, rng, m, 0.5)
        y[:, 0] += params.a
        inside = np.flatnonzero(component(params, y) == 1)
        hits, proposed = hits + inside.size, proposed + m
        blocks.append(y[inside[: count - filled]])
        filled += len(blocks[-1])
    return np.concatenate(blocks), hits / proposed


class TestSamplerConfig:
    def test_seed_range(self):
        with pytest.raises(DomainError):
            SamplerConfig(-1, 100, ConstructionParams(2))
        with pytest.raises(DomainError):
            SamplerConfig(2**64, 100, ConstructionParams(2))

    def test_positive_count(self):
        with pytest.raises(DomainError):
            SamplerConfig(0, 0, ConstructionParams(2))

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, flag):
        # bool subclasses int, but True is not seed 1 nor a count of 1.
        with pytest.raises(DomainError, match=f"seed must be a 64-bit unsigned integer, got {flag}"):
            SamplerConfig(flag, 10**4, ConstructionParams(2))
        with pytest.raises(DomainError, match=f"sample_count must be positive, got {flag}"):
            SamplerConfig(0, flag, ConstructionParams(2))

    def test_numpy_integers_accepted(self):
        cfg = SamplerConfig(np.uint64(2**64 - 1), np.int64(10**4), ConstructionParams(2))
        assert (cfg.seed, cfg.sample_count) == (2**64 - 1, 10**4)


class TestSampleUnitBall:
    def test_all_inside(self):
        x = ball_points(4, rng_for(0), 10_000)
        assert np.all(np.linalg.norm(x, axis=1) < 1.0)

    def test_coordinate_means_near_zero(self):
        x = ball_points(3, rng_for(1), N_SAMPLES)
        assert np.all(np.abs(x.mean(axis=0)) < 0.005)

    def test_radius_scaling(self):
        x = ball_points(2, rng_for(2), N_SAMPLES)
        frac = np.mean(np.linalg.norm(x, axis=1) <= 0.5)
        assert frac == pytest.approx(0.25, abs=0.004)

    def test_marginal_matches_slab_fraction(self):
        x = ball_points(3, rng_for(3), N_SAMPLES)
        frac = np.mean((x[:, 0] >= 0.0) & (x[:, 0] <= 0.5))
        assert frac == pytest.approx(slab_fraction(3, 0.0, 0.5), abs=0.004)

    def test_determinism(self):
        a = ball_points(5, rng_for(9), 1000)
        b = ball_points(5, rng_for(9), 1000)
        assert np.array_equal(a, b)

    def test_zero_norm_rows_redrawn(self):
        # A Gaussian row of norm zero has no direction.  A real generator
        # draws one with probability zero, so a stub hands out two.
        class Stub:
            def __init__(self):
                self.shapes = []

            def standard_normal(self, shape):
                self.shapes.append(shape)
                g = np.ones(shape)
                if len(self.shapes) == 1:
                    g[[0, 2]] = 0.0
                return g

            def random(self, count):
                return np.full(count, 0.125)

        rng = Stub()
        x = sample_unit_ball(3, rng, 4)
        assert rng.shapes == [(4, 3), (2, 3)]
        assert x == pytest.approx(np.full((4, 3), 0.5 / math.sqrt(3.0)), rel=1e-15)


# vol T_n / vol(small ball), from the antiderivative oracle.
ACCEPTANCE = [(2, 0.5697868742896341), (3, 0.6252470442573573)]


class TestSampleT:
    def test_membership_invariant(self):
        p = ConstructionParams(3)
        pts, _ = draw_T(p, rng_for(4), 5000)
        assert pts.shape == (5000, 3)
        assert np.all(component(p, pts) == 1)
        perp = np.einsum("ij,ij->i", pts[:, 1:], pts[:, 1:])
        assert np.all(pts[:, 0] > 0.5)
        assert np.all((pts[:, 0] - p.a) ** 2 + perp < 0.25)
        assert np.all(np.einsum("ij,ij->i", pts, pts) < 1.0)

    def test_keep_mask_is_the_definition(self, monkeypatch):
        # Proposals placed by hand, one outside B(a e_1, 1/2) with x_1 > 1/2
        # and |x| < 1, repeated over the 2048-row block: sample_T must
        # accept exactly the points of T.
        p = ConstructionParams(2)
        pts = np.array([[0.55, 0.6], [p.a, 0.0], [0.95, 0.4], [0.45, 0.1], [0.8, 0.3]])

        def place(n, rng, count):
            return 2.0 * (np.resize(pts, (count, n)) - [p.a, 0.0])

        monkeypatch.setattr(sampling, "sample_unit_ball", place)
        got, rate = sample_T(p, None, 4)
        assert (component(p, pts) == 1).tolist() == [False, True, False, False, True]
        assert got == pytest.approx(pts[[1, 4, 1, 4]], abs=1e-15)
        assert rate == (2 * (2048 // 5) + 1) / 2048

    @pytest.mark.parametrize("n,expected", ACCEPTANCE)
    def test_acceptance_rate(self, n, expected):
        _, rate = draw_T(ConstructionParams(n), rng_for(5), N_SAMPLES)
        assert rate == pytest.approx(expected, abs=0.005)

    @pytest.mark.parametrize("n,expected", ACCEPTANCE)
    def test_rate_counts_surplus_hits(self, n, expected):
        # One point from a 2048-proposal block: the ~1200 surplus hits
        # still count, so the rate estimates the acceptance probability.
        _, rate = draw_T(ConstructionParams(n), rng_for(5), 1)
        assert rate == pytest.approx(expected, abs=0.04)


class TestPublicSamplers:
    @pytest.mark.parametrize("n", [2, 5])
    def test_unit_ball_shape_and_norms(self, n):
        x = sample_unit_ball(n, rng_for(10), 3000)
        assert x.shape == (3000, n)
        assert np.all(np.linalg.norm(x, axis=1) < 1.0)

    @pytest.mark.parametrize("n", [2, 5])
    def test_T_shape_and_membership(self, n):
        p = ConstructionParams(n)
        pts, _ = sample_T(p, rng_for(11), 3000)
        assert pts.shape == (3000, n)
        assert np.all(component(p, pts) == 1)

    # At n = 1000 and 10000 blocks hold 524 and 52 rows, so a draw spans
    # several blocks.
    @pytest.mark.parametrize("n,count", [(3, 1), (3, 3000), (3, 70_000), (2, 5000),
                                         (1000, 3000), (10000, 300)])
    def test_T_matches_rejection_kernel(self, n, count):
        p = ConstructionParams(n)
        pts, rate = sample_T(p, rng_for(12), count)
        ref, ref_rate = draw_T(p, rng_for(12), count)
        assert pts.tobytes() == ref.tobytes()
        assert rate == ref_rate

    def test_package_names_load_sampling_on_first_access(self):
        # README: ballavoid.SamplerConfig, .pair_audit and .mc_volume_ratio
        # load ballavoid.sampling, and numpy with it, when first read.
        names = ("SamplerConfig", "mc_volume_ratio", "pair_audit")
        assert [getattr(ballavoid, name) for name in names] == [getattr(sampling, name) for name in names]
        with pytest.raises(AttributeError, match="has no attribute 'sample_T'"):
            ballavoid.sample_T
        script = ("import sys, ballavoid\n"
                  "before = [m in sys.modules for m in ('ballavoid.sampling', 'numpy')]\n"
                  "ballavoid.pair_audit\n"
                  "print(before, [m in sys.modules for m in ('ballavoid.sampling', 'numpy')])\n")
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[False, False] [True, True]\n"

    def test_T_empty_draw(self):
        pts, rate = sample_T(ConstructionParams(4), rng_for(13), 0)
        assert pts.shape == (0, 4)
        assert rate == 0.0

    @pytest.mark.parametrize("count", [-1, 2.5, True])
    @pytest.mark.parametrize("draw", [
        pytest.param(lambda rng, count: sample_unit_ball(3, rng, count), id="unit_ball"),
        pytest.param(lambda rng, count: sample_T(ConstructionParams(3), rng, count), id="T"),
    ])
    def test_bad_count_is_domain_error(self, draw, count):
        with pytest.raises(DomainError, match="count"):
            draw(rng_for(14), count)

    def test_T_acceptance_floor(self):
        # At a = 0.99 almost no point of B(a e_1, 1/2) lies in the unit
        # ball in high n.  The audit's own rejection loop gives up by the
        # same rule.
        p = ConstructionParams(500, 0.99)
        with pytest.raises(NumericError) as err:
            sample_T(p, rng_for(15), 1)
        assert err.value.best_estimate == 0.0
        with pytest.raises(NumericError) as audit_err:
            pair_audit(SamplerConfig(0, 10_000, p))
        assert str(audit_err.value) == str(err.value)
        assert audit_err.value.best_estimate == 0.0


class TestMcVolumeRatio:
    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            mc_volume_ratio(SamplerConfig(0, 5000, ConstructionParams(2)))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_agreement_with_analytic(self, n):
        cfg = SamplerConfig(0, N_SAMPLES, ConstructionParams(n))
        est = mc_volume_ratio(cfg)
        analytic = ratio_S(n).ratio
        sigma = math.sqrt(analytic * (1 - analytic) / cfg.sample_count)
        assert abs(est.log_value.linear() - analytic) <= 3 * sigma
        lo, hi = est.log_interval(2.5758293035489004)
        assert lo < est.log_value.log_magnitude < hi

    def test_determinism(self):
        cfg = SamplerConfig(7, 20_000, ConstructionParams(2))
        a = mc_volume_ratio(cfg)
        b = mc_volume_ratio(cfg)
        assert a.log_value.log_magnitude == b.log_value.log_magnitude
        assert a.log_interval(2.5758293035489004) == b.log_interval(2.5758293035489004)

    @pytest.mark.parametrize("n", [2, 10000])
    def test_memory_bounded(self, monkeypatch, n):
        # As TestPairAudit.test_memory_bounded, with one proposal block of
        # buffers per worker and no points kept.
        use_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            mc_volume_ratio(SamplerConfig(0, 10**6, ConstructionParams(n)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_no_hits_is_numeric_error(self):
        # At a = 0.99 the proposal ball leaves the unit ball in high n.
        with pytest.raises(NumericError):
            mc_volume_ratio(SamplerConfig(0, 10_000, ConstructionParams(500, 0.99)))

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_unbiased_across_seeds(self, n):
        # 200 seeds of 10^4 proposals: the mean z-score of q-hat against
        # the closed form lies within 4 standard errors, 4/sqrt(200), of 0,
        # and the 3-sigma Wilson interval holds the exact log-ratio in at
        # least 98 % of seeds (99.7 % expected).
        samples, seeds = 10_000, 200
        q = ratio_S(n).scaled / 2
        log_ratio = math.log(ratio_S(n).scaled) - n * math.log(2.0)
        z, covered = [], 0
        for seed in range(seeds):
            est = mc_volume_ratio(SamplerConfig(seed, samples, ConstructionParams(n)))
            z.append((est.hits / samples - q) / math.sqrt(q * (1 - q) / samples))
            lo, hi = est.log_interval(3.0)
            covered += lo - 1e-12 <= log_ratio <= hi + 1e-12
        assert abs(sum(z) / seeds) < 4 / math.sqrt(seeds)
        assert covered >= 0.98 * seeds

    @pytest.mark.parametrize("n", [2, 64, 256, 1000, 10000])
    def test_wilson_interval_covers_analytic(self, n):
        # Hit-or-miss in the unit ball gets no hits from n ~ 30 on; the
        # acceptance estimator stays finite and its 3-sigma Wilson
        # interval holds the exact log-ratio, up to the closed form's
        # 1e-12 log error, even when q-hat is 1.
        est = mc_volume_ratio(SamplerConfig(0, 10_000, ConstructionParams(n)))
        lo, hi = est.log_interval(3.0)
        log_ratio = math.log(ratio_S(n).scaled) - n * math.log(2.0)
        assert lo - 1e-12 <= log_ratio <= hi + 1e-12
        assert lo <= est.log_value.log_magnitude <= hi


def norms(points, axis):
    return np.sqrt((points * points).sum(axis=axis))


class TestReducedCoordinates:
    """The audit and the volume estimate draw points as (x_1, rho) and pairs
    in three coordinates; their law is that of sample_T's n-vectors."""

    @pytest.mark.parametrize("n", [2, 5])
    def test_keep_mask_is_the_definition(self, n):
        p = ConstructionParams(n)
        s = sampling._Buffers()
        keep = sampling._propose(p, rng_for(30), s, 4096).copy()
        padded = np.zeros((4096, n))
        padded[:, 0], padded[:, 1] = s.x1[:4096], s.rho[:4096]
        assert np.all(np.abs(padded[:, 0] - p.a) ** 2 + padded[:, 1] ** 2 < 0.25)
        assert 0 < keep.sum() < 4096
        assert keep.tolist() == (component(p, padded) == 1).tolist()

    def test_pair_angle_at_low_n(self):
        # At n = 2 the orthogonal parts of x and y lie on one line, so
        # cos phi = +-1 exactly and the y's third coordinate is 0; at n = 3
        # cos phi = cos(2 pi V).  _pair_points leaves cos phi in s.x1.
        pairs = 10_000
        s = sampling._Buffers()
        _, y3 = sampling._pair_points(ConstructionParams(2), rng_for(32), s, pairs)
        assert set(np.unique(s.x1[:pairs]).tolist()) == {-1.0, 1.0}
        assert (y3 == 0.0).all()
        p, y3 = sampling._pair_points(ConstructionParams(3), rng_for(33), s, pairs)
        assert np.isfinite(p).all() and np.isfinite(y3).all()
        assert (np.abs(s.x1[:pairs]) <= 1.0).all()

    @pytest.mark.parametrize("n", [64, 1000, 10000])
    def test_proposal_law_at_high_n(self, n):
        # sample_T's n-vectors are too large to serve as the reference
        # here, so one-sample Kolmogorov-Smirnov tests compare 2^14
        # proposals with their exact laws: 2(x_1 - a) is the first
        # coordinate of a uniform point of the unit n-ball, and
        # (2|x - a e_1|)^n ~ U(0, 1).  At n = 10000, U^(2/n) is within
        # about 1e-3 of 1 and 1 - U^(2/n) cancels most of its digits.
        p, m = ConstructionParams(n), 2**14
        s = sampling._Buffers()
        sampling._propose(p, rng_for(60), s, m)
        x1, rho = s.x1[:m], s.rho[:m]

        def x1_cdf(x):
            return np.array([slab_fraction(n, -1.0, min(1.0, max(-1.0, 2.0 * (v - p.a))))
                             for v in x])

        assert kstest(x1, x1_cdf).pvalue > 1e-3
        assert kstest((4.0 * ((x1 - p.a) ** 2 + rho**2)) ** (n / 2), "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_law_matches_sample_T(self, n):
        # Two-sample Kolmogorov-Smirnov tests on fixed seeds, 2^17 points
        # and 2^16 pairs a side; sample_T's points are paired in draw order.
        p = ConstructionParams(n)
        pairs = sampling.CHUNK_ROWS
        first_two, y3 = sampling._pair_points(p, rng_for(20 + n), sampling._Buffers(), pairs)
        reduced = np.vstack([first_two, np.concatenate([np.zeros(pairs), y3])])
        ref, _ = sample_T(p, rng_for(40 + n), 2 * pairs)
        x, y = reduced[:, :pairs], reduced[:, pairs:]
        ref_x, ref_y = ref[:pairs], ref[pairs:]
        for name, got, want in (
            ("x_1", reduced[0], ref[:, 0]),
            ("|x|^2", norms(reduced, 0) ** 2, norms(ref, 1) ** 2),
            ("|x - y|", norms(x - y, 0), norms(ref_x - ref_y, 1)),
            ("|x + y|", norms(x + y, 0), norms(ref_x + ref_y, 1)),
        ):
            assert ks_2samp(got, want).pvalue > 1e-3, name


class TestCos2Pi:
    # Every cosine of the reduced-coordinate kernels is drawn by this fold;
    # direct_audit calls it too, so it is checked here on its own.
    EDGES = ([k / 8 for k in range(8)] + [1.0 - 2.0**-53]
             + [math.nextafter(q, d) for q in (0.25, 0.75) for d in (0.0, 1.0)])
    # 2^11 points within 2^-19 of 1/4 and 3/4, where 2/(1 + tan^2) - 1
    # cancels to near 0.
    CANCELLING = [q + k * 2.0**-28 for q in (0.25, 0.75) for k in range(-512, 512)]

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        v = np.concatenate([rng_for(31).random(2**14), self.EDGES, self.CANCELLING])
        got = sampling._cos_2pi(v.copy(), np.empty_like(v))
        with mpmath.workdps(40):
            err = max(abs(mpmath.mpf(c) - mpmath.cos(2 * mpmath.pi * mpmath.mpf(x)))
                      for x, c in zip(v.tolist(), got.tolist()))
        assert err <= 5e-16
        assert np.abs(got).max() <= 1.0
        assert np.all(got != 0.0)

    def test_never_zero(self):
        # g = 1/4 - |f| is largest, 1/4, at v = 1/4 and 3/4, where the
        # result is its smallest magnitude: tan(fl(pi/4)) = 1 - 2^-53, whose
        # square rounds to 1 - 2^-52, so 2/(1 + tan^2) - 1 = 2^-52.  Each
        # step is monotone in g while the tangent is, which the grid around
        # the two points checks; n = 2 takes the sign of cos phi and relies
        # on it being nonzero.
        tan = np.tan(np.float64(math.pi / 4))
        assert tan == 1.0 - 2.0**-53
        floor = 2.0 / (1.0 + tan * tan) - 1.0
        assert floor == 2.0**-52
        near = [q + k * 2.0**-53 for q in (0.25, 0.75) for k in range(-64, 65)]
        v = np.concatenate([rng_for(32).random(2**14), self.EDGES, near])
        got = sampling._cos_2pi(v, np.empty_like(v))
        assert np.abs(got).min() == floor


# Seeded results of the single-threaded sampler, which every worker count
# must reproduce bit for bit; the first configuration spans four chunks,
# and the last takes 1 - U^(2/n) at n = 10000, where U^(2/n) is near 1.
PINNED = [
    (
        SamplerConfig(0, 200_000, ConstructionParams(2)),
        AuditReport(200_000, 0, 1.0048631755949118, 0.9943320300692835),
        114_194,
    ),
    (
        SamplerConfig(11, 20_000, ConstructionParams(64)),
        AuditReport(20_000, 0, 1.2128819890496823, 0.8532644353209001),
        19_969,
    ),
    (
        SamplerConfig(10, 20_000, ConstructionParams(10000)),
        AuditReport(20_000, 0, 1.5321500042476923, 0.7224912139214105),
        20_000,
    ),
]
# Test ids that a re-pin leaves as they are.
PINNED_IDS = [f"n{cfg.params.n}-seed{cfg.seed}" for cfg, _, _ in PINNED]
# The direct computation holds every point as an n-vector: at n = 10000
# a proposal block alone would take 3.2 GB.
DIRECT = [pin for pin in PINNED if pin[0].params.n <= 64]
DIRECT_IDS = [f"n{cfg.params.n}-seed{cfg.seed}" for cfg, _, _ in DIRECT]


def use_workers(monkeypatch, count):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: count)


class TestSeededOutput:
    @pytest.mark.parametrize("cfg,report,hits", PINNED, ids=PINNED_IDS)
    def test_pinned(self, cfg, report, hits):
        assert pair_audit(cfg) == report
        est = mc_volume_ratio(cfg)
        assert (est.hits, est.proposals) == (hits, cfg.sample_count)

    @pytest.mark.parametrize("cfg,report,hits", DIRECT, ids=DIRECT_IDS)
    def test_pinned_audit_matches_direct_computation(self, cfg, report, hits):
        assert direct_audit(cfg, accept_in_T) == report

    @pytest.mark.parametrize("cfg,report,hits", PINNED, ids=PINNED_IDS)
    def test_independent_of_worker_count(self, monkeypatch, cfg, report, hits):
        results = []
        for workers in (1, 3):
            use_workers(monkeypatch, workers)
            results.append((pair_audit(cfg), mc_volume_ratio(cfg)))
        assert results[0] == results[1]
        assert results[0][0] == report


def avx512_dispatch_groups():
    """numpy's AVX-512 dispatch groups that it finds on this host; none
    once NPY_DISABLE_CPU_FEATURES names them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = umath.__cpu_features__
    return [group for group in umath.__cpu_dispatch__
            if found.get(group) and (group == "X86_V4" or group.startswith("AVX512"))]


def test_independent_of_simd_dispatch():
    # np.tan runs numpy's AVX-512 loop where the host has one and libm's
    # otherwise.  A fresh interpreter with those groups switched off must
    # reproduce the pins and pass _cos_2pi's checks.
    groups = avx512_dispatch_groups()
    if not groups:
        pytest.skip("numpy finds no AVX-512 dispatch group on this host")
    here = pathlib.Path(__file__)
    code = (
        "import sys\n"
        "import pytest\n"
        "from test_sampling import avx512_dispatch_groups\n"
        "groups = avx512_dispatch_groups()\n"
        "if groups:\n"
        "    sys.exit(f'still dispatched: {groups}')\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n"
    )
    tests = [f"{here}::TestSeededOutput::test_pinned", f"{here}::TestCos2Pi"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *tests], cwd=here.parent,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(groups),
             "PYTHONPATH": os.path.dirname(os.path.dirname(sampling.__file__))},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(PINNED) + 2} passed" in proc.stdout, proc.stdout


class TestWorkerThreads:
    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Ten chunks on five workers, switching threads every microsecond:
        # a lost or misplaced chunk summary would change the report.
        cfg = SamplerConfig(4, 10 * sampling.CHUNK_ROWS, ConstructionParams(256))
        use_workers(monkeypatch, 1)
        expected = pair_audit(cfg), mc_volume_ratio(cfg)
        use_workers(monkeypatch, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert (pair_audit(cfg), mc_volume_ratio(cfg)) == expected
        finally:
            sys.setswitchinterval(interval)

    # Three workers on three chunks at n = 64.
    @pytest.mark.parametrize("estimator", [pair_audit, mc_volume_ratio])
    def test_threads_joined_after_success(self, monkeypatch, estimator):
        use_workers(monkeypatch, 3)
        before = threading.active_count()
        estimator(SamplerConfig(0, 3 * sampling.CHUNK_ROWS, ConstructionParams(64)))
        assert threading.active_count() == before

    @pytest.mark.parametrize("estimator", [pair_audit, mc_volume_ratio])
    def test_worker_error_reaches_caller(self, monkeypatch, estimator):
        # At a = 0.99 and n = 500 the proposal ball all but leaves the
        # unit ball: the audit's rejection sampler gives up inside a
        # worker, and the volume estimate finds no hit.
        use_workers(monkeypatch, 3)
        before = threading.active_count()
        with pytest.raises(NumericError):
            estimator(SamplerConfig(0, 10_000, ConstructionParams(500, 0.99)))
        assert threading.active_count() == before

    def test_lowest_failing_chunk_raised(self, monkeypatch):
        # Chunk 1 fails at once and chunk 0 only after it: chunk 0's
        # exception is the one that surfaces.
        use_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "_chunk_rng", lambda seed, stream, i: i)
        chunk_1_failed = threading.Event()

        def work(rows, i, s):
            if i == 1:
                chunk_1_failed.set()
                raise ValueError("chunk 1")
            if i == 0:
                assert chunk_1_failed.wait(10)
                raise ValueError("chunk 0")
            return i

        before = threading.active_count()
        with pytest.raises(ValueError, match="chunk 0"):
            list(sampling._run_chunks(0, _AUDIT_STREAM, 4 * sampling.CHUNK_ROWS, work))
        assert threading.active_count() == before

    def test_usable_cpus_without_affinity_mask(self, monkeypatch):
        # Where os has no sched_getaffinity, every CPU the OS reports counts.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sampling._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sampling._usable_cpus() == 1

    def test_look_ahead_bounded(self, monkeypatch):
        # While chunk 0 is held, the other worker runs ahead only as far as
        # the window of two chunks per worker, not through all 60.
        use_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "_chunk_rng", lambda seed, stream, i: i)
        started = []
        overrun = threading.Event()

        def work(rows, i, s):
            started.append(i)
            if len(started) > 4:
                overrun.set()
            if i == 0:
                overrun.wait(0.2)
            return i

        chunks = iter(sampling._run_chunks(0, _AUDIT_STREAM, 60 * sampling.CHUNK_ROWS, work))
        assert next(chunks) == 0
        assert len(started) <= 4
        assert list(chunks) == list(range(1, 60))


def test_audit_and_volume_streams_are_disjoint():
    audit = _chunk_rng(0, _AUDIT_STREAM, 0)
    volume = _chunk_rng(0, _VOLUME_STREAM, 0)
    assert audit.random() != volume.random()


class TestPairAudit:
    @pytest.mark.parametrize("n", [2, 8])
    def test_no_violations(self, n):
        rep = pair_audit(SamplerConfig(0, 50_000, ConstructionParams(n)))
        assert rep.violations == 0
        assert rep.violating_pairs == ()
        assert rep.min_cross_distance > 1.0
        assert rep.max_same_distance < 1.0

    def test_cross_infimum_approached(self):
        rep = pair_audit(SamplerConfig(0, 200_000, ConstructionParams(2)))
        assert rep.min_cross_distance - 1.0 < 0.05

    def test_determinism(self):
        cfg = SamplerConfig(3, 20_000, ConstructionParams(3))
        assert pair_audit(cfg) == pair_audit(cfg)

    def test_determinism_across_chunks(self):
        # Three chunks at n = 64, each with its own stream.
        cfg = SamplerConfig(11, 3 * sampling.CHUNK_ROWS, ConstructionParams(64))
        assert pair_audit(cfg) == pair_audit(cfg)

    def test_high_dimension(self):
        # A pair is drawn in three coordinates, at the same cost in every
        # dimension.
        rep = pair_audit(SamplerConfig(0, 10_000, ConstructionParams(1000)))
        assert rep.violations == 0
        assert rep.min_cross_distance > 1.0
        assert rep.max_same_distance < 1.0

    def test_largest_dimension(self):
        rep = pair_audit(SamplerConfig(0, 10**5, ConstructionParams(10000)))
        assert rep.violations == 0
        assert rep.min_cross_distance > 1.0
        assert rep.max_same_distance < 1.0

    @pytest.mark.parametrize("n", [2, 8, 10000])
    def test_memory_bounded(self, monkeypatch, n):
        # tracemalloc sees every worker's buffers; two workers keep the
        # bound independent of the machine.  Every n has the same buffers:
        # CHUNK_ROWS rows of one to three coordinates.
        use_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            rep = pair_audit(SamplerConfig(0, 10**6, ConstructionParams(n)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.violations == 0
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", [5, 10000])
    def test_chunk_working_set(self, n):
        # A chunk holds its worker's buffers and at most one proposal
        # block's index array at a time; 16 KiB covers views, frames and
        # scalars.  The generator is made first: numpy imports its random
        # module on first use.
        p = ConstructionParams(n)
        rng = rng_for(50)
        tracemalloc.start()
        try:
            s = sampling._Buffers()
            sampling._audit_chunk(p, sampling.CHUNK_ROWS, rng, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffers = sum(a.nbytes for a in vars(s).values())
        index = np.dtype(np.intp).itemsize * sampling.CHUNK_ROWS
        assert peak <= buffers + index + 2**14

    def test_minimum_pair_count(self):
        with pytest.raises(DomainError):
            pair_audit(SamplerConfig(0, 100, ConstructionParams(2)))

    def test_report_shape(self):
        rep = pair_audit(SamplerConfig(5, 10_000, ConstructionParams(2)))
        assert isinstance(rep, AuditReport)
        assert rep.pairs_tested == 10_000


def direct_audit(cfg, accept):
    """The audit of cfg recomputed on whole chunks from the same chunk
    streams and uniform draws, taken by the formulas of _propose and
    _pair_points.  Each proposal block is built as zero-padded
    n-vectors (x_1, rho, 0, ...) of B(a e_1, 1/2), accept(params, block)
    gives its accepted rows, the first half of a chunk's points are the
    x's and the second half the y's, each y is rotated by its angle phi in
    the plane of coordinates 2 and 3, and then every point is labelled by
    component() and every pair measured both ways by np.linalg.norm.
    Witnesses follow the audit's order: per chunk, the points outside T,
    then the same and then the cross pairs."""
    params, n, a = cfg.params, cfg.params.n, cfg.params.a
    rows = sampling.CHUNK_ROWS
    violations, witnesses, extremes = 0, [], []
    for i, start in enumerate(range(0, cfg.sample_count, rows)):
        k = min(rows, cfg.sample_count - start)
        rng = _chunk_rng(cfg.seed, _AUDIT_STREAM, i)
        blocks, filled = [], 0
        while filled < 2 * k:
            m = min(max(2 * k - filled, 2048), rows)
            t = np.sqrt(1.0 - rng.random(m) ** (2.0 / n)) * cos_2pi(rng.random(m))
            w = rng.random(m) ** (2.0 / (n - 1))
            block = np.zeros((m, n))
            block[:, 0] = a + t / 2
            block[:, 1] = np.sqrt((1.0 - t * t) * w) / 2
            blocks.append(accept(params, block)[: 2 * k - filled])
            filled += blocks[-1].shape[0]
        points = np.concatenate(blocks)
        cos_phi = cos_2pi(rng.random(k))
        if n == 2:
            cos_phi = np.sign(cos_phi)
        elif n > 3:
            cos_phi *= np.sqrt(1.0 - rng.random(k) ** (2.0 / (n - 3)))
        x, y = points[:k], points[k:]
        rho_y = y[:, 1].copy()
        y[:, 1] = rho_y * cos_phi
        if n > 2:
            y[:, 2] = rho_y * np.sqrt(1.0 - cos_phi * cos_phi)
        outside = component(params, points) != 1
        norms = np.linalg.norm(points, axis=1)
        same = np.linalg.norm(x - y, axis=1)
        cross = np.linalg.norm(x + y, axis=1)
        violations += int(np.count_nonzero(outside) + np.count_nonzero(same >= 1.0)
                          + np.count_nonzero(cross <= 1.0))
        found = [(tuple(points[j]), (), "outside", float(norms[j]))
                 for j in np.flatnonzero(outside)]
        found += [(tuple(x[j]), tuple(y[j]), "same_component", float(same[j]))
                  for j in np.flatnonzero(same >= 1.0)]
        found += [(tuple(x[j]), tuple(-y[j]), "cross_component", float(cross[j]))
                  for j in np.flatnonzero(cross <= 1.0)]
        witnesses += found[: 10 - len(witnesses)]
        extremes.append((cross.min(), same.max()))
    return AuditReport(cfg.sample_count, violations, min(lo for lo, _ in extremes),
                       max(hi for _, hi in extremes), tuple(witnesses))


def cos_2pi(v):
    return sampling._cos_2pi(v, np.empty_like(v))


def accept_in_T(params, block):
    return block[component(params, block) == 1]


class TestViolationPath:
    def test_matches_direct_computation(self, monkeypatch):
        # Accept every proposal of B(a e_1, 1/2) but the first of each
        # block, and move the last one out to x_1 = 10: it is outside S,
        # and same-component pairs holding it are violations too.  Chunks
        # of 2000 pairs make 20000 pairs ten chunks of three blocks each,
        # small enough for the n-vectors of the direct computation.
        propose = sampling._propose

        def accept_all_but_first(params, rng, s, m):
            keep = propose(params, rng, s, m)
            keep[:] = True
            keep[0] = False
            s.x1[m - 1] = 10.0
            return keep

        def reference(params, block):
            block[-1, 0] = 10.0
            return block[1:]

        monkeypatch.setattr(sampling, "_propose", accept_all_but_first)
        monkeypatch.setattr(sampling, "CHUNK_ROWS", 2000)
        use_workers(monkeypatch, 3)
        cfg = SamplerConfig(2, 20_000, ConstructionParams(256))
        rep = pair_audit(cfg)
        assert rep.max_same_distance > 8.0
        assert {tag for _, _, tag, _ in rep.violating_pairs} == {"outside", "same_component"}
        assert rep.violations > 0
        assert rep == direct_audit(cfg, reference)

    def test_pair_checked_both_ways(self, monkeypatch):
        # The second point of the first pair becomes -x: |x - y| = 2|x| >= 1
        # and |x + y| = 0, so the pair fails both ways, and -x is outside T.
        pair_points = sampling._pair_points

        def mirrored(params, rng, s, pairs):
            p, y3 = pair_points(params, rng, s, pairs)
            p[:, pairs] = -p[:, 0]
            y3[0] = -0.0  # x's third coordinate is 0
            return p, y3

        monkeypatch.setattr(sampling, "_pair_points", mirrored)
        rep = pair_audit(SamplerConfig(0, 10_000, ConstructionParams(2)))
        assert rep.violations == 3
        outside, same, cross = rep.violating_pairs
        x = np.array(same[0])
        assert outside == (tuple(-x), (), "outside", pytest.approx(np.linalg.norm(x), rel=1e-15))
        assert same == (tuple(x), tuple(-x), "same_component",
                        pytest.approx(2 * np.linalg.norm(x), rel=1e-15))
        assert cross == (tuple(x), tuple(x), "cross_component", 0.0)
        assert rep.min_cross_distance == 0.0
        assert rep.max_same_distance == same[3]

    def test_misindexed_rows_are_outside(self, monkeypatch):
        # An off-by-one in the rows the rejection kernel reports makes the
        # audit copy rejected proposals (and, past the block, clamped or
        # stale rows); checking the copies against T itself catches it.
        propose = sampling._propose

        def shifted(*args):
            return np.roll(propose(*args), 1)

        monkeypatch.setattr(sampling, "_propose", shifted)
        p = ConstructionParams(2)
        rep = pair_audit(SamplerConfig(0, 10_000, p))
        assert rep.violations > 0
        outside = [(x, y, dist) for x, y, tag, dist in rep.violating_pairs if tag == "outside"]
        assert outside
        for x, y, dist in outside:
            assert component(p, x) == 0 and y == ()
            assert dist == pytest.approx(np.linalg.norm(x), rel=1e-15)

