import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ballavoid import sampling
from ballavoid.construction import ConstructionParams, component
from ballavoid.errors import DomainError, NumericError
from ballavoid.sampling import (
    _AUDIT_STREAM,
    _VOLUME_STREAM,
    CHUNK_ELEMENTS,
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
    """count uniform points of the open n-ball of the given radius, from
    the kernel every sampler draws its proposals with."""
    g = np.empty((count, n))
    sampling._fill_ball(rng, g, np.empty(count), np.empty(count), radius)
    return g


def draw_T(params, rng, count):
    """count points of T and the acceptance rate, from the rejection kernel
    the audit draws with; rows are gathered by plain indexing, which
    rejects an out-of-range index."""
    s = sampling._Buffers(min(max(count, 2048), sampling._chunk_rows(params.n)), params.n)
    blocks, rate = [], 0.0
    for idx, rate in sampling._T_blocks(params, rng, count, s):
        blocks.append(s.points[idx])
    return np.concatenate(blocks), rate


class TestSamplerConfig:
    def test_seed_range(self):
        with pytest.raises(DomainError):
            SamplerConfig(-1, 100, ConstructionParams(2))
        with pytest.raises(DomainError):
            SamplerConfig(2**64, 100, ConstructionParams(2))

    def test_positive_count(self):
        with pytest.raises(DomainError):
            SamplerConfig(0, 0, ConstructionParams(2))


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
        # and |x| < 1: the mask must accept exactly the points of T.
        p = ConstructionParams(2)
        pts = np.array([[0.55, 0.6], [p.a, 0.0], [0.95, 0.4], [0.45, 0.1], [0.8, 0.3]])

        def place(rng, g, u, sq, radius):
            g[:] = pts
            g[:, 0] -= p.a

        monkeypatch.setattr(sampling, "_fill_ball", place)
        keep = sampling._propose(p, None, sampling._Buffers(len(pts), 2), len(pts))
        assert keep.tolist() == (component(p, pts) == 1).tolist() == [False, True, False, False, True]

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

    @pytest.mark.parametrize("count", [1, 3000, 70_000])
    def test_T_matches_rejection_kernel(self, count):
        p = ConstructionParams(3)
        pts, rate = sample_T(p, rng_for(12), count)
        ref, ref_rate = draw_T(p, rng_for(12), count)
        assert pts.tobytes() == ref.tobytes()
        assert rate == ref_rate

    def test_T_empty_draw(self):
        pts, rate = sample_T(ConstructionParams(4), rng_for(13), 0)
        assert pts.shape == (0, 4)
        assert rate == 0.0


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
        assert est.method == "monte_carlo"
        assert est.error_bound > 0

    def test_determinism(self):
        cfg = SamplerConfig(7, 20_000, ConstructionParams(2))
        a = mc_volume_ratio(cfg)
        b = mc_volume_ratio(cfg)
        assert a.log_value.log_magnitude == b.log_value.log_magnitude
        assert a.error_bound == b.error_bound

    def test_no_hits_is_numeric_error(self):
        # At a = 0.99 the proposal ball leaves the unit ball in high n.
        with pytest.raises(NumericError):
            mc_volume_ratio(SamplerConfig(0, 10_000, ConstructionParams(500, 0.99)))

    @pytest.mark.parametrize("n", [2, 64, 256, 1000])
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


# Seeded results of the single-threaded sampler, which every worker count
# must reproduce bit for bit; the second configuration spans three chunks.
PINNED = [
    (
        SamplerConfig(0, 200_000, ConstructionParams(2)),
        AuditReport(200_000, 0, 1.002760949313007, 0.9966808390423783, 0),
        114_439,
    ),
    (
        SamplerConfig(11, 20_000, ConstructionParams(64)),
        AuditReport(20_000, 0, 1.2385362401408253, 0.845591486320776, 11),
        19_971,
    ),
]


def use_workers(monkeypatch, count):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: count)


class TestSeededOutput:
    @pytest.mark.parametrize("cfg,report,hits", PINNED)
    def test_pinned(self, cfg, report, hits):
        assert pair_audit(cfg) == report
        est = mc_volume_ratio(cfg)
        assert (est.hits, est.proposals) == (hits, cfg.sample_count)

    @pytest.mark.parametrize("cfg,report,hits", PINNED)
    def test_pinned_audit_matches_direct_computation(self, cfg, report, hits):
        assert direct_audit(cfg, accept_in_T) == report

    @pytest.mark.parametrize("cfg,report,hits", PINNED)
    def test_independent_of_worker_count(self, monkeypatch, cfg, report, hits):
        results = []
        for workers in (1, 3):
            use_workers(monkeypatch, workers)
            results.append((pair_audit(cfg), mc_volume_ratio(cfg)))
        assert results[0] == results[1]
        assert results[0][0] == report


class TestWorkerThreads:
    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Ten chunks on five workers, switching threads every microsecond:
        # a lost or misplaced chunk summary would change the report.
        cfg = SamplerConfig(4, 20_000, ConstructionParams(256))
        use_workers(monkeypatch, 1)
        expected = pair_audit(cfg), mc_volume_ratio(cfg)
        use_workers(monkeypatch, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert (pair_audit(cfg), mc_volume_ratio(cfg)) == expected
        finally:
            sys.setswitchinterval(interval)

    # Three workers on 20000 pairs at n = 64, which span three chunks.
    @pytest.mark.parametrize("estimator", [pair_audit, mc_volume_ratio])
    def test_threads_joined_after_success(self, monkeypatch, estimator):
        use_workers(monkeypatch, 3)
        before = threading.active_count()
        estimator(SamplerConfig(0, 20_000, ConstructionParams(64)))
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
            list(sampling._run_chunks(0, _AUDIT_STREAM, 4 * sampling._chunk_rows(2), 2, False,
                                      work))
        assert threading.active_count() == before

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

        chunks = iter(sampling._run_chunks(0, _AUDIT_STREAM, 60 * sampling._chunk_rows(2), 2,
                                           False, work))
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
        # 20000 pairs at n = 64 span three chunks, each with its own stream.
        cfg = SamplerConfig(11, 20_000, ConstructionParams(64))
        assert pair_audit(cfg) == pair_audit(cfg)

    def test_high_dimension(self):
        # The element budget gives 2^19 // 1000 = 524 pairs per chunk.
        rep = pair_audit(SamplerConfig(0, 10_000, ConstructionParams(1000)))
        assert rep.violations == 0
        assert rep.min_cross_distance > 1.0
        assert rep.max_same_distance < 1.0

    @pytest.mark.parametrize("n", [2, 8])
    def test_memory_bounded(self, monkeypatch, n):
        # tracemalloc sees every worker's buffers; two workers keep the
        # bound independent of the machine.  n = 2 has the longest
        # per-row vectors (2^18 rows per chunk).
        use_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            rep = pair_audit(SamplerConfig(0, 10**6, ConstructionParams(n)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.violations == 0
        assert peak < 64 * 2**20

    def test_minimum_pair_count(self):
        with pytest.raises(DomainError):
            pair_audit(SamplerConfig(0, 100, ConstructionParams(2)))

    def test_report_shape(self):
        rep = pair_audit(SamplerConfig(5, 10_000, ConstructionParams(2)))
        assert isinstance(rep, AuditReport)
        assert rep.pairs_tested == 10_000
        assert rep.seed == 5


def direct_audit(cfg, accept):
    """The audit of cfg computed directly: the same chunk streams and
    proposal blocks, accept(params, block) giving each block's accepted
    rows, and every pair x, y checked both ways, |x - y| and |x + y|, on
    whole chunks at once.  Witnesses follow the audit's order: per block,
    the points outside T, then the same and then the cross pairs the
    block completes."""
    params = cfg.params
    violations, witnesses, extremes = 0, [], []
    chunk_rows = CHUNK_ELEMENTS // params.n
    for i, start in enumerate(range(0, cfg.sample_count, chunk_rows)):
        rows = min(chunk_rows, cfg.sample_count - start)
        rng = _chunk_rng(cfg.seed, _AUDIT_STREAM, i)
        blocks, filled = [], 0
        while filled < 2 * rows:
            m = min(max(2 * rows - filled, 2048), chunk_rows)
            y = ball_points(params.n, rng, m, 0.5)
            y[:, 0] += params.a
            blocks.append(accept(params, y)[: 2 * rows - filled])
            filled += blocks[-1].shape[0]
        points = np.concatenate(blocks)
        outside = component(params, points) != 1
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))
        x, y = points[0::2], points[1::2]
        same = np.sqrt(np.einsum("ij,ij->i", x - y, x - y))
        cross = np.sqrt(np.einsum("ij,ij->i", x + y, x + y))
        violations += int(np.count_nonzero(outside) + np.count_nonzero(same >= 1.0)
                          + np.count_nonzero(cross <= 1.0))
        start = 0
        for end in np.cumsum([block.shape[0] for block in blocks]):
            pairs = range(start // 2, end // 2)
            found = [(tuple(points[j]), (), "outside", float(norms[j]))
                     for j in range(start, end) if outside[j]]
            found += [(tuple(x[j]), tuple(y[j]), "same_component", float(same[j]))
                      for j in pairs if same[j] >= 1.0]
            found += [(tuple(x[j]), tuple(-y[j]), "cross_component", float(cross[j]))
                      for j in pairs if cross[j] <= 1.0]
            witnesses += found[: 10 - len(witnesses)]
            start = end
        extremes.append((cross.min(), same.max()))
    return AuditReport(cfg.sample_count, violations, min(lo for lo, _ in extremes),
                       max(hi for _, hi in extremes), cfg.seed, tuple(witnesses))


def accept_in_T(params, block):
    return block[component(params, block) == 1]


class TestViolationPath:
    def test_matches_direct_computation(self, monkeypatch):
        # Accept every proposal of B(a e_1, 1/2) but the first of each
        # block, and move the last one out to x_1 = 10.  Blocks of even size
        # then accept odd counts, so that point is carried and paired with
        # the first point of the next block; it is outside S, and
        # same-component pairs holding it are violations too.
        propose = sampling._propose

        def accept_all_but_first(params, rng, s, m):
            keep = propose(params, rng, s, m)
            keep[:] = True
            keep[0] = False
            s.points[m - 1, 0] = 10.0
            return keep

        def reference(params, block):
            block[-1, 0] = 10.0
            return block[1:]

        monkeypatch.setattr(sampling, "_propose", accept_all_but_first)
        use_workers(monkeypatch, 3)
        cfg = SamplerConfig(2, 20_000, ConstructionParams(256))  # ten chunks
        rep = pair_audit(cfg)
        assert rep.max_same_distance > 8.0
        assert {tag for _, _, tag, _ in rep.violating_pairs} == {"outside", "same_component"}
        assert rep.violations > 0
        assert rep == direct_audit(cfg, reference)

    def test_pair_checked_both_ways(self, monkeypatch):
        # The second point of the first pair becomes -x: |x - y| = 2|x| >= 1
        # and |x + y| = 0, so the pair fails both ways, and -x is outside T.
        blocks = sampling._T_blocks

        def mirrored(params, rng, count, s):
            for k, (idx, rate) in enumerate(blocks(params, rng, count, s)):
                if k == 0:
                    s.points[idx[1]] = -s.points[idx[0]]
                yield idx, rate

        monkeypatch.setattr(sampling, "_T_blocks", mirrored)
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
        blocks = sampling._T_blocks

        def shifted(params, rng, count, s):
            for idx, rate in blocks(params, rng, count, s):
                yield idx + 1, rate

        monkeypatch.setattr(sampling, "_T_blocks", shifted)
        p = ConstructionParams(2)
        rep = pair_audit(SamplerConfig(0, 10_000, p))
        assert rep.violations > 0
        outside = [(x, y, dist) for x, y, tag, dist in rep.violating_pairs if tag == "outside"]
        assert outside
        for x, y, dist in outside:
            assert component(p, x) == 0 and y == ()
            assert dist == pytest.approx(np.linalg.norm(x), rel=1e-15)


class TestInnerApproximationAudit:
    def test_tightened_set_distances_and_containment(self):
        p = ConstructionParams(2)
        eps = 1e-3
        pts, _ = draw_T(p, rng_for(6), 40_000)
        inner_pts = pts[component(p, pts, eps) != 0]
        assert inner_pts.shape[0] > 1000
        assert np.all(component(p, inner_pts) == 1)
        half = inner_pts.shape[0] // 2
        x, y = inner_pts[:half], inner_pts[half : 2 * half]
        assert np.all(np.linalg.norm(x - y, axis=1) < 1.0)
        assert np.all(np.linalg.norm(x + y, axis=1) > 1.0)
