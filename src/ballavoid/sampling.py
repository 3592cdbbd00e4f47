"""Seeded Monte Carlo: ball sampling, rejection sampling in T, volume
estimation, and randomized audits of the distance-avoidance property.

Gaussian variates come from numpy's ziggurat generator
(``Generator.standard_normal``) on PCG64 bit streams.  The audit and the
volume estimate draw their points in chunks of max(1, CHUNK_ELEMENTS // n)
rows and fold each chunk into running totals, so memory stays bounded at
every pair count and dimension.  Chunk i draws from its own generator,
seeded by the i-th child of ``SeedSequence(seed, spawn_key=(stream,))``,
so the audit (stream 0) and the volume estimate (stream 1) share no bits.
The audit checks each pair x, y of points of T it draws both ways:
|x - y| within a component of S = T u -T and |x + y| across.

Chunks run on a standard-library pool of W = min(usable CPUs, chunks)
threads, each of which keeps one set of buffers for every chunk it runs.
Chunks are submitted in order, at most 2W ahead of the one the calling
thread folds next, so memory grows with W but not with the chunk, pair
or sample count.  numpy releases the interpreter lock in the draws and
array kernels, where the time goes.  The calling thread folds the
per-chunk summaries in chunk order, so identical configuration gives a
bit-identical result for every thread count, and the lowest failing
chunk's exception is the one raised.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .construction import ConstructionParams, _in_T_mask
from .errors import DomainError, NumericError, checked_dimension
from .specfun import LogValue
from .volume import VolumeEstimate

# 99% two-sided normal quantile, for the Wilson CI half-width.
_Z99 = 2.5758293035489004

# Element budget of a chunk: rows per chunk (pairs in the audit, proposals
# in the volume estimate and in each rejection block) = max(1, this // n).
CHUNK_ELEMENTS = 2**19

# Witnesses kept in an AuditReport.
_MAX_WITNESSES = 10

# Seed-sequence stream of each seeded estimator.
_AUDIT_STREAM = 0
_VOLUME_STREAM = 1


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample count, and geometry for one reproducible run."""

    seed: int
    sample_count: int
    params: ConstructionParams

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.sample_count, (int, np.integer)) and self.sample_count > 0):
            raise DomainError(f"sample_count must be positive, got {self.sample_count!r}")


@dataclass(frozen=True)
class AuditReport:
    """Aggregate of a pair audit of `pairs_tested` pairs x, y of points of
    T, each checked both ways: as the same-component pair at |x - y| and
    as the cross pair at |x + y|.  Violations must be zero for the theorem
    to stand (a drawn point outside T, a same-component distance >= 1 or
    a cross distance <= 1 counts as a violation, never dropped)."""

    pairs_tested: int
    violations: int
    min_cross_distance: float
    max_same_distance: float
    seed: int
    # Full-precision witnesses (x, y, tag, distance) for any violations,
    # capped at 10; empty on every healthy run.  A cross witness is
    # (x, -y).  An "outside" witness is a drawn point not in T: y is empty
    # and distance is |x|.
    violating_pairs: tuple = ()


@dataclass(frozen=True)
class AcceptanceEstimate(VolumeEstimate):
    """Monte Carlo vol S / vol B = 2 (1/2)^n q, where q is the fraction of
    `proposals` uniform points of B(a e_1, 1/2) that land in T."""

    n: int
    hits: int
    proposals: int

    def log_interval(self, z: float) -> tuple[float, float]:
        """Natural-log bounds of the ratio from the Wilson score interval
        for q at z standard deviations; unlike the plain binomial interval
        it keeps a nonzero width when every proposal lands in T."""
        lo, hi = _wilson_interval(self.hits, self.proposals, z)
        shift = (1 - self.n) * math.log(2.0)
        return (math.log(lo) + shift if lo > 0.0 else -math.inf), math.log(hi) + shift


def _wilson_interval(hits: int, trials: int, z: float) -> tuple[float, float]:
    p = hits / trials
    z2n = z * z / trials
    center = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials)
    return max(0.0, center - half), min(1.0, center + half)


def _sq_norms(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", v, v, out=out)


def _chunk_rows(n: int) -> int:
    return max(1, CHUNK_ELEMENTS // n)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    """Generator of chunk i of a stream: the i-th child of
    SeedSequence(seed, spawn_key=(stream,)), built without its siblings."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream, i))))


class _Buffers:
    """One worker's buffers, reused for every chunk it runs: proposal
    blocks of up to `rows` points of dimension n and, for the audit, the
    accepted points of one block and the one carried from the last."""

    def __init__(self, rows: int, n: int, audit: bool = False):
        self.points = np.empty((rows, n))
        self.u = np.empty(rows)
        self.sq = np.empty(rows)
        self.keep = np.empty(rows, dtype=bool)
        self.test = np.empty(rows, dtype=bool)
        if audit:
            self.accepted = np.empty((rows + 1, n))


def _fill_ball(rng: np.random.Generator, g: np.ndarray, u: np.ndarray, sq: np.ndarray,
               radius: float) -> None:
    """Overwrite g (m rows) with uniform points of the open n-ball of the
    given radius about 0: normalized Gaussian direction scaled by
    radius * U^(1/n).  u and sq are m-row work arrays.  A power-of-two
    radius scales exactly, so it commutes with the rounding of the
    product."""
    n = g.shape[1]
    rng.standard_normal(out=g)
    _sq_norms(g, sq)
    while not sq.all():  # measure-zero; resample degenerate rows
        bad = sq == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), n))
        _sq_norms(g, sq)
    rng.random(out=u)
    u **= 1.0 / n
    np.sqrt(sq, out=sq)
    u /= sq
    u *= radius
    g *= u[:, None]


def sample_unit_ball(n: int, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform points in the open unit n-ball: normalized Gaussian direction
    scaled by U^(1/n).  Returns shape (count, n)."""
    n = checked_dimension(n, 1)
    g = np.empty((count, n))
    _fill_ball(rng, g, np.empty(count), np.empty(count), 1.0)
    return g


def _propose(params: ConstructionParams, rng: np.random.Generator, s: _Buffers, m: int):
    """Overwrite s.points[:m] with uniform points of B(a e_1, 1/2); return
    the mask of those in T."""
    y, sq, u = s.points[:m], s.sq[:m], s.u[:m]
    _fill_ball(rng, y, u, sq, 0.5)
    y[:, 0] += params.a
    return _in_T_mask(params, y[:, 0], _sq_norms(y, sq), 0.0, s.keep[:m], u, s.test[:m])


def _T_blocks(
    params: ConstructionParams, rng: np.random.Generator, count: int, s: _Buffers
) -> Iterator[tuple[np.ndarray, float]]:
    """Draw `count` points of T by rejection, in proposal blocks of
    min(max(still needed, 2048), chunk rows) rows.  For each block, yield
    the rows of s.points that hold its accepted points still needed, and
    the acceptance rate so far, which counts every hit over every
    proposal, including surplus hits that the last block draws."""
    filled = hits = proposed = 0
    rows = _chunk_rows(params.n)
    while filled < count:
        m = min(max(count - filled, 2048), rows)
        idx = np.flatnonzero(_propose(params, rng, s, m))
        proposed += m
        hits += idx.size
        if proposed >= 2048 and hits / proposed < 1e-4:
            raise NumericError(
                f"rejection acceptance rate below 1e-4 at a={params.a!r}; offset is pathological",
                best_estimate=hits / proposed,
            )
        idx = idx[: count - filled]
        filled += idx.size
        yield idx, hits / proposed


def sample_T(
    params: ConstructionParams, rng: np.random.Generator, count: int = 1
) -> tuple[np.ndarray, float]:
    """Uniform points in T by rejection from the small ball centered at
    a*e_1; returns (points of shape (count, n), acceptance rate).  The rate
    counts every hit over every proposal, including surplus hits that the
    last block draws beyond `count`."""
    s = _Buffers(min(max(count, 2048), _chunk_rows(params.n)), params.n)
    accepted = np.empty((count, params.n))
    filled = 0
    rate = 0.0
    for idx, rate in _T_blocks(params, rng, count, s):
        np.take(s.points, idx, axis=0, out=accepted[filled : filled + idx.size], mode="clip")
        filled += idx.size
    return accepted, rate


def _run_chunks(seed: int, stream: int, total: int, n: int, audit: bool, work) -> Iterator:
    """Split `total` rows of dimension n into chunks of _chunk_rows(n) rows
    and yield work(size, _chunk_rng(seed, stream, i), buffers) in chunk
    order, computed on a pool of min(usable CPUs, chunks) threads that
    each keep one set of buffers.  At most two chunks per thread are
    submitted and not yet yielded.  The lowest failing chunk's exception
    is raised, and every thread is joined before this finishes or raises."""
    # Imported here, not at the top: with the logging it imports, it adds
    # 5-10 ms to a start-up, which only verify needs to pay.
    from concurrent.futures import ThreadPoolExecutor

    rows = _chunk_rows(n)
    chunks = -(-total // rows)
    workers = min(_usable_cpus(), chunks)
    local = threading.local()

    def run(i: int):
        if not hasattr(local, "buffers"):
            local.buffers = _Buffers(rows, n, audit)
        return work(min(rows, total - i * rows), _chunk_rng(seed, stream, i), local.buffers)

    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for i in range(chunks):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(run, i))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def mc_volume_ratio(config: SamplerConfig) -> AcceptanceEstimate:
    """Monte Carlo estimate of vol S / vol B from the acceptance fraction of
    sample_count proposals in B(a e_1, 1/2); error_bound is the 99% Wilson
    CI half-width on the linear scale."""
    if config.sample_count < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {config.sample_count}")
    params = config.params

    def hits_in(rows, rng, s):
        return int(np.count_nonzero(_propose(params, rng, s, rows)))

    hits = sum(_run_chunks(config.seed, _VOLUME_STREAM, config.sample_count, params.n,
                           False, hits_in))
    if hits == 0:
        raise NumericError(
            f"no proposal of {config.sample_count} landed in T at a={params.a!r}",
            best_estimate=0.0,
        )
    trials = config.sample_count
    q = hits / trials
    lo, hi = _wilson_interval(hits, trials, _Z99)
    return AcceptanceEstimate(
        log_value=LogValue(math.log(q) + (1 - params.n) * math.log(2.0)),
        method="monte_carlo",
        error_bound=math.ldexp(max(hi - q, q - lo), 1 - params.n),
        n=params.n,
        hits=hits,
        proposals=trials,
    )


def _audit_chunk(params: ConstructionParams, pairs: int, rng: np.random.Generator,
                 s: _Buffers) -> tuple[int, float, float, list]:
    """Audit `pairs` pairs x, y of points of T, each both ways; return
    (violations, smallest cross and largest same squared distance, first
    witnesses).

    The same-component pairs (x, y) and (-x, -y) of S lie at |x - y|, the
    cross pairs (x, -y) and (-x, y) at |x + y|; negation is exact.
    Accepted points are copied out of each proposal block and tested
    against T again, so a row the sampler mislabels or misindexes is a
    violation.  They are paired as each block yields them, an odd one
    carried to the next block.  Per block, the witnesses are the points
    outside T, then the same and then the cross pairs in violation."""
    violations = 0
    min_cross_sq = math.inf
    max_same_sq = 0.0
    witnesses = []
    accepted = s.accepted
    carried = 0
    for idx, _ in _T_blocks(params, rng, 2 * pairs, s):
        end = carried + idx.size
        fresh, m = accepted[carried:end], idx.size
        np.take(s.points, idx, axis=0, out=fresh, mode="clip")
        inside = _in_T_mask(params, fresh[:, 0], _sq_norms(fresh, s.sq[:m]), 0.0,
                            s.keep[:m], s.u[:m], s.test[:m])
        if not inside.all():
            outside = np.flatnonzero(~inside)
            violations += outside.size
            for i in outside[: _MAX_WITNESSES - len(witnesses)]:
                witnesses.append((tuple(float(v) for v in fresh[i]), (), "outside",
                                  math.sqrt(s.sq[i])))
        # The block's own buffers are free once its points are copied out,
        # and hold the k <= (rows + 1) // 2 pairs it completes.
        k = end // 2
        x, y = accepted[0 : 2 * k : 2], accepted[1 : 2 * k : 2]
        same = _sq_norms(np.subtract(x, y, out=s.points[:k]), s.sq[:k])
        cross = _sq_norms(np.add(x, y, out=s.points[:k]), s.u[:k])
        hi, lo = float(same.max(initial=0.0)), float(cross.min(initial=math.inf))
        max_same_sq, min_cross_sq = max(max_same_sq, hi), min(min_cross_sq, lo)
        if math.sqrt(hi) >= 1.0 or math.sqrt(lo) <= 1.0:
            same, cross = np.sqrt(same), np.sqrt(cross)
            for tag, dist, bad, seen_y in (("same_component", same, same >= 1.0, y),
                                           ("cross_component", cross, cross <= 1.0, -y)):
                bad = np.flatnonzero(bad)
                violations += bad.size
                for i in bad[: _MAX_WITNESSES - len(witnesses)]:
                    witnesses.append((tuple(float(v) for v in x[i]),
                                      tuple(float(v) for v in seen_y[i]), tag, float(dist[i])))
        carried = end % 2
        if carried:
            accepted[0] = accepted[end - 1]
    return violations, min_cross_sq, max_same_sq, witnesses


def pair_audit(config: SamplerConfig) -> AuditReport:
    """Draw pairs of uniform points of T and audit the distance-avoidance
    theorem on each pair both ways: |x - y| within a component and
    |x + y| across."""
    if config.sample_count < 10**4:
        raise DomainError(f"need at least 1e4 pairs, got {config.sample_count}")
    params = config.params
    violations = 0
    min_cross_sq = math.inf
    max_same_sq = 0.0
    witnesses = []
    chunks = _run_chunks(config.seed, _AUDIT_STREAM, config.sample_count, params.n, True,
                         lambda pairs, rng, s: _audit_chunk(params, pairs, rng, s))
    for bad, lo, hi, found in chunks:
        violations += bad
        min_cross_sq = min(min_cross_sq, lo)
        max_same_sq = max(max_same_sq, hi)
        witnesses.extend(found[: _MAX_WITNESSES - len(witnesses)])
    return AuditReport(
        pairs_tested=config.sample_count,
        violations=violations,
        min_cross_distance=math.sqrt(min_cross_sq),
        max_same_distance=math.sqrt(max_same_sq),
        seed=config.seed,
        violating_pairs=tuple(witnesses),
    )
