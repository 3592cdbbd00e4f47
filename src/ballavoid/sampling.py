"""Seeded Monte Carlo: ball sampling, rejection sampling in T, volume
estimation, and randomized audits of the distance-avoidance property.

``sample_unit_ball`` and ``sample_T`` are the n-coordinate reference,
written as their definitions: a uniform point of the unit ball is a
Gaussian direction from numpy's ziggurat generator
(``Generator.standard_normal``) on PCG64 bit streams, scaled by a power
of a uniform variate, and a point of T is such a point halved and
shifted by a e_1 that ``component`` puts in T.

The audit and the volume estimate draw in reduced coordinates instead,
at a cost per point and per pair that does not depend on n.  T is
symmetric about the e_1 axis, and membership depends only on x_1 and
|x|^2; a pair x, y spans at most three dimensions together with e_1.  So
each point of B(a e_1, 1/2) is drawn as x_1 and rho = |x - x_1 e_1| from
four one-dimensional variates (see _propose), and each pair as the
3-vectors x = (x_1, rho_x, 0) and y = (y_1, rho_y cos phi, rho_y sin phi)
(see _pair_points); the other n - 3 coordinates are zero.  The audit
stores a chunk as the first two coordinates of its points and the third
of its y's, and forms squared distances row by row in the proposal
block's buffers, which are free by then.

They draw in chunks of CHUNK_ROWS rows (pairs in the audit, proposals in
the volume estimate) and fold each chunk into running totals, so memory
stays bounded at every pair count and dimension.  Chunk i draws from its
own generator, seeded by the i-th child of
``SeedSequence(seed, spawn_key=(stream,))``, so the audit (stream 0) and
the volume estimate (stream 1) share no bits.  The audit checks each pair
x, y of points of T it draws both ways: |x - y| within a component of
S = T u -T and |x + y| across.

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
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .construction import ConstructionParams, _in_T_mask, component
from .errors import DomainError, NumericError, checked_dimension
from .specfun import LogValue

# Rows of a chunk (pairs in the audit, proposals in the volume estimate),
# and the most proposals in one of the audit's rejection blocks.
CHUNK_ROWS = 2**16

# Element budget of one of sample_T's proposal blocks: max(1, this // n)
# points of n coordinates.
_T_BLOCK_ELEMENTS = 2**19

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
        seed, count = self.seed, self.sample_count  # an int or numpy integer, not a bool
        if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if isinstance(count, bool) or not (isinstance(count, (int, np.integer)) and count > 0):
            raise DomainError(f"sample_count must be positive, got {count!r}")


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
class AcceptanceEstimate:
    """Counts of the Monte Carlo volume estimate: `hits` of `proposals`
    uniform points of B(a e_1, 1/2) in dimension n land in T.  The ratio
    vol S / vol B = 2 (1/2)^n q, q = hits / proposals, derives from them."""

    n: int
    hits: int
    proposals: int

    @property
    def log_value(self) -> LogValue:
        """Natural log of the estimated ratio, 2 (1/2)^n q."""
        return LogValue(math.log(self.hits / self.proposals) + (1 - self.n) * math.log(2.0))

    def log_interval(self, z: float) -> tuple[float, float]:
        """Natural-log bounds of the ratio from the Wilson score interval
        for q at z standard deviations; unlike the plain binomial interval
        it keeps a nonzero width when every proposal lands in T."""
        lo, hi = _wilson_interval(self.hits, self.proposals, z)
        shift = (1 - self.n) * math.log(2.0)
        return (math.log(lo) + shift if lo > 0.0 else -math.inf), math.log(hi) + shift

    def half_width(self, z: float) -> float:
        """Linear half-width of the ratio's Wilson score interval at z standard
        deviations: 2 (1/2)^n max(hi - q, q - lo), 0 where that underflows."""
        q = self.hits / self.proposals
        lo, hi = _wilson_interval(self.hits, self.proposals, z)
        return math.ldexp(max(hi - q, q - lo), 1 - self.n)


def _wilson_interval(hits: int, trials: int, z: float) -> tuple[float, float]:
    p = hits / trials
    z2n = z * z / trials
    center = (p + 0.5 * z2n) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials)
    return max(0.0, center - half), min(1.0, center + half)


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
    """One worker's buffers, reused for every chunk it runs: a proposal
    block of up to CHUNK_ROWS points in reduced coordinates with its work
    arrays and, for the audit, the first two coordinates of a chunk's
    points (x's, then y's) and the third coordinate of its y's.  The x's
    third coordinate is zero and is not stored."""

    def __init__(self, audit: bool = False):
        rows = CHUNK_ROWS
        self.x1 = np.empty(rows)
        self.rho = np.empty(rows)
        self.u = np.empty(rows)
        self.sq = np.empty(rows)
        self.keep = np.empty(rows, dtype=bool)
        self.test = np.empty(rows, dtype=bool)
        if audit:
            self.points = np.empty((2, 2 * rows))
            self.y3 = np.empty(rows)


def sample_unit_ball(n: int, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform points in the open unit n-ball: normalized Gaussian direction
    scaled by U^(1/n).  Returns shape (count, n)."""
    n, count = checked_dimension(n, 1), checked_dimension(count, 0, "count")
    g = rng.standard_normal((count, n))
    sq = np.einsum("ij,ij->i", g, g)
    while not sq.all():  # measure-zero; resample degenerate rows
        bad = sq == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), n))
        sq = np.einsum("ij,ij->i", g, g)
    return g * (rng.random(count) ** (1.0 / n) / np.sqrt(sq))[:, None]


def _T_blocks(
    params: ConstructionParams, count: int, rows: int, propose: Callable[[int], np.ndarray]
) -> Iterator[tuple[np.ndarray, float]]:
    """Draw `count` points of T by rejection, in blocks of
    min(max(still needed, 2048), rows) proposals; propose(m) draws a block
    of m and returns the mask of those in T.  For each block, yield the
    indices of its accepted proposals still needed, and the acceptance
    rate so far, which counts every hit over every proposal, including
    surplus hits that the last block draws."""
    filled = hits = proposed = 0
    while filled < count:
        m = min(max(count - filled, 2048), rows)
        idx = np.flatnonzero(propose(m))
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
        del idx  # free before the next block is drawn


def sample_T(
    params: ConstructionParams, rng: np.random.Generator, count: int = 1
) -> tuple[np.ndarray, float]:
    """Uniform points in T by rejection from the small ball centered at
    a*e_1; returns (points of shape (count, n), acceptance rate).  The rate
    counts every hit over every proposal, including surplus hits that the
    last block draws beyond `count`."""
    count = checked_dimension(count, 0, "count")
    y = None

    def propose(m):
        nonlocal y
        y = 0.5 * sample_unit_ball(params.n, rng, m)
        y[:, 0] += params.a
        return component(params, y) == 1

    points = np.empty((count, params.n))
    filled = 0
    rate = 0.0
    for idx, rate in _T_blocks(params, count, max(1, _T_BLOCK_ELEMENTS // params.n), propose):
        points[filled : filled + idx.size] = y[idx]
        filled += idx.size
    return points, rate


def _propose(params: ConstructionParams, rng: np.random.Generator, s: _Buffers, m: int):
    """Overwrite s.x1[:m] and s.rho[:m] with x_1 and rho = |x - x_1 e_1|
    of m uniform points x of B(a e_1, 1/2); return the mask of those in T.

    The first n coordinates of a uniform point of the sphere S^(n+1) are
    uniform in the unit n-ball.  Split a standard Gaussian vector G of
    R^(n+2) into its first coordinate g ~ N(0, 1), the next n - 1 and the
    last two: their squared norms are 2SW and 2S(1 - W), independent of g,
    where S ~ Gamma((n+1)/2) and W ~ Beta((n-1)/2, 1) = V^(2/(n-1)) for
    V ~ U(0, 1).  So x_1 = a + g/(2|G|) and rho = sqrt(2SW)/(2|G|), with
    |G|^2 = g^2 + 2S.  The Gamma shape is at least 3/2 at every n; below
    shape 1 numpy's Gamma sampler takes about twice as long per draw."""
    x1, rho, u, sq = s.x1[:m], s.rho[:m], s.u[:m], s.sq[:m]
    rng.standard_normal(out=x1)
    rng.standard_gamma((params.n + 1) / 2, out=rho)
    rng.random(out=u)
    u **= 2.0 / (params.n - 1)
    rho += rho  # 2S
    u *= rho  # 2SW
    np.multiply(x1, x1, out=sq)
    sq += rho
    np.sqrt(sq, out=sq)
    np.divide(0.5, sq, out=sq)  # 1/(2|G|)
    x1 *= sq
    x1 += params.a
    np.sqrt(u, out=rho)
    rho *= sq
    np.multiply(x1, x1, out=sq)
    sq += np.multiply(rho, rho, out=u)
    return _in_T_mask(params, x1, sq, 0.0, s.keep[:m], u, s.test[:m])


def _run_chunks(seed: int, stream: int, total: int, audit: bool, work) -> Iterator:
    """Split `total` rows into chunks of CHUNK_ROWS rows and yield
    work(size, _chunk_rng(seed, stream, i), buffers) in chunk order,
    computed on a pool of min(usable CPUs, chunks) threads that each keep
    one set of buffers.  At most two chunks per thread are submitted and
    not yet yielded.  The lowest failing chunk's exception is raised, and
    every thread is joined before this finishes or raises."""
    # Imported here, not at the top: with the logging it imports, it adds
    # 5-10 ms to a start-up, which only verify needs to pay.
    from concurrent.futures import ThreadPoolExecutor

    rows = CHUNK_ROWS
    chunks = -(-total // rows)
    workers = min(_usable_cpus(), chunks)
    local = threading.local()

    def run(i: int):
        if not hasattr(local, "buffers"):
            local.buffers = _Buffers(audit)
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
    sample_count proposals in B(a e_1, 1/2)."""
    if config.sample_count < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {config.sample_count}")
    params = config.params

    def hits_in(rows, rng, s):
        return int(np.count_nonzero(_propose(params, rng, s, rows)))

    hits = sum(_run_chunks(config.seed, _VOLUME_STREAM, config.sample_count, False, hits_in))
    if hits == 0:
        raise NumericError(
            f"no proposal of {config.sample_count} landed in T at a={params.a!r}",
            best_estimate=0.0,
        )
    return AcceptanceEstimate(params.n, hits, config.sample_count)


def _pair_points(params: ConstructionParams, rng: np.random.Generator, s: _Buffers,
                 pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `pairs` pairs x, y of uniform points of T; return the first two
    coordinates of the x's and then of the y's, as the columns of a
    (2, 2 pairs) view of s.points, and the third coordinates of the y's, a
    view of s.y3.  The x's third coordinate and all the others are zero.

    Each point comes from the rejection sampler as (x_1, rho, 0).  A
    rotation about e_1 preserves T and every distance, and turns the parts
    of x and y orthogonal to e_1 into (rho_x, 0, 0) and
    (rho_y cos phi, rho_y sin phi, 0), phi the angle between them.  cos phi
    is distributed as the first coordinate of a uniform point of S^(n-2):
    h/sqrt(h^2 + 2P) for h ~ N(0, 1) and P ~ Gamma((n-2)/2), with
    sin phi = sqrt(2P)/sqrt(h^2 + 2P).  At n = 2, P = 0 and cos phi = +-1."""
    p, y3 = s.points[:, : 2 * pairs], s.y3[:pairs]
    filled = 0
    for idx, _ in _T_blocks(params, 2 * pairs, CHUNK_ROWS, lambda m: _propose(params, rng, s, m)):
        end = filled + idx.size
        np.take(s.x1, idx, out=p[0, filled:end], mode="clip")
        np.take(s.rho, idx, out=p[1, filled:end], mode="clip")
        filled = end
        del idx  # free before the next block is drawn
    # The block's buffers are free once its points are copied out.
    rho_y = p[1, pairs:]
    h, r = s.x1[:pairs], s.sq[:pairs]
    rng.standard_normal(out=h)
    rng.standard_gamma((params.n - 2) / 2, out=y3)
    y3 += y3  # 2P
    np.multiply(h, h, out=r)
    r += y3
    while not r.all():  # measure-zero (h = 0 at n = 2); redraw those h
        bad = r == 0.0
        h[bad] = rng.standard_normal(int(bad.sum()))
        np.multiply(h, h, out=r)
        r += y3
    np.sqrt(r, out=r)
    np.sqrt(y3, out=y3)
    y3 /= r  # sin phi
    y3 *= rho_y
    h /= r  # cos phi
    rho_y *= h
    return p, y3


def _audit_chunk(params: ConstructionParams, pairs: int, rng: np.random.Generator,
                 s: _Buffers) -> tuple[int, float, float, list]:
    """Audit `pairs` pairs x, y of points of T, each both ways; return
    (violations, smallest cross and largest same squared distance, first
    witnesses).

    The same-component pairs (x, y) and (-x, -y) of S lie at |x - y|, the
    cross pairs (x, -y) and (-x, y) at |x + y|; negation is exact.  Every
    point is tested against T again in the coordinates its distances are
    computed from, so a row the sampler mislabels or misindexes, or a pair
    built wrong, is a violation.  The witnesses are the points outside T,
    then the same and then the cross pairs in violation, each in draw
    order, as zero-padded n-vectors.

    Squared norms and distances are summed coordinate by coordinate in the
    proposal block's buffers, which are free once the pairs are drawn;
    the x's third coordinate is zero and is left out of every sum."""
    n = params.n
    p, y3 = _pair_points(params, rng, s, pairs)
    sq, work, keep, test = s.sq[:pairs], s.u[:pairs], s.keep[:pairs], s.test[:pairs]
    t, d1 = s.x1[:pairs], s.rho[:pairs]
    violations = 0
    witnesses = []

    def sum_sq(coords, out):
        np.square(coords[0], out=out)
        for c in coords[1:]:
            out += np.square(c, out=t)
        return out

    def padded(point, i, sign=1.0):
        coords = tuple(float(sign * c[i]) for c in point[:n])
        return coords + (0.0,) * (n - len(coords))

    x, y = (p[0, :pairs], p[1, :pairs]), (p[0, pairs:], p[1, pairs:], y3)
    for point in (x, y):
        sum_sq(point, sq)
        inside = _in_T_mask(params, point[0], sq, 0.0, keep, work, test)
        if not inside.all():
            outside = np.flatnonzero(~inside)
            violations += outside.size
            for i in outside[: _MAX_WITNESSES - len(witnesses)]:
                witnesses.append((padded(point, i), (), "outside", math.sqrt(sq[i])))
    # (x_3 -+ y_3)^2 = y_3^2: x's third coordinate is zero.
    same = sum_sq((np.subtract(x[0], y[0], out=sq), np.subtract(x[1], y[1], out=d1), y3), sq)
    cross = sum_sq((np.add(x[0], y[0], out=work), np.add(x[1], y[1], out=d1), y3), work)
    hi, lo = float(same.max(initial=0.0)), float(cross.min(initial=math.inf))
    if math.sqrt(hi) >= 1.0 or math.sqrt(lo) <= 1.0:
        same, cross = np.sqrt(same), np.sqrt(cross)
        for tag, dist, bad, sign in (("same_component", same, same >= 1.0, 1.0),
                                     ("cross_component", cross, cross <= 1.0, -1.0)):
            bad = np.flatnonzero(bad)
            violations += bad.size
            for i in bad[: _MAX_WITNESSES - len(witnesses)]:
                witnesses.append((padded(x, i), padded(y, i, sign), tag, float(dist[i])))
    return violations, lo, hi, witnesses


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
    chunks = _run_chunks(config.seed, _AUDIT_STREAM, config.sample_count, True,
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
