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
three uniform variates (see _propose), and each pair as the 3-vectors
x = (x_1, rho_x, 0) and y = (y_1, rho_y cos phi, rho_y sin phi), cos phi
from one or two more (see _pair_points); the other n - 3 coordinates are
zero.  The audit keeps the pairs' points by a rejection loop of its own
over blocks of these proposals, which shares with ``sample_T``'s only the
definition of T and the rule that gives up below 1e-4 acceptance.  These
kernels take only ``Generator.random``: Ulrich's transform (G. Ulrich,
Applied Statistics 33 (1984) 158-163) draws a coordinate of a uniform
point of a sphere from two uniforms, a power and a cosine, so the
reference's Gaussian construction stays an independent check of them.
Each cosine cos(2 pi V) is taken by an exact fold of V to a tangent on
[0, pi/4] (see _cos_2pi); no array sine or cosine is called.
The audit stores a chunk as the first two coordinates of its points and
the third of its y's, and forms squared distances row by row in the
proposal block's buffers, which are free by then.

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
import numbers
import os
import threading
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
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
        seed, count = self.seed, self.sample_count  # integers as checked_dimension takes them
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count > 0):
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
    arrays.  _pair_points adds the audit's point arrays on a worker's
    first audit chunk."""

    def __init__(self):
        rows = CHUNK_ROWS
        self.x1 = np.empty(rows)
        self.rho = np.empty(rows)
        self.u = np.empty(rows)
        self.sq = np.empty(rows)
        self.keep = np.empty(rows, dtype=bool)
        self.test = np.empty(rows, dtype=bool)


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


def _check_acceptance(params: ConstructionParams, hits: int, proposed: int) -> None:
    """Give up on rejection once >= 2048 proposals have < 1e-4 hits in T."""
    if proposed >= 2048 and hits / proposed < 1e-4:
        raise NumericError(
            f"rejection acceptance rate below 1e-4 at a={params.a!r}; offset is pathological",
            best_estimate=hits / proposed,
        )


def sample_T(params: ConstructionParams, rng: np.random.Generator,
             count: int = 1) -> tuple[np.ndarray, float]:
    """Uniform points in T by rejection from blocks of min(max(still needed,
    2048), max(1, _T_BLOCK_ELEMENTS // n)) points 0.5 sample_unit_ball + a e_1,
    kept in draw order where component() puts them in T.  Returns (points
    of shape (count, n), acceptance rate); the rate counts every hit over
    every proposal, including surplus hits that the last block draws."""
    count = checked_dimension(count, 0, "count")
    points = np.empty((count, params.n))
    filled = hits = proposed = 0
    while filled < count:
        m = min(max(count - filled, 2048), max(1, _T_BLOCK_ELEMENTS // params.n))
        y = 0.5 * sample_unit_ball(params.n, rng, m)
        y[:, 0] += params.a
        inside = np.flatnonzero(component(params, y) == 1)
        hits, proposed = hits + inside.size, proposed + m
        _check_acceptance(params, hits, proposed)
        inside = inside[: count - filled]
        points[filled : filled + inside.size] = y[inside]
        filled += inside.size
    return points, hits / proposed if proposed else 0.0


def _cos_2pi(v: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Overwrite uniforms v in [0, 1) with cos(2 pi v) and return v; work,
    of v's shape, is scratch.

    For such v, f = |v - 1/2| - 1/4 and g = 1/4 - |f| are exact on the
    2^-53 grid (Sterbenz, or the result needs at most 52 bits), and
    cos(2 pi v) = sin(2 pi f) = copysign(cos(2 pi g), f) with
    cos(2 pi g) = 2/(1 + tan^2(pi g)) - 1 and pi g in [0, pi/4], where
    numpy's tangent is short and accurate and, on AVX-512 hosts, an SVML
    loop several times faster than its sine.  g <= 1/4, and the tangent
    and every operation after it are monotone in g there, so the result's
    magnitude is at least its value at g = 1/4: there tan(fl(pi/4)) =
    1 - 2^-53, and rounding gives 2/(1 + tan^2) - 1 = 2^-52, so it is
    never 0."""
    v -= 0.5
    np.abs(v, out=v)
    v -= 0.25  # f
    np.abs(v, out=work)
    np.subtract(0.25, work, out=work)  # g
    work *= math.pi
    np.tan(work, out=work)
    np.multiply(work, work, out=work)
    work += 1.0
    np.divide(2.0, work, out=work)
    work -= 1.0
    return np.copysign(work, v, out=v)


def _propose(params: ConstructionParams, rng: np.random.Generator, s: _Buffers, m: int):
    """Overwrite s.x1[:m] and s.rho[:m] with x_1 and rho = |x - x_1 e_1|
    of m uniform points x of B(a e_1, 1/2); return the mask of those in T.

    The first n coordinates of a uniform point of the sphere S^(n+1) are
    uniform in the unit n-ball.  Its first and last coordinates lie at a
    squared distance 1 - U^(2/n) from the center of their plane, in a
    uniform direction, so the first is t = sqrt(1 - U^(2/n)) cos(2 pi V)
    (Ulrich's transform), and given t the next n - 1 coordinates hold the
    fraction W = Z^(2/(n-1)) ~ Beta((n-1)/2, 1) of the remaining 1 - t^2,
    for independent U, V, Z ~ U(0, 1), drawn in that order.  So
    x_1 = a + t/2 and rho = sqrt((1 - t^2) W)/2.  The cosine is _cos_2pi's,
    with s.sq[:m] as its scratch."""
    n = params.n
    x1, rho, u, sq = s.x1[:m], s.rho[:m], s.u[:m], s.sq[:m]
    rng.random(out=x1)
    x1 **= 2.0 / n
    np.subtract(1.0, x1, out=x1)
    np.sqrt(x1, out=x1)
    rng.random(out=rho)
    x1 *= _cos_2pi(rho, sq)  # t
    rng.random(out=u)
    u **= 2.0 / (n - 1)  # W
    np.multiply(x1, x1, out=sq)
    np.subtract(1.0, sq, out=sq)
    sq *= u
    np.sqrt(sq, out=rho)
    rho *= 0.5
    x1 *= 0.5
    x1 += params.a
    np.multiply(x1, x1, out=sq)
    sq += np.multiply(rho, rho, out=u)
    return _in_T_mask(params, x1, sq, s.keep[:m], u, s.test[:m])


def _run_chunks(seed: int, stream: int, total: int, work) -> Iterator:
    """Split `total` rows into chunks of CHUNK_ROWS rows and yield
    work(size, _chunk_rng(seed, stream, i), buffers) in chunk order,
    computed on a pool of min(usable CPUs, chunks) threads that each keep
    one _Buffers.  At most two chunks per thread are submitted and
    not yet yielded.  The lowest failing chunk's exception is raised, and
    every thread is joined before this finishes or raises."""
    rows = CHUNK_ROWS
    chunks = -(-total // rows)
    workers = min(_usable_cpus(), chunks)
    local = threading.local()

    def run(i: int):
        if not hasattr(local, "buffers"):
            local.buffers = _Buffers()
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

    hits = sum(_run_chunks(config.seed, _VOLUME_STREAM, config.sample_count, hits_in))
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
    view of s.y3; both are allocated, for CHUNK_ROWS pairs, on a worker's
    first call, so the volume estimate's workers never hold them.  The
    x's third coordinate and all the others are zero.

    Points are kept by rejection from blocks of min(max(still needed,
    2048), CHUNK_ROWS) proposals of _propose, in draw order, as
    (x_1, rho, 0).  A rotation about e_1 preserves T and every distance,
    and turns the parts of x and y orthogonal to e_1 into (rho_x, 0, 0) and
    (rho_y cos phi, rho_y sin phi, 0), phi the angle between them.  cos phi
    is distributed as the first coordinate of a uniform point of S^(n-2),
    which Ulrich's transform draws from V and then U ~ U(0, 1) as
    sqrt(1 - U^(2/(n-3))) cos(2 pi V) for n >= 4, as cos(2 pi V) on the
    circle at n = 3, and as its sign, +-1, at n = 2; _cos_2pi, with the
    free s.rho[:pairs] as scratch, never returns 0.
    sin phi = sqrt(1 - cos^2 phi) >= 0, which is 0 at n = 2.  cos phi is
    left in s.x1[:pairs]."""
    n = params.n
    if not hasattr(s, "points"):
        s.points, s.y3 = np.empty((2, 2 * CHUNK_ROWS)), np.empty(CHUNK_ROWS)
    p, y3 = s.points[:, : 2 * pairs], s.y3[:pairs]
    filled = hits = proposed = 0
    while filled < 2 * pairs:
        m = min(max(2 * pairs - filled, 2048), CHUNK_ROWS)
        idx = np.flatnonzero(_propose(params, rng, s, m))
        hits, proposed = hits + idx.size, proposed + m
        _check_acceptance(params, hits, proposed)
        idx = idx[: 2 * pairs - filled]
        end = filled + idx.size
        np.take(s.x1, idx, out=p[0, filled:end], mode="clip")
        np.take(s.rho, idx, out=p[1, filled:end], mode="clip")
        filled = end
        del idx  # free before the next block is drawn
    # The block's buffers are free once its points are copied out.
    rho_y = p[1, pairs:]
    cos_phi = s.x1[:pairs]
    rng.random(out=cos_phi)
    _cos_2pi(cos_phi, s.rho[:pairs])
    if n == 2:
        np.sign(cos_phi, out=cos_phi)
    elif n > 3:
        r = s.sq[:pairs]
        rng.random(out=r)
        r **= 2.0 / (n - 3)
        np.subtract(1.0, r, out=r)
        np.sqrt(r, out=r)
        cos_phi *= r
    np.multiply(cos_phi, cos_phi, out=y3)
    np.subtract(1.0, y3, out=y3)
    np.sqrt(y3, out=y3)  # sin phi
    y3 *= rho_y
    rho_y *= cos_phi
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
        inside = _in_T_mask(params, point[0], sq, keep, work, test)
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
    chunks = _run_chunks(config.seed, _AUDIT_STREAM, config.sample_count,
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
        violating_pairs=tuple(witnesses),
    )
