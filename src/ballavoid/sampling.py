"""Seeded Monte Carlo: ball sampling, rejection sampling in T, volume
estimation, and randomized audits of the distance-avoidance property.

Gaussian variates come from numpy's ziggurat generator
(``Generator.standard_normal``) on PCG64 bit streams.  The audit and the
volume estimate draw their points in chunks of max(1, CHUNK_ELEMENTS // n)
rows and fold each chunk into running totals, so memory stays bounded at
every pair count and dimension.  Chunk i draws from its own generator,
seeded by the i-th child of ``SeedSequence(seed, spawn_key=(stream,))``,
so the result does not depend on the order in which chunks run, and the
audit (stream 0) and the volume estimate (stream 1) share no bits.
Identical configuration gives a bit-identical result.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .construction import ConstructionParams
from .errors import DomainError, NumericError
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
    """Aggregate of a pair audit; violations must be zero for the theorem
    to stand (a same-component pair at distance >= 1 or a cross pair at
    distance <= 1 counts as a violation, never dropped)."""

    pairs_tested: int
    violations: int
    min_cross_distance: float
    max_same_distance: float
    seed: int
    # Full-precision witnesses (x, y, tag, distance) for any violations,
    # capped at 10; empty on every healthy run.
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


def _sq_norms(v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", v, v)


def _chunk_rows(n: int) -> int:
    return max(1, CHUNK_ELEMENTS // n)


def _chunks(
    seed: int, stream: int, total: int, n: int
) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield (size, generator) for each chunk of `total` rows of dimension
    n; chunk i draws from the i-th child of the seed's `stream`."""
    rows = _chunk_rows(n)
    root = np.random.SeedSequence(seed, spawn_key=(stream,))
    children = root.spawn(-(-total // rows))
    for i, child in enumerate(children):
        yield min(rows, total - i * rows), np.random.Generator(np.random.PCG64(child))


def sample_unit_ball(n: int, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform points in the open unit n-ball: normalized Gaussian direction
    scaled by U^(1/n).  Returns shape (count, n)."""
    if not n >= 1:
        raise DomainError(f"dimension must be >= 1, got {n!r}")
    g = rng.standard_normal((count, n))
    sq = _sq_norms(g)
    while np.any(sq == 0.0):  # measure-zero; resample degenerate rows
        bad = sq == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), n))
        sq = _sq_norms(g)
    g *= (rng.random(count) ** (1.0 / n) / np.sqrt(sq))[:, None]
    return g


def _propose(params: ConstructionParams, rng: np.random.Generator, count: int):
    """`count` uniform points of B(a e_1, 1/2) and the mask of those in T."""
    y = sample_unit_ball(params.n, rng, count)
    y *= 0.5
    y[:, 0] += params.a
    return y, (y[:, 0] > params.threshold) & (_sq_norms(y) < 1.0)


def sample_T(
    params: ConstructionParams, rng: np.random.Generator, count: int = 1
) -> tuple[np.ndarray, float]:
    """Uniform points in T by rejection from the small ball centered at
    a*e_1; returns (points of shape (count, n), acceptance rate).  The rate
    counts every hit over every proposal, including surplus hits that the
    last block draws beyond `count`."""
    accepted = np.empty((count, params.n))
    filled = hits = proposed = 0
    rows = _chunk_rows(params.n)
    while filled < count:
        m = min(max(count - filled, 2048), rows)
        y, keep = _propose(params, rng, m)
        proposed += m
        block = y[keep]
        hits += block.shape[0]
        if proposed >= 2048 and hits / proposed < 1e-4:
            raise NumericError(
                f"rejection acceptance rate below 1e-4 at a={params.a!r}; offset is pathological"
            )
        take = min(count - filled, block.shape[0])
        accepted[filled : filled + take] = block[:take]
        filled += take
    return accepted, hits / proposed


def mc_volume_ratio(config: SamplerConfig) -> AcceptanceEstimate:
    """Monte Carlo estimate of vol S / vol B from the acceptance fraction of
    sample_count proposals in B(a e_1, 1/2); error_bound is the 99% Wilson
    CI half-width on the linear scale."""
    if config.sample_count < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {config.sample_count}")
    params = config.params
    hits = 0
    for rows, rng in _chunks(config.seed, _VOLUME_STREAM, config.sample_count, params.n):
        hits += int(np.count_nonzero(_propose(params, rng, rows)[1]))
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


def pair_audit(config: SamplerConfig) -> AuditReport:
    """Draw pairs of points in S (each independently in T or -T with
    probability 1/2) and audit the distance-avoidance theorem."""
    if config.sample_count < 10**4:
        raise DomainError(f"need at least 1e4 pairs, got {config.sample_count}")
    violations = 0
    min_cross = math.inf
    max_same = 0.0
    witnesses = []
    for rows, rng in _chunks(config.seed, _AUDIT_STREAM, config.sample_count, config.params.n):
        signs = np.where(rng.random(2 * rows) < 0.5, 1.0, -1.0)
        points, _ = sample_T(config.params, rng, 2 * rows)
        points *= signs[:, None]
        x, y = points[0::2], points[1::2]
        same = signs[0::2] == signs[1::2]
        dist = np.sqrt(_sq_norms(x - y))
        min_cross = float(np.min(dist, where=~same, initial=min_cross))
        max_same = float(np.max(dist, where=same, initial=max_same))
        bad = (same & (dist >= 1.0)) | (~same & (dist <= 1.0))
        violations += int(np.count_nonzero(bad))
        for i in np.flatnonzero(bad)[: _MAX_WITNESSES - len(witnesses)]:
            witnesses.append((
                tuple(float(v) for v in x[i]),
                tuple(float(v) for v in y[i]),
                "same_component" if same[i] else "cross_component",
                float(dist[i]),
            ))
    return AuditReport(
        pairs_tested=config.sample_count,
        violations=violations,
        min_cross_distance=min_cross,
        max_same_distance=max_same,
        seed=config.seed,
        violating_pairs=tuple(witnesses),
    )
