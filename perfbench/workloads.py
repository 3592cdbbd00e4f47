"""Seeded op streams for the three workloads.

An op is one argv list for ``ballavoid.cli.main``.  A workload is an
endless stream of blocks.  Every block holds the same mix of op kinds in
a seeded order, so any run of whole blocks has the same composition and
the per-run quantiles do not depend on which kinds the seed happened to
favour.  Continuous parameters (table size, dimension) follow a
golden-ratio sequence from a seeded start, which spreads them evenly
over their range in every prefix of the stream.

Probes are a short seeded list of ops at the edge of the documented
range where the program is known to fail today.  They run after the
timed loop, outside every timing, so a known defect is reported without
a failing op inside the measured mix.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("audit", "certify", "quadrature")

# What one successful op of each workload contributes to work_per_s.
WORK_UNIT = {
    "audit": "pairs plus samples audited",
    "certify": "dimensions given a verdict",
    "quadrature": "dimensions evaluated",
}

FIGURE_OUT = "perfbench/_runs/figure.svg"

# verify's Monte Carlo check is a 3-sigma test, so each distinct
# (n, seed) op has a 0.27 % chance of a false alarm.  A small fixed pool
# of verify seeds keeps the set of distinct ops small enough to check
# once by hand at the baseline.
VERIFY_SEEDS = range(4)

# Dimensions where the seed's quadrature route converges: every n in
# 2..522 does, and almost every n in 523..10000 exhausts its panel budget.
QUADRATURE_OK_MAX = 522

# ratio ops per certify block.  A ratio op takes about 2.5 ms at any n;
# optimize-a takes about 4 ms for n <= 8 and 5 ms above, figure about
# 3 ms.  With 20 of the 26 ops a ratio, the median op of any run of whole
# blocks is a ratio op (near their 65th percentile), not an op on the
# edge between two modes of optimize-a.
CERTIFY_RATIOS = 20

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Spread:
    """Low-discrepancy points in [0, 1) from a seeded start."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def next(self) -> float:
        self.u = (self.u + _GOLDEN) % 1.0
        return self.u


def _log_int(u: float, lo: int, hi: int) -> int:
    """Integer at fraction u of the log-spaced range [lo, hi]."""
    value = round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return min(hi, max(lo, value))


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _verify(n: int, seed: int, size: int | None = None) -> list[str]:
    argv = ["verify", "--n", str(n), "--seed", str(seed), "--format", "json"]
    if size is not None:
        argv[3:3] = ["--pairs", str(size), "--samples", str(size)]
    return argv


def _quadrature(n: int) -> list[str]:
    return ["ratio", "--method", "quadrature", "--n", str(n), "--format", "json"]


def blocks(workload: str, seed: int):
    """Endless generator of op blocks (lists of argv lists)."""
    rng = _rng(workload, seed, "ops")
    if workload == "audit":
        # verify at the CLI defaults of 1e6 pairs and 1e6 samples.  A run
        # holds only a few blocks, so n = 5 fills 4 of the 7 slots: both
        # the median and the op with 10 ops beyond it then fall among the
        # n = 5 ops for any run of 3 to 10 blocks.
        while True:
            block = [_verify(n, rng.choice(VERIFY_SEEDS)) for n in (2, 3, 5, 5, 5, 5, 8)]
            rng.shuffle(block)
            yield block
    elif workload == "certify":
        table, ratio, optimize = _Spread(rng), _Spread(rng), _Spread(rng)
        while True:
            block = [
                ["table", "--max-n", str(64 + int(table.next() * 9937)), "--format", "json"],
                ["table", "--max-n", str(64 + int(table.next() * 9937)), "--format", "json"],
                *(["ratio", "--n", str(_log_int(ratio.next(), 2, 10000)), "--format", "json"]
                  for _ in range(CERTIFY_RATIOS)),
                # optimize-a meets its 1e-7 check only up to n = 75 (see probes).
                ["optimize-a", "--n", str(_log_int(optimize.next(), 2, 64)), "--format", "json"],
                ["threshold", "--format", "json"],
                ["concentration-check", "--format", "json"],
                ["figure", "--out", FIGURE_OUT],
            ]
            rng.shuffle(block)
            yield block
    elif workload == "quadrature":
        dims = _Spread(rng)
        while True:
            yield [_quadrature(_log_int(dims.next(), 2, QUADRATURE_OK_MAX)) for _ in range(8)]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def probes(workload: str, seed: int) -> list[list[str]]:
    """Seeded ops at the known-failing edge of the documented range."""
    rng = _rng(workload, seed, "probes")
    strata = [(k + rng.random()) / 4.0 for k in range(4)]
    if workload == "audit":
        # mc_volume_ratio gets no hits at high n and dies in math.log(0).
        return [_verify(_log_int(u, 32, 256), rng.choice(VERIFY_SEEDS), 10**4) for u in strata]
    if workload == "certify":
        # The golden-section optimizer misses its 1e-7 check for most n >= 76.
        return [["optimize-a", "--n", str(_log_int(u, 76, 200)), "--format", "json"]
                for u in strata[::2]]
    if workload == "quadrature":
        # Most n >= 523 exhaust the 4096-panel budget and exit 1.
        return [_quadrature(_log_int(u, QUADRATURE_OK_MAX + 1, 10000)) for u in strata]
    raise ValueError(f"unknown workload {workload!r}")


def ops_sha256(ops: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()
