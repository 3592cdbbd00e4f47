"""Per-op output checks.

``check`` runs in the workload process after each op, outside the timed
region, and uses only references taken before any tracing wraps the
library.  ``check_betainc`` runs in the parent process after the
workload process has exited, so importing scipy does not count towards
the workload's memory.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from ballavoid.specfun import unit_ball_volume
from ballavoid.volume import vol_T_closed_form

CANONICAL_OFFSET = (1.0 + math.sqrt(10.0)) / 6.0
LOG_TWO = math.log(2.0)

# Rows of each table op sent to the scipy check.
TABLE_SAMPLE = 3


@dataclass
class Verdict:
    """Outcome of one op: ok, failed (exit or crash) or wrong (exit 0 but
    the output is rejected); work done and rows for the scipy check."""

    outcome: str
    why: str = ""
    work: float = 0.0
    rows: list = field(default_factory=list)


def _wrong(why: str) -> Verdict:
    return Verdict("wrong", why)


def check(argv: list[str], rc, out: str, err: str) -> Verdict:
    if rc not in (0, 1, 2) or "Traceback" in out or "Traceback" in err:
        return Verdict("failed", f"crash: rc={rc!r} {err.strip().splitlines()[-1:]}")
    if rc != 0:
        return Verdict("failed", f"rc={rc}: {err.strip()[:200]}")
    try:
        return _check_output(argv, out)
    except (KeyError, TypeError, ValueError) as exc:
        return _wrong(f"output not as documented: {exc!r}")


def _check_output(argv: list[str], out: str) -> Verdict:
    command = argv[0]
    if command == "figure":
        return _check_figure(argv, out)
    doc = json.loads(out)
    if doc.get("command") != command or doc.get("pass") is not True:
        return _wrong("JSON header or pass flag wrong")
    res = doc["results"]
    if command == "verify":
        return _check_verify(doc["inputs"], res)
    if command == "table":
        return _check_table(argv, doc["inputs"], res)
    if command == "ratio":
        return _check_ratio(doc["inputs"], res)
    if command == "optimize-a":
        ok = abs(res["argmax"] - CANONICAL_OFFSET) <= 1e-7
        return Verdict("ok", work=1) if ok else _wrong(f"argmax {res['argmax']!r}")
    if command == "threshold":
        dims = [r["n"] for r in res["direct_checks"]]
        ok = res["n_min"] == 15 and dims == list(range(2, 15)) and all(
            r["margin"] > 0 for r in res["direct_checks"])
        return Verdict("ok", work=len(dims) + 1) if ok else _wrong("threshold certificate")
    if command == "concentration-check":
        rows = [r for r in res["rows"] if r["status"] != "skipped: width > 1"]
        ok = rows and all(r["status"] == "ok" and r["slack"] >= 0 for r in rows)
        return Verdict("ok", work=len({r["n"] for r in rows})) if ok else _wrong("slab inequality")
    return _wrong(f"no oracle for {command!r}")


def _check_verify(inputs: dict, res: dict) -> Verdict:
    ok = (
        res["violations"] == 0
        and res["pairs_tested"] == inputs["pairs"]
        and res["min_cross_distance"] > 1.0
        and res["max_same_distance"] < 1.0
    )
    if not ok:
        return _wrong(f"audit: {res['violations']} violations")
    return Verdict("ok", work=inputs["pairs"] + inputs["samples"])


def _check_table(argv: list[str], inputs: dict, res: dict) -> Verdict:
    rows = res["rows"]
    if [r["n"] for r in rows] != list(range(2, inputs["max_n"] + 1)):
        return _wrong("table rows do not cover 2..max_n")
    if not all(r["margin"] > 0 for r in rows):
        return _wrong("table margin <= 0")
    pick = random.Random(" ".join(argv)).sample(rows, min(TABLE_SAMPLE, len(rows)))
    return Verdict("ok", work=len(rows), rows=[[r["n"], r["scaled"], r["ratio"]] for r in pick])


def _check_ratio(inputs: dict, res: dict) -> Verdict:
    n = inputs["n"]
    if inputs["method"] == "quadrature":
        # Log-ratio from the closed-form route of the same library.
        log_cf = LOG_TWO + vol_T_closed_form(n).log_value.log_magnitude
        log_cf -= unit_ball_volume(n).log_magnitude
        log_q = math.log(res["scaled"]) - n * LOG_TWO
        if not abs(log_q - log_cf) <= 1e-9:
            return _wrong(f"quadrature log-ratio off by {log_q - log_cf:.3g}")
        return Verdict("ok", work=1)
    return Verdict("ok", work=1, rows=[[n, res["scaled"], res["ratio"]]])


def _check_figure(argv: list[str], out: str) -> Verdict:
    svg_path = argv[argv.index("--out") + 1]
    csv_path = os.path.splitext(svg_path)[0] + ".points.csv"
    try:
        with open(svg_path, encoding="utf-8") as fh:
            svg = fh.read()
        with open(csv_path, encoding="utf-8") as fh:
            points = fh.read().splitlines()
    except OSError as exc:
        return _wrong(f"figure files: {exc}")
    ok = "<svg" in svg and svg.rstrip().endswith("</svg>") and len(points) >= 2
    return Verdict("ok", work=1) if ok and out.startswith("wrote ") else _wrong("figure output")


def check_betainc(rows: list, a: float = CANONICAL_OFFSET) -> list[str]:
    """Recompute sampled ratio rows from scipy's regularized incomplete
    beta and return one message per disagreeing row."""
    from scipy.special import betainc

    c = (a * a + 0.75) / (2.0 * a)  # chord plane of the two spheres

    def cap(n: int, t: float) -> float:  # P(x_1 > t) in the unit n-ball
        return 0.5 * float(betainc(0.5 * (n + 1), 0.5, (1.0 - t) * (1.0 + t)))

    bad = []
    for n, scaled, ratio in rows:
        slab = 1.0 - cap(n, 2.0 * (c - a)) - cap(n, 2.0 * a - 1.0)
        cap_c = cap(n, c)
        # 2^n * cap_c through logs: 2^n alone overflows above n = 1023.
        expected = 2.0 * (slab + (math.exp(n * LOG_TWO + math.log(cap_c)) if cap_c > 0 else 0.0))
        expected_ratio = math.ldexp(expected, -n)
        if not math.isclose(scaled, expected, rel_tol=1e-9):
            bad.append(f"n={n}: scaled {scaled!r} != scipy {expected!r}")
        elif expected_ratio > 1e-300 and not math.isclose(ratio, expected_ratio, rel_tol=1e-9):
            bad.append(f"n={n}: ratio {ratio!r} != scipy {expected_ratio!r}")
    return bad
