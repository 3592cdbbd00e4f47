"""Command-line front end: every quantitative claim is a subcommand.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed,
2 = usage or I/O error; main() maps the library's errors to them.  Every
handler but figure and check-all passes its verdict, results and output
builders to _emit, the one writer of a document.  JSON always carries
the keys {"command", "inputs", "results", "pass"}, inputs being the parsed flags,
in the bytes json.dumps(doc, indent=2) writes (the rows of a RatioTable
are written one run of equal rows at a time, each distinct float spelled
once, and spliced in); text prints
numbers with 10 significant digits; CSV (stdlib csv) is header-first
with floats written by repr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .concentration import certifying_constants, concentration_bound, minimal_certified_n
from .construction import (
    CANONICAL_OFFSET,
    ConstructionParams,
    equidistance_residual,
)
from .errors import CertificateError, DomainError, NumericError
from .specfun import slab_fraction
from .volume import (MAX_DIMENSION, RatioTable, _sign_change_exact, ratio_S, ratio_table,
                     vol_T_closed_form)

# Step from the argmax at which optimize-a checks, without the derivative,
# that the closed-form log volume is not higher on either side.  The drop
# in log vol T is 2e-6 at n = 2, 1e-5 at n = 10 and 2e-10 at n = 200; the
# small-ball caps that carry the dependence on a shrink like 0.85^(n/2),
# so beyond n ~ 300 the drop is below the log volume's rounding and the
# check can no longer fail.
_LOCAL_MAX_STEP = 1e-3

_Z99 = 2.5758293035489004  # 99% two-sided normal quantile, verify's interval level


def _g10(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_out(payload: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(payload)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


# Namespace entries that pick the subcommand or route its output, not inputs.
_NOT_INPUTS = ("command", "format", "out", "handler")


# The text between the cells of a RatioTable's rows as json.dumps(doc,
# indent=2) writes them, a list of dicts, as a value of doc["results"]:
# before the first n, before each later n (closing the row above), before
# each ratio, scaled and margin, and after the last margin.
_FIRST_ROW = '[\n      {\n        "n": '
_NEXT_ROW = '\n      },\n      {\n        "n": '
_FIELD_SEPS = (',\n        "ratio": ', ',\n        "scaled": ', ',\n        "margin": ')
_LAST_ROW = '\n      }\n    ]'


def _table_rows(table: RatioTable):
    """(n, ratio, scaled, margin) per dimension, as Python ints and floats."""
    return zip(*(column.tolist() for column in table))


def _json_words(values: list) -> list[str]:
    """json.dumps' spelling of each int or float in values, from one call of
    its C encoder."""
    return json.dumps(values)[1:-1].split(", ")


def _rows_json(table: RatioTable) -> str:
    """The table as json.dumps(doc, indent=2) writes a list of its rows as
    a value of doc["results"].  Rows are taken in runs of equal ratio,
    scaled and margin bit patterns (so -0.0 and 0.0 and NaN payloads
    split runs); at the canonical offset every row from n = 1076 up is
    (0.0, 2.0, 1.0), so --max-n 10000 is 1075 runs.  Each
    distinct float of the run heads is spelled once by the C encoder, as
    the pure-Python one that indent selects does: repr, or NaN, Infinity,
    -Infinity.  The spellings are scattered into a (runs x 8) array of
    cells and separators; a longer run's n cell joins its dimensions with
    the run's own text, the cells after n and the break to the next row."""
    import numpy as np

    floats = np.stack(table[1:]).view(np.int64)
    # Run k is rows bounds[k]:bounds[k + 1].
    split = np.ones(table.n.size + 1, dtype=bool)
    split[1:-1] = (floats[:, 1:] != floats[:, :-1]).any(axis=0)
    bounds = np.flatnonzero(split)
    heads = bounds[:-1]
    distinct, inverse = np.unique(floats[:, heads].ravel(), return_inverse=True)
    words = np.array(_json_words(distinct.view(np.float64).tolist()), dtype=object)
    cells = np.empty((heads.size, 8), dtype=object)
    cells[:, 0] = _NEXT_ROW
    cells[0, 0] = _FIRST_ROW
    cells[:, 1] = _json_words(table.n[heads].tolist())
    cells[:, 2::2] = _FIELD_SEPS
    cells[:, 3::2] = words[inverse.reshape(3, -1).T]
    for run in np.flatnonzero(bounds[1:] - heads > 1).tolist():
        glue = "".join(cells[run, 2:].tolist()) + _NEXT_ROW
        cells[run, 1] = glue.join(map(str, table.n[bounds[run]:bounds[run + 1]].tolist()))
    return "".join(cells.ravel().tolist()) + _LAST_ROW


def _row_dicts(table: RatioTable) -> list[dict]:
    return [dict(zip(RatioTable._fields, row)) for row in _table_rows(table)]


def _emit(args, ok: bool, results, text_lines, csv_rows) -> int:
    """Write the payload args.format asks for to args.out and return the
    exit code: 2 if it cannot be written, else 0 if ok, else 1.  results
    is the JSON document's results dict; text_lines and csv_rows are
    builders taking no argument, and only the one that format needs is
    called.  A RatioTable as a results value is written as a list of rows
    of RatioTable._fields."""
    if args.format == "json":
        inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
        tables = {key: value for key, value in results.items() if isinstance(value, RatioTable)}
        # Each table goes in as a placeholder string that no flag or result
        # holds (it starts with NUL); its JSON spelling is then replaced by
        # the table's rows.
        slots = {key: f"\0{key}" for key in tables}
        doc = {"command": args.command, "inputs": inputs, "results": {**results, **slots}, "pass": ok}
        payload = json.dumps(doc, indent=2) + "\n"
        for key, table in tables.items():
            payload = payload.replace(json.dumps(slots[key]), _rows_json(table), 1)
    elif args.format == "csv":
        rows = csv_rows()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = "\n".join(text_lines()) + "\n"
    return _write_out(payload, args.out) or (0 if ok else 1)


def _log_ratio(row) -> float:
    """log(vol S / vol B), finite where the linear ratio underflows."""
    return math.log(row.scaled) - row.n * math.log(2.0)


def _kv_lines(pairs: list[tuple[str, object]]) -> list[str]:
    width = max(len(k) for k, _ in pairs)
    return [f"{k.ljust(width)}  {_g10(v)}" for k, v in pairs]


# --- subcommand handlers -------------------------------------------------


def cmd_ratio(args) -> int:
    row = ratio_S(args.n, args.a, args.method)
    ok = row.margin > 0
    results = {"ratio": row.ratio, "scaled": row.scaled, "margin": row.margin,
               "log_ratio": _log_ratio(row), "log_error_bound": row.log_error_bound}

    def text_lines():
        return _kv_lines([("n", row.n), ("a", args.a), ("method", args.method), *results.items()])

    return _emit(args, ok, results, text_lines, lambda: [{"n": row.n, **results}])


def cmd_table(args) -> int:
    table = ratio_table(args.max_n, args.a)
    ok = bool((table.margin > 0).all())

    def text_lines():
        text = [f"{'n':>5}  {'ratio':>16}  {'scaled':>16}  {'margin':>16}"]
        text.extend(f"{n:>5}  {ratio:>16.10g}  {scaled:>16.10g}  {margin:>16.10g}"
                    for n, ratio, scaled, margin in _table_rows(table))
        return text

    return _emit(args, ok, {"rows": table}, text_lines, lambda: _row_dicts(table))


def cmd_verify(args) -> int:
    # Imported here: sampling loads numpy, which no other subcommand's
    # start-up needs.
    from .sampling import SamplerConfig, mc_volume_ratio, pair_audit

    params = ConstructionParams(args.n, args.a)
    report = pair_audit(SamplerConfig(args.seed, args.pairs, params))
    mc = mc_volume_ratio(SamplerConfig(args.seed, args.samples, params))
    row = ratio_S(args.n, args.a)
    analytic_log_ratio = _log_ratio(row)
    # Widened by the closed form's own log-scale error: at large n nearly
    # every proposal lands in T, and its rounding alone can put the
    # log-ratio just above the interval's top, log(2 (1/2)^n).
    slack = row.log_error_bound
    lo, hi = mc.log_interval(3.0)
    mc_ok = lo - slack <= analytic_log_ratio <= hi + slack
    ok = report.violations == 0 and mc_ok
    log_ci99_low, log_ci99_high = mc.log_interval(_Z99)
    summary = {
        "pairs_tested": report.pairs_tested,
        "violations": report.violations,
        "min_cross_distance": report.min_cross_distance,
        "max_same_distance": report.max_same_distance,
        "mc_ratio": mc.log_value.linear(),
        "mc_log_ratio": mc.log_value.log_magnitude,
        "mc_log_ci99_low": log_ci99_low,
        "mc_log_ci99_high": log_ci99_high,
        "analytic_ratio": row.ratio,
        "analytic_log_ratio": analytic_log_ratio,
        "mc_within_3_sigma": mc_ok,
    }
    results = summary
    if report.violating_pairs:
        results = {**summary, "violating_pairs": [
            {"tag": tag, "distance": dist, "x": list(x), "y": list(y)}
            for x, y, tag, dist in report.violating_pairs
        ]}

    def text_lines():
        text = _kv_lines(list(summary.items()))
        text.extend(f"VIOLATION {tag} distance={dist!r} x={x!r} y={y!r}"
                    for x, y, tag, dist in report.violating_pairs)
        return text

    def csv_rows():
        # One row per witness: the summary, then its coordinates, a cell
        # left empty where it has no second point.
        if not report.violating_pairs:
            return [summary]
        coords = dict.fromkeys([f"{p}_{i}" for p in "xy" for i in range(1, params.n + 1)], "")
        return [{**summary, "tag": tag, "distance": dist, **coords,
                 **{f"x_{i}": v for i, v in enumerate(x, 1)}, **{f"y_{i}": v for i, v in enumerate(y, 1)}}
                for x, y, tag, dist in report.violating_pairs]

    return _emit(args, ok, results, text_lines, csv_rows)


def cmd_optimize_a(args) -> int:
    argmax = CANONICAL_OFFSET  # the maximizer in every n (volume.maximize_a); checked below
    peak = vol_T_closed_form(args.n, argmax)
    sides = [vol_T_closed_form(args.n, argmax + step) for step in (-_LOCAL_MAX_STEP, _LOCAL_MAX_STEP)]
    drops = [peak.log_value.log_magnitude - side.log_value.log_magnitude for side in sides]
    # Fails only where a side is above the peak by more than both error bounds.
    local_max = all(d >= -(peak.error_bound + side.error_bound) for d, side in zip(drops, sides))
    sign_change = _sign_change_exact(argmax)
    ok = sign_change and local_max
    results = {
        "argmax": argmax,
        "sign_change_exact": sign_change,
        "equidistance_residual": equidistance_residual(argmax),
        "log_volume_drop_at_1e-3": min(drops),
    }
    return _emit(args, ok, results, lambda: _kv_lines(list(results.items())), lambda: [results])


def cmd_threshold(args) -> int:
    c_lo, c_hi, n_min = certifying_constants(args.a, args.c_min, args.c_max)
    if n_min - 1 > MAX_DIMENSION:
        raise DomainError(f"at offset a={args.a!r}, c={c_hi:.10g} certifies only n >= {n_min}; "
                          f"direct checks up to n={n_min - 1} exceed {MAX_DIMENSION}")
    bound_factor = minimal_certified_n(c_hi, args.a).bound_factor
    direct = ratio_table(n_min - 1, args.a)
    ok = n_min <= 15 and bool((direct.margin > 0).all())
    results = {
        "c": c_hi,
        "n_min": n_min,
        "bound_factor": bound_factor,
        "width_ok_from": n_min,
        "certifying_c_min": c_lo,
        "certifying_c_max": c_hi,
    }

    def text_lines():
        text = _kv_lines(list(results.items()))
        text.append("direct checks:")
        text.extend(f"  n={n:<3} ratio={ratio:.10g} scaled={scaled:.10g} margin={margin:.10g}"
                    for n, ratio, scaled, margin in _table_rows(direct))
        return text

    return _emit(args, ok, {**results, "direct_checks": direct}, text_lines, lambda: _row_dicts(direct))


def cmd_figure(args) -> int:
    # Imported here: no other subcommand draws the figure.
    from .figure import build_figure_spec, junction_csv, render_svg

    spec = build_figure_spec(args.a, args.epsilon)
    csv_path = os.path.splitext(args.out)[0] + ".points.csv"
    rc = _write_out(render_svg(spec), args.out) or _write_out(junction_csv(spec), csv_path)
    if rc:
        return rc
    w_seg, w_chord = spec.segment_half_width, spec.chord_half_width
    equal_widths = abs(w_seg - w_chord) <= 1e-9
    print(f"wrote {args.out} and {csv_path}")
    print(f"chord half-widths: segment {w_seg:.10g}, plane {w_chord:.10g}")
    if args.epsilon == 0.0 and not equal_widths:
        print("error: chord half-widths differ at epsilon = 0", file=sys.stderr)
        return 1
    return 0


def cmd_concentration_check(args) -> int:
    if args.n_max < 3:
        raise DomainError(f"the inequality holds for n >= 3; --n-max {args.n_max} checks nothing")
    # Every constant is checked before the grid, so that one the inequality
    # does not admit is named as such, not as a slab it cannot form.
    bounds = [concentration_bound(c) for c in args.c_list]
    # The grid's width test at its smallest width, c / sqrt(n_max - 1).
    if all(c / math.sqrt(args.n_max - 1.0) > 1.0 for c in args.c_list):
        raise DomainError(f"every slab c/sqrt(n-1) is wider than 1 for n <= {args.n_max}; "
                          f"--c-list {','.join(map(repr, args.c_list))} checks nothing")
    rows = []
    ok = True
    for n in range(3, args.n_max + 1):
        for c, bound in zip(args.c_list, bounds):
            width = c / math.sqrt(n - 1.0)
            if width > 1.0:
                rows.append({"n": n, "c": c, "exact": "", "bound": "", "slack": "",
                             "status": "skipped: width > 1"})
                continue
            exact = slab_fraction(n, -width, width)
            slack = exact - bound
            ok = ok and slack >= 0
            rows.append({"n": n, "c": c, "exact": exact, "bound": bound,
                         "slack": slack, "status": "ok" if slack >= 0 else "VIOLATED"})

    def text_lines():
        text = [f"{'n':>4} {'c':>6} {'exact':>16} {'bound':>16} {'slack':>16}  status"]
        text.extend(
            f"{r['n']:>4} {r['c']:>6.3g} {_g10(r['exact']):>16} "
            f"{_g10(r['bound']):>16} {_g10(r['slack']):>16}  {r['status']}"
            for r in rows
        )
        return text

    return _emit(args, ok, {"rows": rows}, text_lines, lambda: rows)


def cmd_check_all(args) -> int:
    runs = [
        ["ratio", "--n", "2"],
        ["ratio", "--n", "3"],
        ["table", "--max-n", "64"],
        ["verify", "--n", "2"],
        ["optimize-a", "--n", "2"],
        ["threshold"],
        ["figure", "--out", args.figure_out],
        ["concentration-check"],
    ]
    worst = 0
    for argv in runs:
        print(f"== {' '.join(argv)}")
        rc = main(argv)
        print(f"== exit {rc}")
        worst = max(worst, rc)
    return worst


# --- parser --------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _dimension(text: str) -> int:
    """A dimension flag: an integer in the documented range 2 <= n <= MAX_DIMENSION."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 2 <= n <= MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"expected an integer in [2, {MAX_DIMENSION}], got {text!r}")
    return n


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballavoid",
        description="Certify the unit-distance-avoiding set that beats the (1/2)^n volume bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="vol S / vol B at one dimension")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--a", type=float, default=CANONICAL_OFFSET)
    p.add_argument("--method", choices=["closed_form", "quadrature"], default="closed_form")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_ratio)

    p = sub.add_parser("table", help="per-dimension ratio table with margins")
    p.add_argument("--max-n", type=_dimension, default=64)
    p.add_argument("--a", type=float, default=CANONICAL_OFFSET)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify", help="seeded pair audit plus Monte Carlo ratio check")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--a", type=float, default=CANONICAL_OFFSET)
    p.add_argument("--pairs", type=int, default=10**6)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("optimize-a", help="certify the volume-maximizing offset")
    p.add_argument("--n", type=_dimension, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_optimize_a)

    p = sub.add_parser("threshold", help="best concentration certificate plus direct checks")
    p.add_argument("--a", type=float, default=CANONICAL_OFFSET)
    p.add_argument("--c-min", type=float, default=1.0)
    p.add_argument("--c-max", type=float, default=3.0)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("figure", help="SVG of S_2 plus junction-point CSV")
    p.add_argument("--out", default="s2.svg")
    p.add_argument("--a", type=float, default=CANONICAL_OFFSET)
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="draw the closed inner approximation tightened by this much")
    p.set_defaults(handler=cmd_figure)

    p = sub.add_parser("concentration-check", help="validate the slab inequality on a grid")
    p.add_argument("--n-max", type=_dimension, default=50)
    p.add_argument("--c-list", type=_float_list, default="1,1.5,2,3")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_concentration_check)

    p = sub.add_parser("check-all", help="run every subcommand with defaults")
    p.add_argument("--figure-out", default="s2.svg")
    p.set_defaults(handler=cmd_check_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except NumericError as exc:
        found = [f"{name}={_g10(value)}" for name, value in (
            ("best_estimate", exc.best_estimate), ("achieved_error", exc.achieved_error))
            if value is not None]
        print(f"error: numerical failure: {exc}" + (f" ({', '.join(found)})" if found else ""),
              file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
