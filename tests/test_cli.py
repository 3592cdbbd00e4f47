import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballavoid
from ballavoid import cli, concentration
from ballavoid.cli import _emit, build_parser, main
from ballavoid.concentration import C_STAR
from ballavoid.construction import CANONICAL_OFFSET
from ballavoid.sampling import AuditReport
from ballavoid.volume import RatioTable, ratio_table


def row_dicts(table):
    """The rows the CLI writes for a RatioTable, as json.loads reads them."""
    return [dict(zip(("n", "ratio", "scaled", "margin"), row))
            for row in zip(*(column.tolist() for column in table[:4]))]


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out


class TestRatio:
    def test_known_ratio_prefix_n2(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "2"])
        assert code == 0
        assert "0.2848" in out

    def test_known_ratio_prefix_n3(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "3"])
        assert code == 0
        assert "0.1563" in out

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "2", "--format", "json"])
        doc = json.loads(out)
        assert set(doc) == {"command", "inputs", "results", "pass"}
        assert doc["pass"] is True
        assert doc["results"]["ratio"] == pytest.approx(0.2848934371448171, rel=1e-12)

    def test_exit_code_tracks_margin_sign(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "2", "--a", "0.51", "--format", "json"])
        doc = json.loads(out)
        assert code == (0 if doc["results"]["margin"] > 0 else 1)

    def test_quadrature_method(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "2", "--method", "quadrature"])
        assert code == 0
        assert "0.2848" in out

    def test_quadrature_method_at_largest_dimension(self, capsys):
        # Every n >= 523 used to exhaust the quadrature's panel budget.
        code, out = run_cli(capsys, ["ratio", "--method", "quadrature", "--n", "10000",
                                     "--format", "json"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("n", ["2", "1000", "10000"])
    @pytest.mark.parametrize("a", [repr(0.5 + 2.0**-k) for k in (53, 52, 50)])
    def test_routes_agree_just_above_half(self, capsys, a, n):
        # At 1 ulp above 1/2 the closed form refused the offset as nested
        # spheres, and near it the quadrature's cut around a steep cap
        # cancelled to zero width and took log 0.  The margin there is
        # below the error bound, so either verdict may stand.
        logs = []
        for method in ("closed_form", "quadrature"):
            code, out = run_cli(capsys, ["ratio", "--n", n, "--a", a, "--method", method,
                                         "--format", "json"])
            assert code in (0, 1), method
            res = json.loads(out)["results"]
            logs.append((res["log_ratio"], res["log_error_bound"]))
        (closed, closed_err), (quad, quad_err) = logs
        assert abs(closed - quad) <= closed_err + quad_err

    def test_invalid_dimension_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["ratio", "--n", "1"])
        assert code == 2

    def test_tolerance_flag_is_gone(self, capsys):
        # The quadrature runs at one tolerance; the closed form ignored the flag.
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "--n", "2", "--tol", "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_log_ratio_where_linear_ratio_underflows(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "10000", "--format", "json"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["ratio"] == 0.0
        assert res["log_ratio"] == pytest.approx(
            math.log(res["scaled"]) - 10000 * math.log(2.0), rel=1e-15)
        assert -6931.5 < res["log_ratio"] < -6930.0
        assert 0.0 < res["log_error_bound"] < 1e-9
        _, out = run_cli(capsys, ["ratio", "--n", "10000", "--format", "csv"])
        assert out.splitlines()[0] == "n,ratio,scaled,margin,log_ratio,log_error_bound"


class TestDimensionRange:
    @pytest.mark.parametrize("command", ["ratio", "verify", "optimize-a"])
    @pytest.mark.parametrize("n", ["1", "10001", "100000", "2.5"])
    def test_outside_documented_range_is_usage_error(self, capsys, command, n):
        # ratio --n 100000 exited 0 with "ratio": 0.0; verify had no upper bound.
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", n])
        assert exc.value.code == 2
        assert "argument --n" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "10001"])
    def test_table_max_n_outside_documented_range_names_the_flag(self, capsys, n):
        # 10001 printed "need 2 <= n_min <= n_max <= 10000, got [2, 10001]".
        with pytest.raises(SystemExit) as exc:
            main(["table", "--max-n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            f"ballavoid table: error: argument --max-n: expected an integer in [2, 10000], got '{n}'"]

    @pytest.mark.parametrize("command", ["ratio", "verify", "optimize-a"])
    def test_largest_dimension_is_accepted(self, command):
        assert build_parser().parse_args([command, "--n", "10000"]).n == 10000

    @pytest.mark.parametrize("command", ["ratio", "optimize-a"])
    def test_largest_dimension_passes(self, capsys, command):
        code, out = run_cli(capsys, [command, "--n", "10000", "--format", "json"])
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestTable:
    def test_direct_check_range(self, capsys):
        code, out = run_cli(capsys, ["table", "--max-n", "14", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,ratio,scaled,margin"
        assert len(lines) == 14  # header + rows for n = 2..14
        assert all(float(line.split(",")[3]) > 0 for line in lines[1:])

    def test_every_column_is_written(self, capsys):
        # A RatioTable column that no format writes is computed for nothing.
        _, out = run_cli(capsys, ["table", "--max-n", "64", "--format", "csv"])
        assert tuple(out.splitlines()[0].split(",")) == RatioTable._fields
        _, out = run_cli(capsys, ["table", "--max-n", "64", "--format", "json"])
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 63
        assert all(tuple(row) == RatioTable._fields for row in rows)

    def test_scaled_strictly_increasing(self, capsys):
        code, out = run_cli(capsys, ["table", "--max-n", "200", "--format", "csv"])
        assert code == 0
        scaled = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))

    def test_precondition(self, capsys):
        code, _ = run_cli(capsys, ["table", "--max-n", "1"])
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, _ = run_cli(capsys, ["table", "--max-n", "5", "--format", "csv", "--out", str(dest)])
        assert code == 0
        assert dest.read_text().startswith("n,ratio,scaled,margin")

    def test_unwritable_out(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, ["table", "--max-n", "5", "--out", str(tmp_path / "no" / "dir" / "t.csv")]
        )
        assert code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--n", "2", "--pairs", "20000", "--samples", "20000",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["violations"] == 0
        assert doc["results"]["min_cross_distance"] > 1.0
        assert doc["results"]["max_same_distance"] < 1.0
        assert doc["results"]["mc_within_3_sigma"] is True

    def test_byte_identical_repeat(self, capsys):
        argv = ["verify", "--n", "3", "--pairs", "15000", "--samples", "15000",
                "--seed", "42", "--format", "json"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("n", ["64", "1000", "10000"])
    def test_high_dimension_passes(self, n):
        # A fresh interpreter, so a traceback on stderr would show.
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ballavoid.cli", "verify", "--n", n,
             "--pairs", "10000", "--samples", "10000", "--format", "json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["results"]["mc_within_3_sigma"] is True


    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_output_independent_of_usable_cpus(self):
        # The child cuts its own affinity to one CPU before importing the
        # package, so verify runs its chunks on a single worker.
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        argv = ["verify", "--n", "5", "--pairs", "20000", "--samples", "20000",
                "--format", "json"]
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from ballavoid.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        out = {}
        for cpus in ("one", "all"):
            proc = subprocess.run(
                [sys.executable, "-c", code, cpus, *argv],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, proc.stderr
            out[cpus] = proc.stdout
        assert out["one"] == out["all"]

    def test_log_ratios_where_linear_ratios_underflow(self, capsys):
        code, out = run_cli(capsys, ["verify", "--n", "2000", "--pairs", "10000",
                                     "--samples", "10000", "--format", "json"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["mc_ratio"] == res["analytic_ratio"] == 0.0
        assert res["analytic_log_ratio"] == pytest.approx(
            math.log(ratio_table(2000).scaled[-1]) - 2000 * math.log(2.0), rel=1e-15)
        assert abs(res["mc_log_ratio"] - res["analytic_log_ratio"]) < 1e-3

    def test_log_interval_where_linear_half_width_underflows(self, capsys):
        _, out = run_cli(capsys, ["verify", "--n", "2000", "--pairs", "10000",
                                  "--samples", "10000", "--format", "json"])
        res = json.loads(out)["results"]
        lo, hi = res["mc_log_ci99_low"], res["mc_log_ci99_high"]
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo <= res["mc_log_ratio"] <= hi

    def test_log_interval_matches_linear_half_width(self, capsys):
        # Taken back to linear scale where the ratio does not underflow,
        # the log bounds lie on either side of the estimate.
        _, out = run_cli(capsys, ["verify", "--n", "2", "--pairs", "10000",
                                  "--samples", "10000", "--format", "json"])
        res = json.loads(out)["results"]
        below = res["mc_ratio"] - math.exp(res["mc_log_ci99_low"])
        above = math.exp(res["mc_log_ci99_high"]) - res["mc_ratio"]
        assert min(below, above) > 0.0

    def test_numeric_failure_reports_acceptance_rate(self, capsys):
        code = main(["verify", "--n", "500", "--a", "0.99", "--pairs", "10000",
                     "--samples", "10000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: numerical failure: rejection acceptance rate below 1e-4")
        assert err.rstrip().endswith("(best_estimate=0)")

    def test_violations_written_in_full(self, capsys, monkeypatch):
        # One witness of each kind, with floats that take 16 or 17 digits
        # to round-trip.
        x, y = (0.7000000000000001, 0.30000000000000004), (0.5500000000000002, -0.1234567890123457)
        witnesses = (
            ((1.0000000000000002, 2.2250738585072014e-308), (), "outside", 1.0000000000000002),
            (x, y, "same_component", 1.0000000000000009),
            (x, (-y[0], -y[1]), "cross_component", 0.9999999999999998),
        )
        report = AuditReport(10_000, 3, 0.9999999999999998, 1.0000000000000009, witnesses)
        monkeypatch.setattr("ballavoid.sampling.pair_audit", lambda config: report)
        argv = ["verify", "--n", "2", "--pairs", "10000", "--samples", "10000"]
        code, out = run_cli(capsys, [*argv, "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["results"]["violations"] == 3
        assert doc["results"]["violating_pairs"] == [
            {"tag": tag, "distance": dist, "x": list(wx), "y": list(wy)}
            for wx, wy, tag, dist in witnesses
        ]
        code, out = run_cli(capsys, argv)
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("VIOLATION")] == [
            f"VIOLATION {tag} distance={dist!r} x={wx!r} y={wy!r}"
            for wx, wy, tag, dist in witnesses
        ]

    def test_violations_in_csv_one_row_per_witness(self, capsys, monkeypatch):
        x, y = (0.7000000000000001, 0.30000000000000004), (0.5500000000000002, -0.1234567890123457)
        witnesses = (
            ((1.0000000000000002, 2.2250738585072014e-308), (), "outside", 1.0000000000000002),
            (x, y, "same_component", 1.0000000000000009),
        )
        report = AuditReport(10_000, 2, 1.0001, 1.0000000000000009, witnesses)
        monkeypatch.setattr("ballavoid.sampling.pair_audit", lambda config: report)
        argv = ["verify", "--n", "2", "--pairs", "10000", "--samples", "10000", "--format"]
        code, out = run_cli(capsys, [*argv, "csv"])
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        _, summary_out = run_cli(capsys, [*argv, "json"])
        summary = json.loads(summary_out)["results"]
        del summary["violating_pairs"]
        assert list(rows[0]) == [*summary, "tag", "distance", "x_1", "x_2", "y_1", "y_2"]
        for row, (wx, wy, tag, dist) in zip(rows, witnesses, strict=True):
            assert row["violations"] == "2"
            assert float(row["max_same_distance"]) == 1.0000000000000009
            assert row["tag"] == tag
            assert float(row["distance"]) == dist
            assert [float(row[f"x_{i}"]) for i in (1, 2)] == list(wx)
            assert [float(row[f"y_{i}"]) for i in (1, 2) if row[f"y_{i}"]] == list(wy)
        assert rows[0]["y_1"] == rows[0]["y_2"] == ""

    def test_worker_error_exits_one_without_traceback(self, capsys):
        # The audit's rejection sampler gives up inside a worker thread.
        code = main(["verify", "--n", "500", "--a", "0.99", "--pairs", "10000",
                     "--samples", "10000"])
        err = capsys.readouterr().err
        assert code == 1
        assert "rejection acceptance rate below 1e-4" in err
        assert "Traceback" not in err


class TestOptimizeA:
    def test_canonical_recovered(self, capsys):
        code, out = run_cli(capsys, ["optimize-a", "--n", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["argmax"] == CANONICAL_OFFSET

    def test_dimension_independence(self, capsys):
        _, out = run_cli(capsys, ["optimize-a", "--n", "10", "--format", "json"])
        doc = json.loads(out)
        assert doc["results"]["argmax"] == CANONICAL_OFFSET

    def test_precondition(self, capsys):
        code, _ = run_cli(capsys, ["optimize-a", "--n", "1"])
        assert code == 2

    @pytest.mark.parametrize("n", ["2", "10", "200"])
    def test_volume_lower_on_both_sides(self, capsys, n):
        code, out = run_cli(capsys, ["optimize-a", "--n", n, "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["log_volume_drop_at_1e-3"] > 0

    @pytest.mark.parametrize("n", [2, 15, 10000])
    def test_exact_offset_with_no_tolerance_flag(self, capsys, n):
        keys = ["argmax", "sign_change_exact", "equidistance_residual", "log_volume_drop_at_1e-3"]
        code, out = run_cli(capsys, ["optimize-a", "--n", str(n), "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["inputs"] == {"n": n}
        assert list(doc["results"]) == keys
        assert doc["results"]["argmax"].hex() == CANONICAL_OFFSET.hex()
        assert doc["results"]["sign_change_exact"] is True
        _, out = run_cli(capsys, ["optimize-a", "--n", str(n), "--format", "csv"])
        assert out.splitlines()[0] == ",".join(keys)

    def test_volume_check_fails_off_the_maximum(self, capsys, monkeypatch):
        # An offset and sign check that agree on a wrong offset; the volume
        # is higher at 0.75 - 1e-3.
        monkeypatch.setattr("ballavoid.cli.CANONICAL_OFFSET", 0.75)
        monkeypatch.setattr("ballavoid.cli._sign_change_exact", lambda a: True)
        code, out = run_cli(capsys, ["optimize-a", "--n", "2", "--format", "json"])
        assert code == 1
        assert json.loads(out)["results"]["log_volume_drop_at_1e-3"] < 0

    def test_sign_check_fails_off_the_root(self, capsys, monkeypatch):
        # 3a^2 - a - 3/4 is already positive at 0.75.
        monkeypatch.setattr("ballavoid.cli.CANONICAL_OFFSET", 0.75)
        code, out = run_cli(capsys, ["optimize-a", "--n", "2", "--format", "json"])
        assert code == 1
        res = json.loads(out)["results"]
        assert res["argmax"] == 0.75
        assert res["sign_change_exact"] is False


class TestThreshold:
    def test_default_certifies_fifteen(self, capsys):
        code, out = run_cli(capsys, ["threshold", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["n_min"] <= 15
        assert doc["results"]["bound_factor"] > 1
        assert all(r["margin"] > 0 for r in doc["results"]["direct_checks"])

    def test_pinned_c_two(self, capsys):
        code, out = run_cli(
            capsys, ["threshold", "--c-min", "2", "--c-max", "2", "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["results"]["n_min"] == 28
        assert code == 1  # exceeds the n <= 15 gate even though all margins pass

    def test_exact_certifying_interval(self, capsys):
        code, out = run_cli(capsys, ["threshold", "--format", "json"])
        doc = json.loads(out)
        assert "resolution" not in doc["inputs"]
        res = doc["results"]
        assert res["certifying_c_min"] == C_STAR
        assert res["c"] == res["certifying_c_max"]
        assert res["c"] == pytest.approx((2 * CANONICAL_OFFSET - 1) * 14**0.5, rel=1e-15)
        assert res["bound_factor"] == pytest.approx(1.0350657542, abs=1e-10)

    def test_bound_factor_not_above_one_fails(self, capsys, monkeypatch):
        # Every certifying constant exceeds C_STAR, so only a patched bound
        # reaches this check.
        monkeypatch.setattr(concentration, "concentration_bound", lambda c: 0.5)
        assert main(["threshold"]) == 1
        assert capsys.readouterr().err.endswith("gives bound factor 1.000000 <= 1: no certificate\n")

    @pytest.mark.parametrize("a", ["nan", "0.5", "1", "inf"])
    def test_offset_outside_unit_interval_is_usage_error(self, capsys, a):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", f"--a={a}"])
        assert exc.value.code == 2
        assert "offset must lie in (1/2, 1)" in capsys.readouterr().err

    def test_offset_needing_checks_beyond_documented_range_is_usage_error(self, capsys):
        # Printed "need 2 <= n_min <= n_max <= 10000, got [2, 20532]".
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--a", "0.505"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            "ballavoid: error: at offset a=0.505, c=1.432899159 certifies only n >= 20533; "
            "direct checks up to n=20532 exceed 10000"]

    @pytest.mark.parametrize("a", ["0.5000000000000001", "0.500000000001", "0.5000001"])
    def test_offset_near_half_is_usage_error(self, capsys, a):
        # Within ~1e-12 of a = 1/2, n_min is 1e23 or more: the range check
        # reports it as a usage error, not as a failed certificate.
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--a", a])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ballavoid: error: at offset a={a}, c=1.432896618 certifies only n >= ")
        assert err.endswith(" exceed 10000\n")

    @pytest.mark.parametrize("a", ["0.5001", "0.500001", "0.505"])
    def test_range_error_names_exact_n_min(self, capsys, a):
        # n_min is the smallest n with c <= (2a - 1) sqrt(n - 1) for c the
        # double after C_STAR, the smallest that certifies, in exact
        # arithmetic on the doubles.  Worked out again from the rounded
        # c_hi, it printed 51329820 and 513298179339 at the first two offsets.
        c = math.nextafter(C_STAR, math.inf)
        n_min = math.ceil((Fraction(c) / (2 * Fraction(float(a)) - 1)) ** 2) + 1
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--a", a])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f" certifies only n >= {n_min}; direct checks up to n={n_min - 1} exceed 10000\n")

    def test_constant_beyond_float_range_is_usage_error(self, capsys):
        # (c / (2a - 1))^2 overflowed and raised OverflowError.
        code, _ = run_cli(capsys, ["threshold", "--c-min", "1e200", "--c-max", "1e200"])
        assert code == 2

    def test_infinite_constant_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["threshold", "--c-min", "inf", "--c-max", "inf"])
        assert code == 2

    def test_no_certificate_range(self, capsys):
        code, _ = run_cli(capsys, ["threshold", "--c-min", "1", "--c-max", "1.2"])
        assert code == 1


class TestFigure:
    def test_svg_and_junctions(self, capsys, tmp_path):
        dest = tmp_path / "s2.svg"
        code, _ = run_cli(capsys, ["figure", "--out", str(dest)])
        assert code == 0
        root = ET.parse(dest).getroot()
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        filled = [p for p in paths if p.get("fill") not in (None, "none")]
        assert len(filled) == 2
        csv_path = tmp_path / "s2.points.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "label,x,y"
        rows = {parts[0]: (float(parts[1]), float(parts[2]))
                for parts in (line.split(",") for line in lines[1:])}
        w_chord = abs(rows["pos_chord_upper"][1])
        w_plane = abs(rows["pos_plane_upper"][1])
        assert abs(w_chord - w_plane) <= 1e-9
        assert w_chord == pytest.approx(0.4609504, abs=1e-7)

    def test_inner_approximation_variant(self, capsys, tmp_path):
        dest = tmp_path / "inner.svg"
        code, _ = run_cli(capsys, ["figure", "--out", str(dest), "--epsilon", "0.01"])
        assert code == 0
        ET.parse(dest)  # well-formed

    def test_unwritable_path(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["figure", "--out", str(tmp_path / "no" / "fig.svg")])
        assert code == 2

    def test_scale_flag_is_gone(self, capsys, tmp_path):
        # At --scale 3 the centre markers were larger than the unit disk.
        dest = tmp_path / "s2.svg"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--out", str(dest), "--scale", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scale" in capsys.readouterr().err
        assert not dest.exists()

    def test_bad_offset_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["figure", "--out", str(tmp_path / "s2.svg"), "--a=nan"])
        assert code == 2


class TestConcentrationCheck:
    def test_defaults_pass(self, capsys):
        code, out = run_cli(capsys, ["concentration-check", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        skipped = [r for r in doc["results"]["rows"] if "skipped" in r["status"]]
        assert any(r["n"] == 3 and r["c"] == 2.0 for r in skipped)

    def test_slack_at_reference_point(self, capsys):
        code, out = run_cli(capsys, ["concentration-check", "--format", "json"])
        doc = json.loads(out)
        row = next(r for r in doc["results"]["rows"] if r["n"] == 50 and r["c"] == 2.0)
        assert row["exact"] - 0.8646647 >= 0

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_empty_range_is_usage_error(self, capsys, fmt):
        # With no n >= 3 to check, CSV output indexed an empty row list.
        code, _ = run_cli(capsys, ["concentration-check", "--n-max", "2", "--format", fmt])
        assert code == 2

    def test_n_max_outside_documented_range_is_usage_error(self, capsys):
        # --n-max 20000 ran for 4.2 s, and the time grew without bound.
        with pytest.raises(SystemExit) as exc:
            main(["concentration-check", "--n-max", "10001"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            "ballavoid concentration-check: error: argument --n-max: "
            "expected an integer in [2, 10000], got '10001'"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("flags", ["--c-list 2 --n-max 3", "--c-list 8", "--c-list inf"])
    def test_grid_of_skipped_slabs_is_usage_error(self, capsys, flags, fmt):
        # Every slab was skipped as wider than 1, and the run passed.
        with pytest.raises(SystemExit) as exc:
            main(["concentration-check", *flags.split(), "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "checks nothing" in captured.err

    def test_slab_of_width_one_is_checked(self, capsys):
        # 7 / sqrt(50 - 1) = 1 exactly: the grid's own test keeps it.
        code, out = run_cli(capsys, ["concentration-check", "--c-list", "7", "--format", "json"])
        assert code == 0
        checked = [r for r in json.loads(out)["results"]["rows"] if r["status"] == "ok"]
        assert [(r["n"], r["c"]) for r in checked] == [(50, 7.0)]

    @pytest.mark.parametrize("c_list, named", [("nan", "nan"), ("0.5,nan", "0.5"), ("1.5,nan", "nan")])
    def test_constant_the_inequality_rejects_is_named(self, capsys, c_list, named):
        # A nan constant was evaluated as a slab first, and the error named
        # the slab's bounds u0=nan, u1=nan rather than the constant.
        with pytest.raises(SystemExit) as exc:
            main(["concentration-check", f"--c-list={c_list}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"ballavoid: error: the inequality requires c >= 1, got {named}\n"

    @pytest.mark.parametrize("c_list", ["abc", "1,x", ","])
    def test_malformed_c_list_is_usage_error(self, capsys, c_list):
        with pytest.raises(SystemExit) as exc:
            main(["concentration-check", "--c-list", c_list])
        assert exc.value.code == 2
        assert "--c-list" in capsys.readouterr().err


class TestOutputFormats:
    # sha256 of the output when every format was built on each run; these
    # outputs carry no digit of the table's recurrence.  A figure entry
    # names the file it writes (pure-Python math, no numpy rounding).
    FROZEN = {
        ("figure", "svg"): "c336b69058a30f8840286595c739421b98cf78cd602b65a3b4123c65bc44f41b",
        ("figure", "points.csv"): "c6e5d922363be1714ab8afa6a401d467b1f78309c457a8e82234583a5c7cf069",
        ("figure --epsilon 0.01", "svg"):
            "e768072f6df3f6212aa43d7414716fbf4050324e4e6a24281b754dbf6465b0fd",
        ("figure --epsilon 0.01", "points.csv"):
            "fdc4ae91f29f65cdafd76d8ef5fa4620a295344c98a887a2c78bc1e880f2da5b",
        ("table --max-n 64", "text"): "531fb39c7ed2a7648d7d09028eee2a82cf5a6622c9c5dc9aaae2ccf37b1297ad",
        ("table --max-n 64", "json"): "f63fc76cbdd36075369cb8a1eb4c57c748086417c3bb8cd84172de24283c3876",
        # Subnormal ratios at n = 1023..1075 and 0.0 from n = 1076.
        ("table --max-n 10000", "json"): "185c01cb7cba43c80ff33f600bf60cc288039922791b81cce4c22df422e9892b",
        ("threshold", "text"): "0055482e5aec5456e378b4cd1c5e9f8a93ae152515868c5300b70ad5e4a6884b",
        # Taken when c became the largest double that certifies n_min exactly.
        ("threshold", "json"): "5727de9515f5e2eee9182cf14f8d0a0b8fdcd35d803c08f3f183d737b8679b5e",
        ("concentration-check", "json"): "0f0dd433904825a21a42fe2a16418db59c2eb976206e6f3193392349c59c1f3f",
        ("concentration-check", "csv"): "5b891a01f2c4d3f7c66408043c69e84053f3783409273b4e4ac6368c3483788f",
        ("concentration-check", "text"): "3ab25ddf413b17b58ca72eafbb67cc519b0e5d2ba920570e7071c33cd623d3d3",
        # Taken when the rows of table and threshold were RatioRow tuples.
        ("table --max-n 10000", "csv"): "1ed4df7ad9aa2d16d1ec6a69b87f7ab1876c21d22277f0aaac505945fd815434",
        ("table --max-n 10000", "text"): "7b54487c1e439b09fb0fc0c2e7f3b6cf703bbca3c4e1158ac55d62c406b77547",
        # Ratios of 0.0 and margins of -1.0 at large n, so the table fails.
        ("table --max-n 10000 --a 0.99", "json"):
            "3f49cc5b1c7357dba70a334998b4854164a2e61b4278c462d191340ca6487a8c",
        ("threshold", "csv"): "205ec07af734da6fdec6d6dd84f75d3a1d1b3cd390f903a7f47aff6ad7695dae",
    }
    # Exit codes other than 0 among the FROZEN outputs.
    EXIT = {"table --max-n 10000 --a 0.99": 1}

    @pytest.mark.parametrize("argv, fmt", sorted(FROZEN))
    def test_bytes_unchanged(self, capsys, tmp_path, argv, fmt):
        if argv.startswith("figure"):
            code, _ = run_cli(capsys, [*argv.split(), "--out", str(tmp_path / "s2.svg")])
            out = (tmp_path / f"s2.{fmt}").read_bytes()
        else:
            code, text = run_cli(capsys, [*argv.split(), "--format", fmt])
            out = text.encode()
        assert code == self.EXIT.get(argv, 0)
        assert hashlib.sha256(out).hexdigest() == self.FROZEN[argv, fmt]

    @pytest.mark.parametrize("argv, key, max_n", [("table --max-n 64", "rows", 64),
                                                  ("threshold", "direct_checks", 14)])
    def test_rows_in_json_and_csv(self, capsys, argv, key, max_n):
        rows = row_dicts(ratio_table(max_n))
        _, out = run_cli(capsys, [*argv.split(), "--format", "json"])
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["results"][key] == rows
        _, out = run_cli(capsys, [*argv.split(), "--format", "csv"])
        assert out == "n,ratio,scaled,margin\n" + "".join(
            f"{r['n']},{r['ratio']!r},{r['scaled']!r},{r['margin']!r}\n" for r in rows)

    @pytest.mark.parametrize("a", ["0.501", repr(CANONICAL_OFFSET), "0.9", "0.99"])
    @pytest.mark.parametrize("max_n", ["2", "3", "1100", "10000"])
    def test_table_json_is_json_dumps_indent_2(self, capsys, max_n, a):
        _, out = run_cli(capsys, ["table", "--max-n", max_n, "--a", a, "--format", "json"])
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @staticmethod
    def emit_table(table):
        """_emit's JSON for a results dict holding table, and json.dumps'
        bytes for the same document with the table as a list of dicts."""
        args = argparse.Namespace(command="test", format="json", out=None)
        results = {"c": 1.5, "rows": table, "after": ["nan", "inf"]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert _emit(args, True, results, None, None) == 0
        doc = {"command": "test", "inputs": {}, "results": {**results, "rows": row_dicts(table)},
               "pass": True}
        return out.getvalue(), json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def table_of(values):
        x = np.array(values)
        return RatioTable(np.arange(len(x)), x, np.roll(x, -1), np.roll(x, -2))

    def test_non_finite_and_extreme_rows(self):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                  1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1e16, 1e-7]
        out, expected = self.emit_table(self.table_of(values))
        assert "NaN" in out and "-Infinity" in out
        assert out == expected
        finite = self.table_of([v for v in values if math.isfinite(v)])
        out, expected = self.emit_table(finite)
        assert out == expected
        # Each value's own spelling, as the ratio cell of its row.
        x = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324])
        rows = cli._rows_json(RatioTable(np.arange(x.size), x, x, x))
        assert [line.split(": ")[1].rstrip(",") for line in rows.splitlines() if '"ratio"' in line] == [
            "NaN", "Infinity", "-Infinity", "-0.0", "0.0", "5e-324"]

    # Values whose spellings a writer could mix up: zeros of both signs, NaNs
    # with different payloads (their bit patterns differ, their spelling
    # does not), infinities, the least subnormal and 17-digit values.
    _POOL = [-0.0, 0.0, math.nan, float(np.array(0xFFF8000000000001).view(np.float64)),
             math.inf, -math.inf, 5e-324, 0.30000000000000004, 1.7976931348623157e308,
             2.2250738585072014e-308, 0.10000000000000002, 1e-7, 1e22, 2.0, 1.0]

    # Rows in runs: (triple, length, twin) draws of pool indices.  A twin
    # run repeats the triple above with the other zero and the other NaN
    # (indices 0-1 and 2-3), so only bit patterns, not values, split it.
    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(0, 10**6),
           runs=st.lists(st.tuples(st.tuples(*[st.integers(0, len(_POOL) - 1)] * 3),
                                   st.integers(1, 30), st.booleans()), min_size=1, max_size=12))
    @example(start=0, runs=[((10, 13, 14), 1, False)])
    @example(start=1075, runs=[((1, 13, 0), 3, False), ((0, 0, 0), 1, True), ((2, 13, 14), 30, False),
                               ((0, 0, 0), 2, True)])
    def test_repeated_values_spelled_as_json_dumps(self, start, runs):
        rows = []
        for triple, length, twin in runs:
            if twin and rows:
                triple = [i ^ 1 if i < 4 else i for i in rows[-1]]
            rows.extend([triple] * length)
        ratio, scaled, margin = np.array(self._POOL)[np.array(rows).T]
        n = np.arange(start, start + len(rows))
        out, expected = self.emit_table(RatioTable(n, ratio, scaled, margin))
        assert out == expected

    def test_each_distinct_float_spelled_once(self, monkeypatch):
        # 29 997 float cells at --max-n 10000 hold 1869 distinct bit
        # patterns; a writer that spells per row or per cell passes more.
        table = ratio_table(10000)
        spelled = []
        json_words = cli._json_words

        def counting_json_words(values):
            spelled.extend(values)
            return json_words(values)

        monkeypatch.setattr(cli, "_json_words", counting_json_words)
        cli._rows_json(table)
        floats = [v for v in spelled if isinstance(v, float)]
        assert len(floats) == 1869
        assert len(floats) == np.unique(np.stack(table[1:4]).view(np.int64)).size


class TestEnvelope:
    @pytest.mark.parametrize("argv, flags", [
        ("ratio --n 2", ["n", "a", "method"]),
        ("table --max-n 5", ["max_n", "a"]),
        ("verify --n 2 --pairs 10000 --samples 10000", ["n", "a", "pairs", "samples", "seed"]),
        ("optimize-a --n 2", ["n"]),
        ("threshold", ["a", "c_min", "c_max"]),
        ("concentration-check --n-max 4", ["n_max", "c_list"]),
    ])
    def test_inputs_are_the_flags_in_parser_order(self, capsys, argv, flags):
        _, out = run_cli(capsys, [*argv.split(), "--format", "json"])
        doc = json.loads(out)
        assert doc["command"] == argv.split()[0]
        assert list(doc["inputs"]) == flags

    def test_csv_quoting_round_trips(self, capsys):
        rows = [{"label": 'a,b', "quote": 'say "hi"', "lines": "one\ntwo", "x": 0.1},
                {"label": "", "quote": '"', "lines": "\n", "x": 1e-300}]
        args = argparse.Namespace(command="test", format="csv", out=None)
        assert _emit(args, False, None, None, lambda: rows) == 1
        read = list(csv.DictReader(io.StringIO(capsys.readouterr().out, newline="")))
        assert read == [{**row, "x": repr(row["x"])} for row in rows]


class TestTolDefault:
    def test_environment_does_not_set_tol(self):
        # A fresh interpreter, so a traceback on stderr would show; an
        # unparsable value once crashed the parser outside main's handler.
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ballavoid.cli", "ratio", "--n", "2", "--format", "json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "BALLAVOID_TOL": "abc"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "tol" not in json.loads(proc.stdout)["inputs"]


class TestRuntimeDependencies:
    def test_numpy_only(self, tmp_path):
        # README: the runtime dependency is numpy alone; scipy and mpmath
        # serve the tests as oracles.
        script = """
import contextlib, io, sys
from ballavoid.cli import main
runs = [["ratio", "--n", "50", "--method", "quadrature"], ["optimize-a", "--n", "10"],
        ["threshold"], ["table", "--max-n", "100"],
        ["verify", "--n", "3", "--pairs", "10000", "--samples", "10000"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
print(sorted(m for m in ("scipy", "mpmath") if m in sys.modules))
"""
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_startup_imports_stay_lazy(self):
        # Each of these is imported inside the one function that needs it;
        # at module level every command would pay for it at start-up.
        script = ("import sys, ballavoid.cli\n"
                  "ballavoid.cli.build_parser()\n"
                  "print(sorted(m for m in ('concurrent.futures', 'logging', 'fractions',"
                  " 'decimal', 'numpy', 'numpy.polynomial', 'ballavoid.sampling',"
                  " 'ballavoid.figure')"
                  " if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, code", [
        (["ratio", "--method", "quadrature", "--n", "50", "--format", "json"], 0),
        (["figure", "--out", "f.svg"], 0),
        (["concentration-check"], 0),
        (["--help"], 0),
        (["ratio", "--n", "1"], 2),
    ])
    def test_commands_on_plain_floats_never_load_numpy(self, tmp_path, argv, code):
        # Only verify, table, threshold and the closed form compute on arrays.
        script = ("import contextlib, io, sys\n"
                  "from ballavoid.cli import main\n"
                  "out = io.StringIO()\n"
                  "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
                  "    try:\n"
                  "        code = main(sys.argv[1:])\n"
                  "    except SystemExit as exc:\n"
                  "        code = exc.code\n"
                  "print(code, 'numpy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(ballavoid.__file__))
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{code} False\n"


class TestCheckAll:
    def test_aggregates_to_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, ["check-all", "--figure-out", str(tmp_path / "f.svg")])
        assert code == 0
        assert out.count("== exit 0") == 8


# --- argv fuzzing ----------------------------------------------------------

def _real(lo, hi):
    """Numbers as the user may type them: in [lo, hi], anywhere, or special."""
    return st.one_of(
        st.floats(lo, hi).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "0.5", "1", "1e308", "5e-324"]),
        st.floats().map(repr),
    )


def _count(hi):
    return st.one_of(st.integers(-3, hi).map(str), st.sampled_from(["nan", "1.5", "x"]))


_SUBPARSERS = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
_FORMAT = st.sampled_from(["json", "csv", "text"])
# Also the offsets 1 and 2 ulp above 1/2 and 1 ulp below 1, the edges of
# the range.
_OFFSET = st.one_of(_real(0.5, 1.0),
                    st.sampled_from(["0.5000000000000001", "0.5000000000000002", "0.9999999999999999"]))

# Required, then optional, flags of every subcommand but check-all, which
# has no numeric flag (TestCheckAll runs it).  Sizes are kept small so each
# run is short: verify always gets --pairs and --samples, whose defaults
# are 10^6.
_FLAGS = {
    "ratio": ({"--n": _count(10000)},
              {"--a": _OFFSET, "--format": _FORMAT,
               "--method": st.sampled_from(["closed_form", "quadrature", "simpson"])}),
    "table": ({}, {"--max-n": _count(200), "--a": _OFFSET, "--format": _FORMAT}),
    "verify": ({"--n": _count(10000), "--pairs": _count(20000), "--samples": _count(20000)},
               {"--a": _OFFSET, "--seed": st.integers(-1, 2**64).map(str), "--format": _FORMAT}),
    "optimize-a": ({"--n": _count(200)}, {"--format": _FORMAT}),
    "threshold": ({}, {"--a": _OFFSET, "--c-min": _real(1.0, 3.0), "--c-max": _real(1.0, 3.0),
                       "--format": _FORMAT}),
    "figure": ({}, {"--a": _OFFSET, "--epsilon": _real(0.0, 0.1)}),
    "concentration-check": ({}, {"--n-max": _count(200), "--format": _FORMAT,
                                 "--c-list": st.lists(_real(1.0, 3.0), min_size=1,
                                                      max_size=3).map(",".join)}),
}


class TestArgvFuzz:
    @pytest.mark.parametrize("command", sorted(_FLAGS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exit_code_without_exception(self, tmp_path_factory, command, data):
        required, optional = _FLAGS[command]
        flags = data.draw(st.fixed_dictionaries(required, optional=optional))
        argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
        if command == "figure":
            argv.append(f"--out={tmp_path_factory.mktemp('fuzz') / 'f.svg'}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv

    @pytest.mark.parametrize("command", sorted(set(_SUBPARSERS) - {"check-all"}))
    def test_spec_names_every_flag(self, command):
        # A flag added to or removed from the parser fails here until the
        # fuzz spec above follows it.
        required, optional = _FLAGS[command]
        options = {s for action in _SUBPARSERS[command]._actions for s in action.option_strings}
        assert {*required, *optional} == options - {"--out", "-h", "--help"}
