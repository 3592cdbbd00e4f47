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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballavoid
from ballavoid.cli import _emit, build_parser, main
from ballavoid.concentration import C_STAR
from ballavoid.construction import CANONICAL_OFFSET
from ballavoid.volume import ratio_table


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

    def test_invalid_dimension_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["ratio", "--n", "1"])
        assert code == 2

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

    @pytest.mark.parametrize("n", ["64", "1000"])
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
            math.log(ratio_table(2000, 2000)[0].scaled) - 2000 * math.log(2.0), rel=1e-15)
        assert abs(res["mc_log_ratio"] - res["analytic_log_ratio"]) < 1e-3

    def test_log_interval_where_linear_half_width_underflows(self, capsys):
        _, out = run_cli(capsys, ["verify", "--n", "2000", "--pairs", "10000",
                                  "--samples", "10000", "--format", "json"])
        res = json.loads(out)["results"]
        assert res["mc_ci99_half_width"] == 0.0
        lo, hi = res["mc_log_ci99_low"], res["mc_log_ci99_high"]
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo <= res["mc_log_ratio"] <= hi

    def test_log_interval_matches_linear_half_width(self, capsys):
        # The Wilson interval is not symmetric about the estimate; the
        # linear half-width is its wider side.
        _, out = run_cli(capsys, ["verify", "--n", "2", "--pairs", "10000",
                                  "--samples", "10000", "--format", "json"])
        res = json.loads(out)["results"]
        below = res["mc_ratio"] - math.exp(res["mc_log_ci99_low"])
        above = math.exp(res["mc_log_ci99_high"]) - res["mc_ratio"]
        assert min(below, above) > 0.0
        assert max(below, above) == pytest.approx(res["mc_ci99_half_width"], rel=1e-12)

    def test_numeric_failure_reports_acceptance_rate(self, capsys):
        code = main(["verify", "--n", "500", "--a", "0.99", "--pairs", "10000",
                     "--samples", "10000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: numerical failure: rejection acceptance rate below 1e-4")
        assert err.rstrip().endswith("(best_estimate=0)")

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
        assert abs(doc["results"]["difference"]) <= 1e-7

    def test_dimension_independence(self, capsys):
        _, out = run_cli(capsys, ["optimize-a", "--n", "10", "--format", "json"])
        doc = json.loads(out)
        assert abs(doc["results"]["difference"]) <= 1e-7

    def test_precondition(self, capsys):
        code, _ = run_cli(capsys, ["optimize-a", "--n", "1"])
        assert code == 2

    @pytest.mark.parametrize("n", ["2", "10", "200"])
    def test_volume_lower_on_both_sides(self, capsys, n):
        code, out = run_cli(capsys, ["optimize-a", "--n", n, "--format", "json"])
        assert code == 0
        assert json.loads(out)["results"]["log_volume_drop_at_1e-3"] > 0

    def test_volume_check_fails_off_the_maximum(self, capsys, monkeypatch):
        # An optimizer and reference that agree on a wrong offset pass the
        # 1e-7 check; the volume is higher at 0.75 - 1e-3.
        monkeypatch.setattr("ballavoid.cli.maximize_a", lambda n, tol: 0.75)
        monkeypatch.setattr("ballavoid.cli.CANONICAL_OFFSET", 0.75)
        code, out = run_cli(capsys, ["optimize-a", "--n", "2", "--format", "json"])
        assert code == 1
        assert json.loads(out)["results"]["log_volume_drop_at_1e-3"] < 0


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

    @pytest.mark.parametrize("a", ["nan", "0.5", "1", "inf"])
    def test_offset_outside_unit_interval_is_usage_error(self, capsys, a):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", f"--a={a}"])
        assert exc.value.code == 2
        assert "offset must lie in (1/2, 1)" in capsys.readouterr().err

    def test_constant_beyond_float_range_is_usage_error(self, capsys):
        # (c / (2a - 1))^2 overflowed and raised OverflowError.
        code, _ = run_cli(capsys, ["threshold", "--c-min", "1e200", "--c-max", "1e200"])
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

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "1e308"])
    def test_bad_scale_is_usage_error(self, capsys, tmp_path, scale):
        dest = tmp_path / "s2.svg"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--out", str(dest), f"--scale={scale}"])
        assert exc.value.code == 2
        assert "scale must be positive" in capsys.readouterr().err
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
        ("figure", "points.csv"): "cffb5553858d90017e8fb97baf67059971de5f46a7f70e8eab26d4e0912fc4c8",
        ("figure --epsilon 0.01", "svg"):
            "e768072f6df3f6212aa43d7414716fbf4050324e4e6a24281b754dbf6465b0fd",
        ("figure --epsilon 0.01", "points.csv"):
            "4e3667cf6fbca99a44d7167559bf6ab714f9c3f02950d250eb3eb21ac8939c1b",
        ("table --max-n 64", "text"): "531fb39c7ed2a7648d7d09028eee2a82cf5a6622c9c5dc9aaae2ccf37b1297ad",
        ("threshold", "text"): "0055482e5aec5456e378b4cd1c5e9f8a93ae152515868c5300b70ad5e4a6884b",
        ("concentration-check", "json"): "0f0dd433904825a21a42fe2a16418db59c2eb976206e6f3193392349c59c1f3f",
        ("concentration-check", "csv"): "5b891a01f2c4d3f7c66408043c69e84053f3783409273b4e4ac6368c3483788f",
        ("concentration-check", "text"): "3ab25ddf413b17b58ca72eafbb67cc519b0e5d2ba920570e7071c33cd623d3d3",
    }

    @pytest.mark.parametrize("argv, fmt", sorted(FROZEN))
    def test_bytes_unchanged(self, capsys, tmp_path, argv, fmt):
        if argv.startswith("figure"):
            code, _ = run_cli(capsys, [*argv.split(), "--out", str(tmp_path / "s2.svg")])
            out = (tmp_path / f"s2.{fmt}").read_bytes()
        else:
            code, text = run_cli(capsys, [*argv.split(), "--format", fmt])
            out = text.encode()
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == self.FROZEN[argv, fmt]

    @pytest.mark.parametrize("argv, key, max_n", [("table --max-n 64", "rows", 64),
                                                  ("threshold", "direct_checks", 14)])
    def test_rows_in_json_and_csv(self, capsys, argv, key, max_n):
        rows = [{"n": r.n, "ratio": r.ratio, "scaled": r.scaled, "margin": r.margin}
                for r in ratio_table(2, max_n)]
        _, out = run_cli(capsys, [*argv.split(), "--format", "json"])
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["results"][key] == rows
        _, out = run_cli(capsys, [*argv.split(), "--format", "csv"])
        assert out == "n,ratio,scaled,margin\n" + "".join(
            f"{r['n']},{r['ratio']!r},{r['scaled']!r},{r['margin']!r}\n" for r in rows)


class TestEnvelope:
    @pytest.mark.parametrize("argv, flags", [
        ("ratio --n 2", ["n", "a", "method", "tol"]),
        ("table --max-n 5", ["max_n", "a"]),
        ("verify --n 2 --pairs 10000 --samples 10000", ["n", "a", "pairs", "samples", "seed"]),
        ("optimize-a --n 2", ["n", "tol"]),
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
        assert json.loads(proc.stdout)["inputs"]["tol"] == 1e-12

    def test_flag_sets_tol(self, capsys):
        code, out = run_cli(capsys, ["ratio", "--n", "2", "--tol", "1e-10", "--format", "json"])
        assert code == 0
        assert json.loads(out)["inputs"]["tol"] == 1e-10


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


_FORMAT = st.sampled_from(["json", "csv", "text"])
_OFFSET = _real(0.5, 1.0)

# Required, then optional, flags of every subcommand but check-all, which
# has no numeric flag (TestCheckAll runs it).  Sizes are kept small so each
# run is short: verify always gets --pairs and --samples, whose defaults
# are 10^6.
_FLAGS = {
    "ratio": ({"--n": _count(200)},
              {"--a": _OFFSET, "--tol": _real(1e-14, 1e-6), "--format": _FORMAT,
               "--method": st.sampled_from(["closed_form", "quadrature", "simpson"])}),
    "table": ({}, {"--max-n": _count(200), "--a": _OFFSET, "--format": _FORMAT}),
    "verify": ({"--n": _count(200), "--pairs": _count(20000), "--samples": _count(20000)},
               {"--a": _OFFSET, "--seed": st.integers(-1, 2**64).map(str), "--format": _FORMAT}),
    "optimize-a": ({"--n": _count(200)}, {"--tol": _real(1e-12, 1e-3), "--format": _FORMAT}),
    "threshold": ({}, {"--a": _OFFSET, "--c-min": _real(1.0, 3.0), "--c-max": _real(1.0, 3.0),
                       "--format": _FORMAT}),
    "figure": ({}, {"--a": _OFFSET, "--scale": _real(1.0, 512.0), "--epsilon": _real(0.0, 0.1)}),
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
