"""ballavoid benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload audit --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The run

  * times ``setup_s`` from outside: fresh interpreters that import
    ``ballavoid.cli`` and build the parser (one warm-up, then the median
    of several);
  * gives every timing at the reference host speed (hostspeed.py): the
    host is shared and its speed drifts, so a fixed kernel is timed
    between set-ups and between ops and divided out; raw wall times are
    printed and recorded beside;
  * runs the workload in three fresh processes (worker.py), one after
    another, each a closed loop with one client and no think time, with
    BLAS/OpenMP thread caps of 1;
  * checks every op's output (worker side, outside the timed call) and a
    seeded sample of ratio rows against scipy (here, after the worker
    has exited);
  * prints a report, writes the full record (argv list, its hash,
    environment) to perfbench/_runs/, and ends with one JSON line:
    {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  Workloads, units and predictions
are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

SETUP_SAMPLES = 7
# Fresh workload processes per untraced run, one after another, each
# running at least one whole block.  Op times differ by up to ~10 %
# between processes of the same code (memory layout); the median over
# several processes averages that out.  An audit block takes 12-17 s, so
# an audit run holds three blocks: 21 ops, which put both op_s_p50 and
# op_s_tail among the n = 5 verify ops (see workloads.py).
WORKERS = 3
SETUP_KERNEL_S = 0.05  # host-speed kernel time before and after each set-up
TIME_LIMIT_S = 170.0  # whole run, including set-up probes and checks
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BALLAVOID_TOL", None)  # run the program at its documented defaults
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return it and the seconds until it reported ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker still running after {timeout:.0f} s; killed")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to ready, raw and at the reference host speed."""
    speed, raw, scaled = HostSpeed(), [], []
    for i in range(SETUP_SAMPLES + 1):
        speed.sample(SETUP_KERNEL_S)
        start = time.perf_counter()
        proc, ready = start_worker(["setup"])
        finish(proc, 60.0)
        speed.sample(SETUP_KERNEL_S)
        if i:  # the first one also compiles bytecode
            raw.append(ready)
            scaled.append(speed.scale(start, ready))
    return raw, scaled


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly (there may be none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ballavoid").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(worker_env: dict) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker_env["numpy"],
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "thread_caps": THREAD_CAPS,
        "worker_threads": worker_env["threads"],
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 ops beyond it, and that
    percentile; the maximum when there are 10 ops or fewer."""
    times = sorted(times)
    n = len(times)
    if n <= 10:
        return times[-1], 100.0
    return times[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops: list[dict], setup: list[float], peak_rss_mb: float,
               key: str = "s_ref") -> tuple[dict, dict]:
    """End-to-end metrics from the op times under `key`: "s_ref" at the
    reference host speed, "s" as raw wall time."""
    times = [op[key] for op in ops]
    ok = [op for op in ops if op["outcome"] == "ok"]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "work_per_s": sum(op["work"] for op in ok) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"tail_percentile": tail_pct}


def run_workers(args, out_path: Path, spans_path: Path, started: float) -> tuple[dict, list]:
    """Run the workload in fresh worker processes, one after another, that
    continue one block stream (one worker when traced); the last one
    runs the probes.  Returns the merged record and each worker's
    seconds to ready."""
    count = 1 if args.trace else WORKERS
    merged, readies, skip = None, [], 0
    for i in range(count):
        proc, ready = start_worker(["run", args.workload, str(args.seed), str(args.seconds / count),
                                    str(args.trace), str(out_path), str(spans_path), str(skip),
                                    "1" if i == count - 1 else "0"])
        finish(proc, TIME_LIMIT_S - (time.perf_counter() - started))
        part = json.loads(out_path.read_text())
        out_path.unlink()
        if not Path(part["env"]["ballavoid_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"worker imported {part['env']['ballavoid_file']}, not {SRC}")
        readies.append(ready)
        skip += part.get("blocks", 0)
        if merged is None:
            merged = part
            continue
        for key in ("ops", "probes", "rows", "mismatch", "kernel_s"):
            merged[key] += part[key]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], part["peak_rss_mb"])
    return merged, readies


def per_layer(result: dict, probe_fail_frac: float) -> dict:
    ops = result["ops"]
    plain = sum(op["s"] for op in ops)
    metrics = dict(result["layers"])
    metrics["trace.overhead_frac"] = (sum(op["s_traced"] for op in ops) - plain) / plain
    metrics["cli.out_bytes"] = sum(op["out_bytes"] for op in ops + result["probes"])
    metrics["probe.fail_frac"] = probe_fail_frac
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "ballavoid" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'ballavoid'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    import oracle

    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path, spans_path = RUNS / f"{stem}.result.json", RUNS / f"spans-{stem}.npz"
    out_path.unlink(missing_ok=True)

    setup_raw, setup = ([], []) if args.trace else measure_setup()
    result, ready = run_workers(args, out_path, spans_path, started)

    ops, probes = result["ops"], result["probes"]
    failures = [f"{' '.join(op['argv'])}: {op['why']}" for op in ops if op["outcome"] != "ok"]
    failures += [f"scipy: {msg}" for msg in oracle.check_betainc(result["rows"])]
    failures += [f"traced output differs: {' '.join(argv)}" for argv in result["mismatch"]]
    failures += [f"probe gave a wrong answer: {' '.join(p['argv'])}: {p['why']}"
                 for p in probes if p["outcome"] == "wrong"]
    failed = sum(op["outcome"] != "ok" for op in ops)
    probe_failed = sum(p["outcome"] != "ok" for p in probes)
    probe_fail_frac = probe_failed / len(probes) if probes else 0.0

    extra = {}
    if args.trace:
        measured = per_layer(result, probe_fail_frac)
    else:
        measured, extra = end_to_end(ops, setup, result["peak_rss_mb"])
        raw, _ = end_to_end(ops, setup_raw, result["peak_rss_mb"], key="s")
        extra["raw_wall"] = raw
        extra["hostspeed"] = hostspeed.summary(result["kernel_s"])
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    argvs = [op["argv"] for op in ops]
    stream = workloads.blocks(args.workload, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "work_unit": workloads.WORK_UNIT[args.workload],
        "ops_count": len(argvs), "ops_sha256": workloads.ops_sha256(argvs),
        "stream_sha256": workloads.ops_sha256([next(stream) for _ in range(64)]),
        "fail_frac": failed / len(ops), "probe_fail_frac": probe_fail_frac,
        "setup_samples": setup, "setup_samples_raw": setup_raw, "worker_ready_s": ready, **extra,
        "metrics": metrics, "all_measured": measured, "failures": failures,
        "correct": not failures,
        "env": environment(result["env"]),
        "spans": result.get("spans"), "spans_dropped": result.get("spans_dropped"),
        "ops": [[op["argv"], op["s"], op.get("s_ref"), op["outcome"]] for op in ops],
        "probes": [[p["argv"], p["outcome"], p["why"]] for p in probes],
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  ops_sha256 {record['ops_sha256'][:16]}")
    for name, m in metrics.items():
        note = ""
        if name == "op_s_p50":
            note = f"  ({len(ops)} ops)"
        elif name == "op_s_tail":
            pct = extra["tail_percentile"]
            note = f"  (p{pct:.1f}: 10 ops beyond it)" if pct < 100 else "  (maximum: 10 ops or fewer)"
        elif name == "work_per_s":
            note = f"  ({workloads.WORK_UNIT[args.workload]} per second)"
        if name in extra.get("raw_wall", {}) and name != "peak_rss_mb":
            note += f"  [raw wall {extra['raw_wall'][name]:.6g}]"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    if "hostspeed" in extra:
        hs = extra["hostspeed"]
        print(f"  {'host-speed kernel':40s} median {hs['kernel_s_median'] * 1e6:.1f} us over "
              f"{hs['kernel_samples']} samples (reference {hs['ref_s'] * 1e6:.0f} us)")
    print(f"  {'fail_frac':40s} {failed / len(ops):.6g} frac  ({failed}/{len(ops)} ops)")
    print(f"  {'probe_fail_frac':40s} {probe_fail_frac:.6g} frac  "
          f"({probe_failed}/{len(probes)} known-defect probes failed)")
    for msg in failures[:20]:
        print(f"  FAIL {msg}")
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(1)
