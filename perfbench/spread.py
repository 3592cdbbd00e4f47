"""Run workloads over several seeds; print every run's report and, per
end-to-end metric, the median and spread (interquartile range over
median) across the seeds.

    python3 perfbench/spread.py                          # every workload, seed 0
    python3 perfbench/spread.py --workloads audit --seeds 0-9 --out summary.json

Each run is ``perfbench/run.py`` in its own process at the run length of
BENCHMARK.json.  A spread is what a later change's median has to be
compared against: a metric whose spread is not well below its bound
cannot resolve a change of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=[0])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, SPEC["run_seconds"]) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        print(f"== {workload}: {len(runs)} runs, correct {entry['correct']}, "
              f"{entry['failed']}/{entry['attempted']} ops failed")
        for m in SPEC["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            s["bound"] = m["bound"]
            entry["metrics"][m["name"]] = s
            steady = m["name"] == "setup_s" or s["spread"] < m["bound"] / 3
            print(f"   {m['name']:12s} median {s['median']:<12.6g} {m['unit']:4s} "
                  f"spread {s['spread']:.4f}  bound {m['bound']}  {'' if steady else 'WIDE'}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
