"""The workload process: one fresh interpreter, one closed-loop client.

Started by run.py:

    worker.py setup
    worker.py run WORKLOAD SEED SECONDS TRACE OUT_JSON SPANS_NPZ SKIP PROBES

Both modes import ``ballavoid.cli`` and call ``build_parser()``, then
print ``ready`` so the parent can time the set-up from outside; nothing
else is imported before that.  ``run`` then issues ops one at a time
with no think time, times each ``cli.main(argv)`` call, and checks its
output after the clock stops.

The op stream is the workload's seeded block stream after its first
SKIP blocks, so that the several workers of one untraced run continue
one stream.  With TRACE 0 a worker runs whole blocks, at least one,
until the summed op time reaches SECONDS, and times the host-speed
kernel (hostspeed.py) after each op for KERNEL_SHARE of the op's time,
so that each op's time can also be given at the reference host speed.
With TRACE 1 it runs a fixed number of blocks sized from SECONDS and
issues every op twice, untraced and then traced, so the difference is
the tracing overhead on the same ops and the per-layer counts repeat
exactly for a given seed.  With PROBES 1 the probes run last, outside
all timing.
"""

import sys

# Untraced plus traced wall time of one block at the baseline, used only
# to size the traced run from SECONDS.
TRACE_BLOCK_S = {"audit": 28.0, "certify": 1.6, "quadrature": 0.08}

# Share of op time spent timing the host-speed kernel between ops.
KERNEL_SHARE = 0.1


def setup():
    import ballavoid.cli

    ballavoid.cli.build_parser()
    print("ready", flush=True)
    return ballavoid.cli


def run(cli, workload: str, seed: int, seconds: float, trace: bool, out_path: str,
        spans_path: str, skip: int, probes: bool):
    import contextlib
    import io
    import json
    import resource
    import threading
    import time
    import traceback

    import numpy

    import oracle
    import workloads
    from hostspeed import HostSpeed

    def call(argv):
        """One op: (seconds, exit code or None, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        return seconds, rc, out.getvalue(), err.getvalue()

    def record(argv, seconds, verdict, out="", err=""):
        return {"argv": argv, "s": seconds, "outcome": verdict.outcome, "why": verdict.why,
                "work": verdict.work, "out_bytes": len(out.encode()) + len(err.encode())}

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    def traced_call(index, argv):
        tracer.install()
        try:
            return tracer.run_op(index, lambda: call(argv))
        finally:
            tracer.uninstall()

    result = {"ops": [], "probes": [], "rows": [], "mismatch": []}
    stream = workloads.blocks(workload, seed)
    for _ in range(skip):
        next(stream)
    if trace:
        for _ in range(max(1, round(seconds / TRACE_BLOCK_S[workload]))):
            for argv in next(stream):
                t_plain, rc, out, err = call(argv)
                verdict = oracle.check(argv, rc, out, err)
                t_traced, rc2, out2, err2 = traced_call(len(result["ops"]), argv)
                if (rc2, out2) != (rc, out):
                    result["mismatch"].append(argv)
                rec = record(argv, t_plain, verdict, out2, err2)
                rec["s_traced"] = t_traced
                result["ops"].append(rec)
                result["rows"].extend(verdict.rows)
    else:
        speed = HostSpeed()
        speed.sample(0.05)
        op_time, blocks, starts = 0.0, 0, []
        while op_time < seconds or not blocks:
            blocks += 1
            for argv in next(stream):
                starts.append(time.perf_counter())
                t, rc, out, err = call(argv)
                op_time += t
                speed.sample(KERNEL_SHARE * t)
                verdict = oracle.check(argv, rc, out, err)
                result["ops"].append(record(argv, t, verdict))
                result["rows"].extend(verdict.rows)
        for start, rec in zip(starts, result["ops"]):
            rec["s_ref"] = speed.scale(start, rec["s"])
        result["blocks"] = blocks
        result["kernel_s"] = speed.times
    # ru_maxrss is in KiB on Linux; taken before the probes run.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for index, argv in enumerate(workloads.probes(workload, seed) if probes else []):
        _, rc, out, err = traced_call(-1 - index, argv) if trace else call(argv)
        result["probes"].append(record(argv, 0.0, oracle.check(argv, rc, out, err), out, err))

    if trace:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.opened
        result["spans_dropped"] = tracer.dropped
        tracer.write_spans(spans_path)
    result["env"] = {
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "ballavoid_file": cli.__file__,
        "threads": threading.active_count(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    cli = setup()
    if sys.argv[1] == "run":
        workload, seed, seconds, trace, out_path, spans_path, skip, probes = sys.argv[2:10]
        run(cli, workload, int(seed), float(seconds), trace == "1", out_path, spans_path,
            int(skip), probes == "1")
