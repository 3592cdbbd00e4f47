"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every public function of each library module
with a wrapper in every ``ballavoid`` module namespace that binds it.
The CLI imports names directly, so patching only the defining module
would miss its calls.  Each wrapper records a span (name, start, end,
parent) and adds its self time (duration minus the time its child spans
cover) to the function's total.  Each op is one root span named
``cli``, so ``cli.self_s`` is op time no library span covers.

Counts come only from arguments and return values: rows of returned
arrays, pairs in the audit report, integrand calls of the quadrature,
and the acceptance rates and hit fractions the samplers return.  The
``tracemalloc`` peak is taken only inside the outermost ``sampling``
span, so its cost stays out of every other layer.

Spans are kept in one flat array in memory and written once at the end.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import sys
import time
import tracemalloc
from array import array

LAYERS = ("sampling", "specfun", "volume", "concentration", "construction", "figure")


def _unit_ball_rows(counts, args, kwargs, result):
    counts["sampling.sample_unit_ball.rows"] += result.shape[0]
    counts["sampling.bytes_out"] += result.nbytes


def _sample_T(counts, args, kwargs, result):
    points, rate = result
    counts["sampling.sample_T.returned"] += points.shape[0]
    if rate > 0:
        counts["sampling.sample_T.proposed"] += points.shape[0] / rate
    counts["sampling.bytes_out"] += points.nbytes


def _pair_audit(counts, args, kwargs, result):
    counts["sampling.pair_audit.pairs"] += result.pairs_tested


def _mc_volume_ratio(counts, args, kwargs, result):
    samples = (args[0] if args else kwargs["config"]).sample_count
    counts["sampling.mc_volume_ratio.samples"] += samples
    counts["sampling.mc_volume_ratio.hits"] += math.exp(result.log_value.log_magnitude) * samples


def _render_svg(counts, args, kwargs, result):
    counts["figure.svg_bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "sampling.sample_unit_ball": _unit_ball_rows,
    "sampling.sample_T": _sample_T,
    "sampling.pair_audit": _pair_audit,
    "sampling.mc_volume_ratio": _mc_volume_ratio,
    "figure.render_svg": _render_svg,
}


class Tracer:
    def __init__(self, package: str = "ballavoid", max_spans: int = 500_000):
        self.package = package
        self.max_spans = max_spans
        self.names = ["cli"]
        self.calls = [0]
        self.self_s = [0.0]
        self.fails = [0]
        # Closed spans, six doubles each: index in open order, start, end,
        # name id, parent index (-1 for an op's root), op number.
        self.spans = array("d")
        self.opened = 0
        self.stack = []  # open spans: [index, time covered by children]
        self.counts = collections.defaultdict(float)
        self.peak_alloc = {}
        self.current_op = -1
        self._sampling_depth = 0
        self._patches = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._root = self._span(0, lambda call: call())
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def _span(self, nid: int, fn):
        """fn wrapped in a span named names[nid]."""
        tracer = self
        stack = self.stack
        spans = self.spans
        self_s, calls, fails = self.self_s, self.calls, self.fails
        clock = time.perf_counter
        max_spans = self.max_spans

        def wrapper(*args, **kwargs):
            idx = tracer.opened
            tracer.opened = idx + 1
            frame = [idx, 0.0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                fails[nid] += failed
                parent = -1
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += dur
                if idx < max_spans:
                    spans.extend((idx, t0, t1, nid, parent, tracer.current_op))
            return result

        return wrapper

    def _enter_sampling(self) -> None:
        if self._sampling_depth == 0:
            tracemalloc.start()
        self._sampling_depth += 1

    def _exit_sampling(self, key: str) -> None:
        self._sampling_depth -= 1
        if self._sampling_depth == 0:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_alloc[key] = max(self.peak_alloc.get(key, 0), peak)

    def _counted(self, f):
        counts = self.counts

        def integrand(x):
            counts["volume.gl_panels"] += 1
            return f(x)

        return integrand

    def _wrap(self, key: str, fn):
        nid = len(self.names)
        self.names.append(key)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.fails.append(0)
        span = self._span(nid, fn)
        hook = _HOOKS.get(key)
        if key.startswith("sampling."):
            tracer = self

            def traced(*args, **kwargs):
                tracer._enter_sampling()
                try:
                    result = span(*args, **kwargs)
                finally:
                    tracer._exit_sampling(key)
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result)
                return result
        elif key == "volume.adaptive_gauss_legendre":
            counted = self._counted

            def traced(f, *args, **kwargs):
                return span(counted(f), *args, **kwargs)
        elif hook is not None:
            counts = self.counts

            def traced(*args, **kwargs):
                result = span(*args, **kwargs)
                hook(counts, args, kwargs, result)
                return result
        else:
            traced = span
        return functools.wraps(fn)(traced)

    # --- control -----------------------------------------------------------

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches.clear()

    def run_op(self, index: int, call):
        """Run call() as the root span of op number index."""
        self.current_op = index
        return self._root(call)

    # --- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        m = {"cli.self_s": self.self_s[0]}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
            m[f"{layer}.calls"] = 0
        for nid, key in enumerate(self.names[1:], start=1):
            layer = key.split(".")[0]
            m[f"{key}.calls"] = self.calls[nid]
            m[f"{key}.self_s"] = self.self_s[nid]
            m[f"{key}.fail"] = self.fails[nid]
            m[f"{layer}.self_s"] += self.self_s[nid]
            m[f"{layer}.calls"] += self.calls[nid]
        c = self.counts
        for key in ("sampling.sample_unit_ball.rows", "sampling.pair_audit.pairs",
                    "sampling.mc_volume_ratio.samples", "sampling.bytes_out",
                    "volume.gl_panels", "figure.svg_bytes"):
            m[key] = c[key]
        proposed = c["sampling.sample_T.proposed"]
        m["sampling.sample_T.useful_frac"] = c["sampling.sample_T.returned"] / proposed if proposed else 0.0
        samples = c["sampling.mc_volume_ratio.samples"]
        m["sampling.mc_volume_ratio.hit_frac"] = c["sampling.mc_volume_ratio.hits"] / samples if samples else 0.0
        m["sampling.pair_audit.peak_alloc_mb"] = self.peak_alloc.get("sampling.pair_audit", 0) / 2**20
        return m

    @property
    def dropped(self) -> int:
        return max(0, self.opened - self.max_spans)

    def write_spans(self, path: str) -> None:
        """Spans in open order, one row each: index, start, end, name id,
        parent index, op number; names[name id] is the span's name."""
        import numpy as np

        rows = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 6)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        np.savez(path, spans=rows, names=np.array(self.names), dropped=np.int64(self.dropped))
