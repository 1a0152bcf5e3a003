"""Run one qtangent CLI invocation with per-layer spans and counters.

    python3 perfbench/tracer.py STATS.json ARGV...

Imports qtangent from the import path, wraps every public function of each
package module where another module (or the module's own namespace) calls
it, runs the CLI entry point on ARGV and writes the aggregated counters to
STATS.json.  The CLI's exit code is passed through.  Spans live in memory
and are written once at exit; the wrappers exist only in this process.

A layer is a package module.  A span's self time is its duration minus the
time covered by child spans of other layers in the same thread.  Work that
a span hands to a thread pool is charged to the same layer in the worker
thread, and time spent blocked on a future is charged to "wait", so busy
and self times are summed over threads; the invocation's wall time is
recorded beside them.
"""

import concurrent.futures
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "qspecial", "sampling", "simulate", "tangent", "freeprob", "verify", "cli")

# Names the per-layer metrics rely on, as module.attribute at the caller.
# A name missing here is reported, not treated as a failure.
EXPECTED = (
    "simulate.qbm_transition_pdf", "simulate.qou_transition_pdf", "simulate.batch_cdf_tables",
    "tangent.qou_transition_pdf", "tangent.qbm_transition_pdf", "tangent.half_stable_cdf",
    "kernels.series_terms", "verify.qou_transition_pdf", "verify.convergence_study",
    "cli.qou_transition_pdf", "cli.qbm_transition_pdf",
)


class Tracer:
    """Span stacks per thread and counters per (layer, key), merged at exit."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts = defaultdict(float)
        self.missing = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self):
        stack = self._stack()
        return stack[-1]["layer"] if stack else None

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def span(self, layer, fn, args, kwargs, name=None):
        stack = self._stack()
        outer = not any(s["layer"] == layer for s in stack)
        caller = next((s["layer"] for s in reversed(stack) if s["layer"] != layer), None)
        frame = {"layer": layer, "child": 0.0, "k": 0}
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                parent = stack[-1]
                if parent["layer"] != layer:
                    parent["child"] += dt
                else:
                    parent["child"] += frame["child"]
                    parent["k"] = max(parent["k"], frame["k"])
            self.add(f"{layer}.calls", 1)
            self.add(f"{layer}.calls_from.{caller}", 1)
            self.add(f"{layer}.self_s", dt - frame["child"])
            if outer:
                self.add(f"{layer}.busy_s", dt)
        if name == "series_terms" and stack:
            stack[-1]["k"] = max(stack[-1]["k"], int(result))
        if layer == "kernels" and outer:
            points = int(np.size(result))
            self.add("kernels.points", points)
            self.add("kernels.product_terms", points * frame["k"])
            self.add(f"kernels.points_from.{caller}", points)
            if name == "half_stable_cdf":
                self.add("kernels.cdf_points", points)
        if layer == "sampling" and outer:
            if isinstance(result, list):
                self.add("sampling.tables_built", len(result))
            elif type(result).__module__.startswith("qtangent."):
                self.add("sampling.tables_built", 1)
        return result

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, fn, args, kwargs, name)
        traced.__traced__ = True
        return traced

    def install(self, package):
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError:
                self.missing.append(name)
        owners = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    owners[id(obj)] = (layer, name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                owner = owners.get(id(obj)) if inspect.isfunction(obj) else None
                if owner is not None:
                    setattr(mod, attr, self.wrap(owner[0], owner[1], obj))
        for dotted in EXPECTED:
            mod, attr = dotted.split(".")
            if not getattr(getattr(modules.get(mod), attr, None), "__traced__", False):
                self.missing.append(dotted)
        self._patch_pool()
        return modules

    def _patch_pool(self):
        tracer = self
        submit = concurrent.futures.ThreadPoolExecutor.submit
        result = concurrent.futures.Future.result

        def traced_submit(pool, fn, /, *args, **kwargs):
            layer = tracer.current_layer()
            if layer is None:
                return submit(pool, fn, *args, **kwargs)
            return submit(pool, tracer.span, layer, fn, args, kwargs)

        def traced_result(future, timeout=None):
            if tracer.current_layer() is None:
                return result(future, timeout)
            return tracer.span("wait", result, (future, timeout), {})

        concurrent.futures.ThreadPoolExecutor.submit = traced_submit
        concurrent.futures.Future.result = traced_result


def main(argv):
    stats_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    modules = tracer.install("qtangent")
    cli = modules["cli"]
    t0 = time.perf_counter()
    try:
        sys.argv = ["qtangent"] + cli_argv
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "counts": dict(tracer.counts), "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
