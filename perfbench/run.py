"""End-to-end benchmark of the qtangent CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload is a fixed list of
qtangent invocations generated from --seed.  One client runs them one at a
time (a closed loop), each in a fresh process, because users pay a cold
process on every invocation and simulate's table cache lives only as long
as its process.  A pass is one run over the list; passes repeat, at least
three times and until --seconds have elapsed.  The first pass's outputs are
checked (see checks.py); every later pass must reproduce them.  Only the
invocations count as operations: the set-up probes and the checks run
outside the timed passes.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer metrics from passes run through tracer.py,
alternated with untraced passes that give the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3
MIN_PASSES = 3
# Leave room under the 180 s limit for the checks and the last invocation.
DEADLINE_S = 150.0
OP_TIMEOUT_S = 170.0
REPRODUCE_ATOL = 1e-12


@dataclass
class Op:
    """One CLI invocation, run in its own directory.

    ``check(op_dir)`` raises checks.CheckFailed on a wrong output and returns
    counts read from the output (merged into ``counts``).  ``counts`` holds
    the work the invocation does: path_steps, studies or cases.
    """

    argv: list
    check: object
    expect_rc: int = 0
    counts: dict = field(default_factory=dict)
    # False for q-OU simulations: their tables are shared between threads
    # and keyed by the rounded lag, so which step builds a table first (a
    # race) shows in the last bits.  Their paths are compared to
    # REPRODUCE_ATOL instead of byte for byte.
    exact: bool = True


@dataclass
class Workload:
    ops: list
    unit: str  # the key of Op.counts that work_per_s divides by time


def _ints(rng, n):
    return [int(v) for v in rng.integers(1, 2**31 - 1, n)]


def _fmt(x):
    return repr(float(x))


# ------------------------------------------------------------------ workloads
#
# Sizes are chosen so one pass takes 5-8 s on 2 cores; see README.md.

# (q, paths, steps, moment orders checked) on [0, 1].  At q = 0.9 the sample
# means of W_T^4 and W_T^6 hinge on rare values near the support edge: with
# 48 paths about 0.2% and 0.4% of correct runs would land beyond 5 standard
# errors, so q = 0.9 checks E W_T^2 and the terminal law (KS) only.
QBM_RUNS = ((0.0, 64, 40, (2, 4, 6)), (0.5, 80, 30, (2, 4, 6)), (0.9, 48, 15, (2,)))
QBM_JUMPS = (0.5, 1.0, 1.0, 32, 30)  # (q, T, a, paths, steps)
QOU_RUNS = ((0.0, 40, 125), (0.5, 40, 100), (0.9, 40, 60))  # (q, paths, steps) on [0, 20]
QOU_T = 20.0


def qbm_ensemble(rng):
    ops = []
    for (q, paths, steps, orders), seed in zip(QBM_RUNS, _ints(rng, len(QBM_RUNS))):
        def check(d, q=q, steps=steps, orders=orders):
            times, values = checks.load_paths(d / "paths")
            checks.check_time_grid(times, 0.0, 1.0, steps)
            checks.check_qbm_envelope(times, values, q)
            checks.check_qbm_moments(times, values, q, orders)
            if q == 0.0:
                checks.check_semicircle(values[:, -1], 2.0)
            else:
                checks.check_qnormal_law(values[:, -1], q, 1.0)
            return {}
        ops.append(Op(["simulate", "--process", "qbm", "--q", _fmt(q), "--t1", "1",
                       "--steps", str(steps), "--paths", str(paths), "--seed", str(seed),
                       "--output-dir", "paths"], check, counts={"path_steps": paths * steps}))
    q, T, a, paths, steps = QBM_JUMPS
    seed = _ints(rng, 1)[0]

    def check_jumps(d):
        checks.check_jumps(checks.load_result(d / "jumps.json"), q, 0.0, T, a, paths)
        return {}
    ops.append(Op(["jumps", "--q", _fmt(q), "--T", _fmt(T), "--a", _fmt(a), "--paths", str(paths),
                   "--steps", str(steps), "--seed", str(seed), "-o", "jumps.json"],
                  check_jumps, counts={"path_steps": paths * steps}))
    return Workload(ops, "path_steps")


def qou_stationary(rng):
    ops = []
    for (q, paths, steps), seed in zip(QOU_RUNS, _ints(rng, len(QOU_RUNS))):
        def check(d, q=q, steps=steps):
            times, values = checks.load_paths(d / "paths")
            checks.check_time_grid(times, 0.0, QOU_T, steps)
            checks.check_qou_envelope(values, q)
            checks.check_qou_stationary(times, values, q)
            return {}
        ops.append(Op(["simulate", "--process", "qou", "--q", _fmt(q), "--t1", _fmt(QOU_T),
                       "--steps", str(steps), "--paths", str(paths), "--seed", str(seed),
                       "--output-dir", "paths"], check, counts={"path_steps": paths * steps},
                      exact=False))
    return Workload(ops, "path_steps")


DENSITY_POINTS = 2001


def tangent_grid(rng):
    def check_suite(d):
        rows = checks.load_result(d / "tangent.json")
        checks.check_tangent_report(rows, 65)
        return {"studies": len(rows)}
    ops = [Op(["verify", "--suite", "tangent", "-o", "tangent.json"], check_suite)]

    def study(argv, verdict, rc):
        def check(d):
            checks.check_tangent_study(checks.load_result(d / "study.json"), verdict)
            return {"studies": 1}
        return Op(["tangent"] + argv + ["-o", "study.json"], check, expect_rc=rc)

    x5 = rng.uniform(-0.6, 0.6) * 2.0 / math.sqrt(0.5)
    ops.append(study(["--case", "qbm_boundary", "--q", "0.9", "--s", _fmt(rng.uniform(0.5, 2.0))],
                     "pass", 0))
    ops.append(study(["--case", "qou_interior", "--q", "0.5", "--x", _fmt(x5),
                      "--wrong-scale", "1"], "fail", 2))

    # q = 0 q-OU density, checked against the free Mehler kernel too
    delta, x = rng.uniform(0.1, 0.6), rng.uniform(-1.4, 1.4)

    def check_qou(d):
        y, pdf = checks.load_density(d / "density.csv")
        checks.check_qou_density(y, pdf, 0.0, delta, x)
        checks.check_free_mehler(y, pdf, delta, x)
        return {}
    ops.append(Op(["density", "--process", "qou", "--q", "0.0", "--delta", _fmt(delta), "--x", _fmt(x),
                   "--grid", f"-2.0:2.0:{DENSITY_POINTS}", "-o", "density.csv"], check_qou))
    q, t1 = 0.9, rng.uniform(0.5, 2.0)
    t2 = t1 * (1.0 + rng.uniform(0.3, 1.0))
    y1 = rng.uniform(-0.7, 0.7) * 2.0 * math.sqrt(t1 / (1.0 - q))
    radius = 2.0 * math.sqrt(t2 / (1.0 - q))

    def check_qbm(d):
        y, pdf = checks.load_density(d / "density.csv")
        checks.check_qbm_density(y, pdf, q, t1, t2, y1)
        return {}
    ops.append(Op(["density", "--process", "qbm", "--q", _fmt(q), "--t1", _fmt(t1), "--t2", _fmt(t2),
                   "--y1", _fmt(y1), "--grid", f"{_fmt(-radius)}:{_fmt(radius)}:{DENSITY_POINTS}",
                   "-o", "density.csv"], check_qbm))
    return Workload(ops, "studies")


VERIFY_SAMPLES = {"kernels": 15, "freeprob": 50}


def verify_quadrature(rng):
    ops = []
    for suite, seed in zip(("kernels", "freeprob"), _ints(rng, 2)):
        def check(d, suite=suite):
            rows = checks.load_result(d / "report.json")
            if suite == "kernels":
                checks.check_kernels_report(rows)
            else:
                checks.check_freeprob_report(rows)
            return {"rows": len(rows), "cases": sum(int(r["samples"]) for r in rows)}
        ops.append(Op(["verify", "--suite", suite, "--samples", str(VERIFY_SAMPLES[suite]),
                       "--seed", str(seed), "-o", "report.json"], check))
    return Workload(ops, "cases")


WORKLOADS = {
    "qbm_ensemble": qbm_ensemble,
    "qou_stationary": qou_stationary,
    "tangent_grid": tangent_grid,
    "verify_quadrature": verify_quadrature,
}


# ------------------------------------------------------------------ running


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd, cwd, timeout):
    """Run cmd to completion; returns (exit code, wall seconds, peak RSS in MiB)."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdout=out, stderr=err)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, time.perf_counter() - t0, 0.0
        wall = time.perf_counter() - t0
    # ru_maxrss of the largest child waited for so far, in KiB on Linux
    return proc.returncode, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _digest(directory):
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name in ("stderr", "trace.json"):
            continue
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(directory)).encode() + b"\0" + data)
    return h.hexdigest(), size


class Runner:
    def __init__(self, workload, run_dir, started):
        self.workload = workload
        self.run_dir = run_dir
        self.started = started
        self.attempted = 0
        self.failures = []  # invocations that exited with an unexpected code
        self.errors = []  # wrong outputs of invocations that did not fail
        self.reference = None  # per-op output fingerprints of the first pass
        self.peak_rss = 0.0
        self.passes = 0

    def run_pass(self, traced):
        """Run every op once; returns per-op records."""
        pass_dir = self.run_dir / f"pass{self.passes}"
        self.passes += 1
        records = []
        for i, op in enumerate(self.workload.ops):
            d = pass_dir / f"op{i}"
            d.mkdir(parents=True)
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), "trace.json"] + op.argv
            else:
                cmd = [sys.executable, "-m", "qtangent.cli"] + op.argv
            remaining = OP_TIMEOUT_S - (time.perf_counter() - self.started)
            self.attempted += 1
            rc, wall, rss = _spawn(cmd, d, max(remaining, 1.0))
            self.peak_rss = max(self.peak_rss, rss)
            ok = rc == op.expect_rc
            if not ok:
                tail = (d / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
                self.failures.append(f"op {i} {' '.join(op.argv[:3])}: exit {rc}, "
                                   f"expected {op.expect_rc} {tail}")
            stats = None
            if traced and (d / "trace.json").exists():
                stats = json.loads((d / "trace.json").read_text())
            records.append({"ok": ok, "wall": wall, "dir": d, "stats": stats})
        self._check(records)
        shutil.rmtree(pass_dir)
        return records

    def _check(self, records):
        prints = []
        for i, (op, rec) in enumerate(zip(self.workload.ops, records)):
            digest, rec["bytes"] = _digest(rec["dir"])
            if not rec["ok"]:
                prints.append(None)
                continue
            try:
                if self.reference is None:
                    op.counts.update(op.check(rec["dir"]) or {})
                prints.append(digest if op.exact else checks.load_paths(rec["dir"] / "paths")[1])
            except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                self.errors.append(f"op {i} {' '.join(op.argv[:3])}: {exc}")
                prints.append(None)
        if self.reference is None:
            self.reference = prints
            return
        for i, (ref, new) in enumerate(zip(self.reference, prints)):
            if ref is None or new is None:
                continue
            if isinstance(ref, str):
                same = ref == new
            else:
                same = ref.shape == new.shape and np.allclose(ref, new, rtol=0.0, atol=REPRODUCE_ATOL)
            if not same:
                self.errors.append(f"op {i} {' '.join(self.workload.ops[i].argv[:3])}: "
                                   "output differs from the first pass (same argv and seed)")

    def elapsed(self):
        return time.perf_counter() - self.started


def setup_time(run_dir):
    """Median wall time of a fresh process importing qtangent and starting its parser."""
    times = []
    d = run_dir / "setup"
    d.mkdir(parents=True)
    for _ in range(SETUP_PROBES):
        rc, wall, _ = _spawn([sys.executable, "-m", "qtangent.cli", "--version"], d, 60.0)
        if rc != 0 or b"qtangent" not in (d / "stdout").read_bytes():
            raise SystemExit("qtangent --version failed: "
                             + (d / "stderr").read_text(errors="replace").strip()[-400:])
        times.append(wall)
    return statistics.median(times)


def _work_rate(workload, records):
    unit = workload.unit
    work = sum(op.counts.get(unit, 0) for op, r in zip(workload.ops, records) if r["ok"])
    busy = sum(r["wall"] for op, r in zip(workload.ops, records) if r["ok"] and op.counts.get(unit))
    return work / busy if busy > 0 else 0.0


def end_to_end(runner, seconds, setup_s):
    walls, rates = [], []
    start = runner.elapsed()
    while runner.passes < MIN_PASSES or (runner.elapsed() - start < seconds
                                         and runner.elapsed() < DEADLINE_S):
        records = runner.run_pass(traced=False)
        walls.append(sum(r["wall"] for r in records))
        rates.append(_work_rate(runner.workload, records))
        print(f"pass {len(walls)}: {walls[-1]:.3f} s  ops "
              + " ".join(f"{r['wall']:.3f}" for r in records), file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mib": (runner.peak_rss, "MiB"),
    }


def _layer_metrics(workload, records):
    c = {}
    for rec in records:
        for key, value in (rec["stats"] or {}).get("counts", {}).items():
            c[key] = c.get(key, 0.0) + value
    g = lambda key: c.get(key, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    total = {}
    for op in workload.ops:
        for key, value in op.counts.items():
            total[key] = total.get(key, 0) + value
    steps = total.get("path_steps", 0)
    return {
        "kernels.calls": (g("kernels.calls"), "count"),
        "kernels.points": (g("kernels.points"), "count"),
        "kernels.busy_s": (g("kernels.busy_s"), "s"),
        "kernels.ns_per_point": (1e9 * ratio(g("kernels.busy_s"), g("kernels.points")), "ns"),
        "kernels.us_per_call": (1e6 * ratio(g("kernels.busy_s"), g("kernels.calls")), "us"),
        "kernels.product_terms": (g("kernels.product_terms"), "count"),
        "qspecial.product_len": (ratio(g("kernels.product_terms"), g("kernels.points")), "terms"),
        "sampling.tables_built": (g("sampling.tables_built"), "count"),
        "sampling.busy_s": (g("sampling.busy_s"), "s"),
        "sampling.us_per_table": (1e6 * ratio(g("sampling.busy_s"), g("sampling.tables_built")), "us"),
        "simulate.path_steps": (steps, "count"),
        "simulate.table_reuse": (1.0 - ratio(g("sampling.tables_built"), steps) if steps else 0.0,
                                 "ratio"),
        "simulate.self_s": (g("simulate.self_s"), "s"),
        "simulate.kernel_points_per_step": (ratio(g("kernels.points_from.simulate"), steps), "count"),
        "tangent.studies": (total.get("studies", 0), "count"),
        "tangent.grid_points": (g("kernels.points_from.tangent") - g("kernels.cdf_points"), "count"),
        "tangent.cdf_points": (g("kernels.cdf_points"), "count"),
        "tangent.self_s": (g("tangent.self_s"), "s"),
        "freeprob.calls": (g("freeprob.calls"), "count"),
        "freeprob.self_s": (g("freeprob.self_s"), "s"),
        "verify.rows": (total.get("rows", 0), "count"),
        "verify.integrand_calls": (g("kernels.calls_from.verify"), "count"),
        "verify.self_s": (g("verify.self_s"), "s"),
        "cli.self_s": (g("cli.self_s"), "s"),
        "cli.bytes_written": (sum(r["bytes"] for r in records), "B"),
        "trace.wall_s": (sum((r["stats"] or {}).get("wall_s", 0.0) for r in records), "s"),
        "trace.missing_wrappers": (max(len((r["stats"] or {}).get("missing", [])) for r in records),
                                   "count"),
    }


def per_layer(runner, seconds):
    plain, traced, layers = [], [], []
    start = runner.elapsed()
    while not traced or (runner.elapsed() - start < seconds and runner.elapsed() < DEADLINE_S):
        plain.append(sum(r["wall"] for r in runner.run_pass(traced=False)))
        records = runner.run_pass(traced=True)
        traced.append(sum(r["wall"] for r in records))
        layers.append(_layer_metrics(runner.workload, records))
        missing = {m for r in records for m in (r["stats"] or {}).get("missing", [])}
        if missing:
            print(f"trace: wrappers missing: {', '.join(sorted(missing))}", file=sys.stderr)
    out = {name: (statistics.median(m[name][0] for m in layers), layers[0][name][1])
           for name in layers[0]}
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qtangent" / "cli.py").is_file():
        print(f"qtangent sources not found under {SRC}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    runner = Runner(workload, run_dir, started)
    try:
        setup_s = setup_time(run_dir)
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for err in runner.failures + runner.errors:
        print(f"FAIL {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
