"""Command-line front end: densities, simulations, tangent studies, jump
statistics and transform-identity verification, emitted as CSV/JSON.

Exit codes: 0 success, 1 usage or validation error, 2 failed verification
verdict (so CI can gate on `qtangent verify` and `qtangent tangent`).
Identical argv and seed produce byte-identical output files; floats are
printed with shortest round-trip representation.  No subcommand loads
scipy: every integral runs through the numpy quadrature in
``qtangent.quadrature``.  simulate, freeprob, tangent and verify are
imported only by the subcommands that use them.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import QTangentError
from .kernels import (
    biane_half_pdf,
    biane_shifted_pdf,
    cauchy_transition_pdf,
    qbm_transition_pdf,
    qnormal_pdf,
    qou_transition_pdf,
)

__all__ = ["main", "parse_and_dispatch"]


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits with code 2 on usage errors; here
    # they are the same one-line message and exit code 1 as every other error
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # accept grid/ladder values like -2:2:401, -.5:1:5 or -inf:1:5 as
        # option arguments, so a bad bound reaches its own parser's message
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(x):
    return repr(float(x))


def _parse_grid(spec):
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise _UsageError(f"grid must be lo:hi:count, got {spec!r}") from exc
    if count < 2 or not -math.inf < lo < hi < math.inf or math.isinf(hi - lo):
        raise _UsageError(f"grid needs finite lo < hi and hi - lo, count >= 2, got {spec!r}")
    return np.linspace(lo, hi, count)


def _parse_ladder(spec):
    try:
        vals = tuple(float(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise _UsageError(f"ladder must be comma-separated floats, got {spec!r}") from exc
    if not all(0.0 < v < math.inf for v in vals):
        raise _UsageError(f"ladder entries must be finite and > 0, got {spec!r}")
    if len(vals) < 2 or any(b >= a for a, b in zip(vals, vals[1:])):
        raise _UsageError("ladder must be strictly decreasing")
    return vals


def _seed(text):
    """An integer seed >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(f"argument --seed: invalid int value: {text!r}") from None
    if value < 0:
        raise _UsageError(f"argument --seed: seed must be >= 0, got {value}")
    return value


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _envelope(command, result):
    return json.dumps(
        {"tool": "qtangent", "version": __version__, "command": command, "result": result},
        indent=2,
    ) + "\n"


def _build_parser():
    parser = _Parser(prog="qtangent", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qtangent {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    d = subs.add_parser("density", help="tabulate a marginal or transition density")
    d.add_argument("--process", required=True,
                   choices=["qnormal", "qou", "qbm", "cauchy", "biane_half",
                            "biane_shifted", "half_stable", "cauchy_marginal"])
    d.add_argument("--q", type=float, help="deformation parameter, |q| <= 0.995")
    d.add_argument("--grid", required=True, help="evaluation grid lo:hi:count")
    d.add_argument("--t", type=float, help="marginal time (half_stable, cauchy_marginal)")
    d.add_argument("--delta", type=float, help="time lag (qou)")
    d.add_argument("--x", type=float, help="conditioning state (qou)")
    d.add_argument("--t1", type=float, help="start time (two-time kernels)")
    d.add_argument("--t2", type=float, help="end time (two-time kernels)")
    d.add_argument("--y1", type=float, help="start state (two-time kernels)")
    d.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    d.add_argument("--format", choices=["csv", "json"], default="csv")

    s = subs.add_parser("simulate", help="sample trajectories by exact transition sampling")
    s.add_argument("--process", required=True, choices=["qou", "qbm"])
    s.add_argument("--q", type=float, required=True, help="deformation parameter, |q| <= 0.997")
    s.add_argument("--t0", type=float, default=0.0)
    s.add_argument("--t1", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--paths", type=int, default=1)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--init", default=None,
                   help="stationary | origin | fixed:X (default stationary: the time-t0 "
                        "marginal, the origin for qbm at t0 = 0; origin needs qbm and t0 = 0)")
    s.add_argument("--output-dir", default=".", help="directory for path_###.csv files")

    t = subs.add_parser("tangent", help="convergence study of a tangent-process limit")
    t.add_argument("--case", required=True,
                   choices=["qou_interior", "qou_boundary", "qbm_interior", "qbm_boundary"])
    t.add_argument("--q", type=float, required=True, help="deformation parameter, |q| <= 0.995")
    t.add_argument("--x", type=float, help="interior location")
    t.add_argument("--s", type=float, help="base time (qbm cases)")
    t.add_argument("--ladder", default="0.2,0.1,0.05,0.02,0.01",
                   help="decreasing eps values, comma separated")
    t.add_argument("--horizon", type=float, default=None,
                   help="window pair-time t2 (default: calibrated per case)")
    t.add_argument("--resolution", type=int, default=2001)
    t.add_argument("--threshold", type=float, default=0.02)
    t.add_argument("--slack", type=float, default=0.10)
    t.add_argument("--coverage", type=float, default=0.99)
    t.add_argument("--wrong-scale", type=float, default=None,
                   help="override the limit scale (negative control)")
    t.add_argument("--output", "-o", default=None)

    j = subs.add_parser("jumps", help="large-jump statistics against the closed-form bound")
    j.add_argument("--q", type=float, required=True, help="deformation parameter, |q| <= 0.997")
    j.add_argument("--S", type=float, default=0.0)
    j.add_argument("--T", type=float, required=True)
    j.add_argument("--a", type=float, required=True, help="jump size threshold")
    j.add_argument("--paths", type=int, default=500)
    j.add_argument("--steps", type=int, default=500)
    j.add_argument("--seed", type=_seed, default=0)
    j.add_argument("--output", "-o", default=None)

    b = subs.add_parser("biane", help="Biane transition transform against the closed kernel")
    b.add_argument("--s", type=float, required=True)
    b.add_argument("--t", type=float, required=True)
    b.add_argument("--x", type=float, required=True)
    b.add_argument("--grid", required=True, help="state grid lo:hi:count (y > 0)")
    b.add_argument("--output", "-o", default=None)
    b.add_argument("--format", choices=["csv", "json"], default="csv")

    v = subs.add_parser("verify", help="run a verification suite; exit 2 on failure")
    v.add_argument("--suite", choices=["freeprob", "kernels", "tangent", "all"],
                   default="all")
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--seed", type=_seed, default=20260808)
    v.add_argument("--output", "-o", default=None)
    return parser


def _cmd_density(args):
    grid = _parse_grid(args.grid)
    proc = args.process
    if proc in ("qnormal", "qou", "qbm") and args.q is None:
        raise _UsageError(f"--q is required for {proc}")
    if proc == "qnormal":
        pdf = qnormal_pdf(args.q, grid)
    elif proc == "qou":
        if args.delta is None or args.x is None:
            raise _UsageError("qou needs --delta and --x")
        pdf = qou_transition_pdf(args.q, args.delta, args.x, grid)
    elif proc == "qbm":
        if args.t1 is None or args.t2 is None or args.y1 is None:
            raise _UsageError("qbm needs --t1, --t2 and --y1")
        pdf = qbm_transition_pdf(args.q, args.t1, args.t2, args.y1, grid)
    elif proc in ("cauchy", "biane_half", "biane_shifted"):
        if args.t1 is None or args.t2 is None or args.y1 is None:
            raise _UsageError(f"{proc} needs --t1, --t2 and --y1")
        fn = {"cauchy": cauchy_transition_pdf, "biane_half": biane_half_pdf,
              "biane_shifted": biane_shifted_pdf}[proc]
        pdf = fn(args.t1, args.t2, args.y1, grid)
    else:
        # the marginals at time t are the kernels started at the origin
        if args.t is None:
            raise _UsageError(f"{proc} needs --t")
        fn = biane_half_pdf if proc == "half_stable" else cauchy_transition_pdf
        pdf = fn(0.0, args.t, 0.0, grid)
    if args.format == "csv":
        _write_text(args.output, _csv(zip(grid, pdf), ["x", "pdf"]))
    else:
        result = {"process": proc, "x": [float(v) for v in grid], "pdf": [float(v) for v in pdf]}
        _write_text(args.output, _envelope("density", result))
    return 0


def _parse_init(args):
    """The start state of --init, or None for the time-t0 marginal."""
    spec = args.init
    if spec is None or spec == "stationary":
        return None
    if spec == "origin":
        if args.process != "qbm" or args.t0 != 0.0:
            raise _UsageError("origin start needs --process qbm and --t0 0")
        return None
    if spec.startswith("fixed:"):
        try:
            return float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise _UsageError(f"fixed start needs a number, got {spec!r}") from exc
    raise _UsageError(f"unknown init {spec!r}; use stationary | origin | fixed:X")


def _cmd_simulate(args):
    from . import simulate as sim

    grid = sim.TimeGrid(args.t0, args.t1, args.steps)
    x0 = _parse_init(args)
    times, values = sim.simulate_ensemble(args.process, args.q, grid, x0, args.seed, args.paths)
    os.makedirs(args.output_dir, exist_ok=True)
    for i, row in enumerate(values):
        name = os.path.join(args.output_dir, f"path_{i:03d}.csv")
        _write_text(name, _csv(zip(times, row), ["t", "value"]))
    sys.stderr.write(f"wrote {len(values)} path files to {args.output_dir}\n")
    return 0


def _check_tangent_flags(args):
    checks = (
        (args.resolution >= 32, f"--resolution must be at least 32, got {args.resolution}"),
        (0.0 < args.threshold < math.inf,
         f"--threshold must be finite and > 0, got {args.threshold}"),
        (0.0 <= args.slack < math.inf, f"--slack must be finite and >= 0, got {args.slack}"),
        (0.0 < args.coverage < 1.0, f"--coverage must lie in (0, 1), got {args.coverage}"),
        (args.horizon is None or 0.0 < args.horizon < math.inf,
         f"--horizon must be finite and > 0, got {args.horizon}"),
        (args.wrong_scale is None or 0.0 < args.wrong_scale < math.inf,
         f"--wrong-scale must be finite and > 0, got {args.wrong_scale}"),
    )
    for ok, message in checks:
        if not ok:
            raise _UsageError(message)


def _cmd_tangent(args):
    from . import tangent as tg

    _check_tangent_flags(args)
    case = tg.TangentCase(args.case, args.q, x=args.x, s=args.s)
    window = tg.default_window(case, coverage=args.coverage, horizon=args.horizon)
    report = tg.convergence_study(
        case, _parse_ladder(args.ladder), window=window, resolution=args.resolution,
        threshold=args.threshold, slack=args.slack, scale_override=args.wrong_scale,
    )
    _write_text(args.output, _envelope("tangent", report))
    return 0 if report["verdict"] == "pass" else 2


def _cmd_jumps(args):
    from . import simulate as sim

    result = sim.sup_jump_estimate(args.q, args.S, args.T, args.a, args.paths, args.steps,
                                   args.seed)
    _write_text(args.output, _envelope("jumps", result))
    return 0


def _cmd_biane(args):
    from . import freeprob

    grid = _parse_grid(args.grid)
    if grid[0] <= 0.0:
        raise _UsageError("biane grid must have lo > 0")
    closed = biane_shifted_pdf(args.s, args.t, args.x, grid)
    inverted = np.array([
        freeprob.stieltjes_invert(lambda z: freeprob.biane_H(args.s, args.t, args.x, z), y)
        for y in grid
    ])
    if args.format == "csv":
        _write_text(args.output,
                    _csv(zip(grid, closed, inverted), ["y", "kernel", "inverted_transform"]))
    else:
        result = {"s": args.s, "t": args.t, "x": args.x,
                  "y": [float(v) for v in grid],
                  "kernel": [float(v) for v in closed],
                  "inverted_transform": [float(v) for v in inverted]}
        _write_text(args.output, _envelope("biane", result))
    return 0


def _cmd_verify(args):
    from . import verify

    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    report = []
    if args.suite in ("freeprob", "all"):
        report += verify.freeprob_verification_report(args.samples, args.seed)
    if args.suite in ("kernels", "all"):
        report += verify.kernels_verification_report(
            n_sets=min(args.samples, 50), n_points=min(2 * args.samples, 100), seed=args.seed)
    if args.suite in ("tangent", "all"):
        report += verify.tangent_verification_report()
    ok = all(row["pass"] for row in report)
    _write_text(args.output, _envelope("verify", report))
    return 0 if ok else 2


_DISPATCH = {
    "density": _cmd_density,
    "simulate": _cmd_simulate,
    "tangent": _cmd_tangent,
    "jumps": _cmd_jumps,
    "biane": _cmd_biane,
    "verify": _cmd_verify,
}


def parse_and_dispatch(argv):
    """Parse argv (without the program name) and run; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (_UsageError, QTangentError) as exc:
        sys.stderr.write(f"qtangent: error: {exc}\n")
        return 1


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
