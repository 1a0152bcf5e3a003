"""Discretized cadlag trajectories of q-OU and q-BM by exact transition sampling,
and the jump/moment statistics with closed-form counterparts.

Both processes run as one q-OU chain.  q-BM is the time-changed q-OU
process, W_{e^{2t}} = e^t X_t: its step t1 -> t2 is a q-OU step of lag
log(t2/t1)/2 in the state W/sqrt(t), a step from t = 0 is an infinite lag
(the q-normal law), and the values written are sqrt(t) X.

Every draw goes through ``_draw``, one batch over all paths per grid step.
An infinite lag draws from one shared q-normal row.  A finite lag rounds the
states to a lattice whose step is 1e-3 of the kernel's core width at x = 0,
so rounding moves a drawn law by at most 5e-4 of that width (a larger share
of the narrower core near the support edge).  It then deduplicates the
states, evaluates the kernel once on the (states x nodes x Gauss points)
array, and every path draws from its state's row through a monotone-cubic
inverse CDF.  An ensemble is one (paths, steps + 1) array of values: row i
consumes stream i of the base seed, and every stage works row by row, so a
path's values do not depend on which other paths share its batch.  A start
is a state or None: None draws from the time-t0 marginal, which for q-BM at
t0 = 0 is the point mass at the origin.  q is a float in (-1, 1), checked by
``kernels.x_plus``, which also gives the q-OU support edge the lattice and
node rows are clamped to.  ``sup_jump_estimate`` reports the jump statistics
as the dict the CLI prints.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCount, InvalidState, InvalidThreshold, InvalidTime, UnknownProcess
from .kernels import _bm_lag, qnormal_pdf, qou_transition_pdf, x_plus
from .sampling import batch_cdf_tables, cheb_nodes, gauss_points, pchip_quantile, stream

__all__ = [
    "TimeGrid",
    "simulate_ensemble",
    "moment4_closed",
    "moment4_estimate",
    "jump_bound",
    "sup_jump_estimate",
]

# Simulation-table settings: kernel values at ~1e-4 relative error (quantile
# interpolation dominates beyond that), 96 sinh-placed nodes per conditional
# with a monotone-cubic quantile, and conditioning states rounded to a lattice
# whose step is 1e-3 of the kernel's core width at x = 0.
_SIM_REL_TOL = 1e-4
_SIM_NODES = 96
_LATTICE = 1e-3


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + i (t1 - t0)/steps, i = 0..steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not 0.0 <= self.t0 < self.t1 < math.inf:
            raise InvalidTime(f"need 0 <= t0 < t1 < inf, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise InvalidTime("need at least one step")

    @property
    def times(self):
        return np.linspace(self.t0, self.t1, self.steps + 1)


def _lag(process, t1, t2):
    """The q-OU lag of the step t1 -> t2: the step itself for q-OU, and for
    q-BM the time change W_{e^{2t}} = e^t X_t (infinite from t1 = 0)."""
    return t2 - t1 if process == "qou" else _bm_lag(t1, t2)


def _conditional_nodes(lo, hi, xs, scales, n_nodes):
    """Per-state node rows, sinh-spaced around the conditioning state.

    sinh placement is linear at the kernel core (width ``scales[i]``, the
    tangent-process scale) and logarithmic out to the support edges, so both
    the spike of a small lag and its heavy flanks are resolved with one
    family.
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    g = np.asarray(scales, dtype=float)[:, None]
    a = np.arcsinh((lo - xs) / g)
    b = np.arcsinh((hi - xs) / g)
    frac = np.linspace(0.0, 1.0, n_nodes)
    rows = xs + g * np.sinh(a + (b - a) * frac[None, :])
    rows[:, 0] = lo
    rows[:, -1] = hi
    return np.clip(rows, lo, hi)


def _draw(q, lag, x, u, n_nodes=_SIM_NODES):
    """q-OU states at lag in (0, inf] from the states x, one uniform of u each.

    An infinite lag draws every entry from the q-normal law (x is ignored)
    through one shared row on 257 Chebyshev nodes.  A finite lag rounds the
    states to a lattice and deduplicates them, then builds one row per state
    on n_nodes sinh-placed nodes around it, at the kernel's core width
    lag c_{q,x} + 4 lag^2/sqrt(1-q) (c_{q,x} = sqrt(4/(1-q) - x^2), the
    tangent-process scale).
    """
    hi = x_plus(q)
    lo = -hi
    if lag == math.inf:
        nodes = cheb_nodes(lo, hi, 257)[None, :]
        cdf = batch_cdf_tables(qnormal_pdf(q, gauss_points(nodes), _SIM_REL_TOL), nodes)
        return pchip_quantile(nodes, cdf, np.zeros(len(u), dtype=np.intp), u)
    width = 2.0 * hi
    second = lag * lag * 4.0 / math.sqrt(1.0 - q)  # second-order part of the core width
    step = _LATTICE * (lag * hi + second)  # c_{q,0} = hi
    # rounding may push a state just past the support edge; clamp back
    states, row = np.unique(np.clip(np.round(x / step) * step, lo, hi), return_inverse=True)
    c = np.sqrt(np.maximum(4.0 / (1.0 - q) - states * states, 0.0))
    scales = np.clip(lag * c + second, width * 1e-9, width / 2.0)
    nodes = _conditional_nodes(lo, hi, states, scales, n_nodes)
    dens = qou_transition_pdf(q, lag, states[:, None], gauss_points(nodes), _SIM_REL_TOL)
    return pchip_quantile(nodes, batch_cdf_tables(dens, nodes), row, u)


def _start(process, q, t0, x0):
    """The start state in q-OU coordinates, None for a q-normal draw; the
    q-BM marginal at t0 = 0 is the origin, so no q-normal row is drawn."""
    if process not in ("qou", "qbm"):
        raise UnknownProcess(f"cannot simulate process {process!r}")
    root = 1.0 if process == "qou" else math.sqrt(t0)
    edge = x_plus(q) * root
    if x0 is not None and not abs(x0) <= edge:
        raise InvalidState(f"x0={x0} outside the time-t0 support [-{edge}, {edge}]")
    if root == 0.0:
        return 0.0
    return None if x0 is None else x0 / root


def simulate_ensemble(process, q, grid: TimeGrid, x0, base_seed, n_paths):
    """(times, values) of n_paths trajectories, sampling each step from the exact kernel.

    x0 is a state in the time-t0 support or None (the time-t0 marginal).
    values has shape (n_paths, steps + 1); row i consumes stream i of
    base_seed and does not depend on n_paths: every stage of a step works
    row by row.  Every process runs as one q-OU chain; q-BM values are
    sqrt(t) times its states.
    """
    if n_paths < 1:
        raise InvalidCount(f"need at least one path, got {n_paths}")
    times = grid.times
    U = np.stack([stream(base_seed, i).random(len(times)) for i in range(n_paths)])
    start = _start(process, q, times[0], x0)
    X = np.empty(U.shape)
    X[:, 0] = _draw(q, math.inf, None, U[:, 0]) if start is None else start
    for j in range(grid.steps):
        X[:, j + 1] = _draw(q, _lag(process, times[j], times[j + 1]), X[:, j], U[:, j + 1])
    values = X if process == "qou" else np.sqrt(times) * X
    if x0 is not None:
        values[:, 0] = x0
    return times, values


def moment4_closed(q, s, t):
    """E (W_t - W_s)^4 = (2+q)(t-s)^2 + 2(1-q) s (t-s) for 0 <= s <= t."""
    if s < 0.0 or t < s:
        raise InvalidTime(f"need 0 <= s <= t, got s={s}, t={t}")
    d = t - s
    return (2.0 + q) * d * d + 2.0 * (1.0 - q) * s * d


def moment4_estimate(q, s, t, n_samples, seed: int):
    """Monte Carlo fourth moment of the increment W_t - W_s with its standard error.

    W_s is drawn from its sqrt(s)-dilated q-normal marginal, then W_t from the
    exact conditional kernel.  Returns (estimate, std_error); std_error is
    inf for a single sample.
    """
    if s < 0.0 or not t > s:
        raise InvalidTime(f"need 0 <= s < t, got s={s}, t={t}")
    if n_samples < 1:
        raise InvalidCount(f"need at least one sample, got {n_samples}")
    gen = stream(seed)
    x_s = np.zeros(n_samples) if s == 0.0 else _draw(q, math.inf, None, gen.random(n_samples))
    # moment estimation weights the tails; finer tables keep the quantile
    # interpolation bias well below the Monte Carlo error
    x_t = _draw(q, _lag("qbm", s, t), x_s, gen.random(n_samples), n_nodes=257)
    d = math.sqrt(t) * x_t - math.sqrt(s) * x_s
    d4 = d ** 4
    est = float(np.mean(d4))
    if n_samples < 2:
        return est, math.inf
    se = float(np.std(d4, ddof=1) / math.sqrt(n_samples))
    return est, se


def jump_bound(q, S, T, a):
    """Closed-form bound (1-q)(T^2 - S^2)/a^4 on P(sup |jump| > a), capped at 1."""
    if S < 0.0 or not T > S:
        raise InvalidTime(f"need 0 <= S < T, got S={S}, T={T}")
    if not a > 0.0:
        raise InvalidThreshold(f"threshold a must be positive, got {a}")
    x_plus(q)  # rejects q outside (-1, 1)
    return min(1.0, (1.0 - q) * (T * T - S * S) / a ** 4)


def sup_jump_estimate(q, S, T, a, n_paths, steps, base_seed: int):
    """Fraction of n_paths q-BM paths on [S, T] whose largest grid increment
    exceeds a, against the closed-form bound, as the dict the CLI prints.

    ``jump_bound`` checks q, the times and a > 0 before any path is drawn.
    Paths start from the time-S marginal (the origin for S = 0); path i
    uses stream i of base_seed.  The grid maximum converges to the supremum
    of the jump sizes as the mesh refines, so the fraction estimates the
    left side of the bound; ``within_bound`` allows three binomial standard
    errors.
    """
    bound = jump_bound(q, S, T, a)
    _, values = simulate_ensemble("qbm", q, TimeGrid(S, T, steps), None, base_seed, n_paths)
    mx = np.max(np.abs(np.diff(values, axis=1)), axis=1)
    count = int(np.sum(mx > a))
    fraction = count / n_paths
    std_error = math.sqrt(max(fraction * (1.0 - fraction), 0.0) / n_paths)
    return {
        "q": q, "S": S, "T": T, "a": a, "paths": n_paths, "steps": steps,
        "exceed_fraction": fraction,
        "exceed_count": count,
        "max_abs_increment": float(np.max(mx)),
        "binomial_std_error": std_error,
        "bound": bound,
        "within_bound": bool(fraction <= bound + 3.0 * std_error),
    }
