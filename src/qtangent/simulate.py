"""Discretized cadlag trajectories of q-OU and q-BM by exact transition sampling,
the deterministic transform between the two processes, and the jump/moment
statistics with closed-form counterparts.

Every grid step is one batch over all paths: the states are quantized to
1e-4 of the support width (the quantization error is second order against
the table interpolation error) and deduplicated, the transition kernel is
evaluated once on the (states x nodes x Gauss points) array, and every path
draws from its state's row through a monotone-cubic inverse CDF.  Path i
consumes stream_index i of the base seed, and every stage works row by row,
so a path's values do not depend on which other paths share its batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCount, InvalidInit, InvalidThreshold, InvalidTime, UnknownProcess
from .kernels import qbm_transition_pdf, qnormal_pdf, qou_transition_pdf
from .qspecial import QParams, TruncationPolicy
from .sampling import SeedSpec, batch_cdf_tables, cheb_nodes, gauss_points, pchip_quantile

__all__ = [
    "TimeGrid",
    "PathSample",
    "JumpStats",
    "Stationary",
    "Origin",
    "Fixed",
    "simulate_path",
    "simulate_ensemble",
    "ou_to_bm",
    "bm_to_ou",
    "moment4_closed",
    "moment4_estimate",
    "jump_bound",
    "sup_jump_estimate",
    "max_increments",
]

# Simulation-table settings: kernel values at ~1e-4 relative error (quantile
# interpolation dominates beyond that), 96 sinh-placed nodes per conditional
# with a monotone-cubic quantile, 4-point Gauss-Legendre interval masses.
_SIM_POLICY = TruncationPolicy(rel_tol=1e-4)
_SIM_NODES = 96
_SIM_GL = 4
_QUANTUM = 1e-4


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


@dataclass(frozen=True)
class Stationary:
    """Start from the marginal law: the q-normal for q-OU, its sqrt(t0)
    dilation for q-BM at t0 > 0."""


@dataclass(frozen=True)
class Origin:
    """Start at 0 at time t0 = 0 (q-BM only)."""


@dataclass(frozen=True)
class Fixed:
    """Start at a fixed admissible state."""

    x: float


@dataclass(frozen=True)
class PathSample:
    """Discretized cadlag trajectory skeleton with its provenance."""

    process: str
    q: float
    times: np.ndarray
    values: np.ndarray
    seed: SeedSpec
    init: str = ""

    def increments(self):
        return np.diff(self.values)


@dataclass(frozen=True)
class JumpStats:
    """Ensemble statistics of the largest grid increment per path."""

    max_abs_increment: float
    threshold: float
    exceed_count: int
    ensemble_size: int

    @property
    def exceed_fraction(self):
        return self.exceed_count / self.ensemble_size

    @property
    def binomial_std_error(self):
        f = self.exceed_fraction
        return math.sqrt(max(f * (1.0 - f), 0.0) / self.ensemble_size)


def _stationary_draw(p: QParams, u, n_nodes=257, policy=_SIM_POLICY):
    """q-normal samples at the uniforms u (Chebyshev nodes, 8-point Gauss masses)."""
    nodes = cheb_nodes(p.x_minus, p.x_plus, n_nodes)[None, :]
    cdf = batch_cdf_tables(qnormal_pdf(p, gauss_points(nodes), policy), nodes)
    return pchip_quantile(nodes, cdf, np.zeros(len(u), dtype=np.intp), u)


def _core_scales(process, p, t1, t2, x):
    """Width of the transition kernel's core around each conditioning state x.

    Small time steps concentrate the kernel in a near-Cauchy spike of scale
    ~ c_{q,x} * step (the tangent-process scale), which uniform node grids
    cannot resolve; node placement uses this to cluster around x.  Returns
    None when the kernel is support-wide (start from the origin).
    """
    q = p.q
    if process == "qou":
        d, xi, outer = t2 - t1, x, 1.0
    elif t1 == 0.0:
        return None
    else:
        # q-BM via the deterministic OU time change: step 0.5 log(t2/t1) at x/sqrt(t1)
        d, xi, outer = 0.5 * math.log(t2 / t1), x / math.sqrt(t1), math.sqrt(t2)
    c = np.sqrt(np.maximum(4.0 / (1.0 - q) - xi * xi, 0.0))
    return outer * (d * c + d * d * 4.0 / math.sqrt(1.0 - q))


def _conditional_nodes(lo, hi, xs, scales, n_nodes):
    """Per-state node rows, sinh-spaced around the conditioning state.

    sinh placement is linear at the kernel core (width ``scales[i]``, the
    tangent-process scale) and logarithmic out to the support edges, so both
    the spike of a small time step and its heavy flanks are resolved with
    one family.  Falls back to Chebyshev nodes for support-wide kernels.
    """
    if scales is None:
        return np.broadcast_to(cheb_nodes(lo, hi, n_nodes), (len(xs), n_nodes)).copy()
    xs = np.asarray(xs, dtype=float)[:, None]
    g = np.asarray(scales, dtype=float)[:, None]
    a = np.arcsinh((lo - xs) / g)
    b = np.arcsinh((hi - xs) / g)
    frac = np.linspace(0.0, 1.0, n_nodes)
    rows = xs + g * np.sinh(a + (b - a) * frac[None, :])
    rows[:, 0] = lo
    rows[:, -1] = hi
    return np.clip(rows, lo, hi)


def _step(process, p, t1, t2, x, u, n_nodes=_SIM_NODES, policy=_SIM_POLICY):
    """Draw the time-t2 state of every path from its time-t1 state x, one uniform each."""
    if process == "qou":
        b1 = hi = p.x_plus
    elif process == "qbm":
        b1 = 2.0 * math.sqrt(t1 / (1.0 - p.q))
        hi = 2.0 * math.sqrt(t2 / (1.0 - p.q))
    else:
        raise UnknownProcess(f"cannot simulate process {process!r}")
    width = 2.0 * hi
    quantum = _QUANTUM * width
    # rounding may push a state just past its support bound; clamp back
    xq = np.clip(np.round(x / quantum) * quantum, -b1, b1)
    states, row = np.unique(xq, return_inverse=True)
    scales = _core_scales(process, p, t1, t2, states)
    if scales is not None:
        scales = np.clip(scales, width * 1e-9, width / 2.0)
    nodes = _conditional_nodes(-hi, hi, states, scales, n_nodes)
    pts = gauss_points(nodes, _SIM_GL)
    if process == "qou":
        dens = qou_transition_pdf(p, t2 - t1, states[:, None], pts, policy)
    else:
        dens = qbm_transition_pdf(p, t1, t2, states[:, None], pts, policy)
    cdf = batch_cdf_tables(dens, nodes, order=_SIM_GL)
    return pchip_quantile(nodes, cdf, row, u)


def _initial_states(process, p, t0, init, u0):
    if process == "qou":
        if isinstance(init, Stationary):
            return _stationary_draw(p, u0), "stationary"
        if isinstance(init, Fixed):
            if not abs(init.x) <= p.x_plus:
                raise InvalidInit(f"x={init.x} outside [{p.x_minus}, {p.x_plus}]")
            return np.full_like(np.asarray(u0, dtype=float), init.x), f"fixed:{init.x}"
        raise InvalidInit("q-OU accepts Stationary or Fixed initial conditions")
    if process == "qbm":
        if isinstance(init, Origin):
            if t0 != 0.0:
                raise InvalidInit("Origin start requires t0 = 0")
            return np.zeros_like(np.asarray(u0, dtype=float)), "origin"
        if isinstance(init, Stationary):
            # time-t0 marginal of the origin-started process: sqrt(t0)-dilated q-normal
            if t0 <= 0.0:
                raise InvalidInit("marginal q-BM start requires t0 > 0")
            return math.sqrt(t0) * _stationary_draw(p, u0), "marginal"
        if isinstance(init, Fixed):
            if t0 <= 0.0:
                raise InvalidInit("Fixed q-BM start requires t0 > 0")
            b = 2.0 * math.sqrt(t0 / (1.0 - p.q))
            if not abs(init.x) <= b:
                raise InvalidInit(f"x={init.x} outside the time-t0 support [-{b}, {b}]")
            return np.full_like(np.asarray(u0, dtype=float), init.x), f"fixed:{init.x}"
        raise InvalidInit("q-BM accepts Origin, Stationary (marginal) or Fixed starts")
    raise UnknownProcess(f"cannot simulate process {process!r}")


def _simulate(process, p, grid, init, seeds):
    times = grid.times
    U = np.stack([s.generator().random(len(times)) for s in seeds])
    values = np.empty(U.shape)
    values[:, 0], init_label = _initial_states(process, p, times[0], init, U[:, 0])
    for j in range(grid.steps):
        values[:, j + 1] = _step(process, p, times[j], times[j + 1], values[:, j], U[:, j + 1])
    return [PathSample(process, p.q, times, v, s, init_label) for v, s in zip(values, seeds)]


def simulate_path(process, p: QParams, grid: TimeGrid, init, seed: SeedSpec):
    """One trajectory, sampling each step from the exact transition kernel."""
    return _simulate(process, p, grid, init, [seed])[0]


def simulate_ensemble(process, p: QParams, grid: TimeGrid, init, base_seed, n_paths):
    """n_paths trajectories; path i uses stream_index i of base_seed.

    Path i equals simulate_path(..., SeedSpec(base_seed, i)) bit for bit,
    whatever n_paths is: every stage of a step works row by row.
    """
    if n_paths < 1:
        raise InvalidCount(f"need at least one path, got {n_paths}")
    seeds = [SeedSpec(base_seed, i) for i in range(n_paths)]
    return _simulate(process, p, grid, init, seeds)


def ou_to_bm(path: PathSample):
    """Map an OU path onto a BM path via W_{e^{2t}} = e^t X_t (non-uniform grid)."""
    if path.process != "qou":
        raise UnknownProcess("ou_to_bm expects a q-OU path")
    times = np.exp(2.0 * path.times)
    values = np.exp(path.times) * path.values
    return PathSample("qbm", path.q, times, values, path.seed, path.init)


def bm_to_ou(path: PathSample):
    """Inverse transform X_t = e^{-t} W_{e^{2t}}; requires all times > 0."""
    if path.process != "qbm":
        raise UnknownProcess("bm_to_ou expects a q-BM path")
    if np.any(path.times <= 0.0):
        raise InvalidTime("bm_to_ou needs strictly positive times")
    t = 0.5 * np.log(path.times)
    values = path.values / np.sqrt(path.times)
    return PathSample("qou", path.q, t, values, path.seed, path.init)


def moment4_closed(q, s, t):
    """E (W_t - W_s)^4 = (2+q)(t-s)^2 + 2(1-q) s (t-s) for 0 <= s <= t."""
    if s < 0.0 or t < s:
        raise InvalidTime(f"need 0 <= s <= t, got s={s}, t={t}")
    d = t - s
    return (2.0 + q) * d * d + 2.0 * (1.0 - q) * s * d


def moment4_estimate(q, s, t, n_samples, seed: SeedSpec):
    """Monte Carlo fourth moment of the increment W_t - W_s with its standard error.

    W_s is drawn from its sqrt(s)-dilated q-normal marginal, then W_t from the
    exact conditional kernel.  Returns (estimate, std_error); std_error is
    inf for a single sample.
    """
    if s < 0.0 or not t > s:
        raise InvalidTime(f"need 0 <= s < t, got s={s}, t={t}")
    if n_samples < 1:
        raise InvalidCount(f"need at least one sample, got {n_samples}")
    p = QParams(q)
    gen = seed.generator()
    if s == 0.0:
        w_s = np.zeros(n_samples)
    else:
        w_s = math.sqrt(s) * _stationary_draw(p, gen.random(n_samples))
    # moment estimation weights the tails; finer tables keep the quantile
    # interpolation bias well below the Monte Carlo error
    d = _step("qbm", p, s, t, w_s, gen.random(n_samples), n_nodes=257) - w_s
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
    return min(1.0, (1.0 - q) * (T * T - S * S) / a ** 4)


def max_increments(q, S, T, n_paths, steps, seed_base):
    """Largest absolute grid increment of each of n_paths q-BM paths on [S, T].

    Paths start at the origin for S = 0 and from the time-S marginal otherwise.
    """
    p = QParams(q)
    grid = TimeGrid(S, T, steps)
    init = Origin() if S == 0.0 else Stationary()
    paths = simulate_ensemble("qbm", p, grid, init, seed_base, n_paths)
    return np.array([np.max(np.abs(path.increments())) for path in paths])


def sup_jump_estimate(q, S, T, a, n_paths, steps, seed: SeedSpec):
    """Fraction of simulated paths whose largest grid increment exceeds a.

    The grid maximum converges to the supremum of the jump sizes as the mesh
    refines, so this estimates the left side of the closed-form jump bound.
    """
    if not a >= 0.0:
        raise InvalidThreshold(f"threshold a must be nonnegative, got {a}")
    mx = max_increments(q, S, T, n_paths, steps, seed.base_seed)
    exceed = int(np.sum(mx > a))
    return JumpStats(float(np.max(mx)), a, exceed, n_paths)
