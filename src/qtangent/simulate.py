"""Discretized cadlag trajectories of q-OU and q-BM by exact transition sampling,
and the jump/moment statistics with closed-form counterparts.

Both processes run as one q-OU chain: q-BM is the time-changed q-OU process,
W_{e^{2t}} = e^t X_t, so its step t1 -> t2 is a q-OU step of lag
log(t2/t1)/2 in the state W/sqrt(t), and the values written are sqrt(t) X.
A start is a state or None, the time-t0 marginal (for q-BM at t0 = 0 the
origin).  That marginal, a step from t1 = 0 and every lag from 50 on are drawn
at the flat lag 50, the q-normal law to the last bit; ``kernels.x_plus`` checks q.

Every draw is exact rejection sampling (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. II) from the paper's tangent law: the kernel's k = 0
factor is a Cauchy density, the interior tangent law over one step, and
``_Envelope`` bounds the rest of the kernel on bins of the target angle.
Proposal j of path i at step s takes three uniforms (bin, place in the bin,
acceptance) keyed by (seed, i, s, j) (``sampling.uniforms``); a path-step's
value is its first accepted proposal.  Identical states share an envelope
and nothing else is shared, so a path's values depend neither on the other
paths of its batch, nor on how the states are chunked, nor on how many
proposals are tried at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EnvelopeExceeded, InvalidCount, InvalidState, InvalidThreshold, InvalidTime,
                     NonFinite, UnknownProcess)
from .kernels import _bm_lag, _log_moduli, _phi0_u, qou_transition_pdf, series_terms, x_plus
from .sampling import uniforms

__all__ = [
    "TimeGrid",
    "simulate_ensemble",
    "moment4_closed",
    "moment4_estimate",
    "jump_bound",
    "sup_jump_estimate",
]

_SIM_REL_TOL = 1e-4  # the kernel's tolerance; the envelope margin covers it
# Proposals each open row tries at once (_tries): a row's value is its first accepted one, so
# this moves cost, never a value.  At acceptance 0.9-0.97 one each leaves some row open at most
# steps, costing a second kernel and uniforms call.  Measured per path-step, 3 at once over 1:
# 0.6x at 256 rows, 0.85-0.95x at 1,024, 1.0x at 2,048, 1.05-1.16x at 4,096 (q = 0 to 0.9).
_FIRST_TRY, _FEW_ROWS = 3, 1024
_BLOCK = 1 << 14  # most first-try proposals whose uniforms are made in one call
_FLAT_LAG = 50.0  # from this lag on the q-OU kernel is the q-normal density to the last bit
# Most (bin, state) cells of one envelope pass.  At 2^18 glibc's malloc gave back and re-faulted
# a pass's 2 MB temporaries every pass: about 0.5 s of page faults in a 2.7 s criterion 1.
_CELLS = 1 << 17
_BIN_SCALE, _MIN_BINS = 25.0, 32  # equal phi-bins: even, >= _BIN_SCALE/(1 - |q|) and _MIN_BINS
_GRID_PER_BIN = 4  # angle-table points per bin
_MAX_DEPTH = 40  # most halvings of the bin width toward theta
_LOG_MARGIN = 1e-3  # log of the margin on every bound, derived in _Envelope
_FLOOR = 1e-250  # least bound: kernel values near 1e-300 are subnormal, without digits


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
        # near the largest double linspace's step product overflows in its last entry,
        # which it then overwrites with t1: every time it returns is finite
        with np.errstate(over="ignore"):
            return np.linspace(self.t0, self.t1, self.steps + 1)


def _parts(q):
    """(a, Q) of the monotone parts of prod_{k>=1} f(q^k) = prod over parts of
    prod_{j>=0} f(a Q^j): one for q > 0, the even and the odd k (moduli moving in
    opposite directions) for q < 0, none at q = 0, where every factor is 1."""
    if q == 0.0:
        return ()
    return ((q, q),) if q > 0.0 else ((q * q, q * q), (q, q * q))


def _windows(tables, n, width, extreme):
    """Sum over the tables (of parts on the angles g pi/n, g = 0..n) of their extreme
    (np.minimum or np.maximum) over every window of `width` grid points, the angle unfolded
    to g = -n .. 2n + width - 1; entry k is the window from g = k - n.  A part is
    monotone between grid points (it folds at multiples of pi), so the window that
    brackets an interval of angles holds its extremes there."""
    fold = np.abs((np.arange(-n, 2 * n + width) + n) % (2 * n) - n)
    return sum((extreme.reduce([t[fold[i:i + 3 * n + 1]] for i in range(width)]) for t in tables),
               np.zeros(3 * n + 1))


def _from(table, lo, n):
    """The entries of a ``_windows`` table for the windows from the angles lo in [-pi, 2 pi]."""
    return table[np.floor(lo * (n / math.pi)).astype(np.intp) + n]


def _first_above(cum, col, t):
    """For each entry, the first bin j with cum[j, col] > t (the last bin if none), by bisection."""
    flat, n = cum.ravel(), cum.shape[1]
    lo, hi = np.zeros(t.shape, dtype=np.intp), np.full(t.shape, cum.shape[0] - 1, dtype=np.intp)
    for _ in range(cum.shape[0].bit_length()):
        mid = (lo + hi) >> 1
        above = flat[mid * n + col] > t
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid + 1)
    return hi


class _Bins:
    """The equal phi-bins of one q and its tables of N, shared by the envelopes of all lags."""

    def __init__(self, q):
        self.q, self.xp, self.c1, self.parts = q, x_plus(q), 1.0 - q, _parts(q)
        self.n_bins = 2 * max(_MIN_BINS // 2, math.ceil(_BIN_SCALE / (2.0 * (1.0 - abs(q)))))
        self.h, self.n_grid = math.pi / self.n_bins, _GRID_PER_BIN * self.n_bins
        self.alpha = np.linspace(0.0, math.pi, self.n_grid + 1)
        self.numer = [_log_moduli(a, Q, self.alpha) for a, Q in self.parts]
        self.n_most = _windows(self.numer, self.n_grid, 2 * _GRID_PER_BIN + 2, np.maximum)
        self.phi = np.linspace(0.0, math.pi, self.n_bins + 1)
        self.y, self.sq, self.log_n = self.free_bounds(self.phi)

    def free_bounds(self, phi):
        """y at the angles phi (ascending on axis 0) and, per bin between them, the bound
        on 2 sin(phi), the kernel's own sqrt(4 - (1-q) y^2) at the y edge nearest 0
        (its rounded operations are monotone), and the bound on log N."""
        y = self.xp * np.cos(phi)
        ym = np.maximum(np.maximum(y[1:], -y[:-1]), 0.0)
        return (y, np.sqrt(np.clip(4.0 - self.c1 * ym * ym, 0.0, None)),
                _from(self.n_most, 2.0 * phi[:-1], self.n_grid))

    def inside(self, x):
        """x within the support, a state on its edge one ulp inside: the proposal's scale
        sinh(lag) sqrt(x_plus^2 - x^2) stays positive."""
        edge = np.nextafter(self.xp, 0.0)
        return np.clip(x, -edge, edge)


class _Envelope:
    """The rejection envelope of the q-OU kernel at one lag in (0, inf], and its draws.

    With x = x_plus cos(theta), y = x_plus cos(phi) and rho = e^{-lag} the
    kernel is p(y) = c_q (1 + rho) g(y) r(y): g = 1/phi0_u is the Cauchy
    density of location x cosh(lag) and scale sinh(lag) sqrt(x_plus^2 - x^2), and
    r = 2 sin(phi) prod_{k>=1} c_k N_k(phi)/(D_k(theta + phi) D_k(theta - phi)),
    c_k = (1 - rho^2 q^k)(1 - q^k), N_k = |1 - q^k e^{2i phi}|^2,
    D_k(a) = |1 - rho q^k e^{ia}|^2.  A proposal takes a bin with probability
    proportional to its bound on r times its Cauchy mass and a place in it by
    arctan inversion, and is accepted when U bound < r(y), r read from
    ``qou_transition_pdf``.  r above its bound raises EnvelopeExceeded, a fault
    of the bounds, and a non-finite r raises NonFinite.  Long and infinite
    lags are drawn at the flat lag _FLAT_LAG: from there e^{-lag} < 2e-22
    moves the kernel by less than 4 e^{-lag}/(1 - |q|) < 3e-19 relative,
    below its rounding, while the proposal's sinh(lag)^2 would overflow from
    lag 355.

    Bins: B equal phi-bins, B of order 1/(1 - |q|), on which the q-products
    vary; the bins around theta give way to bins with edges
    theta +- h 2^-i, i = 0..J, h = pi/B, down to the proposal's angular scale
    h 2^-J ~ lag.  Bounds: the factors of N and D are moduli |1 - s e^{ia}|^2,
    monotone in |a| on [0, pi], and so is each part (``_parts``) of their
    products, which ``kernels._log_moduli`` tabulates on the angles g pi/4B;
    so a bin's extremes lie among the grid points that bracket its angles
    (``_windows``).  An equal bin spans 4 grid steps at theta + phi and at
    theta - phi, from i0 + 4e and i0 - 4e - 4, i0 = floor(theta 4B/pi): its
    bound depends on theta through i0 alone.  2 sin(phi) is bounded by the
    kernel's own expression at the bin's y edge nearest 0.  No bound is below
    _FLOOR.

    Margin: every bound carries a factor e^{1e-3} for what separates the
    computed r from the tabulated product: the kernel's truncation (the
    factors past K = series_terms(q, 1e-4) have |log| <= 8t, t = |q|^k, at
    most 8|q|^(K+1)/(1-|q|) <= 8e-6 in all, and its q-series cut 1e-6); the
    tables' cut (1e-13); rounding over at most 10^4 factors (1e-11); and the
    angles of rounded states, off by at most 2^-52/sin(angle) <= 1e-8 rad
    within 1e-16 of the edge, where |d log|1 - t e^{ia}|^2/da| <= 2t/(1-t^2)
    sums to under 10^4 over N and both D at |q| <= 0.997 (1e-4).  Together
    below 2e-4.
    """

    def __init__(self, bins, lag):
        lag = min(lag, _FLAT_LAG)
        self.bins, self.lag, self.e1, self.u = bins, lag, math.exp(-lag), -math.expm1(-lag)
        self.scale = math.sqrt(bins.c1) / (2.0 * math.pi) * (1.0 + self.e1)
        # log prod_k c_k: (q; q)_inf from the N tables at angle 0, and (rho^2 q; q)_inf
        self.log_c = _LOG_MARGIN + sum(0.5 * (t[0] + _log_moduli(self.e1 * self.e1 * a, Q, 0.0))
                                       for (a, Q), t in zip(bins.parts, bins.numer))
        # log2(h) - log2(lag), not log2(h / lag): a subnormal lag reaches the kernel's own check
        self.depth = min(_MAX_DEPTH, max(0, math.ceil(math.log2(bins.h) - math.log2(lag))))
        self.n_cells = bins.n_bins + 2 * self.depth + 4
        self.sinh, self.cosh_1 = math.sinh(lag), 2.0 * math.sinh(0.5 * lag) ** 2
        denom = [_log_moduli(self.e1 * a, Q, bins.alpha) for a, Q in bins.parts]
        self.d_least = _windows(denom, bins.n_grid, _GRID_PER_BIN + 2, np.minimum)

    def _rows(self, i0):
        """Bounds on r over the equal bins, (B, U), for theta in the grid cells i0 (U,):
        the bin [e h, (e + 1) h] has theta + phi in the window from i0 + 4e and theta - phi
        in the window from i0 - 4e - 4."""
        bins, steps = self.bins, _GRID_PER_BIN * np.arange(self.bins.n_bins)[:, None]
        log_r = (self.log_c + bins.log_n)[:, None] - self.d_least[(i0 + bins.n_grid) + steps]
        log_r -= self.d_least[(i0 + bins.n_grid - _GRID_PER_BIN) - steps]
        return np.maximum(bins.sq[:, None] * np.exp(log_r), _FLOOR)

    def _cells(self, x):
        """Cumulative weights (bound times Cauchy mass, in a unit of each state's) and
        bounds of the bins of the states x, (bins, S); the y edges of the bins around
        theta; each state's Cauchy scale and location minus x, (S,)."""
        bins, B = self.bins, self.bins.n_bins
        xp, x = bins.xp, bins.inside(x)
        theta = 2.0 * np.arctan2(np.sqrt(xp - x), np.sqrt(xp + x))
        s, cz = self.sinh * np.sqrt((xp - x) * (xp + x)), x * self.cosh_1

        def mass(y):  # pi times the Cauchy mass between neighbouring y (descending), by one atan2
            a = (y - x) - cz
            return np.arctan2(s * (y[:-1] - y[1:]), s * s + a[:-1] * a[1:])
        weight, bound = np.empty((2, self.n_cells, len(x)))
        i0 = np.minimum(np.floor(theta * (bins.n_grid / math.pi)), bins.n_grid).astype(np.intp)
        cells, inv = np.unique(i0, return_inverse=True)  # states sorted by x share cells
        bound[:B] = self._rows(cells)[:, inv]
        weight[:B] = bound[:B] * mass(bins.y[:, None])
        # the bins around theta replace the (at most three) equal bins that hold it
        j = np.minimum(np.floor(theta / bins.h), B - 1).astype(np.intp)
        lo, hi = np.maximum(j - 1, 0), np.minimum(j + 2, B)
        for step in range(3):
            live = lo + step < hi
            weight[lo[live] + step, np.flatnonzero(live)] = 0.0
        offsets = (bins.h * 0.5 ** np.arange(self.depth + 1))[:, None]
        lo, hi = bins.phi[lo], bins.phi[hi]
        phi = np.clip(np.concatenate([[lo], theta - offsets, [theta], theta + offsets[::-1], [hi]]), lo, hi)
        y, sq, log_n = bins.free_bounds(phi)
        log_n += (self.log_c - _from(self.d_least, theta + phi[:-1], bins.n_grid)
                  - _from(self.d_least, theta - phi[1:], bins.n_grid))
        bound[B:] = np.maximum(sq * np.exp(log_n), _FLOOR)
        weight[B:] = bound[B:] * mass(y)
        return np.cumsum(weight, axis=0, out=weight), bound, y, s, cz

    def _try(self, cells, states, col, u):
        """The first accepted of the proposals from the uniforms u (rows, k, 3) for rows at
        the states[col] with their ``_cells``, and whether one was."""
        bins, (cum, bound, y_near, s, cz) = self.bins, cells
        total = cum[-1]
        if not np.all(np.isfinite(total) & (total > 0.0)):
            raise NonFinite(f"rejection envelope at lag {self.lag} has no finite positive mass")
        c2 = col[:, None]
        j = np.minimum(_first_above(cum, c2, u[..., 0] * total[c2]), np.sum(cum < total, axis=0)[c2])
        b = np.minimum(j, bins.n_bins - 1)
        lo, hi, m, v = bins.y[b + 1], bins.y[b], bound[j, c2], u[..., 1]
        k, near = np.maximum(j - bins.n_bins, 0), j >= bins.n_bins
        lo, hi = np.where(near, y_near[k + 1, c2], lo), np.where(near, y_near[k, c2], hi)
        s, cz = s[c2], cz[c2]
        a = (lo - bins.inside(states[c2])) - cz
        # the mass from lo, atan2(s (y - lo), s^2 + a (y - c)), is v times the bin's
        t = np.tan(v * np.arctan2(s * (hi - lo), s * s + a * (a + hi - lo)))
        y = np.clip(lo + t * (s * s + a * a) / (s - a * t), lo, hi)
        r = self.ratio(states[c2], y)
        if not np.all(np.isfinite(r)):
            raise NonFinite(f"acceptance ratio not finite at q={bins.q}, lag={self.lag}")
        if np.any(r > m):
            raise EnvelopeExceeded(f"acceptance ratio above its bound at q={bins.q}, lag={self.lag}")
        accept = u[..., 2] * m < r
        return y[np.arange(len(y)), np.argmax(accept, axis=1)], accept.any(axis=1)

    def ratio(self, x, y):
        """r(y) = p(y) phi0_u(y)/(c_q (1 + rho)) from x: the kernel times its own k = 0
        factor, which so cancels to rounding wherever that factor loses digits."""
        bins = self.bins
        x = bins.inside(x)
        return (qou_transition_pdf(bins.q, self.lag, x, y, _SIM_REL_TOL) / self.scale
                * _phi0_u(bins.c1, self.e1, self.u, x, y, x - y))

    def _propose(self, x, u):
        """The first accepted of each row's proposals from the uniforms u (rows, k, 3) at the states
        x, and whether one was, _CELLS (bin, state) cells at a time over the distinct states."""
        states, inv = np.unique(x, return_inverse=True)
        y, ok = np.empty(len(x)), np.empty(len(x), dtype=bool)
        per = max(1, _CELLS // self.n_cells)
        for lo in range(0, len(states), per):
            chunk, rows = states[lo:lo + per], np.flatnonzero((inv >= lo) & (inv < lo + per))
            y[rows], ok[rows] = self._try(self._cells(chunk), chunk, inv[rows] - lo, u[rows])
        return y, ok

    def draw(self, x, seed, step, u=None):
        """States at the lag from the states x (from 0 at the flat lag: one envelope row): row i
        takes its first accepted proposal j = 0, 1, ..., of uniforms ``uniforms(seed, i, step, j)``,
        open rows trying _tries(rows) at a time; u, if given, holds every row's first (rows, k, 3)."""
        x = x if self.lag < _FLAT_LAG else np.zeros(len(x))
        y, rows, j = np.empty(len(x)), np.arange(len(x)), 0
        while len(rows):
            if j or u is None:
                u = uniforms(seed, rows[:, None], step, j + np.arange(_tries(len(rows))))
            y_try, ok = self._propose(x[rows], u)
            y[rows[ok]] = y_try[ok]
            rows, j = rows[~ok], j + u.shape[1]
        return y


def _tries(rows):
    return _FIRST_TRY if rows <= _FEW_ROWS else 1


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
    values has shape (n_paths, steps + 1); row i takes the uniforms keyed by
    (base_seed, i) and does not depend on n_paths: every stage of a step works
    row by row.  base_seed must lie in [0, 2^64).  Every process runs as one
    q-OU chain; q-BM values are sqrt(t) times its states.
    """
    if n_paths < 1:
        raise InvalidCount(f"need at least one path, got {n_paths}")
    try:
        times, X = grid.times, np.empty((n_paths, grid.steps + 1))
    except ValueError:  # numpy cannot size them: "Maximum allowed size exceeded"
        raise InvalidCount(f"{n_paths} paths of {grid.steps} steps: too many to hold") from None
    start = _start(process, q, times[0], x0)
    repeat = np.flatnonzero(times[1:] <= times[:-1]) if process == "qbm" else ()
    if len(repeat):  # a q-BM step of lag 0; every q-OU step has the lag (t1 - t0)/steps > 0
        raise InvalidTime(f"q-BM grid repeats the time {float(times[repeat[0]])!r}: too many steps")
    series_terms(q, _SIM_REL_TOL)  # a q the kernel refuses exits before _Bins sizes ~1/(1-|q|) bins
    bins, k = _Bins(q), _tries(n_paths)
    # q-OU is time-homogeneous: every step of the grid has one lag and one envelope
    step = _Envelope(bins, (grid.t1 - grid.t0) / grid.steps) if process == "qou" else None
    # every row's first k proposals, for as many steps as _BLOCK proposals hold
    per, paths = max(1, _BLOCK // (n_paths * k)), np.arange(n_paths)[:, None]
    for j in range(len(times)):
        if j % per == 0:
            block = np.arange(j, min(j + per, len(times)))[:, None, None]
            u = uniforms(base_seed, paths, block, np.arange(k))
        if j == 0:
            X[:, 0] = (start if start is not None
                       else _Envelope(bins, math.inf).draw(np.zeros(n_paths), base_seed, 0, u[0]))
        else:
            env = step or _Envelope(bins, _bm_lag(times[j - 1], times[j]))
            X[:, j] = env.draw(X[:, j - 1], base_seed, j, u[j % per])
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

    The increments are those of the one-step q-BM ensemble on [s, t] from the
    time-s marginal (``simulate_ensemble``): sample i is its path i, keyed by
    (seed, i).  Returns (estimate, std_error); std_error is inf for a single
    sample.
    """
    if s < 0.0 or not t > s:
        raise InvalidTime(f"need 0 <= s < t, got s={s}, t={t}")
    if n_samples < 1:
        raise InvalidCount(f"need at least one sample, got {n_samples}")
    _, w = simulate_ensemble("qbm", q, TimeGrid(s, t, 1), None, seed, n_samples)
    d4 = (w[:, 1] - w[:, 0]) ** 4
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
    try:
        return min(1.0, (1.0 - q) * (T * T - S * S) / a ** 4)
    except (OverflowError, ZeroDivisionError):  # a^4 overflows or is 0: divide a factor at a time
        return min(1.0, (1.0 - q) * ((T - S) / a / a) * ((T + S) / a / a))


def sup_jump_estimate(q, S, T, a, n_paths, steps, base_seed: int):
    """Fraction of n_paths q-BM paths on [S, T] whose largest grid increment
    exceeds a, against the closed-form bound, as the dict the CLI prints.

    ``jump_bound`` checks q, the times and a > 0 before any path is drawn.
    Paths start from the time-S marginal (the origin for S = 0); path i
    takes the uniforms keyed by (base_seed, i).  The grid maximum converges
    to the supremum of the jump sizes as the mesh refines, so the fraction
    estimates the left side of the bound; ``within_bound`` allows three
    binomial standard errors.
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
