"""Numerical verification of the tangent-process limits: exact rescaled
transition densities at finite epsilon against their closed-form limits.

Four cases are covered.  Interior points of the q-OU state space rescale with
beta = 1 to a Cauchy process scaled by c = sqrt(4/(1-q) - x^2); interior
points of the q-BM support rescale to a drifted Cauchy process; the left
boundary points rescale with beta = 2 to affine images of the 1/2-stable
Biane process.

Convergence is measured as an L1 distance between the rescaled and the limit
density over a window carrying >= 99% of the limit mass, on a grid that mixes
uniform nodes with limit-quantile nodes (the half-stable limits concentrate
near their support edge and carry heavy tails; uniform grids resolve
neither).  The half-stable quantiles come in closed form from
``kernels.half_stable_quantile`` (Kepler's equation).  Where the rescaled
target coordinate falls outside the state space the exact density is 0 and
is integrated as such, so every rung of an epsilon ladder is measured on the
same window and the distances are comparable.

A study builds the window grid once and evaluates the whole ladder in one
kernel call: the rungs enter as an (R, 1) column of eps that broadcasts
against the grid, and each row equals the one-rung evaluation bit for bit.

The window's time horizon defaults to a q-scaled value: the finite-epsilon
corrections of the exact kernels enter through eps * t2 (the limits are
self-similar, so the horizon is a pure convention), with constants that grow
like 1/(1-q).  The defaults below were calibrated once so the standard
ladder {0.2 ... 0.01} reaches its asymptotic regime for every |q| <= 0.9;
each report records the horizon used.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCount, InvalidState, InvalidTime, OutOfSupport, UnknownProcess
from .kernels import (
    biane_half_pdf,
    cauchy_transition_pdf,
    half_stable_quantile,
    qbm_transition_pdf,
    qou_transition_pdf,
)
from .qspecial import QParams

__all__ = [
    "TangentCase",
    "Window",
    "ConvergenceReport",
    "rescaled_pdf",
    "limit_pdf",
    "distance",
    "convergence_study",
    "default_window",
]

_CASES = ("qou_interior", "qou_boundary", "qbm_interior", "qbm_boundary")


@dataclass(frozen=True)
class TangentCase:
    """One tangent-process scenario: which theorem, at which (q, s, x)."""

    case: str
    q: float
    x: float = None
    s: float = None

    def __post_init__(self):
        if self.case not in _CASES:
            raise UnknownProcess(f"unknown tangent case {self.case!r}")
        p = QParams(self.q)
        if self.case.startswith("qbm"):
            if self.s is None or not 0.0 < self.s < math.inf:
                raise InvalidTime("q-BM cases need a finite base time s > 0")
        if self.case == "qou_interior":
            if self.x is None or not abs(self.x) < p.x_plus:
                raise InvalidState("interior case needs x strictly inside (x_minus, x_plus)")
        elif self.case == "qbm_interior":
            half = 2.0 * math.sqrt(self.s / (1.0 - self.q))
            if self.x is None or not abs(self.x) < half:
                raise InvalidState(f"interior case needs |x| < {half}")
        elif self.case == "qou_boundary":
            object.__setattr__(self, "x", p.x_minus)
        else:
            object.__setattr__(self, "x", -2.0 * math.sqrt(self.s / (1.0 - self.q)))

    @property
    def params(self):
        return QParams(self.q)

    def limit_scale(self):
        """Multiplicative constant of the limiting process."""
        if self.case == "qou_interior":
            return math.sqrt(4.0 / (1.0 - self.q) - self.x * self.x)
        if self.case == "qbm_interior":
            return math.sqrt(4.0 * self.s / (1.0 - self.q) - self.x * self.x) / (2.0 * self.s)
        if self.case == "qou_boundary":
            return 4.0 / math.sqrt(1.0 - self.q)
        # 1/(s^1.5 sqrt(1-q)) without the OverflowError of s ** 1.5 at large s
        return math.sqrt((1.0 - self.q) / self.s) / (self.s * (1.0 - self.q))

    def drift(self):
        """Linear drift of the limit (qbm_interior only, else 0)."""
        if self.case == "qbm_interior":
            return self.x / (2.0 * self.s)
        return 0.0


@dataclass(frozen=True)
class Window:
    """Comparison window: fixed pair times, pinned y1, and a finite y2 range."""

    t1: float
    t2: float
    y1: float
    y2_lo: float
    y2_hi: float
    coverage: float = 0.99

    def __post_init__(self):
        if not self.t2 > self.t1 >= 0.0:
            raise InvalidTime("window needs 0 <= t1 < t2")
        if not self.y2_hi > self.y2_lo:
            raise InvalidState("window needs y2_lo < y2_hi")


@dataclass(frozen=True)
class ConvergenceReport:
    """Ladder of (eps, L1, sup) distances with the pass/fail verdict."""

    case: TangentCase
    window: Window
    ladder: tuple
    verdict: bool
    threshold: float
    slack: float
    scale_override: float = None

    def to_dict(self):
        d = {
            "case": self.case.case,
            "q": self.case.q,
            "s": self.case.s,
            "x": self.case.x,
            "window": {
                "t1": self.window.t1,
                "t2": self.window.t2,
                "y1": self.window.y1,
                "y2": [self.window.y2_lo, self.window.y2_hi],
                "coverage": self.window.coverage,
            },
            "ladder": [{"eps": e, "l1": l1, "sup": sup} for (e, l1, sup) in self.ladder],
            "verdict": "pass" if self.verdict else "fail",
            "threshold": self.threshold,
            "slack": self.slack,
        }
        if self.scale_override is not None:
            d["scale_override"] = self.scale_override
        return d


def rescaled_pdf(case: TangentCase, eps, t1, t2, y1, y2):
    """Exact density of the rescaled increment process at finite eps.

    Computed from the closed-form kernels by change of variables; zero where
    the rescaled target coordinate leaves the state space.  Raises
    OutOfSupport when the conditioning coordinate (the y1 side) leaves it.
    ``eps`` broadcasts against ``y2``: an (R, 1) column of rungs gives one
    row per rung, each equal to the call with that eps alone.
    """
    e = np.asarray(eps, dtype=float)
    if not np.all(e > 0.0):
        raise InvalidTime(f"eps must be positive, got {eps}")
    if t1 < 0.0 or not t2 > t1:
        raise InvalidTime(f"need 0 <= t1 < t2, got t1={t1}, t2={t2}")
    p = case.params
    q, x, s = case.q, case.x, case.s
    y2 = np.asarray(y2)
    if case.case == "qou_interior":
        w1 = x + y1 * e
        _require_inside(w1, np.abs(w1) > p.x_plus, "the state space")
        return qou_transition_pdf(p, e * (t2 - t1), w1, x + y2 * e) * e
    if case.case == "qou_boundary":
        w1 = p.x_minus + y1 * e * e
        _require_inside(w1, (w1 < p.x_minus) | (w1 > p.x_plus), "the state space")
        w2 = p.x_minus + y2 * e * e
        out = qou_transition_pdf(p, e * (t2 - t1), w1, w2) * e * e
        return _zero_outside(out, w2 < p.x_minus)
    tau1, tau2 = s + t1 * e, s + t2 * e
    b1 = 2.0 * np.sqrt(tau1 / (1.0 - q))
    if case.case == "qbm_interior":
        w1 = x + y1 * e
        _require_inside(w1, np.abs(w1) > b1, "the time-tau1 support")
        return qbm_transition_pdf(p, tau1, tau2, w1, x + y2 * e) * e
    a = 1.0 / math.sqrt(s * (1.0 - q))
    w1 = x - a * t1 * e + y1 * e * e
    _require_inside(w1, np.abs(w1) > b1, "the time-tau1 support")
    w2 = x - a * t2 * e + y2 * e * e
    b2 = 2.0 * np.sqrt(tau2 / (1.0 - q))
    out = qbm_transition_pdf(p, tau1, tau2, w1, w2) * e * e
    return _zero_outside(out, np.abs(w2) > b2)


def _require_inside(w1, outside, support):
    if np.any(outside):
        w = float(np.asarray(w1)[outside].flat[0])
        raise OutOfSupport(f"conditioning point {w} outside {support}")


def _zero_outside(values, outside_mask):
    out = np.where(outside_mask, 0.0, values)
    return out.item() if np.ndim(out) == 0 else out


def limit_pdf(case: TangentCase, t1, t2, y1, y2, scale_override=None):
    """Closed-form limiting transition density of the tangent process.

    ``scale_override`` substitutes the multiplicative constant of the Cauchy
    limits (used as a negative control: a wrong constant must make the
    convergence study fail).
    """
    if t1 < 0.0 or not t2 > t1:
        raise InvalidTime(f"need 0 <= t1 < t2, got t1={t1}, t2={t2}")
    q, s = case.q, case.s
    if case.case in ("qou_interior", "qbm_interior"):
        c = case.limit_scale() if scale_override is None else scale_override
        drift = case.drift()
        return cauchy_transition_pdf(
            c * t1, c * t2, y1 - t1 * drift, np.asarray(y2) - t2 * drift
        )
    if case.case == "qou_boundary":
        r = math.sqrt(1.0 - q)
        if y1 < 0.0 or (t1 > 0.0 and y1 == 0.0):
            raise OutOfSupport(f"y1={y1} outside the limit support [0, inf)")
        z2 = r * np.asarray(y2) + t2 * t2
        return biane_half_pdf(2.0 * t1, 2.0 * t2, r * y1 + t1 * t1, z2) * r
    # m f(t1, t2, m y1, m y2), f the Biane kernel and m = sqrt(s^3 (1-q)), is
    # n f(t1/s, t2/s, n y1, n y2) with n = m/s^2 by self-similarity; unlike m
    # and m y2, these stay in double range for any base time s
    n = math.sqrt((1.0 - q) / s)
    t1, t2, z1 = t1 / s, t2 / s, n * y1
    if t1 > 0.0 and z1 <= t1 * t1 / 4.0:
        raise OutOfSupport(f"y1={y1} outside the limit support")
    return biane_half_pdf(t1, t2, z1, n * np.asarray(y2)) * n


def _limit_quantile(case, window_t, prob):
    """Quantile of the limit's y2 marginal from (t1=0, y1=0) at time window_t;
    prob may be an array."""
    if case.case in ("qou_interior", "qbm_interior"):
        gam = case.limit_scale() * window_t
        return case.drift() * window_t + gam * np.tan(np.pi * (prob - 0.5))
    if case.case == "qou_boundary":
        r = math.sqrt(1.0 - case.q)
        xq = half_stable_quantile(2.0 * window_t, prob)
        return (xq - window_t * window_t) / r
    # Q_t(p)/m = Q_{t/s}(p)/n, scaled as in limit_pdf
    return half_stable_quantile(window_t / case.s, prob) / math.sqrt((1.0 - case.q) / case.s)


# Window horizons calibrated so the standard ladder operates in the
# asymptotic regime across |q| <= 0.9 (finite-eps corrections enter through
# eps*t2 with constants growing like 1/(1-q); the limits are self-similar so
# the horizon choice is a convention, recorded in every report).
_HORIZON = {
    "qou_interior": lambda q, s: 0.4 * (1.0 - q),
    "qbm_interior": lambda q, s: 0.4 * s * (1.0 - q),
    "qou_boundary": lambda q, s: 0.15 * (1.0 - q),
    "qbm_boundary": lambda q, s: 0.125 * s * (1.0 - q),
}


def default_window(case: TangentCase, coverage=0.99, horizon=None):
    """Window (t1=0, y1=0, calibrated t2) covering ``coverage`` of the limit mass."""
    t2 = horizon if horizon is not None else _HORIZON[case.case](case.q, case.s)
    tail = 1.0 - coverage
    if case.case in ("qou_interior", "qbm_interior"):
        lo = _limit_quantile(case, t2, tail / 2.0)
        hi = _limit_quantile(case, t2, 1.0 - tail / 2.0)
    else:
        lo = _limit_quantile(case, t2, 1e-9)
        hi = _limit_quantile(case, t2, 1.0 - tail)
    return Window(0.0, t2, 0.0, lo, hi, coverage)


def _window_grid(case, window, resolution):
    """Union of uniform and limit-quantile nodes across the window."""
    if resolution < 32:
        raise InvalidCount(f"resolution must be at least 32, got {resolution}")
    n_u = resolution // 2
    uniform = np.linspace(window.y2_lo, window.y2_hi, n_u)
    tail = 1.0 - window.coverage
    if case.case in ("qou_interior", "qbm_interior"):
        probs = np.linspace(tail / 2.0, 1.0 - tail / 2.0, n_u)
    else:
        probs = np.linspace(1e-6, 1.0 - tail, n_u)
    quant = _limit_quantile(case, window.t2, probs)
    quant = quant[(quant >= window.y2_lo) & (quant <= window.y2_hi)]
    return np.unique(np.concatenate([uniform, quant]))


def distance(case: TangentCase, eps, window: Window, resolution=2001, scale_override=None):
    """(L1, sup) distance between rescaled and limit density over the window.

    Trapezoid rule on the mixed uniform/quantile grid.  Regions of the
    window that the rescaled process cannot reach at this eps contribute the
    limit's mass there (the exact density is zero on them).  For a 1-D
    ladder of eps, one grid and one kernel call serve every rung and the
    result is a pair of arrays, entry i equal to the call with eps[i] alone.
    """
    rungs = np.asarray(eps, dtype=float)
    grid = _window_grid(case, window, resolution)
    resc = rescaled_pdf(case, rungs.reshape(-1, 1), window.t1, window.t2, window.y1, grid)
    lim = np.asarray(limit_pdf(case, window.t1, window.t2, window.y1, grid, scale_override))
    diff = np.abs(resc - lim)
    l1 = np.trapezoid(diff, grid, axis=-1)
    sup = np.max(diff, axis=-1)
    if rungs.ndim == 0:
        return float(l1[0]), float(sup[0])
    return l1, sup


def convergence_study(case: TangentCase, ladder, window: Window = None, resolution=2001,
                      threshold=0.02, slack=0.10, scale_override=None):
    """Evaluate an eps ladder and produce the pass/fail ConvergenceReport.

    Pass requires the L1 distances to be nonincreasing within ``slack``
    per rung and the terminal L1 to fall below ``threshold``.
    """
    ladder = tuple(float(e) for e in ladder)
    if len(ladder) < 2 or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise InvalidState("ladder must be a strictly decreasing list of eps values")
    if window is None:
        window = default_window(case)
    l1s, sups = distance(case, ladder, window, resolution, scale_override)
    l1s = l1s.tolist()
    rows = list(zip(ladder, l1s, sups.tolist()))
    monotone = all(l1s[i + 1] <= l1s[i] * (1.0 + slack) for i in range(len(l1s) - 1))
    verdict = monotone and l1s[-1] < threshold
    return ConvergenceReport(case, window, tuple(rows), verdict, threshold, slack,
                             scale_override)

