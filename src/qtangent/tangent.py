"""Numerical verification of the tangent-process limits: exact rescaled
transition densities at finite epsilon against their closed-form limits.

Four cases in two frames, each an affine image of one base kernel.  The
process chooses only the exact kernel at the rescaled times (q-OU at lag
eps (t2 - t1), q-BM from s + eps t1 to s + eps t2) and the half-width of the
conditioning support (``kernels.x_plus(q)`` = 2/sqrt(1-q); 2 sqrt(tau1/(1-q))
for q-BM).  A case holds q as a float, which ``TangentCase`` checks.
Interior points (beta = 1): the state x + eps y tends to c C_t + v t, C the
standard Cauchy process, with (c, v) = (sqrt(4/(1-q) - x^2), 0) for q-OU and
(sqrt(4s/(1-q) - x^2)/(2s), x/(2s)) for q-BM (``interior_frame()``).
Boundary points (beta = 2): the state x - a t eps + eps^2 y tends to
(Z_{t/d} - b t^2)/r, Z the 1/2-stable Biane process, with (a, d, b, r) =
(0, 1/2, 1, sqrt(1-q)) for q-OU and (1/sqrt(s(1-q)), s, 0, sqrt((1-q)/s))
for q-BM, whose left support edge moves at speed a (``boundary_frame()``).

Convergence is measured as an L1 distance between the rescaled and the limit
density over a window carrying >= 99% of the limit mass, on a grid that mixes
uniform nodes with limit-quantile nodes (the half-stable limits concentrate
near their support edge and carry heavy tails; uniform grids resolve
neither).  The half-stable quantiles come in closed form from
``kernels.half_stable_quantile`` (Kepler's equation).  Where the rescaled
target coordinate falls outside the state space the exact density is 0 and
is integrated as such, so every rung of an epsilon ladder is measured on the
same window and the distances are comparable.

A study builds the window grid and the limit density once, and evaluates
the exact kernel on that grid once per rung.

The window's time horizon defaults to a q-scaled value: the finite-epsilon
corrections of the exact kernels enter through eps * t2 (the limits are
self-similar, so the horizon is a pure convention), with constants that grow
like 1/(1-q).  The defaults below were calibrated once so the standard
ladder {0.2 ... 0.01} reaches its asymptotic regime for every |q| <= 0.9;
each report records the horizon used.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidCount, InvalidState, InvalidTime, OutOfSupport, UnknownProcess
from .kernels import (
    biane_half_pdf,
    cauchy_transition_pdf,
    half_stable_quantile,
    qbm_transition_pdf,
    qou_transition_pdf,
    x_plus,
)

__all__ = [
    "TangentCase",
    "Window",
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
        # half-width of the support at the base time; a boundary case sits at its left edge
        half = x_plus(self.q)
        if self.qbm:
            if self.s is None or not 0.0 < self.s < math.inf:
                raise InvalidTime("q-BM cases need a finite base time s > 0")
            half = 2.0 * math.sqrt(self.s / (1.0 - self.q))
        if not self.interior:
            object.__setattr__(self, "x", -half)
        elif self.x is None or not abs(self.x) < half:
            raise InvalidState(f"interior case needs |x| < {half}")

    @property
    def qbm(self):
        return self.case.startswith("qbm")

    @property
    def interior(self):
        return self.case.endswith("interior")

    def boundary_frame(self):
        """(a, d, b, r) of the boundary frame: the state x - a t eps + eps^2 y
        tends to (Z_{t/d} - b t^2)/r, Z the 1/2-stable Biane process."""
        if self.qbm:
            c = 1.0 - self.q
            return 1.0 / math.sqrt(self.s * c), self.s, 0.0, math.sqrt(c / self.s)
        return 0.0, 0.5, 1.0, math.sqrt(1.0 - self.q)

    def interior_frame(self):
        """(c, v) of the interior frame: the state x + eps y tends to
        c C_t + v t, C the standard Cauchy process."""
        if self.qbm:
            s = self.s
            return (math.sqrt(4.0 * s / (1.0 - self.q) - self.x * self.x) / (2.0 * s),
                    self.x / (2.0 * s))
        return math.sqrt(4.0 / (1.0 - self.q) - self.x * self.x), 0.0


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


def rescaled_pdf(case: TangentCase, eps, t1, t2, y1, y2):
    """Exact density of the rescaled increment process at finite eps.

    Computed from the closed-form kernels by change of variables; zero where
    the rescaled target coordinate leaves the state space.  Raises
    OutOfSupport when the conditioning coordinate (the y1 side) leaves it.
    ``eps`` is a float; ``y2`` may be an array.
    """
    if not eps > 0.0:
        raise InvalidTime(f"eps must be positive, got {eps}")
    if t1 < 0.0 or not t2 > t1:
        raise InvalidTime(f"need 0 <= t1 < t2, got t1={t1}, t2={t2}")
    q, x = case.q, case.x
    # the frame x - a t eps + eps^beta y; g = eps^(beta - 1), and a = 0 and
    # g = 1 add and multiply exactly, so the interior frame is x + eps y bit for bit
    a, g = (0.0, 1.0) if case.interior else (case.boundary_frame()[0], eps)
    # past double range a time is inf (rejected) and a target leaves the state space
    with np.errstate(over="ignore", invalid="ignore"):
        if case.qbm:
            tau1, tau2 = case.s + t1 * eps, case.s + t2 * eps
            kernel = partial(qbm_transition_pdf, q, tau1, tau2)
            half = 2.0 * math.sqrt(tau1 / (1.0 - q))
        else:
            kernel, half = partial(qou_transition_pdf, q, eps * (t2 - t1)), x_plus(q)
        w1 = x - a * t1 * eps + y1 * eps * g
        w2 = x - a * t2 * eps + np.asarray(y2) * eps * g
    if abs(w1) > half:
        raise OutOfSupport(f"conditioning point {w1} outside the time-t1 support")
    if np.isnan(w2).any():
        raise InvalidTime(f"eps {eps} takes the frame's terms beyond double range")
    return kernel(w1, w2) * eps * g


def limit_pdf(case: TangentCase, t1, t2, y1, y2, scale_override=None):
    """Closed-form limiting transition density of the tangent process.

    ``scale_override`` substitutes the scale c of the interior frame (used
    as a negative control: a wrong constant must make the convergence study
    fail).
    """
    if t1 < 0.0 or not t2 > t1:
        raise InvalidTime(f"need 0 <= t1 < t2, got t1={t1}, t2={t2}")
    if case.interior:
        c, v = case.interior_frame()
        if scale_override is not None:
            c = scale_override
        return cauchy_transition_pdf(c * t1, c * t2, y1 - t1 * v, np.asarray(y2) - t2 * v)
    _, d, b, r = case.boundary_frame()
    # Y = (Z_{t/d} - b t^2)/r has the density r f(t1/d, t2/d, r y1 + b t1^2, r y2 + b t2^2),
    # f the Biane kernel.  For q-BM this is the self-similar rescaling of
    # m f(t1, t2, m y1, m y2), m = sqrt(s^3 (1-q)): r y stays in double range for any s
    z1 = r * y1 + b * t1 * t1
    u1, u2 = t1 / d, t2 / d
    if not (z1 > u1 * u1 / 4.0 or u1 == z1 == 0.0):
        raise OutOfSupport(f"y1={y1} outside the limit support")
    return biane_half_pdf(u1, u2, z1, r * np.asarray(y2) + b * t2 * t2) * r


def _limit_quantile(case, window_t, prob):
    """Quantile of the limit's y2 marginal from (t1=0, y1=0) at time window_t;
    prob may be an array."""
    if case.interior:
        c, v = case.interior_frame()
        return v * window_t + c * window_t * np.tan(np.pi * (prob - 0.5))
    _, d, b, r = case.boundary_frame()
    return (half_stable_quantile(window_t / d, prob) - b * window_t * window_t) / r


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
    if case.interior:
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
    try:
        uniform = np.linspace(window.y2_lo, window.y2_hi, n_u)
    except ValueError:  # numpy cannot size it: "Maximum allowed size exceeded"
        raise InvalidCount(f"resolution {resolution} is too large to hold") from None
    tail = 1.0 - window.coverage
    lo, hi = (tail / 2.0, 1.0 - tail / 2.0) if case.interior else (1e-6, 1.0 - tail)
    quant = _limit_quantile(case, window.t2, np.linspace(lo, hi, n_u))
    quant = quant[(quant >= window.y2_lo) & (quant <= window.y2_hi)]
    # np.unique without its inverse would import numpy.ma: sort, then drop repeats
    nodes = np.sort(np.concatenate([uniform, quant]))
    return nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]


def distance(case: TangentCase, ladder, window: Window, resolution=2001, scale_override=None):
    """(L1, sup) arrays of the distance between rescaled and limit density
    over the window, entry i at eps = ladder[i].

    Trapezoid rule on the mixed uniform/quantile grid.  Regions of the
    window that the rescaled process cannot reach at an eps contribute the
    limit's mass there (the exact density is zero on them).  One grid serves
    every rung, with one kernel call per rung.
    """
    grid = _window_grid(case, window, resolution)
    resc = np.array([rescaled_pdf(case, eps, window.t1, window.t2, window.y1, grid)
                     for eps in ladder])
    lim = np.asarray(limit_pdf(case, window.t1, window.t2, window.y1, grid, scale_override))
    diff = np.abs(resc - lim)
    l1 = np.trapezoid(diff, grid, axis=-1)
    sup = np.max(diff, axis=-1)
    return l1, sup


def convergence_study(case: TangentCase, ladder, window: Window = None, resolution=2001,
                      threshold=0.02, slack=0.10, scale_override=None):
    """Evaluate an eps ladder and report it as the dict the CLI prints.

    The verdict is "pass" when the L1 distances are nonincreasing within
    ``slack`` per rung and the terminal L1 falls below ``threshold``.
    """
    ladder = tuple(float(e) for e in ladder)
    if len(ladder) < 2 or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise InvalidState("ladder must be a strictly decreasing list of eps values")
    if window is None:
        window = default_window(case)
    l1s, sups = distance(case, ladder, window, resolution, scale_override)
    l1s = l1s.tolist()
    monotone = all(l1s[i + 1] <= l1s[i] * (1.0 + slack) for i in range(len(l1s) - 1))
    report = {
        "case": case.case, "q": case.q, "s": case.s, "x": case.x,
        "window": {"t1": window.t1, "t2": window.t2, "y1": window.y1,
                   "y2": [window.y2_lo, window.y2_hi], "coverage": window.coverage},
        "ladder": [{"eps": e, "l1": l1, "sup": sup}
                   for e, l1, sup in zip(ladder, l1s, sups.tolist())],
        "verdict": "pass" if monotone and l1s[-1] < threshold else "fail",
        "threshold": threshold,
        "slack": slack,
    }
    if scale_override is not None:
        report["scale_override"] = scale_override
    return report

