"""Adaptive Gauss-Legendre quadrature, with scipy's QUADPACK `quad` as the
independent oracle (scipy is a test dependency only)."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qtangent.errors import QuadratureFailure
from qtangent.freeprob import g_half_closed
from qtangent.kernels import (
    biane_half_pdf,
    cauchy_transition_pdf,
    qbm_transition_pdf,
    qou_transition_pdf,
    x_plus,
)
from qtangent import quadrature
from qtangent.quadrature import integrate

QS = (-0.9, 0.0, 0.5, 0.9)
TOL = dict(epsabs=1e-11, epsrel=1e-11)
ORACLE = dict(epsabs=1e-12, epsrel=1e-12, limit=2000)


class Recorder:
    """Wraps an integrand and records the shape of every array it is called on."""

    def __init__(self, f):
        self.f = f
        self.shapes = []

    def __call__(self, x):
        self.shapes.append(x.shape)
        return self.f(x)

    def intervals(self):
        # round 0 evaluates one interval and its halves; each later round
        # evaluates four quarters per bisected interval, adding one interval
        return 1 + sum(rows for rows, _ in self.shapes[1:]) // 4


def on_interval(f, r):
    """int_{-r}^{r} f(y) dy in y = r sin(theta)."""
    return integrate(lambda th: f(r * np.sin(th)) * (r * np.cos(th)),
                     -0.5 * math.pi, 0.5 * math.pi, **TOL)


def oracle(f, a, b, points=None):
    return quad(lambda y: float(f(y)), a, b, points=points, **ORACLE)[0]


class TestKernelFamilies:
    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("delta", [0.05, 1.0])
    @pytest.mark.parametrize("frac", [0.0, -0.5, 0.999])
    def test_qou_mass_and_mean(self, q, delta, frac):
        # frac = 0.999 conditions on a state at the support edge
        xp = x_plus(q)
        x = frac * xp
        pdf = lambda y: qou_transition_pdf(q, delta, x, y)
        mass = on_interval(pdf, xp)
        mean = on_interval(lambda y: y * pdf(y), xp)
        kink = [min(max(x, -xp), xp)]
        assert mass == pytest.approx(oracle(pdf, -xp, xp, kink), abs=1e-9)
        assert mean == pytest.approx(oracle(lambda y: y * pdf(y), -xp, xp, kink),
                                     abs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-11)
        # E[X_{s+d} | X_s = x] = e^{-d} x
        assert mean == pytest.approx(math.exp(-delta) * x, abs=1e-11)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("dt", [0.05, 1.0])
    @pytest.mark.parametrize("frac", [0.0, 0.999])
    def test_qbm_mass_and_mean(self, q, dt, frac):
        t1, t2 = 1.0, 1.0 + dt
        y1 = frac * 2.0 * math.sqrt(t1 / (1.0 - q))
        b2 = 2.0 * math.sqrt(t2 / (1.0 - q))
        pdf = lambda y: qbm_transition_pdf(q, t1, t2, y1, y)
        mass = on_interval(pdf, b2)
        mean = on_interval(lambda y: y * pdf(y), b2)
        assert mass == pytest.approx(oracle(pdf, -b2, b2, [y1]), abs=1e-9)
        assert mean == pytest.approx(oracle(lambda y: y * pdf(y), -b2, b2, [y1]), abs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-11)
        assert mean == pytest.approx(y1, abs=1e-10)  # q-BM is a martingale

    @pytest.mark.parametrize("dt", [0.05, 1.0])
    def test_cauchy_on_the_line(self, dt):
        y1 = 2.5
        pdf = lambda y: cauchy_transition_pdf(0.5, 0.5 + dt, y1, y)
        clipped = lambda y: np.minimum((y - y1) ** 2, 1.0) * pdf(y)
        assert integrate(pdf, -math.inf, math.inf, **TOL) == pytest.approx(1.0, abs=1e-12)
        # the truncated second moment E min((Y - y1)^2, 1) in closed form
        a = math.atan(1.0 / dt)
        closed = 2.0 * dt / math.pi * (1.0 - dt * a) + 1.0 - 2.0 * a / math.pi
        got = integrate(clipped, -math.inf, math.inf, **TOL)
        assert got == pytest.approx(closed, rel=1e-10)
        want = (oracle(clipped, -math.inf, y1 - 1.0) + oracle(clipped, y1 - 1.0, y1 + 1.0, [y1])
                + oracle(clipped, y1 + 1.0, math.inf))
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("dt", [0.05, 1.0])
    @pytest.mark.parametrize("gap", [1e-3, 0.5])
    def test_biane_half_line(self, dt, gap):
        # gap = 1e-3 conditions just inside the time-t1 support edge
        t1, t2 = 1.0, 1.0 + dt
        y1 = t1 * t1 / 4.0 + gap
        edge = t2 * t2 / 4.0
        pdf = lambda y: biane_half_pdf(t1, t2, y1, y)
        mass = integrate(lambda u: pdf(edge + u * u) * (2.0 * u), 0.0, math.inf, **TOL)
        want = oracle(lambda u: pdf(edge + u * u) * 2.0 * u, 0.0, math.inf)
        assert mass == pytest.approx(want, abs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-11)


class TestComplexAndPeaked:
    @pytest.mark.parametrize("z", [1j, -3.0 + 0.5j, 2.0 + 1e-2j, 0.3 + 4j])
    def test_stieltjes_transform_of_half_stable(self, z):
        t = 1.5
        lo = t * t / 4.0
        f = lambda u: biane_half_pdf(0.0, t, 0.0, lo + u * u) / (z - lo - u * u) * (2.0 * u)
        got = integrate(f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-11)
        assert isinstance(got, complex)
        assert abs(got - g_half_closed(t, z)) < 1e-11
        re = quad(lambda u: f(u).real, 0.0, math.inf, **ORACLE)[0]
        im = quad(lambda u: f(u).imag, 0.0, math.inf, **ORACLE)[0]
        assert abs(got - complex(re, im)) < 1e-9

    def test_peak_of_width_1e4(self):
        w, c = 1e-4, 0.3137
        f = Recorder(lambda x: w / math.pi / ((x - c) ** 2 + w * w))
        got = integrate(f, -1.0, 1.0, **TOL)
        closed = (math.atan((1.0 - c) / w) + math.atan((1.0 + c) / w)) / math.pi
        assert got == pytest.approx(closed, rel=1e-11)
        assert got == pytest.approx(oracle(f.f, -1.0, 1.0, [c]), rel=1e-10)
        # it took many bisections, one integrand call per round
        assert f.intervals() > 20
        assert len(f.shapes) < f.intervals()
        assert all(len(s) == 2 and s[1] == f.shapes[0][1] for s in f.shapes)

    def test_one_kernel_call_per_round(self):
        q = 0.9
        calls = Recorder(lambda y: qou_transition_pdf(q, 0.05, 0.0, y))
        assert on_interval(calls, x_plus(q)) == pytest.approx(1.0, abs=1e-11)
        assert len(calls.shapes) < 20
        assert sum(math.prod(s) for s in calls.shapes) > 10 * len(calls.shapes)


class TestFailureAndLimits:
    @pytest.mark.parametrize("f", [lambda x: 1.0 / x, lambda x: 1.0 / (x - 0.3) ** 2],
                             ids=["log-divergent", "pole"])
    def test_non_integrable_raises_within_limit(self, f):
        rec = Recorder(f)
        with pytest.raises(QuadratureFailure):
            integrate(rec, 0.0, 1.0, **TOL)
        assert rec.intervals() <= quadrature._LIMIT
        # evaluated nodes stay bounded by the cap: no runaway memory
        n = rec.shapes[0][1]
        assert max(math.prod(s) for s in rec.shapes) <= 4 * n * quadrature._LIMIT

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: np.where(x > 0.3, np.nan, 1.0), 0.0, 1.0, **TOL)

    def test_empty_or_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.cos, 1.0, 1.0, **TOL)
        with pytest.raises(ValueError):
            integrate(np.cos, math.inf, 0.0, **TOL)

    @pytest.mark.parametrize("a, b", [(-math.inf, math.inf), (0.0, math.inf),
                                      (-math.inf, 0.0), (-1.0, 2.0)])
    def test_limits_mapped(self, a, b):
        f = lambda x: np.exp(-x * x)
        assert integrate(f, a, b, **TOL) == pytest.approx(oracle(f, a, b), abs=1e-12)

    def test_deterministic(self):
        f = lambda x: np.sin(40.0 * x) / (1.0 + x * x)
        assert integrate(f, -3.0, 5.0, **TOL) == integrate(f, -3.0, 5.0, **TOL)
