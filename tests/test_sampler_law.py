"""The law of the simulator's draws against exact distribution functions.

Each case draws N values through ``simulate_ensemble`` with a fixed seed and
compares them with the law they should follow: the q-OU kernel over one step
(also at |q| = 0.997 and near the support edge) and over ten steps (the
kernel at ten times the lag), the q-BM kernel over a
small step, the sqrt(t)-dilated q-normal after the origin step, and the
q-normal at a stationary start.  The exact distribution function comes from
adaptive quadrature of the kernel (``qtangent.quadrature.integrate``) between
consecutive order statistics.

The conditioning states sit ``OFFSET`` of the support width off the points
frac * x_plus, so a lattice of states aligned with the support width does
not round them onto themselves.

Sample size from a power target: a Kolmogorov-Smirnov test at level
ALPHA = 1e-5 on N = 20,000 draws rejects above D = 0.0175 (the DKW bound,
sqrt(log(2/ALPHA)/(2N)), is larger than the exact critical value).  The
exact CDF is taken at every ``EVERY``-th order statistic, which lowers D by
at most EVERY/N = 0.001, so a sup-CDF error of 0.03 leaves a margin of
0.0115 and is detected with power at least 1 - 2 exp(-2 N 0.0115^2) > 0.99.
"""

import math

import numpy as np
import pytest
from scipy import stats

from qtangent.kernels import qbm_transition_pdf, qnormal_pdf, qou_transition_pdf
from qtangent.qspecial import QParams, TruncationPolicy
from qtangent.quadrature import integrate
from qtangent.simulate import Fixed, Origin, Stationary, TimeGrid, simulate_ensemble

N = 20_000
ALPHA = 1e-5
EVERY = 20
SEED = 2718
OFFSET = 0.37e-4
LAGS = (5e-4, 2.5e-3, 0.1, 1.0)
FRACS = (0.0, 0.9, 0.99)


def ks_pvalue(sample, pdf, lo):
    """KS p-value of ``sample`` against the law of ``pdf``, whose support starts at lo.

    The distance is taken at every EVERY-th order statistic, so the p-value
    errs on the side of passing by at most a distance of EVERY/N.
    """
    xs = np.sort(sample)
    pts = xs[EVERY - 1::EVERY]
    edges = np.r_[lo, pts]
    masses = [integrate(pdf, a, b, 1e-10, 0.0) if a < b else 0.0
              for a, b in zip(edges[:-1], edges[1:])]
    cdf = np.cumsum(masses)
    upper = np.searchsorted(xs, pts, side="right") / len(xs)
    lower = np.searchsorted(xs, pts, side="left") / len(xs)
    d = max(float(np.max(upper - cdf)), float(np.max(cdf - lower)))
    return d, float(stats.kstwo.sf(d, len(xs)))


def assert_law(sample, pdf, lo):
    d, pvalue = ks_pvalue(sample, pdf, lo)
    print(f"D = {d:.4f}, p = {pvalue:.3g}")
    assert pvalue > ALPHA, (d, pvalue)


def off_lattice(frac, half_width):
    return (frac + 2.0 * OFFSET) * half_width


def values_at(process, p, grid, init, column):
    paths = simulate_ensemble(process, p, grid, init, SEED, N)
    return np.array([path.values[column] for path in paths])


@pytest.mark.parametrize("q", [0.0, 0.95])
@pytest.mark.parametrize("lag", LAGS)
@pytest.mark.parametrize("frac", FRACS)
def test_qou_one_step(q, lag, frac):
    p = QParams(q)
    x = off_lattice(frac, p.x_plus)
    drawn = values_at("qou", p, TimeGrid(0.0, lag, 1), Fixed(x), 1)
    assert_law(drawn, lambda y: qou_transition_pdf(p, lag, x, y), p.x_minus)


@pytest.mark.parametrize("q, lag, frac", [(0.997, 1e-3, 0.9), (-0.997, 1e-2, 0.5),
                                         (0.95, 5e-4, 0.9999)])
def test_qou_one_step_at_the_edges(q, lag, frac):
    # the ends of the supported q range, and a state near the support edge
    # where the lattice step is the largest share of the kernel's core
    p = QParams(q)
    x = off_lattice(frac, p.x_plus)
    policy = TruncationPolicy(rel_tol=1e-9, k_max=40_000)
    drawn = values_at("qou", p, TimeGrid(0.0, lag, 1), Fixed(x), 1)
    assert_law(drawn, lambda y: qou_transition_pdf(p, lag, x, y, policy), p.x_minus)


@pytest.mark.parametrize("lag", LAGS)
@pytest.mark.parametrize("frac", FRACS)
def test_qou_ten_steps(lag, frac):
    # ten steps of lag d follow the kernel at lag 10 d (Chapman-Kolmogorov)
    p = QParams(0.0)
    x = off_lattice(frac, p.x_plus)
    drawn = values_at("qou", p, TimeGrid(0.0, 10.0 * lag, 10), Fixed(x), 10)
    assert_law(drawn, lambda y: qou_transition_pdf(p, 10.0 * lag, x, y), p.x_minus)


@pytest.mark.parametrize("q", [0.0, 0.95])
@pytest.mark.parametrize("frac", FRACS)
def test_qbm_small_step(q, frac):
    p = QParams(q)
    t1, t2 = 1.0, 1.0 + 1e-3
    y = off_lattice(frac, 2.0 * math.sqrt(t1 / (1.0 - q)))
    drawn = values_at("qbm", p, TimeGrid(t1, t2, 1), Fixed(y), 1)
    lo = -2.0 * math.sqrt(t2 / (1.0 - q))
    assert_law(drawn, lambda z: qbm_transition_pdf(p, t1, t2, y, z), lo)


@pytest.mark.parametrize("q", [0.0, 0.95])
def test_qbm_origin_step(q):
    # from the origin the time-t law is the sqrt(t)-dilated q-normal
    p = QParams(q)
    t = 2.5e-3
    drawn = values_at("qbm", p, TimeGrid(0.0, t, 1), Origin(), 1)
    r = math.sqrt(t)
    assert_law(drawn, lambda z: qnormal_pdf(p, z / r) / r, p.x_minus * r)


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_qou_stationary_start_and_step(q):
    # the start and one step of lag 0.1 both follow the q-normal law
    p = QParams(q)
    paths = simulate_ensemble("qou", p, TimeGrid(0.0, 0.1, 1), Stationary(), SEED, N)
    for column in (0, 1):
        drawn = np.array([path.values[column] for path in paths])
        assert_law(drawn, lambda y: qnormal_pdf(p, y), p.x_minus)


def test_qbm_marginal_start():
    p = QParams(0.5)
    t0 = 2.0
    drawn = values_at("qbm", p, TimeGrid(t0, t0 + 0.1, 1), Stationary(), 0)
    r = math.sqrt(t0)
    assert_law(drawn, lambda z: qnormal_pdf(p, z / r) / r, p.x_minus * r)
