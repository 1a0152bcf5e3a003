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

from qtangent.kernels import qbm_transition_pdf, qnormal_pdf, qou_transition_pdf, x_plus
from qtangent.quadrature import integrate
from qtangent.simulate import TimeGrid, simulate_ensemble

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


def values_at(process, q, grid, x0, column):
    return simulate_ensemble(process, q, grid, x0, SEED, N)[1][:, column]


@pytest.mark.parametrize("q", [0.0, 0.95])
@pytest.mark.parametrize("lag", LAGS)
@pytest.mark.parametrize("frac", FRACS)
def test_qou_one_step(q, lag, frac):
    x = off_lattice(frac, x_plus(q))
    drawn = values_at("qou", q, TimeGrid(0.0, lag, 1), x, 1)
    assert_law(drawn, lambda y: qou_transition_pdf(q, lag, x, y), -x_plus(q))


@pytest.mark.parametrize("q, lag, frac", [(0.997, 1e-3, 0.9), (-0.997, 1e-2, 0.5),
                                         (0.95, 5e-4, 0.9999)])
def test_qou_one_step_at_the_edges(q, lag, frac):
    # the ends of the supported q range, and a state near the support edge
    # where the lattice step is the largest share of the kernel's core
    x = off_lattice(frac, x_plus(q))
    # the oracle at 1e-8, ten thousand times finer than the tables; 1e-14 would
    # need more than 10^4 product terms at |q| = 0.997
    drawn = values_at("qou", q, TimeGrid(0.0, lag, 1), x, 1)
    assert_law(drawn, lambda y: qou_transition_pdf(q, lag, x, y, 1e-8), -x_plus(q))


@pytest.mark.parametrize("lag", LAGS)
@pytest.mark.parametrize("frac", FRACS)
def test_qou_ten_steps(lag, frac):
    # ten steps of lag d follow the kernel at lag 10 d (Chapman-Kolmogorov)
    q = 0.0
    x = off_lattice(frac, x_plus(q))
    drawn = values_at("qou", q, TimeGrid(0.0, 10.0 * lag, 10), x, 10)
    assert_law(drawn, lambda y: qou_transition_pdf(q, 10.0 * lag, x, y), -x_plus(q))


@pytest.mark.parametrize("q", [0.0, 0.95])
@pytest.mark.parametrize("frac", FRACS)
def test_qbm_small_step(q, frac):
    t1, t2 = 1.0, 1.0 + 1e-3
    y = off_lattice(frac, 2.0 * math.sqrt(t1 / (1.0 - q)))
    drawn = values_at("qbm", q, TimeGrid(t1, t2, 1), y, 1)
    lo = -2.0 * math.sqrt(t2 / (1.0 - q))
    assert_law(drawn, lambda z: qbm_transition_pdf(q, t1, t2, y, z), lo)


@pytest.mark.parametrize("q", [0.0, 0.95])
def test_qbm_origin_step(q):
    # from the origin the time-t law is the sqrt(t)-dilated q-normal
    t = 2.5e-3
    drawn = values_at("qbm", q, TimeGrid(0.0, t, 1), None, 1)
    r = math.sqrt(t)
    assert_law(drawn, lambda z: qnormal_pdf(q, z / r) / r, -x_plus(q) * r)


@pytest.mark.parametrize("q", [0.0, 0.5])
def test_qou_stationary_start_and_step(q):
    # the start and one step of lag 0.1 both follow the q-normal law
    _, values = simulate_ensemble("qou", q, TimeGrid(0.0, 0.1, 1), None, SEED, N)
    for column in (0, 1):
        assert_law(values[:, column], lambda y: qnormal_pdf(q, y), -x_plus(q))


def test_qbm_marginal_start():
    q = 0.5
    t0 = 2.0
    drawn = values_at("qbm", q, TimeGrid(t0, t0 + 0.1, 1), None, 0)
    r = math.sqrt(t0)
    assert_law(drawn, lambda z: qnormal_pdf(q, z / r) / r, -x_plus(q) * r)
