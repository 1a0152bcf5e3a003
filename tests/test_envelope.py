"""The simulator's rejection envelope bounds the ratio it accepts against.

The q-OU kernel at lag d from x is c_q (1 + e^{-d}) g(y) r(y), g = 1/phi0_u
the Cauchy proposal; every bin of the envelope carries a bound on r.
hypothesis draws q in [-0.997, 0.997], a lag from 1e-6 to 5 or an infinite
one, and a conditioning state from the centre out to 1e-12 of either edge.
r, read from the kernel at the simulator's tolerance, must lie at or below
its bin's bound at 33 points across every bin (its edges among them) and at
y = x, 0 and -x, the points theta, pi/2 and pi - theta of the bounds'
folds.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtangent import simulate
from qtangent.kernels import x_plus


def ratio_over_bound(q, lag, x):
    """The largest r/bound over the checked points of every bin of positive weight."""
    env = simulate._Envelope(simulate._Bins(q), lag)
    cum, bound, y_near, _, _ = env._cells(np.array([x]))
    lo, hi = env.bins.y[1:], env.bins.y[:-1]
    if y_near is not None:
        lo, hi = np.r_[lo, y_near[1:, 0]], np.r_[hi, y_near[:-1, 0]]
    live = np.diff(np.r_[0.0, cum[:, 0]]) > 0.0
    lo, hi, bound = lo[live, None], hi[live, None], bound[live, 0, None]
    special = np.array([x, 0.0, -x])
    ys = np.concatenate([lo + (hi - lo) * np.linspace(0.0, 1.0, 33),
                         np.where((lo <= special) & (special <= hi), special, lo)], axis=1)
    return float(np.max(env.ratio(x, ys) / bound))


@settings(max_examples=60, deadline=None)
@given(q=st.floats(-0.997, 0.997),
       lag=st.one_of(st.floats(-6.0, math.log10(5.0)).map(lambda e: 10.0 ** e), st.just(math.inf)),
       gap=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
       side=st.sampled_from([-1.0, 1.0]))
@example(q=0.997, lag=1e-6, gap=1e-12, side=1.0)
@example(q=-0.997, lag=math.inf, gap=1.0, side=1.0)
@example(q=0.0, lag=1e-6, gap=1e-12, side=-1.0)
@example(q=-0.9, lag=0.01, gap=0.7, side=1.0)
@example(q=0.95, lag=5.0, gap=1e-5, side=-1.0)
@example(q=0.9, lag=1e-5, gap=0.25, side=1.0)
def test_ratio_at_or_below_its_bound(q, lag, gap, side):
    x = side * x_plus(q) * (1.0 - gap)
    assert ratio_over_bound(q, lag, x) <= 1.0
