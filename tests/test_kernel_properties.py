"""Property tests of the q-normal and q-OU kernels over random q, lags and
states (hypothesis, derandomized so every run draws the same examples).

q ranges over [-0.95, 0.95], lags over [1e-6, 5] (log-uniform) and states
over 0.999 of the support on either side.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangent.kernels import qnormal_pdf, qou_transition_pdf
from qtangent.qspecial import QParams
from qtangent.quadrature import integrate

qs = st.floats(-0.95, 0.95)
fracs = st.floats(-0.999, 0.999)
lags = st.floats(math.log(1e-6), math.log(5.0)).map(math.exp)

# derandomized examples make the example database useless, so none is written
_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@_SETTINGS
@given(q=qs, frac=fracs)
def test_qnormal_is_symmetric(q, frac):
    p = QParams(q)
    x = frac * p.x_plus
    assert qnormal_pdf(p, x) == qnormal_pdf(p, -x)


@_SETTINGS
@given(q=qs, delta=lags, fx=fracs, fy=fracs)
def test_detailed_balance_against_the_qnormal(q, delta, fx, fy):
    # the q-OU process is reversible with respect to its q-normal marginal
    p = QParams(q)
    x, y = fx * p.x_plus, fy * p.x_plus
    lhs = qnormal_pdf(p, x) * qou_transition_pdf(p, delta, x, y)
    rhs = qnormal_pdf(p, y) * qou_transition_pdf(p, delta, y, x)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@settings(_SETTINGS, max_examples=40)
@given(q=qs)
def test_qnormal_integrates_to_one(q):
    # in y = r sin(theta), which removes the square-root edges; this gates the
    # constant (q; q)_inf that the kernel product carries
    p = QParams(q)
    r = p.x_plus
    total = integrate(lambda th: qnormal_pdf(p, r * np.sin(th)) * (r * np.cos(th)),
                      -0.5 * math.pi, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-14)
    assert abs(total - 1.0) <= 1e-12
