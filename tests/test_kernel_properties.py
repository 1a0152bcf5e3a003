"""Property tests of the q-normal and q-OU kernels over random q, lags and
states (hypothesis, derandomized so every run draws the same examples).

q ranges over [-0.95, 0.95], lags over [1e-6, 5] (log-uniform; [1e-2, 5]
for the Chapman-Kolmogorov composition) and states over 0.999 of the support
on either side.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtangent.kernels import qnormal_pdf, qou_transition_pdf, x_plus
from qtangent.quadrature import integrate

qs = st.floats(-0.95, 0.95)
fracs = st.floats(-0.999, 0.999)
lags = st.floats(math.log(1e-6), math.log(5.0)).map(math.exp)
ck_lags = st.floats(math.log(1e-2), math.log(5.0)).map(math.exp)

# derandomized examples make the example database useless, so none is written
_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@_SETTINGS
@given(q=qs, frac=fracs)
def test_qnormal_is_symmetric(q, frac):
    x = frac * x_plus(q)
    assert qnormal_pdf(q, x) == qnormal_pdf(q, -x)


@_SETTINGS
@given(q=qs, delta=lags, fx=fracs, fy=fracs)
def test_detailed_balance_against_the_qnormal(q, delta, fx, fy):
    # the q-OU process is reversible with respect to its q-normal marginal
    x, y = fx * x_plus(q), fy * x_plus(q)
    lhs = qnormal_pdf(q, x) * qou_transition_pdf(q, delta, x, y)
    rhs = qnormal_pdf(q, y) * qou_transition_pdf(q, delta, y, x)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@settings(_SETTINGS, max_examples=40)
@given(q=qs)
def test_qnormal_integrates_to_one(q):
    # in y = r sin(theta), which removes the square-root edges; this gates the
    # constant (q; q)_inf that the kernel product carries
    r = x_plus(q)
    total = integrate(lambda th: qnormal_pdf(q, r * np.sin(th)) * (r * np.cos(th)),
                      -0.5 * math.pi, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-14)
    assert abs(total - 1.0) <= 1e-12


@settings(_SETTINGS, max_examples=100)
@given(q=qs, d1=ck_lags, d2=ck_lags, fx=fracs, fy=fracs)
def test_chapman_kolmogorov(q, d1, d2, fx, fy):
    # int p_d1(x, z) p_d2(z, y) dz = p_{d1+d2}(x, y), in z = r sin(theta); the
    # floor 1e-3 keeps a far target with p ~ 1e-15 to the quadrature's epsabs
    r = x_plus(q)
    x, y = fx * r, fy * r
    total = integrate(lambda th: qou_transition_pdf(q, d1, x, r * np.sin(th))
                      * qou_transition_pdf(q, d2, r * np.sin(th), y) * (r * np.cos(th)),
                      -0.5 * math.pi, 0.5 * math.pi, epsabs=1e-12, epsrel=1e-11)
    p = qou_transition_pdf(q, d1 + d2, x, y)
    assert abs(total - p) <= 1e-9 * max(p, 1e-3)
