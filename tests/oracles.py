"""Reference forms the tests compare the package against.

The displayed quadratic forms of the q-kernels (phi_{q,k}, psi_{q,k} and
their two-time analogues phi*_{q,k}, psi*_{q,k}), the free 1/2-stable and
Cauchy marginals and the half-stable distribution function in closed form,
and the three q-kernels evaluated from their displayed products in mpmath.
The package evaluates the q-kernels through one regrouped q-OU product and
the marginals as its kernels started at the origin, so these forms are
independent of its code.
"""

import math

import mpmath as mp
import numpy as np


def phi_qk(q, k, delta, x, y):
    """The quadratic form phi_{q,k}(delta, x, y) entering the q-OU kernel.

    Broadcasts over any of k, x, y; exactly symmetric under swapping x and y.
    """
    qk = np.power(q, k)
    q2k = qk * qk
    e1 = math.exp(-delta)
    e2 = e1 * e1
    xy = x * y
    return (
        (1.0 - e2 * q2k) ** 2
        - (1.0 - q) * e1 * qk * (1.0 + e2 * q2k) * xy
        + (1.0 - q) * e2 * q2k * (x * x + y * y)
    )


def psi_qk(q, k, x):
    """psi_{q,k}(x) = (1 + q^k)^2 - (1-q) x^2 q^k, defined for k >= 1."""
    qk = np.power(q, k)
    return (1.0 + qk) ** 2 - (1.0 - q) * x * x * qk


def phi_star(q, k, t1, t2, y1, y2):
    """Two-time quadratic form phi*_{q,k} entering the q-BM kernel (k >= 0)."""
    qk = np.power(q, k)
    q2k = qk * qk
    return (
        (t2 - t1 * q2k) ** 2
        - (1.0 - q) * qk * (t2 + t1 * q2k) * y1 * y2
        + (1.0 - q) * (t1 * y2 * y2 + t2 * y1 * y1) * q2k
    )


def psi_star(q, k, t1, t2, y2):
    """psi*_{q,k}(t1, t2, y2) = (t2 - t1 q^k)(1 - q^{k+1})[t2 (1+q^k)^2 - (1-q) y2^2 q^k]."""
    qk = np.power(q, k)
    return (t2 - t1 * qk) * (1.0 - q * qk) * (t2 * (1.0 + qk) ** 2 - (1.0 - q) * y2 * y2 * qk)


def half_stable_marginal(t, x):
    """Free 1/2-stable marginal t sqrt(4x - t^2) / (2 pi x^2) on (t^2/4, inf)."""
    xarr = np.asarray(x, dtype=float)
    sq = np.sqrt(np.clip(4.0 * xarr - t * t, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = t * sq / (2.0 * math.pi * xarr * xarr)
    return np.where(xarr <= t * t / 4.0, 0.0, val)


def cauchy_marginal(t, x):
    """Cauchy law with scale t: t / (pi (x^2 + t^2))."""
    xarr = np.asarray(x, dtype=float)
    return t / (math.pi * (xarr * xarr + t * t))


def half_stable_cdf(t, x):
    """Distribution function of the free 1/2-stable marginal, in closed form.

    F_t(x) = (2/pi) [arctan(w) - w t^2 / (4x)] with w = sqrt(4x/t^2 - 1).
    """
    xarr = np.asarray(x, dtype=float)
    u = xarr / (t * t)
    w = np.sqrt(np.clip(4.0 * u - 1.0, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2.0 / math.pi * (np.arctan(w) - w / (4.0 * u))
    return np.where(u <= 0.25, 0.0, val)


# The mpmath forms run at the caller's working precision (mp.workdps) and
# multiply factors until |q|^k drops below 10^-(dps + 5); q^k is carried as a
# running product, which agrees with q ** k far below that cut.

def _terms(q):
    return 1 if q == 0 else int(math.ceil((mp.mp.dps + 5) / -math.log10(abs(q))))


def _c_q(q):
    return mp.sqrt(1 - q) * mp.qp(q, q) / (2 * mp.pi)


def mp_qnormal(q, x):
    """sqrt(1-q) (q;q)_inf / (2 pi) sqrt(4 - (1-q) x^2) prod_{k>=1} psi_{q,k}(x)."""
    q, x = mp.mpf(q), mp.mpf(x)
    val = _c_q(q) * mp.sqrt(4 - (1 - q) * x * x)
    qk = mp.mpf(1)
    for _ in range(_terms(q)):
        qk *= q
        val *= (1 + qk) ** 2 - (1 - q) * x * x * qk
    return val


def mp_qou(q, delta, x, y):
    """The displayed q-OU product at lag delta (see the ``kernels`` module docstring)."""
    q, x, y = mp.mpf(q), mp.mpf(x), mp.mpf(y)
    e1 = mp.exp(-mp.mpf(delta))
    e2 = e1 * e1

    def phi(qk):
        q2k = qk * qk
        return ((1 - e2 * q2k) ** 2 - (1 - q) * e1 * qk * (1 + e2 * q2k) * x * y
                + (1 - q) * e2 * q2k * (x * x + y * y))

    val = _c_q(q) * (1 - e2) * mp.sqrt(4 - (1 - q) * y * y) / phi(mp.mpf(1))
    qk = mp.mpf(1)
    for _ in range(_terms(q)):
        qk *= q
        val *= (1 - e2 * qk) * ((1 + qk) ** 2 - (1 - q) * y * y * qk) / phi(qk)
    return val


def mp_qbm(q, t1, t2, y1, y2):
    """(1-q)^{3/2} (t2-t1)/(2 pi) sqrt(4 t2 - (1-q) y2^2) / phi*_0 prod_{k>=1} psi*_k / phi*_k."""
    q, t1, t2, y1, y2 = (mp.mpf(v) for v in (q, t1, t2, y1, y2))

    def phi(qk):
        q2k = qk * qk
        return ((t2 - t1 * q2k) ** 2 - (1 - q) * qk * (t2 + t1 * q2k) * y1 * y2
                + (1 - q) * (t1 * y2 * y2 + t2 * y1 * y1) * q2k)

    val = (1 - q) ** 1.5 * (t2 - t1) / (2 * mp.pi) * mp.sqrt(4 * t2 - (1 - q) * y2 * y2)
    val /= phi(mp.mpf(1))
    qk = mp.mpf(1)
    for _ in range(_terms(q)):
        qk *= q
        val *= (t2 - t1 * qk) * (1 - q * qk) * (t2 * (1 + qk) ** 2 - (1 - q) * y2 * y2 * qk)
        val /= phi(qk)
    return val


def mp_stable_kernel(kernel, t1, t2, y1, y2):
    """The displayed Cauchy, Biane and shifted Biane kernels in mpmath, by kernel name."""
    t1, t2, y1, y2 = (mp.mpf(v) for v in (t1, t2, y1, y2))
    dt = t2 - t1
    if kernel == "cauchy":
        return dt / mp.pi / ((y2 - y1) ** 2 + dt * dt)
    if kernel == "biane_half":
        if y2 <= t2 * t2 / 4:
            return mp.mpf(0)
        return dt * mp.sqrt(4 * y2 - t2 * t2) / (2 * mp.pi * ((y2 - y1) ** 2
                                                            - dt * (t1 * y2 - t2 * y1)))
    return 2 * dt * mp.sqrt(y2) / (mp.pi * ((y2 - y1) ** 2 + 2 * (y1 + y2) * dt ** 2 + dt ** 4))
