"""Closed-form densities: q-normal marginal, q-OU and q-BM transition kernels,
and the Cauchy and 1/2-stable Biane kernels.

All density functions broadcast over their state arguments, return plain
floats for scalar input, and return exactly 0 outside the support of the
target state.  Arguments of square roots are clamped at 0 at the support
boundary where rounding can produce tiny negatives.

The three q-kernels share one product, the q-OU kernel at lag d
(prod_{k>=0} of psi_{q,k}/phi_{q,k} ratios; the displayed forms serve as
oracles in the tests).  The q-normal density is its d = inf limit
(e^{-d} = 0), and the q-BM kernel follows from the deterministic time
change W_{e^{2t}} = e^t X_t.  The k = 0 form is evaluated regrouped, which
avoids the catastrophic cancellation the displayed form suffers when
d -> 0 with x ~ y (the regime every tangent-process study probes):

    phi_{q,0}(d,x,y) = e^{-2d}(1-q)(x-y)^2 + u^2 [e^{-d}(4-(1-q)xy) + u^2],
    u = 1 - e^{-d},

which is an algebraic identity with the displayed quadratic form.  It is
divided by u, as is the prefactor 1 - e^{-2d} = u (1 + e^{-d}): u^2 underflows
below d ~ 1e-160, phi_{q,0}/u stays in range down to d = 1e-300.  The k >= 1
factors use the analogous factorisation of their cross terms, and each also
carries the factor 1 - q^k of the constant (q; q)_inf, so one product over k
serves the whole kernel, cut after K = ``series_terms(q, rel_tol)`` factors
(rel_tol 1e-14 by default).  Where K exceeds 40 (|q| above 0.393 at the
default) only the m factors with |q|^k > 0.1 are multiplied, 3 of the 55 at
q = 0.5 and 21 of the 372 at q = 0.9; the logarithm of the rest is a q-series,
log(b; q)_inf = -sum_n b^n/(n (1 - q^n)) with b = q^(m+1), of at most 17
terms (Gasper and Rahman, Basic Hypergeometric Series), in Chebyshev
polynomials of the states' angles.  q is a float in (-1, 1); ``x_plus(q)``
checks it and gives the support edge 2/sqrt(1-q) of the q-OU state space
(the time-t q-BM edge is 2 sqrt(t/(1-q))).

The q-OU lag and the q-BM times are floats, and their coefficients come
from the math module; the states are arrays that broadcast.

The Cauchy and Biane kernels are the two base laws of the tangent limits:
``tangent`` reads the interior limit as a scaled, drifted Cauchy kernel and
the boundary limit as (Z_{t/d} - b t^2)/r of the Biane process Z, with
(d, b, r) = (1/2, 1, sqrt(1-q)) for q-OU and (s, 0, sqrt((1-q)/s)) for q-BM.
Started at the origin they are the Cauchy and free 1/2-stable marginals.
A value of theirs beyond double range raises NonFinite.

The half-stable quantile inverts the distribution function
F_t(x) = (2/pi) [arctan(w) - w t^2/(4x)], w = sqrt(4x/t^2 - 1): with
w = tan(phi/2) it reads F_t(x) = (phi - sin phi)/pi at
x = t^2/(4 cos^2(phi/2)), Kepler's equation at eccentricity 1, which
vectorized Newton solves in a few rounds.
"""

import math

import numpy as np

from .errors import InvalidState, InvalidTime, NonConvergent, NonFinite, TruncationExceeded

__all__ = [
    "x_plus",
    "series_terms",
    "qnormal_pdf",
    "qou_transition_pdf",
    "qbm_transition_pdf",
    "cauchy_transition_pdf",
    "biane_half_pdf",
    "biane_shifted_pdf",
    "half_stable_quantile",
]

# Above this many broadcast points the k-product runs as a loop over k that
# keeps the working set at one points-sized array; at or below it, as one
# (K, points) array, which costs fewer numpy calls.  Measured crossover:
# about 1,000 points for every K.
_LOOP_POINTS = 1024
# Most product terms any kernel evaluates: enough for |q| <= 0.995 at rel_tol 1e-14
_K_MAX = 10_000
# Above this many product terms K the kernel multiplies only the first m
# factors, |q|^(m+1) <= _SERIES_START, and sums the logarithm of the rest as a
# q-series; at or below it, all K factors.  The series costs about 60 numpy
# calls whatever the batch, so it loses on small batches and wins on large
# ones.  Measured us per call, all K factors / split (2-core VM; 8-400 points
# against one lag, 10^4 a tangent study's 5 lags x 2,000 points):
#   points          8        30       100       400        10^4
#   K = 41  q=0.4  63/124   68/127   91/132  178/151   3,440/1,520
#   K = 55  q=0.5  65/128   79/135  129/143  305/159   4,632/1,830
#   K = 74  q=0.6  93/175  112/191  120/137  395/158   5,475/1,670
#   K = 372 q=0.9 104/133  153/133  502/150 2,123/219 27,813/2,420
# 40 is the crossover at 400 points; up to 100 points the split costs up to
# 2x below K ~ 300.  A constant: the split must not depend on the batch.
_SERIES_MIN_TERMS = 40
_SERIES_START = 0.1


def x_plus(q):
    """Right edge 2/sqrt(1-q) of the q-OU state space; NonConvergent unless -1 < q < 1."""
    if not -1.0 < q < 1.0:
        raise NonConvergent(f"q must lie in (-1, 1), got {q}")
    return 2.0 / math.sqrt(1.0 - q)


def series_terms(q, rel_tol=1e-14):
    """Number of product terms after which |q|^k drops below rel_tol (1 - |q|) 1e-2.

    Products are cut once the next factor differs from 1 by less than
    rel_tol (1 - |q|); geometric decay of the factors then bounds the total
    relative error by a small multiple of rel_tol.  The two extra decades
    cover the O(1) constants that multiply q^k in the factor families.
    At q = 0 every factor past k = 0 is exactly 1, so there are none.
    Raises TruncationExceeded if that needs more than 10,000 terms.
    """
    if q == 0.0:
        return 0
    thr = rel_tol * (1.0 - abs(q)) * 1e-2
    n = int(math.ceil(math.log(thr) / math.log(abs(q))))
    n = max(n, 1)
    if n > _K_MAX:
        raise TruncationExceeded(f"need {n} terms at q={q} but k_max={_K_MAX}")
    return n


def _product_split(q, rel_tol):
    """(m, N): the explicit factors and the series terms of the kernel product.

    N = 0 multiplies all K = series_terms(q, rel_tol) factors.  Otherwise the
    factors past m sum as N terms of log(b; q)_inf = -sum_n b^n/(n (1 - q^n)),
    b = q^(m+1), cut once 8 |b|^n/(n (1 - |q|^n)) <= rel_tol 1e-2.  The split
    depends on q and rel_tol only, so no value depends on its batch.
    """
    K = series_terms(q, rel_tol)
    if K <= _SERIES_MIN_TERMS:
        return K, 0
    a = abs(q)
    m = math.ceil(math.log(_SERIES_START) / math.log(a)) - 1
    b, tol = a ** (m + 1), rel_tol * 1e-2
    # 8 b^n/(1 - |q|) <= tol passes the cut a term or two late; step back to its first n
    n = math.ceil(math.log(tol * (1.0 - a) / 8.0) / math.log(b))
    while n > 1 and 8.0 * b ** (n - 1) / ((n - 1) * (1.0 - a ** (n - 1))) <= tol:
        n -= 1
    return m, n


def _as_float_or_array(out):
    out = np.asarray(out)
    return out.item() if out.ndim == 0 else out


def _tail_product(factor, coeffs, args):
    """prod_k factor(coeffs[k], *args) over the broadcast shape of args.

    ``coeffs`` is a tuple of (K,) arrays.  Small batches evaluate every
    factor at once into (K, points) buffers; large ones loop over k with
    points-sized buffers.  Both run the same in-place factor code and
    multiply in k order, so they agree bit for bit.
    """
    bshape = np.broadcast_shapes(*(np.shape(v) for v in args))
    if math.prod(bshape) <= _LOOP_POINTS:
        idx = (slice(None),) + (None,) * len(bshape)
        bufs = [np.empty(coeffs[0].shape + bshape) for _ in range(3)]
        return np.prod(factor([c[idx] for c in coeffs], *args, *bufs), axis=0)
    bufs = [np.empty(bshape) for _ in range(3)]
    acc = np.ones(bshape)
    for ck in zip(*coeffs):
        acc *= factor(ck, *args, *bufs)
    return acc


def _qou_factor(c, x, y, cyy, out, phi, tmp):
    # (1 - e2 qk)(1 - qk) psi_{q,k}(y) / phi_{q,k}(d, x, y) into out, with g = e1 qk
    # and the cross term of phi factored: (1-q) g (y - g x)(g y - x)
    qk, a, g, c1g, s, sc = c
    np.multiply(cyy, qk, out=out)
    np.subtract(a, out, out=out)
    out *= sc
    np.multiply(x, g, out=phi)
    np.subtract(y, phi, out=phi)
    phi *= c1g
    np.multiply(y, g, out=tmp)
    tmp -= x
    phi *= tmp
    phi += s
    out /= phi
    return out


def _chebyshev_sums(coeffs, c):
    """sum_{n>=1} coeffs[n-1] T_n(c) by Clenshaw's recurrence; each coeffs[n-1] broadcasts to c."""
    c2 = 2.0 * c
    shape = np.broadcast(c, coeffs[-1]).shape
    b1, b2, tmp = np.zeros(shape), np.zeros(shape), np.empty(shape)
    b1 += coeffs[-1]
    for a in coeffs[-2::-1]:
        np.multiply(c2, b1, out=tmp)
        tmp -= b2
        tmp += a
        b1, b2, tmp = tmp, b1, b2
    return c * b1 - b2


def _log_series_tail(q, m, n_terms, e1, x, y, cyy):
    """log prod_{k>m} of the kernel factors, as n_terms of the q-series.

    With x = 2 cos(theta)/sqrt(1-q), y = 2 cos(phi)/sqrt(1-q), rho = e^{-delta}
    and b = q^(m+1), the logarithms of (1 - rho^2 q^k)(1 - q^k),
    |1 - q^k e^{2i phi}|^2 and 1/|1 - rho q^k e^{i(theta +- phi)}|^2 sum to
    sum_n w_n [1 + rho^2n + 2 cos(2n phi) - 4 rho^n cos(n theta) cos(n phi)],
    w_n = -b^n/(n (1 - q^n)).  The cosines are Chebyshev polynomials of
    cos(theta), of cos(phi) and of cos(2 phi) = (1-q) y^2/2 - 1; the sums in
    cos(2 phi) and in cos(phi) run as one Clenshaw recurrence, stacked on a
    leading axis.
    """
    nd = max(np.ndim(x), np.ndim(y))

    def lead(v):  # a stack of arrays, its trailing axes aligned with the broadcast shape
        return v.reshape(v.shape[:1] + (1,) * (nd + 1 - v.ndim) + v.shape[1:])

    b, half = q ** (m + 1), 0.5 * math.sqrt(1.0 - q)
    w, rho, bn, qn, const = [], [1.0], 1.0, 1.0, 0.0
    for n in range(1, n_terms + 1):
        bn *= b
        qn *= q
        w.append(-bn / (n * (1.0 - qn)))
        rho.append(rho[-1] * e1)
        const = const + w[-1] * (1.0 + rho[-1] * rho[-1])
    w, rho = lead(np.array(w)), lead(np.array(rho[1:]))
    cx = half * x if np.ndim(x) else half * float(x)  # floats run the loop below faster
    c2x, tx = 2.0 * cx, [1.0, cx]  # T_n(cos theta)
    for _ in range(n_terms - 1):
        tx.append(c2x * tx[-1] - tx[-2])
    cross = -4.0 * w * rho * lead(np.array(tx[1:]))
    coeffs = np.empty((n_terms, 2) + cross.shape[1:])
    coeffs[:, 0] = 2.0 * w
    coeffs[:, 1] = cross
    sums = _chebyshev_sums(coeffs, lead(np.array((0.5 * cyy - 1.0, half * y))))
    return const + sums[0] + sums[1]


def _phi0_u(c1, e1, u, x, y, x_minus_y):
    """phi_{q,0}/u regrouped, e1 = e^{-delta}, u = 1 - e1: exact identity with the displayed
    quadratic form over u; (x - y)^2 alone would underflow at the tangent scale of lags
    below 1e-154.  Its reciprocal is the Cauchy density of the interior tangent law."""
    return e1 * e1 * c1 / u * x_minus_y * x_minus_y + u * (e1 * (4.0 - c1 * x * y) + u * u)


def _log_moduli(a, Q, alpha):
    """log |(a e^{i alpha}; Q)_inf|^2 = sum_{j>=0} log |1 - a Q^j e^{i alpha}|^2 at the angles alpha.

    a is real with |a| < 1 and 0 <= Q < 1; alpha is a float or an array.
    Each factor |1 - b e^{i alpha}|^2 = (1 - b)^2 + 4 b sin^2(alpha/2),
    b = a Q^j, increases in |alpha| on [0, pi] for b > 0 and decreases for
    b < 0, and so does the whole product.  The factors with |b| > 0.1 are
    multiplied, 16 to a logarithm (each lies in [(1 - |b|)^2, 4]); the rest
    sum as -2 sum_n b^n cos(n alpha)/(n (1 - Q^n)), b = a Q^m, in Chebyshev
    polynomials of cos(alpha), cut once a term falls below 1e-17.  So a table
    on a fine angle grid costs a few array passes per 16 factors however
    close Q is to 1.
    """
    alpha = np.asarray(alpha, dtype=float)
    s2 = 4.0 * np.sin(0.5 * alpha) ** 2
    bs = []
    while abs(a) > _SERIES_START:
        bs.append(a)
        a *= Q
    out = np.zeros(alpha.shape)
    for i in range(0, len(bs), 16):
        b = np.array(bs[i:i + 16]).reshape((-1,) + (1,) * alpha.ndim)
        out += np.log(np.prod((1.0 - b) * (1.0 - b) + b * s2, axis=0))
    coeffs, bn, qn, n = [], a, Q, 1
    while abs(bn) > 1e-17 * n * (1.0 - qn):
        coeffs.append(-2.0 * bn / (n * (1.0 - qn)))
        bn, qn, n = bn * a, qn * Q, n + 1
    if coeffs:
        out += _chebyshev_sums(np.array(coeffs).reshape((-1,) + (1,) * alpha.ndim), np.cos(alpha))
    return out


def _qou_core(q, delta, x, y, x_minus_y, rel_tol):
    """The q-OU transition density at the float lag delta in (0, inf] from x to y, 0 for
    |y| >= x_plus(q).

    x and y are float arrays that broadcast; delta = inf is the q-normal law of y.
    The caller passes x - y, to full accuracy.
    """
    c1 = 1.0 - q
    e1 = math.exp(-delta)
    e2 = e1 * e1
    u = -math.expm1(-delta)
    # targets outside the support evaluate at the placeholder y = x - y = 0, so
    # that far targets cannot overflow; the final mask sets them to 0
    outside = np.abs(y) >= x_plus(q)
    y = np.where(outside, 0.0, y)
    x_minus_y = np.where(outside, 0.0, x_minus_y)
    cyy = c1 * y * y
    phi0_u = _phi0_u(c1, e1, u, x, y, x_minus_y)
    m, n_terms = _product_split(q, rel_tol)
    tail = 1.0
    if m:
        qk = np.power(q, np.arange(1, m + 1, dtype=float))
        a = (1.0 + qk) * (1.0 + qk)
        g = e1 * qk
        s = 1.0 - g * g
        sc = (1.0 - e2 * qk) * (1.0 - qk)  # 1 - q^k: the k-th factor of (q; q)_inf
        tail = _tail_product(_qou_factor, (qk, a, g, c1 * g, s * s, sc), (x, y, cyy))
    if n_terms:
        tail = tail * np.exp(_log_series_tail(q, m, n_terms, e1, x, y, cyy))
    sq = np.sqrt(np.clip(4.0 - cyy, 0.0, None))
    cq = math.sqrt(c1) / (2.0 * math.pi)
    # 1 - e^{-2 delta} = u (1 + e^{-delta}), its u divided into phi0_u
    return np.where(outside, 0.0, cq * (1.0 + e1) * sq / phi0_u * tail)


def qnormal_pdf(q, x, rel_tol=1e-14):
    """Density of the q-normal law on [-2/sqrt(1-q), 2/sqrt(1-q)].

    At q = 0 this is the Wigner semicircle law sqrt(4 - x^2)/(2 pi); as
    q -> 1 it approaches the standard normal.  It is the q-OU kernel at an
    infinite lag.
    """
    y = np.asarray(x, dtype=float)
    return _as_float_or_array(_qou_core(q, math.inf, 0.0, y, -y, rel_tol))


def qou_transition_pdf(q, delta, x, y, rel_tol=1e-14):
    """Transition density of the stationary q-OU process over a time lag delta.

    Depends on (s, t) only through delta = t - s.  Zero for target states
    |y| >= x_plus(q); the conditioning state x must lie in [-x_plus(q), x_plus(q)].
    delta is a float; x and y broadcast.  Lags below 1e-307 are rejected: the
    regrouped k = 0 term e^{-2 delta}(1-q)(x-y)^2/u reaches 16/u, which
    overflows below it.
    """
    xp = x_plus(q)
    d = float(delta)
    if not 1e-307 <= d < math.inf:
        raise InvalidTime(f"q-OU kernel requires a finite lag delta >= 1e-307, got {d}")
    if not np.max(np.abs(x)) <= xp * (1.0 + 1e-12):
        raise InvalidState(f"conditioning state x={x} outside [{-xp}, {xp}]")
    xarr, yarr = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    out = _qou_core(q, d, xarr, yarr, xarr - yarr, rel_tol)
    return _as_float_or_array(out)


def _bm_lag(t1, t2):
    # q-OU lag of the q-BM step t1 -> t2, inf from t1 = 0; in floats, where numpy's overflow warns
    t1, t2 = float(t1), float(t2)
    return 0.5 * math.log1p((t2 - t1) / t1) if t1 > 0.0 else math.inf


def _bm_root(t):
    # sqrt(t), read as inf at t = 0 so that the origin maps to the state 0
    return math.sqrt(t) if t > 0.0 else math.inf


def qbm_transition_pdf(q, t1, t2, y1, y2):
    """Transition density of the q-Brownian motion from (t1, y1) to (t2, .).

    Supports t1 = 0 only with y1 = 0 (start at the origin).  Zero outside
    the time-t2 support [-2 sqrt(t2/(1-q)), 2 sqrt(t2/(1-q))].  t1 and t2
    are floats; y1 and y2 broadcast.

    Evaluated through the deterministic time change W_{e^{2t}} = e^t X_t:
    the q-OU kernel at lag delta = log(t2/t1)/2 from y1/sqrt(t1) to
    y2/sqrt(t2), divided by sqrt(t2).  A start at the origin is delta = inf,
    the sqrt(t2)-dilated q-normal law.
    """
    x_plus(q)  # rejects q outside (-1, 1) before any time or state is read
    t1, t2 = float(t1), float(t2)
    if not 0.0 <= t1 < t2 < math.inf:
        raise InvalidTime(f"q-BM kernel requires 0 <= t1 < t2 < inf, got t1={t1}, t2={t2}")
    y1a = np.asarray(y1, dtype=float)
    b1 = 2.0 * math.sqrt(t1 / (1.0 - q))  # 0 at t1 = 0, where only y1 = 0 passes
    if not np.all(np.abs(y1a) <= b1 * (1.0 + 1e-12)):
        raise InvalidState(f"y1={y1} outside the time-t1 support [-{b1}, {b1}] "
                           "(t1 = 0 requires y1 = 0: the path starts at the origin)")
    y2a = np.asarray(y2, dtype=float)
    r1, r2 = _bm_root(t1), math.sqrt(t2)
    # x - y from the exact y1 - y2 and t2 - t1 (1/r1 - 1/r2 = (t2 - t1)/((r1 + r2) r1 r2)):
    # x and y rounded apart lose digits where the kernel is narrow, t2 - t1 << t1
    with np.errstate(over="ignore"):  # far targets overflow for t2 < 1: outside in the core
        x_minus_y = (y1a - y2a) / r2 + y1a * ((t2 - t1) / (r1 + r2) / r1 / r2)
        y = y2a / r2
    out = _qou_core(q, _bm_lag(t1, t2), y1a / r1, y, x_minus_y, 1e-14)
    return _as_float_or_array(out / r2)


def _representable(out, kernel):
    """The density values as a float or array; NonFinite where they overflow."""
    if not np.isfinite(out).all():
        raise NonFinite(f"{kernel} density overflows a double at these times and states")
    return _as_float_or_array(out)


def cauchy_transition_pdf(t1, t2, y1, y2):
    """Cauchy process kernel f^(1): (t2-t1)/pi / ((y2-y1)^2 + (t2-t1)^2)."""
    if not 0.0 <= t1 < t2 < math.inf:
        raise InvalidTime(f"Cauchy kernel requires 0 <= t1 < t2 < inf, got t1={t1}, t2={t2}")
    if not np.isfinite(y1).all():
        raise InvalidState(f"y1={y1} is not finite")
    dt = t2 - t1
    with np.errstate(over="ignore"):  # far targets: h = inf, density 0
        h = np.hypot(np.asarray(y2, dtype=float) - y1, dt)
        out = dt / h / h / math.pi
    return _representable(out, "Cauchy")


def biane_half_pdf(t1, t2, y1, y2):
    """1/2-stable Biane process kernel f^(1/2); the time-t support is [t^2/4, inf).

    Its denominator (y2-y1)^2 - dt (t1 y2 - t2 y1), dt = t2 - t1, is taken as
    the sum of squares (y2 - y1 - dt t1/2)^2 + dt^2 (y1 - t1^2/4) through hypot.
    """
    if not 0.0 <= t1 < t2 < math.inf:
        raise InvalidTime(f"Biane kernel requires 0 <= t1 < t2 < inf, got t1={t1}, t2={t2}")
    y1a = np.asarray(y1, dtype=float)
    inside = (t1 * t1 / 4.0 < y1a) & (y1a < math.inf) | (t1 == 0.0) & (y1a == 0.0)
    if not np.all(inside):
        raise InvalidState(f"y1={y1} outside the time-t1 support ({t1 * t1 / 4.0}, inf)")
    y2a = np.asarray(y2, dtype=float)
    dt = t2 - t1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.clip(4.0 * y2a - t2 * t2, 0.0, None))
        h = np.hypot(y2a - y1a - dt * t1 / 2.0, dt * np.sqrt(y1a - t1 * t1 / 4.0))
        val = dt / h * (sq / h) / (2.0 * math.pi)
    # 4 y2 overflows only where the density underflows
    return _representable(np.where((y2a <= t2 * t2 / 4.0) | np.isinf(sq), 0.0, val), "Biane")


def biane_shifted_pdf(t1, t2, y1, y2):
    """Kernel of the drift-and-time-scaled Biane process Z^(1/2)_{2t} - t^2 on (0, inf).

    Its denominator (y2-y1)^2 + 2 (y1+y2) dt^2 + dt^4 is taken as the product
    ((sqrt y2 - sqrt y1)^2 + dt^2)((sqrt y2 + sqrt y1)^2 + dt^2) through hypot.
    """
    if not 0.0 < t1 < t2 < math.inf:
        raise InvalidTime(f"shifted Biane kernel requires 0 < t1 < t2 < inf, got t1={t1}, t2={t2}")
    if not 0.0 < y1 < math.inf:
        raise InvalidState(f"y1={y1} outside the support (0, inf)")
    y2a = np.asarray(y2, dtype=float)
    dt = t2 - t1
    sq, sq1 = np.sqrt(np.clip(y2a, 0.0, None)), math.sqrt(y1)
    with np.errstate(over="ignore"):
        h1 = np.hypot((y2a - y1) / (sq1 + sq), dt)
        h2 = np.hypot(sq + sq1, dt)
        val = 2.0 * (dt / h1) * (sq / h2) / h1 / h2 / math.pi
    return _representable(np.where(y2a <= 0.0, 0.0, val), "shifted Biane")


# Taylor coefficients of phi - sin(phi) = phi^3 sum_k c_k phi^(2k), k = 0..8: below
# phi = 1 the first omitted term is under 1e-19 of the sum.
_KEPLER_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))
# Newton rounds: 6 reach the fixed point for every p in [1e-12, 1 - 1e-6]
_KEPLER_ROUNDS = 8


def _phi_minus_sin(phi, sin_phi):
    z = phi * phi
    series = np.zeros_like(phi)
    for c in reversed(_KEPLER_SERIES):
        series = series * z + c
    return np.where(phi < 1.0, phi * z * series, phi - sin_phi)


def half_stable_quantile(t, p):
    """Quantile of the free 1/2-stable marginal: x with F_t(x) = p.

    With w = tan(phi/2) the distribution function reads
    F_t(x) = (phi - sin phi)/pi at x = t^2/(4 cos^2(phi/2)), phi in [0, pi):
    Kepler's equation at eccentricity 1.  For p <= 1/2 vectorized Newton
    solves phi - sin phi = pi p from phi_0 = (6 pi p)^(1/3), with a series
    for phi - sin phi below phi = 1.  For p > 1/2 it solves
    psi + sin psi = pi (1 - p) for psi = pi - phi from psi_0 = pi (1 - p)/2,
    so x = t^2/(4 sin^2(psi/2)) keeps its relative accuracy as p -> 1.
    Both iterations converge monotonically after at most one step.
    """
    if not 0.0 < t < math.inf:
        raise InvalidTime(f"quantile requires finite t > 0, got {t}")
    parr = np.asarray(p, dtype=float)
    if not np.all((0.0 <= parr) & (parr < 1.0)):
        raise InvalidState(f"probability must lie in [0, 1), got {p}")
    c = np.empty(parr.shape)
    for lower in (True, False):  # each iteration on its own entries
        sel = (parr <= 0.5) == lower
        m = math.pi * (parr[sel] if lower else 1.0 - parr[sel])
        ang = np.cbrt(6.0 * m) if lower else 0.5 * m
        for _ in range(_KEPLER_ROUNDS):
            s = np.sin(ang)
            f = (_phi_minus_sin(ang, s) if lower else ang + s) - m
            slope = 2.0 * np.sin(0.5 * ang) ** 2 if lower else 1.0 + np.cos(ang)
            ang = ang - np.divide(f, slope, out=np.zeros_like(f), where=slope > 0.0)
        c[sel] = np.cos(0.5 * ang) if lower else np.sin(0.5 * ang)
    return _as_float_or_array(t * t / (4.0 * c * c))
