"""Output checks for the benchmark's qtangent invocations.

Every check here rests on an independent computation (closed-form moments,
the semicircle law, the free Mehler kernel, quadrature written out below)
or on a property the method must have (support envelopes, report rows that
must be present).  None compares against a stored copy of earlier output.
Each check raises CheckFailed with a one-line reason.
"""

import glob
import json
import math
import os

import numpy as np
from scipy import stats
from scipy.interpolate import CubicSpline

# Monte Carlo checks allow this many standard errors; the samples are
# per-path statistics, so paths are the independent units.
Z_MAX = 5.0
# KS false-alarm level for the law tests (about the two-sided 4.4 sigma level).
KS_ALPHA = 1e-5
# Quadrature checks on tabulated densities; the edge-aware rule below is
# accurate to about 1e-9 on the grids the workloads use.
DENSITY_TOL = 1e-8
# Relative agreement with a closed form written out here.
CLOSED_FORM_RTOL = 1e-9

FREEPROB_KINDS = ("subordination", "biane3", "inversion", "csk_quadrature", "f_unique")
KERNEL_FAMILIES = ("qou", "qbm", "cauchy", "biane_half")
TANGENT_CASES = ("qou_interior", "qou_boundary", "qbm_interior", "qbm_boundary")


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def require_mean(samples, expected, label, se):
    """|mean - expected| <= Z_MAX standard errors of independent samples.

    ``se`` is the closed-form standard error of the mean of correct
    samples, not the sample one: the statistics checked here are skewed,
    and a sample standard error shrinks with the sample mean.
    """
    x = np.asarray(samples, dtype=float)
    z = (x.mean() - expected) / se if se > 0.0 else (0.0 if x.mean() == expected else math.inf)
    require(abs(z) <= Z_MAX, f"{label}: mean {x.mean():.6g} vs {expected:.6g}, z = {z:.2f}")
    return z


# ---------------------------------------------------------------- paths


def load_paths(directory):
    """(times, values) arrays of shape (paths, steps + 1) from path_###.csv files."""
    files = sorted(glob.glob(os.path.join(directory, "path_*.csv")))
    require(files, f"no path files in {directory}")
    data = np.array([np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2) for f in files])
    return data[:, :, 0], data[:, :, 1]


def check_time_grid(times, t0, t1, steps):
    require(times.shape[1] == steps + 1, f"expected {steps + 1} times per path, got {times.shape[1]}")
    require(np.allclose(times, np.linspace(t0, t1, steps + 1)[None, :], rtol=0, atol=1e-12),
            "path times are not the uniform grid")


def check_qbm_envelope(times, values, q):
    """q-BM from the origin: W_0 = 0 and |W_t| <= 2 sqrt(t/(1-q))."""
    require(np.all(values[:, 0] == 0.0), "a q-BM path does not start at 0")
    bound = 2.0 * np.sqrt(times / (1.0 - q))
    excess = np.abs(values) - bound * (1.0 + 1e-12)
    require(np.all(excess <= 1e-15), f"a q-BM path leaves its envelope by {excess.max():.3g}")


def qgauss_moment(q, n):
    """E X^(2n) of the standard q-Gaussian law (Touchard-Riordan formula)."""
    total = sum((-1) ** k * q ** (k * (k - 1) // 2) * math.comb(2 * n, n + k) for k in range(-n, n + 1))
    return total / (1.0 - q) ** n


def qint(q, n):
    """The q-integer [n]_q = 1 + q + ... + q^(n-1)."""
    return sum(q ** j for j in range(n))


def qbm_qv_variance(times, q):
    """Variance of sum_i (W_{t_i+1} - W_{t_i})^2 for q-BM started at 0 at times[0] = 0.

    The q-Wick formula for the time-ordered moments gives
    E (W_t - W_s)^4 = 2(1-q) s h + (2+q) h^2 with h = t - s; the term linear
    in h comes from the jumps.  E[(W_t - W_s)^2 | F_s] = h, so the squared
    increments are uncorrelated and their variances add.
    """
    s, h = times[:-1], np.diff(times)
    return float(np.sum(2.0 * (1.0 - q) * s * h + (1.0 + q) * h * h))


def check_qbm_moments(times, values, q, orders):
    """E W_T^k = m_k T^(k/2) for k in ``orders``, with m_2 = 1, m_4 = 2 + q,
    m_6 = 5 + 6q + 3q^2 + q^3; the per-path sum of squared increments averages to T.

    The z-scores use closed-form variances, (m_2k - m_k^2) T^k and
    qbm_qv_variance: with a few dozen paths the sample variances are too
    noisy to standardize by.  The squared increments are heavy-tailed (a
    rare jump carries much of their mean), so a sample without a large jump
    has both a low mean and a low sample variance.
    """
    T = times[0, -1]
    w_T = values[:, -1]
    n = len(w_T)
    for k in orders:
        m, m2 = qgauss_moment(q, k // 2), qgauss_moment(q, k)
        se = math.sqrt((m2 - m * m) / n) * T ** (k / 2)
        require_mean(w_T ** k, m * T ** (k / 2), f"q-BM E W_T^{k} at q={q}", se)
    qv = np.sum(np.diff(values, axis=1) ** 2, axis=1)
    require_mean(qv, T, f"q-BM sum of squared increments at q={q}",
                 math.sqrt(qbm_qv_variance(times[0], q) / n))


def semicircle_cdf(x, radius):
    u = np.clip(np.asarray(x, dtype=float) / radius, -1.0, 1.0)
    return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi


def qnormal_pdf(x, q):
    """q-normal density sqrt(1-q) (q;q)_inf / (2 pi) sqrt(4 - (1-q)x^2) prod_k [(1+q^k)^2 - (1-q)x^2 q^k]."""
    x = np.asarray(x, dtype=float)
    n = 1 if q == 0.0 else int(math.log(1e-18) / math.log(abs(q))) + 1
    qk = q ** np.arange(1, n + 1)
    euler = np.prod(1.0 - qk)
    prod = np.prod((1.0 + qk[:, None]) ** 2 - (1.0 - q) * x.ravel()[None, :] ** 2 * qk[:, None], axis=0)
    edge = np.sqrt(np.clip(4.0 - (1.0 - q) * x.ravel() ** 2, 0.0, None))
    return (math.sqrt(1.0 - q) * euler / (2.0 * math.pi) * edge * prod).reshape(x.shape)


def qnormal_cdf(q, nodes=4001):
    """Distribution function of the q-normal law, by quadrature of qnormal_pdf.

    With x = R sin(phi) the integrand f(x) R cos(phi) is smooth on
    [-pi/2, pi/2], so a cumulative trapezoid on a fine phi grid suffices.
    """
    radius = 2.0 / math.sqrt(1.0 - q)
    phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, nodes)
    xs = radius * np.sin(phi)
    g = qnormal_pdf(xs, q) * radius * np.cos(phi)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(phi))])
    require(abs(cdf[-1] - 1.0) < 1e-8, f"q-normal reference does not integrate to 1 at q={q}")
    return lambda x: np.interp(x, xs, cdf / cdf[-1])


def check_ks(samples, cdf, label):
    res = stats.kstest(samples, cdf)
    require(res.pvalue >= KS_ALPHA,
            f"KS against {label}: D = {res.statistic:.4f}, p = {res.pvalue:.2e}")


def check_semicircle(samples, radius):
    """KS test of the samples against the semicircle law on [-radius, radius]."""
    check_ks(samples, lambda x: semicircle_cdf(x, radius), f"the semicircle of radius {radius:.6g}")


def check_qnormal_law(samples, q, scale):
    """KS test of samples / scale against the standard q-normal law."""
    check_ks(np.asarray(samples) / scale, qnormal_cdf(q), f"the q-normal law at q={q}")


def check_qou_envelope(values, q):
    bound = 2.0 / math.sqrt(1.0 - q)
    worst = np.max(np.abs(values))
    require(worst <= bound * (1.0 + 1e-12), f"a q-OU value {worst:.6g} leaves [-{bound:.6g}, {bound:.6g}]")


def grid_mean_variance(cov, lag, points):
    """Variance of the mean of a stationary series at ``points`` times ``lag`` apart."""
    k = np.arange(points)
    c = cov(k * lag)
    return float(points * c[0] + 2.0 * np.sum((points - k[1:]) * c[1:])) / points ** 2


def check_qou_stationary(times, values, q):
    """Stationary q-OU: E X^2 = 1, E X^4 = 2 + q and the one-lag regression residual.

    Each path's time average is one independent sample, standardized by its
    closed-form variance.  The q-Hermite polynomials H_n (norm^2 = [n]_q!)
    are eigenfunctions of the q-OU semigroup with eigenvalue e^(-n tau), and
    x^2 = H_2 + 1, x^4 = H_4 + (1 + [2] + [3]) H_2 + [2] + 1, which gives the
    autocovariances of X^2 and X^4.  The residual e = X_{t+lag} - r X_t,
    r = e^-lag, has E[e^2 | F_t] = 1 - r^2, so its squares are uncorrelated,
    and E e^4 = 2(1-q) r^2 (1-r^2) + (2+q)(1-r^2)^2 (q-BM under the time
    change X_t = e^-t W_(e^2t), see qbm_qv_variance).
    """
    paths, points = values.shape
    lag = times[0, 1] - times[0, 0]
    c2, c4 = qint(q, 2), qint(q, 1) * qint(q, 2) * qint(q, 3) * qint(q, 4)
    c22 = (1.0 + qint(q, 2) + qint(q, 3)) ** 2 * c2
    var2 = grid_mean_variance(lambda tau: c2 * np.exp(-2.0 * tau), lag, points)
    var4 = grid_mean_variance(lambda tau: c4 * np.exp(-4.0 * tau) + c22 * np.exp(-2.0 * tau),
                              lag, points)
    require_mean(np.mean(values ** 2, axis=1), 1.0, f"q-OU E X^2 at q={q}", math.sqrt(var2 / paths))
    require_mean(np.mean(values ** 4, axis=1), 2.0 + q, f"q-OU E X^4 at q={q}",
                 math.sqrt(var4 / paths))
    r = math.exp(-lag)
    v = -math.expm1(-2.0 * lag)
    resid = np.mean((values[:, 1:] - r * values[:, :-1]) ** 2, axis=1)
    var_resid = (2.0 * (1.0 - q) * r * r * v + (1.0 + q) * v * v) / (points - 1)
    require_mean(resid, v, f"q-OU lag residual at q={q}", math.sqrt(var_resid / paths))


def jump_bound(q, S, T, a):
    return min(1.0, (1.0 - q) * (T * T - S * S) / a ** 4)


def check_jumps(result, q, S, T, a, paths):
    expected = jump_bound(q, S, T, a)
    require(math.isclose(result["bound"], expected, rel_tol=1e-12, abs_tol=0.0),
            f"jumps bound {result['bound']} != (1-q)(T^2-S^2)/a^4 = {expected}")
    n = result["exceed_count"]
    require(0 <= n <= paths and result["paths"] == paths, "jumps counts are inconsistent")
    f = n / paths
    require(math.isclose(result["exceed_fraction"], f, rel_tol=1e-12), "exceed_fraction != count/paths")
    se = math.sqrt(f * (1.0 - f) / paths)
    require(f <= expected + 3.0 * se, f"exceedance {f:.4g} above bound {expected:.4g} + 3 SE")


# ---------------------------------------------------------------- densities


def load_density(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def edge_moments(y, pdf, radius, c):
    """Mass, mean and second moment of a density on [-radius, radius].

    The q-kernels have the form sqrt(c (radius^2 - y^2)) g(y) with g smooth,
    so g is splined from the interior grid points and integrated after
    y = radius sin(theta), which removes the square-root edges; Gauss-
    Legendre in theta then converges fast.
    """
    require(np.isclose(y[0], -radius, rtol=0, atol=1e-12) and np.isclose(y[-1], radius, rtol=0, atol=1e-12),
            "density grid does not span the support")
    require(np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0), "density has negative or non-finite values")
    inner = slice(1, -1)
    g = CubicSpline(y[inner], pdf[inner] / np.sqrt(c * (radius * radius - y[inner] ** 2)))
    th, w = np.polynomial.legendre.leggauss(400)
    th = 0.5 * math.pi * th
    yy = radius * np.sin(th)
    f = 0.5 * math.pi * w * math.sqrt(c) * radius * radius * np.cos(th) ** 2 * g(yy)
    return float(f.sum()), float((f * yy).sum()), float((f * yy * yy).sum())


def require_close(value, expected, label, tol=DENSITY_TOL):
    require(abs(value - expected) <= tol, f"{label}: {value:.12g} vs {expected:.12g}")


def check_qou_density(y, pdf, q, delta, x):
    """Mass 1, conditional mean e^-d x, second moment e^-2d x^2 + 1 - e^-2d."""
    radius = 2.0 / math.sqrt(1.0 - q)
    m0, m1, m2 = edge_moments(y, pdf, radius, 1.0 - q)
    r = math.exp(-delta)
    require_close(m0, 1.0, f"q-OU density mass (q={q})")
    require_close(m1, r * x, f"q-OU conditional mean (q={q})")
    require_close(m2, r * r * x * x - math.expm1(-2.0 * delta), f"q-OU second moment (q={q})")


def check_qbm_density(y, pdf, q, t1, t2, y1):
    """Mass 1, mean y1 and variance t2 - t1."""
    radius = 2.0 * math.sqrt(t2 / (1.0 - q))
    m0, m1, m2 = edge_moments(y, pdf, radius, 1.0 - q)
    require_close(m0, 1.0, f"q-BM density mass (q={q})")
    require_close(m1, y1, f"q-BM conditional mean (q={q})")
    require_close(m2 - m1 * m1, t2 - t1, f"q-BM conditional variance (q={q})")


def free_mehler_pdf(delta, x, y):
    """q = 0 OU kernel: (1 - r^2) sqrt(4 - y^2) / (2 pi [(1-r^2)^2 - r(1+r^2)xy + r^2(x^2+y^2)])."""
    r = math.exp(-delta)
    y = np.asarray(y, dtype=float)
    den = (1.0 - r * r) ** 2 - r * (1.0 + r * r) * x * y + r * r * (x * x + y * y)
    return (1.0 - r * r) * np.sqrt(np.clip(4.0 - y * y, 0.0, None)) / (2.0 * math.pi * den)


def check_free_mehler(y, pdf, delta, x):
    ref = free_mehler_pdf(delta, x, y)
    err = np.max(np.abs(pdf - ref) / np.max(ref))
    require(err <= CLOSED_FORM_RTOL, f"q=0 q-OU density differs from the free Mehler kernel by {err:.3g}")


# ---------------------------------------------------------------- reports


def load_result(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    require(doc.get("tool") == "qtangent" and "result" in doc, f"{path} is not a qtangent envelope")
    return doc["result"]


def check_rows_pass(rows):
    require(rows, "empty verification report")
    for row in rows:
        require(row.get("pass") is True, f"report row {row.get('kind')} did not pass")
        res = row.get("max_residual")
        require(isinstance(res, (int, float)) and math.isfinite(res) and res >= 0.0,
                f"report row {row.get('kind')} has residual {res!r}")


def check_kinds_present(rows, kinds):
    present = {row.get("kind") for row in rows}
    missing = [k for k in kinds if k not in present]
    require(not missing, f"report rows missing: {', '.join(missing)}")


def check_kernels_report(rows):
    check_kinds_present(rows, [f"{test}:{fam}" for test in ("normalization", "chapman_kolmogorov")
                               for fam in KERNEL_FAMILIES])
    check_rows_pass(rows)


def check_freeprob_report(rows):
    check_kinds_present(rows, FREEPROB_KINDS)
    check_rows_pass(rows)


def check_l1_values(values, label):
    for v in values:
        require(isinstance(v, (int, float)) and 0.0 <= v <= 2.0, f"{label}: L1 value {v!r} outside [0, 2]")


def check_tangent_report(rows, n_studies):
    """verify --suite tangent: every study present and passing, L1 values in [0, 2]."""
    require(len(rows) == n_studies, f"expected {n_studies} tangent studies, got {len(rows)}")
    check_kinds_present(rows, [f"tangent:{c}" for c in TANGENT_CASES] + ["tangent:negative_control"])
    check_rows_pass(rows)
    for row in rows:
        check_l1_values(row["ladder"], row["kind"])


def check_tangent_study(result, verdict):
    require(result.get("verdict") == verdict, f"tangent {result.get('case')} verdict is "
            f"{result.get('verdict')!r}, expected {verdict!r}")
    check_l1_values([rung["l1"] for rung in result["ladder"]], f"tangent {result.get('case')}")
