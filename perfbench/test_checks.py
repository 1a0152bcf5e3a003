"""Each output check accepts a correct output and rejects a deliberately wrong one.

    python3 -m pytest perfbench

The correct outputs are built here from closed forms, so these tests do not
run qtangent.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed


def semicircle_samples(rng, radius, n):
    return radius * (2.0 * rng.beta(1.5, 1.5, n) - 1.0)


def gaussian_ou_paths(rng, paths, steps, T):
    """Stationary Gaussian OU paths: the q -> 1 end of the q-OU family."""
    lag = T / steps
    r = math.exp(-lag)
    x = np.empty((paths, steps + 1))
    x[:, 0] = rng.standard_normal(paths)
    for j in range(steps):
        x[:, j + 1] = r * x[:, j] + math.sqrt(1.0 - r * r) * rng.standard_normal(paths)
    return np.broadcast_to(np.linspace(0.0, T, steps + 1), x.shape), x


def test_semicircle_rejects_wrong_radius():
    rng = np.random.default_rng(1)
    w = semicircle_samples(rng, 2.0, 2000)
    checks.check_semicircle(w, 2.0)
    with pytest.raises(CheckFailed, match="semicircle"):
        checks.check_semicircle(w, 2.4)


def test_qbm_moments_reject_wrong_scale():
    rng = np.random.default_rng(2)
    T, n = 1.0, 400
    # Paths whose terminal values follow the q = 0 law and whose
    # increments have total quadratic variation T.
    w_T = semicircle_samples(rng, 2.0 * math.sqrt(T), n)
    times = np.broadcast_to(np.array([0.0, T]), (n, 2))
    checks.check_qbm_moments(times, np.column_stack([np.zeros(n), w_T]), 0.0, (2, 4, 6))
    with pytest.raises(CheckFailed, match="E W_T"):
        checks.check_qbm_moments(times, np.column_stack([np.zeros(n), 1.2 * w_T]), 0.0, (2, 4, 6))


def test_qbm_moments_reject_missing_quadratic_variation():
    # Right terminal law, but reached along a straight line: the squared
    # increments sum to W_T^2 / steps instead of T.
    rng = np.random.default_rng(5)
    n, steps = 400, 40
    w_T = semicircle_samples(rng, 2.0, n)
    grid = np.linspace(0.0, 1.0, steps + 1)
    times = np.broadcast_to(grid, (n, steps + 1))
    with pytest.raises(CheckFailed, match="squared increments"):
        checks.check_qbm_moments(times, w_T[:, None] * grid[None, :], 0.0, (2, 4, 6))


def test_qv_variance_matches_closed_forms():
    # q = 1 is Brownian motion: Var sum dW^2 = 2 T^2 / steps.  One step from
    # the origin at q = 0: Var W_T^2 = E W_T^4 - T^2 = T^2.
    grid = np.linspace(0.0, 2.0, 11)
    assert checks.qbm_qv_variance(grid, 1.0) == pytest.approx(2.0 * 4.0 / 10)
    assert checks.qbm_qv_variance(np.array([0.0, 2.0]), 0.0) == pytest.approx(4.0)
    # White noise: the variance of the mean is c(0) / points.
    assert checks.grid_mean_variance(lambda tau: np.where(tau == 0.0, 3.0, 0.0), 0.1, 30) \
        == pytest.approx(0.1)


def test_qgauss_moments_match_closed_forms():
    for q in (-0.5, 0.0, 0.5, 0.9):
        assert checks.qgauss_moment(q, 1) == pytest.approx(1.0)
        assert checks.qgauss_moment(q, 2) == pytest.approx(2.0 + q)
        assert checks.qgauss_moment(q, 3) == pytest.approx(5.0 + 6.0 * q + 3.0 * q * q + q ** 3)


def test_qnormal_law_rejects_wrong_q():
    q = 0.5
    cdf = checks.qnormal_cdf(q)
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-9)
    assert checks.qnormal_cdf(0.0)(1.0) == pytest.approx(checks.semicircle_cdf(1.0, 2.0), abs=1e-6)
    grid = np.linspace(-2.0 / math.sqrt(1.0 - q), 2.0 / math.sqrt(1.0 - q), 20001)
    samples = np.interp(np.random.default_rng(4).random(2000), cdf(grid), grid)
    checks.check_qnormal_law(samples, q, 1.0)
    with pytest.raises(CheckFailed, match="q-normal"):
        checks.check_qnormal_law(samples, -0.5, 1.0)


def test_envelope_rejects_path_leaving_it():
    q = 0.5
    times = np.broadcast_to(np.linspace(0.0, 1.0, 11), (3, 11))
    bound = 2.0 * np.sqrt(times / (1.0 - q))
    values = 0.999 * bound * np.array([[1.0], [-1.0], [0.5]])
    checks.check_qbm_envelope(times, values, q)
    values[1, 4] = -1.001 * bound[1, 4]
    with pytest.raises(CheckFailed, match="envelope"):
        checks.check_qbm_envelope(times, values, q)
    values[1, 4] = 0.0
    values[2, 0] = 0.01
    with pytest.raises(CheckFailed, match="start"):
        checks.check_qbm_envelope(times, values, q)
    checks.check_qou_envelope(np.array([[0.0, 2.0 / math.sqrt(0.5)]]), q)
    with pytest.raises(CheckFailed, match="leaves"):
        checks.check_qou_envelope(np.array([[0.0, 1.001 * 2.0 / math.sqrt(0.5)]]), q)


def test_qou_stationary_rejects_wrong_law_and_wrong_dynamics():
    rng = np.random.default_rng(3)
    times, x = gaussian_ou_paths(rng, 200, 400, 20.0)
    checks.check_qou_stationary(times, x, 1.0)
    with pytest.raises(CheckFailed, match="E X\\^4"):
        checks.check_qou_stationary(times, x, 0.0)
    shuffled = rng.permuted(x, axis=1)  # right marginal, no memory
    with pytest.raises(CheckFailed, match="lag residual"):
        checks.check_qou_stationary(times, shuffled, 1.0)


def mehler_table(delta, x, shift=0.0):
    y = np.linspace(-2.0, 2.0, 2001)
    return y, checks.free_mehler_pdf(delta, x, y - shift)


def test_density_rejects_shift():
    delta, x = 0.3, 0.7
    y, pdf = mehler_table(delta, x)
    checks.check_qou_density(y, pdf, 0.0, delta, x)
    checks.check_free_mehler(y, pdf, delta, x)
    y, shifted = mehler_table(delta, x, shift=1e-3)
    with pytest.raises(CheckFailed, match="q-OU density mass"):
        checks.check_qou_density(y, shifted, 0.0, delta, x)
    with pytest.raises(CheckFailed, match="Mehler"):
        checks.check_free_mehler(y, shifted, delta, x)


def test_qbm_density_rejects_wrong_variance():
    # From the origin at q = 0 the time-t2 law is the semicircle of radius
    # 2 sqrt(t2): mean 0 and variance t2.  Claiming a start at t1 = 1
    # makes the expected variance t2 - 1.
    t2 = 1.5
    radius = 2.0 * math.sqrt(t2)
    y = np.linspace(-radius, radius, 2001)
    pdf = np.sqrt(np.clip(radius ** 2 - y ** 2, 0.0, None)) * 2.0 / (math.pi * radius ** 2)
    checks.check_qbm_density(y, pdf, 0.0, 0.0, t2, 0.0)
    with pytest.raises(CheckFailed, match="variance"):
        checks.check_qbm_density(y, pdf, 0.0, 1.0, t2, 0.0)


def kernels_rows():
    rows = [{"kind": f"{test}:{fam}", "samples": 20, "max_residual": 1e-9, "threshold": 1e-7,
             "pass": True}
            for test in ("normalization", "chapman_kolmogorov") for fam in checks.KERNEL_FAMILIES]
    return rows


def test_report_rejects_flipped_or_missing_row():
    rows = kernels_rows()
    checks.check_kernels_report(rows)
    rows[3]["pass"] = False
    with pytest.raises(CheckFailed, match="did not pass"):
        checks.check_kernels_report(rows)
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_kernels_report(kernels_rows()[1:])
    free = [{"kind": k, "samples": 5, "max_residual": 0.0, "threshold": 1.0, "pass": True}
            for k in checks.FREEPROB_KINDS]
    checks.check_freeprob_report(free)
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_freeprob_report(free[:-1])


def test_tangent_checks_reject_bad_verdict_and_l1():
    study = {"case": "qou_interior", "verdict": "pass",
             "ladder": [{"eps": 0.1, "l1": 0.05}, {"eps": 0.05, "l1": 0.01}]}
    checks.check_tangent_study(study, "pass")
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_tangent_study(study, "fail")
    study["ladder"][0]["l1"] = 2.5
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_tangent_study(study, "pass")


def test_jumps_rejects_wrong_bound_and_excess():
    good = {"bound": 0.5, "paths": 100, "exceed_count": 40, "exceed_fraction": 0.4}
    checks.check_jumps(good, 0.5, 0.0, 1.0, 1.0, 100)
    with pytest.raises(CheckFailed, match="bound"):
        checks.check_jumps(dict(good, bound=0.25), 0.5, 0.0, 1.0, 1.0, 100)
    with pytest.raises(CheckFailed, match="above bound"):
        checks.check_jumps(dict(good, exceed_count=80, exceed_fraction=0.8), 0.5, 0.0, 1.0, 1.0, 100)
