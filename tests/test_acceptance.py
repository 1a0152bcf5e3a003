"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest -s` to see the lines as they pass).
"""

import math
import time

import numpy as np
import pytest

from qtangent.freeprob import g_half_closed, stieltjes_invert, subordinator_F
from qtangent.qspecial import QParams
from qtangent.simulate import (
    TimeGrid,
    jump_bound,
    moment4_closed,
    moment4_estimate,
    simulate_ensemble,
)
from qtangent.tangent import TangentCase, convergence_study, default_window, limit_pdf
from qtangent.verify import (
    chapman_kolmogorov_report,
    kernel_normalization_report,
    ou_bm_identity_report,
    verify_identities,
)

LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")


def test_criterion_1_fourth_moment():
    # (2+q)(t-s)^2 + 2(1-q)s(t-s) within 4 standard errors at 1e5 samples
    t0 = time.time()
    failures = []
    for q in (-0.5, 0.0, 0.5, 0.9):
        for (s, t) in ((0.0, 1.0), (1.0, 2.0)):
            est, se = moment4_estimate(q, s, t, 100_000, 1001)
            target = moment4_closed(q, s, t)
            if abs(est - target) > 4.0 * se:
                failures.append((q, s, t, est, target, se))
    elapsed = time.time() - t0
    _report("1 fourth-moment formula", not failures,
            f"8 parameter sets, 1e5 samples each, runtime {elapsed:.0f}s (cap 120s)")
    assert not failures, failures
    assert elapsed <= 120.0


def test_criterion_2_large_jump_bound():
    # empirical exceedance over 500 paths x 500 steps <= bound + 3 binomial SE
    t0 = time.time()
    failures = []
    for q in (0.0, 0.5, 0.9):
        _, values = simulate_ensemble("qbm", QParams(q), TimeGrid(0.0, 1.0, 500),
                                      None, 2002, 500)
        mx = np.max(np.abs(np.diff(values, axis=1)), axis=1)
        for a in (0.5, 1.0, 2.0):
            frac = float(np.mean(mx > a))
            se = math.sqrt(max(frac * (1.0 - frac), 1.0 / 500) / 500)
            bound = jump_bound(q, 0.0, 1.0, a)
            if frac > bound + 3.0 * se:
                failures.append((q, a, frac, bound))
    elapsed = time.time() - t0
    _report("2 large-jump bound", not failures,
            f"9 (q, a) pairs, 500x500 ensembles, runtime {elapsed:.0f}s (cap 600s)")
    assert not failures, failures
    assert elapsed <= 600.0


def test_criterion_3_interior_qou_tangent():
    # ladder nonincreasing (10% slack), terminal L1 < 0.02, wrong scale fails
    t0 = time.time()
    failures = []
    for q in (-0.5, 0.0, 0.5, 0.9):
        xp = 2.0 / math.sqrt(1.0 - q)
        for frac in (0.0, 0.5, -0.5):
            rep = convergence_study(TangentCase("qou_interior", q, x=frac * xp), LADDER)
            if rep["verdict"] != "pass":
                failures.append((q, frac, [r["l1"] for r in rep["ladder"]]))
    control = convergence_study(
        TangentCase("qou_interior", 0.5, x=0.5 * 2.0 / math.sqrt(0.5)),
        LADDER, scale_override=1.0)
    control_ok = control["verdict"] == "fail"
    elapsed = time.time() - t0
    _report("3 interior q-OU tangent (Cauchy limit)", not failures and control_ok,
            f"12 studies pass, negative control fails={control_ok}, "
            f"runtime {elapsed:.0f}s (cap 300s)")
    assert not failures, failures
    assert control_ok
    assert elapsed <= 300.0


def test_criterion_4_boundary_and_qbm_tangents():
    # boundary 1/2-stable limits and drifted-Cauchy q-BM limits, same ladder
    t0 = time.time()
    failures = []
    for q in (-0.5, 0.0, 0.5, 0.9):
        rep = convergence_study(TangentCase("qou_boundary", q), LADDER)
        if rep["verdict"] != "pass":
            failures.append(("qou_boundary", q, None))
        for s in (0.5, 1.0, 2.0):
            half = 2.0 * math.sqrt(s / (1.0 - q))
            for frac in (0.0, 0.5, -0.5):
                rep = convergence_study(
                    TangentCase("qbm_interior", q, x=frac * half, s=s), LADDER)
                if rep["verdict"] != "pass":
                    failures.append(("qbm_interior", q, s, frac))
            rep = convergence_study(TangentCase("qbm_boundary", q, s=s), LADDER)
            if rep["verdict"] != "pass":
                failures.append(("qbm_boundary", q, s))
    # drift location: argmax of the interior q-BM limit at t = 1 sits at x/(2s)
    drift_ok = True
    for (q, s) in ((0.0, 0.5), (0.5, 1.0), (0.9, 2.0)):
        x = 0.6 * 2.0 * math.sqrt(s / (1.0 - q))
        case = TangentCase("qbm_interior", q, x=x, s=s)
        w = default_window(case)
        grid = np.linspace(w.y2_lo, w.y2_hi, 8001)
        vals = limit_pdf(case, 0.0, 1.0, 0.0, grid)
        peak = float(grid[np.argmax(vals)])
        if abs(peak - x / (2.0 * s)) > grid[1] - grid[0] + 1e-12:
            drift_ok = False
    elapsed = time.time() - t0
    _report("4 boundary/q-BM tangents (1/2-stable Biane, drifted Cauchy)",
            not failures and drift_ok,
            f"52 studies pass, drift argmax at x/(2s)={drift_ok}, runtime {elapsed:.0f}s")
    assert not failures, failures
    assert drift_ok


def test_criterion_5_kernel_integrity():
    # normalization 1e-7, Chapman-Kolmogorov 1e-6 (50 sets each),
    # OU<->BM identity 1e-10 relative at 100 points
    t0 = time.time()
    rows = kernel_normalization_report(n_sets=50)
    rows += chapman_kolmogorov_report(n_sets=50)
    rows += ou_bm_identity_report(n_points=100)
    tolerance = {"normalization": 1e-7, "chapman_kolmogorov": 1e-6, "ou_bm_identity": 1e-10}
    assert [r["threshold"] for r in rows] == [tolerance[r["kind"].split(":")[0]] for r in rows]
    assert len(rows) == 9
    bad = [r for r in rows if not r["pass"]]
    elapsed = time.time() - t0
    worst = max(r["max_residual"] / r["threshold"] for r in rows)
    _report("5 kernel integrity", not bad,
            f"{len(rows)} sweeps, worst residual at {worst:.1%} of its threshold, "
            f"runtime {elapsed:.0f}s")
    assert not bad, bad


def test_criterion_6_free_probability_identities():
    t0 = time.time()
    sub = verify_identities("subordination", sample_points=1000)
    exact = abs(g_half_closed(2.0, -1.0 + 0j)
                - g_half_closed(1.0, subordinator_F(1.0, 2.0, -1.0 + 0j)))
    both_sides = g_half_closed(2.0, -1.0 + 0j)
    biane3 = verify_identities("biane3", sample_points=120)
    inv = abs(stieltjes_invert(lambda z: g_half_closed(1.0, z), 1.0)
              - math.sqrt(3.0) / (2.0 * math.pi))
    y = 1e4
    fasym = abs(subordinator_F(1.0, 1.05, complex(0.0, y)) / complex(0.0, y) - 1.0)
    elapsed = time.time() - t0
    ok = (sub < 1e-10 and exact < 1e-12 and biane3 < 1e-6
          and inv < 1e-4 and fasym < 1e-3)
    _report("6 free-probability identities", ok,
            f"subordination {sub:.1e} (exact case both sides {both_sides.real:.10f}), "
            f"biane3 {biane3:.1e}, inversion {inv:.1e}, F-asymptote {fasym:.1e}, "
            f"runtime {elapsed:.0f}s (cap 60s)")
    assert sub < 1e-10
    assert exact < 1e-12
    assert both_sides.real == pytest.approx(-(3.0 - 2.0 * math.sqrt(2.0)), abs=1e-12)
    assert biane3 < 1e-6
    assert inv < 1e-4
    assert fasym < 1e-3
    assert elapsed <= 60.0


def test_criterion_7_trajectory_regime():
    # paths confined to the 2 sqrt(t/(1-q)) envelope with zero violations and
    # median max-increment decreasing in q (large jumps fade as q -> 1)
    t0 = time.time()
    medians = []
    violations = 0
    for q in (0.0, 0.5, 0.95):
        times, values = simulate_ensemble("qbm", QParams(q), TimeGrid(0.0, 4.0, 2000),
                                          None, 3003, 100)
        bound = 2.0 * np.sqrt(times / (1.0 - q))
        violations += int(np.sum(np.any(np.abs(values) > bound + 1e-9, axis=1)))
        medians.append(float(np.median(np.max(np.abs(np.diff(values, axis=1)), axis=1))))
    monotone = medians[0] > medians[1] > medians[2]
    elapsed = time.time() - t0
    _report("7 trajectory regime (envelope + jump-size monotonicity)",
            violations == 0 and monotone,
            f"medians {[round(m, 3) for m in medians]}, violations {violations}, "
            f"runtime {elapsed:.0f}s")
    assert violations == 0
    assert monotone
