import math

import numpy as np
import pytest

from qtangent.errors import InvalidCount, InvalidState, InvalidTime, OutOfSupport, UnknownProcess
from qtangent.kernels import cauchy_transition_pdf, x_plus
from qtangent.tangent import (
    TangentCase,
    Window,
    convergence_study,
    default_window,
    distance,
    limit_pdf,
    rescaled_pdf,
)

LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)


class TestTangentCase:
    def test_boundary_pins_location(self):
        case = TangentCase("qou_boundary", 0.5)
        assert case.x == pytest.approx(-2 / math.sqrt(0.5))
        case = TangentCase("qbm_boundary", 0.0, s=2.0)
        assert case.x == pytest.approx(-2 * math.sqrt(2.0))

    def test_interior_requires_inside_point(self):
        with pytest.raises(InvalidState):
            TangentCase("qou_interior", 0.0, x=2.0)
        with pytest.raises(InvalidState):
            TangentCase("qbm_interior", 0.0, x=5.0, s=1.0)

    def test_qbm_requires_base_time(self):
        with pytest.raises(InvalidTime):
            TangentCase("qbm_interior", 0.0, x=0.0)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidTime):
                TangentCase("qbm_boundary", 0.0, s=bad)

    def test_boundary_scale_at_extreme_base_times(self):
        # (a, d, b, r) = (1/sqrt(s(1-q)), s, 0, sqrt((1-q)/s)), finite and
        # positive (b aside) wherever s is
        a, d, b, r = TangentCase("qbm_boundary", 0.5, s=2.0).boundary_frame()
        assert (a, d, b) == (1.0, 2.0, 0.0) and r == pytest.approx(0.5, rel=1e-15)
        for s in (1e-300, 1e300):
            a, d, b, r = TangentCase("qbm_boundary", 0.5, s=s).boundary_frame()
            assert b == 0.0 and d == s
            assert all(0.0 < v < math.inf for v in (a, r))
            assert a * r == pytest.approx(1.0 / s, rel=1e-15)
        assert TangentCase("qou_boundary", 0.5).boundary_frame() == (0.0, 0.5, 1.0,
                                                                   math.sqrt(0.5))

    @pytest.mark.parametrize("q, x, s", [(0.5, 0.7, None), (-0.3, -1.1, None),
                                         (0.9, 1.1, 2.0), (0.0, -0.04, 1e-3)])
    def test_interior_frame(self, q, x, s):
        case = TangentCase("qbm_interior" if s else "qou_interior", q, x=x, s=s)
        if s:
            want = (math.sqrt(4.0 * s / (1.0 - q) - x * x) / (2.0 * s), x / (2.0 * s))
        else:
            want = (math.sqrt(4.0 / (1.0 - q) - x * x), 0.0)
        assert case.interior_frame() == want

    def test_unknown_case(self):
        with pytest.raises(UnknownProcess):
            TangentCase("qou_corner", 0.0)

    def test_interior_scale_collapses_at_edge(self):
        xp = 2 / math.sqrt(1 - 0.5)
        c_edge = TangentCase("qou_interior", 0.5, x=0.999 * xp).interior_frame()[0]
        c_center = TangentCase("qou_interior", 0.5, x=0.0).interior_frame()[0]
        assert c_edge < 0.05 * c_center


class TestLimitPdf:
    def test_interior_free_case(self):
        case = TangentCase("qou_interior", 0.0, x=0.0)
        assert limit_pdf(case, 0.0, 1.0, 0.0, 0.0) == pytest.approx(1 / (2 * math.pi))

    def test_boundary_free_case(self):
        case = TangentCase("qou_boundary", 0.0)
        assert limit_pdf(case, 0.0, 1.0, 0.0, 1.0) == pytest.approx(1 / (2 * math.pi))

    def test_scale_identity_against_cauchy(self):
        case = TangentCase("qou_interior", 0.5, x=0.7)
        c, _ = case.interior_frame()
        gen = np.random.default_rng(2)
        for _ in range(50):
            t1 = gen.uniform(0.0, 1.0)
            t2 = t1 + gen.uniform(0.1, 2.0)
            y1, y2 = gen.uniform(-5, 5, 2)
            lhs = limit_pdf(case, t1, t2, y1, y2)
            rhs = cauchy_transition_pdf(t1, t2, y1 / c, y2 / c) / c
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_drift_identity(self):
        # subtracting the drift line reduces the qbm limit to the driftless case
        case = TangentCase("qbm_interior", 0.5, x=1.0, s=1.0)
        c, drift = case.interior_frame()
        gen = np.random.default_rng(3)
        for _ in range(50):
            t1 = gen.uniform(0.0, 1.0)
            t2 = t1 + gen.uniform(0.1, 2.0)
            y1, y2 = gen.uniform(-4, 4, 2)
            lhs = limit_pdf(case, t1, t2, y1 + t1 * drift, y2 + t2 * drift)
            rhs = cauchy_transition_pdf(c * t1, c * t2, y1, y2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_drift_peak_location(self):
        case = TangentCase("qbm_interior", 0.3, x=1.2, s=1.0)
        grid = np.linspace(-4, 4, 4001)
        vals = limit_pdf(case, 0.0, 1.0, 0.0, grid)
        peak = grid[np.argmax(vals)]
        assert peak == pytest.approx(case.x / (2 * case.s), abs=3e-3)

    def test_boundary_limit_half_line_support(self):
        case = TangentCase("qou_boundary", 0.5)
        ys = np.array([-2.0, -0.5, 0.0])
        np.testing.assert_array_equal(limit_pdf(case, 0.0, 1.0, 0.0, ys), 0.0)
        assert limit_pdf(case, 0.0, 1.0, 0.0, 0.5) > 0.0

    def test_boundary_conditioning_validation(self):
        case = TangentCase("qou_boundary", 0.5)
        with pytest.raises(OutOfSupport):
            limit_pdf(case, 0.5, 1.0, -1.0, 2.0)

    @pytest.mark.parametrize("name, s", [("qou_boundary", None), ("qbm_boundary", 1.0)])
    @pytest.mark.parametrize("t1, y1", [(0.0, -1.0), (0.5, -1.0), (0.5, 0.0)])
    def test_boundary_limits_reject_a_bad_start_alike(self, name, s, t1, y1):
        # both boundary frames test the Biane support z1 > T1^2/4, or T1 = z1 = 0
        case = TangentCase(name, 0.5, s=s)
        with pytest.raises(OutOfSupport):
            limit_pdf(case, t1, 1.0, y1, 2.0)
        assert limit_pdf(case, 0.0, 1.0, 0.0, 2.0) > 0.0


class TestRescaledPdf:
    def test_interior_matches_limit_at_small_eps(self):
        case = TangentCase("qou_interior", 0.0, x=0.0)
        lim = limit_pdf(case, 0.0, 1.0, 0.0, 0.0)
        got = rescaled_pdf(case, 1e-3, 0.0, 1.0, 0.0, 0.0)
        assert got == pytest.approx(lim, rel=0.02)

    def test_boundary_matches_limit_at_small_eps(self):
        case = TangentCase("qou_boundary", 0.0)
        lim = limit_pdf(case, 0.0, 1.0, 0.0, 1.0)
        got = rescaled_pdf(case, 1e-2, 0.0, 1.0, 0.0, 1.0)
        assert got == pytest.approx(lim, rel=0.05)

    def test_zero_beyond_rescaled_support_edge(self):
        case = TangentCase("qou_interior", 0.5, x=0.0)
        eps = 0.1
        edge = (x_plus(case.q) - case.x) / eps
        assert rescaled_pdf(case, eps, 0.0, 1.0, 0.0, edge * 1.01) == 0.0

    def test_out_of_support_conditioning(self):
        case = TangentCase("qou_interior", 0.5, x=0.9 * 2 / math.sqrt(0.5))
        with pytest.raises(OutOfSupport):
            rescaled_pdf(case, 0.5, 0.0, 1.0, 10.0, 0.0)

    def test_qbm_boundary_value(self):
        # rescaled density approaches the m-scaled half-stable limit
        case = TangentCase("qbm_boundary", 0.0, s=1.0)
        y = 1.0
        lim = limit_pdf(case, 0.0, 0.125, 0.0, y)
        got = rescaled_pdf(case, 5e-3, 0.0, 0.125, 0.0, y)
        assert got == pytest.approx(lim, rel=0.05)

    def test_eps_validation(self):
        case = TangentCase("qou_interior", 0.0, x=0.0)
        with pytest.raises(InvalidTime):
            rescaled_pdf(case, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidTime):
            rescaled_pdf(case, 0.1, 1.0, 0.5, 0.0, 0.0)


class TestDistance:
    def test_ladder_monotone(self):
        case = TangentCase("qou_interior", 0.5, x=0.0)
        w = default_window(case)
        l1s, _ = distance(case, (1e-1, 1e-3), w)
        assert l1s[1] < l1s[0]

    def test_window_carries_limit_mass(self):
        # tail bookkeeping: the default window holds ~99% of the limit mass
        case = TangentCase("qou_interior", 0.5, x=0.5)
        w = default_window(case)
        from qtangent.tangent import _window_grid

        grid = _window_grid(case, w, 4001)
        mass = np.trapezoid(limit_pdf(case, w.t1, w.t2, w.y1, grid), grid)
        assert 0.98 <= mass <= 1.0

    def test_identical_densities_give_zero(self):
        case = TangentCase("qou_interior", 0.0, x=0.0)
        w = default_window(case)
        from qtangent.tangent import _window_grid

        grid = _window_grid(case, w, 1001)
        vals = limit_pdf(case, w.t1, w.t2, w.y1, grid)
        assert float(np.trapezoid(np.abs(vals - vals), grid)) == 0.0
        assert float(np.max(np.abs(vals - vals))) == 0.0


CASES = [
    TangentCase("qou_interior", 0.5, x=0.7),
    TangentCase("qou_boundary", 0.9),
    TangentCase("qbm_interior", -0.5, x=-0.4, s=1.5),
    TangentCase("qbm_boundary", 0.9, s=0.5),
]


class TestBatchedLadder:
    """One grid and one kernel call per ladder: each rung's row equals the
    one-rung evaluation bit for bit."""

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.case)
    def test_rows_equal_single_rung_distance(self, case):
        w = default_window(case)
        l1s, sups = distance(case, LADDER, w)
        assert l1s.shape == sups.shape == (len(LADDER),)
        for eps, l1, sup in zip(LADDER, l1s, sups):
            one_l1, one_sup = distance(case, (eps,), w)
            assert (one_l1[0], one_sup[0]) == (l1, sup)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.case)
    def test_rescaled_rows_equal_single_rung_calls(self, case):
        w = default_window(case)
        grid = np.linspace(w.y2_lo, w.y2_hi, 300)
        rows = rescaled_pdf(case, np.array(LADDER)[:, None], w.t1, w.t2, w.y1, grid)
        for eps, row in zip(LADDER, rows):
            np.testing.assert_array_equal(row, rescaled_pdf(case, eps, w.t1, w.t2, w.y1, grid))

    def test_one_rung_out_of_support_raises(self):
        case = TangentCase("qou_interior", 0.5, x=0.9 * 2 / math.sqrt(0.5))
        with pytest.raises(OutOfSupport):
            rescaled_pdf(case, np.array([[0.01], [0.5]]), 0.0, 1.0, 10.0, 0.0)
        with pytest.raises(InvalidTime):
            rescaled_pdf(case, np.array([[0.1], [0.0]]), 0.0, 1.0, 0.0, 0.0)

    def test_resolution_below_minimum_rejected(self):
        case = TangentCase("qou_interior", 0.0, x=0.0)
        w = default_window(case)
        for bad in (-5, 0, 3, 31):
            with pytest.raises(InvalidCount):
                distance(case, (0.1,), w, resolution=bad)
        assert distance(case, (0.1,), w, resolution=32)[0][0] > 0.0


class TestConvergenceStudy:
    def test_interior_passes(self):
        case = TangentCase("qou_interior", 0.5, x=0.5 * 2 / math.sqrt(0.5))
        report = convergence_study(case, LADDER)
        assert report["verdict"] == "pass"
        l1s = [row["l1"] for row in report["ladder"]]
        assert all(b <= a * 1.1 for a, b in zip(l1s, l1s[1:]))
        assert l1s[-1] < 0.02

    def test_wrong_scale_fails(self):
        case = TangentCase("qou_interior", 0.5, x=0.5 * 2 / math.sqrt(0.5))
        report = convergence_study(case, LADDER, scale_override=1.0)
        assert report["verdict"] == "fail"
        assert report["scale_override"] == 1.0

    def test_qbm_boundary_passes(self):
        report = convergence_study(TangentCase("qbm_boundary", 0.0, s=1.0), LADDER)
        assert report["verdict"] == "pass"

    def test_ladder_validation(self):
        case = TangentCase("qou_interior", 0.0, x=0.0)
        with pytest.raises(InvalidState):
            convergence_study(case, (0.1, 0.2))
        with pytest.raises(InvalidState):
            convergence_study(case, (0.1,))

    def test_report_dict_shape(self):
        case = TangentCase("qbm_interior", 0.0, x=0.5, s=1.0)
        w = default_window(case)
        d = convergence_study(case, (0.1, 0.05, 0.01), window=w)
        assert list(d) == ["case", "q", "s", "x", "window", "ladder", "verdict", "threshold",
                           "slack"]
        assert d["case"] == "qbm_interior"
        assert d["verdict"] == "pass"
        assert [row["eps"] for row in d["ladder"]] == [0.1, 0.05, 0.01]
        assert list(d["ladder"][0]) == ["eps", "l1", "sup"]
        assert d["window"] == {"t1": w.t1, "t2": w.t2, "y1": w.y1, "y2": [w.y2_lo, w.y2_hi],
                               "coverage": w.coverage}

    def test_window_validation(self):
        with pytest.raises(InvalidTime):
            Window(1.0, 0.5, 0.0, -1.0, 1.0)
        with pytest.raises(InvalidState):
            Window(0.0, 1.0, 0.0, 2.0, 1.0)

