import math

import numpy as np
import pytest
from scipy.integrate import quad

from qtangent.errors import InvalidCount, InvalidState, InvalidThreshold, InvalidTime
from qtangent.kernels import qnormal_pdf
from qtangent.qspecial import QParams
from qtangent.simulate import (
    JumpStats,
    TimeGrid,
    jump_bound,
    moment4_closed,
    moment4_estimate,
    simulate_ensemble,
    sup_jump_estimate,
)


class TestTimeGrid:
    def test_times(self):
        g = TimeGrid(0.0, 1.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(InvalidTime):
            TimeGrid(1.0, 0.5, 10)
        with pytest.raises(InvalidTime):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(InvalidTime):
            TimeGrid(0.0, math.inf, 10)


def one_path(process, p, grid, x0, seed):
    """Row 0 of a one-path ensemble, with the grid times."""
    times, values = simulate_ensemble(process, p, grid, x0, seed, 1)
    return times, values[0]


class TestSimulatePath:
    def test_fixed_seed_reproduces(self):
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 30)
        _, a = one_path("qou", p, g, None, 7)
        _, b = one_path("qou", p, g, None, 7)
        np.testing.assert_array_equal(a, b)

    def test_initial_conditions(self):
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 5)
        assert one_path("qou", p, g, 0.3, 1)[1][0] == 0.3
        assert one_path("qbm", p, g, None, 1)[1][0] == 0.0

    def test_invalid_inits(self):
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(InvalidState):
            one_path("qou", p, g, p.x_plus * 2, 1)
        with pytest.raises(InvalidState):
            one_path("qou", p, g, math.nan, 1)
        with pytest.raises(InvalidState):
            one_path("qbm", p, g, 0.1, 1)

    def test_qbm_from_the_origin_is_the_marginal_start(self):
        # at t0 = 0 the marginal is the point mass at 0: no q-normal row is
        # drawn for the start, and no start value is -0.0
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 10)
        _, marginal = simulate_ensemble("qbm", p, g, None, 13, 5)
        _, origin = simulate_ensemble("qbm", p, g, 0.0, 13, 5)
        np.testing.assert_array_equal(marginal, origin)
        assert marginal.tobytes() == origin.tobytes()
        assert not np.any(np.signbit(marginal[:, 0]))

    def test_qbm_support_confinement(self):
        p = QParams(0.9)
        times, values = one_path("qbm", p, TimeGrid(0.0, 4.0, 300), None, 3)
        bound = 2.0 * np.sqrt(times / (1 - 0.9))
        assert np.all(np.abs(values) <= bound + 1e-9)

    def test_qou_support_confinement(self):
        p = QParams(-0.5)
        _, values = one_path("qou", p, TimeGrid(0.0, 2.0, 200), None, 4)
        assert np.all(np.abs(values) <= p.x_plus + 1e-9)


class TestEnsemble:
    def test_shape_and_times(self):
        g = TimeGrid(1.0, 2.0, 8)
        times, values = simulate_ensemble("qbm", QParams(0.5), g, None, 2, 4)
        assert values.shape == (4, 9)
        np.testing.assert_array_equal(times, g.times)

    @pytest.mark.parametrize("process, grid, x0", [
        ("qou", TimeGrid(0.0, 1.0, 12), None),
        ("qbm", TimeGrid(0.0, 1.0, 12), None),
        ("qbm", TimeGrid(1.0, 2.0, 12), 0.4),
    ], ids=["qou-stationary", "qbm-origin", "qbm-fixed"])
    def test_rows_do_not_depend_on_ensemble_size(self, process, grid, x0):
        p = QParams(0.5)
        _, three = simulate_ensemble(process, p, grid, x0, 11, 3)
        _, seven = simulate_ensemble(process, p, grid, x0, 11, 7)
        np.testing.assert_array_equal(three, seven[:3])

    def test_matches_individual_paths(self):
        # 300 paths put (states x 380) kernel points past the loop crossover of
        # the tail product, a single path stays below it: row i must equal the
        # last row of an ensemble of i + 1 paths
        p = QParams(0.5)
        for grid, n_paths, picks in ((TimeGrid(0.0, 1.0, 20), 6, (0, 2, 5)),
                                     (TimeGrid(0.0, 1.0, 5), 300, (0, 7, 150, 299))):
            _, ens = simulate_ensemble("qbm", p, grid, None, 11, n_paths)
            for i in picks:
                _, head = simulate_ensemble("qbm", p, grid, None, 11, i + 1)
                np.testing.assert_array_equal(ens[i], head[i])

    def test_batch_size_invariance(self):
        # two paths evaluate the tail product as one (K, points) array, 200 as
        # a loop over k; the paths they share must agree bit for bit
        p = QParams(0.3)
        g = TimeGrid(0.0, 1.0, 15)
        _, a = simulate_ensemble("qou", p, g, None, 5, 2)
        _, b = simulate_ensemble("qou", p, g, None, 5, 200)
        np.testing.assert_array_equal(a, b[:2])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(InvalidCount):
            simulate_ensemble("qbm", QParams(0.5), TimeGrid(0.0, 1.0, 5), None, 1, 0)
        with pytest.raises(InvalidCount):
            moment4_estimate(0.5, 0.0, 1.0, 0, 1)

    def test_stationary_pooled_variance(self):
        # pooled marginals of a stationary run have unit variance; the paths
        # are autocorrelated so the tolerance uses a crude effective n
        q = 0.5
        p = QParams(q)
        _, values = simulate_ensemble("qou", p, TimeGrid(0.0, 5.0, 25), None, 21, 200)
        n_eff = values.size / 4.0
        tol = 4.0 * math.sqrt((2.0 + q - 1.0) / n_eff)
        assert abs(float(np.var(values)) - 1.0) < tol

    def test_qbm_marginal_matches_closed_form(self):
        # pooled time-t values against the sqrt(t)-dilated q-normal (L1 on 50
        # bins); 4e4 samples keep the multinomial noise floor (~0.022) below
        # the 0.03 bound so the check has discriminating power
        q, t, n_paths = 0.5, 1.0, 40_000
        p = QParams(q)
        _, values = simulate_ensemble("qbm", p, TimeGrid(0.0, t, 4), None, 31, n_paths)
        finals = values[:, -1]
        b = 2.0 * math.sqrt(t / (1 - q))
        edges = np.linspace(-b, b, 51)
        hist, _ = np.histogram(finals, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        target = qnormal_pdf(p, centers / math.sqrt(t)) / math.sqrt(t)
        l1 = float(np.sum(np.abs(hist - target)) * (edges[1] - edges[0]))
        assert l1 < 0.03


class TestMoment4:
    def test_closed_form_values(self):
        assert moment4_closed(0.3, 0.0, 1.0) == pytest.approx(2.3)
        assert moment4_closed(0.9, 2.0, 2.0) == 0.0
        assert moment4_closed(0.5, 1.0, 2.0) == pytest.approx(3.5)

    def test_closed_form_validation(self):
        with pytest.raises(InvalidTime):
            moment4_closed(0.5, 2.0, 1.0)
        with pytest.raises(InvalidTime):
            moment4_closed(0.5, -1.0, 1.0)

    def test_estimate_from_origin(self):
        est, se = moment4_estimate(0.0, 0.0, 1.0, 30_000, 8)
        assert abs(est - 2.0) < 4.0 * se

    def test_estimate_conditional_step(self):
        est, se = moment4_estimate(0.5, 1.0, 2.0, 30_000, 9)
        assert abs(est - 3.5) < 4.0 * se

    def test_single_sample_flags_infinite_error(self):
        est, se = moment4_estimate(0.5, 0.0, 1.0, 1, 10)
        assert math.isfinite(est)
        assert se == math.inf

    def test_deterministic(self):
        a = moment4_estimate(0.2, 0.0, 1.0, 500, 12)
        b = moment4_estimate(0.2, 0.0, 1.0, 500, 12)
        assert a == b


class TestJumpBound:
    def test_spot_values(self):
        assert jump_bound(0.5, 0.0, 1.0, 1.0) == 0.5
        assert jump_bound(0.999999, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-5)
        assert jump_bound(0.0, 0.0, 1.0, 10.0) == pytest.approx(1e-4)

    def test_capped_at_one(self):
        assert jump_bound(0.0, 0.0, 2.0, 0.1) == 1.0

    def test_validation(self):
        with pytest.raises(InvalidTime):
            jump_bound(0.5, 1.0, 0.5, 1.0)
        with pytest.raises(InvalidThreshold):
            jump_bound(0.5, 0.0, 1.0, 0.0)


def max_increments(q, S, T, n_paths, steps, seed):
    """Largest absolute grid increment of each q-BM path, as sup_jump_estimate draws them."""
    _, values = simulate_ensemble("qbm", QParams(q), TimeGrid(S, T, steps), None, seed, n_paths)
    return np.max(np.abs(np.diff(values, axis=1)), axis=1)


@pytest.fixture(scope="module")
def increments():
    return max_increments(0.5, 0.0, 1.0, 80, 120, 42)


class TestSupJump:
    def test_zero_threshold_everything_exceeds(self):
        stats = sup_jump_estimate(0.5, 0.0, 1.0, 0.0, 40, 80, 1)
        assert stats.exceed_fraction == 1.0

    def test_huge_threshold_nothing_exceeds(self):
        stats = sup_jump_estimate(0.5, 0.0, 1.0, 1e3, 40, 80, 1)
        assert stats.exceed_fraction == 0.0

    @pytest.mark.parametrize("S, a", [(0.0, 0.5), (1.0, 0.3)])
    def test_counts_the_ensemble_increments(self, S, a):
        # the statistics are those of the ensemble drawn with the same seed
        stats = sup_jump_estimate(0.5, S, S + 1.0, a, 30, 40, 9)
        mx = max_increments(0.5, S, S + 1.0, 30, 40, 9)
        assert stats == JumpStats(float(np.max(mx)), int(np.sum(mx > a)), 30)

    def test_monotone_in_threshold(self, increments):
        fracs = [float(np.mean(increments > a)) for a in (0.25, 0.5, 1.0, 2.0)]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))

    def test_counts_bounded_by_ensemble(self, increments):
        stats = JumpStats(float(np.max(increments)), int(np.sum(increments > 0.5)),
                          len(increments))
        assert 0 <= stats.exceed_count <= stats.ensemble_size

    def test_marginal_start_above_zero(self):
        inc = max_increments(0.5, 1.0, 2.0, 10, 30, 3)
        assert len(inc) == 10 and np.all(inc >= 0.0)
