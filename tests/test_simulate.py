import math

import numpy as np
import pytest
from scipy.integrate import quad

import qtangent.simulate
from qtangent.errors import (
    InvalidCount,
    InvalidState,
    InvalidThreshold,
    InvalidTime,
    NonConvergent,
)
from qtangent.kernels import qnormal_pdf, x_plus
from qtangent.simulate import (
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


def one_path(process, q, grid, x0, seed):
    """Row 0 of a one-path ensemble, with the grid times."""
    times, values = simulate_ensemble(process, q, grid, x0, seed, 1)
    return times, values[0]


class TestSimulatePath:
    def test_fixed_seed_reproduces(self):
        q = 0.5
        g = TimeGrid(0.0, 1.0, 30)
        _, a = one_path("qou", q, g, None, 7)
        _, b = one_path("qou", q, g, None, 7)
        np.testing.assert_array_equal(a, b)

    def test_initial_conditions(self):
        q = 0.5
        g = TimeGrid(0.0, 1.0, 5)
        assert one_path("qou", q, g, 0.3, 1)[1][0] == 0.3
        assert one_path("qbm", q, g, None, 1)[1][0] == 0.0

    def test_invalid_inits(self):
        q = 0.5
        g = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(InvalidState):
            one_path("qou", q, g, x_plus(q) * 2, 1)
        with pytest.raises(InvalidState):
            one_path("qou", q, g, math.nan, 1)
        with pytest.raises(InvalidState):
            one_path("qbm", q, g, 0.1, 1)

    def test_qbm_from_the_origin_is_the_marginal_start(self):
        # at t0 = 0 the marginal is the point mass at 0: no q-normal row is
        # drawn for the start, and no start value is -0.0
        q = 0.5
        g = TimeGrid(0.0, 1.0, 10)
        _, marginal = simulate_ensemble("qbm", q, g, None, 13, 5)
        _, origin = simulate_ensemble("qbm", q, g, 0.0, 13, 5)
        np.testing.assert_array_equal(marginal, origin)
        assert marginal.tobytes() == origin.tobytes()
        assert not np.any(np.signbit(marginal[:, 0]))

    def test_qbm_support_confinement(self):
        q = 0.9
        times, values = one_path("qbm", q, TimeGrid(0.0, 4.0, 300), None, 3)
        bound = 2.0 * np.sqrt(times / (1 - 0.9))
        assert np.all(np.abs(values) <= bound + 1e-9)

    def test_qou_support_confinement(self):
        q = -0.5
        _, values = one_path("qou", q, TimeGrid(0.0, 2.0, 200), None, 4)
        assert np.all(np.abs(values) <= x_plus(q) + 1e-9)


class TestEnsemble:
    def test_shape_and_times(self):
        g = TimeGrid(1.0, 2.0, 8)
        times, values = simulate_ensemble("qbm", 0.5, g, None, 2, 4)
        assert values.shape == (4, 9)
        np.testing.assert_array_equal(times, g.times)

    @pytest.mark.parametrize("process, grid, x0", [
        ("qou", TimeGrid(0.0, 1.0, 12), None),
        ("qbm", TimeGrid(0.0, 1.0, 12), None),
        ("qbm", TimeGrid(1.0, 2.0, 12), 0.4),
    ], ids=["qou-stationary", "qbm-origin", "qbm-fixed"])
    def test_rows_do_not_depend_on_ensemble_size(self, process, grid, x0):
        q = 0.5
        _, three = simulate_ensemble(process, q, grid, x0, 11, 3)
        _, seven = simulate_ensemble(process, q, grid, x0, 11, 7)
        np.testing.assert_array_equal(three, seven[:3])

    def test_matches_individual_paths(self):
        # 300 paths put (states x 380) kernel points past the loop crossover of
        # the tail product, a single path stays below it: row i must equal the
        # last row of an ensemble of i + 1 paths
        q = 0.5
        for grid, n_paths, picks in ((TimeGrid(0.0, 1.0, 20), 6, (0, 2, 5)),
                                     (TimeGrid(0.0, 1.0, 5), 300, (0, 7, 150, 299))):
            _, ens = simulate_ensemble("qbm", q, grid, None, 11, n_paths)
            for i in picks:
                _, head = simulate_ensemble("qbm", q, grid, None, 11, i + 1)
                np.testing.assert_array_equal(ens[i], head[i])

    def test_batch_size_invariance(self):
        # two paths evaluate the tail product as one (K, points) array, 200 as
        # a loop over k; the paths they share must agree bit for bit
        q = 0.3
        g = TimeGrid(0.0, 1.0, 15)
        _, a = simulate_ensemble("qou", q, g, None, 5, 2)
        _, b = simulate_ensemble("qou", q, g, None, 5, 200)
        np.testing.assert_array_equal(a, b[:2])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(InvalidCount):
            simulate_ensemble("qbm", 0.5, TimeGrid(0.0, 1.0, 5), None, 1, 0)
        with pytest.raises(InvalidCount):
            moment4_estimate(0.5, 0.0, 1.0, 0, 1)

    def test_stationary_pooled_variance(self):
        # pooled marginals of a stationary run have unit variance; the paths
        # are autocorrelated so the tolerance uses a crude effective n
        q = 0.5
        _, values = simulate_ensemble("qou", q, TimeGrid(0.0, 5.0, 25), None, 21, 200)
        n_eff = values.size / 4.0
        tol = 4.0 * math.sqrt((2.0 + q - 1.0) / n_eff)
        assert abs(float(np.var(values)) - 1.0) < tol

    def test_qbm_marginal_matches_closed_form(self):
        # pooled time-t values against the sqrt(t)-dilated q-normal (L1 on 50
        # bins); 4e4 samples keep the multinomial noise floor (~0.022) below
        # the 0.03 bound so the check has discriminating power
        q, t, n_paths = 0.5, 1.0, 40_000
        _, values = simulate_ensemble("qbm", q, TimeGrid(0.0, t, 4), None, 31, n_paths)
        finals = values[:, -1]
        b = 2.0 * math.sqrt(t / (1 - q))
        edges = np.linspace(-b, b, 51)
        hist, _ = np.histogram(finals, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        target = qnormal_pdf(q, centers / math.sqrt(t)) / math.sqrt(t)
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
        for q in (1.5, -1.0, math.nan):
            with pytest.raises(NonConvergent):
                jump_bound(q, 0.0, 1.0, 1.0)


def max_increments(q, S, T, n_paths, steps, seed):
    """Largest absolute grid increment of each q-BM path, as sup_jump_estimate draws them."""
    _, values = simulate_ensemble("qbm", q, TimeGrid(S, T, steps), None, seed, n_paths)
    return np.max(np.abs(np.diff(values, axis=1)), axis=1)


@pytest.fixture(scope="module")
def increments():
    return max_increments(0.5, 0.0, 1.0, 80, 120, 42)


class TestSupJump:
    @pytest.mark.parametrize("q, S, T, a, error", [
        (0.5, 0.0, 1.0, 0.0, InvalidThreshold),
        (0.5, 1.0, 1.0, 0.5, InvalidTime),
        (1.5, 0.0, 1.0, 0.5, NonConvergent),
    ], ids=["a-zero", "S-equals-T", "q-1.5"])
    def test_rejects_before_drawing(self, monkeypatch, q, S, T, a, error):
        def no_draws(*args):
            raise AssertionError("a path was drawn")
        monkeypatch.setattr(qtangent.simulate, "simulate_ensemble", no_draws)
        with pytest.raises(error):
            sup_jump_estimate(q, S, T, a, 40, 80, 1)

    def test_huge_threshold_nothing_exceeds(self):
        stats = sup_jump_estimate(0.5, 0.0, 1.0, 1e3, 40, 80, 1)
        assert stats["exceed_fraction"] == 0.0 and stats["within_bound"]

    @pytest.mark.parametrize("S, a", [(0.0, 0.5), (1.0, 0.3)])
    def test_counts_the_ensemble_increments(self, S, a):
        # the statistics are those of the ensemble drawn with the same seed
        stats = sup_jump_estimate(0.5, S, S + 1.0, a, 30, 40, 9)
        mx = max_increments(0.5, S, S + 1.0, 30, 40, 9)
        count = int(np.sum(mx > a))
        f = count / 30
        se = math.sqrt(f * (1.0 - f) / 30)
        bound = jump_bound(0.5, S, S + 1.0, a)
        assert stats == {
            "q": 0.5, "S": S, "T": S + 1.0, "a": a, "paths": 30, "steps": 40,
            "exceed_fraction": f, "exceed_count": count, "max_abs_increment": float(np.max(mx)),
            "binomial_std_error": se, "bound": bound, "within_bound": f <= bound + 3.0 * se,
        }
        assert list(stats) == ["q", "S", "T", "a", "paths", "steps", "exceed_fraction",
                               "exceed_count", "max_abs_increment", "binomial_std_error",
                               "bound", "within_bound"]

    def test_monotone_in_threshold(self, increments):
        fracs = [float(np.mean(increments > a)) for a in (0.25, 0.5, 1.0, 2.0)]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))

    def test_counts_bounded_by_ensemble(self):
        stats = sup_jump_estimate(0.5, 0.0, 1.0, 0.5, 40, 80, 1)
        assert 0 <= stats["exceed_count"] <= stats["paths"]

    def test_marginal_start_above_zero(self):
        inc = max_increments(0.5, 1.0, 2.0, 10, 30, 3)
        assert len(inc) == 10 and np.all(inc >= 0.0)
