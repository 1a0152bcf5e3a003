import math

import numpy as np
import pytest
from scipy.integrate import quad

from qtangent.errors import InvalidCount, InvalidInit, InvalidThreshold, InvalidTime
from qtangent.kernels import qnormal_pdf
from qtangent.qspecial import QParams
from qtangent.sampling import SeedSpec
from qtangent.simulate import (
    Fixed,
    JumpStats,
    Origin,
    Stationary,
    TimeGrid,
    jump_bound,
    max_increments,
    moment4_closed,
    moment4_estimate,
    simulate_ensemble,
    simulate_path,
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


class TestSimulatePath:
    def test_fixed_seed_reproduces(self):
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 30)
        a = simulate_path("qou", p, g, Stationary(), SeedSpec(7, 1))
        b = simulate_path("qou", p, g, Stationary(), SeedSpec(7, 1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_initial_conditions(self):
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 5)
        fixed = simulate_path("qou", p, g, Fixed(0.3), SeedSpec(1))
        assert fixed.values[0] == 0.3
        origin = simulate_path("qbm", p, g, Origin(), SeedSpec(1))
        assert origin.values[0] == 0.0

    def test_invalid_inits(self):
        p = QParams(0.5)
        g = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(InvalidInit):
            simulate_path("qou", p, g, Fixed(p.x_plus * 2), SeedSpec(1))
        with pytest.raises(InvalidInit):
            simulate_path("qou", p, g, Origin(), SeedSpec(1))
        with pytest.raises(InvalidInit):
            simulate_path("qbm", p, TimeGrid(1.0, 2.0, 5), Origin(), SeedSpec(1))
        with pytest.raises(InvalidInit):
            simulate_path("qou", p, g, Fixed(math.nan), SeedSpec(1))

    def test_qbm_support_confinement(self):
        p = QParams(0.9)
        g = TimeGrid(0.0, 4.0, 300)
        path = simulate_path("qbm", p, g, Origin(), SeedSpec(3))
        bound = 2.0 * np.sqrt(path.times / (1 - 0.9))
        assert np.all(np.abs(path.values) <= bound + 1e-9)

    def test_qou_support_confinement(self):
        p = QParams(-0.5)
        path = simulate_path("qou", p, TimeGrid(0.0, 2.0, 200), Stationary(), SeedSpec(4))
        assert np.all(np.abs(path.values) <= p.x_plus + 1e-9)


class TestEnsemble:
    def test_matches_individual_paths(self):
        # 300 paths put (states x 380) kernel points past the loop crossover of
        # the tail product, a single path stays below it: the two must agree
        p = QParams(0.5)
        for grid, n_paths, picks in ((TimeGrid(0.0, 1.0, 20), 6, (0, 2, 5)),
                                     (TimeGrid(0.0, 1.0, 5), 300, (0, 7, 150, 299))):
            ens = simulate_ensemble("qbm", p, grid, Origin(), 11, n_paths)
            for i in picks:
                single = simulate_path("qbm", p, grid, Origin(), SeedSpec(11, i))
                np.testing.assert_array_equal(ens[i].values, single.values)

    def test_batch_size_invariance(self):
        # two paths evaluate the tail product as one (K, points) array, 200 as
        # a loop over k; the paths they share must agree bit for bit
        p = QParams(0.3)
        g = TimeGrid(0.0, 1.0, 15)
        a = simulate_ensemble("qou", p, g, Stationary(), 5, 2)
        b = simulate_ensemble("qou", p, g, Stationary(), 5, 200)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(InvalidCount):
            simulate_ensemble("qbm", QParams(0.5), TimeGrid(0.0, 1.0, 5), Origin(), 1, 0)
        with pytest.raises(InvalidCount):
            moment4_estimate(0.5, 0.0, 1.0, 0, SeedSpec(1))

    def test_stationary_pooled_variance(self):
        # pooled marginals of a stationary run have unit variance; the paths
        # are autocorrelated so the tolerance uses a crude effective n
        q = 0.5
        p = QParams(q)
        ens = simulate_ensemble("qou", p, TimeGrid(0.0, 5.0, 25), Stationary(), 21, 200)
        pooled = np.concatenate([path.values for path in ens])
        n_eff = len(pooled) / 4.0
        tol = 4.0 * math.sqrt((2.0 + q - 1.0) / n_eff)
        assert abs(float(np.var(pooled)) - 1.0) < tol

    def test_qbm_marginal_matches_closed_form(self):
        # pooled time-t values against the sqrt(t)-dilated q-normal (L1 on 50
        # bins); 4e4 samples keep the multinomial noise floor (~0.022) below
        # the 0.03 bound so the check has discriminating power
        q, t, n_paths = 0.5, 1.0, 40_000
        p = QParams(q)
        ens = simulate_ensemble("qbm", p, TimeGrid(0.0, t, 4), Origin(), 31, n_paths)
        finals = np.array([path.values[-1] for path in ens])
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
        est, se = moment4_estimate(0.0, 0.0, 1.0, 30_000, SeedSpec(8))
        assert abs(est - 2.0) < 4.0 * se

    def test_estimate_conditional_step(self):
        est, se = moment4_estimate(0.5, 1.0, 2.0, 30_000, SeedSpec(9))
        assert abs(est - 3.5) < 4.0 * se

    def test_single_sample_flags_infinite_error(self):
        est, se = moment4_estimate(0.5, 0.0, 1.0, 1, SeedSpec(10))
        assert math.isfinite(est)
        assert se == math.inf

    def test_deterministic(self):
        a = moment4_estimate(0.2, 0.0, 1.0, 500, SeedSpec(12))
        b = moment4_estimate(0.2, 0.0, 1.0, 500, SeedSpec(12))
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


@pytest.fixture(scope="module")
def increments():
    return max_increments(0.5, 0.0, 1.0, 80, 120, seed_base=42)


class TestSupJump:
    def test_zero_threshold_everything_exceeds(self):
        stats = sup_jump_estimate(0.5, 0.0, 1.0, 0.0, 40, 80, SeedSpec(1))
        assert stats.exceed_fraction == 1.0

    def test_huge_threshold_nothing_exceeds(self):
        stats = sup_jump_estimate(0.5, 0.0, 1.0, 1e3, 40, 80, SeedSpec(1))
        assert stats.exceed_fraction == 0.0

    def test_monotone_in_threshold(self, increments):
        fracs = [float(np.mean(increments > a)) for a in (0.25, 0.5, 1.0, 2.0)]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))

    def test_counts_bounded_by_ensemble(self, increments):
        stats = JumpStats(float(np.max(increments)), 0.5,
                          int(np.sum(increments > 0.5)), len(increments))
        assert 0 <= stats.exceed_count <= stats.ensemble_size

    def test_marginal_start_above_zero(self):
        inc = max_increments(0.5, 1.0, 2.0, 10, 30, seed_base=3)
        assert len(inc) == 10 and np.all(inc >= 0.0)
