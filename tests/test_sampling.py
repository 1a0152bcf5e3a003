import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from qtangent.errors import NonFinite, NotNormalized
from qtangent.kernels import (
    Support,
    cauchy_marginal,
    half_stable_cdf,
    half_stable_marginal,
    qnormal_pdf,
)
from qtangent.qspecial import QParams
from qtangent.sampling import (
    CdfTable,
    SeedSpec,
    batch_cdf_tables,
    build_cdf,
    pchip_quantile,
    sample,
    uniform_stream,
)


class TestBuildCdf:
    def test_uniform_density(self):
        table = build_cdf(lambda x: np.ones_like(x), Support(0.0, 1.0), n=64)
        assert np.max(np.abs(table.cdf_values - table.nodes)) < 1e-12

    def test_qnormal_symmetric_median(self):
        p = QParams(0.0)
        # odd node count puts a node exactly at 0
        table = build_cdf(lambda x: qnormal_pdf(p, x), Support(p.x_minus, p.x_plus), n=129)
        i = np.argmin(np.abs(table.nodes))
        assert table.nodes[i] == pytest.approx(0.0, abs=1e-14)
        assert table.cdf_values[i] == pytest.approx(0.5, abs=1e-9)

    def test_half_stable_boundaries_and_truncation(self):
        table = build_cdf(lambda x: half_stable_marginal(1.0, x), Support(0.25, np.inf), n=128)
        assert table.cdf_values[0] == 0.0
        assert table.cdf_values[-1] == 1.0
        lo_cut, hi_cut = table.truncated_at
        assert lo_cut is None and hi_cut is not None
        # closed-form cdf confirms the located tail really is below tolerance
        assert 1.0 - half_stable_cdf(1.0, hi_cut) < 2e-10

    def test_cauchy_two_sided_truncation(self):
        table = build_cdf(lambda x: cauchy_marginal(1.0, x), Support(-np.inf, np.inf), n=256)
        lo_cut, hi_cut = table.truncated_at
        assert lo_cut is not None and hi_cut is not None
        assert sample(table, 0.5) == pytest.approx(0.0, abs=1e-9)
        # 256 nodes stretched over ~19 decades: percent-level quantiles
        assert sample(table, 0.75) == pytest.approx(1.0, abs=0.05)

    def test_quantile_accuracy_smooth(self):
        table = build_cdf(lambda x: np.full_like(x, 0.5), Support(-1.0, 1.0), n=200)
        us = np.linspace(0, 0.999, 57)
        np.testing.assert_allclose(sample(table, us), 2 * us - 1, atol=1e-10)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            build_cdf(lambda x: 0.5 * np.ones_like(x), Support(0.0, 1.0), n=64)

    def test_non_finite(self):
        def bad(x):
            out = np.ones_like(x)
            out[np.asarray(x) > 0.5] = np.nan
            return out

        with pytest.raises(NonFinite):
            build_cdf(bad, Support(0.0, 1.0), n=64)

    def test_minimum_node_count_enforced(self):
        with pytest.raises(ValueError):
            CdfTable(Support(0.0, 1.0), np.linspace(0, 1, 10), np.linspace(0, 1, 10))


@pytest.fixture(scope="module")
def qnormal_table():
    p = QParams(0.5)
    return build_cdf(lambda x: qnormal_pdf(p, x), Support(p.x_minus, p.x_plus), n=256)


class TestSample:
    def test_u_zero_hits_lower_end(self, qnormal_table):
        assert sample(qnormal_table, 0.0) == qnormal_table.nodes[0]

    def test_symmetric_median(self, qnormal_table):
        assert sample(qnormal_table, 0.5) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_u(self, qnormal_table):
        us = np.random.default_rng(0).random(500)
        xs = sample(qnormal_table, np.sort(us))
        assert np.all(np.diff(xs) >= 0.0)

    def test_empirical_mean(self, qnormal_table):
        # q-normal has unit variance (checked by quadrature in test_kernels)
        n = 100_000
        us = SeedSpec(123).generator().random(n)
        mean = float(np.mean(sample(qnormal_table, us)))
        assert abs(mean) < 4.0 / math.sqrt(n)

    def test_round_trip_histogram(self, qnormal_table):
        p = QParams(0.5)
        n = 1_000_000
        us = SeedSpec(77).generator().random(n)
        xs = sample(qnormal_table, us)
        edges = np.linspace(p.x_minus, p.x_plus, 101)
        hist, _ = np.histogram(xs, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        l1 = float(np.sum(np.abs(hist - qnormal_pdf(p, centers))) * width)
        assert l1 < 0.01


class TestUniformStream:
    def test_deterministic(self):
        s = SeedSpec(5, 3)
        a = [u for u, _ in zip(uniform_stream(s), range(1000))]
        b = [u for u, _ in zip(uniform_stream(s), range(1000))]
        assert a == b

    def test_streams_differ(self):
        a = [u for u, _ in zip(uniform_stream(SeedSpec(5, 0)), range(1000))]
        b = [u for u, _ in zip(uniform_stream(SeedSpec(5, 1)), range(1000))]
        assert a != b

    def test_matches_generator(self):
        s = SeedSpec(42, 7)
        a = [u for u, _ in zip(uniform_stream(s), range(100))]
        np.testing.assert_array_equal(a, s.generator().random(100))

    def test_kolmogorov_smirnov(self):
        us = SeedSpec(99).generator().random(10_000)
        stat = stats.kstest(us, "uniform").statistic
        assert stat < 1.63 / math.sqrt(10_000)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)


def test_truncated_table_mass_against_quadrature():
    # tabulated masses agree with adaptive quadrature on interior intervals
    table = build_cdf(lambda x: half_stable_marginal(1.0, x), Support(0.25, np.inf), n=128)
    i, j = 10, 40
    mass, _ = quad(lambda x: half_stable_marginal(1.0, x), table.nodes[i], table.nodes[j],
                   limit=200)
    assert table.cdf_values[j] - table.cdf_values[i] == pytest.approx(mass, abs=1e-6)


def _reference_quantile(c, v, u):
    """One cumulative row at a time: searchsorted and Fritsch-Carlson slopes with
    scalar edge rules, then the cubic Hermite quantile."""
    h = np.diff(c)
    safe_h = np.where(h > 0.0, h, 1.0)
    d = np.where(h > 0.0, np.diff(v) / safe_h, 0.0)
    m = np.zeros_like(v)
    d0, d1, h0, h1 = d[:-1], d[1:], safe_h[:-1], safe_h[1:]
    pos = d0 * d1 > 0.0
    w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
    with np.errstate(divide="ignore", invalid="ignore"):
        m[1:-1] = np.where(pos, (w1 + w2) / (w1 / np.where(pos, d0, 1.0)
                                             + w2 / np.where(pos, d1, 1.0)), 0.0)
    for edge, inner in ((0, 1), (-1, -2)):
        ha, hb, da, db = safe_h[edge], safe_h[inner], d[edge], d[inner]
        slope = ((2.0 * ha + hb) * da - ha * db) / (ha + hb)
        if slope * da <= 0.0:
            slope = 0.0
        elif da * db < 0.0 and abs(slope) > 3.0 * abs(da):
            slope = 3.0 * da
        m[edge] = slope
    i = np.clip(np.searchsorted(c, u, side="right") - 1, 0, len(c) - 2)
    hc = c[i + 1] - c[i]
    safe = np.where(hc > 0.0, hc, 1.0)
    t = np.clip((u - c[i]) / safe, 0.0, 1.0)
    t2, t3 = t * t, t * t * t
    out = (v[i] * (2.0 * t3 - 3.0 * t2 + 1.0) + safe * m[i] * (t3 - 2.0 * t2 + t)
           + v[i + 1] * (-2.0 * t3 + 3.0 * t2) + safe * m[i + 1] * (t3 - t2))
    return np.clip(out, v[0], v[-1])


@pytest.mark.parametrize("n_nodes", [64, 96, 257])
def test_pchip_quantile_matches_per_row_reference(n_nodes):
    # rows with zero-mass intervals (ties in the cumulative), uniforms that hit
    # node values exactly, and rows shared by many draws
    gen = np.random.default_rng(n_nodes)
    n_rows = 7
    nodes = np.sort(gen.uniform(-3.0, 3.0, (n_rows, n_nodes)), axis=1)
    masses = gen.exponential(1.0, (n_rows, n_nodes - 1)) * (gen.random((n_rows, n_nodes - 1)) > 0.2)
    dens = np.repeat(masses / (0.5 * np.diff(nodes, axis=1)), 4, axis=1)
    cdf = batch_cdf_tables(dens, nodes, order=4)
    row = gen.integers(0, n_rows, 3000)
    u = gen.random(3000)
    u[:200] = cdf[row[:200], gen.integers(0, n_nodes - 1, 200)]
    u[200:210] = 0.0
    got = pchip_quantile(nodes, cdf, row, u)
    for r in range(n_rows):
        np.testing.assert_array_equal(got[row == r], _reference_quantile(cdf[r], nodes[r], u[row == r]))
