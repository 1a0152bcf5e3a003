import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from qtangent.errors import NonFinite
from qtangent.kernels import (
    biane_half_pdf,
    cauchy_transition_pdf,
    half_stable_quantile,
    qnormal_pdf,
    qou_transition_pdf,
    x_plus,
)
from qtangent.sampling import (
    batch_cdf_tables,
    cheb_nodes,
    gauss_points,
    pchip_quantile,
    stream,
)

from oracles import half_stable_cdf


def table(density, lo, hi, n):
    """One cumulative row of ``density`` on n Chebyshev nodes of [lo, hi]."""
    nodes = cheb_nodes(lo, hi, n)[None, :]
    return nodes, batch_cdf_tables(density(gauss_points(nodes)), nodes)


def sample(nodes, cdf, u):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return pchip_quantile(nodes, cdf, np.zeros(len(u), dtype=np.intp), u)


def half_stable_table():
    """The t = 1 half-stable marginal on its support [1/4, inf), truncated at the
    1 - 1e-10 quantile, on 128 nodes geometric in the distance to the edge."""
    hi = float(half_stable_quantile(1.0, 1.0 - 1e-10))
    nodes = (0.25 + np.concatenate([[0.0], np.geomspace(1e-8, hi - 0.25, 127)]))[None, :]
    return nodes, batch_cdf_tables(biane_half_pdf(0.0, 1.0, 0.0, gauss_points(nodes)), nodes)


class TestBuildCdf:
    def test_uniform_density(self):
        nodes, cdf = table(np.ones_like, 0.0, 1.0, 64)
        assert np.max(np.abs(cdf - nodes)) < 1e-12

    def test_qnormal_symmetric_median(self):
        q = 0.0
        # odd node count puts a node exactly at 0
        nodes, cdf = table(lambda x: qnormal_pdf(q, x), -x_plus(q), x_plus(q), 129)
        i = np.argmin(np.abs(nodes[0]))
        assert nodes[0, i] == pytest.approx(0.0, abs=1e-14)
        assert cdf[0, i] == pytest.approx(0.5, abs=1e-9)

    def test_quantile_accuracy_smooth(self):
        nodes, cdf = table(lambda x: np.full_like(x, 0.5), -1.0, 1.0, 200)
        us = np.linspace(0, 0.999, 57)
        np.testing.assert_allclose(sample(nodes, cdf, us), 2 * us - 1, atol=1e-10)

    def test_half_stable_boundaries_and_truncation(self):
        nodes, cdf = half_stable_table()
        assert cdf[0, 0] == 0.0
        assert cdf[0, -1] == 1.0
        assert nodes[0, 0] == 0.25 and np.isfinite(nodes[0, -1])
        # closed-form cdf confirms the truncated tail really is below tolerance
        assert 1.0 - half_stable_cdf(1.0, nodes[0, -1]) < 2e-10

    def test_cauchy_two_sided_truncation(self):
        # cut at the 1e-10 and 1 - 1e-10 quantiles, 256 nodes uniform in asinh(x)
        cut = math.tan(math.pi * (0.5 - 1e-10))
        nodes = np.sinh(np.linspace(-math.asinh(cut), math.asinh(cut), 256))[None, :]
        cdf = batch_cdf_tables(cauchy_transition_pdf(0.0, 1.0, 0.0, gauss_points(nodes)), nodes)
        assert np.all(np.isfinite(nodes[0, [0, -1]]))
        assert sample(nodes, cdf, 0.5)[0] == pytest.approx(0.0, abs=1e-9)
        # 256 nodes stretched over ~19 decades: percent-level quantiles
        assert sample(nodes, cdf, 0.75)[0] == pytest.approx(1.0, abs=0.05)

    def test_non_finite(self):
        def bad(x):
            out = np.ones_like(x)
            out[np.asarray(x) > 0.5] = np.nan
            return out

        with pytest.raises(NonFinite):
            table(bad, 0.0, 1.0, 64)


@pytest.fixture(scope="module")
def qnormal_table():
    q = 0.5
    return table(lambda x: qnormal_pdf(q, x), -x_plus(q), x_plus(q), 256)


class TestSample:
    def test_u_zero_hits_lower_end(self, qnormal_table):
        nodes, cdf = qnormal_table
        assert sample(nodes, cdf, 0.0)[0] == nodes[0, 0]

    def test_symmetric_median(self, qnormal_table):
        assert sample(*qnormal_table, 0.5)[0] == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_u(self, qnormal_table):
        us = np.random.default_rng(0).random(500)
        xs = sample(*qnormal_table, np.sort(us))
        assert np.all(np.diff(xs) >= 0.0)

    def test_empirical_mean(self, qnormal_table):
        # q-normal has unit variance (checked by quadrature in test_kernels)
        n = 100_000
        us = stream(123).random(n)
        mean = float(np.mean(sample(*qnormal_table, us)))
        assert abs(mean) < 4.0 / math.sqrt(n)

    def test_round_trip_histogram(self, qnormal_table):
        q = 0.5
        n = 1_000_000
        us = stream(77).random(n)
        xs = sample(*qnormal_table, us)
        edges = np.linspace(-x_plus(q), x_plus(q), 101)
        hist, _ = np.histogram(xs, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        l1 = float(np.sum(np.abs(hist - qnormal_pdf(q, centers))) * width)
        assert l1 < 0.01


class TestUniformStream:
    def test_deterministic(self):
        np.testing.assert_array_equal(stream(5, 3).random(1000), stream(5, 3).random(1000))

    def test_streams_differ(self):
        a = stream(5, 0).random(1000)
        b = stream(5, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_matches_generator(self):
        # the documented stream identity: PCG64 seeded through a SeedSequence spawn key
        ss = np.random.SeedSequence(entropy=42, spawn_key=(7,))
        expected = np.random.Generator(np.random.PCG64(ss)).random(100)
        np.testing.assert_array_equal(stream(42, 7).random(100), expected)

    def test_kolmogorov_smirnov(self):
        us = stream(99).random(10_000)
        stat = stats.kstest(us, "uniform").statistic
        assert stat < 1.63 / math.sqrt(10_000)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            stream(1, -1)


def test_truncated_table_mass_against_quadrature():
    # tabulated masses agree with adaptive quadrature on interior intervals
    nodes, cdf = half_stable_table()
    i, j = 10, 40
    mass, _ = quad(lambda x: biane_half_pdf(0.0, 1.0, 0.0, x), nodes[0, i], nodes[0, j], limit=200)
    assert cdf[0, j] - cdf[0, i] == pytest.approx(mass, abs=1e-6)


def test_table_mass_against_quadrature():
    # tabulated masses of q-OU conditional rows agree with adaptive quadrature
    q = 0.5
    states = np.array([-2.5, 0.0, 1.9])
    nodes = np.broadcast_to(cheb_nodes(-x_plus(q), x_plus(q), 96), (3, 96)).copy()
    dens = qou_transition_pdf(q, 0.3, states[:, None], gauss_points(nodes))
    cdf = batch_cdf_tables(dens, nodes)
    i, j = 10, 60
    for r, x in enumerate(states):
        mass, _ = quad(lambda y: qou_transition_pdf(q, 0.3, x, y), nodes[r, i], nodes[r, j],
                       epsabs=1e-13, limit=200)
        total, _ = quad(lambda y: qou_transition_pdf(q, 0.3, x, y), -x_plus(q), x_plus(q),
                        epsabs=1e-13, limit=200)
        assert cdf[r, j] - cdf[r, i] == pytest.approx(mass / total, abs=1e-7)


def _reference_quantile(c, v, u):
    """One cumulative row at a time: searchsorted and Fritsch-Carlson slopes with
    scalar edge rules, then the cubic Hermite quantile."""
    h = np.diff(c)
    live = h > 2.0 ** -53
    safe_h = np.where(live, h, 1.0)
    d = np.where(live, np.diff(v) / safe_h, 0.0)
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
    cdf = batch_cdf_tables(dens, nodes)
    row = gen.integers(0, n_rows, 3000)
    u = gen.random(3000)
    u[:200] = cdf[row[:200], gen.integers(0, n_nodes - 1, 200)]
    u[200:210] = 0.0
    got = pchip_quantile(nodes, cdf, row, u)
    for r in range(n_rows):
        np.testing.assert_array_equal(got[row == r], _reference_quantile(cdf[r], nodes[r], u[row == r]))
