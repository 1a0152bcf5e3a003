"""The uniform streams every random draw comes from, and q-normal draws made
from them by the simulator's rejection sampler."""

import math

import numpy as np
import pytest
from scipy import stats

from qtangent import simulate
from qtangent.kernels import qnormal_pdf, x_plus
from qtangent.sampling import stream


def qnormal_draws(q, n, seed, chunk=100_000):
    """n q-normal draws from the stationary (infinite-lag) envelope; chunk k
    takes its proposal blocks from stream(seed, k) and its fallbacks from
    stream(seed, k, row)."""
    env = simulate._Envelope(simulate._Bins(q), math.inf)
    out = []
    for k, start in enumerate(range(0, n, chunk)):
        m = min(chunk, n - start)
        u = stream(seed, k).random((m, simulate._PROPOSALS, 3))
        out.append(env.draw(np.zeros(m), u, lambda i, k=k: stream(seed, k, i)))
    return np.concatenate(out)


class TestSample:
    def test_empirical_mean(self):
        # q-normal has unit variance (checked by quadrature in test_kernels)
        n = 100_000
        mean = float(np.mean(qnormal_draws(0.5, n, 123)))
        assert abs(mean) < 4.0 / math.sqrt(n)

    def test_round_trip_histogram(self):
        q = 0.5
        n = 1_000_000
        xs = qnormal_draws(q, n, 77)
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

    def test_step_streams(self):
        # (seed, index, step) is a spawn key of length two: reproducible, and
        # distinct from the path streams (seed, index) and from other steps
        a = stream(5, 3, 7).random(1000)
        np.testing.assert_array_equal(a, stream(5, 3, 7).random(1000))
        ss = np.random.SeedSequence(entropy=5, spawn_key=(3, 7))
        np.testing.assert_array_equal(a, np.random.Generator(np.random.PCG64(ss)).random(1000))
        for other in (stream(5, 3), stream(5, 7), stream(5, 3, 8), stream(5, 7, 3)):
            assert not np.array_equal(a, other.random(1000))
        with pytest.raises(ValueError):
            stream(1, 0, -1)
