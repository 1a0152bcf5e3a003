"""The keyed Philox uniforms every random draw comes from, and q-normal draws
made from them by the simulator's rejection sampler."""

import math

import numpy as np
import pytest
from scipy import stats

from qtangent import simulate
from qtangent.errors import InvalidSeed
from qtangent.kernels import qnormal_pdf, x_plus
from qtangent.sampling import philox, uniforms


def qnormal_draws(q, n, seed, chunk=100_000):
    """n q-normal draws from the stationary (infinite-lag) envelope; chunk k
    takes the uniforms keyed by step k."""
    env = simulate._Envelope(simulate._Bins(q), math.inf)
    return np.concatenate([env.draw(np.zeros(min(chunk, n - start)), seed, k)
                           for k, start in enumerate(range(0, n, chunk))])


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


class TestKeyedUniforms:
    def test_philox_matches_numpy(self):
        # numpy's Philox4x64-10 is an independent implementation; it adds one
        # to the 256-bit counter before each block, so a low word of 2^64 - 1
        # carries into the next one
        rng = np.random.default_rng(2011)
        for case in range(60):
            key = rng.integers(0, 2**64, 2, dtype=np.uint64)
            counter = [int(w) for w in rng.integers(0, 2**64, 4, dtype=np.uint64)]
            counter[:case % 3] = [2**64 - 1] * (case % 3)
            expected = np.random.Philox(key=key, counter=np.array(counter, dtype=np.uint64))
            value = sum(w << (64 * i) for i, w in enumerate(counter)) + 1
            got = philox(key, [np.uint64((value >> (64 * i)) % 2**64) for i in range(4)])
            assert [int(w) for w in got] == [int(w) for w in expected.random_raw(4)], case

    def test_uniforms_are_the_first_three_words(self):
        # (w >> 11) 2^-53 of words 0..2 at key (seed, path), counter (step, proposal, 0, 0)
        u = uniforms(7, np.array([3]), 5, np.array([2]))
        w = philox((np.uint64(7), np.uint64(3)), [np.uint64(c) for c in (5, 2, 0, 0)])
        assert u.shape == (1, 3)
        np.testing.assert_array_equal(u[0], [(int(v) >> 11) * 2.0**-53 for v in w[:3]])

    def test_keyed_not_streamed(self):
        # a block of paths, steps and proposals is its entries made one at a time,
        # and every part of the key and the counter moves the uniforms
        block = uniforms(9, np.arange(4)[:, None, None], np.arange(3)[:, None], np.arange(5))
        assert block.shape == (4, 3, 5, 3)
        for i, s, j in ((0, 0, 0), (3, 2, 4), (1, 2, 3)):
            one = uniforms(9, np.array([i]), s, np.array([j]))[0]
            assert block[i, s, j].tobytes() == one.tobytes()
        wide = uniforms(9, np.arange(20_000), 2, 0)  # three Philox passes
        for i in (0, 8191, 8192, 19_999):
            assert wide[i].tobytes() == uniforms(9, np.array([i]), 2, np.array([0]))[0].tobytes()
        base = uniforms(9, np.array([1]), 2, np.array([3]))
        for other in (uniforms(10, np.array([1]), 2, np.array([3])),
                      uniforms(9, np.array([2]), 2, np.array([3])),
                      uniforms(9, np.array([1]), 3, np.array([3])),
                      uniforms(9, np.array([1]), 2, np.array([4]))):
            assert not np.any(other == base)

    def test_kolmogorov_smirnov(self):
        us = uniforms(99, np.arange(2_000)[:, None], 0, np.arange(2)).ravel()
        assert np.all((0.0 <= us) & (us < 1.0))
        stat = stats.kstest(us, "uniform").statistic
        assert stat < 1.63 / math.sqrt(len(us))

    def test_seed_range(self):
        for seed in (0, 2**64 - 1):
            assert uniforms(seed, np.array([0]), 0, np.array([0])).shape == (1, 3)
        for seed in (-1, 2**64, 10**30):
            with pytest.raises(InvalidSeed):
                uniforms(seed, np.array([0]), 0, np.array([0]))
