"""The q-series building blocks: the support edge x_plus(q), the product
length series_terms(q, rel_tol), and the displayed phi/psi factor oracles."""

import math

import numpy as np
import pytest

from qtangent.errors import NonConvergent, TruncationExceeded
from qtangent.kernels import series_terms, x_plus

from oracles import phi_qk, phi_star, psi_qk, psi_star


def brute_pochhammer(a, q, terms):
    prod = 1.0
    for k in range(terms):
        prod *= 1.0 - a * q ** k
    return prod


class TestXPlus:
    def test_endpoints(self):
        assert x_plus(0.0) == 2.0
        assert x_plus(0.5) == 2.0 / math.sqrt(0.5)

    def test_monotonicity(self):
        xps = [x_plus(q) for q in (-0.9, -0.5, 0.0, 0.5, 0.9)]
        assert all(b > a for a, b in zip(xps, xps[1:]))

    @pytest.mark.parametrize("q", [-1.0, 1.0, 1.5, math.nan])
    def test_invalid_q(self, q):
        with pytest.raises(NonConvergent, match=r"q must lie in \(-1, 1\)"):
            x_plus(q)


class TestPochhammer:
    def test_against_brute_force(self):
        # series_terms(q) sets the length of every kernel product; (a; q)_inf
        # cut there matches a 61-term product, which is stable well before 61
        q = 0.5
        got = float(np.prod(1.0 - 0.5 * q ** np.arange(series_terms(q))))
        expected = brute_pochhammer(0.5, q, 61)
        assert got == pytest.approx(expected, rel=1e-13)


class TestPhiPsi:
    def test_phi_qk_large_k_is_one(self):
        assert phi_qk(0.5, 2000, 0.7, 1.0, -1.0) == 1.0

    def test_phi_qk_q_zero_k_positive(self):
        assert phi_qk(0.0, 1, 1.0, 1.0, 1.0) == 1.0

    def test_phi_q0_hyperbolic_identity_spot(self):
        # cross-check via the sinh/cosh rearrangement of the k = 0 form
        q, d, x, y = 0.5, 0.3, 0.2, -0.1
        expected = math.exp(-2 * d) * (
            4 * math.sinh(d) ** 2 + (1 - q) * (x - y) ** 2
            + 2 * (1 - q) * x * y * (1 - math.cosh(d))
        )
        assert phi_qk(q, 0, d, x, y) == pytest.approx(expected, rel=1e-14)

    def test_phi_q0_hyperbolic_identity_randomized(self):
        gen = np.random.default_rng(42)
        for _ in range(200):
            q = gen.uniform(-0.95, 0.95)
            d = gen.uniform(0.01, 5.0)
            xp = 2 / math.sqrt(1 - q)
            x, y = gen.uniform(-xp, xp, 2)
            expected = math.exp(-2 * d) * (
                4 * math.sinh(d) ** 2 + (1 - q) * (x - y) ** 2
                + 2 * (1 - q) * x * y * (1 - math.cosh(d))
            )
            assert phi_qk(q, 0, d, x, y) == pytest.approx(expected, rel=1e-12)

    def test_phi_symmetry(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            q = gen.uniform(-0.9, 0.9)
            d = gen.uniform(0.05, 3.0)
            x, y = gen.uniform(-1.5, 1.5, 2)
            k = gen.integers(0, 5)
            assert phi_qk(q, k, d, x, y) == phi_qk(q, k, d, y, x)

    def test_phi_lower_bound_product_form(self):
        # min over the state square is (1 - e^{-d} |q|^k)^4
        gen = np.random.default_rng(3)
        for _ in range(300):
            q = gen.uniform(-0.9, 0.9)
            d = gen.uniform(0.05, 3.0)
            xp = 2 / math.sqrt(1 - q)
            x, y = gen.uniform(-xp, xp, 2)
            k = int(gen.integers(0, 8))
            bound = (1 - math.exp(-d) * abs(q) ** k) ** 4
            assert phi_qk(q, k, d, x, y) >= bound - 1e-12

    def test_phi_q0_sinh4_bound(self):
        gen = np.random.default_rng(4)
        for _ in range(300):
            q = gen.uniform(-0.9, 0.9)
            d = gen.uniform(0.05, 3.0)
            xp = 2 / math.sqrt(1 - q)
            x, y = gen.uniform(-xp, xp, 2)
            bound = math.exp(-2 * d) * (16 * math.sinh(d / 2) ** 4 + (1 - q) * (x - y) ** 2)
            assert phi_qk(q, 0, d, x, y) >= bound - 1e-12

    def test_psi_qk_values(self):
        assert psi_qk(0.0, 1, 123.0) == 1.0
        assert psi_qk(0.5, 1, 0.0) == 2.25
        assert psi_qk(0.5, 2, 1.0) == pytest.approx(1.4375, abs=0)

    def test_phi_star_q_zero(self):
        assert phi_star(0.0, 1, 1.0, 2.0, 0.3, -5.0) == 4.0

    def test_psi_star_q_zero(self):
        assert psi_star(0.0, 1, 1.0, 2.0, 1.0) == 4.0

    def test_phi_star_k0_spot(self):
        assert phi_star(0.0, 0, 1.0, 2.0, 0.5, 0.5) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rel_tol, table", [
    (1e-14, (1, 55, 372, 777, 4124, 8407)),
    (1e-4, (1, 21, 153, 328, 1833, 3814)),
])
def test_series_terms_table(rel_tol, table):
    # product lengths at q = 0, +-0.5, 0.9, 0.95, +-0.99, 0.995: the kernels'
    # default tolerance and the simulator's
    for qs, k in zip(((0.0,), (0.5, -0.5), (0.9,), (0.95,), (0.99, -0.99), (0.995,)), table):
        assert [series_terms(q, rel_tol) for q in qs] == [k] * len(qs)
    assert series_terms(0.9) == series_terms(0.9, 1e-14)


@pytest.mark.parametrize("q", [0.999, -0.999])
def test_series_terms_beyond_ten_thousand_terms(q):
    with pytest.raises(TruncationExceeded):
        series_terms(q)
