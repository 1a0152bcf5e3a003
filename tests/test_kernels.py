import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from qtangent import kernels
from qtangent.errors import InvalidState, InvalidTime, TruncationExceeded
from qtangent.kernels import (
    biane_half_pdf,
    biane_shifted_pdf,
    cauchy_transition_pdf,
    half_stable_quantile,
    qbm_transition_pdf,
    qnormal_pdf,
    qou_transition_pdf,
    x_plus,
)
from qtangent.tangent import TangentCase, default_window
from qtangent.verify import (
    chapman_kolmogorov_report,
    kernel_normalization_report,
    kernels_verification_report,
    ou_bm_identity_report,
)

from oracles import (
    cauchy_marginal,
    half_stable_cdf,
    half_stable_marginal,
    mp_qbm,
    mp_qnormal,
    mp_qou,
    mp_stable_kernel,
    phi_star,
    psi_star,
)


class TestQNormal:
    def test_semicircle_at_zero(self):
        assert qnormal_pdf(0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_boundary_zero(self):
        q = 0.5
        assert qnormal_pdf(q, x_plus(q)) == 0.0
        assert qnormal_pdf(q, x_plus(q) + 1.0) == 0.0

    def test_against_truncated_product_oracle(self):
        q = 0.5
        euler = 1.0
        prod = 1.0
        for k in range(1, 61):
            euler *= 1 - q ** k
            prod *= (1 + q ** k) ** 2  # x = 0 kills the second term
        expected = math.sqrt(1 - q) * euler / (2 * math.pi) * 2.0 * prod
        assert qnormal_pdf(q, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_truncation_exceeded(self):
        # the kernel product needs more than 10^4 terms above |q| = 0.995
        with pytest.raises(TruncationExceeded):
            qnormal_pdf(0.999, 0.0)
        with pytest.raises(TruncationExceeded):
            qou_transition_pdf(-0.999, 0.1, 0.0, 0.0)

    def test_kmax_doubling_stability(self):
        # rel_tol sets the truncation: a hundred times tighter moves the
        # values by less than ten times the default
        q = 0.9
        xs = np.linspace(-0.99, 0.99, 7) * x_plus(q)
        np.testing.assert_allclose(qnormal_pdf(q, xs, 1e-16), qnormal_pdf(q, xs), rtol=1e-13)

    def test_symmetry(self):
        q = -0.7
        xs = np.linspace(0.0, x_plus(q), 25)
        np.testing.assert_allclose(qnormal_pdf(q, xs), qnormal_pdf(q, -xs), rtol=1e-14)

    @pytest.mark.parametrize("q", [-0.5, 0.0, 0.9])
    def test_normalization(self, q):
        total, _ = quad(lambda x: qnormal_pdf(q, x), -x_plus(q), x_plus(q), limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unit_variance(self):
        q = 0.5
        var, _ = quad(lambda x: x * x * qnormal_pdf(q, x), -x_plus(q), x_plus(q), limit=200)
        assert var == pytest.approx(1.0, abs=1e-9)


class TestQOUKernel:
    def test_long_lag_reaches_stationarity(self):
        for q in (-0.5, 0.5, 0.9):
            lhs = qou_transition_pdf(q, 30.0, 0.0, 0.5)
            rhs = qnormal_pdf(q, 0.5)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_normalization(self):
        q = 0.5
        total, _ = quad(lambda y: qou_transition_pdf(q, 0.5, 0.0, y),
                        -x_plus(q), x_plus(q), limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_detailed_balance(self):
        q = 0.5
        lhs = qnormal_pdf(q, 0.3) * qou_transition_pdf(q, 0.5, 0.3, 0.7)
        rhs = qnormal_pdf(q, 0.7) * qou_transition_pdf(q, 0.5, 0.7, 0.3)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_target_outside_support_is_zero(self):
        q = 0.5
        assert qou_transition_pdf(q, 0.5, 0.0, x_plus(q) * 1.5) == 0.0

    def test_invalid_lag(self):
        with pytest.raises(InvalidTime):
            qou_transition_pdf(0.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("q", [-0.99, -0.5, 0.0, 0.5, 0.99])
    def test_lag_floor(self, q):
        # at the floor 1e-307 the k = 0 term's 16/u still fits a double: finite values and
        # no warning from the edge state to the far edge; below it the lag is rejected
        ys = np.linspace(-x_plus(q), 0.999 * x_plus(q), 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (-x_plus(q), 0.0):
                assert np.all(np.isfinite(qou_transition_pdf(q, 1e-307, x, ys)))
        for bad in (9e-308, 1e-310, 5e-324):
            with pytest.raises(InvalidTime):
                qou_transition_pdf(q, bad, 0.0, ys)

    def test_conditioning_state_validated(self):
        q = 0.5
        with pytest.raises(InvalidState):
            qou_transition_pdf(q, 0.5, x_plus(q) * 1.01, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidState):
                qou_transition_pdf(q, 0.5, bad, 0.0)
            with pytest.raises(InvalidState):
                qbm_transition_pdf(q, 1.0, 2.0, bad, 0.0)
        with pytest.raises(InvalidTime):
            qou_transition_pdf(q, math.inf, 0.0, 0.0)

    def test_minphi_upper_bound(self):
        # kernel <= p(y) (e^{-2d}; q)_inf e^{2d} / ([16 sinh^4(d/2) + (1-q)(x-y)^2] (|q|)_inf^4)
        gen = np.random.default_rng(11)
        for _ in range(100):
            q = gen.uniform(-0.9, 0.9)
            d = gen.uniform(0.05, 5.0)
            x, y = gen.uniform(-0.99, 0.99, 2) * x_plus(q)
            val = qou_transition_pdf(q, d, x, y)
            envelope = (
                qnormal_pdf(q, y)
                * float(mp.qp(math.exp(-2 * d), q))
                * math.exp(2 * d)
                / ((16 * math.sinh(d / 2) ** 4 + (1 - q) * (x - y) ** 2)
                   * float(mp.qp(abs(q), abs(q))) ** 4)
            )
            assert val <= envelope + 1e-12

    def test_far_targets_are_zero_without_warnings(self, capfd):
        # the targets' squares overflow; the core evaluates placeholders there
        q = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qnormal_pdf(q, 1e200) == 0.0
            assert np.all(qnormal_pdf(q, np.array([-1.7e308, 1e308])) == 0.0)
            got = qou_transition_pdf(q, 0.1, 0.0, np.array([-1e200, 0.0, 1e200]))
            assert got[0] == got[2] == 0.0 and got[1] > 0.0
            assert qbm_transition_pdf(q, 1.0, 2.0, 0.3, 1e200) == 0.0
            # before t2 = 1 the wrapper's y2/sqrt(t2) overflows to +-inf: outside too
            ys = np.array([-1.7e308, 0.0, 1.7e308])
            for t1, y1 in ((0.0, 0.0), (0.01, 0.1)):
                got = qbm_transition_pdf(q, t1, 0.02, y1, ys)
                assert got[0] == got[2] == 0.0 and got[1] > 0.0
        assert capfd.readouterr().err == ""

    def test_chapman_kolmogorov(self):
        q = 0.4
        d1, d2, x, y = 0.4, 0.7, 0.5, -0.3
        composed, _ = quad(
            lambda z: qou_transition_pdf(q, d1, x, z) * qou_transition_pdf(q, d2, z, y),
            -x_plus(q), x_plus(q), limit=300)
        assert composed == pytest.approx(qou_transition_pdf(q, d1 + d2, x, y), abs=1e-7)


class TestQBMKernel:
    def test_free_case_from_origin(self):
        assert qbm_transition_pdf(0.0, 0.0, 1.0, 0.0, 0.0) == pytest.approx(
            1 / math.pi, rel=1e-14)

    def test_normalization(self):
        q = 0.5
        b = 2 * math.sqrt(2 / (1 - 0.5))
        total, _ = quad(lambda y: qbm_transition_pdf(q, 1.0, 2.0, 0.0, y), -b, b, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_boundary_zero(self):
        q = 0.5
        b = 2 * math.sqrt(2.0 / (1 - 0.5))
        assert qbm_transition_pdf(q, 1.0, 2.0, 0.0, b) == 0.0

    def test_marginal_is_dilated_qnormal(self):
        # bit for bit: a start at the origin is the q-normal core at y2/sqrt(t2)
        for q in (-0.5, 0.5, 0.9):
            for t, n in ((3.0, 9), (0.7, 2000)):
                ys = np.linspace(-0.95, 0.95, n) * 2 * math.sqrt(t / (1 - q))
                lhs = qbm_transition_pdf(q, 0.0, t, 0.0, ys)
                rhs = qnormal_pdf(q, ys / math.sqrt(t)) / math.sqrt(t)
                np.testing.assert_array_equal(lhs, rhs)

    def test_invalid_times(self):
        q = 0.5
        with pytest.raises(InvalidTime):
            qbm_transition_pdf(q, 2.0, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidTime):
            qbm_transition_pdf(q, -0.1, 1.0, 0.0, 0.0)

    def test_origin_start_requires_zero_state(self):
        with pytest.raises(InvalidState):
            qbm_transition_pdf(0.5, 0.0, 1.0, 0.5, 0.0)

    def test_stable_factors_match_displayed_forms(self):
        # internal regrouped phi*/psi* against the displayed quadratic forms
        gen = np.random.default_rng(5)
        for _ in range(100):
            q = gen.uniform(-0.9, 0.9)
            t1 = gen.uniform(0.2, 2.0)
            t2 = t1 + gen.uniform(0.1, 2.0)
            y1 = gen.uniform(-0.9, 0.9) * 2 * math.sqrt(t1 / (1 - q))
            y2 = gen.uniform(-0.9, 0.9) * 2 * math.sqrt(t2 / (1 - q))
            direct = (1 - q) ** 1.5 * (t2 - t1) / (2 * math.pi) \
                * math.sqrt(4 * t2 - (1 - q) * y2 ** 2) / phi_star(q, 0, t1, t2, y1, y2)
            for k in range(1, 200):
                direct *= psi_star(q, k, t1, t2, y2) / phi_star(q, k, t1, t2, y1, y2)
            # the displayed forms lose a few digits to cancellation at high q
            assert qbm_transition_pdf(q, t1, t2, y1, y2) == pytest.approx(direct, rel=5e-9)


class TestTailProductForms:
    """The (K, points) array form and the per-k loop of the tail product
    must agree bit for bit, so results do not depend on the batch size."""

    @staticmethod
    def _both_forms(monkeypatch, fn, *args):
        monkeypatch.setattr(kernels, "_LOOP_POINTS", 10**9)
        vector = fn(*args)
        monkeypatch.setattr(kernels, "_LOOP_POINTS", 0)
        loop = fn(*args)
        return vector, loop

    @pytest.mark.parametrize("rel_tol", [1e-14, 1e-4])
    def test_qou_forms_bitwise_equal(self, monkeypatch, rel_tol):
        gen = np.random.default_rng(21)
        for _ in range(40):
            q = gen.uniform(-0.95, 0.95)
            x = gen.uniform(-1.0, 1.0, (3, 1)) * x_plus(q)
            y = gen.uniform(-1.0, 1.0, (3, 40)) * x_plus(q)
            # delta = inf is the q-normal law and the q-BM start at the origin
            for delta in (10.0 ** gen.uniform(-6.0, 0.5), math.inf):
                vector, loop = self._both_forms(
                    monkeypatch, kernels._qou_core, q, delta, x, y, x - y, rel_tol)
                assert np.all(np.isfinite(vector))
                np.testing.assert_array_equal(vector, loop)


class TestStableKernels:
    def test_cauchy_peak(self):
        assert cauchy_transition_pdf(0.0, 1.0, 0.0, 0.0) == pytest.approx(1 / math.pi)

    def test_cauchy_normalization(self):
        total, _ = quad(lambda y: cauchy_transition_pdf(0.0, 1.0, 0.0, y),
                        -np.inf, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_cauchy_substitution(self):
        assert cauchy_transition_pdf(1.0, 3.0, 2.0, 2.0) == pytest.approx(1 / (2 * math.pi))

    def test_biane_half_spot(self):
        assert biane_half_pdf(1.0, 2.0, 1.0, 2.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_biane_half_collapses_to_marginal(self):
        t = 1.7
        ys = t * t / 4 + np.geomspace(1e-3, 50.0, 20)
        np.testing.assert_allclose(
            biane_half_pdf(0.0, t, 0.0, ys), half_stable_marginal(t, ys), rtol=1e-13)

    @pytest.mark.parametrize("kernel, t1, y1", [
        (cauchy_transition_pdf, 0.0, 0.0),
        (biane_half_pdf, 2.0, 1.5),
        (biane_shifted_pdf, 1.0, 1.0),
    ])
    def test_far_targets_are_zero_without_warnings(self, kernel, t1, y1):
        # the denominators overflow (to inf, or to inf - inf in the Biane kernel)
        ys = np.array([1e300, 8.5e307, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(kernel(t1, t1 + 1.0, y1, ys), 0.0)
            assert kernel(t1, t1 + 1.0, y1, 1.7e308) == 0.0

    def test_biane_half_boundary_zero(self):
        assert biane_half_pdf(1.0, 2.0, 1.0, 1.0) == 0.0

    def test_biane_half_state_validation(self):
        with pytest.raises(InvalidState):
            biane_half_pdf(2.0, 3.0, 0.5, 4.0)  # y1 below t1^2/4 = 1

    def test_biane_half_array_state_matches_scalar_calls(self):
        # an array of conditioning states, as in a vectorized composition
        y1 = np.array([[1.0001, 1.5, 3.0], [7.25, 1.2, 20.0]])
        for y2 in (2.5, np.linspace(2.0, 9.0, 3)):
            got = biane_half_pdf(2.0, 3.0, y1, y2)
            y2b = np.broadcast_to(y2, y1.shape)
            want = np.array([[biane_half_pdf(2.0, 3.0, float(a), float(b))
                              for a, b in zip(ra, rb)] for ra, rb in zip(y1, y2b)])
            assert got.shape == y1.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [0.5, 1.0, math.inf, math.nan])
    def test_biane_half_array_state_validated_elementwise(self, bad):
        y1 = np.array([1.5, 3.0, bad, 7.0])
        with pytest.raises(InvalidState):
            biane_half_pdf(2.0, 3.0, y1, 4.0)
        # the origin is a valid start state at t1 = 0, elementwise too
        assert biane_half_pdf(0.0, 1.0, np.zeros(3), 1.0).shape == (3,)

    def test_biane_shifted_spot(self):
        assert biane_shifted_pdf(1.0, 2.0, 1.0, 1.0) == pytest.approx(2 / (5 * math.pi))

    def test_biane_shifted_equals_shifted_half(self):
        gen = np.random.default_rng(9)
        for _ in range(100):
            t1 = gen.uniform(0.1, 2.0)
            t2 = t1 + gen.uniform(0.1, 2.0)
            y1 = gen.uniform(0.05, 4.0)
            y2 = gen.uniform(0.05, 4.0)
            lhs = biane_shifted_pdf(t1, t2, y1, y2)
            rhs = biane_half_pdf(2 * t1, 2 * t2, y1 + t1 * t1, y2 + t2 * t2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_biane_shifted_normalization(self):
        total, _ = quad(lambda u: biane_shifted_pdf(1.0, 2.0, 1.0, u * u) * 2 * u,
                        0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    # The free stable marginals are the kernels started at the origin.

    def test_half_stable_marginal_spot(self):
        assert biane_half_pdf(0.0, 2.0, 0.0, 2.0) == pytest.approx(1 / (2 * math.pi))
        assert biane_half_pdf(0.0, 1.5, 0.0, 1.5 ** 2 / 4) == 0.0

    def test_cauchy_marginal_peak(self):
        assert cauchy_transition_pdf(0.0, 2.0, 0.0, 0.0) == pytest.approx(1 / (2 * math.pi))
        ys = np.linspace(-40.0, 40.0, 33)
        np.testing.assert_allclose(
            cauchy_transition_pdf(0.0, 2.5, 0.0, ys), cauchy_marginal(2.5, ys), rtol=1e-15)

    def test_half_stable_cdf_matches_quadrature(self):
        for x in (0.3, 1.0, 7.0):
            val, _ = quad(lambda u: biane_half_pdf(0.0, 1.0, 0.0, 0.25 + u * u) * 2 * u,
                          0.0, math.sqrt(x - 0.25), limit=200)
            assert half_stable_cdf(1.0, x) == pytest.approx(val, abs=1e-10)

    def test_marginal_time_validation(self):
        for kernel in (biane_half_pdf, cauchy_transition_pdf):
            for bad in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(InvalidTime):
                    kernel(0.0, bad, 0.0, 1.0)

    def test_two_time_kernels_reject_non_finite_arguments(self):
        with pytest.raises(InvalidTime):
            cauchy_transition_pdf(0.0, math.inf, 0.0, 0.0)
        with pytest.raises(InvalidState):
            cauchy_transition_pdf(0.0, 1.0, math.nan, 0.0)
        with pytest.raises(InvalidState):
            biane_half_pdf(1.0, 2.0, math.inf, 1.0)
        with pytest.raises(InvalidState):
            biane_shifted_pdf(1.0, 2.0, math.nan, 1.0)


@pytest.mark.parametrize("span", [1e-150, 1.0, 1e100, 1e150])
@pytest.mark.parametrize("kernel, t1, y1, ys, power", [
    (cauchy_transition_pdf, 0.3, 0.5, (-2.0, 0.1, 3.0), 1),
    (biane_half_pdf, 0.5, 0.2, (0.8, 1.0, 5.0), 2),
    (biane_shifted_pdf, 0.5, 0.7, (0.01, 1.0, 5.0), 2),
], ids=["cauchy", "biane_half", "biane_shifted"])
def test_stable_kernels_at_extreme_spans(kernel, t1, y1, ys, power, span):
    # times t span and states y span^power (the self-similar scaling), against
    # the displayed forms at 50 digits: no span or state is squared on its own
    name = kernel.__name__.replace("_transition", "").replace("_pdf", "")
    t1, t2 = t1 * span, (t1 + 1.2) * span
    y1, ys = y1 * span ** power, [y * span ** power for y in ys]
    with warnings.catch_warnings(), mp.workdps(50):
        warnings.simplefilter("error")
        got = kernel(t1, t2, y1, np.array(ys))
        want = [float(mp_stable_kernel(name, t1, t2, y1, y)) for y in ys]
    assert np.all(got > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestSelfSimilarity:
    def test_cauchy_scaling(self):
        gen = np.random.default_rng(13)
        for _ in range(50):
            lam = gen.uniform(0.2, 5.0)
            t1 = gen.uniform(0.0, 2.0)
            t2 = t1 + gen.uniform(0.1, 2.0)
            y1, y2 = gen.uniform(-3, 3, 2)
            lhs = lam * cauchy_transition_pdf(lam * t1, lam * t2, lam * y1, lam * y2)
            assert lhs == pytest.approx(cauchy_transition_pdf(t1, t2, y1, y2), rel=1e-12)

    def test_biane_scaling(self):
        gen = np.random.default_rng(14)
        for _ in range(50):
            lam = gen.uniform(0.2, 5.0)
            t1 = gen.uniform(0.1, 2.0)
            t2 = t1 + gen.uniform(0.1, 2.0)
            y1 = t1 * t1 / 4 + gen.uniform(0.05, 3.0)
            y2 = t2 * t2 / 4 + gen.uniform(0.05, 3.0)
            lhs = lam * lam * biane_half_pdf(lam * t1, lam * t2, lam * lam * y1, lam * lam * y2)
            assert lhs == pytest.approx(biane_half_pdf(t1, t2, y1, y2), rel=1e-12)


    def test_qbm_scaling_at_extreme_times(self):
        # kappa(lam t1, lam t2, sqrt(lam) y1, sqrt(lam) y2) sqrt(lam) = kappa(t1, t2, y1, y2)
        gen = np.random.default_rng(15)
        for lam in (1e-200, 1e200):
            r = math.sqrt(lam)
            for _ in range(40):
                q = gen.uniform(-0.95, 0.95)
                t1 = 10.0 ** gen.uniform(-2.0, 1.0) * (gen.random() > 0.1)
                t2 = (t1 or 1.0) * (1.0 + 10.0 ** gen.uniform(-6.0, 0.5))
                y1 = gen.uniform(-0.99, 0.99) * 2.0 * math.sqrt(t1 / (1.0 - q))
                y2 = gen.uniform(-0.99, 0.99, 5) * 2.0 * math.sqrt(t2 / (1.0 - q))
                want = qbm_transition_pdf(q, t1, t2, y1, y2)
                got = qbm_transition_pdf(q, lam * t1, lam * t2, r * y1, r * y2) * r
                assert np.all(np.isfinite(got))
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestDisplayedProductOracle:
    """The q-kernels against their displayed products (tests/oracles.py) in
    mpmath at 40 digits, which share no code with the regrouped q-OU core."""

    def test_interior_to_relative_1e11(self):
        gen = np.random.default_rng(41)
        worst = 0.0
        with mp.workdps(40):
            for _ in range(16):
                q = gen.uniform(-0.95, 0.95)
                x = gen.uniform(-0.99, 0.99) * x_plus(q)
                got = qnormal_pdf(q, x)
                worst = max(worst, abs(got / mp_qnormal(q, x) - 1))

                delta = 10.0 ** gen.uniform(-8.0, 0.5)
                # the target near x at the tangent scale, or anywhere in the support
                c = math.sqrt(4.0 / (1.0 - q) - x * x)
                y = x + delta * c * gen.uniform(-5.0, 5.0) if gen.random() < 0.5 \
                    else gen.uniform(-0.99, 0.99) * x_plus(q)
                y = float(np.clip(y, -0.99 * x_plus(q), 0.99 * x_plus(q)))
                got = qou_transition_pdf(q, delta, x, y)
                worst = max(worst, abs(got / mp_qou(q, delta, x, y) - 1))

                t1 = 10.0 ** gen.uniform(-1.0, 1.0) * (gen.random() > 0.2)
                t2 = t1 + 10.0 ** gen.uniform(-8.0, 0.5)
                b1, b2 = (2.0 * math.sqrt(t / (1.0 - q)) for t in (t1, t2))
                y1 = gen.uniform(-0.99, 0.99) * b1
                c = math.sqrt(4.0 * t1 / (1.0 - q) - y1 * y1) / (2.0 * t1) if t1 else 0.0
                y2 = y1 + (t2 - t1) * (y1 / (2.0 * t1) + c * gen.uniform(-5.0, 5.0)) \
                    if t1 and gen.random() < 0.5 else gen.uniform(-0.99, 0.99) * b2
                y2 = float(np.clip(y2, -0.99 * b2, 0.99 * b2))
                got = qbm_transition_pdf(q, t1, t2, y1, y2)
                worst = max(worst, abs(got / mp_qbm(q, t1, t2, y1, y2) - 1))
        assert worst <= 1e-11, worst

    @pytest.mark.parametrize("q", [-0.95, -0.5, 0.0, 0.5, 0.9, 0.95])
    def test_states_at_the_support_edge_to_relative_1e11(self, q):
        # conditioning states within a relative gap g of either edge, where
        # 4 - (1-q) x^2 cancels; the targets stay interior, since a target that
        # close to the edge is ill-conditioned (an error of about 2e-17/g).
        # p(x, y) = p(-x, -y), so one oracle value serves both edges
        worst = 0.0
        with mp.workdps(60):
            for g in (1e-9, 1e-12, 1e-14):
                x = x_plus(q) * (1.0 - g)
                for delta, frac in ((1e-8, 0.9), (1e-3, 0.5), (0.1, 0.0), (1.0, -0.5)):
                    y = frac * x
                    ref = mp_qou(q, delta, x, y)
                    for sign in (1.0, -1.0):
                        got = qou_transition_pdf(q, delta, sign * x, sign * y)
                        worst = max(worst, abs(got / ref - 1))
        assert worst <= 1e-11, worst

    @pytest.mark.parametrize("q", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("delta", [1e-160, 1e-200, 1e-300])
    def test_tiny_lags_to_relative_1e13(self, delta, q):
        # 1 - e^{-2 delta} and phi_{q,0} carry the factor u = 1 - e^{-delta}, whose
        # square underflows below delta ~ 1e-160; 700 digits resolve e^{-delta}
        c = 2.0 / math.sqrt(1.0 - q)
        with mp.workdps(700):
            for y in (0.0, delta * c):
                got = qou_transition_pdf(q, delta, 0.0, y)
                assert abs(got / mp_qou(q, delta, 0.0, y) - 1) <= 1e-13, (y, got)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_qbm_boundary_window_to_2e5_of_peak(self, s):
        # the q = 0.9 boundary study at eps = 0.01: the conditioning state sits
        # on the support edge, where the k = 0 form loses digits to cancellation
        case = TangentCase("qbm_boundary", 0.9, s=s)
        q, window, eps = case.q, default_window(case), 0.01
        tau2 = s + window.t2 * eps
        a = 1.0 / math.sqrt(s * (1.0 - case.q))
        y2 = window.y2_lo + (window.y2_hi - window.y2_lo) * np.geomspace(1e-4, 1.0, 14)
        w2 = case.x - a * window.t2 * eps + y2 * eps * eps
        w2 = w2[np.abs(w2) < 2.0 * math.sqrt(tau2 / (1.0 - case.q))]
        got = qbm_transition_pdf(q, s, tau2, case.x, w2)
        with mp.workdps(40):
            ref = np.array([float(mp_qbm(case.q, s, tau2, case.x, w)) for w in w2])
        assert np.max(np.abs(got - ref)) <= 2e-5 * np.max(ref)


class TestOuBmIdentity:
    def test_deterministic_time_change(self):
        gen = np.random.default_rng(17)
        for _ in range(60):
            q = gen.uniform(-0.9, 0.9)
            s = gen.uniform(-1.0, 1.0)
            t = s + gen.uniform(0.05, 2.0)
            x, y = gen.uniform(-0.9, 0.9, 2) * x_plus(q)
            lhs = qou_transition_pdf(q, t - s, x, y)
            rhs = math.exp(t) * qbm_transition_pdf(
                q, math.exp(2 * s), math.exp(2 * t), math.exp(s) * x, math.exp(t) * y)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kernels_report_is_its_three_sweeps_at_one_seed():
    # the combined report passes its seed to every sweep, and every sweep
    # draws from streams of that seed, so another seed gives other residuals
    five = kernels_verification_report(2, 3, seed=5)
    assert five == (kernel_normalization_report(2, 5) + chapman_kolmogorov_report(2, 5)
                    + ou_bm_identity_report(3, 5))
    six = kernels_verification_report(2, 3, seed=6)
    assert [r["kind"] for r in six] == [r["kind"] for r in five]
    assert all(a["max_residual"] != b["max_residual"] for a, b in zip(five, six))


def _half_stable_oracle(t, p):
    """30-digit quantile: findroot on mpmath quadrature of the marginal density."""
    t, p = mp.mpf(t), mp.mpf(p)
    edge = t * t / 4

    def density(x):
        return t * mp.sqrt(4 * x - t * t) / (2 * mp.pi * x * x)

    if p <= 0.5:
        # mass below edge + u^2 (the substitution removes the square-root edge)
        def below(u):
            return mp.quad(lambda v: density(edge + v * v) * 2 * v, [0, u]) - p
        u0 = mp.sqrt(edge) * (6 * mp.pi * p) ** (mp.mpf(1) / 3) / 2
        u = mp.findroot(below, (u0 / 2, 3 * u0), solver="anderson")
        return edge + u * u

    # mass above 1 / v^2 (the density decays like x^(-3/2))
    def above(v):
        return mp.quad(lambda w: density(1 / (w * w)) * 2 / w ** 3, [0, v]) - (1 - p)
    v0 = mp.pi * (1 - p) / (2 * t)
    return 1 / mp.findroot(above, (v0 / 2, min(3 * v0, 2 / t)), solver="anderson") ** 2


class TestHalfStableQuantile:
    @pytest.mark.parametrize("t", [1e-3, 1.0, 50.0])
    def test_against_mpmath_oracle(self, t):
        # relative 2e-15 (about 9 ulp); measured worst 6.6e-16
        with mp.workdps(30):
            for p in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.5 + 2.0 ** -40, 0.9, 0.99, 1.0 - 1e-6):
                ref = _half_stable_oracle(t, p)
                got = half_stable_quantile(t, p)
                assert abs(mp.mpf(got) / ref - 1) < 2e-15, (t, p, got, ref)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 50.0])
    def test_round_trip_through_the_cdf(self, t):
        ps = np.concatenate([np.logspace(-12, -1, 200), np.linspace(0.1, 0.9, 4001),
                             1.0 - np.logspace(-1, -6, 200)])
        x = half_stable_quantile(t, ps)
        assert np.max(np.abs(half_stable_cdf(t, x) - ps)) <= 1e-15

    def test_monotone_in_p(self):
        coarse = np.unique(np.concatenate([np.logspace(-12, -1, 300), np.linspace(0.1, 0.9, 8001),
                                           1.0 - np.logspace(-1, -6, 300)]))
        assert np.all(np.diff(half_stable_quantile(1.0, coarse)) > 0.0)
        # ulp steps across the switch from phi to psi = pi - phi at p = 1/2
        fine = 0.5 + np.arange(-2000, 2000) * 2.0 ** -53
        assert np.all(np.diff(half_stable_quantile(1.0, fine)) >= 0.0)

    def test_edges_and_scalars(self):
        assert half_stable_quantile(2.0, 0.0) == 1.0
        assert isinstance(half_stable_quantile(2.0, 0.3), float)
        x = half_stable_quantile(3.0, np.array([[0.2, 0.7]]))
        assert x.shape == (1, 2)
        # self-similarity: Q_t(p) = t^2 Q_1(p)
        assert half_stable_quantile(3.0, 0.7) == pytest.approx(9.0 * half_stable_quantile(1.0, 0.7),
                                                               rel=1e-15)

    def test_validation(self):
        for bad_t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidTime):
                half_stable_quantile(bad_t, 0.5)
        for bad_p in (-1e-3, 1.0, 1.5, math.nan):
            with pytest.raises(InvalidState):
                half_stable_quantile(1.0, bad_p)
        with pytest.raises(InvalidState):
            half_stable_quantile(1.0, np.array([0.1, 1.0]))


class TestArrayTimes:
    """An array of times broadcasts against the states; each entry equals the
    scalar-time call bit for bit, whichever tail-product form either call takes."""

    # 5 rungs x n points: 200 and 4,000 and 10,000 broadcast points, with the
    # one-rung calls at 40, 800 and 2,000 points on either side of _LOOP_POINTS
    @pytest.mark.parametrize("n", [40, 800, 2000])
    def test_qou_lag_array_matches_scalar_calls(self, n):
        gen = np.random.default_rng(n)
        for q in (-0.7, 0.0, 0.5, 0.9):
            delta = 10.0 ** gen.uniform(-5.0, 0.5, (5, 1))
            x = gen.uniform(-0.99, 0.99, (5, 1)) * x_plus(q)
            y = gen.uniform(-1.0, 1.0, n) * x_plus(q)
            batched = qou_transition_pdf(q, delta, x, y)
            assert batched.shape == (5, n)
            for r in range(5):
                single = qou_transition_pdf(q, float(delta[r, 0]), float(x[r, 0]), y)
                np.testing.assert_array_equal(batched[r], single)

    @pytest.mark.parametrize("n", [40, 800, 2000])
    def test_qbm_time_arrays_match_scalar_calls(self, n):
        gen = np.random.default_rng(100 + n)
        for q in (-0.7, 0.0, 0.5, 0.9):
            t1 = gen.uniform(0.1, 2.0, (5, 1))
            t1[0, 0] = 0.0
            t2 = t1 + 10.0 ** gen.uniform(-5.0, 0.5, (5, 1))
            y1 = gen.uniform(-0.99, 0.99, (5, 1)) * 2.0 * np.sqrt(t1 / (1.0 - q))
            y2 = gen.uniform(-1.0, 1.0, n) * 2.0 * math.sqrt(float(t2.max()) / (1.0 - q))
            batched = qbm_transition_pdf(q, t1, t2, y1, y2)
            assert batched.shape == (5, n)
            for r in range(5):
                single = qbm_transition_pdf(q, float(t1[r, 0]), float(t2[r, 0]), float(y1[r, 0]), y2)
                np.testing.assert_array_equal(batched[r], single)

    def test_scalar_time_broadcasts_against_time_array(self):
        q = 0.5
        y = np.linspace(-2.0, 2.0, 9)
        t2 = np.array([[1.5], [2.5]])
        np.testing.assert_array_equal(qbm_transition_pdf(q, 1.0, t2, 0.3, y)[1],
                                      qbm_transition_pdf(q, 1.0, 2.5, 0.3, y))

    def test_bad_element_is_rejected(self):
        q = 0.5
        y = np.linspace(-2.0, 2.0, 9)
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(InvalidTime):
                qou_transition_pdf(q, np.array([[0.1], [bad]]), 0.0, y)
        # t1 >= t2 in one pair, or a negative start
        with pytest.raises(InvalidTime):
            qbm_transition_pdf(q, np.array([[0.5], [1.0]]), np.array([[1.0], [1.0]]), 0.0, y)
        with pytest.raises(InvalidTime):
            qbm_transition_pdf(q, np.array([[0.5], [-0.1]]), 2.0, 0.0, y)
        # a state inside the support of one start time but outside its own
        t1 = np.array([[4.0], [0.25]])
        with pytest.raises(InvalidState):
            qbm_transition_pdf(q, t1, 5.0, np.array([[5.0], [5.0]]), y)
        # a start at t1 = 0 away from the origin
        with pytest.raises(InvalidState):
            qbm_transition_pdf(q, np.array([[1.0], [0.0]]), 2.0, np.array([[0.1], [0.1]]), y)
