import cmath
import math

import numpy as np
import pytest

from qtangent import verify
from qtangent.errors import BranchCut, InvalidTime, NonConvergentLadder
from qtangent.freeprob import (
    biane_H,
    cauchy_stieltjes,
    g_half_closed,
    stieltjes_invert,
    subordinator_F,
)
from qtangent.kernels import (
    biane_half_pdf,
    biane_shifted_pdf,
    cauchy_transition_pdf,
    qnormal_pdf,
    x_plus,
)
from qtangent.verify import _FREEPROB, freeprob_verification_report, verify_identities


# the time-t marginals: the kernels started at the origin

def cauchy_density(t):
    return lambda x: cauchy_transition_pdf(0.0, t, 0.0, x)


def half_stable_density(t):
    return lambda x: biane_half_pdf(0.0, t, 0.0, x)


class TestCauchyStieltjes:
    def test_narrow_bump_approaches_point_mass(self):
        # G of (approximately) delta_0 at z = i is 1/i = -i; the bump vanishes
        # past its right edge, which the half-line quadrature resolves
        w = 1e-3

        def bump(x):
            return np.where(np.abs(x) < w / 2, 1.0 / w, 0.0)

        g = cauchy_stieltjes(bump, -w / 2, 1j)
        assert g == pytest.approx(-1j, abs=1e-5)

    def test_cauchy_family_closed_form(self):
        g = cauchy_stieltjes(cauchy_density(1.0), -math.inf, 2j)
        assert g == pytest.approx(1 / 3j, abs=1e-10)

    def test_half_stable_matches_closed_transform(self):
        g = cauchy_stieltjes(half_stable_density(1.0), 0.25, 1j)
        assert abs(g - g_half_closed(1.0, 1j)) < 1e-8

    def test_herglotz_property(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            z = complex(gen.uniform(-5, 5), gen.uniform(0.1, 5.0))
            assert cauchy_stieltjes(half_stable_density(2.0), 1.0, z).imag < 0.0

    def test_requires_upper_half_plane(self):
        with pytest.raises(BranchCut):
            cauchy_stieltjes(cauchy_density(1.0), -math.inf, complex(0.0, -1.0))

    def test_qnormal_measure(self):
        q = 0.5
        g = cauchy_stieltjes(lambda x: qnormal_pdf(q, x), -x_plus(q), 5j)
        # zG(z) -> 1 for a probability measure
        assert 5j * g == pytest.approx(1.0 + 0j, abs=0.05)


class TestClosedTransform:
    def test_value_t1(self):
        assert g_half_closed(1.0, -1.0 + 0j) == pytest.approx((math.sqrt(5) - 3) / 2)

    def test_value_t2(self):
        assert g_half_closed(2.0, -1.0 + 0j) == pytest.approx(-(3 - 2 * math.sqrt(2)))

    def test_matches_unsimplified_form(self):
        # (t sqrt(t^2-4z) - t^2 + 2z)/(2z^2) agrees wherever both are defined
        gen = np.random.default_rng(4)
        for _ in range(100):
            t = gen.uniform(0.2, 4.0)
            z = complex(gen.uniform(-10, 2), gen.uniform(0.1, 10))
            raw = (t * cmath.sqrt(t * t - 4 * z) - t * t + 2 * z) / (2 * z * z)
            assert abs(g_half_closed(t, z) - raw) < 1e-12 * abs(raw)

    def test_decays_like_probability_transform(self):
        z = 1e6j
        assert z * g_half_closed(1.0, z) == pytest.approx(1.0 + 0j, abs=1e-2)

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCut):
            g_half_closed(1.0, 0.5 + 0j)  # on [t^2/4, inf)
        with pytest.raises(BranchCut):
            g_half_closed(1.0, 0.5 + 1e-13j)
        # left of the branch point on the real axis is fine
        g_half_closed(1.0, 0.2 + 0j)

    def test_time_validation(self):
        with pytest.raises(InvalidTime):
            g_half_closed(0.0, 1j)


class TestSubordinator:
    def test_value(self):
        assert subordinator_F(1.0, 2.0, -1.0 + 0j) == pytest.approx(-2 - math.sqrt(2))

    def test_degenerate_direction(self):
        z = complex(-0.7, 0.4)
        assert subordinator_F(1.0, 1.0 + 1e-9, z) == pytest.approx(z, abs=1e-8)

    def test_subordination_identity(self):
        z = -1.0 + 0j
        lhs = g_half_closed(2.0, z)
        rhs = g_half_closed(1.0, subordinator_F(1.0, 2.0, z))
        assert lhs == pytest.approx(rhs, abs=1e-14)
        assert lhs == pytest.approx(-(3 - 2 * math.sqrt(2)))

    def test_times_validation(self):
        with pytest.raises(InvalidTime):
            subordinator_F(2.0, 1.0, 1j)
        with pytest.raises(InvalidTime):
            subordinator_F(1.0, 1.0, 1j)

    def test_imaginary_part_grows(self):
        gen = np.random.default_rng(6)
        for _ in range(100):
            s = gen.uniform(0.1, 2.0)
            t = s + gen.uniform(0.1, 2.0)
            z = complex(gen.uniform(-10, 2), gen.uniform(0.1, 10))
            assert subordinator_F(s, t, z).imag >= z.imag - 1e-12

    def test_conjugate_symmetry(self):
        z = complex(-3.0, 2.0)
        F = subordinator_F(0.5, 1.5, z)
        assert subordinator_F(0.5, 1.5, z.conjugate()) == pytest.approx(F.conjugate())

    def test_asymptotic_slope_improves_with_height(self):
        # |F(iy)/(iy) - 1| decays like (t-s)/sqrt(y)
        devs = [abs(subordinator_F(1.0, 2.0, complex(0.0, y)) / complex(0.0, y) - 1.0)
                for y in (1e4, 1e6, 1e8)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] == pytest.approx(1.0 / math.sqrt(1e4), rel=0.5)


class TestBianeH:
    def test_value(self):
        assert biane_H(1.0, 2.0, 1.0, -1.0 + 0j) == pytest.approx(-0.2)

    def test_large_z_normalization(self):
        z = 1e7j
        assert z * biane_H(1.0, 2.0, 1.0, z) == pytest.approx(1.0 + 0j, abs=1e-2)

    def test_branch_cut(self):
        with pytest.raises(BranchCut):
            biane_H(1.0, 2.0, 1.0, 3.0 + 0j)

    def test_validation(self):
        with pytest.raises(InvalidTime):
            biane_H(2.0, 1.0, 1.0, -1 + 0j)
        with pytest.raises(InvalidTime):
            biane_H(1.0, 2.0, -1.0, -1 + 0j)


class TestStieltjesInversion:
    def test_cauchy_density_at_peak(self):
        # linear extrapolation leaves the quadratic remainder ~eps1*eps2/pi
        val = stieltjes_invert(lambda z: 1.0 / (z + 1j), 0.0)
        assert val == pytest.approx(1 / math.pi, abs=1e-7)

    def test_half_stable_density(self):
        val = stieltjes_invert(lambda z: g_half_closed(1.0, z), 1.0)
        assert val == pytest.approx(math.sqrt(3) / (2 * math.pi), abs=1e-4)

    def test_biane_transition_density(self):
        val = stieltjes_invert(lambda z: biane_H(1.0, 2.0, 1.0, z), 1.0)
        assert val == pytest.approx(2 / (5 * math.pi), abs=1e-4)
        assert biane_shifted_pdf(1.0, 2.0, 1.0, 1.0) == pytest.approx(2 / (5 * math.pi))

    def test_raw_ladder_reported(self):
        val, raw = stieltjes_invert(lambda z: 1.0 / (z + 1j), 0.0, return_ladder=True)
        assert len(raw) == 3
        assert raw[0] == pytest.approx(1 / (math.pi * 1.01), rel=1e-12)

    def test_divergent_ladder_raises(self):
        # transform whose imaginary part blows up as eps shrinks
        bad = lambda z: complex(0.0, -1.0 / z.imag ** 2)
        with pytest.raises(NonConvergentLadder):
            stieltjes_invert(bad, 0.0)


class TestVerifySweeps:
    @pytest.mark.parametrize("kind", list(_FREEPROB))
    def test_all_kinds_under_threshold(self, kind):
        residual = verify_identities(kind, 60, 17)
        assert residual < _FREEPROB[kind], residual

    def test_cases_are_prefixes_and_each_kind_draws_its_own(self, monkeypatch):
        # --samples n takes the first n cases, whatever n is
        ranges = ((-1.0, 1.0), (0.0, 2.0), (5.0, 6.0), (0.0, 1.0))  # two counter words
        rows = verify._cases(7, 31, 5, *ranges)
        assert rows == verify._cases(7, 31, 10, *ranges)[:5]
        assert verify._cases(7, 31, 0, *ranges) == []
        assert all(lo <= v < hi for row in rows for v, (lo, hi) in zip(row, ranges))
        assert all(type(v) is float and len(row) == 4 for row in rows for v in row)
        # every kind that draws keys its own family; inversion draws nothing
        drawn, cases = [], verify._cases

        def recorded(seed, family, n, *ranges):
            drawn.append((kind, family, cases(seed, family, n, *ranges)))
            return drawn[-1][2]
        monkeypatch.setattr(verify, "_cases", recorded)
        for kind in _FREEPROB:
            verify_identities(kind, 3, 20260808)
        assert [k for k, _, _ in drawn] == [k for k in _FREEPROB if k != "inversion"]
        assert len({family for _, family, _ in drawn}) == 4
        # subordination and f_unique share one law of (z, s, t), not its cases
        assert drawn[0][2] != drawn[-1][2]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_identities("herglotz")

    def test_report_shape(self):
        rows = freeprob_verification_report(10, 20260808)
        assert [row["kind"] for row in rows] == list(_FREEPROB)
        for row in rows:
            assert list(row) == ["kind", "samples", "max_residual", "threshold", "pass"]
            assert row["threshold"] == _FREEPROB[row["kind"]]
