"""Tests for the brute-force oracle layer itself.

The oracle validates the closed forms in the acceptance suite; these tests
validate the oracle: densities against scipy.stats and Monte Carlo, the
quadrature against exactly solvable cases, and determinism of the rate
harness.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from bffkit.bayes_factors import Sidedness, StatFamily, TestStatistic, log_bf10
from oracle import (
    PriorFamily,
    PriorSpec,
    QuadratureSpec,
    RateReport,
    density_noncentral,
    density_null,
    marginal_bf_quadrature,
    rate_harness,
)


def z_stat(v, sided=Sidedness.TWO_SIDED):
    return TestStatistic(StatFamily.Z, v, sided)


def t_stat(v, nu, sided=Sidedness.TWO_SIDED):
    return TestStatistic(StatFamily.T, v, sided, nu=nu)


class TestDensityNull:
    def test_z(self):
        assert density_null(z_stat(0.0)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-15
        )

    def test_chisq_exponential_case(self):
        assert density_null(TestStatistic(StatFamily.CHI_SQ, 0.0, k=2.0)) == 0.5

    def test_t_against_beta_function_form(self):
        # central t density via the Beta-function normalizer
        nu, t = 5.0, 1.3
        norm = 1.0 / (math.sqrt(nu) * math.exp(
            math.lgamma(0.5) + math.lgamma(nu / 2) - math.lgamma((nu + 1) / 2)
        ))
        expected = norm * (1 + t * t / nu) ** (-(nu + 1) / 2)
        assert density_null(t_stat(t, nu)) == pytest.approx(expected, rel=1e-13)
        assert density_null(t_stat(t, nu)) == pytest.approx(
            stats.t.pdf(t, nu), rel=1e-12
        )

    def test_f_against_scipy(self):
        stat = TestStatistic(StatFamily.F, 2.7, k=3.0, m=17.0)
        assert density_null(stat) == pytest.approx(stats.f.pdf(2.7, 3, 17), rel=1e-12)


class TestDensityNoncentral:
    def test_central_case_is_exact(self):
        for stat in (
            z_stat(1.2),
            t_stat(1.2, 9.0),
            TestStatistic(StatFamily.CHI_SQ, 3.0, k=2.0),
            TestStatistic(StatFamily.F, 1.5, k=2.0, m=11.0),
        ):
            assert density_noncentral(stat, 0.0) == density_null(stat)

    def test_z_is_shifted_normal(self):
        assert density_noncentral(z_stat(2.0), 2.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-15
        )

    @pytest.mark.parametrize(
        "stat,lam,ref",
        [
            (t_stat(1.3, 5.0), 2.0, lambda s, l: stats.nct.pdf(s.value, s.nu, l)),
            (t_stat(-2.1, 17.0), 1.2, lambda s, l: stats.nct.pdf(s.value, s.nu, l)),
            (t_stat(2.5, 30.0), -1.4, lambda s, l: stats.nct.pdf(s.value, s.nu, l)),
            (
                TestStatistic(StatFamily.CHI_SQ, 5.0, k=3.0),
                4.0,
                lambda s, l: stats.ncx2.pdf(s.value, s.k, l),
            ),
            (
                TestStatistic(StatFamily.CHI_SQ, 0.7, k=1.0),
                2.5,
                lambda s, l: stats.ncx2.pdf(s.value, s.k, l),
            ),
            (
                TestStatistic(StatFamily.F, 4.2, k=3.0, m=30.0),
                6.0,
                lambda s, l: stats.ncf.pdf(s.value, s.k, s.m, l),
            ),
        ],
    )
    def test_against_scipy(self, stat, lam, ref):
        assert density_noncentral(stat, lam) == pytest.approx(
            ref(stat, lam), rel=1e-10
        )

    def test_continuity_at_zero(self):
        # the density has an O(1) derivative in lambda at 0, so the gap
        # scales linearly with lambda
        for stat in (t_stat(1.5, 8.0), TestStatistic(StatFamily.CHI_SQ, 4.0, k=3.0)):
            assert abs(density_noncentral(stat, 1e-10) - density_null(stat)) < 1e-10
            assert abs(density_noncentral(stat, 1e-8) - density_null(stat)) < 1e-7

    def test_integrates_to_one(self):
        for lam in (0.5, 4.0):
            total, _ = integrate.quad(
                lambda h: density_noncentral(
                    TestStatistic(StatFamily.CHI_SQ, h, k=3.0), lam
                ),
                0,
                150,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-8)
        total, _ = integrate.quad(
            lambda t: density_noncentral(t_stat(t, 12.0), 1.7), -60, 60, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_monte_carlo_sanity(self):
        # coarse 3-sigma check of bin mass against the integrated density
        k, lam = 3.0, 4.0
        rng = np.random.default_rng(7)
        draws = rng.noncentral_chisquare(k, lam, size=10_000_000)
        lo, hi = 4.5, 5.5
        p_emp = float(np.mean((draws >= lo) & (draws <= hi)))
        p_true, _ = integrate.quad(
            lambda h: density_noncentral(TestStatistic(StatFamily.CHI_SQ, h, k=k), lam),
            lo,
            hi,
        )
        se = math.sqrt(p_true * (1 - p_true) / draws.size)
        assert abs(p_emp - p_true) <= 3.0 * se

    def test_negative_lambda_rejected_for_chisq_f(self):
        with pytest.raises(ValueError):
            density_noncentral(TestStatistic(StatFamily.CHI_SQ, 1.0, k=2.0), -1.0)
        with pytest.raises(ValueError):
            density_noncentral(TestStatistic(StatFamily.F, 1.0, k=2.0, m=9.0), -1.0)


class TestMarginalQuadrature:
    def test_point_mass_limit(self):
        stat = z_stat(1.5)
        spec = PriorSpec(PriorFamily.NORMAL_MOMENT_TWO_SIDED, 1e-10, 1.0)
        assert abs(marginal_bf_quadrature(stat, spec)) < 1e-6

    def test_family_pairing_enforced(self):
        with pytest.raises(ValueError):
            marginal_bf_quadrature(
                z_stat(1.0), PriorSpec(PriorFamily.GAMMA_NONLOCAL, 1.0, 1.0, 2.0)
            )
        with pytest.raises(ValueError):
            marginal_bf_quadrature(
                TestStatistic(StatFamily.CHI_SQ, 2.0, k=2.0),
                PriorSpec(PriorFamily.NORMAL_MOMENT_TWO_SIDED, 1.0, 1.0),
            )

    @pytest.mark.parametrize(
        "stat,spec",
        [
            (z_stat(1.5), PriorSpec(PriorFamily.NORMAL_MOMENT_TWO_SIDED, 0.605, 1.0)),
            (z_stat(-0.8, Sidedness.ONE_SIDED), PriorSpec(PriorFamily.NORMAL_MOMENT_POSITIVE, 2.0, 1.5)),
            (t_stat(2.3, 20.0), PriorSpec(PriorFamily.NORMAL_MOMENT_TWO_SIDED, 1.5, 1.0)),
            (t_stat(1.1, 7.0, Sidedness.ONE_SIDED), PriorSpec(PriorFamily.NORMAL_MOMENT_POSITIVE, 2.5, 1.5)),
            (TestStatistic(StatFamily.CHI_SQ, 7.5, k=1.0), PriorSpec(PriorFamily.GAMMA_NONLOCAL, 3.0, 1.0, k=1.0)),
            (TestStatistic(StatFamily.F, 4.2, k=3.0, m=30.0), PriorSpec(PriorFamily.GAMMA_NONLOCAL, 2.0, 1.0, k=3.0)),
        ],
    )
    def test_agrees_with_closed_form(self, stat, spec):
        closed = log_bf10(stat, spec.tau_sq, spec.r)
        oracle = marginal_bf_quadrature(stat, spec)
        assert abs(closed - oracle) <= 1e-8 * max(1.0, abs(closed))

    def test_custom_spec(self):
        stat = z_stat(1.0)
        spec = PriorSpec(PriorFamily.NORMAL_MOMENT_TWO_SIDED, 1.0, 1.0)
        q = QuadratureSpec(rel_tol=1e-8, sd_multiplier=10.0)
        assert marginal_bf_quadrature(stat, spec, q) == pytest.approx(
            log_bf10(stat, 1.0, 1.0), abs=1e-6
        )


class TestRateHarness:
    def test_deterministic(self):
        kwargs = dict(
            family=StatFamily.Z,
            r=1.0,
            beta=0.5,
            gamma=0.3,
            n_grid=[100, 400, 1600],
            seed=11,
            replicates=40,
        )
        a = rate_harness(**kwargs)
        b = rate_harness(**kwargs)
        assert a == b

    def test_report_shape(self):
        rep = rate_harness(
            StatFamily.CHI_SQ,
            r=1.0,
            beta=0.5,
            gamma=0.3,
            n_grid=[100, 400, 1600],
            seed=3,
            replicates=40,
            k=2.0,
        )
        assert isinstance(rep, RateReport)
        assert rep.h0_target_slope == -2.0
        assert len(rep.h0_median_log_bf10) == 3

    def test_h1_direction(self):
        rep = rate_harness(
            StatFamily.Z,
            r=1.0,
            beta=0.5,
            gamma=0.3,
            n_grid=[100, 400, 1600],
            seed=5,
            replicates=60,
        )
        # log BF01 under H1 plunges with n
        assert rep.h1_median_log_bf01[0] < 0
        assert all(d < 0 for d in rep.h1_increments)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rate_harness(StatFamily.Z, 1.0, 0.5, 0.3, [100, 50, 10], seed=0)
        with pytest.raises(ValueError):
            rate_harness(StatFamily.Z, 1.0, 0.5, 0.3, [100, 200], seed=0)
