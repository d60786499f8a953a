"""Tests for the oracle's non-local prior densities and the package's
Jeffreys priors on r."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from bffkit.priors import jeffreys_log_prior_gamma, jeffreys_log_prior_nm
from bffkit.specfun import trigamma
from oracle import PriorFamily, PriorSpec, log_density, mode

NM_TWO = PriorFamily.NORMAL_MOMENT_TWO_SIDED
NM_POS = PriorFamily.NORMAL_MOMENT_POSITIVE
NM_NEG = PriorFamily.NORMAL_MOMENT_NEGATIVE
GAMMA = PriorFamily.GAMMA_NONLOCAL


def spec_grid():
    specs = []
    for tau_sq in (0.25, 1.0, 3.0):
        for r in (1.0, 2.5, 6.0):
            specs.append(PriorSpec(NM_TWO, tau_sq, r))
            specs.append(PriorSpec(NM_POS, tau_sq, r))
            specs.append(PriorSpec(NM_NEG, tau_sq, r))
            for k in (1.0, 4.0):
                specs.append(PriorSpec(GAMMA, tau_sq, r, k))
    return specs


class TestPriorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(NM_TWO, 0.0, 1.0)
        with pytest.raises(ValueError):
            PriorSpec(NM_TWO, 1.0, 0.5)
        with pytest.raises(ValueError):
            PriorSpec(GAMMA, 1.0, 1.0)  # missing k
        with pytest.raises(ValueError):
            PriorSpec(NM_TWO, 1.0, 1.0, k=2.0)  # stray k


class TestLogDensity:
    def test_two_sided_at_mode_value(self):
        # direct substitution of the two-sided formula at tau_sq=1, r=1,
        # lam=sqrt(2): density = 2 e^-1 / (2^(3/2) Gamma(3/2))
        spec = PriorSpec(NM_TWO, 1.0, 1.0)
        expected = math.log(
            2.0 * math.exp(-1.0) / (2.0**1.5 * math.gamma(1.5))
        )
        assert log_density(spec, math.sqrt(2.0)) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_at_null(self):
        for spec in spec_grid():
            assert log_density(spec, 0.0) == -math.inf

    def test_gamma_against_scipy(self):
        spec = PriorSpec(GAMMA, 2.0, 1.0, k=1.0)  # shape 1.5, rate 0.25
        ref = stats.gamma.logpdf(3.0, a=1.5, scale=4.0)
        assert log_density(spec, 3.0) == pytest.approx(ref, rel=1e-12)

    def test_one_sided_is_doubled_two_sided(self):
        two = PriorSpec(NM_TWO, 1.7, 2.0)
        pos = PriorSpec(NM_POS, 1.7, 2.0)
        neg = PriorSpec(NM_NEG, 1.7, 2.0)
        for lam in (0.3, 1.1, 4.2):
            assert log_density(pos, lam) == pytest.approx(
                math.log(2.0) + log_density(two, lam), rel=1e-14
            )
            assert log_density(neg, -lam) == pytest.approx(
                log_density(pos, lam), rel=1e-14
            )

    def test_support_violations(self):
        with pytest.raises(ValueError):
            log_density(PriorSpec(NM_POS, 1.0, 1.0), -0.5)
        with pytest.raises(ValueError):
            log_density(PriorSpec(NM_NEG, 1.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            log_density(PriorSpec(GAMMA, 1.0, 1.0, 2.0), -1.0)

    @given(lam=st.floats(0.01, 20.0), tau_sq=st.floats(0.1, 5.0), r=st.floats(1.0, 6.0))
    @settings(max_examples=50, deadline=None)
    def test_two_sided_even(self, lam, tau_sq, r):
        spec = PriorSpec(NM_TWO, tau_sq, r)
        assert log_density(spec, lam) == log_density(spec, -lam)

    def test_integrates_to_one(self):
        for spec in spec_grid():
            if spec.family is GAMMA:
                hi = mode(spec) + 40.0 * math.sqrt(spec.k / 2 + spec.r) * 2 * spec.tau_sq
                total, _ = integrate.quad(
                    lambda x: math.exp(log_density(spec, x)), 0, hi, limit=200
                )
            else:
                hi = abs(mode(spec)) + 20.0 * math.sqrt((2 * spec.r + 1) * spec.tau_sq)
                if spec.family is NM_TWO:
                    half, _ = integrate.quad(
                        lambda x: math.exp(log_density(spec, x)), 0, hi, limit=200
                    )
                    total = 2.0 * half
                elif spec.family is NM_POS:
                    total, _ = integrate.quad(
                        lambda x: math.exp(log_density(spec, x)), 0, hi, limit=200
                    )
                else:
                    total, _ = integrate.quad(
                        lambda x: math.exp(log_density(spec, x)), -hi, 0, limit=200
                    )
            assert abs(total - 1.0) <= 1e-8

    def test_mode_maximizes_density(self):
        for spec in spec_grid():
            m = mode(spec)
            peak = log_density(spec, m)
            span = abs(m) + 6.0 * math.sqrt(spec.tau_sq)
            if spec.family is NM_TWO:
                grid = np.linspace(-span, span, 201)
            elif spec.family is NM_NEG:
                grid = np.linspace(-span, -1e-9, 201)
            else:
                grid = np.linspace(1e-9, span, 201)
            for lam in grid:
                if lam == 0.0:
                    continue
                assert log_density(spec, float(lam)) <= peak + 1e-12

    def test_quadratic_vanishing_near_null(self):
        # density(lam)/density(mode) <= (lam/mode)^2 * e for |lam| <= mode/10.
        # This holds for the normal-moment families (density ~ lam^(2r) with
        # r >= 1 near 0); the gamma prior rises like lam^(k/2+r-1), which is
        # subquadratic for small k and r, so there only vanishing is asserted.
        for spec in spec_grid():
            m = abs(mode(spec))
            peak = log_density(spec, math.copysign(m, mode(spec)))
            for frac in (0.001, 0.01, 0.1):
                lam = math.copysign(m * frac, mode(spec))
                ratio = log_density(spec, lam) - peak
                if spec.family is GAMMA:
                    # exact: ratio = (a-1)(ln f + 1 - f) for a = k/2 + r
                    expo = spec.k / 2.0 + spec.r - 1.0
                    assert ratio <= expo * (math.log(frac) + 1.0)
                else:
                    assert ratio <= 2.0 * math.log(frac) + 1.0


class TestMode:
    def test_normal_moment(self):
        assert mode(PriorSpec(NM_TWO, 2.0, 1.0)) == pytest.approx(2.0, rel=1e-15)
        assert mode(PriorSpec(NM_NEG, 2.0, 1.0)) == pytest.approx(-2.0, rel=1e-15)

    def test_gamma(self):
        assert mode(PriorSpec(GAMMA, 0.5, 1.0, k=2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_effect_size_construction(self):
        # tau_sq = n omega^2 / (2r) puts the mode at sqrt(n) omega
        n, omega, r = 100, 0.11, 1.0
        spec = PriorSpec(NM_POS, n * omega**2 / (2 * r), r)
        assert mode(spec) == pytest.approx(1.1, rel=1e-14)


class TestJeffreys:
    def test_nm_at_one(self):
        expected = 0.5 * math.log(math.pi**2 / 2.0 - 4.0 - 0.5)
        assert jeffreys_log_prior_nm(1.0) == pytest.approx(expected, abs=1e-10)
        # radicand comfortably positive
        assert math.pi**2 / 2.0 - 4.0 - 0.5 == pytest.approx(0.4348, abs=5e-4)

    def test_nm_decreasing(self):
        values = [jeffreys_log_prior_nm(r) for r in np.linspace(1.0, 100.0, 200)]
        assert values[0] > values[1]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert jeffreys_log_prior_nm(10.0) < jeffreys_log_prior_nm(1.0) < 0.0

    def test_gamma_known_values(self):
        # k=2, r=1: second term vanishes, psi_1(2) = pi^2/6 - 1
        expected = 0.5 * math.log(math.pi**2 / 6.0 - 1.0)
        assert jeffreys_log_prior_gamma(1.0, 2.0) == pytest.approx(expected, abs=1e-10)
        # k=1, r=1: psi_1(1.5) + 2
        expected = 0.5 * math.log(trigamma(1.5) + 2.0)
        assert jeffreys_log_prior_gamma(1.0, 1.0) == pytest.approx(expected, abs=1e-12)
        # k=4, r=3 against a direct trigamma evaluation
        a = 5.0
        expected = 0.5 * math.log(trigamma(a) - (a - 2.0) / (a - 1.0) ** 2)
        assert jeffreys_log_prior_gamma(3.0, 4.0) == pytest.approx(expected, abs=1e-12)

    def test_radicands_positive_on_grid(self):
        for r in np.linspace(1.0, 1000.0, 500):
            jeffreys_log_prior_nm(float(r))  # raises if radicand <= 0
            for k in range(1, 21):
                jeffreys_log_prior_gamma(float(r), float(k))

    def test_against_mpmath_over_the_whole_domain(self):
        # each radicand is psi_1 less terms of size 1/r and is itself of size
        # 1/(2 r^2); its direct form was off by 1e-6 at r = 1e10 and not
        # positive past about 1e16
        rs = [1.0, 2.5, 200.0, math.nextafter(200.0, math.inf), 201.0, 4.79e15]
        rs += np.logspace(0.5, 300.0, 40).tolist()

        def reference(x, rest):
            return float(0.5 * mpmath.log(mpmath.psi(1, x) - rest))

        for r in rs:
            with mpmath.workdps(40 + 2 * int(math.log10(r + 10.0))):
                m = mpmath.mpf(r)
                expected = reference(m + 0.5, 1 / m - 1 / (2 * m * m))
                assert abs(jeffreys_log_prior_nm(r) - expected) <= 1e-10, r
                for k in (1.0, 3.0, 10.0):
                    a = m + k / 2
                    expected = reference(a, (a - 2) / (a - 1) ** 2)
                    assert abs(jeffreys_log_prior_gamma(r, k) - expected) <= 1e-10, (r, k)

    def test_gamma_at_large_k_against_mpmath(self):
        # a = k/2 + r is large at every r when k is: the direct radicand was
        # off by 3e-7 at k = 1e10, by 0.45 at k = 1e16, and not positive at
        # k = 1e32
        for k in (1e4, 1e10, 1e16, 1e32):
            for r in (1.0, 50.0, 200.0):
                with mpmath.workdps(60 + 2 * int(math.log10(k))):
                    a = mpmath.mpf(r) + mpmath.mpf(k) / 2
                    expected = float(0.5 * mpmath.log(mpmath.psi(1, a) - (a - 2) / (a - 1) ** 2))
                assert abs(jeffreys_log_prior_gamma(r, k) - expected) <= 2 * math.ulp(expected), (r, k)

    def test_domain(self):
        for r in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="^r must be finite and >= 1"):
                jeffreys_log_prior_nm(r)
            with pytest.raises(ValueError, match="^r must be finite and >= 1"):
                jeffreys_log_prior_gamma(r, 2.0)
        with pytest.raises(ValueError):
            jeffreys_log_prior_gamma(1.0, 0.0)
