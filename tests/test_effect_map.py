"""Tests for the effect-size-to-prior-scale map and correlation ingestion."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bffkit.bayes_factors import Sidedness, StatFamily
from bffkit.effect_map import (
    DesignKind,
    DesignTag,
    effective_n,
    fisher_z,
    rmses,
    tau_sq_for,
)
from oracle import PriorFamily, PriorSpec, mode

_VECTOR_EFFECT = (
    DesignTag.MULTINOMIAL_CHISQ,
    DesignTag.LINEAR_MODEL_F,
    DesignTag.LIKELIHOOD_RATIO_CHISQ,
)


def target_noncentrality(design, omega):
    """Non-centrality a z/t design's prior mode is pinned to: sqrt(n_eff) omega."""
    return math.sqrt(effective_n(design)) * omega


def mode_consistency_check(design, omega, r, k=None):
    """Mode of the design's prior at tau_sq_for(...), which must not depend
    on r: sqrt(n_eff) omega for z/t designs, n k rmses^2 for the vector
    designs (half that for the linear model)."""
    tau_sq = tau_sq_for(design, omega, r, k)
    if design.tag in _VECTOR_EFFECT:
        return mode(PriorSpec(PriorFamily.GAMMA_NONLOCAL, tau_sq, r, k))
    return mode(PriorSpec(PriorFamily.NORMAL_MOMENT_POSITIVE, tau_sq, r))


class TestDesignKind:
    def test_two_sample_needs_both_sizes(self):
        with pytest.raises(ValueError):
            DesignKind(DesignTag.TWO_SAMPLE_T, n1=10)
        with pytest.raises(ValueError):
            DesignKind(DesignTag.TWO_SAMPLE_T, n=20)

    def test_one_sample_rejects_pair(self):
        with pytest.raises(ValueError):
            DesignKind(DesignTag.ONE_SAMPLE_Z, n1=10, n2=10)

    def test_sizes_must_be_finite(self):
        for n in (math.inf, math.nan):
            with pytest.raises(ValueError, match="requires finite n > 0"):
                DesignKind(DesignTag.ONE_SAMPLE_T, n=n)
            with pytest.raises(ValueError, match="require finite n1 > 0 and n2 > 0"):
                DesignKind(DesignTag.TWO_SAMPLE_T, n1=n, n2=n)
            with pytest.raises(ValueError, match="require finite n1 > 0 and n2 > 0"):
                DesignKind(DesignTag.TWO_SAMPLE_Z, n1=10, n2=n)

    def test_correlation_needs_n_above_3(self):
        with pytest.raises(ValueError):
            DesignKind(DesignTag.CORRELATION_Z, n=3)

    def test_effective_n(self):
        assert effective_n(DesignKind(DesignTag.ONE_SAMPLE_T, n=50)) == 50.0
        assert effective_n(DesignKind(DesignTag.TWO_SAMPLE_T, n1=30, n2=60)) == 20.0
        assert effective_n(DesignKind(DesignTag.CORRELATION_Z, n=84)) == 81.0


class TestTauSqFor:
    def test_r_must_be_finite_and_at_least_one(self):
        design = DesignKind(DesignTag.ONE_SAMPLE_Z, n=50)
        for r in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="^r must be finite and >= 1"):
                tau_sq_for(design, 0.5, r)

    def test_one_sample_z(self):
        design = DesignKind(DesignTag.ONE_SAMPLE_Z, n=100)
        assert tau_sq_for(design, 0.11, 1.0) == pytest.approx(0.605, rel=1e-14)

    def test_multinomial(self):
        design = DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=164)
        expected = 164 * 1 * 0.121**2 / (2 * (0.5 + 18 - 1))
        got = tau_sq_for(design, 0.121, 18.0, k=1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(164 * 0.014641 / 35.0, rel=1e-4)

    def test_two_sample_symmetric_reduction(self):
        n = 40
        design = DesignKind(DesignTag.TWO_SAMPLE_T, n1=n, n2=n)
        # n1 n2/(n1+n2) = n/2
        assert tau_sq_for(design, 0.3, 2.0) == pytest.approx(
            (n / 2) * 0.3**2 / 4.0, rel=1e-14
        )

    def test_correlation(self):
        design = DesignKind(DesignTag.CORRELATION_Z, n=84)
        assert tau_sq_for(design, 0.1, 1.0) == pytest.approx(81 * 0.01 / 2, rel=1e-14)

    def test_linear_model_denominator(self):
        design = DesignKind(DesignTag.LINEAR_MODEL_F, n=50)
        eff = 0.3  # RMSES
        # k/2 + r - 1 = 1 here; published form has denominator 4
        as_printed = tau_sq_for(design, eff, 1.0, k=2.0)
        assert as_printed == pytest.approx(50 * 2 * 0.09 / 4.0, rel=1e-14)

    def test_k_required_for_vector_designs(self):
        design = DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=50)
        with pytest.raises(ValueError):
            tau_sq_for(design, 0.2, 1.0)

    def test_k_rejected_for_scalar_designs(self):
        design = DesignKind(DesignTag.ONE_SAMPLE_Z, n=50)
        with pytest.raises(ValueError):
            tau_sq_for(design, 0.2, 1.0, k=2.0)

    def test_monotonicity(self):
        design = DesignKind(DesignTag.ONE_SAMPLE_T, n=100)
        assert tau_sq_for(design, 0.3, 1.0) > tau_sq_for(design, 0.2, 1.0)
        assert tau_sq_for(design, 0.2, 1.0) > tau_sq_for(design, 0.2, 2.0)
        big = DesignKind(DesignTag.ONE_SAMPLE_T, n=200)
        assert tau_sq_for(big, 0.2, 1.0) > tau_sq_for(design, 0.2, 1.0)


class TestModeConsistency:
    def test_zt_designs(self):
        # prior mode must equal sqrt(n_eff) * omega for every r
        designs = [
            DesignKind(DesignTag.ONE_SAMPLE_Z, n=100),
            DesignKind(DesignTag.ONE_SAMPLE_T, n=37),
            DesignKind(DesignTag.TWO_SAMPLE_Z, n1=20, n2=50),
            DesignKind(DesignTag.TWO_SAMPLE_T, n1=33, n2=33),
            DesignKind(DesignTag.CORRELATION_Z, n=84),
        ]
        for design in designs:
            for omega in (0.05, 0.2, 0.8):
                for r in (1.0, 4.0, 12.5):
                    m = mode_consistency_check(design, omega, r)
                    target = target_noncentrality(design, omega)
                    assert m == pytest.approx(target, rel=1e-12)
                    assert target == pytest.approx(
                        math.sqrt(effective_n(design)) * omega, rel=1e-14
                    )

    def test_r_invariance_example(self):
        design = DesignKind(DesignTag.ONE_SAMPLE_T, n=100)
        assert mode_consistency_check(design, 0.2, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert mode_consistency_check(design, 0.2, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_chisq_f_designs(self):
        eff = 0.3  # RMSES
        design = DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=50)
        for r in (1.0, 3.0, 18.0):
            m = mode_consistency_check(design, eff, r, k=2.0)
            assert m == pytest.approx(50 * 2 * 0.09, rel=1e-12)  # n omega'omega
        lm = DesignKind(DesignTag.LINEAR_MODEL_F, n=50)
        for r in (1.0, 3.0):
            m = mode_consistency_check(lm, eff, r, k=2.0)
            assert m == pytest.approx(50 * 2 * 0.09 / 2, rel=1e-12)
        lr = DesignKind(DesignTag.LIKELIHOOD_RATIO_CHISQ, n=77)
        for r in (1.0, 2.0):
            m = mode_consistency_check(lr, eff, r, k=4.0)
            assert m == pytest.approx(77 * 4 * 0.09, rel=1e-12)


class TestFisherZ:
    def test_zero(self):
        stat = fisher_z(0.0, 50)
        assert stat.value == 0.0
        assert stat.family is StatFamily.Z

    def test_table_entries(self):
        # first and fourth entries of the published correlation table
        stat = fisher_z(-0.211, 84)
        assert stat.value == pytest.approx(
            math.sqrt(81) / 2 * math.log(0.789 / 1.211), rel=1e-12
        )
        stat = fisher_z(0.201, 90)
        assert stat.value == pytest.approx(
            math.sqrt(87) / 2 * math.log(1.201 / 0.799), rel=1e-12
        )

    def test_default_two_sided(self):
        assert fisher_z(0.1, 30).sided is Sidedness.TWO_SIDED
        assert fisher_z(0.1, 30, Sidedness.ONE_SIDED).sided is Sidedness.ONE_SIDED

    @given(rho=st.floats(-0.95, 0.95), bump=st.floats(0.001, 0.04))
    @settings(max_examples=50, deadline=None)
    def test_odd_and_increasing(self, rho, bump):
        n = 60
        assert fisher_z(-rho, n).value == pytest.approx(
            -fisher_z(rho, n).value, abs=1e-12
        )
        assert fisher_z(min(rho + bump, 0.96), n).value > fisher_z(rho, n).value

    def test_domain(self):
        with pytest.raises(ValueError):
            fisher_z(1.0, 50)
        with pytest.raises(ValueError):
            fisher_z(0.5, 3)


class TestRmses:
    def test_constant_vector(self):
        assert rmses([0.3, 0.3, 0.3]) == pytest.approx(0.3, rel=1e-15)

    def test_zeros(self):
        assert rmses([0.0, 0.0, 0.0]) == 0.0

    def test_mixed(self):
        assert rmses([0.1, 0.2, 0.2, 0.5]) == pytest.approx(math.sqrt(0.085), rel=1e-14)

    def test_empty(self):
        with pytest.raises(ValueError):
            rmses([])

    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_extremes(self, vec):
        value = rmses(vec)
        lo = min(abs(v) for v in vec)
        hi = max(abs(v) for v in vec)
        assert lo - 1e-12 <= value <= hi + 1e-12


class TestEffectSize:
    def test_validation(self):
        # the effect size's one rule, applied by tau_sq_for
        for design, k in ((DesignKind(DesignTag.ONE_SAMPLE_Z, n=10), None),
                          (DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=10), 2.0)):
            for omega in (-0.1, math.inf, math.nan):
                with pytest.raises(ValueError, match="^omega must be finite and >= 0, got"):
                    tau_sq_for(design, omega, 1.0, k)
            assert tau_sq_for(design, 0.0, 1.0, k) == 0.0
