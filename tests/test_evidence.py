"""Tests for study-set combination, MMAP maximization, and BFF curves."""

import math
from pathlib import Path

import numpy as np
import pytest

import bffkit.bayes_factors as bf
import bffkit.specfun as sf
from bffkit.bayes_factors import Sidedness, StatFamily, TestStatistic, log_bf10
from bffkit.effect_map import DesignKind, DesignTag, fisher_z, tau_sq_for
from bffkit.evidence import (
    _SCAN_POINTS,
    EffectGrid,
    FixedR,
    MmapR,
    StudySet,
    bff_curve,
    combined_log_bf,
    evidence_thresholds,
    mmap_r,
    per_study_log_bf,
)
from bffkit.evidence import _objectives
from bffkit.specfun import NonConvergenceError


def z_study(z, n, sided=Sidedness.ONE_SIDED):
    return (
        TestStatistic(StatFamily.Z, z, sided),
        DesignKind(DesignTag.ONE_SAMPLE_Z, n=n),
    )


def t_study(t, nu, sided=Sidedness.ONE_SIDED):
    return (
        TestStatistic(StatFamily.T, t, sided, nu=float(nu)),
        DesignKind(DesignTag.ONE_SAMPLE_T, n=nu + 1),
    )


def chisq_study(h, k, n):
    return (
        TestStatistic(StatFamily.CHI_SQ, h, k=k),
        DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=n),
    )


class TestStudySet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StudySet.build([])

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            StudySet.build([z_study(1.0, 50), chisq_study(3.0, 2.0, 50)])

    def test_gamma_requires_common_k(self):
        with pytest.raises(ValueError):
            StudySet.build([chisq_study(3.0, 2.0, 50), chisq_study(4.0, 3.0, 50)])

    def test_flags(self):
        s = StudySet.build([z_study(1.0, 50), t_study(2.0, 30)])
        assert s.family_homogeneous
        assert not s.uses_gamma_prior
        g = StudySet.build([chisq_study(3.0, 2.0, 50), chisq_study(4.0, 2.0, 70)])
        assert g.uses_gamma_prior


class TestCombination:
    def test_single_study_equals_direct_value(self):
        stat, design = z_study(1.5, 100)
        s = StudySet.build([(stat, design)])
        omega, r = 0.11, 1.0
        tau_sq = tau_sq_for(design, omega, r)
        assert combined_log_bf(s, omega, r) == log_bf10(stat, tau_sq, r)

    def test_duplicated_study_doubles(self):
        pair = t_study(2.4, 40)
        single = combined_log_bf(StudySet.build([pair]), 0.2, 1.0)
        double = combined_log_bf(StudySet.build([pair, pair]), 0.2, 1.0)
        assert double == pytest.approx(2.0 * single, rel=1e-14)

    def test_product_law_concatenation(self):
        part_a = [z_study(1.0, 50), z_study(-0.4, 80)]
        part_b = [z_study(2.2, 120)]
        omega, r = 0.15, 1.5
        total = combined_log_bf(StudySet.build(part_a + part_b), omega, r)
        split = combined_log_bf(StudySet.build(part_a), omega, r) + combined_log_bf(
            StudySet.build(part_b), omega, r
        )
        assert total == pytest.approx(split, rel=1e-14)

    def test_per_study_errors_tagged(self):
        s = StudySet.build([z_study(1.0, 50), z_study(2.0, 60)])
        with pytest.raises(ValueError, match="omega must be > 0"):
            per_study_log_bf(s, 0.0, 1.0)

    def test_point_invariant(self):
        s = StudySet.build([z_study(1.0, 50), z_study(2.0, 60)])
        per = per_study_log_bf(s, 0.3, 1.0)
        assert combined_log_bf(s, 0.3, 1.0) == pytest.approx(sum(per), abs=1e-9)


class TestMmap:
    def test_single_statistic_returns_one(self):
        for pair in (z_study(2.5, 100), t_study(3.1, 25), chisq_study(9.0, 2.0, 60)):
            res = mmap_r(StudySet.build([pair]), 0.3)
            assert res.r_star == pytest.approx(1.0, abs=1e-3)

    def test_local_optimality_certificate(self):
        studies = StudySet.build(
            [t_study(4.0, 50), t_study(4.4, 80), t_study(3.8, 60)]
        )
        omega = 0.5
        res = mmap_r(studies, omega)

        def objective(r):
            return combined_log_bf(studies, omega, r) + studies.jeffreys_log_prior(r)

        for r_other in (1.0, res.r_star - 1e-3, res.r_star + 1e-3, 200.0):
            if r_other >= 1.0:
                assert res.objective >= objective(r_other) - 1e-9

    def test_boundary_flag(self):
        # strongly consistent effects push r* to the cap when r_max is small
        studies = StudySet.build(
            [t_study(4.0, 50), t_study(4.4, 80), t_study(3.8, 60)]
        )
        res_free = mmap_r(studies, 0.5, r_max=200.0)
        assert not res_free.at_boundary
        res_clipped = mmap_r(studies, 0.5, r_max=1.5)
        if res_clipped.r_star >= 1.5 - 2e-4:
            assert res_clipped.at_boundary

    def test_r_max_validation(self):
        with pytest.raises(ValueError):
            mmap_r(StudySet.build([z_study(1.0, 50)]), 0.3, r_max=0.5)

    def test_gamma_family_uses_gamma_jeffreys(self):
        studies = StudySet.build(
            [chisq_study(9.0, 2.0, 60), chisq_study(7.0, 2.0, 90)]
        )
        res = mmap_r(studies, 0.2)
        assert res.r_star >= 1.0
        assert math.isfinite(res.objective)


class TestEffectGrid:
    def test_from_range(self):
        grid = EffectGrid.from_range(0.1, 0.3, 0.1)
        assert grid.omegas == pytest.approx((0.1, 0.2, 0.3))

    def test_validation(self):
        with pytest.raises(ValueError):
            EffectGrid(())
        with pytest.raises(ValueError):
            EffectGrid((0.0, 0.1))
        with pytest.raises(ValueError):
            EffectGrid((0.2, 0.1))
        with pytest.raises(ValueError):
            EffectGrid.from_range(0.2, 0.1, 0.05)

    def test_default(self):
        grid = EffectGrid.default()
        assert grid.omegas[0] == pytest.approx(0.005)
        assert grid.omegas[-1] == pytest.approx(1.0)
        assert len(grid.omegas) == 200


class TestBffCurve:
    def setup_method(self):
        self.studies = StudySet.build(
            [z_study(2.0, 60), z_study(2.6, 90), z_study(1.4, 40)]
        )
        self.grid = EffectGrid.from_range(0.02, 0.8, 0.02)

    def test_fixed_r_objective_equals_log_bf(self):
        curve = bff_curve(self.studies, self.grid, FixedR(1.0))
        for p in curve.points:
            assert p.objective == p.log_bf10
            assert p.r_star == 1.0
            assert p.log_bf10 == pytest.approx(sum(p.per_study_log_bf), abs=1e-9)

    def test_mmap_dominance(self):
        mmap = bff_curve(self.studies, self.grid, MmapR())
        jeffreys = self.studies.jeffreys_log_prior
        for p in mmap.points:
            fixed_obj = combined_log_bf(self.studies, p.omega, 1.0) + jeffreys(1.0)
            assert p.objective >= fixed_obj - 1e-9

    def test_points_sorted_and_maximizer(self):
        curve = bff_curve(self.studies, self.grid, FixedR(1.0))
        omegas = curve.omega_array()
        assert np.all(np.diff(omegas) > 0)
        mx = curve.maximizer
        assert mx.log_bf10 == max(p.log_bf10 for p in curve.points)

    def test_grid_refinement_stability(self):
        coarse = bff_curve(self.studies, EffectGrid.from_range(0.05, 0.8, 0.01), FixedR(1.0))
        fine = bff_curve(self.studies, EffectGrid.from_range(0.05, 0.8, 0.005), FixedR(1.0))
        assert abs(coarse.maximizer.omega - fine.maximizer.omega) <= 0.01 + 1e-12
        assert abs(coarse.maximizer.log_bf10 - fine.maximizer.log_bf10) < 0.05


class TestThresholds:
    def _curve_from_values(self, omegas, values):
        from bffkit.evidence import BffCurve, BffPoint

        points = tuple(
            BffPoint(w, 1.0, v, (v,), v) for w, v in zip(omegas, values)
        )
        return BffCurve(points, EffectGrid(tuple(omegas)))

    def test_constant_curve_above(self):
        curve = self._curve_from_values([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
        out = evidence_thresholds(curve, [-1.0, 0.0])
        assert out[-1.0] is None
        assert out[0.0] is None

    def test_two_point_straddle(self):
        curve = self._curve_from_values([0.1, 0.2], [1.0, -1.0])
        out = evidence_thresholds(curve, [0.0])
        assert out[0.0] == pytest.approx(0.15, rel=1e-12)

    def test_last_downward_crossing_wins(self):
        # dips below, comes back, then settles below: report the last crossing
        curve = self._curve_from_values(
            [0.1, 0.2, 0.3, 0.4, 0.5], [1.0, -2.0, 1.0, -2.0, -3.0]
        )
        out = evidence_thresholds(curve, [0.0])
        assert 0.3 < out[0.0] < 0.4

    def test_never_settling_is_absent(self):
        curve = self._curve_from_values([0.1, 0.2, 0.3], [1.0, -2.0, 1.0])
        assert evidence_thresholds(curve, [0.0])[0.0] is None

    def test_on_objective_flag(self):
        from bffkit.evidence import BffCurve, BffPoint

        points = (
            BffPoint(0.1, 2.0, 1.0, (1.0,), 0.5),
            BffPoint(0.2, 2.0, 0.5, (0.5,), -0.5),
        )
        curve = BffCurve(points, EffectGrid((0.1, 0.2)))
        crossing_obj = evidence_thresholds(curve, [0.0])[0.0]
        crossing_raw = evidence_thresholds(curve, [0.0], on_objective=False)[0.0]
        assert crossing_obj == pytest.approx(0.15)
        assert crossing_raw is None  # raw curve never drops below 0


class TestCorrelationIngestion:
    def test_correlation_set_builds(self):
        pairs = [
            (fisher_z(rho, n), DesignKind(DesignTag.CORRELATION_Z, n=n))
            for rho, n in [(-0.2, 50), (0.1, 80), (0.0, 60)]
        ]
        s = StudySet.build(pairs, "corr")
        val = combined_log_bf(s, 0.1, 1.0)
        assert math.isfinite(val)


class TestStroopRefinement:
    def test_grid_refinement_stability_around_peak(self):
        # halving the grid step moves the reported maximizer by less than one
        # coarse step and the maximum by < 0.05 in log BF
        from pathlib import Path

        from bffkit.cli import load_studies

        studies = load_studies(str(Path(__file__).parent / "data" / "stroop.csv"))
        window_coarse = bff_curve(
            studies, EffectGrid.from_range(0.82, 0.96, 0.005), MmapR()
        )
        window_fine = bff_curve(
            studies, EffectGrid.from_range(0.82, 0.96, 0.0025), MmapR()
        )
        assert abs(window_coarse.maximizer.omega - window_fine.maximizer.omega) <= 0.005 + 1e-12
        assert abs(window_coarse.maximizer.log_bf10 - window_fine.maximizer.log_bf10) < 0.05


class TestBatchedObjective:
    """mmap_r evaluates its objective through one batched kernel pass per
    batch of r values; these pin the behaviours of the one-at-a-time path."""

    def test_arithmetic_error_only_drops_that_r(self):
        # z = -8 one-sided opposes the prior: its bracket cancels below double
        # precision at some r of the scan and not at others
        studies = StudySet.build([z_study(2.5, 80), z_study(-8.0, 100)])
        omega = 0.3
        rs = np.exp(np.linspace(0.0, math.log(200.0), _SCAN_POINTS)).tolist()
        expected = []
        for r in rs:
            try:
                per_study = [
                    log_bf10(s.stat, tau_sq_for(s.design, omega, r), r) for s in studies.studies
                ]
                expected.append(sum(per_study) + studies.jeffreys_log_prior(r))
            except ArithmeticError:
                expected.append(float("-inf"))
        got = _objectives(studies, omega, rs)
        assert got == expected
        assert any(v == float("-inf") for v in got)
        assert any(math.isfinite(v) for v in got)
        mmap_r(studies, omega)  # the -inf points do not abort the search

    def test_errors_tagged_with_study(self, monkeypatch):
        # study 1's series needs more than one block; study 0's never does
        two = Sidedness.TWO_SIDED
        studies = StudySet.build([z_study(0.5, 50, two), z_study(12.0, 50, two)])
        monkeypatch.setattr(sf, "TERM_CAP", sf._BLOCK)
        with pytest.raises(NonConvergenceError, match="^study 1: series did not converge"):
            mmap_r(studies, 0.5)
        with pytest.raises(NonConvergenceError, match="^study 1: series did not converge"):
            per_study_log_bf(studies, 0.5, 1.0)

    def test_value_error_tagged_with_study(self):
        # F = 1e16 with tau^2 >= 1e18 rounds the 2F1 argument to exactly 1
        design = DesignKind(DesignTag.LINEAR_MODEL_F, n=10**22)
        studies = StudySet.build(
            [
                (TestStatistic(StatFamily.F, 2.0, k=1.0, m=30.0), design),
                (TestStatistic(StatFamily.F, 1e16, k=1.0, m=1.0), design),
            ]
        )
        with pytest.raises(ValueError, match="^study 1: 2F1 argument"):
            mmap_r(studies, 0.5)
        with pytest.raises(ValueError, match="^study 0: r must be"):
            per_study_log_bf(studies, 0.5, 0.5)


class TestKernelPasses:
    def test_mmap_point_is_one_pass_per_batch(self, monkeypatch):
        """One Stroop MMAP point: one scan pass, at most 30 golden-section
        passes and one final pass, and no one-value kernel call at all (a
        silent fallback to per-study evaluation fails here, not in a timing)."""
        from bffkit.cli import load_studies

        studies = load_studies(str(Path(__file__).parent / "data" / "stroop.csv"))
        n = len(studies.studies)

        def fail(*args):
            raise AssertionError("one-value or 1F1 kernel called")

        passes = []
        real = bf.log_2f1_batch
        monkeypatch.setattr(bf, "log_2f1_batch", lambda *a: (passes.append(len(a[0])), real(*a))[1])
        for name in ("log_1f1", "log_2f1", "log_1f1_batch"):
            monkeypatch.setattr(bf, name, fail)
        mmap_r(studies, 0.5)
        # one-sided t rows with t != 0 carry two series each
        assert passes[0] == _SCAN_POINTS * n * 2
        assert passes[1] == 2 * n * 2  # the two initial golden-section points
        assert all(p == n * 2 for p in passes[2:])
        assert len(passes) - 2 <= 30
