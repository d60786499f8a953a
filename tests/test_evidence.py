"""Tests for study-set combination, MMAP maximization, and BFF curves."""

import math
from pathlib import Path

import numpy as np
import pytest

import bffkit.bayes_factors as bf
import bffkit.evidence as ev
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
from bffkit.evidence import _at_omega, _objectives
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
        # a z/t set, and a chi-square/F set with one k, build
        StudySet.build([z_study(1.0, 50), t_study(2.0, 30)])
        StudySet.build([chisq_study(3.0, 2.0, 50), chisq_study(4.0, 2.0, 70)])

    @pytest.mark.parametrize(
        "stat, design, message",
        [
            (
                TestStatistic(StatFamily.Z, 1.5, Sidedness.ONE_SIDED),
                DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=50),
                "multinomial_chisq requires numerator df k > 0",
            ),
            (
                TestStatistic(StatFamily.CHI_SQ, 3.0, k=2.0),
                DesignKind(DesignTag.ONE_SAMPLE_Z, n=50),
                "k is not meaningful for one_sample_z",
            ),
        ],
        ids=["z_on_chisq_design", "chisq_on_z_design"],
    )
    def test_design_must_fit_the_statistic(self, stat, design, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StudySet.build([(stat, design)])


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

    def test_neg_inf_search_point_loses_to_the_scan(self):
        # z = -8 one-sided opposes the prior: its bracket cancels below double
        # precision at some r, among them the golden-section search's last point
        studies = StudySet.build([z_study(2.5, 80), z_study(-8.0, 100)])
        res = mmap_r(studies, 0.3)
        scan = np.exp(np.linspace(0.0, math.log(200.0), _SCAN_POINTS))
        evaluated = _objectives(studies, _at_omega(studies, 0.3), scan.tolist())
        finite = [v for v, _ in evaluated if math.isfinite(v)]
        assert math.isfinite(res.objective)
        assert finite and res.objective >= max(finite)

    def test_scan_ends_are_exact(self, monkeypatch):
        # exp(log(200)) is 199.99999999999991; the scan must evaluate r_max itself
        import bffkit.evidence as ev

        scans = []
        real = ev._objectives
        monkeypatch.setattr(ev, "_objectives", lambda *a: (scans.append(list(a[2])), real(*a))[1])
        mmap_r(StudySet.build([z_study(2.5, 100)]), 0.3, r_max=200.0)
        assert scans[0][0] == 1.0 and scans[0][-1] == 200.0


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
        return BffCurve(points)

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
        curve = BffCurve(points)
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
        got = [objective for objective, _ in _objectives(studies, _at_omega(studies, omega), rs)]
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
        # r < 1 concerns no study, so its error carries no study tag
        with pytest.raises(ValueError, match="^r must be"):
            per_study_log_bf(studies, 0.5, 0.5)


def _stroop():
    from bffkit.cli import load_studies

    return load_studies(str(Path(__file__).parent / "data" / "stroop.csv"))


def _count_passes(monkeypatch) -> list:
    """Record the row count of every batched kernel pass, which must be all
    2F1 rows, and fail on any one-value kernel call."""

    def fail(*args):
        raise AssertionError("one-value kernel called")

    passes = []

    def count(plans):
        assert all(len(plan[2]) == 2 for plan in plans), "1F1 rows in a pass"
        passes.append(len(plans))
        return real(plans)

    real = bf._log_series_sums
    monkeypatch.setattr(bf, "_log_series_sums", count)
    for name in ("log_1f1", "log_2f1"):
        monkeypatch.setattr(bf, name, fail)
    return passes


class TestKernelPasses:
    def test_mmap_point_is_one_pass_per_batch(self, monkeypatch):
        """One Stroop MMAP point: one scan pass, at most 30 golden-section
        passes and one final pass, all of 2F1 series, and no one-value kernel
        call at all (a silent fallback to per-study evaluation fails here,
        not in a timing)."""
        studies = _stroop()
        n = len(studies.studies)
        passes = _count_passes(monkeypatch)
        mmap_r(studies, 0.5)
        # one-sided t rows with t != 0 carry two series each
        assert passes[0] == _SCAN_POINTS * n * 2
        assert passes[1] == 2 * n * 2  # the two initial golden-section points
        assert all(p == n * 2 for p in passes[2:])
        assert len(passes) - 2 <= 30

    def test_bff_curve_point_adds_no_pass(self, monkeypatch):
        """bff_curve builds an MMAP point from mmap_r's winning evaluation:
        the point costs exactly mmap_r's passes, and carries its values."""
        studies = _stroop()
        passes = _count_passes(monkeypatch)
        res = mmap_r(studies, 0.5)
        mmap_passes = list(passes)
        passes.clear()
        (point,) = bff_curve(studies, EffectGrid((0.5,)), MmapR()).points
        assert passes == mmap_passes
        assert point.r_star == res.r_star and point.objective == res.objective
        assert point.per_study_log_bf == res.per_study_log_bf
        assert point.log_bf10 == sum(res.per_study_log_bf)


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _same(got, expected) -> bool:
    """Bit for bit equal floats, or errors of one type and message."""
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return not isinstance(got, Exception) and repr(got) == repr(expected)


def _guard_sets():
    """Study sets over all six closed forms, seeded: random z and t studies of
    both sides and signs, random chi-square and F studies, and studies made to
    fail: a one-sided bracket that cancels (ArithmeticError), a t statistic
    whose y^2 rounds to 1 (ValueError) or to just below it
    (NonConvergenceError), and a chi-square series too long to sum."""
    rng = np.random.default_rng(6)
    one, two = Sidedness.ONE_SIDED, Sidedness.TWO_SIDED
    nm_designs = [
        lambda: DesignKind(DesignTag.ONE_SAMPLE_Z, n=int(rng.integers(5, 400))),
        lambda: DesignKind(DesignTag.ONE_SAMPLE_T, n=int(rng.integers(5, 400))),
        lambda: DesignKind(
            DesignTag.TWO_SAMPLE_T, n1=int(rng.integers(3, 200)), n2=int(rng.integers(3, 200))
        ),
        lambda: DesignKind(DesignTag.CORRELATION_Z, n=int(rng.integers(5, 400))),
    ]
    nm = []
    for j in range(16):
        value = float(rng.uniform(-6.0, 6.0))
        sided = (one, two)[j % 2]
        if j % 4 < 2:
            stat = TestStatistic(StatFamily.Z, value, sided)
        else:
            stat = TestStatistic(StatFamily.T, value, sided, nu=float(rng.uniform(2.0, 300.0)))
        nm.append((stat, nm_designs[j % 4]()))
    one_sample_t = DesignTag.ONE_SAMPLE_T
    nm += [
        (TestStatistic(StatFamily.Z, -8.0, one), DesignKind(DesignTag.ONE_SAMPLE_Z, n=100)),
        (TestStatistic(StatFamily.T, 1e12, two, nu=10.0), DesignKind(one_sample_t, n=10**30)),
        (TestStatistic(StatFamily.T, 1e9, one, nu=10.0), DesignKind(one_sample_t, n=10**18)),
    ]
    gamma = []
    k = 3.0
    for j in range(8):
        n = int(rng.integers(10, 500))
        h = float(rng.uniform(0.0, 40.0))
        if j % 2:
            stat = TestStatistic(StatFamily.F, h / k, k=k, m=float(rng.uniform(2.0, 200.0)))
            gamma.append((stat, DesignKind(DesignTag.LINEAR_MODEL_F, n=n)))
        else:
            tag = (DesignTag.MULTINOMIAL_CHISQ, DesignTag.LIKELIHOOD_RATIO_CHISQ)[j % 4 // 2]
            gamma.append((TestStatistic(StatFamily.CHI_SQ, h, k=k), DesignKind(tag, n=n)))
    huge = TestStatistic(StatFamily.CHI_SQ, 1e308, k=k)
    gamma.append((huge, DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=50)))
    return StudySet.build(nm), StudySet.build(gamma)


class TestCompiledStudies:
    """A built Study holds its closed form's study part and its prior-scale
    constants, and an evaluation at (omega, r) computes only the item part."""

    def test_bit_for_bit_with_log_bf10(self):
        # the scan's r values and off-scan ones, omega over [1e-3, 1]
        scan = np.exp(np.linspace(0.0, math.log(200.0), _SCAN_POINTS))
        scan[0], scan[-1] = 1.0, 200.0
        rs = scan.tolist() + [1.0001, 1.37, 2.5, 7.77, 63.2, 199.9]
        omegas = [1e-3, 0.013, 0.11, 0.5, 0.87, 1.0]
        seen = set()
        for studies in _guard_sets():
            for omega in omegas:
                rows = ev._log_bf_rows(_at_omega(studies, omega), rs)
                for r, row in zip(rs, rows):
                    expected = [
                        _value_or_error(
                            log_bf10, s.stat, tau_sq_for(s.design, omega, r, s.stat.k), r
                        )
                        for s in studies.studies
                    ]
                    assert all(_same(g, e) for g, e in zip(row, expected)), (omega, r)
                    seen.update((type(e).__name__, str(e)[:12]) for e in expected)
                    errors = [(i, e) for i, e in enumerate(expected) if isinstance(e, Exception)]
                    if errors:
                        i, first = errors[0]
                        with pytest.raises(type(first)) as info:
                            per_study_log_bf(studies, omega, r)
                        assert str(info.value) == f"study {i}: {first}"
                    else:
                        assert per_study_log_bf(studies, omega, r) == expected
        kinds = {kind for kind, _ in seen}
        assert kinds == {"float", "ArithmeticError", "ValueError", "NonConvergenceError"}
        # y^2 at 1, a series too long to sum, a one-sided bracket that cancels
        assert {
            ("ValueError", "2F1 argument"),
            ("NonConvergenceError", "series did n"),
            ("ArithmeticError", "hypergeometr"),
        } <= seen

    def test_per_study_work_is_done_once(self, monkeypatch):
        # the log-Gamma ratios and tau_sq_for run once per study and once per
        # r of each pass, never once per (study, r) item
        calls = {"ratio": 0, "tau_sq": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(bf, "log_gamma_half_ratio", counted("ratio", bf.log_gamma_half_ratio))
        monkeypatch.setattr(ev, "tau_sq_for", counted("tau_sq", ev.tau_sq_for))
        rs_per_pass = []
        real = ev._objectives
        monkeypatch.setattr(
            ev, "_objectives", lambda *a: (rs_per_pass.append(len(a[2])), real(*a))[1]
        )
        studies = _stroop()  # built here, so each study's one-time work is counted
        n = len(studies.studies)
        assert all(s.stat.sided is Sidedness.ONE_SIDED for s in studies.studies)
        mmap_r(studies, 0.5)
        items = n * sum(rs_per_pass)
        assert calls["tau_sq"] == n
        assert calls["ratio"] == n + sum(rs_per_pass)
        assert calls["ratio"] < items / 10
