"""Tests for study-set combination, MMAP maximization, and BFF curves."""

import copy
import math
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bffkit.bayes_factors as bf
import bffkit.evidence as ev
import bffkit.specfun as sf
from bffkit.bayes_factors import Sidedness, StatFamily, TestStatistic, log_bf10
from bffkit.effect_map import DesignKind, DesignTag, fisher_z, tau_sq_for
from bffkit.evidence import (
    _NODES,
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
from oracle import reference_mmap_r, single_statistic_sets


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

    def test_k_below_double_precision(self):
        # below k = 2.2e-16, s + r - u = (k/2 + 1) - 1 rounds to 0 at r = 1:
        # a typed error at build, not a ZeroDivisionError of tau_sq
        design = DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=50)
        for k in (1e-300, 2e-16):
            with pytest.raises(ValueError, match=r"^multinomial_chisq requires k/2 \+ 1 > 1 in double"):
                StudySet.build([(TestStatistic(StatFamily.CHI_SQ, 3.0, k=k), design)])
        StudySet.build([(TestStatistic(StatFamily.CHI_SQ, 3.0, k=3e-16), design)])


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
        with pytest.raises(ValueError, match="omega must be finite and > 0"):
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
            return combined_log_bf(studies, omega, r) + ev.jeffreys_log_prior(r)

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
        res_clipped = mmap_r(studies, 0.5, r_max=1.2)
        assert res_clipped.at_boundary and res_clipped.r_star == 1.2

    def test_interior_r_star_does_not_depend_on_the_bracket(self):
        # r* = 1.4396 lies inside every bracket; the nodes differ with r_max
        studies = StudySet.build(
            [t_study(4.0, 50), t_study(4.4, 80), t_study(3.8, 60)]
        )
        results = [mmap_r(studies, 0.5, r_max) for r_max in (1.5, 3.0, 37.5, 200.0)]
        assert all(1.0 < res.r_star < 1.5 and not res.at_boundary for res in results)
        ref = results[-1]
        for res in results:
            assert res.objective == pytest.approx(ref.objective, rel=1e-10, abs=0.0)
            assert res.r_star == pytest.approx(ref.r_star, rel=1e-4, abs=0.0)

    def test_r_max_validation(self):
        studies = StudySet.build([z_study(1.0, 50)])
        for r_max in (0.5, math.inf, math.nan):
            # the bound is at fault, not a study (no "study 0: " prefix), and
            # no scan starts (a numpy warning from one fails under -W error)
            with pytest.raises(ValueError, match="^r_max must be finite and >= 1"):
                mmap_r(studies, 0.3, r_max=r_max)
            with pytest.raises(ValueError, match="^r_max must be finite and >= 1"):
                MmapR(r_max)
        for r in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="^r must be finite and >= 1"):
                FixedR(r)

    def test_r_max_one_is_the_single_point(self):
        studies = StudySet.build([t_study(3.0, 50), t_study(2.0, 50)])
        res = mmap_r(studies, 0.5, r_max=1.0)
        assert res.r_star == 1.0 and res.at_boundary
        per_study = per_study_log_bf(studies, 0.5, 1.0)
        assert res.per_study_log_bf == tuple(per_study)
        assert res.objective == sum(per_study) + ev.jeffreys_log_prior(1.0)
        # no other r to fall back on: a bracket that cancels at r = 1 raises,
        # tagged with its study
        opposed = StudySet.build([t_study(3.0, 50), t_study(-12.0, 50)])
        with pytest.raises(ArithmeticError, match="^study 1: hypergeometric bracket not positive"):
            mmap_r(opposed, 0.5, r_max=1.0)

    def test_huge_r_max(self):
        # the nodes of [1, 1e20] include r = 4.79e15, where the normal-moment
        # Jeffreys prior's direct radicand came out not positive
        studies = StudySet.build([t_study(3.0, 50)])
        assert any(4e15 < r < 5e15 for r in _node_rs(studies, 0.5, 1e20))
        res = mmap_r(studies, 0.5, r_max=1e20)
        assert res.r_star == 1.0 and not res.at_boundary

    def test_gamma_family_uses_gamma_jeffreys(self):
        studies = StudySet.build(
            [chisq_study(9.0, 2.0, 60), chisq_study(7.0, 2.0, 90)]
        )
        res = mmap_r(studies, 0.2)
        assert res.r_star >= 1.0
        assert math.isfinite(res.objective)

    def test_neg_inf_search_point_loses_to_the_scan(self):
        # z = -8 one-sided opposes the prior: its bracket cancels below double
        # precision at some r, so some nodes are -inf and the fit does not run
        studies = StudySet.build([z_study(2.5, 80), z_study(-8.0, 100)])
        res = mmap_r(studies, 0.3)
        evaluated = _objectives(studies, 0.3, _node_rs(studies, 0.3))
        finite = [v for v, _ in evaluated if math.isfinite(v)]
        assert math.isfinite(res.objective)
        assert finite and res.objective >= max(finite)

    def test_scan_ends_are_exact(self):
        # exp(log(200)) is 199.99999999999991; the nodes must hold r_max itself
        studies = StudySet.build([z_study(2.5, 100)])
        for r_max in (200.0, 37.5, 1.2):
            rs = _node_rs(studies, 0.3, r_max)
            assert len(rs) == _NODES and rs[0] == 1.0 and rs[-1] == r_max
            assert rs == sorted(rs)

    def test_unresolvable_objective(self, monkeypatch):
        studies = StudySet.build([z_study(2.5, 80), z_study(1.0, 100)])
        _drop(monkeypatch, set(_node_rs(studies, 0.3)))
        with pytest.raises(
            ArithmeticError,
            match=r"^MMAP objective unresolvable over r in \[1, 200.0\] at omega=0.3$",
        ):
            mmap_r(studies, 0.3)

    def test_one_dropped_node_gives_the_best_finite_node(self, monkeypatch):
        # r* is interior at omega 0.885; a -inf node leaves the fit out
        studies = _stroop()
        rs = _node_rs(studies, 0.885)
        values = [v for v, _ in _objectives(studies, 0.885, rs)]
        best = int(np.argmax(values))
        _drop(monkeypatch, {rs[best]})
        passes = _record_passes(monkeypatch)
        res = mmap_r(studies, 0.885)
        assert passes == [rs]
        values[best] = -math.inf
        assert res.objective == max(values) and res.r_star == rs[int(np.argmax(values))]


    def test_interpolant_is_numpy_polynomial_bit_for_bit(self):
        # mmap_r's plain-float chebder, chebroots and chebval against
        # numpy.polynomial.chebyshev as the oracle: on node vectors through
        # _FIT, random and smooth, and on coefficient vectors with trailing
        # exact zeros down to a constant, whose derivatives are trimmed to
        # degree 1 (one root), 0 and all zeros (none)
        from numpy.polynomial import chebyshev as C

        rng = np.random.default_rng(11)
        vectors = [ev._FIT @ (rng.normal(size=_NODES) * 10.0 ** rng.uniform(-3, 3)) for _ in range(1000)]
        vectors += [ev._FIT @ rng.normal(size=_NODES).cumsum() for _ in range(200)]
        for nonzero in range(1, _NODES):
            coef = np.zeros(_NODES)
            coef[:nonzero] = rng.normal(size=nonzero)
            vectors.append(coef)
        vectors.append(np.full(_NODES, 2.5))
        degrees = set()
        for coef in vectors:
            der = C.chebder(coef)
            assert ev._chebder(coef.tolist()) == der.tolist()
            roots = C.chebroots(der)
            got = ev._chebroots(der.tolist())
            assert got.dtype == roots.dtype and got.tolist() == roots.tolist()
            degrees.add(len(roots))
            x = roots[np.isreal(roots) & (abs(roots) < 1.0)].real
            assert [ev._chebval(v, coef.tolist()) for v in x.tolist()] == C.chebval(x, coef).tolist()
        assert {0, 1, 2, _NODES - 2} <= degrees

    def test_worse_fitted_point_loses_to_the_best_node(self, monkeypatch):
        # the fitted point's exact objective can come back lower than the
        # best node's, or -inf from a cancelling bracket: the node wins
        studies = _stroop()
        rs = _node_rs(studies, 0.885)
        nodes = _objectives(studies, 0.885, rs)
        real = ev._objectives
        monkeypatch.setattr(
            ev,
            "_objectives",
            lambda s, omega, r: real(s, omega, r) if r == rs else [(-math.inf, [])] * len(r),
        )
        res = mmap_r(studies, 0.885)
        best = int(np.argmax([value for value, _ in nodes]))
        assert res.r_star == rs[best] and res.objective == nodes[best][0]
        assert res.per_study_log_bf == tuple(nodes[best][1])


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
        for omegas in ((math.nan,), (0.1, math.inf), (0.1, math.nan)):
            with pytest.raises(ValueError, match="omega must be finite and > 0"):
                EffectGrid(omegas)
        for args in ((0.1, 1.0, math.inf), (0.1, math.nan, 0.1), (math.nan, 1.0, 0.1),
                     (0.1, math.inf, 0.1), (0.1, 1.0, math.nan)):
            with pytest.raises(ValueError, match="^invalid grid"):
                EffectGrid.from_range(*args)

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
            # the curve's passes over many omegas give each omega's own pass
            assert p.per_study_log_bf == tuple(per_study_log_bf(self.studies, p.omega, 1.0))

    @pytest.mark.parametrize("policy", [2.0, None, "mmap"])
    def test_unknown_policy_is_type_error(self, policy):
        with pytest.raises(TypeError, match="FixedR or an MmapR"):
            bff_curve(self.studies, self.grid, policy)

    def test_mmap_dominance(self):
        mmap = bff_curve(self.studies, self.grid, MmapR())
        jeffreys = ev.jeffreys_log_prior  # a z/t set's, with k None
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
        # the objective (0.5 -> -0.5) crosses 0; log BF10 (1.0 -> 0.5) does not
        crossing_obj = evidence_thresholds(curve, [0.0])[0.0]
        assert crossing_obj == pytest.approx(0.15)


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
        rs = [1.0, *np.geomspace(1.0, 200.0, 32)[1:-1].tolist(), 200.0]
        expected = []
        for r in rs:
            try:
                per_study = [
                    log_bf10(s.stat, tau_sq_for(s.design, omega, r), r) for s in studies.studies
                ]
                expected.append(sum(per_study) + ev.jeffreys_log_prior(r))
            except ArithmeticError:
                expected.append(float("-inf"))
        got = [objective for objective, _ in _objectives(studies, omega, rs)]
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
        with pytest.raises(NonConvergenceError, match="^study 1: series did not converge") as info:
            per_study_log_bf(studies, 0.5, 1.0)
        cause = info.value.__cause__
        assert info.value.study == 1
        assert type(cause) is NonConvergenceError and str(info.value) == f"study 1: {cause}"

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_arithmetic_error_hides_no_other_error(self, monkeypatch, order):
        # at omega 0.5 and r = 1 the z = -8 bracket cancels, and the z = 6000
        # series needs more than one block: the non-convergence is raised,
        # whichever study comes first
        monkeypatch.setattr(sf, "TERM_CAP", sf._BLOCK)
        pairs = [z_study(-8.0, 100), z_study(6000.0, 2000, Sidedness.TWO_SIDED)]
        alone = StudySet.build(pairs[:1])
        assert _objectives(alone, 0.5, (1.0,))[0][0] == float("-inf")
        studies = StudySet.build([pairs[i] for i in order])
        with pytest.raises(NonConvergenceError, match=f"^study {order.index(1)}: series"):
            _objectives(studies, 0.5, (1.0,))

    def test_error_of_any_signature_tagged(self):
        # the tagged error is a copy of the original, not a rebuild from its
        # message, so an error whose constructor takes other arguments keeps
        # its type and attributes
        class Rejected(ArithmeticError):
            def __init__(self, value, reason):
                super().__init__(value, reason)
                self.value = value

        original = Rejected(3.5, "too large")
        with pytest.raises(Rejected) as info:
            ev._raise_first_error([0.25, original, ValueError("later")])
        assert info.value.study == 1 and info.value.value == 3.5
        assert info.value.__cause__ is original
        assert str(info.value) == f"study 1: {original}"

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
        with pytest.raises(ValueError, match="^study 1: 2F1 argument"):
            bff_curve(studies, EffectGrid((0.1, 0.5)), FixedR(1.0))
        # r < 1 concerns no study, so its error carries no study tag
        with pytest.raises(ValueError, match="^r must be"):
            per_study_log_bf(studies, 0.5, 0.5)


def _table(name):
    from bffkit.cli import load_studies

    return load_studies(str(Path(__file__).parent / "data" / f"{name}.csv"))


def _stroop():
    return _table("stroop")


def _count_passes(monkeypatch) -> list:
    """Record the row count of every batched kernel pass, which must be all
    2F1 rows, and fail on any one-value kernel call."""

    def fail(*args):
        raise AssertionError("one-value kernel called")

    passes = []

    def count(x, blocks, rows):
        assert len(blocks.num) == 2, "1F1 rows in a pass"
        passes.append(len(x))
        return real(x, blocks, rows)

    real = bf._log_series_sums
    monkeypatch.setattr(bf, "_log_series_sums", count)
    for name in ("log_1f1", "log_2f1"):
        monkeypatch.setattr(bf, name, fail)
    return passes


def _record_passes(monkeypatch) -> list:
    """Record the r values of every _objectives pass."""
    passes = []
    real = ev._objectives

    def record(study_set, omega, rs):
        passes.append(list(rs))
        return real(study_set, omega, rs)

    monkeypatch.setattr(ev, "_objectives", record)
    return passes


def _node_rs(study_set, omega, r_max=200.0) -> list:
    """The r values of mmap_r's node pass, its first."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        passes = _record_passes(monkeypatch)
        mmap_r(study_set, omega, r_max)
    return passes[0]


def _drop(monkeypatch, dropped):
    """Make the objective -inf at every r in dropped."""
    real = ev._objectives

    def objectives(study_set, omega, rs):
        values = real(study_set, omega, rs)
        return [(-math.inf, v[1]) if r in dropped else v for r, v in zip(rs, values)]

    monkeypatch.setattr(ev, "_objectives", objectives)


class TestKernelPasses:
    def test_mmap_point_is_one_pass_per_batch(self, monkeypatch):
        """Stroop MMAP points: the node pass, then one pass at the fitted
        point where r* is interior, all of 2F1 series, and no one-value
        kernel call at all (a silent fallback to per-study evaluation fails
        here, not in a timing)."""
        studies = _stroop()
        rows = len(studies.studies) * 2  # one-sided t rows with t != 0 carry two series each
        passes = _count_passes(monkeypatch)
        assert mmap_r(studies, 0.5).r_star == 1.0
        assert passes == [_NODES * rows]
        passes.clear()
        res = mmap_r(studies, 0.885)
        assert 1.0 < res.r_star < 200.0 and not res.at_boundary
        assert passes == [_NODES * rows, rows]

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


def _replicated_sets():
    """30 seeded (study set, omega, r_max) of replicated z, t and chi-square
    studies sharing an effect, from noisy to very consistent, so that r*
    falls at 1, inside (1, r_max) and at r_max."""
    rng = np.random.default_rng(2024)
    out = []
    for j in range(30):
        effect = float(rng.uniform(0.05, 0.8))
        noise = float(rng.choice([0.05, 0.3, 1.0]))
        sided = (Sidedness.ONE_SIDED, Sidedness.TWO_SIDED)[j // 3 % 2]
        k = float(rng.integers(1, 5))
        pairs = []
        for _ in range(int(rng.integers(2, 13))):
            n = int(rng.integers(20, 300))
            if j % 3 == 0:
                pairs.append(z_study(effect * n**0.5 + noise * rng.normal(), n, sided))
            elif j % 3 == 1:
                pairs.append(t_study(effect * n**0.5 + noise * rng.normal(), n - 1, sided))
            else:
                mean = k + n * effect**2
                pairs.append(chisq_study(max(0.05, mean + noise * rng.normal() * mean**0.5), k, n))
        r_max = (200.0, 200.0, 3.0)[j % 3]
        out.append((StudySet.build(pairs), effect * float(rng.uniform(0.5, 1.5)), r_max))
    return out


class TestAgainstReferenceMaximizer:
    """mmap_r against oracle.reference_mmap_r, a plain precise search: its
    objective is never lower than the reference's by more than 1e-10
    relative, and an interior r* is the reference's within 1e-4 relative."""

    @staticmethod
    def _cases(name):
        """(study set, omega, r_max) of each checked point."""
        if name in ("stroop", "correlation"):
            studies = _stroop() if name == "stroop" else _table("correlation")
            return [(studies, omega, 200.0) for omega in EffectGrid.default().omegas]
        if name == "replicated":
            return _replicated_sets()
        sets = single_statistic_sets(np.random.default_rng(20240801))
        return [(studies, omega, 200.0) for studies, omega in sets]

    @pytest.mark.parametrize("name", ["stroop", "correlation", "replicated", "single_statistic"])
    def test_objective_and_r_star(self, name):
        kinds = set()
        for studies, omega, r_max in self._cases(name):
            res = mmap_r(studies, omega, r_max)
            r_ref, objective_ref = reference_mmap_r(studies, omega, r_max)
            assert res.objective >= objective_ref - 1e-10 * abs(objective_ref), omega
            if 1.0 < res.r_star < r_max:
                assert res.r_star == pytest.approx(r_ref, rel=1e-4, abs=0.0), omega
            kinds.add("r_max" if res.at_boundary else "one" if res.r_star == 1.0 else "inside")
        # the replicated sets put r* at 1, inside (1, r_max) and at r_max
        assert name != "replicated" or kinds == {"one", "inside", "r_max"}


class TestCoarseToFineScan:
    """The Stroop points that probe the edges of an r search, once checked
    against a coarse-to-fine scan and now against the reference full scan,
    oracle.reference_mmap_r; and -inf objectives at half the nodes."""

    @pytest.mark.parametrize(
        "omega, r_max",
        [
            (0.5, 200.0),  # r* = 1
            (0.6259975, 200.0),  # r* = 1.00003: beats r = 1 by 1e-12 relative
            (0.6263, 200.0),  # r* = 1.003
            (0.805, 200.0),
            (0.885, 200.0),
            (0.885, 3.0),  # r* = r_max
            (0.885, 1.5),
        ],
    )
    def test_stroop_as_full_scan(self, omega, r_max):
        studies = _stroop()
        res = mmap_r(studies, omega, r_max)
        r_ref, objective_ref = reference_mmap_r(studies, omega, r_max)
        assert res.objective >= objective_ref - 1e-10 * abs(objective_ref)
        assert res.at_boundary == (r_ref == r_max)
        if r_ref == 1.0 or r_ref == r_max:
            assert res.r_star == r_ref
        else:
            assert res.r_star == pytest.approx(r_ref, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("omega", [0.5, 0.885])
    def test_neg_inf_coarse_points_scan_everything(self, monkeypatch, omega):
        # every other node, r = 1 among them, is -inf: the best
        # of the finite nodes wins, from the one node pass
        studies = _stroop()
        rs = _node_rs(studies, omega)
        values = [v for v, _ in _objectives(studies, omega, rs)]
        _drop(monkeypatch, set(rs[::2]))
        passes = _record_passes(monkeypatch)
        res = mmap_r(studies, omega)
        assert passes == [rs]
        best = max(range(1, len(rs), 2), key=values.__getitem__)
        assert math.isfinite(res.objective)
        assert res.objective == values[best] and res.r_star == rs[best]


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
        # a log-spaced scan of [1, 200] and r values off it, omega over [1e-3, 1]
        rs = [1.0, *np.geomspace(1.0, 200.0, 32)[1:-1].tolist(), 200.0]
        rs += [1.0001, 1.37, 2.5, 7.77, 63.2, 199.9]
        omegas = [1e-3, 0.013, 0.11, 0.5, 0.87, 1.0]
        seen = set()
        for studies in _guard_sets():
            for omega in omegas:
                rows = ev._log_bf_rows(studies, (omega,), rs)
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
        assert rs_per_pass == [_NODES]  # r* = 1: the node pass only
        assert calls["ratio"] == n + _NODES  # and the node pass is built
        mmap_r(studies, 0.885)
        assert rs_per_pass == [_NODES, _NODES, 1]  # r* interior: and the fitted point
        items = n * sum(rs_per_pass)
        assert calls["tau_sq"] == n
        # the node pass is held by the set, so only the fitted point adds one
        assert calls["ratio"] == n + _NODES + 1
        # beyond the one-time study work, one ratio per r is one per n = 20
        # items; one per item would be items
        assert calls["ratio"] - n < items / 10


def _held_rows(studies) -> int:
    """The rows of ratio-row blocks (1 KiB each) that the set's node pass
    holds."""
    if studies._nodes is None:
        return 0
    plans = studies._nodes[1].layout.plans
    return sum(block.size // sf._BLOCK for one in plans for block in one.blocks.held.values())


def _kernel_cap(monkeypatch, cap) -> list:
    """Run the batched kernel under TERM_CAP = cap, while the screens and
    the one-value route keep the full cap, so that its rows of more blocks
    come back still running (NaN).  Returns the count of such rows per
    pass, as a list that fills as it runs."""
    real, running = bf._log_series_sums, []

    def capped(x, blocks, rows):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(sf, "TERM_CAP", cap)
            sums = real(x, blocks, rows)
        running.append(int(np.isnan(sums).sum()))
        return sums

    monkeypatch.setattr(bf, "_log_series_sums", capped)
    return running


def _edge_sets():
    """_guard_sets with studies whose x is 0 at every omega added: a
    one-sided z and a two-sided t of statistic 0, and chi-square and F
    statistics of 0."""
    nm, gamma = _guard_sets()
    zero_nm = StudySet.build([z_study(0.0, 50), t_study(0.0, 30, Sidedness.TWO_SIDED)])
    f_zero = TestStatistic(StatFamily.F, 0.0, k=3.0, m=40.0)
    zero_gamma = StudySet.build([chisq_study(0.0, 3.0, 80), (f_zero, DesignKind(DesignTag.LINEAR_MODEL_F, n=44))])
    return StudySet(nm.studies + zero_nm.studies), StudySet(gamma.studies + zero_gamma.studies)


class TestHeldPass:
    """mmap_r's node pass, held by the study set (evidence._node_pass): its
    layout, node priors and ratio rows are built once per r_max, and no
    value depends on them."""

    def test_values_are_a_fresh_pass_cold_warm_and_past_the_cap(self, monkeypatch):
        # per-study values and objectives at several omegas, through the
        # held pass and through a fresh pass of the same rs that holds
        # nothing: bit for bit, errors included, with the kernel capped so
        # that some rows are still running, whether the held blocks are
        # formed (the first omega), taken (the others), or past caps of no
        # block and of one block of the largest series
        running = _kernel_cap(monkeypatch, sf._BLOCK)
        omegas = (1e-3, 0.11, 0.5, 0.87, 1.0)
        kinds = set()
        for studies in _edge_sets():
            rows = len(studies.studies) * 2 * _NODES  # at most two series a study
            for cap in (sf._PASS_CAP, 1, rows):
                monkeypatch.setattr(sf, "_PASS_CAP", cap)
                fresh = StudySet(studies.studies)
                nodes = ev._node_pass(fresh, 200.0)
                for omega in omegas:
                    got = ev._log_bf_rows(fresh, (omega,), nodes)
                    expected = ev._log_bf_rows(fresh, (omega,), list(nodes))
                    for row, row_e in zip(got, expected):
                        assert all(_same(g, e) for g, e in zip(row, row_e)), (cap, omega)
                        kinds.update(type(e).__name__ for e in row_e)
                    # the objectives, with the pass's priors, or the first error
                    got = _value_or_error(ev._objectives, fresh, omega, nodes)
                    expected = _value_or_error(ev._objectives, fresh, omega, list(nodes))
                    assert _same(got, expected) if isinstance(expected, Exception) else repr(got) == repr(expected)
                held = _held_rows(fresh)
                assert (held > 0) == (cap != 1), cap
        assert max(running) > 0  # some rows were still running at the kernel's cap
        assert kinds == {"float", "ArithmeticError", "ValueError", "NonConvergenceError"}
        # objectives, with the pass's priors, on sets whose objectives
        # resolve: the gamma set but its last study (chi-square 1e308), and
        # stroop
        gamma = _guard_sets()[1]
        for studies in (StudySet(gamma.studies[:-1]), _stroop()):
            nodes = ev._node_pass(studies, 200.0)
            for omega in omegas:
                expected = ev._objectives(studies, omega, list(nodes))
                assert repr(ev._objectives(studies, omega, nodes)) == repr(expected), omega

    def test_two_r_max_never_share_a_pass(self):
        studies = _stroop()
        fresh = _stroop()
        first = ev._node_pass(studies, 200.0)
        assert ev._node_pass(studies, 200.0) is first
        for r_max in (50.0, 200.0, 3.0):
            res = mmap_r(studies, 0.885, r_max)
            assert studies._nodes[0] == r_max and list(studies._nodes[1]) == _node_rs(fresh, 0.885, r_max)
            assert studies._nodes[1] is not first
            assert res == mmap_r(StudySet(studies.studies), 0.885, r_max), r_max

    def test_fitted_pass_and_single_points_are_built_per_call(self, monkeypatch):
        # every pass but the node pass is built for its call and evaluated
        # once, and adds nothing to what the set holds; the node pass holds
        # from its first evaluation on
        built, real = [], bf._Blocks
        monkeypatch.setattr(bf, "_Blocks", lambda *args: (built.append(real(*args)), built[-1])[1])
        monkeypatch.setattr(sf, "_ROWS", {})
        studies = _stroop()  # one-sided t studies: one function, 2F1
        per_study_log_bf(studies, 0.5, 2.0)
        combined_log_bf(studies, 0.5, 2.0)
        assert len(built) == 2 and studies._nodes is None
        res = mmap_r(studies, 0.885)  # the node pass, then the fitted point
        assert 1.0 < res.r_star < 200.0
        (nodes,) = [plans.blocks for plans in studies._nodes[1].layout.plans]
        held = _held_rows(studies)
        assert len(built) == 4 and built[2] is nodes and held > 0
        assert mmap_r(studies, 0.885) == res
        assert len(built) == 5 and _held_rows(studies) == held
        ev._objectives(studies, 0.885, (res.r_star,))
        per_study_log_bf(studies, 0.7, res.r_star)
        assert len(built) == 7 and _held_rows(studies) == held
        assert sf._ROWS == {}

    def test_held_arrays_are_read_only_and_own_their_buffers(self):
        studies = _stroop()
        mmap_r(studies, 0.885)  # the node pass's first evaluation holds
        blocks = [block for plans in studies._nodes[1].layout.plans for block in plans.blocks.held.values()]
        assert blocks
        for block in blocks:
            assert not block.flags.writeable and block.base is None
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    def test_a_set_shared_between_threads(self):
        # 4 threads of 32 omegas each on a fresh set, started together and
        # switching as often as the interpreter allows, then every
        # default-grid omega serially on the same set, on two sets: every
        # result is a serial reference's, bit for bit, with no error
        omegas = EffectGrid.default().omegas
        reference = _stroop()
        expected = {omega: repr(mmap_r(reference, omega)) for omega in omegas}
        for _ in range(2):
            studies = _stroop()
            start, got = threading.Barrier(4), [[] for _ in range(4)]

            def run(i):
                start.wait()
                for omega in omegas[i::4][:32]:
                    got[i].append((omega, repr(_value_or_error(mmap_r, studies, omega))))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                sys.setswitchinterval(interval)
            assert [len(one) for one in got] == [32] * 4
            assert all(value == expected[omega] for one in got for omega, value in one)
            assert all(repr(_value_or_error(mmap_r, studies, omega)) == expected[omega] for omega in omegas)

    def test_a_copy_leaves_the_node_pass_behind(self):
        # a used set pickles to a fresh set's size, and a deep copy and a
        # pickle round trip build their own node pass, with equal results
        omegas = (0.3, 0.885)
        size = len(pickle.dumps(_stroop()))
        studies = _stroop()
        expected = [mmap_r(studies, omega) for omega in omegas]
        assert studies._nodes is not None and len(pickle.dumps(studies)) == size
        for copied in (copy.deepcopy(studies), pickle.loads(pickle.dumps(studies))):
            assert copied == studies and copied._nodes is None
            assert [mmap_r(copied, omega) for omega in omegas] == expected
        assert studies._nodes is not None


# Rows of ratio-row blocks (1 KiB each) that the default-grid stroop and
# correlation MMAP curves and the fig1 fixed-r curve leave held, passes and
# specfun._ROWS together: 1,960 (stroop's node pass holds 3 blocks of 560
# rows, correlation's 1 block of 280, fig1's fixed-r pass lasts its call,
# and no one-value series runs).  The column kernel's _ROWS entries held
# 3,560 rows for the stroop curve alone, 3,000 of them fitted-r chunks that
# never repeat.
_HELD_BOUND = 2048


class TestMemoryGuard:
    def test_rows_held_after_the_default_curves(self, monkeypatch):
        monkeypatch.setattr(sf, "_ROWS", {})
        grid = EffectGrid.default()
        stroop, correlation, fig1 = _stroop(), _table("correlation"), _table("fig1")
        bff_curve(stroop, grid, MmapR())
        bff_curve(correlation, grid, MmapR())
        bff_curve(fig1, grid, FixedR(1.0))
        assert fig1._nodes is None
        held = _held_rows(stroop) + _held_rows(correlation) + sum(map(len, sf._ROWS.values()))
        assert held <= _HELD_BOUND, held


# Studies whose statistic is beyond double precision, each with a design
# that makes it fail fast (or sum a short series) at every omega drawn below:
# an overflowing z or t (s = inf, or inf / inf), a z or chi-square whose
# series cannot stop within the term cap, and a t or F whose 2F1 argument
# rounds to 1 under the huge prior scale of n = 10^30.
_BEYOND_NM = (
    z_study(1e200, 50, Sidedness.TWO_SIDED),
    z_study(-1e9, 50),
    t_study(1e200, 10),
    (TestStatistic(StatFamily.T, 1e9, Sidedness.TWO_SIDED, nu=10.0),
     DesignKind(DesignTag.ONE_SAMPLE_T, n=10**30)),
)
_OMEGAS = (1e-170, 1e-160, 1e-3, 0.2, 0.7, 1.0)  # tau_sq from 0 and subnormal to about 200
_RS = st.one_of(st.sampled_from((1.0, 2.5, 63.2, 200.0)), st.floats(1.0, 200.0))


@st.composite
def _nm_sets(draw, size=4, odds=4):
    """1 to size mixed z and t studies of both sides, some against the
    prior's direction, one in odds + 1 beyond double precision."""
    pairs = []
    for _ in range(draw(st.integers(1, size))):
        if draw(st.integers(0, odds)) == 0:
            pairs.append(draw(st.sampled_from(_BEYOND_NM)))
            continue
        value = draw(st.floats(-8.0, 8.0))
        sided = draw(st.sampled_from((Sidedness.ONE_SIDED, Sidedness.TWO_SIDED)))
        n = draw(st.integers(5, 400))
        if draw(st.booleans()):
            pairs.append(z_study(value, n, sided))
        else:
            pairs.append(t_study(value, draw(st.sampled_from((1, 4, 30, 300))), sided))
    return StudySet.build(pairs)


@st.composite
def _gamma_sets(draw, size=4, odds=4):
    """1 to size chi-square and F studies with a shared k, one in odds + 1
    beyond double precision."""
    k = draw(st.sampled_from((1.0, 3.0)))
    pairs = []
    for _ in range(draw(st.integers(1, size))):
        beyond = draw(st.integers(0, odds)) == 0
        if draw(st.booleans()):
            h = 1e308 if beyond else draw(st.floats(0.0, 40.0))
            pairs.append(chisq_study(h, k, draw(st.integers(5, 400))))
        else:
            f = 1e300 if beyond else draw(st.floats(0.0, 10.0))
            stat = TestStatistic(StatFamily.F, f, k=k, m=float(draw(st.integers(2, 200))))
            n = 10**30 if beyond else draw(st.integers(5, 400))
            pairs.append((stat, DesignKind(DesignTag.LINEAR_MODEL_F, n=n)))
    return StudySet.build(pairs)


class TestColumnRoute:
    """Random study sets through the column route (_log_bf_rows) against
    log_bf10 study by study: the same float bit for bit, or an exception of
    the same type and message."""

    def _check(self, studies, omega, rs):
        rows = ev._log_bf_rows(studies, (omega,), rs)
        for r, row in zip(rs, rows):
            expected = [
                _value_or_error(log_bf10, s.stat, tau_sq_for(s.design, omega, r, s.stat.k), r)
                for s in studies.studies
            ]
            assert all(_same(g, e) for g, e in zip(row, expected)), (omega, r, row, expected)

    def test_omega_major_product(self):
        studies = _stroop()
        omegas, rs = (0.3, 0.7), (1.0, 2.5, 40.0)
        rows = ev._log_bf_rows(studies, omegas, rs)
        pairs = [(omega, r) for omega in omegas for r in rs]
        assert len(rows) == len(pairs) == 6
        for row, (omega, r) in zip(rows, pairs):
            assert [repr(v) for v in row] == [repr(v) for v in per_study_log_bf(studies, omega, r)]

    @pytest.mark.parametrize(
        "omegas, rs, message",
        [
            ((0.3, 0.0), (1.0, 2.5, 40.0), "^omega must be"),
            ((math.nan, 0.7), (1.0, 2.5, 40.0), "^omega must be"),
            ((0.3, 0.7), (1.0, 0.5, 40.0), "^r must be"),
        ],
    )
    def test_bad_omega_or_r_fails_the_whole_call(self, monkeypatch, omegas, rs, message):
        def fail(*args):
            raise AssertionError("a series kernel was reached")

        monkeypatch.setattr(bf, "_log_series_sums", fail)
        with pytest.raises(ValueError, match=message):
            ev._log_bf_rows(_stroop(), omegas, rs)

    @given(_nm_sets(), st.sampled_from(_OMEGAS), st.lists(_RS, min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_normal_moment_sets(self, studies, omega, rs):
        self._check(studies, omega, rs)

    @given(_gamma_sets(), st.sampled_from(_OMEGAS), st.lists(_RS, min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_chisq_f_sets(self, studies, omega, rs):
        self._check(studies, omega, rs)


def _forty_t():
    """40 one-sided t studies: a node pass of 40 x 2 x _NODES = 1,120 rows,
    past both _BY_TERM and _CHUNK."""
    return StudySet.build([t_study(0.2 * i - 1.0, 20 + 7 * i) for i in range(40)])


class TestMmapPaths:
    """mmap_r on one set at three omegas, so that its node pass is held from
    the second on, against mmap_r on a fresh copy at each omega, and each
    per-study value at r* against log_bf10: bit for bit, errors included.
    r* is often a fitted point, of a pass of its own, so every node of the
    held pass is also held to log_bf10, at the last omega."""

    def test_the_example_passes_the_kernel_thresholds(self):
        studies = _forty_t()
        mmap_r(studies, 0.5)
        (plans,) = studies._nodes[1].layout.plans
        assert len(plans.owner) > sf._CHUNK > sf._BY_TERM

    @staticmethod
    def _check_row(studies, omega, r, row):
        for s, value in zip(studies.studies, row, strict=True):
            tau_sq = tau_sq_for(s.design, omega, r, s.stat.k)
            assert _same(value, _value_or_error(log_bf10, s.stat, tau_sq, r)), (omega, r)

    # sets of up to 40 studies, about one in ten with a study beyond double precision
    @given(_nm_sets(40, 200) | _gamma_sets(40, 200), st.lists(st.sampled_from(_OMEGAS) | st.floats(1e-3, 1.0), min_size=3, max_size=3))
    @example(_forty_t(), [0.2, 0.5, 0.9])
    @settings(max_examples=160, deadline=None)
    def test_held_pass_is_a_fresh_set_and_log_bf10(self, studies, omegas):
        for omega in omegas:
            got = _value_or_error(mmap_r, studies, omega)
            expected = _value_or_error(mmap_r, StudySet(studies.studies), omega)
            if isinstance(expected, Exception):
                assert _same(got, expected), omega
                continue
            assert repr(got) == repr(expected), omega
            self._check_row(studies, omega, got.r_star, got.per_study_log_bf)
        nodes = studies._nodes[1]
        for r, row in zip(nodes, ev._log_bf_rows(studies, omegas[-1:], nodes)):
            self._check_row(studies, omegas[-1], r, row)
