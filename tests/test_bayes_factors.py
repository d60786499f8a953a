"""Tests for the closed-form log Bayes factors.

The heavy quadrature-equivalence grid lives in the acceptance suite; here the
formulas are pinned by their exact special cases, the published single-z
reference value, monotonicity, the large-nu / large-m limits, and a grid
against the closed forms evaluated by mpmath (oracle.mpmath_log_bf10).
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import bffkit.bayes_factors as bf
import bffkit.specfun as sf
from bffkit.bayes_factors import (
    Sidedness,
    StatFamily,
    TestStatistic,
    log_bf10,
    log_bf10_batch,
    log_bf10_chisq,
    log_bf10_f,
    log_bf10_t_one,
    log_bf10_t_two,
    log_bf10_z_one,
    log_bf10_z_two,
)
from bffkit.cli import load_studies
from bffkit.effect_map import DesignKind, DesignTag, tau_sq_for
from bffkit.evidence import StudySet, mmap_r, per_study_log_bf
from bffkit.specfun import NonConvergenceError
from oracle import mpmath_log_bf10


class TestTestStatistic:
    def test_z_requires_sidedness(self):
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.Z, 1.0)

    def test_t_requires_nu(self):
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.T, 1.0, Sidedness.ONE_SIDED)

    def test_chisq_value_nonnegative(self):
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.CHI_SQ, -0.1, k=2.0)

    def test_chisq_rejects_sidedness(self):
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.CHI_SQ, 1.0, Sidedness.ONE_SIDED, k=2.0)

    def test_f_requires_both_df(self):
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.F, 1.0, k=2.0)

    def test_stray_fields_rejected(self):
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.Z, 1.0, Sidedness.ONE_SIDED, nu=5.0)
        with pytest.raises(ValueError):
            TestStatistic(StatFamily.T, 1.0, Sidedness.ONE_SIDED, nu=5.0, k=1.0)

    @pytest.mark.parametrize("sided", ["one", "two", True, 1])
    def test_sided_must_be_a_sidedness(self, sided):
        # a string is not Sidedness.ONE_SIDED, so it would pass for two-sided
        for family, nu in ((StatFamily.Z, None), (StatFamily.T, 20.0)):
            with pytest.raises(ValueError, match=f"^sided must be a Sidedness, got {sided!r}$"):
                TestStatistic(family, 1.5, sided, nu=nu)

    @pytest.mark.parametrize("family", ["z", "chisq", None])
    def test_family_must_be_a_stat_family(self, family):
        with pytest.raises(ValueError, match=f"^family must be a StatFamily, got {family!r}$"):
            TestStatistic(family, 1.5, Sidedness.ONE_SIDED)

    @pytest.mark.parametrize(
        "form, value, nu, k, m",
        [
            ("t_one", 1.0, 0.0, None, None),
            ("t_two", 1.0, -2.0, None, None),
            ("z_one", math.nan, None, None, None),
            ("z_two", math.inf, None, None, None),
            ("t_one", -math.inf, 10.0, None, None),
            ("t_two", 1.0, math.nan, None, None),
            ("t_one", 1.0, math.inf, None, None),
            ("chisq", math.inf, None, 2.0, None),
            ("chisq", 1.0, None, math.nan, None),
            ("chisq", 1.0, None, 0.0, None),
            ("chisq", -0.1, None, 2.0, None),
            ("f", math.nan, None, 2.0, 10.0),
            ("f", 1.0, None, math.inf, 10.0),
            ("f", 1.0, None, 2.0, -math.inf),
            ("f", 1.0, None, 2.0, 0.0),
            ("f", -1.0, None, 2.0, 10.0),
        ],
    )
    def test_each_value_has_one_check(self, form, value, nu, k, m):
        # a statistic's values are checked by its closed form's study part
        # alone, so the statistic and the scalar form give the same message
        family, _, sided = form.partition("_")
        with pytest.raises(ValueError) as built:
            TestStatistic(StatFamily(family), value, Sidedness(sided) if sided else None, nu, k, m)
        dfs = [x for x in (nu, k, m) if x is not None]
        with pytest.raises(ValueError) as formed:
            getattr(bf, f"log_bf10_{form}")(value, *dfs, 1.0, 1.0)
        assert str(built.value) == str(formed.value)


class TestNullStatisticValues:
    """Statistic at its null point: only the prefactor survives."""

    def test_z(self):
        for ts, r in [(0.5, 1.0), (3.0, 2.5)]:
            expected = -(r + 0.5) * math.log1p(ts)
            assert log_bf10_z_two(0.0, ts, r) == pytest.approx(expected, rel=1e-14)
            assert log_bf10_z_one(0.0, ts, r) == pytest.approx(expected, rel=1e-14)

    def test_t(self):
        for ts, r in [(0.5, 1.0), (3.0, 2.5)]:
            expected = -(r + 0.5) * math.log1p(ts)
            assert log_bf10_t_two(0.0, 12.0, ts, r) == pytest.approx(expected, rel=1e-14)
            assert log_bf10_t_one(0.0, 12.0, ts, r) == pytest.approx(expected, rel=1e-14)

    def test_chisq_f(self):
        for ts, r, k in [(0.5, 1.0, 1.0), (3.0, 2.5, 4.0)]:
            expected = -(k / 2.0 + r) * math.log1p(ts)
            assert log_bf10_chisq(0.0, k, ts, r) == pytest.approx(expected, rel=1e-14)
            assert log_bf10_f(0.0, k, 9.0, ts, r) == pytest.approx(expected, rel=1e-14)


class TestNullNeutrality:
    """tau_sq -> 0: prior collapses onto the null, BF -> 1."""

    def test_exact_zero(self):
        assert log_bf10_z_two(1.7, 0.0, 1.0) == 0.0
        assert log_bf10_z_one(1.7, 0.0, 1.0) == 0.0
        assert log_bf10_t_two(1.7, 9.0, 0.0, 1.0) == 0.0
        assert log_bf10_t_one(1.7, 9.0, 0.0, 1.0) == 0.0
        assert log_bf10_chisq(1.7, 2.0, 0.0, 1.0) == 0.0
        assert log_bf10_f(1.7, 2.0, 9.0, 0.0, 1.0) == 0.0

    def test_limit(self):
        # one-sided forms approach 0 at rate O(tau) through the odd term;
        # the even forms at rate O(tau^2)
        for fn in (
            lambda ts: log_bf10_z_two(2.0, ts, 1.0),
            lambda ts: log_bf10_t_two(2.0, 15.0, ts, 1.0),
            lambda ts: log_bf10_chisq(4.0, 2.0, ts, 1.0),
            lambda ts: log_bf10_f(2.0, 2.0, 20.0, ts, 1.0),
        ):
            assert abs(fn(1e-12)) < 1e-10
        for fn in (
            lambda ts: log_bf10_z_one(2.0, ts, 1.0),
            lambda ts: log_bf10_t_one(2.0, 15.0, ts, 1.0),
        ):
            assert abs(fn(1e-12)) < 1e-5
            assert abs(fn(1e-16)) < abs(fn(1e-12))


class TestReferenceValues:
    def test_fig1_one_sided_z(self):
        # published single-z anchor: z=1.5, n=100, omega=0.11, r=1
        tau_sq = 100 * 0.11**2 / 2.0
        assert log_bf10_z_one(1.5, tau_sq, 1.0) == pytest.approx(0.97, abs=0.02)

    def test_one_sided_odd_term_sign(self):
        # negative z subtracts: one-sided < two-sided for z < 0,
        # one-sided > two-sided for z > 0
        assert log_bf10_z_one(-1.5, 0.6, 1.0) < log_bf10_z_two(-1.5, 0.6, 1.0)
        assert log_bf10_z_one(1.5, 0.6, 1.0) > log_bf10_z_two(1.5, 0.6, 1.0)
        assert log_bf10_t_one(-1.5, 11.0, 0.6, 1.0) < log_bf10_t_two(-1.5, 11.0, 0.6, 1.0)

    def test_two_sided_is_even(self):
        assert log_bf10_z_two(1.5, 0.6, 1.0) == log_bf10_z_two(-1.5, 0.6, 1.0)
        assert log_bf10_t_two(2.2, 17.0, 0.6, 1.0) == log_bf10_t_two(-2.2, 17.0, 0.6, 1.0)

    def test_two_sided_is_one_sided_mixture(self):
        # symmetric prior = half/half mixture of the one-sided priors
        for t, nu, ts, r in [(2.3, 20.0, 1.5, 1.0), (-1.1, 7.0, 2.5, 1.5)]:
            lo = log_bf10_t_one(t, nu, ts, r)
            hi = log_bf10_t_one(-t, nu, ts, r)
            m = max(lo, hi)
            mix = m + math.log(0.5 * (math.exp(lo - m) + math.exp(hi - m)))
            assert log_bf10_t_two(t, nu, ts, r) == pytest.approx(mix, rel=1e-12)
        for z, ts, r in [(1.5, 0.605, 1.0), (-2.4, 3.0, 2.0)]:
            lo = log_bf10_z_one(z, ts, r)
            hi = log_bf10_z_one(-z, ts, r)
            m = max(lo, hi)
            mix = m + math.log(0.5 * (math.exp(lo - m) + math.exp(hi - m)))
            assert log_bf10_z_two(z, ts, r) == pytest.approx(mix, rel=1e-12)


class TestMonotonicity:
    def test_two_sided_increasing_in_magnitude(self):
        grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals_z = [log_bf10_z_two(z, 1.5, 1.0) for z in grid]
        vals_t = [log_bf10_t_two(t, 14.0, 1.5, 1.0) for t in grid]
        assert all(b > a for a, b in zip(vals_z, vals_z[1:]))
        assert all(b > a for a, b in zip(vals_t, vals_t[1:]))

    def test_one_sided_increasing(self):
        grid = [-4.0, -2.0, 0.0, 2.0, 4.0]
        vals_z = [log_bf10_z_one(z, 1.5, 1.0) for z in grid]
        vals_t = [log_bf10_t_one(t, 14.0, 1.5, 1.0) for t in grid]
        assert all(b > a for a, b in zip(vals_z, vals_z[1:]))
        assert all(b > a for a, b in zip(vals_t, vals_t[1:]))

    def test_chisq_f_increasing(self):
        grid = [0.0, 1.0, 3.0, 8.0, 20.0]
        vals_h = [log_bf10_chisq(h, 2.0, 1.5, 1.0) for h in grid]
        vals_f = [log_bf10_f(f, 2.0, 25.0, 1.5, 1.0) for f in grid]
        assert all(b > a for a, b in zip(vals_h, vals_h[1:]))
        assert all(b > a for a, b in zip(vals_f, vals_f[1:]))


class TestLimits:
    def test_t_to_z(self):
        for t in (-2.0, 1.0, 3.0):
            for sided_t, sided_z in (
                (log_bf10_t_one, log_bf10_z_one),
                (log_bf10_t_two, log_bf10_z_two),
            ):
                gap5 = abs(sided_t(t, 1e5, 2.0, 1.0) - sided_z(t, 2.0, 1.0))
                gap3 = abs(sided_t(t, 1e3, 2.0, 1.0) - sided_z(t, 2.0, 1.0))
                assert gap5 < gap3
                assert gap5 < 1e-3

    def test_f_to_chisq(self):
        for h in (1.0, 6.0, 15.0):
            k = 3.0
            target = log_bf10_chisq(h, k, 2.0, 1.0)
            gap5 = abs(log_bf10_f(h / k, k, 1e5, 2.0, 1.0) - target)
            gap3 = abs(log_bf10_f(h / k, k, 1e3, 2.0, 1.0) - target)
            assert gap5 < gap3
            assert gap5 < 1e-3


class TestDispatcher:
    def test_routes(self):
        assert log_bf10(
            TestStatistic(StatFamily.Z, 1.5, Sidedness.ONE_SIDED), 0.605, 1.0
        ) == log_bf10_z_one(1.5, 0.605, 1.0)
        assert log_bf10(
            TestStatistic(StatFamily.Z, 1.5, Sidedness.TWO_SIDED), 0.605, 1.0
        ) == log_bf10_z_two(1.5, 0.605, 1.0)
        assert log_bf10(
            TestStatistic(StatFamily.T, 2.0, Sidedness.ONE_SIDED, nu=11.0), 1.0, 1.0
        ) == log_bf10_t_one(2.0, 11.0, 1.0, 1.0)
        assert log_bf10(
            TestStatistic(StatFamily.CHI_SQ, 4.0, k=2.0), 1.0, 1.0
        ) == log_bf10_chisq(4.0, 2.0, 1.0, 1.0)
        assert log_bf10(
            TestStatistic(StatFamily.F, 2.5, k=2.0, m=30.0), 1.0, 1.0
        ) == log_bf10_f(2.5, 2.0, 30.0, 1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bf10_z_two(1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            log_bf10_z_two(1.0, 1.0, 0.9)
        with pytest.raises(ValueError):
            log_bf10_chisq(-1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_bf10_f(1.0, 2.0, 0.0, 1.0, 1.0)


def _batch(items):
    """log_bf10_batch of (stat, tau_sq, r) items, as the columns of their
    study parts, tau_sq and r."""
    stats, tau_sq, r = zip(*items)
    parts = bf._study_columns([stat._part for stat in stats])
    return log_bf10_batch(parts, np.array(tau_sq, dtype=float), np.array(r, dtype=float))


def _forbid_kernels(monkeypatch):
    def fail(*args):
        raise AssertionError("a series kernel was reached")

    for name in ("log_1f1", "log_2f1", "_log_series_sums"):
        monkeypatch.setattr(bf, name, fail)


NAN, INF = float("nan"), float("inf")


class TestDomainGuards:
    """Argument domains fail with ValueError before any series is summed."""

    def test_rounded_argument_at_one_is_value_error(self, monkeypatch):
        _forbid_kernels(monkeypatch)
        # x rounds to exactly 1 for these finite inputs
        with pytest.raises(ValueError, match="not below 1"):
            log_bf10_t_two(1e9, 10.0, 1e17, 1.0)
        with pytest.raises(ValueError, match="not below 1"):
            log_bf10_t_one(1e9, 10.0, 1e17, 1.0)
        with pytest.raises(ValueError, match="not below 1"):
            log_bf10_f(1e16, 1.0, 1.0, 1e17, 1.0)

    def test_infinite_tau_sq_is_value_error(self, monkeypatch):
        _forbid_kernels(monkeypatch)
        with pytest.raises(ValueError, match="tau_sq"):
            log_bf10_t_two(1.0, 10.0, INF, 1.0)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_hyperparameters(self, monkeypatch, bad):
        _forbid_kernels(monkeypatch)
        calls = [
            lambda tau_sq, r: log_bf10_z_two(1.0, tau_sq, r),
            lambda tau_sq, r: log_bf10_z_one(1.0, tau_sq, r),
            lambda tau_sq, r: log_bf10_t_two(1.0, 10.0, tau_sq, r),
            lambda tau_sq, r: log_bf10_t_one(1.0, 10.0, tau_sq, r),
            lambda tau_sq, r: log_bf10_chisq(1.0, 2.0, tau_sq, r),
            lambda tau_sq, r: log_bf10_f(1.0, 2.0, 10.0, tau_sq, r),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tau_sq"):
                call(bad, 1.0)
            with pytest.raises(ValueError, match="r must be"):
                call(1.0, bad)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_statistic_fields(self, monkeypatch, bad):
        _forbid_kernels(monkeypatch)
        one, two = Sidedness.ONE_SIDED, Sidedness.TWO_SIDED
        builds = [
            lambda: TestStatistic(StatFamily.Z, bad, one),
            lambda: TestStatistic(StatFamily.Z, bad, two),
            lambda: TestStatistic(StatFamily.T, bad, one, nu=10.0),
            lambda: TestStatistic(StatFamily.T, 1.0, two, nu=bad),
            lambda: TestStatistic(StatFamily.CHI_SQ, bad, k=2.0),
            lambda: TestStatistic(StatFamily.CHI_SQ, 1.0, k=bad),
            lambda: TestStatistic(StatFamily.F, bad, k=2.0, m=10.0),
            lambda: TestStatistic(StatFamily.F, 1.0, k=bad, m=10.0),
            lambda: TestStatistic(StatFamily.F, 1.0, k=2.0, m=bad),
        ]
        for build in builds:
            with pytest.raises(ValueError):
                build()
        # the closed forms guard their own arguments as well
        forms = [
            lambda: log_bf10_z_two(bad, 1.0, 1.0),
            lambda: log_bf10_z_one(bad, 1.0, 1.0),
            lambda: log_bf10_t_two(bad, 10.0, 1.0, 1.0),
            lambda: log_bf10_t_one(1.0, bad, 1.0, 1.0),
            lambda: log_bf10_chisq(bad, 2.0, 1.0, 1.0),
            lambda: log_bf10_chisq(1.0, bad, 1.0, 1.0),
            lambda: log_bf10_f(bad, 2.0, 10.0, 1.0, 1.0),
            lambda: log_bf10_f(1.0, 2.0, bad, 1.0, 1.0),
        ]
        for form in forms:
            with pytest.raises(ValueError):
                form()

    def test_batch_reports_value_errors_per_item(self, monkeypatch):
        _forbid_kernels(monkeypatch)
        stat = TestStatistic(StatFamily.T, 1.0, Sidedness.ONE_SIDED, nu=10.0)
        big = TestStatistic(StatFamily.T, 1e9, Sidedness.TWO_SIDED, nu=10.0)
        out = _batch([(stat, NAN, 1.0), (stat, 1.0, INF), (big, 1e17, 1.0)])
        assert all(isinstance(v, ValueError) for v in out)


class TestBeyondDoublePrecision:
    """Statistics whose series cannot be summed in double precision fail
    typed at plan time, through log_bf10, log_bf10_batch and the column
    route of a study set (per_study_log_bf) alike, instead of spinning to
    the term cap or returning a wrong number.  Each case's design gives its
    tau_sq at omega = 1 and r = 1."""

    @pytest.mark.parametrize(
        "stat, design, tau_sq, error",
        [
            # x = 1 - 1.8e-17 rounds to 1.0, so the 2F1 argument check rejects it
            (TestStatistic(StatFamily.T, 1e9, Sidedness.ONE_SIDED, nu=10.0),
             DesignKind(DesignTag.ONE_SAMPLE_T, n=25 * 10**16), 1.25e17, ValueError),
            # the 1F1 argument overflows to inf
            (TestStatistic(StatFamily.Z, 1e200, Sidedness.TWO_SIDED),
             DesignKind(DesignTag.ONE_SAMPLE_Z, n=2), 1.0, ValueError),
            # x = 2.5e307: the 1F1 series cannot stop within TERM_CAP terms
            (TestStatistic(StatFamily.CHI_SQ, 1e308, k=2.0),
             DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=1), 1.0, NonConvergenceError),
            # t * t overflows: s = inf / inf is NaN, which the 2F1 argument check rejects
            (TestStatistic(StatFamily.T, 1e200, Sidedness.TWO_SIDED, nu=10.0),
             DesignKind(DesignTag.ONE_SAMPLE_T, n=2), 1.0, ValueError),
            # y^2 = 1 - 1.1e-6: the term ratio at the cap is below 1, but the
            # term there is still e^-7.6 of the peak term
            (TestStatistic(StatFamily.T, 1e3, Sidedness.TWO_SIDED, nu=1.0),
             DesignKind(DesignTag.ONE_SAMPLE_T, n=2 * 10**7), 1e7, NonConvergenceError),
            # the same first series, planned on the one-sided route
            (TestStatistic(StatFamily.T, 1e3, Sidedness.ONE_SIDED, nu=1.0),
             DesignKind(DesignTag.ONE_SAMPLE_T, n=2 * 10**7), 1e7, NonConvergenceError),
        ],
        ids=[
            "t_one_near_one", "z_two_inf", "chisq_huge", "t_two_overflow", "t_two_long_tail",
            "t_one_long_tail",
        ],
    )
    def test_beyond_double_precision_fails_fast(self, monkeypatch, stat, design, tau_sq, error):
        def fail(*args):
            raise AssertionError("a series kernel was reached")

        monkeypatch.setattr(sf, "_log_series_sum", fail)
        monkeypatch.setattr(bf, "_log_series_sums", fail)
        studies = StudySet.build([(stat, design)])
        assert tau_sq_for(design, 1.0, 1.0, stat.k) == tau_sq
        start = time.perf_counter()
        with pytest.raises(error):
            log_bf10(stat, tau_sq, 1.0)
        (batched,) = _batch([(stat, tau_sq, 1.0)])
        with pytest.raises(error, match=f"^study 0: {re.escape(str(batched))}$"):
            per_study_log_bf(studies, 1.0, 1.0)
        assert time.perf_counter() - start < 0.01
        assert type(batched) is error


def _scalar_or_error(stat, tau_sq, r):
    try:
        return log_bf10(stat, tau_sq, r)
    except Exception as exc:
        return exc


def _assert_same(got, expected):
    """Equal floats item by item, or errors of one type and message."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if isinstance(e, Exception):
            assert type(g) is type(e) and str(g) == str(e)
        else:
            assert g == e


def _record_evaluate(monkeypatch):
    """Wrap bf._evaluate; return the lists of its calls and of the errors it
    raised."""
    calls, raised = [], []
    real = bf._evaluate

    def record(*args):
        calls.append(args)
        try:
            return real(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(bf, "_evaluate", record)
    return calls, raised


class TestBatch:
    """log_bf10_batch against log_bf10, item by item and bit for bit."""

    def _items(self):
        rng = np.random.default_rng(5)
        one, two = Sidedness.ONE_SIDED, Sidedness.TWO_SIDED
        items = []
        for _ in range(40):
            tau_sq = float(rng.uniform(0.05, 60.0))
            r = float(rng.uniform(1.0, 12.0))
            v = float(rng.uniform(-6.0, 6.0))
            nu = float(rng.uniform(3.0, 300.0))
            k = float(rng.integers(1, 6))
            items += [
                (TestStatistic(StatFamily.Z, v, one), tau_sq, r),
                (TestStatistic(StatFamily.Z, v, two), tau_sq, r),
                (TestStatistic(StatFamily.T, v, one, nu=nu), tau_sq, r),
                (TestStatistic(StatFamily.T, v, two, nu=nu), tau_sq, r),
                (TestStatistic(StatFamily.CHI_SQ, v * v, k=k), tau_sq, r),
                (TestStatistic(StatFamily.F, v * v, k=k, m=nu), tau_sq, r),
            ]
        z0 = TestStatistic(StatFamily.Z, 0.0, one)
        items += [(z0, 1.0, 2.0), (z0, 0.0, 2.0)]  # y = 0; tau_sq = 0
        # a bracket that cancels below double precision (ArithmeticError)
        items.append((TestStatistic(StatFamily.Z, -8.0, one), 10.0, 2.0))
        # x = 0 where the series' first ratio factor (k/2 + r)((k + m)/2) /
        # (k/2) overflows: the series is 1 (log 0.0) on both routes
        items.append((TestStatistic(StatFamily.F, 0.0, k=0.1, m=1e308), 1.0, 1.0))
        # finite degrees of freedom and r whose series parameter k/2 + r or
        # (k + m)/2 overflows to inf, at x = 0 (where _unclear's bound is
        # NaN) and x > 0: the planner's ValueError
        huge = 1.7e308
        items += [(TestStatistic(StatFamily.CHI_SQ, h, k=huge), 1.0, 1e308) for h in (0.0, 1.0)]
        items += [(TestStatistic(StatFamily.F, f, k=huge, m=huge), 1.0, 2.0) for f in (0.0, 1e-300)]
        return items

    def test_matches_log_bf10(self):
        items = self._items()
        expected = [_scalar_or_error(*item) for item in items]
        assert any(isinstance(e, ArithmeticError) for e in expected)
        assert expected[-5] == -(0.05 + 1.0) * math.log1p(1.0)
        assert [type(e) for e in expected[-4:]] == [ValueError] * 4
        _assert_same(_batch(items), expected)

    def test_over_flagging_changes_no_entry(self, monkeypatch):
        # every plan row flagged: every item with a series goes to _evaluate
        monkeypatch.setattr(bf, "_unclear", lambda num, c, x: np.ones(len(x), dtype=bool))
        items = self._items()
        expected = [_scalar_or_error(*item) for item in items]
        _assert_same(_batch(items), expected)

    def test_other_errors_propagate(self, monkeypatch):
        # a flagged item whose evaluation raises anything but ValueError,
        # ArithmeticError or NonConvergenceError raises it from the batch
        def fail(plan):
            raise AssertionError("one-value kernel reached")

        monkeypatch.setattr(bf, "_unclear", lambda num, c, x: np.ones(len(x), dtype=bool))
        monkeypatch.setattr(sf, "_log_series_sum", fail)
        with pytest.raises(AssertionError, match="one-value kernel reached"):
            _batch(self._items())

    def test_every_error_is_raised_by_evaluate(self, monkeypatch):
        # the one decider: each exception entry is an object _evaluate raised
        _, raised = _record_evaluate(monkeypatch)
        errors = [v for v in _batch(self._items()) if isinstance(v, Exception)]
        assert errors
        assert all(any(error is seen for seen in raised) for error in errors)

    def test_mmap_points_stay_in_columns(self, monkeypatch):
        # no item of a Stroop MMAP point is flagged, r* = 1 or interior
        calls, _ = _record_evaluate(monkeypatch)
        studies = load_studies(str(Path(__file__).parent / "data" / "stroop.csv"))
        for omega in (0.5, 0.885):
            mmap_r(studies, omega)
        assert calls == []

    def test_series_still_running_at_the_cap(self, monkeypatch):
        # a series that passes the cap check but is still running at the cap
        # (here, made so: every series with x > 2) makes its item a
        # NonConvergenceError naming the item's first such series, as
        # log_bf10 raises it, and never the ArithmeticError of a NaN bracket
        def running(x):
            return x > 2.0

        one_plan, many_plans = sf._log_series_sum, bf._log_series_sums

        def one(plan):
            if running(plan[0]):
                raise sf._nonconvergence(plan)
            return one_plan(plan)

        def many(x, blocks, rows):
            sums = many_plans(x, blocks, rows)
            sums[running(x)] = math.nan
            return sums

        monkeypatch.setattr(sf, "_log_series_sum", one)
        monkeypatch.setattr(bf, "_log_series_sums", many)
        items = self._items()
        expected = [_scalar_or_error(*item) for item in items]
        one_sided = [stat.sided is Sidedness.ONE_SIDED for stat, _, _ in items]
        assert any(isinstance(e, NonConvergenceError) and o for e, o in zip(expected, one_sided))
        _assert_same(_batch(items), expected)

    def test_one_kernel_call_per_function(self, monkeypatch):
        calls = []  # the set of series arities (1 for 1F1, 2 for 2F1) per pass
        real = bf._log_series_sums
        monkeypatch.setattr(
            bf,
            "_log_series_sums",
            lambda x, blocks, rows: (calls.append({len(blocks.num)}), real(x, blocks, rows))[1],
        )
        _batch(self._items())
        assert sorted(calls, key=min) == [{1}, {2}]


NUS = (1.0, 5.0, 30.0, 300.0)
TAU_SQS = (1e-3, 0.1, 1.0, 30.0, 1e3)
RS = (1.0, 2.5, 20.0, 200.0)


def _mpmath_grid():
    """(statistic, tau_sq, r) over all six forms, their degrees of freedom,
    prior scales and shapes; one-sided z and t statistics that oppose the
    prior are kept to x = y^2 <= 0.02 and r <= 10, where the signed bracket
    loses at most about 3 digits."""
    one, two = Sidedness.ONE_SIDED, Sidedness.TWO_SIDED
    stats = []
    for v in (0.5, 2.0, 4.0):
        for side in (one, two):
            stats.append(TestStatistic(StatFamily.Z, v, side))
            stats += [TestStatistic(StatFamily.T, v, side, nu=nu) for nu in NUS]
    for k in (1.0, 3.0):
        stats += [TestStatistic(StatFamily.CHI_SQ, h, k=k) for h in (1.0, 5.0, 20.0)]
        stats += [TestStatistic(StatFamily.F, f, k=k, m=m) for f in (0.5, 3.0) for m in NUS]
    grid = [(stat, tau_sq, r) for stat in stats for tau_sq in TAU_SQS for r in RS]
    for v in (-0.05, -0.2):
        opposing = [TestStatistic(StatFamily.Z, v, one)]
        opposing += [TestStatistic(StatFamily.T, v, one, nu=nu) for nu in NUS]
        for stat in opposing:
            s = v * v / 2.0 if stat.nu is None else v * v / (stat.nu + v * v)
            grid += [
                (stat, tau_sq, r)
                for tau_sq in TAU_SQS
                for r in (1.0, 2.5, 10.0)
                if s * tau_sq / (1.0 + tau_sq) <= 0.02
            ]
    return grid


class TestAgainstMpmath:
    """Every closed form against the paper's formula evaluated by mpmath:
    relative 1e-12, absolute where |log BF| < 1."""

    def test_grid(self):
        grid = _mpmath_grid()
        assert len(grid) > 1000
        bad = []
        for stat, tau_sq, r in grid:
            ref = mpmath_log_bf10(stat, tau_sq, r)
            got = log_bf10(stat, tau_sq, r)
            if not abs(got - ref) <= 1e-12 * max(abs(ref), 1.0):
                bad.append((stat, tau_sq, r, got, ref))
        assert not bad, (len(bad), bad[:5])
