"""Unit and property tests for the log-domain special functions.

Expected values marked as frozen were computed once with mpmath at 60 digits
(direct series summation, not mpmath's hypergeometric routines, for the
series cross-checks) and pasted in; the tests themselves stay double-only.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bffkit.specfun as sf
from bffkit.specfun import (
    NonConvergenceError,
    log_1f1,
    log_2f1,
    log_gamma_half_ratio,
    trigamma,
)


class TestPsiFunctions:
    def test_trigamma_at_one(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)

    def test_trigamma_series_bracket(self):
        # psi_1(x) = sum_{k>=0} 1/(x+k)^2; the tail past n lies between the
        # integral bounds 1/(x+n) and 1/(x+n-1)
        x, n = 1.5, 20000
        partial = sum(1.0 / (x + k) ** 2 for k in range(n))
        assert partial + 1.0 / (x + n - 1) >= trigamma(x) >= partial + 1.0 / (x + n)
        assert trigamma(1.5) == pytest.approx(math.pi**2 / 2.0 - 4.0, abs=1e-10)

    def test_digamma_recurrence(self):
        for x in (0.3, 1.0, 2.5, 7.7, 100.0):
            assert trigamma(x + 1.0) == pytest.approx(
                trigamma(x) - 1.0 / (x * x), abs=1e-10
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            trigamma(0.0)
        with pytest.raises(ValueError):
            trigamma(-1.0)


class TestHalfRatio:
    def test_frozen_values(self):
        # frozen: mpmath 60-digit ln Gamma(x+1/2) - ln Gamma(x)
        cases = {
            0.7: -0.34624133653498236,
            7.25: 0.97327294557744443,
            123.0: 2.4050759203224262,
            54321.5: 5.4513353868802168,
        }
        for x, ref in cases.items():
            assert log_gamma_half_ratio(x) == pytest.approx(ref, abs=1e-13)

    def test_continuity_at_switch(self):
        below = log_gamma_half_ratio(49.999999)
        above = log_gamma_half_ratio(50.000001)
        assert abs(above - below) < 1e-7


class Test1F1:
    def test_at_zero(self):
        assert log_1f1(2.0, 3.0, 0.0) == 0.0

    @pytest.mark.parametrize("x", [1.0, 50.0, 500.0, 5000.0])
    def test_exponential_identity(self, x):
        # 1F1(1,1,x) = e^x
        val = log_1f1(1.0, 1.0, x)
        assert abs(val - x) / x <= 1e-12

    def test_against_direct_summation(self):
        # frozen: 200-term extended-precision direct sum of 1F1(1.5, 0.5, 2)
        assert log_1f1(1.5, 0.5, 2.0) == pytest.approx(
            3.6094379124341004, rel=1e-12
        )

    def test_kummer_transformation(self):
        # diagnostic only: e^x 1F1(b-a, b, -x) computed in extended precision
        # and frozen; the production path never sums alternating series
        frozen = {
            (1.5, 2.5, 3.0): 2.0708626561905449,
            (0.7, 1.9, 5.0): 2.8623493635298961,
            (2.0, 4.0, 1.0): 0.52491136976043082,
        }
        for (a, b, x), ref in frozen.items():
            assert log_1f1(a, b, x) == pytest.approx(ref, rel=1e-12)

    @given(
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
        x=st.floats(0.01, 200.0),
        bump=st.floats(1.01, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_x(self, a, b, x, bump):
        assert log_1f1(a, b, x * bump) > log_1f1(a, b, x)

    def test_finite_at_extremes(self):
        assert math.isfinite(log_1f1(1e4, 0.5, 1e6))
        assert math.isfinite(log_1f1(2.5, 1.5, 1e6))

    def test_domain(self):
        with pytest.raises(ValueError):
            log_1f1(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_1f1(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            log_1f1(1.0, 1.0, -0.5)
        for x in (math.inf, math.nan):  # rejected before any term is summed
            with pytest.raises(ValueError):
                log_1f1(1.0, 1.0, x)


class Test2F1:
    def test_at_zero(self):
        assert log_2f1(1.0, 2.0, 3.0, 0.0) == 0.0

    def test_closed_form(self):
        # 2F1(1,1,2,x) = -ln(1-x)/x
        x = 0.5
        assert log_2f1(1.0, 1.0, 2.0, x) == pytest.approx(
            math.log(-math.log1p(-x) / x), abs=1e-12
        )

    def test_against_direct_summation(self):
        # frozen: extended-precision direct sum of 2F1(50.5, 1.5, 0.5, 0.3)
        assert log_2f1(50.5, 1.5, 0.5, 0.3) == pytest.approx(
            21.802746817329864, rel=1e-12
        )

    def test_symmetry_bit_for_bit(self):
        a = log_2f1(3.7, 1.2, 0.5, 0.42)
        b = log_2f1(1.2, 3.7, 0.5, 0.42)
        assert a == b

    def test_euler_transformation_branch(self):
        # c - a and c - b positive, x > 0.9: frozen mpmath reference
        assert log_2f1(0.2, 0.3, 5.0, 0.95) == pytest.approx(
            0.013217203167140253, rel=1e-10
        )

    def test_raw_series_near_one(self):
        # in-scope t/F calls have c - a < 0, so the raw series must hold up
        # close to the x < 1 boundary
        v = log_2f1(121.0, 13.37, 1.5, 0.9995)
        assert v == pytest.approx(1046.3217403, rel=1e-8)

    def test_one_f_one_limit_law(self):
        # 2F1(a, b, c, x/b) -> 1F1(a, c, x) monotonically as b grows
        for a, c, x in [(1.5, 0.5, 2.0), (3.0, 1.5, 10.0)]:
            target = log_1f1(a, c, x)
            gaps = [
                abs(
                    math.expm1(
                        log_2f1(a, b, c, x / b) - target
                    )
                )
                for b in (1e2, 1e3, 1e4)
            ]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < gaps[0] / 10.0

    @given(
        a=st.floats(0.5, 30.0),
        b=st.floats(0.5, 30.0),
        c=st.floats(0.5, 10.0),
        x=st.floats(0.01, 0.85),
        bump=st.floats(1.01, 1.15),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_x(self, a, b, c, x, bump):
        x2 = min(x * bump, 0.89)
        assert (
            log_2f1(a, b, c, x2)
            >= log_2f1(a, b, c, x)
        )

    def test_finite_at_extreme_parameters(self):
        # parameters up to 1e4; the series peak sits near a*x/(1-x) terms, so
        # this converges (slowly) without overflowing anything
        assert math.isfinite(log_2f1(1e4, 2.0, 0.5, 0.99))

    def test_domain(self):
        with pytest.raises(ValueError):
            log_2f1(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_2f1(1.0, 1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            log_2f1(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            log_2f1(1.0, 1.0, 1.0, math.nan)

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 256)
        with pytest.raises(NonConvergenceError):
            log_2f1(5.0, 5.0, 0.5, 0.999999)


def _scalar_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return exc


def _batch(planner, columns):
    """The batched path as log_bf10_batch drives it: plan every row, sum the
    planned rows in one _log_series_sums pass, and turn a NaN row into its
    NonConvergenceError.  Returns (values, errors by row)."""
    rows = list(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
    values, errors, planned = np.zeros(len(rows)), {}, []
    for j, args in enumerate(rows):
        try:
            plan = planner(*args)
        except Exception as exc:
            values[j], errors[j] = np.nan, exc
            continue
        if plan is not None:
            planned.append((j, plan))
    sums = sf._log_series_sums([plan for _, plan in planned])
    for (j, plan), value in zip(planned, sums):
        values[j] = value
        if math.isnan(value):
            errors[j] = sf._nonconvergence(plan)
    return values, errors


def _assert_rows_match(batch, scalar_fn, columns):
    values, errors = batch
    for j, args in enumerate(zip(*(np.asarray(c, dtype=float).tolist() for c in columns))):
        expected = _scalar_or_error(scalar_fn, *args)
        if isinstance(expected, Exception):
            assert j in errors and np.isnan(values[j])
            assert type(errors[j]) is type(expected) and str(errors[j]) == str(expected)
        else:
            assert j not in errors
            assert values[j] == expected  # bit for bit


class TestBatchKernel:
    """The planners plus the batched kernel against the one-value functions,
    row by row and bit for bit (exact ==, not approx)."""

    def test_1f1_rows(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 30.0, 300)
        b = rng.uniform(0.5, 5.0, 300)
        x = rng.exponential(40.0, 300)
        x[::17] = 0.0
        _assert_rows_match(_batch(sf._plan_1f1, (a, b, x)), log_1f1, (a, b, x))

    def test_2f1_rows_raw_and_euler(self):
        rng = np.random.default_rng(12)
        n = 300
        a = rng.uniform(0.2, 80.0, n)
        b = rng.uniform(0.2, 6.0, n)
        c = rng.uniform(0.5, 90.0, n)
        x = rng.uniform(0.0, 0.999, n)
        x[::13] = 0.0
        # Euler rows: x > 0.9 with c - a and c - b both positive
        a[:40], b[:40], c[:40], x[:40] = 0.3, 0.7, 5.0, rng.uniform(0.91, 0.999, 40)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        euler = (x > 0.9) & (c - lo > 0.0) & (c - hi > 0.0)
        assert euler.sum() >= 40 and (~euler & (x > 0.9)).any()
        _assert_rows_match(_batch(sf._plan_2f1, (a, b, c, x)), log_2f1, (a, b, c, x))

    def test_symmetric_pairs_match(self):
        # log_2f1 normalizes (a, b); the batch must do the same per row
        a, b = [3.7, 1.2], [1.2, 3.7]
        values, _ = _batch(sf._plan_2f1, (a, b, [0.5, 0.5], [0.42, 0.42]))
        assert values[0] == values[1] == log_2f1(3.7, 1.2, 0.5, 0.42)

    def test_chunk_mixing_one_block_and_long_series(self, monkeypatch):
        # rows around the first chunk boundary need ~1000 terms, the rest one block
        n = 2 * sf._CHUNK + 7
        log_x = np.full(n, math.log(0.3))
        a = np.full(n, 1.5)
        b = np.full(n, 2.0)
        long_rows = np.arange(sf._CHUNK - 6, sf._CHUNK + 6)
        log_x[long_rows] = math.log(600.0)
        log_x[-1] = math.log(900.0)
        plans = [(0.0, float(log_x[j]), (a[j],), (b[j], 1.0)) for j in range(n)]
        out = sf._log_series_sums(plans)
        for j in range(n):
            assert out[j] == sf._log_series_sum(plans[j])
        # with a one-block cap, exactly the long rows fail to converge
        monkeypatch.setattr(sf, "TERM_CAP", sf._BLOCK)
        capped = sf._log_series_sums(plans)
        assert set(np.flatnonzero(np.isnan(capped))) == {*long_rows.tolist(), n - 1}

    def test_domain_errors_per_row(self):
        a = [1.0, 0.0, 1.0, 2.0]
        b = [2.0, 1.0, 1.0, 3.0]
        c = [3.0, 1.0, 1.0, 4.0]
        x = [0.5, 0.5, 1.0, -0.1]
        _assert_rows_match(_batch(sf._plan_2f1, (a, b, c, x)), log_2f1, (a, b, c, x))
        _assert_rows_match(
            _batch(sf._plan_1f1, ([1.0, -1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, -2.0])),
            log_1f1,
            ([1.0, -1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, -2.0]),
        )

    def test_term_cap_per_row(self, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 256)
        a, b, c, x = [5.0, 1.0], [5.0, 1.0], [0.5, 2.0], [0.999999, 0.5]
        values, errors = _batch(sf._plan_2f1, (a, b, c, x))
        assert set(errors) == {0} and isinstance(errors[0], NonConvergenceError)
        _assert_rows_match((values, errors), log_2f1, (a, b, c, x))

    def test_empty_batch(self):
        assert sf._log_series_sums([]) == []
        values, errors = _batch(sf._plan_1f1, ([], [], []))
        assert len(values) == 0 and errors == {}


class TestCapCheck:
    """_check_cap against the kernel under a small cap: it rejects exactly
    the series the kernel cannot sum, up to its margin, and never one the
    kernel can sum."""

    def test_rejects_only_what_the_kernel_cannot_sum(self, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 40 * sf._BLOCK)
        rng = np.random.default_rng(21)
        a, b, c = rng.uniform(0.2, 30.0, (3, 80))
        x_1f1 = sf.TERM_CAP * rng.uniform(0.6, 1.2, 80)
        x_2f1 = 1.0 - 10 ** rng.uniform(-4.0, -1.0, 80)
        plans = [(0.0, math.log(x_1f1[j]), (a[j],), (b[j], 1.0)) for j in range(80)]
        plans += [(0.0, math.log(x_2f1[j]), (a[j], b[j]), (c[j], 1.0)) for j in range(80)]
        summed = [
            not math.isnan(value)
            for arity in (1, 2)
            for value in sf._log_series_sums([p for p in plans if len(p[2]) == arity])
        ]
        rejected = []
        for plan in plans:
            try:
                sf._check_cap(plan)
                rejected.append(False)
            except NonConvergenceError:
                rejected.append(True)
        assert not any(r and s for r, s in zip(rejected, summed))
        assert sum(rejected) > 40 and sum(summed) > 40
        # and lets none through that the kernel cannot sum
        assert not any(not r and not s for r, s in zip(rejected, summed))

    def test_near_cap_series_fails_fast(self):
        # 1F1(1; 1; x) = e^x sums the Poisson terms x^i / i!, which peak at
        # i = floor(x); at this x the term at the real TERM_CAP is e^0.5 above
        # _LOG_TERM_FLOOR relative to the peak, so the kernel cannot stop
        x = 9973065.0
        peak = math.floor(x)
        drop = (sf.TERM_CAP - peak) * math.log(x) - (
            math.lgamma(sf.TERM_CAP + 1.0) - math.lgamma(peak + 1.0)
        )
        assert 0.25 < drop - sf._LOG_TERM_FLOOR < 0.75
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError):
            log_1f1(1.0, 1.0, x)
        assert time.perf_counter() - start < 0.01

    def test_planners_reject_through_the_bound(self):
        # a one-ratio bound above 1, where its power would overflow, goes to
        # the exact test: x = 1e7 peaks at the cap, x = 6e6 well inside it
        with pytest.raises(NonConvergenceError):
            sf._plan_1f1(2.0, 1.0, 1e7)
        assert sf._plan_1f1(2.0, 1.0, 6e6) == (0.0, math.log(6e6), (2.0,), (1.0, 1.0))
        with pytest.raises(NonConvergenceError):
            sf._plan_2f1(3.0, 4.0, 0.5, 1.0 - 1e-9)
