"""Unit and property tests for the log-domain special functions.

Expected values marked as frozen were computed once with mpmath at 60 digits
(direct series summation, not mpmath's hypergeometric routines, for the
series cross-checks) and pasted in.  The property test of the kernels on
mixed plans compares with mpmath as it runs; the other tests stay
double-only.
"""

import contextlib
import math
import sys
import threading
import time

import mpmath
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


def _empty_rows(monkeypatch):
    """Empty the one-value kernel's cache of ratio rows (specfun._ROWS)."""
    monkeypatch.setattr(sf, "_ROWS", {})


@pytest.fixture(autouse=True)
def _from_empty_rows(monkeypatch):
    # every test starts from an empty cache, so the bit-for-bit tests run
    # the fill of each first call; TestRowCache and the call-schedule tests
    # fill and empty it themselves
    _empty_rows(monkeypatch)


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

    def test_domain(self):
        # inf would reach the Stirling branch as inf * 0 and come back NaN
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="requires finite x > 0"):
                log_gamma_half_ratio(x)


class Test1F1:
    def test_at_zero(self):
        assert log_1f1(2.0, 3.0, 0.0) == 0.0
        # P_0 = a / b overflows; at x = 0 no ratio is formed
        assert log_1f1(6.6e245, 6.6e-172, 0.0) == 0.0
        assert _sums(np.array([(0.0, 6.6e245, 6.6e-172)])).tolist() == [0.0]

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
        with pytest.raises(ValueError):
            log_1f1(math.inf, 1.0, 1.0)


class Test2F1:
    def test_at_zero(self):
        assert log_2f1(1.0, 2.0, 3.0, 0.0) == 0.0
        # P_0 = a b / c overflows; at x = 0 no ratio is formed
        assert log_2f1(1e300, 1e300, 1e-10, 0.0) == 0.0
        assert _sums(np.array([(0.0, 1e300, 1e300, 1e-10)])).tolist() == [0.0]

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

    def test_steep_series_of_a_tiny_x_warns_nothing(self):
        # x max(a, c) underflows to 0 here, while the term ratios reach
        # x b / 1 = 2.1e5: a steep first block, which overflows, so the
        # kernel must not take the series as quiet (a RuntimeWarning is an
        # error under the tests' filterwarnings); frozen: a direct 40-digit
        # mpmath sum of the series gives log 211878.55224682254
        assert log_2f1(1.1544e290, 5.563e-96, 6.062e-86, 1.8356e-285) == 211878.5522468225

    def test_raw_series_near_one_with_c_above_a_and_b(self):
        # c - a and c - b positive, x > 0.9: the raw series, whose terms fall
        # like i^(a+b-c-1) x^i; frozen mpmath reference
        assert log_2f1(0.2, 0.3, 5.0, 0.95) == pytest.approx(
            0.013217203167140253, rel=1e-10
        )

    def test_raw_series_within_1e6_of_one(self):
        # terms fall like i^-5 x^i, so the raw series stops within a few
        # thousand terms, while the Euler-transformed series, 2F1(4.7, 4.3;
        # 5; x), cannot stop within TERM_CAP; frozen mpmath reference at the
        # double nearest 1 - 1e-6
        assert log_2f1(0.3, 0.7, 5.0, 1.0 - 1e-6) == pytest.approx(
            0.052387036893301016, rel=1e-10, abs=0.0
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
        with pytest.raises(ValueError):
            log_2f1(1.0, math.inf, 2.0, 0.5)

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 256)
        with pytest.raises(NonConvergenceError):
            log_2f1(5.0, 5.0, 0.5, 0.999999)
        # caps between blocks and at block ends (3 and 7 blocks, call edges
        # of the one-value kernel's doubling from a first block alone): a
        # 2-block series still sums, a 100-block one raises;
        # TestCallSchedule moves the call edges over these caps
        short = log_2f1(2.5, 3.5, 1.5, 0.69)
        for cap in (300, 5 * sf._BLOCK + 5, 3 * sf._BLOCK, 7 * sf._BLOCK):
            monkeypatch.setattr(sf, "TERM_CAP", cap)
            assert log_2f1(2.5, 3.5, 1.5, 0.69) == short
            with pytest.raises(NonConvergenceError):
                log_2f1(2.5, 3.5, 1.5, 0.9961)


def _scalar_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return exc


def _sums(plans) -> np.ndarray:
    """The batched kernel on the plans (x, *num, c), the rows of the array
    plans: their x over a new _Blocks of their parameters, row for row."""
    blocks = sf._Blocks(list(plans[:, 1:-1].T), plans[:, -1])
    return sf._log_series_sums(plans[:, 0], blocks, np.arange(len(plans)))


def _batch(planner, columns):
    """The planners and the batched kernel: plan every row, sum the planned
    rows in one _log_series_sums pass, and turn a NaN row into its
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
    sums = _sums(np.array([plan for _, plan in planned], dtype=float).reshape(-1, len(columns)))
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


# Blocks after which the series of 1F1(1.5, 2; x) and 2F1(2.5, 3.5; 1.5; x)
# stop, at the x of _X_1F1 and _X_2F1.  They cross every edge of the
# doubling that _log_series_sum falls back to (calls of 1, 2, 4, ...
# blocks) and of its _MAX_BLOCKS blocks per call.
_BLOCKS = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33, 64, 65, 100)
_X_1F1 = (10.0, 60.0, 150.0, 250.0, 560.0, 670.0, 1460.0, 1570.0, 3340.0, 3460.0, 3580.0, 7320.0, 7450.0,
          11740.0)
_X_2F1 = (0.1, 0.69, 0.83, 0.88, 0.9376, 0.9463, 0.9728, 0.9746, 0.9872, 0.9876, 0.988, 0.9939, 0.994,
          0.9961)


def _block_plans():
    """[(plans, blocks)] for 1F1 and 2F1: the plans at x = 0 and at the x of
    _X_1F1 or _X_2F1 as the rows of an array, and the blocks each stops
    after."""
    out = []
    for xs, params in ((_X_1F1, (1.5, 2.0)), (_X_2F1, (2.5, 3.5, 1.5))):
        out.append((np.array([(v, *params) for v in (0.0, *xs)]), np.array((1, *_BLOCKS))))
    return out


def _x_of(s, tau_sq):
    """A closed form's series argument, as bayes_factors forms it."""
    return s * tau_sq / (1.0 + tau_sq)


# Plans whose first blocks leave the linear range, so that the kernels sum
# those blocks in logs (_log_block), with the log of their sums: frozen
# mpmath values at 60 digits, and 1F1(1; 1; x) = e^x.  The first block of
# 1F1(1.5, 2; x) rises 787 nats at x = 2e4 (701 at 11740, the last x of
# _X_1F1, which stays linear); the two-sided z form at z = 2000 and the
# two-sided t form at t = 300 and nu = 1e8 are both at tau_sq = 1e3 and
# r = 1, and the z form's first 74 blocks leave the range.
_STEEP_1F1 = (
    ((20000.0, 1.5, 2.0), 19995.16902596105466296858),
    ((_x_of(2000.0**2 / 2.0, 1e3), 1.5, 0.5), 1998017.19880766705863884),
    ((20000.0, 1.0, 1.0), 20000.0),
)
_STEEP_2F1 = (
    ((_x_of(300.0**2 / (1e8 + 300.0**2), 1e3), 1.5, (1e8 + 1.0) / 2.0, 0.5), 44946.21414208927772629166),
)


def _agrees(value, reference):
    """Relative 1e-13, absolute where |reference| < 1."""
    return abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


def _count_log_blocks(monkeypatch):
    """The rows of each _log_block call, as a list that fills as it runs."""
    calls, real = [], sf._log_block
    monkeypatch.setattr(sf, "_log_block", lambda ratios: (calls.append(len(ratios)), real(ratios))[1])
    return calls


def _count_ratio_rows(monkeypatch):
    """The _ratio_rows calls, as a list that fills as it runs."""
    calls, real = [], sf._ratio_rows
    monkeypatch.setattr(sf, "_ratio_rows", lambda *args: (calls.append(1), real(*args))[1])
    return calls


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
        # Euler rows: x > 0.9 with c - a and c - b both positive, where an
        # Euler transform would apply; the raw series sums them as any row
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
        x = np.full(n, 0.3)
        a = np.full(n, 1.5)
        b = np.full(n, 2.0)
        long_rows = np.arange(sf._CHUNK - 6, sf._CHUNK + 6)
        x[long_rows] = 600.0
        x[-1] = 900.0
        plans = np.column_stack([x, a, b])
        out = _sums(plans)
        for j in range(n):
            assert out[j] == sf._log_series_sum(tuple(plans[j].tolist()))
        for plans_k, _ in _block_plans():
            out_k = _sums(plans_k)
            for plan, value in zip(plans_k.tolist(), out_k.tolist()):
                assert sf._log_series_sum(tuple(plan)) == value
        # the plans of _block_plans need exactly their blocks
        for plans_k, blocks in _block_plans():
            for cap in _BLOCKS:
                monkeypatch.setattr(sf, "TERM_CAP", cap * sf._BLOCK)
                assert np.array_equal(np.isnan(_sums(plans_k)), blocks > cap)
        # with a one-block cap, exactly the long rows fail to converge
        monkeypatch.setattr(sf, "TERM_CAP", sf._BLOCK)
        capped = _sums(plans)
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
        # the one-value kernel raises on exactly the plans the batched one
        # leaves NaN, those of more blocks than start below the cap; the
        # caps fall between blocks (300, 5 blocks + 5) and at block ends (3
        # and 7 blocks); TestCallSchedule moves the one-value kernel's call
        # edges over these caps
        for cap in (300, 5 * sf._BLOCK + 5, 3 * sf._BLOCK, 7 * sf._BLOCK):
            monkeypatch.setattr(sf, "TERM_CAP", cap)
            for plans, blocks in _block_plans():
                sums = _sums(plans)
                assert np.array_equal(np.isnan(sums), blocks > -(-cap // sf._BLOCK))
                for plan, value in zip(plans.tolist(), sums.tolist()):
                    if math.isnan(value):
                        with pytest.raises(NonConvergenceError):
                            sf._log_series_sum(tuple(plan))
                    else:
                        assert sf._log_series_sum(tuple(plan)) == value

    def test_steep_rows_against_mpmath(self, monkeypatch):
        # each plan among mild rows of one chunk: both kernels agree bit for
        # bit, sum its first block in logs, and agree with the reference
        calls = _count_log_blocks(monkeypatch)
        for steep, params in ((_STEEP_1F1, (1.5, 2.0)), (_STEEP_2F1, (2.5, 3.5, 1.5))):
            for plan, reference in steep:
                rows = [(x, *params) for x in (0.3, 0.5, 0.8, 0.05)]
                rows.insert(2, plan)
                calls.clear()
                sums = _sums(np.array(rows))
                assert calls and max(calls) == 1  # the steep row alone
                calls.clear()
                assert sf._log_series_sum(plan) == sums[2] and calls
                assert _agrees(sums[2], reference), (plan, sums[2], reference)
                for row, value in zip(rows, sums.tolist()):
                    assert sf._log_series_sum(row) == value

    def test_domain_switch_at_a_block_boundary(self, monkeypatch):
        # 1F1(1.5, 2; 2e4) needs 166 blocks; only its first leaves the
        # linear range, so the row switches to the linear fold after one
        # block in logs, while the other rows of its chunk never leave it
        calls = _count_log_blocks(monkeypatch)
        plan, reference = _STEEP_1F1[0]
        rows = np.array([(x, 1.5, 2.0) for x in (0.0, 1e-300, 3.0, 600.0, 11740.0)] + [plan])
        sums = _sums(rows)
        assert calls == [1]
        assert _agrees(sums[-1], reference)
        for row, value in zip(rows.tolist(), sums.tolist()):
            assert sf._log_series_sum(tuple(row)) == value
        monkeypatch.setattr(sf, "TERM_CAP", 165 * sf._BLOCK)
        assert np.isnan(_sums(rows)).tolist() == [False] * 5 + [True]

    def test_zero_and_tiny_x(self):
        # at x = 0 every term after the first is 0; at tiny x the products
        # underflow to 0 within the first block, which stops there, and the
        # log of the sum is the first term a x / b (a b x / c for 2F1), well
        # below 1e-13 from the second on
        xs = (0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-12)
        for params in ((1.5, 2.0), (2.5, 3.5, 1.5)):
            *num, c = params
            rows = np.array([(x, *params) for x in xs] + [(0.5, *params)])
            sums = _sums(rows)
            for row, value in zip(rows.tolist(), sums.tolist()):
                assert sf._log_series_sum(tuple(row)) == value
            for x, value in zip(xs, sums.tolist()):
                assert _agrees(value, x * math.prod(num) / c), (params, x, value)
            assert sums[0] == 0.0

    @given(
        arity=st.sampled_from([1, 2]),
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.just(0.0),
                    st.floats(1e-320, 1e-250),
                    st.floats(0.01, 60.0),
                    st.floats(500.0, 30000.0),
                ),
                st.floats(0.1, 50.0),
                st.floats(0.1, 50.0),
                st.floats(0.5, 50.0),
            ),
            min_size=4,
            max_size=12,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_plans_against_mpmath(self, arity, rows):
        # rows of every kind in one chunk: x = 0, products that underflow,
        # and, for 1F1, first blocks that leave the linear range from
        # x = 1.1e4 on; 2F1 rows take x to 0.9 x / (1 + x)
        if arity == 1:
            plans = [(x, a, b) for x, a, b, _ in rows]
        else:
            plans = [(0.9 * x / (1.0 + x), a, b, c) for x, a, b, c in rows]
        sums = _sums(np.array(plans))
        for plan, value in zip(plans, sums.tolist()):
            assert sf._log_series_sum(plan) == value
            x, *num, c = plan
            with mpmath.workdps(30):
                series = mpmath.hyp1f1(*num, c, x) if arity == 1 else mpmath.hyp2f1(*num, c, x)
                reference = float(mpmath.log(series))
            assert _agrees(value, reference), (plan, value, reference)

    def test_empty_batch(self):
        assert _sums(np.empty((0, 3))).shape == (0,)
        values, errors = _batch(sf._plan_1f1, ([], [], []))
        assert len(values) == 0 and errors == {}


# Block estimates that TestCallSchedule forces on _log_series_sum: a first
# block alone, a few blocks, each side of _MAX_BLOCKS, and a failed
# estimate.
_FORCED_ESTIMATES = (1.0, 2.0, 3.0, 31.0, 32.0, 33.0, math.nan)
# The caps of TestBatchKernel::test_term_cap_per_row and
# Test2F1::test_term_cap_raises.
_CAPS = (256, 300, 5 * sf._BLOCK + 5, 3 * sf._BLOCK, 7 * sf._BLOCK)

# The planners' domain for TestCallSchedule's estimate tests: x = 0 and
# subnormal x, and parameters from tiny to 1e17 and near the largest double.
_TINY_X = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308))
_PARAMS = st.one_of(
    st.floats(1e-300, 1e3),
    st.floats(1e3, 1e17),
    st.floats(1e300, 1.7976931348623157e308),
)


def _force_estimate(monkeypatch, blocks):
    monkeypatch.setattr(sf, "_estimate_blocks", lambda x, num, c: blocks)


def _one_value_or_nan(plan):
    """_log_series_sum of plan, NaN where it raises NonConvergenceError."""
    try:
        return sf._log_series_sum(tuple(plan))
    except NonConvergenceError:
        return math.nan


def _cache_states(monkeypatch, plans):
    """_one_value_or_nan of every plan, three times: each plan from an empty
    cache; all again, warm; and all again with the cache emptied halfway."""
    cold = []
    for plan in plans:
        _empty_rows(monkeypatch)
        cold.append(_one_value_or_nan(plan))
    warm = [_one_value_or_nan(plan) for plan in plans]
    half = len(plans) // 2
    cleared = [_one_value_or_nan(plan) for plan in plans[:half]]
    _empty_rows(monkeypatch)
    cleared += [_one_value_or_nan(plan) for plan in plans[half:]]
    return cold, warm, cleared


def _doubling_calls(blocks):
    """The numpy calls of the doubling from a first block alone (1, 2, 4,
    ... blocks per call, up to _MAX_BLOCKS) on a series of blocks."""
    calls, done, k = 1, 1, 2
    while done < blocks:
        calls, done, k = calls + 1, done + k, min(2 * k, sf._MAX_BLOCKS)
    return calls


class TestCallSchedule:
    """How _log_series_sum groups blocks into numpy calls: it changes no
    value, and a series the estimate covers takes one call."""

    def test_any_grouping_gives_the_batched_values(self, monkeypatch):
        groups = [plans.tolist() for plans, _ in _block_plans()]
        groups += [[plan for plan, _ in steep] for steep in (_STEEP_1F1, _STEEP_2F1)]
        expected = [_sums(np.array(group)).tolist() for group in groups]
        for blocks in _FORCED_ESTIMATES:
            _force_estimate(monkeypatch, blocks)
            for group, sums in zip(groups, expected):
                for values in _cache_states(monkeypatch, group):
                    assert values == sums, blocks

    def test_any_grouping_raises_where_the_batched_kernel_is_nan(self, monkeypatch):
        # each cap, a call edge of some forced estimate, splits no value:
        # every plan sums as the batched kernel does or raises where it is NaN
        groups = [plans.tolist() for plans, _ in _block_plans()] + [[(0.999999, 5.0, 5.0, 0.5)]]
        for cap in _CAPS:
            monkeypatch.setattr(sf, "TERM_CAP", cap)
            expected = [_sums(np.array(group)).tolist() for group in groups]
            for blocks in _FORCED_ESTIMATES:
                _force_estimate(monkeypatch, blocks)
                for group, sums in zip(groups, expected):
                    for values in _cache_states(monkeypatch, group):
                        assert np.array_equal(values, sums, equal_nan=True), (cap, blocks)

    def test_calls_per_series(self, monkeypatch):
        # from an empty cache, a series the estimate covers takes one numpy
        # call, a longer one _MAX_BLOCKS blocks per call, with at most one
        # call more for an estimate one block short; a failed estimate falls
        # back to the doubling from a first block alone, which takes 6 calls
        # at 33 blocks.  Repeated, a series takes its first call's rows
        # from the cache, with no call to _ratio_rows for that call.  A
        # plan at x = 0 forms no ratio, cold or warm.
        calls = _count_ratio_rows(monkeypatch)

        def cold_and_warm_calls(plan):
            _empty_rows(monkeypatch)
            counts = []
            for _ in range(2):
                calls.clear()
                sf._log_series_sum(tuple(plan))
                counts.append(len(calls))
            return counts

        for failed in (None, math.nan, math.inf):
            if failed is not None:
                _force_estimate(monkeypatch, failed)
            for plans, blocks in _block_plans():
                for plan, n in zip(plans.tolist(), blocks.tolist()):
                    cold, warm = cold_and_warm_calls(plan)
                    if plan[0] == 0.0:
                        assert cold == warm == 0, (failed, plan)
                        continue
                    if failed is None:
                        assert cold <= -(-n // sf._MAX_BLOCKS) + 1, (plan, n, cold)
                    else:
                        assert cold == _doubling_calls(n), (failed, plan, n)
                    assert warm == cold - 1, (failed, plan, n, cold, warm)

    @given(
        x=st.one_of(_TINY_X, st.floats(0.0, 1e7)),
        a=_PARAMS,
        c=_PARAMS,
    )
    @settings(max_examples=200, deadline=None)
    def test_1f1_estimate_over_the_planners_domain(self, x, a, c):
        blocks = sf._blocks(x, [a], c)
        assert type(blocks) is int and 1 <= blocks <= sf._MAX_BLOCKS, (x, a, c, blocks)

    @given(
        x=st.one_of(
            _TINY_X,
            st.floats(0.0, 1.0, exclude_max=True),
            st.floats(-12.0, 0.0).map(lambda e: 1.0 - 10.0**e),
        ),
        a=_PARAMS,
        b=_PARAMS,
        c=_PARAMS,
    )
    @settings(max_examples=200, deadline=None)
    def test_2f1_estimate_over_the_planners_domain(self, x, a, b, c):
        blocks = sf._blocks(x, [a, b], c)
        assert type(blocks) is int and 1 <= blocks <= sf._MAX_BLOCKS, (x, a, b, c, blocks)


def _chunk_groups():
    """Plan arrays for the batched kernel: 1F1 and 2F1 rows of 1 to 100
    blocks over two parameter tuples each, steep rows (but the z form of
    16,000 blocks), and x = 0 rows (one whose P_0 overflows), each array's
    rows at x > 0 one full chunk of the kernel and a partial one."""
    groups = []
    for xs, steep, params in ((_X_1F1, _STEEP_1F1, ((1.5, 2.0), (4.0, 0.5))),
                              (_X_2F1, _STEEP_2F1, ((2.5, 3.5, 1.5), (0.5, 9.0, 3.0)))):
        rows = [(x, *p) for p in params for x in (0.0, *xs)] + [plan for plan, _ in steep[::2]]
        rows.append((0.0, *[1e300] * (len(params[0]) - 1), 1e-300))
        rows = (rows * (sf._CHUNK // len(rows) + 8))[: sf._CHUNK + 256]
        groups.append(np.array(rows))
    return groups


def _held(plans):
    """A _Blocks of the distinct parameter rows (*num, c) of plans, in
    descending order, and each plan's row in it."""
    params, rows = np.unique(plans[:, 1:], axis=0, return_inverse=True)
    params = params[::-1]
    return sf._Blocks(list(params[:, :-1].T), params[:, -1]), len(params) - 1 - rows.ravel()


class TestRowCache:
    """The one-value kernel's cache of statistic-free ratio rows
    (specfun._ROWS): read-only rows that own their buffers, one entry per
    parameter tuple, and a cap in rows that changes no value.  The batched
    kernel keeps no entry there."""

    def test_rows_are_read_only(self):
        for plans, _ in _block_plans():
            for plan in plans.tolist():
                sf._log_series_sum(tuple(plan))
        assert len(sf._ROWS) == 2
        for plans in _chunk_groups():
            _sums(plans)
        assert len(sf._ROWS) == 2
        for rows in sf._ROWS.values():
            assert not rows.flags.writeable and rows.base is None
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0

    def test_another_statistic_takes_the_cached_rows(self, monkeypatch):
        calls = _count_ratio_rows(monkeypatch)
        expected = _sums(np.array([(10.0, 1.5, 2.0)]))[0]
        log_1f1(1.5, 2.0, 60.0)
        calls.clear()
        assert log_1f1(1.5, 2.0, 10.0) == expected
        assert calls == [] and (1.5, 2.0) in sf._ROWS

    def test_column_passes_leave_the_cap_to_series(self, monkeypatch):
        # batched passes of 3 to 29 rows between one-value series, twice
        # over, under a cap of 40 rows: every value is the one-value
        # kernel's from an empty cache, the entries never hold more than the
        # cap, and every entry is a series' own, keyed by its parameters
        plans = np.array([(x, a, 2.0) for a in (0.5, 1.5, 4.0, 7.0) for x in _X_1F1])
        expected = [sf._log_series_sum(tuple(plan)) for plan in plans.tolist()]
        _empty_rows(monkeypatch)
        monkeypatch.setattr(sf, "_ROWS_CAP", 40)
        keys = {tuple(plan[1:]) for plan in plans.tolist()}
        for j, plan in enumerate(plans.tolist() * 2):
            j %= len(plans)
            n = 3 + 13 * j % 27
            assert _sums(plans[j : j + n]).tolist() == expected[j : j + n], j
            assert sf._log_series_sum(tuple(plan)) == expected[j], j
            held = sum(len(rows) for rows in sf._ROWS.values())
            assert held <= sf._ROWS_CAP, j
            assert set(sf._ROWS) <= keys, j

    def test_symmetric_2f1_shares_one_entry(self):
        assert log_2f1(2.5, 3.5, 1.5, 0.9) == log_2f1(3.5, 2.5, 1.5, 0.9)
        assert list(sf._ROWS) == [(2.5, 3.5, 1.5)]

    def test_filling_past_the_cap(self, monkeypatch):
        # 1F1 and 2F1 series of 1 to 100 blocks over 8 parameter tuples,
        # twice over, under a cap of 40 blocks: every value is the batched
        # kernel's, and the entries never hold more than the cap
        monkeypatch.setattr(sf, "_ROWS_CAP", 40)
        one = [(x, a, 2.0) for a in (0.5, 1.5, 4.0, 7.0) for x in _X_1F1]
        two = [(x, a, 3.5, 1.5) for a in (0.5, 2.5, 6.0, 9.0) for x in _X_2F1]
        expected = _sums(np.array(one)).tolist() + _sums(np.array(two)).tolist()
        keys = 0
        for plan, value in list(zip(one + two, expected)) * 2:
            assert sf._log_series_sum(plan) == value, plan
            held = sum(len(rows) for rows in sf._ROWS.values())
            assert held <= sf._ROWS_CAP, plan
            keys = max(keys, len(sf._ROWS))
        assert keys < 8

    def test_threads_that_fill_past_the_cap(self, monkeypatch):
        # 4 threads call log_1f1 and log_2f1 at 84 points over 12 parameter
        # tuples, each in its own order, under a cap of 40 rows and switching as often as
        # the interpreter allows: every value is a serial run's, bit for bit,
        # and the rows held never pass the cap by more than one fill (the
        # serial run's largest entry) per thread
        monkeypatch.setattr(sf, "_ROWS_CAP", 40)
        calls = [(log_1f1, (a, 2.0, x)) for a in (0.5, 1.5, 2.5, 4.0, 5.5, 7.0) for x in _X_1F1[::2]]
        calls += [(log_2f1, (a, b, 1.5, x)) for a in (0.5, 2.5, 6.0) for b in (3.5, 4.5) for x in _X_2F1[::2]]
        expected, fill = [], 0
        for fn, args in calls:
            expected.append(fn(*args))
            fill = max(fill, *map(len, sf._ROWS.values()))
        start, got, held = threading.Barrier(4, timeout=10), [{} for _ in range(4)], [0] * 4

        def run(i):
            start.wait()
            for j in [*range(i, len(calls)), *range(i)][:: 1 if i % 2 else -1] * 2:
                fn, args = calls[j]
                got[i][j] = fn(*args)
                held[i] = max(held[i], sum(map(len, list(sf._ROWS.values()))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(one == dict(enumerate(expected)) for one in got)
        assert max(held) <= sf._ROWS_CAP + 4 * fill, (held, fill)


class TestHeldBlocks:
    """The batched kernel with a caller's _Blocks, by its holding rule: from
    the first call on, each block a call reaches is formed once for all the
    blocks' rows, read-only and owning its buffer, up to _PASS_CAP rows of
    blocks; and no value depends on what is held."""

    def test_held_blocks_give_one_value_cold_warm_and_capped(self, monkeypatch):
        # each row is _log_series_sum's value with a new _Blocks, in the
        # first call on a kept _Blocks (blocks filled), its second and third
        # (blocks held: no ratio formed), and past caps of no block, one
        # block and three blocks, where the kernel forms the later blocks
        # for its live rows
        calls = _count_ratio_rows(monkeypatch)
        cap = sf._PASS_CAP
        for plans in _chunk_groups():
            expected = [_one_value_or_nan(plan) for plan in plans.tolist()]
            assert _sums(plans).tolist() == expected
            blocks, rows = _held(plans)
            assert sf._log_series_sums(plans[:, 0], blocks, rows).tolist() == expected
            reached = len(blocks.held)
            # the longest row's blocks, all held
            assert 100 <= reached and (reached + 1) * len(blocks.c) <= cap
            calls.clear()
            for _ in range(2):
                assert sf._log_series_sums(plans[:, 0], blocks, rows).tolist() == expected
            assert calls == [] and len(blocks.held) == reached
            for limit in (0, 1, 3):
                monkeypatch.setattr(sf, "_PASS_CAP", limit * len(blocks.c))
                capped, rows = _held(plans)
                for _ in range(2):
                    assert sf._log_series_sums(plans[:, 0], capped, rows).tolist() == expected, limit
                assert len(capped.held) == limit
            monkeypatch.setattr(sf, "_PASS_CAP", cap)

    def test_the_first_call_holds(self, monkeypatch):
        # a first call of more than _CHUNK rows, whose second chunk starts
        # at block 0 again, and whose steep rows take their first block
        # again for _log_block, holds every block it reaches, and the
        # second call forms none; every value is _log_series_sum's
        log_blocks = _count_log_blocks(monkeypatch)
        calls = _count_ratio_rows(monkeypatch)
        for plans in _chunk_groups():
            assert np.count_nonzero(plans[:, 0]) > sf._CHUNK
            expected = [_one_value_or_nan(plan) for plan in plans.tolist()]
            blocks, rows = _held(plans)
            log_blocks.clear()
            assert sf._log_series_sums(plans[:, 0], blocks, rows).tolist() == expected
            reached = len(blocks.held)
            assert log_blocks and reached
            calls.clear()
            assert sf._log_series_sums(plans[:, 0], blocks, rows).tolist() == expected
            assert calls == [] and len(blocks.held) == reached

    def test_blocks_are_read_only_and_own_their_buffers(self):
        for plans in _chunk_groups():
            blocks, rows = _held(plans)
            sf._log_series_sums(plans[:, 0], blocks, rows)
            assert blocks.held
            for block in blocks.held.values():
                assert block.shape == (len(blocks.c), sf._BLOCK)
                assert not block.flags.writeable and block.base is None
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0

    def test_a_large_pass_sums_block_zero_term_major(self, monkeypatch):
        # a pass of _BY_TERM rows or more holds block 0 term-major, and its
        # calls sum that block so for a live set of _BY_TERM rows or more:
        # every row is _log_series_sum's value, for rows that stop in
        # blocks 0, 1 and 2 and later, steep rows whose block 0 overflows
        # (1F1 at x = 2e4 and e^x there, read again by column gather for
        # _log_block), rows past _CHUNK, and live sets of every row, of part
        # of the rows (x = 0 in some, a subset) and of fewer than _BY_TERM
        summed, real = [], sf._term_major_sums
        monkeypatch.setattr(
            sf, "_term_major_sums", lambda ratios: (summed.append(ratios.shape[1]), real(ratios))[1]
        )
        log_blocks = _count_log_blocks(monkeypatch)
        ((plans, _), _) = _block_plans()
        plans = np.concatenate([plans[1:], [plan for plan, _ in _STEEP_1F1[::2]]])
        for n in (sf._BY_TERM, 2 * sf._BY_TERM, sf._CHUNK + 200):
            rows = np.resize(plans, (n, 3))
            x = rows[:, 0].copy()
            zeros = x.copy()
            zeros[::7] = 0.0
            every = np.arange(n)
            subset, small = every[every % 3 > 0], every[-sf._BY_TERM + 1 :]
            blocks = sf._Blocks([rows[:, 1]], rows[:, 2])
            calls = [(x, every)] * 3 + [(zeros, every), (x[subset], subset), (x[small], small)]
            for i, (xs, index) in enumerate(calls):
                expected = [_one_value_or_nan((v, *rows[j, 1:])) for v, j in zip(xs.tolist(), index.tolist())]
                summed.clear()
                log_blocks.clear()
                assert sf._log_series_sums(xs, blocks, index).tolist() == expected, (n, i)
                assert log_blocks, (n, i)
                # the live rows of each chunk, summed term-major where they
                # are _BY_TERM or more
                live = np.count_nonzero(xs)
                chunks = [min(sf._CHUNK, live - lo) for lo in range(0, live, sf._CHUNK)]
                assert summed == [k for k in chunks if k >= sf._BY_TERM], (n, i)
            assert blocks.held[0].shape == (sf._BLOCK, n) and blocks.held[1].shape == (n, sf._BLOCK)

    def test_term_major_sums_are_the_row_major_sums(self):
        # on random ratios whose terms run from underflow to overflow, each
        # row's below, sum, largest and last term summed term-major are the
        # row-major kernel's, bit for bit: numpy's order of adding a row
        rng = np.random.default_rng(3)
        for n in (sf._BY_TERM, 560):
            for spread in (0.01, 3.0, 60.0):
                ratios = np.exp(rng.normal(0.0, spread, (n, sf._BLOCK)))
                with np.errstate(over="ignore", invalid="ignore"):
                    below, sums, maxes, lasts = sf._term_major_sums(np.ascontiguousarray(ratios.T))
                    terms = np.multiply.accumulate(ratios, axis=1)
                    sums_r, maxes_r = np.add.reduce(terms, axis=1), np.maximum.reduce(terms, axis=1)
                want = (ratios[:, -1] < 1.0, sums_r, maxes_r, terms[:, -1])
                for got, expected in zip((below, sums, maxes, lasts), want):
                    assert np.array_equal(got, expected, equal_nan=True), (n, spread)

    def test_threads_that_race_to_form_a_block(self, monkeypatch):
        # two threads on one _Blocks of _BY_TERM rows, after a first call
        # that reaches no block, each waiting for the other inside _form
        # while the block it forms is not yet held, so that both form every
        # block: every row is _log_series_sum's value in both threads, and
        # block 0 is held once, term-major
        ((plans, _), _) = _block_plans()
        rows = np.resize(plans[1:], (sf._BY_TERM, 3))
        expected = [_one_value_or_nan(plan) for plan in rows.tolist()]
        blocks, every = sf._Blocks([rows[:, 1]], rows[:, 2]), np.arange(sf._BY_TERM)
        assert sf._log_series_sums(np.zeros(sf._BY_TERM), blocks, every).tolist() == [0.0] * sf._BY_TERM
        barrier, real = threading.Barrier(2, timeout=2), sf._Blocks._form

        def form(self, j, index, out):
            if j not in self.held:
                with contextlib.suppress(threading.BrokenBarrierError):
                    barrier.wait()
            return real(self, j, index, out)

        monkeypatch.setattr(sf._Blocks, "_form", form)
        got = [None, None]

        def run(i):
            got[i] = _scalar_or_error(lambda: sf._log_series_sums(rows[:, 0], blocks, every).tolist())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == [expected, expected]
        assert blocks.held[0].shape == (sf._BLOCK, sf._BY_TERM)

    def test_a_pass_too_large_holds_nothing(self, monkeypatch):
        monkeypatch.setattr(sf, "_PASS_CAP", 4)
        plans = np.array([(0.5, 1.5, 2.0)] * 5)
        blocks = sf._Blocks([plans[:, 1]], plans[:, 2])
        for _ in range(3):
            sums = sf._log_series_sums(plans[:, 0], blocks, np.arange(5))
            assert sums.tolist() == [log_1f1(1.5, 2.0, 0.5)] * 5
        assert blocks.held == {}


# Plans whose narrow products prod(num + i) or (c + i)(1 + i) overflow:
# 2F1(a, b; a; x) = (1 - x)^-b and 1F1(a; a; x) = e^x, as (plan, log value).
# The first two raised OverflowError while P was formed narrow; the third
# overflowed without np.errstate, its bound being below _QUIET_RATIO; the
# last is wide by c alone.
_WIDE_PLANS = (
    ((1e-20, 1e10, 1e300, 1e300), 1e-10),
    ((1e-150, 1e200, 1e200, 1e300), 1e-50),
    ((1e-300, 1e10, 1e300, 1e300), 1e-290),
    ((1.0, 1e305, 1e305), 1.0),
)


class TestWidePlans:
    """Plans whose products of P's narrow form could overflow take P as
    ((a + i)/(c + i))((b + i)/(1 + i)), by one rule (specfun._wide) in both
    kernels and in _Blocks; every other plan keeps the narrow form."""

    def test_values(self):
        assert log_2f1(1e300, 1e10, 1e300, 1e-20) == log_2f1(1e10, 1e300, 1e300, 1e-20)
        for (x, *num, c), value in _WIDE_PLANS:
            assert sf._wide(num, c)
            got = (log_2f1 if len(num) == 2 else log_1f1)(*num, c, x)
            assert abs(got - value) <= 1e-16 * max(1.0, value), (num, c, x, got)

    def test_both_kernels_and_blocks_agree(self):
        # wide plans among narrow ones of the same arity, in one chunk
        for arity, narrow in ((1, (0.3, 1.5, 2.0)), (2, (0.3, 2.5, 3.5, 1.5))):
            plans = [plan for plan, _ in _WIDE_PLANS if len(plan) == 2 + arity]
            plans = np.array([narrow, *plans, narrow, *plans])
            expected = [sf._log_series_sum(tuple(plan)) for plan in plans.tolist()]
            assert _sums(plans).tolist() == expected
            blocks, rows = _held(plans)
            for _ in range(2):  # P formed and held, then read
                assert sf._log_series_sums(plans[:, 0], blocks, rows).tolist() == expected
            assert blocks.held
            # the distinct parameters in descending order: the narrow row last
            assert blocks.wide.tolist() == [True] * (len(blocks.c) - 1) + [False]

    def test_narrow_below_the_bound(self):
        # no plan whose parameters are all below 2^400 is wide, at the
        # largest index of a block that starts below TERM_CAP
        p = math.nextafter(2.0**400, 0.0)
        assert not sf._wide([p, p], p) and not sf._wide([p], p)
        assert sf._wide([1e301, 1e10], 1.0) and sf._wide([1.0], 1e301)


# The kernel property's pass sizes: a few rows, about _BY_TERM, and past
# _CHUNK.
_PASS_ROWS = st.one_of(st.integers(1, 8), st.integers(150, 170), st.integers(1000, 1050))
# The kernel property's TERM_CAP: past every row it draws to stop, and short
# enough that a row it draws past it runs to it in milliseconds.
_PROPERTY_CAP = 128 * sf._BLOCK


@st.composite
def _kernel_passes(draw):
    """(plans, calls, cap) of one function: its plan rows' parameters (*num,
    c), a 2F1's with a <= b, as the rows of an array; three to five kernel
    calls, each (x, rows), an x for each plan row rows[i]; and a _PASS_CAP
    of at most 40 of the pass's blocks, or the real one where that is lower.

    The parameters mix one to three ordinary tuples and, in half the passes,
    a wide one.  A call's rows are every row in order, a subset in order, or
    up to twice as many random rows, with repeats, in any order (past _CHUNK
    for a pass of 1,000 rows or more).  Each x is of a kind: 0, subnormal,
    small, ordinary, long enough to pass the cap, past TERM_CAP (the planner
    raises), and for a 1F1 steep (x >= 1.1e4: its first block overflows and
    is summed in logs)."""
    arity = draw(st.sampled_from((1, 2)))
    n = draw(_PASS_ROWS)
    params = draw(st.lists(st.tuples(*[st.floats(0.5, 30.0)] * (arity + 1)), min_size=1, max_size=3))
    if draw(st.booleans()):
        w = draw(st.floats(1e300, 1e306))
        params.append((w, w) if arity == 1 else (draw(st.floats(1.0, 1e3)), w, w))
    # the kinds of x, with the share of rows of each: few rows of the kinds
    # that run to many blocks, which cost as much for one row as for many
    kinds = [(st.just(0.0), 8), (st.floats(5e-324, 2.2e-308), 8), (st.floats(1e-20, 1e-8), 8)]
    if arity == 1:
        kinds += [(st.floats(0.1, 3000.0), 60), (st.floats(6000.0, 9000.0), 10), (st.floats(2e4, 3e4), 1),
                  (st.floats(1.1e4, 1.3e4), 5)]
    else:
        kinds += [(st.floats(0.1, 0.9), 60), (st.floats(0.97, 0.99), 15), (st.floats(1.0 - 1e-4, 1.0 - 1e-6), 1)]
    pool = np.array([[draw(kind) for kind, _ in kinds] for _ in range(2)]).T
    share = np.array([weight for _, weight in kinds]) / sum(weight for _, weight in kinds)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = np.array([sorted(p[:-1]) + [p[-1]] for p in params])
    plans = params[rng.integers(len(params), size=n)]
    calls = []
    for _ in range(draw(st.integers(3, 5))):
        order = draw(st.sampled_from(("every", "subset", "repeats")))
        if order == "every":
            rows = np.arange(n)
        elif order == "subset":
            rows = np.flatnonzero(rng.random(n) < rng.random())
        else:
            rows = rng.integers(n, size=rng.integers(1, 2 * n + 1))
        calls.append((pool[rng.choice(len(kinds), len(rows), p=share), rng.integers(2, size=len(rows))], rows))
    return plans, calls, min(sf._PASS_CAP, n * draw(st.integers(0, 40)))


def _planned_or_nan(plan):
    """_log_series_sum of plan, NaN where its planner raises
    NonConvergenceError."""
    x, *num, c = plan
    try:
        (sf._plan_1f1 if len(num) == 1 else sf._plan_2f1)(*num, c, x)
    except NonConvergenceError:
        return math.nan
    return sf._log_series_sum(plan)


class TestKernelPaths:
    """The batched kernel on random passes of one _Blocks, against the
    one-value kernel: whatever the pass holds, however many rows it has and
    whichever rows a call takes, every path gives each row's value."""

    @given(_kernel_passes())
    @settings(max_examples=50, deadline=None)
    def test_every_row_is_the_one_value_kernels(self, drawn):
        plans, calls, cap = drawn
        expected = {}
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(sf, "TERM_CAP", _PROPERTY_CAP)
            monkeypatch.setattr(sf, "_PASS_CAP", cap)
            blocks = sf._Blocks(list(plans[:, :-1].T), plans[:, -1])
            for x, rows in calls:
                got = sf._log_series_sums(x, blocks, rows)
                for value, plan in zip(got.tolist(), zip(x.tolist(), *plans[rows].T.tolist())):
                    if plan not in expected:
                        expected[plan] = _planned_or_nan(plan)
                    assert repr(value) == repr(expected[plan]), plan


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
        plans = [(x_1f1[j], a[j], b[j]) for j in range(80)]
        plans += [(x_2f1[j], a[j], b[j], c[j]) for j in range(80)]
        summed = [
            not math.isnan(value)
            for arity in (1, 2)
            for value in _sums(np.array([p for p in plans if len(p) == 2 + arity]))
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

    def test_rising_log_for_huge_parameters(self):
        # ln Gamma(p + TERM_CAP) - ln Gamma(p + 12345), frozen from mpmath;
        # plain lgamma subtraction is off by 2.7e-4, 0.033 and 310 nats here
        for p, expected in (
            (1e11, 252972180.6691641345561734),
            (1e13, 298966536.7205670035011591),
            (1e17, 390956233.788946570073632),
        ):
            assert abs(sf._log_gamma_ratio(p + 12345, sf.TERM_CAP - 12345) - expected) < 1e-6

    def test_huge_parameter_plans_decided_as_mpmath_says(self):
        # 2F1((nu + 1)/2, 3/2; 1/2; y^2) of a two-sided t with nu = 2e17, which
        # peaks near the cap.  By mpmath at 60 digits the term at TERM_CAP is
        # 88.57 nats below _LOG_TERM_FLOOR at y^2 = 9.95e-11 (summable, not
        # summed here: it takes seconds) and 0.327 nats above it at 9.973e-11
        a = (2e17 + 1) / 2
        assert sf._plan_2f1(a, 1.5, 0.5, 9.95e-11) == (9.95e-11, 1.5, a, 0.5)
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError):
            sf._plan_2f1(a, 1.5, 0.5, 9.973e-11)
        assert time.perf_counter() - start < 0.01

    def test_planners_reject_through_the_bound(self):
        # a one-ratio bound above 1, where its power would overflow, goes to
        # the exact test: x = 1e7 peaks at the cap, x = 6e6 well inside it
        with pytest.raises(NonConvergenceError):
            sf._plan_1f1(2.0, 1.0, 1e7)
        assert sf._plan_1f1(2.0, 1.0, 6e6) == (6e6, 2.0, 1.0)
        with pytest.raises(NonConvergenceError):
            sf._plan_2f1(3.0, 4.0, 0.5, 1.0 - 1e-9)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_column_screen_flags_every_row_the_bound_does_not_clear(self, arity):
        # rows whose h-th power of the one-ratio bound lies from e^-40 to
        # e^-34, across _plan's threshold 1e-16 = e^-36.8, plus x = 0 and
        # bounds above 1: _unclear flags every row _plan would send to
        # _check_cap, and clears the rows well below the threshold
        rng = np.random.default_rng(31)
        h = 0.5 * sf.TERM_CAP
        num = [rng.uniform(0.5, 300.0, 400) for _ in range(arity)]
        c = rng.uniform(0.5, 50.0, 400)
        log_power = rng.uniform(-40.0, -34.0, 400)
        per_x = sf._ratio_bound(num, c, 1.0)
        x = np.exp(log_power / h) / per_x
        x[:5], x[5:10] = 0.0, rng.uniform(1.0, 2.0, 5) / per_x[5:10]
        flagged = sf._unclear(num, c, x)
        for j in range(400):
            bound = sf._ratio_bound([p[j] for p in num], c[j], float(x[j]))
            if bound >= 1.0 or bound**h > 1e-16:
                assert flagged[j], j
        assert flagged[5:10].all() and not flagged[:5].any()
        assert not flagged[10:][log_power[10:] < -38.0].any()
