"""Unit and property tests for the log-domain special functions.

Expected values marked as frozen were computed once with mpmath at 60 digits
(direct series summation, not mpmath's hypergeometric routines, for the
series cross-checks) and pasted in; the tests themselves stay double-only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bffkit.specfun as sf
from bffkit.specfun import (
    LogValue,
    NonConvergenceError,
    digamma,
    log_1f1,
    log_2f1,
    log_gamma,
    log_gamma_half_ratio,
    log_pochhammer,
    trigamma,
)

EULER_GAMMA = 0.57721566490153286


class TestLogValue:
    def test_zero_and_one(self):
        assert LogValue.zero().sign == 0
        assert LogValue.one().sign == 1
        assert LogValue.one().log_magnitude == 0.0
        assert LogValue.zero().value() == 0.0

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            LogValue(0.0, 2)

    def test_signed_add(self):
        a = LogValue(math.log(3.0), 1)
        b = LogValue(math.log(2.0), -1)
        s = a.plus(b)
        assert s.sign == 1
        assert s.log_magnitude == pytest.approx(0.0, abs=1e-15)
        s = b.plus(a)
        assert s.log_magnitude == pytest.approx(0.0, abs=1e-15)

    def test_add_zero(self):
        a = LogValue(1.5, -1)
        assert a.plus(LogValue.zero()) == a
        assert LogValue.zero().plus(a) == a

    def test_exact_cancellation(self):
        a = LogValue(2.0, 1)
        assert a.plus(LogValue(2.0, -1)).sign == 0

    def test_scaled(self):
        a = LogValue(1.0, 1).scaled(2.0, -1)
        assert a == LogValue(3.0, -1)
        assert LogValue.zero().scaled(5.0) == LogValue.zero()

    def test_value_overflow_to_inf(self):
        assert LogValue(1e6, 1).value() == math.inf
        assert LogValue(1e6, -1).value() == -math.inf

    def test_huge_range_representable(self):
        # magnitudes beyond e^(+-1e6) must round-trip through the log field
        v = LogValue(3.2e6, 1)
        assert math.isfinite(v.log_magnitude)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_against_high_precision_series(self):
        # frozen: mpmath 60-digit log(Gamma(10.3))
        assert log_gamma(10.3) == pytest.approx(13.48203678613835697, rel=1e-13)

    def test_relative_error_contract(self):
        # spot checks across [0.5, 1e6] against the Stirling-based identity
        # lgamma(x+1) = lgamma(x) + log(x)
        for x in (0.5, 1.7, 42.0, 9999.5, 1e6 - 1):
            assert log_gamma(x + 1.0) == pytest.approx(
                log_gamma(x) + math.log(x), rel=1e-13, abs=1e-13
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)


class TestPsiFunctions:
    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

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
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)
            assert trigamma(x + 1.0) == pytest.approx(
                trigamma(x) - 1.0 / (x * x), abs=1e-10
            )

    def test_domain(self):
        for fn in (digamma, trigamma):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(-1.0)


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


class TestLogPochhammer:
    def test_empty_product(self):
        assert log_pochhammer(3.7, 0) == 0.0

    def test_factorial(self):
        assert log_pochhammer(1.0, 5) == pytest.approx(math.log(120.0), rel=1e-14)

    def test_direct_product(self):
        expected = sum(math.log(2.5 + k) for k in range(7))
        assert log_pochhammer(2.5, 7) == pytest.approx(expected, rel=1e-13)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            log_pochhammer(1.0, -1)


class Test1F1:
    def test_at_zero(self):
        assert log_1f1(2.0, 3.0, 0.0) == LogValue.one()

    @pytest.mark.parametrize("x", [1.0, 50.0, 500.0, 5000.0])
    def test_exponential_identity(self, x):
        # 1F1(1,1,x) = e^x
        val = log_1f1(1.0, 1.0, x).log_magnitude
        assert abs(val - x) / x <= 1e-12

    def test_against_direct_summation(self):
        # frozen: 200-term extended-precision direct sum of 1F1(1.5, 0.5, 2)
        assert log_1f1(1.5, 0.5, 2.0).log_magnitude == pytest.approx(
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
            assert log_1f1(a, b, x).log_magnitude == pytest.approx(ref, rel=1e-12)

    @given(
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
        x=st.floats(0.01, 200.0),
        bump=st.floats(1.01, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_x(self, a, b, x, bump):
        assert log_1f1(a, b, x * bump).log_magnitude > log_1f1(a, b, x).log_magnitude

    def test_finite_at_extremes(self):
        assert math.isfinite(log_1f1(1e4, 0.5, 1e6).log_magnitude)
        assert math.isfinite(log_1f1(2.5, 1.5, 1e6).log_magnitude)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_1f1(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_1f1(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            log_1f1(1.0, 1.0, -0.5)


class Test2F1:
    def test_at_zero(self):
        assert log_2f1(1.0, 2.0, 3.0, 0.0) == LogValue.one()

    def test_closed_form(self):
        # 2F1(1,1,2,x) = -ln(1-x)/x
        x = 0.5
        assert log_2f1(1.0, 1.0, 2.0, x).log_magnitude == pytest.approx(
            math.log(-math.log1p(-x) / x), abs=1e-12
        )

    def test_against_direct_summation(self):
        # frozen: extended-precision direct sum of 2F1(50.5, 1.5, 0.5, 0.3)
        assert log_2f1(50.5, 1.5, 0.5, 0.3).log_magnitude == pytest.approx(
            21.802746817329864, rel=1e-12
        )

    def test_symmetry_bit_for_bit(self):
        a = log_2f1(3.7, 1.2, 0.5, 0.42)
        b = log_2f1(1.2, 3.7, 0.5, 0.42)
        assert a.log_magnitude == b.log_magnitude

    def test_euler_transformation_branch(self):
        # c - a and c - b positive, x > 0.9: frozen mpmath reference
        assert log_2f1(0.2, 0.3, 5.0, 0.95).log_magnitude == pytest.approx(
            0.013217203167140253, rel=1e-10
        )

    def test_raw_series_near_one(self):
        # in-scope t/F calls have c - a < 0, so the raw series must hold up
        # close to the x < 1 boundary
        v = log_2f1(121.0, 13.37, 1.5, 0.9995).log_magnitude
        assert v == pytest.approx(1046.3217403, rel=1e-8)

    def test_one_f_one_limit_law(self):
        # 2F1(a, b, c, x/b) -> 1F1(a, c, x) monotonically as b grows
        for a, c, x in [(1.5, 0.5, 2.0), (3.0, 1.5, 10.0)]:
            target = log_1f1(a, c, x).log_magnitude
            gaps = [
                abs(
                    math.expm1(
                        log_2f1(a, b, c, x / b).log_magnitude - target
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
            log_2f1(a, b, c, x2).log_magnitude
            >= log_2f1(a, b, c, x).log_magnitude
        )

    def test_finite_at_extreme_parameters(self):
        # parameters up to 1e4; the series peak sits near a*x/(1-x) terms, so
        # this converges (slowly) without overflowing anything
        assert math.isfinite(log_2f1(1e4, 2.0, 0.5, 0.99).log_magnitude)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_2f1(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_2f1(1.0, 1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            log_2f1(0.0, 1.0, 1.0, 0.5)

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 256)
        with pytest.raises(NonConvergenceError):
            log_2f1(5.0, 5.0, 0.5, 0.999999)


def _scalar_or_error(fn, *args):
    try:
        return fn(*args).log_magnitude
    except Exception as exc:  # compared by type and message
        return exc


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
    """log_1f1_batch / log_2f1_batch against the one-value functions, row by
    row and bit for bit (exact ==, not approx)."""

    def test_1f1_rows(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 30.0, 300)
        b = rng.uniform(0.5, 5.0, 300)
        x = rng.exponential(40.0, 300)
        x[::17] = 0.0
        _assert_rows_match(sf.log_1f1_batch(a, b, x), log_1f1, (a, b, x))

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
        _assert_rows_match(sf.log_2f1_batch(a, b, c, x), log_2f1, (a, b, c, x))

    def test_symmetric_pairs_match(self):
        # log_2f1 normalizes (a, b); the batch must do the same per row
        a, b = [3.7, 1.2], [1.2, 3.7]
        values, _ = sf.log_2f1_batch(a, b, [0.5, 0.5], [0.42, 0.42])
        assert values[0] == values[1] == log_2f1(3.7, 1.2, 0.5, 0.42).log_magnitude

    def test_chunk_mixing_one_block_and_long_series(self, monkeypatch):
        # rows around the first chunk boundary need ~1000 terms, the rest one block
        n = 2 * sf._CHUNK + 7
        log_x = np.full(n, math.log(0.3))
        a = np.full(n, 1.5)
        b = np.full(n, 2.0)
        long_rows = np.arange(sf._CHUNK - 6, sf._CHUNK + 6)
        log_x[long_rows] = math.log(600.0)
        log_x[-1] = math.log(900.0)
        out = sf._log_series_sums(log_x, (a,), (b, 1.0))
        for j in range(n):
            assert out[j] == sf._log_series_sum(float(log_x[j]), (a[j],), (b[j], 1.0))
        # with a one-block cap, exactly the long rows fail to converge
        monkeypatch.setattr(sf, "TERM_CAP", sf._BLOCK)
        capped = sf._log_series_sums(log_x, (a,), (b, 1.0))
        assert set(np.flatnonzero(np.isnan(capped))) == {*long_rows.tolist(), n - 1}

    def test_domain_errors_per_row(self):
        a = [1.0, 0.0, 1.0, 2.0]
        b = [2.0, 1.0, 1.0, 3.0]
        c = [3.0, 1.0, 1.0, 4.0]
        x = [0.5, 0.5, 1.0, -0.1]
        _assert_rows_match(sf.log_2f1_batch(a, b, c, x), log_2f1, (a, b, c, x))
        _assert_rows_match(
            sf.log_1f1_batch([1.0, -1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, -2.0]),
            log_1f1,
            ([1.0, -1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, -2.0]),
        )

    def test_term_cap_per_row(self, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 256)
        a, b, c, x = [5.0, 1.0], [5.0, 1.0], [0.5, 2.0], [0.999999, 0.5]
        values, errors = sf.log_2f1_batch(a, b, c, x)
        assert set(errors) == {0} and isinstance(errors[0], NonConvergenceError)
        _assert_rows_match((values, errors), log_2f1, (a, b, c, x))

    def test_empty_batch(self):
        values, errors = sf.log_1f1_batch([], [], [])
        assert len(values) == 0 and errors == {}
