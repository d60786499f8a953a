"""Log-domain special functions.

Everything here returns natural logs, as plain floats, so that callers never
touch quantities like 1F1(13, 0.5, 900), whose linear value overflows double
precision by hundreds of orders of magnitude.  The hypergeometric series are
summed by streaming log-sum-exp over buffered blocks of terms; all in-scope
calls have positive parameters and non-negative argument, so every term is
positive and the series is unimodal in the term index.

Each hypergeometric function is its raw power series, evaluated in two
steps.  A planner (_plan_1f1, _plan_2f1) checks the arguments and returns
the plan, the row (log x, *num, c) of the series sum t_i with t_0 = 1 and
t_{i+1}/t_i = x prod(num + i) / ((c + i)(1 + i)); one body, _plan, builds
every row and rejects a series that cannot stop within TERM_CAP terms.  A
block kernel then sums the plan: _log_series_sum one plan, as log_1f1 and
log_2f1 do, or _log_series_sums an array of plans of one length at once, as
bayes_factors.log_bf10_batch does (the blocked log-sum-exp of Pearson, Olver
& Porter, arXiv:1407.7786, run over a batch axis).  A caller that builds its
plan rows as columns screens them with _unclear, which tests _plan's
one-ratio bound on every row at once, and plans only the rows it flags one
by one.  The batched kernel takes its rows in chunks, and each block
advances every live row of a chunk together.  The one-plan kernel takes its
first block alone and then 2, 4, ... up to _MAX_BLOCKS blocks per numpy
call, as the rows of one array.  Both kernels take their log term ratios
from _log_ratios, and both keep the same block boundaries, summation order
and stopping rule, so they agree bit for bit; _log_series_sums, which
advances each row one block at a time, is the reference the tests hold
_log_series_sum to.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonConvergenceError",
    "log_gamma_half_ratio",
    "trigamma",
    "log_1f1",
    "log_2f1",
]

TERM_CAP = 10_000_000

_BLOCK = 128
# A term this far (in log) below the running maximum contributes nothing.
_LOG_TERM_FLOOR = math.log(1e-16)
# _check_cap's margin, in log.  On near-cap 1F1 and 2F1 plans at TERM_CAP,
# the kernel's running log term at the cap, less its running maximum, agreed
# with _check_cap's lgamma sums to within 7e-8, with peak log terms up to
# 1e7 (1F1 at x near TERM_CAP).  Its rounding grows at worst as
# TERM_CAP / _BLOCK additions of eps times the peak log term (9e-5 at 1e7),
# so 1e-3 covers peak log terms up to 1e8; a series whose term at the cap is
# within the margin above _LOG_TERM_FLOOR still runs to the cap.
_CAP_MARGIN = 1e-3


class NonConvergenceError(RuntimeError):
    """A hypergeometric series failed to satisfy its stopping rule."""


# Asymptotic tail psi_1(x) ~ 1/x + 1/(2x^2) + sum B_2k/x^(2k+1).  With the
# recurrence shift to x >= 6 the truncation error is below 2e-13, well inside
# the 1e-10 contract.
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_PSI_SHIFT = 6.0


def trigamma(x: float) -> float:
    """psi_1(x) = d^2/dx^2 ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    while x < _PSI_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    p = inv2 * inv
    for c in _TRIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + inv + 0.5 * inv2 + tail


_HALF_RATIO_SWITCH = 50.0
# Stirling tail sum B_2k / (2k (2k-1) y^(2k-1)), k = 1..5
_STIRLING_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


def _stirling_tail(y: float) -> float:
    inv2 = 1.0 / (y * y)
    acc = 0.0
    p = 1.0 / y
    for c in _STIRLING_TAIL:
        acc += c * p
        p *= inv2
    return acc


def log_gamma_half_ratio(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x), with absolute error near machine
    precision for all x > 0.

    Direct lgamma subtraction carries the absolute rounding of two huge
    values when x is large; past x = 50 the difference is formed from the
    Stirling series, whose leading terms cancel analytically via log1p
    (the difference enters cancellation-prone brackets where absolute log
    errors are amplified).
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma_half_ratio requires x > 0, got {x}")
    if x < _HALF_RATIO_SWITCH:
        return math.lgamma(x + 0.5) - math.lgamma(x)
    return (
        0.5 * math.log(x)
        + x * math.log1p(0.5 / x)
        - 0.5
        + _stirling_tail(x + 0.5)
        - _stirling_tail(x)
    )


_IDX = np.arange(_BLOCK, dtype=np.float64)
# Most blocks _log_series_sum takes in one numpy call, and the offsets of the
# term indices of those blocks from the first one's start: row j is
# j * _BLOCK + _IDX.  A plan's series runs over i0 + _IDX (_log_series_sums)
# or i0 + _IDX_ROWS[:k] (_log_series_sum), the same indices either way.
_MAX_BLOCKS = 32
_IDX_ROWS = _BLOCK * np.arange(_MAX_BLOCKS, dtype=np.float64)[:, None] + _IDX
# Rows per chunk of the batched kernel: large enough to amortize numpy's
# per-call overhead, small enough to keep its per-block arrays small.
_CHUNK = 128


def _nonconvergence(plan: tuple) -> NonConvergenceError:
    log_x, *num, c = plan
    return NonConvergenceError(
        f"series did not converge within {TERM_CAP} terms "
        f"(x=e^{log_x:.3g}, num={num}, c={c})"
    )


def _log_rising_to_cap(p: float, lo: int) -> float:
    """ln Gamma(p + TERM_CAP) - ln Gamma(p + lo), the log of the product of
    p + i over lo <= i < TERM_CAP.

    Past p + lo = 50 the difference is formed from the Stirling series, as
    in log_gamma_half_ratio: subtracting two lgamma values near 1e18 (p
    near 1e17) would lose hundreds of nats to their rounding.
    """
    z = p + lo
    if z < _HALF_RATIO_SWITCH:
        return math.lgamma(p + TERM_CAP) - math.lgamma(z)
    d = TERM_CAP - lo
    return (
        (z - 0.5) * math.log1p(d / z)
        + d * (math.log(p + TERM_CAP) - 1.0)
        + _stirling_tail(p + TERM_CAP)
        - _stirling_tail(z)
    )


def _check_cap(plan: tuple) -> None:
    """Raise NonConvergenceError when the series of plan cannot stop within
    TERM_CAP terms.

    The kernel stops by the cap exactly when the term at TERM_CAP is below
    _LOG_TERM_FLOOR relative to the largest term.  The terms are unimodal,
    so the largest is the first whose successor is not larger, found by
    bisection on the term ratio, and the log of a term is a sum of lgamma
    differences (Pochhammer symbols, _log_rising_to_cap).  The test leaves a
    margin of _CAP_MARGIN, so a series the kernel can sum is never rejected.
    """
    log_x, *num, c = plan
    den = (c, 1.0)
    lo, hi = 0, TERM_CAP
    while lo < hi:
        i = (lo + hi) // 2
        if log_x + sum(math.log(p + i) for p in num) > sum(math.log(q + i) for q in den):
            lo = i + 1
        else:
            hi = i
    drop = (
        (TERM_CAP - lo) * log_x
        + sum(_log_rising_to_cap(p, lo) for p in num)
        - sum(_log_rising_to_cap(q, lo) for q in den)
    )
    if drop > _LOG_TERM_FLOOR + _CAP_MARGIN:
        raise _nonconvergence(plan)


def _ratio_bound(num, c, x):
    """_plan's one-ratio bound of the series (num, c, x), of floats or of
    columns (num one or two entries)."""
    h = 0.5 * TERM_CAP
    bound = x * (num[0] + c + h)
    if len(num) == 2:  # not a loop over num[1:], which costs a third of a plan
        bound = bound * (num[1] + 1.0 + h)
    return bound / ((c + h) * (1.0 + h))


def _plan(num: tuple, c: float, x: float) -> tuple:
    """The plan (log x, *num, c) of a series (see the module docstring) with
    checked arguments: x >= 0, and num (one or two entries) and c positive.
    At x = 0, log x = -inf makes every term after the first 0, and either
    kernel sums the plan to 0.0 in one block.

    Raises NonConvergenceError when the series cannot stop within TERM_CAP
    terms.  A one-ratio bound (_ratio_bound) clears nearly every plan: for
    i >= h = TERM_CAP / 2 (TERM_CAP is even), (a+i)/(c+i) = 1 + (a-c)/(c+i)
    is at most (a+c+h)/(c+h) for the first a of num, (b+i)/(1+i) at most
    (b+1+h)/(1+h) for a second b, and 1/(1+i) at most 1/(1+h) without one,
    so the terms fall over the last h of the cap at least by the h-th power
    of x times these bounds.  A plan it does not clear goes through
    _check_cap's exact test.
    """
    plan = (math.log(x) if x > 0.0 else -math.inf, *num, c)
    bound = _ratio_bound(num, c, x)
    if bound >= 1.0 or bound ** (0.5 * TERM_CAP) > 1e-16:  # a power of a bound above 1 can overflow
        _check_cap(plan)
    return plan


# log(1e-16), less a margin far wider than the rounding of a column log
_LOG_BOUND_FLOOR = math.log(1e-16) - 1.0


def _unclear(num, c, x) -> np.ndarray:
    """The mask of the rows of the columns (num, c, x) whose bound _plan may
    not clear: every row it does not clear, and the few more whose h-th
    power of the bound, tested here in logs, lies within _LOG_BOUND_FLOOR's
    margin of 1e-16.  A row outside the mask needs no _check_cap."""
    with np.errstate(over="ignore", divide="ignore"):  # x near the largest double; x = 0
        return 0.5 * TERM_CAP * np.log(_ratio_bound(num, c, x)) > _LOG_BOUND_FLOOR


def _plan_1f1(a: float, b: float, x: float) -> tuple:
    """The plan (log x, a, b) of log_1f1(a, b, x); see _plan."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_1f1 requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"log_1f1 requires finite x >= 0, got x={x}")
    return _plan((a,), b, x)


def _plan_2f1(a: float, b: float, c: float, x: float) -> tuple:
    """The plan (log x, a, b, c) of log_2f1(a, b, c, x), with a <= b; see
    _plan."""
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError(f"log_2f1 requires a, b, c > 0, got a={a}, b={b}, c={c}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"log_2f1 requires 0 <= x < 1, got x={x}")
    if a > b:  # symmetric in (a, b); normalize so results match bit-for-bit
        a, b = b, a
    return _plan((a, b), c, x)


def _log_ratios(row, idx: np.ndarray) -> np.ndarray:
    """log(t_{i+1}/t_i) for i in idx, of a row (log x, *num, c) of floats
    (one plan) or of (rows, 1) columns (a chunk of plans)."""
    log_x, *num, c = row
    inc = num[0] + idx
    for p in num[1:]:
        inc *= p + idx
    den = c + idx
    den *= 1.0 + idx
    inc /= den
    np.log(inc, out=inc)
    inc += log_x
    return inc


def _log_series_sum(plan: tuple) -> float:
    """Log of the series sum_{i>=0} t_i of a plan (log x, *num, c) (see
    _plan).

    Terms are positive; the series is unimodal in i.  Blocks of _BLOCK
    log-terms are accumulated with an online-rescaled log-sum-exp.  Stops
    after the first block whose last term is <= 1e-16 of the running maximum
    AND whose last term ratio is < 1 (past the series peak); raises
    NonConvergenceError when no block starting below TERM_CAP stops.

    The first block, where most series stop, is summed alone.  Past it, k =
    2, 4, ... up to _MAX_BLOCKS blocks are the rows of one (k, _BLOCK) array:
    each row gets its own cumulative sum, maximum and exp-sum (the exp-sum
    over the running maximum up to and including its row), its start term
    is an in-order accumulate of the previous rows' last terms, and a scalar
    loop then folds the rows into (log_max, acc) in order and stops at the
    first row that stops.  Every value is the one _log_series_sums computes
    a block at a time, bit for bit.
    """
    # the first block folded into log_max = 0, acc = 1 (t_0): exp(-log_max)
    # is 1 * exp(0 - block_max) past 0 and 1 below it
    inc = _log_ratios(plan, _IDX)
    log_terms = np.add.accumulate(inc)
    log_max = max(0.0, float(np.maximum.reduce(log_terms)))
    acc = math.exp(-log_max) + float(np.add.reduce(np.exp(log_terms - log_max)))
    log_term = float(log_terms[-1])
    if inc[-1] < 0.0 and log_term - log_max <= _LOG_TERM_FLOOR:
        return log_max + math.log(acc)
    i0, k = _BLOCK, 2
    while i0 < TERM_CAP:
        k = min(k, -(-(TERM_CAP - i0) // _BLOCK))  # only blocks starting below the cap
        inc = _log_ratios(plan, i0 + _IDX_ROWS[:k])
        log_terms = np.add.accumulate(inc, axis=1)
        starts = np.empty(k)
        starts[0] = log_term
        starts[1:] = log_terms[:-1, -1]
        log_terms += np.add.accumulate(starts)[:, None]
        block_max = np.maximum.reduce(log_terms, axis=1)
        run_max = np.maximum.accumulate(block_max)
        np.maximum(run_max, log_max, out=run_max)
        sums = np.add.reduce(np.exp(log_terms - run_max[:, None]), axis=1)
        rows = zip(block_max.tolist(), sums.tolist(), log_terms[:, -1].tolist(), inc[:, -1].tolist())
        for block_max_j, sum_j, log_term, inc_j in rows:
            if block_max_j > log_max:
                acc = acc * math.exp(log_max - block_max_j) + sum_j
                log_max = block_max_j
            else:
                acc += sum_j
            if inc_j < 0.0 and log_term - log_max <= _LOG_TERM_FLOOR:
                return log_max + math.log(acc)
        i0 += k * _BLOCK
        k = min(2 * k, _MAX_BLOCKS)
    raise _nonconvergence(plan)


def _map(fn, values: np.ndarray) -> np.ndarray:
    """fn of each element of the 1-d array values, as an array: a math
    function applied per element, where numpy's own may differ in the last
    bit."""
    return np.fromiter(map(fn, values.tolist()), float, len(values))


def _log_series_sums(plans: np.ndarray) -> np.ndarray:
    """_log_series_sum of each row of the array plans, one plan (log x,
    *num, c) per row.  A plan still running at TERM_CAP comes back as NaN.

    Rows go through in chunks of _CHUNK, whose columns are taken once per
    chunk.  Each block advances every live row of a chunk together, with
    exactly the block, floor and stopping rule of _log_series_sum, and a row
    leaves the chunk (and its columns) once it stops, so every row is bit
    for bit what _log_series_sum returns for it.  The rescale factor and the
    final log are taken per row with math.exp and math.log, as
    _log_series_sum takes them: numpy's exp and log may differ from them in
    the last bit.
    """
    out = np.full(len(plans), math.nan)
    for lo in range(0, len(plans), _CHUNK):
        columns = list(plans[lo : lo + _CHUNK].T[:, :, None])
        live = np.arange(lo, min(lo + _CHUNK, len(plans)))
        log_max = np.zeros(len(live))
        acc = np.ones(len(live))
        log_term = np.zeros(len(live))
        i0 = 0.0
        while i0 < TERM_CAP:
            inc = _log_ratios(columns, i0 + _IDX)
            log_terms = np.cumsum(inc, axis=1)
            log_terms += log_term[:, None]
            block_max = log_terms.max(axis=1)
            up = np.flatnonzero(block_max > log_max)
            if len(up):
                acc[up] *= _map(math.exp, log_max[up] - block_max[up])
                log_max[up] = block_max[up]
            acc += np.exp(log_terms - log_max[:, None]).sum(axis=1)
            log_term = log_terms[:, -1]
            i0 += _BLOCK
            done = (inc[:, -1] < 0.0) & (log_term - log_max <= _LOG_TERM_FLOOR)
            if done.any():
                out[live[done]] = log_max[done] + _map(math.log, acc[done])
                keep = ~done
                if not keep.any():
                    break
                live, log_max, acc, log_term = (v[keep] for v in (live, log_max, acc, log_term))
                columns = [v[keep] for v in columns]
    return out


def log_1f1(a: float, b: float, x: float) -> float:
    """Log of the confluent hypergeometric function 1F1(a, b; x); 0.0 at x = 0.

    Requires a > 0, b > 0 and finite x >= 0, which keeps every series term
    positive.
    """
    return _log_series_sum(_plan_1f1(a, b, x))


def log_2f1(a: float, b: float, c: float, x: float) -> float:
    """Log of the Gaussian hypergeometric function 2F1(a, b; c; x); 0.0 at x = 0.

    Requires a, b, c > 0 and 0 <= x < 1, and sums the raw series (no
    transformation near x = 1).  A series that cannot stop within TERM_CAP
    terms raises NonConvergenceError before any term is summed.
    """
    return _log_series_sum(_plan_2f1(a, b, c, x))
