"""Log-domain special functions.

Everything here returns natural logs, as plain floats, so that callers never
touch quantities like 1F1(13, 0.5, 900), whose linear value overflows double
precision by hundreds of orders of magnitude.  The hypergeometric series are
summed in blocks of terms, each block as running products of its term
ratios, with the sum carried between blocks over a power of two per series;
all in-scope calls have positive parameters and non-negative argument, so
every term is positive and the series is unimodal in the term index.

Each hypergeometric function is its raw power series, evaluated in two
steps.  A planner (_plan_1f1, _plan_2f1) checks the arguments and returns
the plan, the row (x, *num, c) of the series sum t_i with t_0 = 1 and
t_{i+1}/t_i = x prod(num + i) / ((c + i)(1 + i)); one body, _plan, builds
every row and rejects a series that cannot stop within TERM_CAP terms.  A
block kernel then sums the plan: _log_series_sum one plan, as log_1f1 and
log_2f1 do, or _log_series_sums an array of plans of one length at once, as
bayes_factors.log_bf10_batch does (direct summation, as in Pearson, Olver &
Porter, arXiv:1407.7786, run over a batch axis).  A caller that builds its
plan rows as columns screens them with _unclear, which tests _plan's
one-ratio bound on every row at once, and leaves the rows it flags to the
one-value route, whose planners decide them.  The batched kernel takes its rows in chunks, and each block
advances every live row of a chunk together.  The one-plan kernel estimates
from the plan alone how many blocks its series needs (_blocks: the terms'
closed-form peak and decay length) and sums them as the rows of one array,
at most _MAX_BLOCKS per numpy call, so a series the estimate covers takes
one call.  A series estimated at one block starts with that block alone,
and a series that outruns its estimate takes twice as many blocks per call
as its last, up to _MAX_BLOCKS.  A block takes no transcendental per term,
unless its terms rise too far within it for the carried sum (hundreds of
nats, as in the first blocks of a 1F1 series at x in the tens of
thousands): that block alone is summed in logs (_log_block).  Both kernels
take their term ratios from _ratios, and both keep the same block
boundaries, fold, rescaling and stopping rule, with only +, *, comparisons
and exact scalings by powers of two between blocks, so they agree bit for
bit; _log_series_sums, which advances each row one block at a time, is the
reference the tests hold _log_series_sum to.
"""

from __future__ import annotations

import contextlib
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
# A term this far below the running maximum contributes nothing; in log,
# for _check_cap, and as the fall in nats past the peak for _estimate_blocks.
_TERM_FLOOR = 1e-16
_LOG_TERM_FLOOR = math.log(_TERM_FLOOR)
_FALL = -_LOG_TERM_FLOOR
_LN2 = math.log(2.0)
# The kernels' running sum is scaled back to [1/2, 1) once it reaches this,
# which leaves the next block a rise of at least 2^512 (355 nats) before its
# fold overflows.
_RESCALE = 2.0**511
# _check_cap's margin, in log.  On near-cap plans at TERM_CAP (1F1 at x near
# TERM_CAP, 2F1 at x within 1e-5 of 1, and 2F1 with a parameter near 1e17),
# the kernel's log of its running term at the cap over its running maximum
# agreed with _check_cap's lgamma sums to within 6e-8, most of it the
# rounding of lgamma values near 1.5e8 in _check_cap itself.  The kernel's
# running term is a product of at most TERM_CAP ratios, whose rounding grows
# at worst as TERM_CAP eps (1e-9 in log), plus eps times the rise of each
# block summed in logs (a few thousand nats at most), so 1e-3 leaves a wide
# margin; a series whose term at the cap is within the margin above
# _LOG_TERM_FLOOR still runs to the cap.
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
    precision for all finite x > 0.

    Direct lgamma subtraction carries the absolute rounding of two huge
    values when x is large; past x = 50 the difference is formed from the
    Stirling series, whose leading terms cancel analytically via log1p
    (the difference enters cancellation-prone brackets where absolute log
    errors are amplified).
    """
    if not 0.0 < x < math.inf:  # inf would reach the Stirling branch as inf * 0
        raise ValueError(f"log_gamma_half_ratio requires finite x > 0, got {x}")
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
# Most blocks _log_series_sum takes in one numpy call (_blocks sizes each
# call), and the offsets of the term indices of those blocks from the first
# one's start: row j is j * _BLOCK + _IDX.  A plan's series runs over
# i0 + _IDX (_log_series_sums) or i0 + _IDX_ROWS[:k] (_log_series_sum), the
# same indices either way, and both kernels round each parameter plus an
# index once.
_MAX_BLOCKS = 32
_IDX_ROWS = _BLOCK * np.arange(_MAX_BLOCKS, dtype=np.float64)[:, None] + _IDX
# The rows (1, i) of the first block of _log_series_sums, whose second row it
# moves to each block's indices.
_SHIFTS = np.array([np.ones(_BLOCK), _IDX])
# Rows per chunk of the batched kernel: large enough to amortize numpy's
# per-call overhead, small enough to keep its per-block arrays small.
_CHUNK = 128
# Below this bound on every term ratio of a block, its products and their sum
# stay below the largest double (245^128 * 128 < 2^1023), so _log_series_sum
# sums a first block under it without np.errstate, whose cost is a tenth of
# a one-block series.
_QUIET_RATIO = 245.0
_QUIET = contextlib.nullcontext()


def _nonconvergence(plan: tuple) -> NonConvergenceError:
    x, *num, c = plan
    return NonConvergenceError(
        f"series did not converge within {TERM_CAP} terms "
        f"(x={x:.3g}, num={num}, c={c})"
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
    x, *num, c = plan
    log_x = math.log(x)
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
    """The plan (x, *num, c) of a series (see the module docstring) with
    checked arguments: x >= 0, and num (one or two entries) and c positive
    and finite.
    At x = 0 every term after the first is 0, and either kernel sums the
    plan to 0.0 in one block.

    Raises NonConvergenceError when the series cannot stop within TERM_CAP
    terms.  A one-ratio bound (_ratio_bound) clears nearly every plan: for
    i >= h = TERM_CAP / 2 (TERM_CAP is even), (a+i)/(c+i) = 1 + (a-c)/(c+i)
    is at most (a+c+h)/(c+h) for the first a of num, (b+i)/(1+i) at most
    (b+1+h)/(1+h) for a second b, and 1/(1+i) at most 1/(1+h) without one,
    so the terms fall over the last h of the cap at least by the h-th power
    of x times these bounds.  A plan it does not clear goes through
    _check_cap's exact test.
    """
    plan = (x, *num, c)
    bound = _ratio_bound(num, c, x)
    if bound >= 1.0 or bound ** (0.5 * TERM_CAP) > 1e-16:  # a power of a bound above 1 can overflow
        _check_cap(plan)
    return plan


# log(1e-16), less a margin far wider than the rounding of a column log
_LOG_BOUND_FLOOR = math.log(1e-16) - 1.0


def _unclear(num, c, x) -> np.ndarray:
    """The mask of the rows of the columns (num, c, x) whose bound _plan may
    not clear: every row it does not clear, the few more whose h-th power
    of the bound, tested here in logs, lies within _LOG_BOUND_FLOOR's
    margin of 1e-16, and every row whose bound is NaN (an infinite
    parameter at x = 0), which the planners reject.  A row outside the mask
    needs no planner."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # x near the largest double; x = 0
        return ~(0.5 * TERM_CAP * np.log(_ratio_bound(num, c, x)) <= _LOG_BOUND_FLOOR)


def _plan_1f1(a: float, b: float, x: float) -> tuple:
    """The plan (x, a, b) of log_1f1(a, b, x); see _plan."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"log_1f1 requires finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"log_1f1 requires finite x >= 0, got x={x}")
    return _plan((a,), b, x)


def _plan_2f1(a: float, b: float, c: float, x: float) -> tuple:
    """The plan (x, a, b, c) of log_2f1(a, b, c, x), with a <= b; see
    _plan."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and 0.0 < c < math.inf):
        raise ValueError(f"log_2f1 requires finite a, b, c > 0, got a={a}, b={b}, c={c}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"log_2f1 requires 0 <= x < 1, got x={x}")
    if a > b:  # symmetric in (a, b); normalize so results match bit-for-bit
        a, b = b, a
    return _plan((a, b), c, x)


def _ratios(x, num_i, c_i: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """t_{i+1}/t_i for i in idx, of a plan's x (a float, or a (rows, 1)
    column for a chunk of plans) from its parameters plus the indices:
    num_i, each p + idx of num, and c_i = c + idx, which it overwrites."""
    inc = num_i[0]
    for p_i in num_i[1:]:
        inc *= p_i
    c_i *= 1.0 + idx
    inc /= c_i
    inc *= x
    return inc


def _log_block(ratios: np.ndarray) -> tuple:
    """The steep blocks of ratios, rows of _BLOCK term ratios, summed in
    logs: (shift, sums, maxes, lasts), where sums, maxes and lasts are those
    of each row's terms from a start of 1, all over 2^shift (an integer
    array), which brings the largest term into [1, 2)."""
    log_terms = np.add.accumulate(np.log(ratios), axis=1)
    shift = np.floor(np.maximum.reduce(log_terms, axis=1) / _LN2)
    log_terms -= (shift * _LN2)[:, None]
    terms = np.exp(log_terms)
    return (
        shift.astype(int),
        np.add.reduce(terms, axis=1),
        np.maximum.reduce(terms, axis=1),
        terms[:, -1],
    )


def _fold(state: tuple, sum_j: float, max_j: float, last_j: float, ratios: np.ndarray, j: int) -> tuple:
    """The state (scale, acc, top, term) of _log_series_sum after the block
    whose terms from a start of 1 have the sum, largest and last term
    sum_j, max_j and last_j, and whose ratios are row j of ratios."""
    scale, acc, top, term = state
    new = acc + term * sum_j
    if not new < math.inf:  # NaN too: a 0 term times an overflowed sum
        shift, sum_j, max_j, last_j = (v.tolist()[0] for v in _log_block(ratios[j : j + 1]))
        acc, top, scale = math.ldexp(acc, -shift), math.ldexp(top, -shift), scale + shift
        new = acc + term * sum_j
    max_j *= term
    if max_j > top:
        top = max_j
    term *= last_j
    if new >= _RESCALE:
        new, shift = math.frexp(new)
        top, term, scale = math.ldexp(top, -shift), math.ldexp(term, -shift), scale + shift
    return scale, new, top, term


# Past a 1F1's peak the slope of its log term ratio, about -1/i, flattens, so
# its terms fall more slowly than the Gaussian of _estimate_blocks.  With
# this widening no 1F1 series of the benchmark's sim_points workload (8,000
# of its 16,000 series) is estimated short of its blocks; without it 465 are,
# each by one block, and take a second numpy call.
_SPAN_1F1 = 1.2


def _estimate_blocks(x: float, num: list, c: float) -> float:
    """The blocks the series of the plan (x, *num, c) needs before
    _log_series_sum stops, estimated from the plan alone, as a float: NaN
    or inf where the estimate fails.

    The terms peak where the ratio t_{i+1}/t_i falls to 1, at the largest
    root of the quadratic (c + i)(1 + i) = x prod(num + i), or at i = 0 when
    it has no positive root.  Past the peak the log ratio falls with slope
    -k, k = 1/(c + i) + 1/(1 + i) - sum 1/(p + i) at the peak, so the terms
    fall by -ln 1e-16 = _FALL nats within about sqrt(2 _FALL / k) terms (a
    Gaussian, widened by _SPAN_1F1 for a 1F1).  A 2F1's ratio tends to x,
    so far past the peak its terms fall by about -ln x >= 1 - x nats per
    term, and the estimate adds _FALL / (1 - x) terms for that stretch.
    It takes only +, -, *, /, sqrt and comparisons, costs under a
    microsecond and never raises.  It is NaN for a log ratio still rising
    at i = 0, and NaN or inf for a parameter near the largest double.
    """
    a = num[0]
    if len(num) == 1:
        lead, mid, const = 1.0, 1.0 + c - x, c - x * a
    else:
        b = num[1]
        lead, mid, const = 1.0 - x, 1.0 + c - x * (a + b), c - x * a * b
    disc = mid * mid - 4.0 * lead * const
    peak = 0.0
    if not disc < 0.0:  # NaN goes on, to a NaN estimate
        root = math.sqrt(disc)
        # the largest root, without cancellation between mid and root
        peak = -2.0 * const / (mid + root) if mid > 0.0 else (root - mid) / (2.0 * lead)
        if peak < 0.0:
            peak = 0.0
    if len(num) == 1:
        slope = 1.0 / (c + peak) + 1.0 / (1.0 + peak) - 1.0 / (a + peak)
        if not slope > 0.0:
            return math.nan
        span = _SPAN_1F1 * math.sqrt(2.0 * _FALL / slope)
    else:
        slope = 1.0 / (c + peak) + 1.0 / (1.0 + peak) - 1.0 / (a + peak) - 1.0 / (b + peak)
        if not slope > 0.0:
            return math.nan
        span = math.sqrt(2.0 * _FALL / slope) + _FALL / (1.0 - x)
    return (peak + span) / _BLOCK + 1.0


def _blocks(x: float, num: list, c: float) -> int:
    """The blocks of _log_series_sum's first call on the plan (x, *num, c):
    _estimate_blocks as an integer in [1, _MAX_BLOCKS], _MAX_BLOCKS for a
    longer series, and 1 where the estimate is NaN or infinite, after which
    the kernel doubles its blocks per call as for a series that outruns its
    estimate."""
    blocks = _estimate_blocks(x, num, c)
    if not 1.0 <= blocks < math.inf:
        return 1
    return int(blocks) if blocks < _MAX_BLOCKS else _MAX_BLOCKS


def _log_series_sum(plan: tuple) -> float:
    """Log of the series sum_{i>=0} t_i of a plan (x, *num, c) (see _plan).

    Terms are positive; the series is unimodal in i.  The terms are summed
    in blocks of _BLOCK as running products of their ratios, carried in a
    state (scale, acc, top, term): the sum so far, the largest term and the
    last term, all over 2^scale, from (0, 1, 1, 1) for t_0 = 1.  A block
    gives the sum, largest and last of its terms from a start of 1, and
    _fold folds them into the state by acc + term * sum, max(top, term *
    largest) and term * last; a block whose fold would overflow (a rise of
    hundreds of nats within the block) is taken from _log_block instead,
    after the state is scaled down by its shift.  Once acc reaches
    _RESCALE, the state is scaled by the power of two that brings acc into
    [1/2, 1).  Stops after the first block whose last term is <= 1e-16 of
    the largest AND whose last term ratio is < 1 (past the series peak),
    with the log scale ln 2 + log acc (log acc alone for a sum below
    _RESCALE); raises NonConvergenceError when no block starting below
    TERM_CAP stops.

    The blocks of one numpy call are the rows of one (k, _BLOCK) array, each
    row with its own products, sum, maximum and last term, folded in order
    until a row stops.  The first call takes the k blocks that _blocks
    estimates the series needs, up to _MAX_BLOCKS; a series estimated at
    one block, as most are, has its first block summed alone.  Each later
    call takes twice the blocks of the last, up to _MAX_BLOCKS: every call
    of a series estimated past _MAX_BLOCKS takes _MAX_BLOCKS, and a series
    that outruns its estimate doubles, from 2 after a first block alone.
    How the blocks fall into calls changes no value: the fold uses only +,
    *, comparisons and exact scalings by powers of two, so it rounds as
    _log_series_sums' column fold does, and every value is the one
    _log_series_sums computes a block at a time, bit for bit.  Blocks a
    call computes past the stopping row are discarded.  A product can
    underflow only past the peak, where every later term is far below 1e-16
    of the largest, so underflow needs no log block.
    """
    x, *num, c = plan
    k = _blocks(x, num, c)
    if k == 1:
        # every ratio is at most x max(a, c) / c, times max(b, 1) for a second b
        bound = x * max(num[0], c) / c * (max(num[1], 1.0) if len(num) == 2 else 1.0)
        with _QUIET if bound < _QUIET_RATIO else np.errstate(over="ignore", invalid="ignore"):
            ratios = _ratios(x, [p + _IDX for p in num], c + _IDX, _IDX)
            terms = np.multiply.accumulate(ratios)
            sum_0, max_0 = float(np.add.reduce(terms)), float(np.maximum.reduce(terms))
            state = _fold((0, 1.0, 1.0, 1.0), sum_0, max_0, terms.item(-1), ratios[None], 0)
        scale, acc, top, term = state
        if ratios.item(-1) < 1.0 and term <= _TERM_FLOOR * top:
            return scale * _LN2 + math.log(acc)
        i0, k = _BLOCK, 2
    else:
        i0, state = 0, (0, 1.0, 1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a steep block overflows; _log_block sums it
        while i0 < TERM_CAP:
            k = min(k, -(-(TERM_CAP - i0) // _BLOCK))  # only blocks starting below the cap
            idx = i0 + _IDX_ROWS[:k]
            ratios = _ratios(x, [p + idx for p in num], c + idx, idx)
            terms = np.multiply.accumulate(ratios, axis=1)
            rows = zip(
                np.add.reduce(terms, axis=1).tolist(),
                np.maximum.reduce(terms, axis=1).tolist(),
                terms[:, -1].tolist(),
                ratios[:, -1].tolist(),
            )
            for j, (sum_j, max_j, last_j, ratio_j) in enumerate(rows):
                state = _fold(state, sum_j, max_j, last_j, ratios, j)
                scale, acc, top, term = state
                if ratio_j < 1.0 and term <= _TERM_FLOOR * top:
                    return scale * _LN2 + math.log(acc)
            i0 += k * _BLOCK
            k = min(2 * k, _MAX_BLOCKS)
    raise _nonconvergence(plan)


def _map(fn, values: np.ndarray) -> np.ndarray:
    """fn of each element of the 1-d array values, as an array: a math
    function applied per element, where numpy's own may differ in the last
    bit."""
    return np.fromiter(map(fn, values.tolist()), float, len(values))


def _log_series_sums(plans: np.ndarray) -> np.ndarray:
    """_log_series_sum of each row of the array plans, one plan (x, *num, c)
    per row.  A plan still running at TERM_CAP comes back as NaN.

    The rows go through in chunks of _CHUNK.  Each block advances every live row of a
    chunk together, with exactly the block, fold, rescale and stopping rule
    of _log_series_sum as column operations, and a row leaves the chunk
    (and its columns) once it stops, so every row is bit for bit what
    _log_series_sum returns for it.  The final log is taken per row with
    math.log, as _log_series_sum takes it: numpy's log may differ from it
    in the last bit.
    """
    out = np.full(len(plans), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _log_series_sum
        for lo in range(0, len(plans), _CHUNK):
            chunk = plans[lo : lo + _CHUNK]
            live = np.arange(lo, lo + len(chunk))
            x = chunk[:, :1]
            # each parameter p of each row paired with 1: the product of a
            # pair and (1, i) is p + i rounded once, as _log_series_sum
            # forms it, since both of its terms are exact, and one matrix
            # product over every pair costs a third of broadcasting each
            # column over the indices
            params = len(plans[0]) - 1
            pairs = np.ones((params * len(chunk), 2))
            pairs[:, 0] = chunk[:, 1:].T.ravel()
            shifts = _SHIFTS.copy()
            scale = np.zeros(len(live), dtype=int)
            acc, top, term = np.ones((3, len(live)))
            i0 = 0.0
            while i0 < TERM_CAP:
                shifts[1] = i0 + _IDX
                plus_i = (pairs @ shifts).reshape(params, len(live), _BLOCK)
                ratios = _ratios(x, plus_i[:-1], plus_i[-1], shifts[1])
                terms = np.multiply.accumulate(ratios, axis=1)
                sums = np.add.reduce(terms, axis=1)
                maxes = np.maximum.reduce(terms, axis=1)
                lasts = terms[:, -1]
                new = acc + term * sums
                steep = (~(new < math.inf)).nonzero()[0]
                if len(steep):
                    shift, steep_sums, maxes[steep], lasts[steep] = _log_block(ratios[steep])
                    acc[steep] = np.ldexp(acc[steep], -shift)
                    top[steep] = np.ldexp(top[steep], -shift)
                    scale[steep] += shift
                    new[steep] = acc[steep] + term[steep] * steep_sums
                acc = new
                maxes *= term
                np.maximum(top, maxes, out=top)
                term *= lasts
                big = (acc >= _RESCALE).nonzero()[0]
                if len(big):
                    acc[big], shift = np.frexp(acc[big])
                    top[big] = np.ldexp(top[big], -shift)
                    term[big] = np.ldexp(term[big], -shift)
                    scale[big] += shift
                i0 += _BLOCK
                done = (ratios[:, -1] < 1.0) & (term <= _TERM_FLOOR * top)
                if done.any():
                    out[live[done]] = scale[done] * _LN2 + _map(math.log, acc[done])
                    keep = ~done
                    if not keep.any():
                        break
                    live, scale, acc, top, term = (v[keep] for v in (live, scale, acc, top, term))
                    x = x[keep]
                    pairs = pairs.reshape(params, -1, 2)[:, keep].reshape(-1, 2)
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
