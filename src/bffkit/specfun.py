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
take their term ratios as x P_i, with P_i = prod(num + i) / ((c + i)(1 +
i)) from _ratio_factors and x multiplied last, and both keep the same
block boundaries, fold, rescaling and stopping rule, with only +, *,
comparisons and exact scalings by powers of two between blocks, so they
agree bit for bit; _log_series_sums, which advances each row one block at a
time, is the reference the tests hold _log_series_sum to.

P is free of the statistic: only x carries it, and the closed forms call
the functions with many statistics at few (r, design) pairs, as simulations
do, and an MMAP curve evaluates the same nodes in r at every omega.  So P is
kept where it repeats.  _log_series_sum keeps the P rows of each series'
first numpy call in _ROWS, one module-level dict that _fill_rows alone
fills, keyed by the plan's parameters (*num, c) (after _plan_2f1 puts a <=
b), whose arrays are read-only, own their buffers, and are at most _ROWS_CAP
rows of a block in all.  _log_series_sums keeps nothing itself: a caller
that evaluates one set of plan rows at many x holds a _Blocks of their P,
block by block, and passes it with each plan's row in it.  A kernel that
finds its rows held takes them times x, in one multiply.  The product is the
double x P_i that the kernel would form anyway, so no value depends on what
is held.

A plan whose products prod(num + i) or (c + i)(1 + i) could overflow within
the cap (_wide) takes P_i as ((a + i)/(c + i))((b + i)/(1 + i)), in both
kernels and in _Blocks; every other plan takes it in the order above.

At x = 0 every term after t_0 = 1 is 0, and both kernels return exactly 0.0
for such a plan before they form any ratio: P can overflow where every x P_i
is 0 (P_0 = a / c, with a near the largest double over a tiny c), and inf
times 0 is NaN.
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
# 1 + i over the same rows (exact), so that a fill of _ROWS forms none
_ONE_ROWS = 1.0 + _IDX_ROWS


def _indices(j: int) -> tuple:
    """The term indices i of block j, and 1 + i, as _IDX_ROWS and
    _ONE_ROWS hold them for the first _MAX_BLOCKS blocks."""
    if j < _MAX_BLOCKS:
        return _IDX_ROWS[j], _ONE_ROWS[j]
    idx = j * _BLOCK + _IDX
    return idx, 1.0 + idx


# Rows per chunk of the batched kernel: large enough that a node pass of an
# MMAP curve (14 nodes in r times a set's plan rows) is one chunk, small
# enough to keep its work arrays at a few MiB.
_CHUNK = 1024
# Below this bound on every term ratio of a series, the products of each of
# its blocks and their sum stay below the largest double (245^128 * 128 <
# 2^1023), so _log_series_sum makes every numpy call of such a series without
# np.errstate, whose cost is a tenth of a one-block series.  P's own
# factors stay finite there too: those of a narrow plan are below _WIDE, and
# a wide plan's (a + i)/(c + i) and (b + i)/(1 + i) are at most max(a, c)/c
# and max(b, 1), so at most the bound over x.  Only a P that overflows by
# itself, at an x so small that the bound over x passes the largest double
# (a / c or a b / c beyond it), is not covered.
_QUIET_RATIO = 245.0
_QUIET = contextlib.nullcontext()
# The one-value kernel's P rows: the first numpy call of a series, by its
# parameters (*num, c), the plan without x: row j holds P_i for i in j *
# _BLOCK + _IDX.  Each array is read-only and owns its buffer (a view would
# keep the array it was cut from alive).  They hold at most _ROWS_CAP rows of
# 1 KiB (4 MiB), counted in _rows_held; a fill that would pass the cap clears
# them first.  The benchmark's sim_points series take 3,342 rows over 338
# parameter tuples.  The batched kernel keeps no entry here (see _Blocks).
_ROWS: dict = {}
_ROWS_CAP = 4096
_rows_held = 0
# Rows of blocks a _Blocks holds at most (1 KiB each, 4 MiB).
_PASS_CAP = 4096
# _wide's bound on a product of P's narrow form: 2^24 below the largest
# double, far more than the rounding of the products that test it.  No plan
# whose parameters are all below _NARROW is wide: for i below 2^30 (TERM_CAP
# is 10^7), (a + i)(b + i) < 2^802 and (c + i)(1 + i) < 2^431.
_WIDE = 2.0**1000
_NARROW = 2.0**400


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


def _wide(num, c):
    """Whether the plan (x, *num, c) is wide, of floats, or the mask of the
    wide rows, of columns (num one or two entries; columns under np.errstate
    with over ignored): whether one of the products of P's narrow form,
    (a + i)(b + i) for a 2F1 or (c + i)(1 + i), could reach _WIDE at an index
    i of a block that starts below TERM_CAP."""
    i = TERM_CAP + _BLOCK
    wide = (c + i) * (1.0 + i) >= _WIDE
    if len(num) == 2:
        wide = wide | ((num[0] + i) * (num[1] + i) >= _WIDE)
    return wide


def _ratio_factors(num_i, c_i: np.ndarray, one_i: np.ndarray, wide=False) -> np.ndarray:
    """P_i = prod(num + i) / ((c + i)(1 + i)) for the indices i of a block
    (or of rows of blocks), from a plan's parameters plus the indices: num_i,
    each p + i of num, c_i = c + i, which it may overwrite, and one_i = 1 +
    i.  wide is _wide of the plan, or, for rows of plans, the mask of the
    wide rows.  A wide plan takes P_i as ((a + i)/(c + i))((b + i)/(1 + i)),
    or (a + i)/(c + i)/(1 + i) for a 1F1, whose factors cannot overflow
    where the products can; every other plan takes the form above, in its
    order.  A mask's wide rows are formed both ways under the caller's
    np.errstate, and keep the wide form.

    The term ratio t_{i+1}/t_i of the plan (x, *num, c) is x P_i, with x
    multiplied last by every caller: P is free of the statistic, which only
    x carries, so a ratio is the same double whether its P was formed for
    this x or taken from _ROWS or a _Blocks."""
    if wide is True:
        return _wide_factors(num_i, c_i, one_i)
    mask = wide is not False and wide.any()
    if mask:
        rows = _wide_factors([p_i[wide] for p_i in num_i], c_i[wide], one_i)
    inc = num_i[0]
    for p_i in num_i[1:]:
        inc *= p_i
    c_i *= one_i
    inc /= c_i
    if mask:
        inc[wide] = rows
    return inc


def _wide_factors(num_i, c_i, one_i):
    """_ratio_factors' wide form, as a new array."""
    inc = num_i[0] / c_i
    if len(num_i) == 2:
        inc *= num_i[1] / one_i
    else:
        inc /= one_i
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


def _fill_rows(key: tuple, num: list, c: float, k: int) -> np.ndarray:
    """The new entry of _ROWS for key, read-only: the rows of P
    (_ratio_factors) of the first k blocks of the plan (*num, c).  It
    replaces the key's entry, if any.  An entry of more rows than the cap is
    returned but not kept."""
    global _rows_held
    idx = _IDX_ROWS[:k]
    rows = _ratio_factors([p + idx for p in num], c + idx, _ONE_ROWS[:k], _wide(num, c))
    rows.setflags(write=False)
    _rows_held -= len(_ROWS.pop(key, ()))
    if len(rows) > _ROWS_CAP:
        return rows
    if _rows_held + len(rows) > _ROWS_CAP:
        _ROWS.clear()
        _rows_held = 0
    _ROWS[key] = rows
    _rows_held += len(rows)
    return rows


class _Blocks:
    """The P rows (_ratio_factors) of a fixed set of plan rows (*num, c),
    given as columns, that a caller evaluates at many x: the node pass of an
    MMAP curve, or the one r of a fixed-r curve.

    Block j holds P_i of every row for i in j * _BLOCK + _IDX.  It is
    formed for all rows at once, the first time _log_series_sums takes
    block j for any of them, exactly as the kernel forms a block, and is
    read-only and owns its buffer.  The blocks hold at most _PASS_CAP rows
    of a block in all (none for more rows than that); past that,
    _log_series_sums forms a block for its live rows, as without blocks."""

    def __init__(self, num: list, c: np.ndarray):
        self.num = [p[:, None] for p in num]
        self.c = c[:, None]
        with np.errstate(over="ignore"):
            self.wide = _wide(num, c)
        self.limit = _PASS_CAP // len(c)
        self.held = []

    def block(self, j: int):
        """Block j, formed with every block before it if need be, or None
        past the cap."""
        if j >= self.limit:
            return None
        held = self.held
        while len(held) <= j:
            idx, one = _indices(len(held))
            rows = np.empty((len(self.c), _BLOCK))
            # _BLOCK rows at a time, so that the parameters plus indices
            # take a few small arrays, not a block's size each; a wide row's
            # products of the narrow form, which it replaces, may overflow
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, len(rows), _BLOCK):
                    part = slice(lo, lo + _BLOCK)
                    num_i = [p[part] + idx for p in self.num]
                    rows[part] = _ratio_factors(num_i, self.c[part] + idx, one, self.wide[part])
            rows.setflags(write=False)
            held.append(rows)
        return held[j]


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
    estimates the series needs, up to _MAX_BLOCKS, as the P rows of _ROWS
    times x; a series estimated at one block, as most are, has its first
    block summed alone.  Each later
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
    if x == 0.0:  # see the module docstring
        return 0.0
    k = _blocks(x, num, c)
    # every ratio is at most x max(a, c) / c, times max(b, 1) for a second b
    bound = x * max(num[0], c) / c * (max(num[1], 1.0) if len(num) == 2 else 1.0)
    # above it, a steep block overflows and _log_block sums it
    with _QUIET if bound < _QUIET_RATIO else np.errstate(over="ignore", invalid="ignore"):
        key = plan[1:]
        first = _ROWS.get(key)
        if first is None or len(first) < k:
            first = _fill_rows(key, num, c, k)
        if k == 1:
            ratios = first[0] * x
            terms = np.multiply.accumulate(ratios)
            sum_0, max_0 = float(np.add.reduce(terms)), float(np.maximum.reduce(terms))
            state = _fold((0, 1.0, 1.0, 1.0), sum_0, max_0, terms.item(-1), ratios[None], 0)
            scale, acc, top, term = state
            if ratios.item(-1) < 1.0 and term <= _TERM_FLOOR * top:
                return scale * _LN2 + math.log(acc)
            i0, k = _BLOCK, 2
        else:
            i0, state = 0, (0, 1.0, 1.0, 1.0)
        while i0 < TERM_CAP:
            k = min(k, -(-(TERM_CAP - i0) // _BLOCK))  # only blocks starting below the cap
            if i0:
                idx = i0 + _IDX_ROWS[:k]
                ratios = _ratio_factors([p + idx for p in num], c + idx, 1.0 + idx, _wide(num, c))
                ratios *= x
            else:
                ratios = first[:k] * x
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


def _log_series_sums(plans: np.ndarray, blocks: _Blocks | None = None, rows=None) -> np.ndarray:
    """_log_series_sum of each row of the array plans, one plan (x, *num, c)
    per row.  A plan still running at TERM_CAP comes back as NaN.

    A plan at x = 0 comes back as 0.0 (see the module docstring), and the
    other rows go through in chunks of _CHUNK.  Each block advances every
    live row of a chunk together, with exactly the block, fold, rescale and
    stopping rule of _log_series_sum as column operations, and a row leaves
    the chunk (and its columns) once it stops, so every row is bit for bit
    what _log_series_sum returns for it.  With blocks, a _Blocks of the
    caller's, plan j's parameters are those of row rows[j] of blocks, and a
    block's P rows are gathered from blocks by row index (np.take) where
    blocks holds that block; otherwise the block is formed as _Blocks forms
    it, each parameter column of the live rows plus the block's indices.
    The work arrays are allocated once per call: arrays of a block's size
    allocated per block took about 2,000 page faults per round of the
    benchmark's stroop_mmap workload.  The final log is taken per row with
    math.log, as _log_series_sum takes it: numpy's log may differ from it in
    the last bit.
    """
    out = np.full(len(plans), math.nan)
    if not len(plans):
        return out
    out[plans[:, 0] == 0.0] = 0.0
    todo = plans[:, 0].nonzero()[0]
    size = min(len(todo), _CHUNK)
    # a block's terms, over its ratios where they are gathered: a steep row's
    # ratios are then gathered again
    work = np.empty((size, _BLOCK))
    plus = None  # each parameter plus a block's indices, where formed
    with np.errstate(over="ignore", invalid="ignore"):  # as in _log_series_sum
        for lo in range(0, len(todo), _CHUNK):
            live = todo[lo : lo + _CHUNK]
            chunk = plans if len(live) == len(plans) else plans[live]
            x, params = chunk[:, :1], chunk[:, 1:]
            # _wide, on the rows that can be wide
            wide = _wide(params[:, :-1].T, params[:, -1]) if params.max() >= _NARROW else False
            index = None if blocks is None else rows if chunk is plans else rows[live]
            scale = np.zeros(len(live), dtype=int)
            acc, top, term = np.ones((3, len(live)))
            j = 0
            while True:
                terms = work[: len(live)]
                held = None if blocks is None else blocks.block(j)
                if held is not None:
                    ratios = np.take(held, index, axis=0, out=terms, mode="clip")
                else:
                    if plus is None:
                        plus = np.empty((params.shape[1], size, _BLOCK))
                    plus_i = plus[:, : len(live)]
                    idx, one = _indices(j)
                    for k, p_i in enumerate(plus_i):
                        np.add(params[:, k : k + 1], idx, out=p_i)
                    ratios = _ratio_factors(plus_i[:-1], plus_i[-1], one, wide)
                ratios *= x
                below = ratios[:, -1] < 1.0
                np.multiply.accumulate(ratios, axis=1, out=terms)
                sums = np.add.reduce(terms, axis=1)
                maxes = np.maximum.reduce(terms, axis=1)
                lasts = terms[:, -1]
                new = acc + term * sums
                finite = new < math.inf
                if not finite.all():
                    steep = (~finite).nonzero()[0]
                    steep_ratios = ratios[steep] if held is None else held[index[steep]] * x[steep]
                    shift, steep_sums, maxes[steep], lasts[steep] = _log_block(steep_ratios)
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
                j += 1
                done = below & (term <= _TERM_FLOOR * top)
                if done.any():
                    if done.all():
                        out[live] = scale * _LN2 + _map(math.log, acc)
                        break
                    out[live[done]] = scale[done] * _LN2 + _map(math.log, acc[done])
                    keep = ~done
                    live, scale, acc, top, term, x, params = (
                        v[keep] for v in (live, scale, acc, top, term, x, params)
                    )
                    if wide is not False:
                        wide = wide[keep]
                    if index is not None:
                        index = index[keep]
                if j * _BLOCK >= TERM_CAP:
                    break
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
