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
log_2f1 do, or _log_series_sums many plans of one length at once, each an x
over a plan row of a _Blocks, as bayes_factors._log_bf_items does (direct
summation, as in Pearson, Olver & Porter, arXiv:1407.7786, run over a batch
axis).  A caller that builds its plan rows as columns screens them with
_unclear, which tests _plan's one-ratio bound on every row at once, and
leaves the rows it flags to the one-value route, whose planners decide
them.  The batched kernel takes its rows in chunks, and each block
advances every live row of a chunk together, as a (rows, _BLOCK) array of
running products along each row; but the first block of a pass of
_BY_TERM to _PASS_CAP rows is held and summed term-major, as a (_BLOCK,
rows) array with one vector multiply per term across the rows and its sums
added in the order numpy adds a row (_term_major_sums), so that each row's
products and sums are the same doubles in either layout.
The one-plan kernel estimates from the plan alone how many blocks its
series needs (_blocks: the terms' closed-form peak and decay length) and
sums them as the rows of one array, at most _MAX_BLOCKS per numpy call, so
a series the estimate covers takes one call.  A series estimated at one block starts with that block alone,
and a series that outruns its estimate takes twice as many blocks per call
as its last, up to _MAX_BLOCKS.  A block takes no transcendental per term,
unless its terms rise too far within it for the carried sum (hundreds of
nats, as in the first blocks of a 1F1 series at x in the tens of
thousands): that block alone is summed in logs (_log_block).  Both kernels
take their term ratios as x P_i, with P_i = prod(num + i) / ((c + i)(1 +
i)) from _ratio_rows at the term indices from _indices, and x multiplied
last, and both keep the same block boundaries, fold, rescaling and stopping
rule, with only +, *, comparisons and exact scalings by powers of two
between blocks, so they agree bit for bit; _log_series_sums, which
advances each row one block at a time, is the reference the tests hold
_log_series_sum to.

P is free of the statistic: only x carries it, and the closed forms call
the functions with many statistics at few (r, design) pairs, as simulations
do, and an MMAP curve evaluates the same nodes in r at every omega.  So P is
kept where it repeats.  _log_series_sum keeps the P rows of each series'
first numpy call in _ROWS, one module-level dict that _fill_rows alone
fills, keyed by the plan's parameters (*num, c) (after _plan_2f1 puts a <=
b), whose arrays are read-only, own their buffers, and are at most _ROWS_CAP
rows of a block in all.  _log_series_sums takes every P from a _Blocks of
its plan rows' parameters, which a caller that evaluates one set of plan
rows at many x keeps across its calls.  A _Blocks holds block j, formed for
every row the first time the kernel reaches it, wherever its first j + 1
blocks fit within _PASS_CAP rows: a rule of j and the pass's size alone, so
a _Blocks may be shared between threads.  Either kernel takes a block's
ratios as its P times x, in one multiply: the double x P_i that it would
form anyway, so no value depends on what is held.

A plan whose products prod(num + i) or (c + i)(1 + i) could overflow within
the cap (_wide) takes P_i as ((a + i)/(c + i))((b + i)/(1 + i)); every other
plan takes it in the order above.

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


def _trigamma_tail(p: float, inv2: float) -> float:
    """sum_k _TRIGAMMA_TAIL[k] p inv2^k with inv2 = 1/x^2: the tail T(x) =
    psi_1(x) - 1/x - 1/(2x^2) at p = 1/x^3, and x^2 T(x) at p = 1/x."""
    tail = 0.0
    for c in _TRIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return tail


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
    return acc + inv + 0.5 * inv2 + _trigamma_tail(inv2 * inv, inv2)


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


def _log_gamma_ratio(z: float, d: float) -> float:
    """ln Gamma(z + d) - ln Gamma(z) for z > 0 and d >= 0, with absolute error
    near machine precision: from z = 50 up, the Stirling series (DLMF
    5.11.1), whose leading terms cancel analytically via log1p, where two
    lgamma values near 1e18 would lose hundreds of nats to their rounding."""
    if z < _HALF_RATIO_SWITCH:
        return math.lgamma(z + d) - math.lgamma(z)
    y = z + d
    return (
        0.5 * math.log(z)
        + z * math.log1p(d / z)
        + (d - 0.5) * math.log(y)
        - d
        + _stirling_tail(y)
        - _stirling_tail(z)
    )


def log_gamma_half_ratio(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x) for finite x > 0 (_log_gamma_ratio),
    which enters cancellation-prone brackets where absolute log errors are
    amplified."""
    if not 0.0 < x < math.inf:  # inf would reach the Stirling branch as inf * 0
        raise ValueError(f"log_gamma_half_ratio requires finite x > 0, got {x}")
    return _log_gamma_ratio(x, 0.5)


# Most blocks _log_series_sum takes in one numpy call (_blocks sizes each
# call), and the term indices i of the first _MAX_BLOCKS blocks, block j in
# row j, with 1 + i (exact), so that a block within them forms neither.
_MAX_BLOCKS = 32
_IDX_ROWS = np.arange(_MAX_BLOCKS * _BLOCK, dtype=np.float64).reshape(_MAX_BLOCKS, _BLOCK)
_ONE_ROWS = 1.0 + _IDX_ROWS


def _indices(j: int, k: int) -> tuple:
    """The term indices i of blocks j to j + k - 1, the rows of a (k, _BLOCK)
    array, and 1 + i: every block's indices, for both kernels, as slices of
    _IDX_ROWS and _ONE_ROWS where those reach, else computed (exactly)."""
    if j + k <= _MAX_BLOCKS:
        return _IDX_ROWS[j : j + k], _ONE_ROWS[j : j + k]
    idx = j * _BLOCK + _IDX_ROWS[:k]
    return idx, 1.0 + idx


# Rows per chunk of the batched kernel: large enough that a node pass of an
# MMAP curve (14 nodes in r times a set's plan rows) is one chunk, small
# enough to keep its work arrays at a few MiB.
_CHUNK = 1024
# Rows from which a held pass's block 0 is held and summed term-major
# (_Blocks, _term_major_sums): one vector multiply per term across the rows
# in place of a serial running product along each row, at a fixed cost of
# _BLOCK - 1 numpy calls.  A _log_series_sums call on a held pass whose rows
# all stop in block 0 took, row-major against term-major, 125 against 128 us
# at 128 rows, 149 against 137 at 160, 222 against 166 at 256, 320 against
# 198 at 384 and 461 against 273 at 560 (an MMAP node pass of 20 one-sided
# t studies), on a 2-core Xeon VM.
_BY_TERM = 160
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
# parameters (*num, c), the plan without x: row j holds P of block j.  Each
# array is read-only and owns its buffer (a view would keep the array it was
# cut from alive).  They hold at most _ROWS_CAP rows of 1 KiB (4 MiB),
# counted in _rows_held; a fill that would pass the cap clears them first.
# The benchmark's sim_points series take 3,342 rows over 338 parameter
# tuples.  The batched kernel keeps no entry here (see _Blocks).
_ROWS: dict = {}
_ROWS_CAP = 4096
_rows_held = 0
# Rows of blocks a _Blocks holds at most (1 KiB each, 4 MiB).
_PASS_CAP = 4096
# Rows a _Blocks forms P for at a time: its parameters plus a block's
# indices then take arrays of 64 KiB, below the size from which each new
# array costs page faults of its own.
_PIECE = 64
# _wide's bound on a product of P's narrow form: 2^24 below the largest
# double, far more than the rounding of the products that test it.  For i
# below 2^30 (TERM_CAP is 10^7), (a + i)(b + i) < 2^802 and (c + i)(1 + i) <
# 2^431 where every parameter is below 2^400, so no such plan is wide.
_WIDE = 2.0**1000


def _nonconvergence(plan: tuple) -> NonConvergenceError:
    x, *num, c = plan
    return NonConvergenceError(
        f"series did not converge within {TERM_CAP} terms "
        f"(x={x:.3g}, num={num}, c={c})"
    )


def _check_cap(plan: tuple) -> None:
    """Raise NonConvergenceError when the series of plan cannot stop within
    TERM_CAP terms.

    The kernel stops by the cap exactly when the term at TERM_CAP is below
    _LOG_TERM_FLOOR relative to the largest term.  The terms are unimodal,
    so the largest is the first whose successor is not larger, found by
    bisection on the term ratio, and the log of a term is a sum of lgamma
    differences (Pochhammer symbols, _log_gamma_ratio).  The test leaves a
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
        + sum(_log_gamma_ratio(p + lo, TERM_CAP - lo) for p in num)
        - sum(_log_gamma_ratio(q + lo, TERM_CAP - lo) for q in den)
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
    _check_cap's exact test, as does a NaN bound (inf over inf, of
    parameters near the largest double).
    """
    plan = (x, *num, c)
    bound = _ratio_bound(num, c, x)
    if not bound < 1.0 or bound ** (0.5 * TERM_CAP) > 1e-16:  # a power of a bound above 1 can overflow
        _check_cap(plan)
    return plan


# log(1e-16), less a margin far wider than the rounding of a column log
_LOG_BOUND_FLOOR = math.log(1e-16) - 1.0


def _unclear(num, c, x) -> np.ndarray:
    """The mask of the rows of the columns (num, c, x) whose bound _plan may
    not clear: every row it does not clear, the few more whose h-th power
    of the bound, tested here in logs, lies within _LOG_BOUND_FLOOR's
    margin of 1e-16, and every row whose bound is NaN (an infinite
    parameter at x = 0, which the planners reject, or inf over inf, which
    they test exactly).  A row outside the mask needs no planner."""
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


def _ratio_rows(num, c, wide, idx, one) -> np.ndarray:
    """Every P either kernel takes: P_i = prod(num + i) / ((c + i)(1 + i))
    at the indices i = idx, with one = 1 + idx (_indices), as a new array,
    of the plan (x, *num, c) of floats, whose _wide is wide, or of the plan
    rows of the columns num and c, of shape (n, 1), whose mask of wide rows
    is wide (False for none).  A wide plan takes P_i as ((a + i)/(c + i))((b
    + i)/(1 + i)), or (a + i)/(c + i)/(1 + i) for a 1F1, whose factors
    cannot overflow where the products can; every other plan takes the form
    above, in its order.  A mask's wide rows are formed both ways under the
    caller's np.errstate, and keep the wide form.

    The term ratio t_{i+1}/t_i of the plan (x, *num, c) is x P_i, with x
    multiplied last by either kernel: P is free of the statistic, which only
    x carries, so a ratio is the same double whether its P was formed for
    this x or taken from _ROWS or a _Blocks."""
    num_i = [p + idx for p in num]
    c_i = c + idx
    if wide is True:
        return _wide_factors(num_i, c_i, one)
    mask = wide is not False and wide.any()
    if mask:
        rows = _wide_factors([p_i[wide] for p_i in num_i], c_i[wide], one)
    inc = num_i[0]
    for p_i in num_i[1:]:
        inc *= p_i
    c_i *= one
    inc /= c_i
    if mask:
        inc[wide] = rows
    return inc


def _wide_factors(num_i, c_i, one_i):
    """_ratio_rows' wide form of num_i = num + i, c_i = c + i and one_i."""
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
    """The new entry of _ROWS for key, read-only: the P rows of the first k
    blocks of the plan (*num, c), k at most _MAX_BLOCKS, below _ROWS_CAP.
    It replaces the key's entry, if any."""
    global _rows_held
    rows = _ratio_rows(num, c, _wide(num, c), *_indices(0, k))
    rows.setflags(write=False)
    _rows_held -= len(_ROWS.pop(key, ()))
    if _rows_held + len(rows) > _ROWS_CAP:
        _ROWS.clear()
        _rows_held = 0
    _ROWS[key] = rows
    _rows_held += len(rows)
    return rows


class _Blocks:
    """The P rows of the plan rows (*num, c) of the columns num and c: the
    batched kernel's one source of P.  A caller that evaluates the rows at
    many x (an MMAP curve's node pass, a fixed-r curve's pass) keeps one
    _Blocks for them across its _log_series_sums calls.

    The holding rule: P of block j, P_i for i in j * _BLOCK to (j + 1) *
    _BLOCK - 1, is formed for every row the first time the kernel reaches
    it, made read-only, owning its buffer, and held in held[j], wherever
    (j + 1) * len(c) <= _PASS_CAP; a block past the cap is formed for the
    rows asked for at each call.  The rule depends on j and the pass's size
    alone, and a block is stored by held.setdefault, so threads that share
    a _Blocks all read the first block stored for j, and none sees a block
    half formed.  Both ways form P by _ratio_rows, _PIECE rows at a time,
    so no value depends on what is held.

    The layout: a held block is (rows, _BLOCK), one row per plan row, but
    block 0 of a pass of _BY_TERM to _PASS_CAP rows (by_term), which is held
    term-major, (_BLOCK, rows), one column per plan row, so that the kernel
    sums it term-major.  Each block is held in one layout only: a read in
    the other layout (the steep rows' second read of block 0, a live set
    below _BY_TERM rows) gathers it by column."""

    def __init__(self, num: list, c: np.ndarray):
        self.num = num
        self.c = c
        self.wide = None  # _wide's mask, or False for no wide row, once formed
        self.held = {}
        self.by_term = _BY_TERM <= len(c) <= _PASS_CAP

    def hold(self, j: int):
        """Held block j, or None past the cap (see the holding rule)."""
        block = self.held.get(j)
        if block is None and (j + 1) * len(self.c) <= _PASS_CAP:
            every = np.arange(len(self.c))
            if j == 0 and self.by_term:
                block = np.empty((_BLOCK, len(every)))
                self._form(0, every, block.T)
            else:
                block = self._form(j, every, np.empty((len(every), _BLOCK)))
            block.setflags(write=False)
            block = self.held.setdefault(j, block)
        return block

    def take(self, j: int, rows: np.ndarray, out: np.ndarray, by_term: bool = False) -> np.ndarray:
        """P of block j for each row rows[i], as row i of the result, or as
        its column i where by_term (which only a held term-major block 0
        takes): the held block itself where that is every row in order in
        the same layout, else written to out, of the result's shape, and
        returned.  Under the kernel's np.errstate (a wide row's products of
        the narrow form, which it replaces, may overflow)."""
        block = self.hold(j)
        if block is None:
            return self._form(j, rows, out)
        term_major = j == 0 and self.by_term
        if term_major == by_term and len(rows) == len(self.c) and np.array_equal(rows, np.arange(len(rows))):
            return block
        if not term_major:
            return np.take(block, rows, axis=0, out=out, mode="clip")
        np.take(block, rows, axis=1, out=out if by_term else out.T, mode="clip")
        return out

    def _form(self, j: int, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        idx, one = _indices(j, 1)
        wide = self.wide
        if wide is None:
            wide = _wide(self.num, self.c)
            wide = self.wide = wide if wide.any() else False
        for lo in range(0, len(rows), _PIECE):
            part = rows[lo : lo + _PIECE]
            num = [p[part, None] for p in self.num]
            part_wide = wide if wide is False else wide[part]
            out[lo : lo + _PIECE] = _ratio_rows(num, self.c[part, None], part_wide, idx, one)
        return out


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
    bound = x * (max(num[0], c) / c) * (max(num[1], 1.0) if len(num) == 2 else 1.0)
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
        wide = None  # _wide of the plan, once a later call needs it
        while i0 < TERM_CAP:
            k = min(k, -(-(TERM_CAP - i0) // _BLOCK))  # only blocks starting below the cap
            if i0:
                if wide is None:
                    wide = _wide(num, c)
                ratios = _ratio_rows(num, c, wide, *_indices(i0 // _BLOCK, k))
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


def _term_major_sums(ratios: np.ndarray) -> tuple:
    """(below, sums, maxes, lasts) of the term-major block ratios, of shape
    (_BLOCK, rows), whose terms replace them: whether each row's last ratio
    is below 1, and the sum, largest and last of its terms from a start of
    1.  Bit for bit what the row-major kernel takes of the transpose: each
    term is the product of the one before and its ratio, in turn, as in
    np.multiply.accumulate, here one vector multiply per term across the
    rows; and the sum is added in the order of numpy's add.reduce of a
    contiguous row of _BLOCK = 128 doubles (pairwise summation, which
    below 129 elements unrolls by 8): eight running partial sums of the
    terms i = k mod 8, each in turn, then ((p0 + p1) + (p2 + p3)) + ((p4 +
    p5) + (p6 + p7)).  The terms are never negative, so the largest does not
    depend on order."""
    below = ratios[-1] < 1.0
    terms = list(ratios)
    for prev, row in zip(terms, terms[1:]):
        np.multiply(prev, row, row)
    p = np.add.reduce(ratios.reshape(_BLOCK // 8, 8, -1), axis=0)
    sums = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    return below, sums, np.maximum.reduce(ratios, axis=0), ratios[-1]


def _log_series_sums(x: np.ndarray, blocks: _Blocks, rows: np.ndarray) -> np.ndarray:
    """_log_series_sum of each plan (x[j], *num, c) whose parameters (*num,
    c) are row rows[j] of blocks.  A plan still running at TERM_CAP comes
    back as NaN.

    A plan at x = 0 comes back as 0.0 (see the module docstring), and the
    other rows go through in chunks of _CHUNK.  Each block advances every
    live row of a chunk together, with exactly the block, fold, rescale and
    stopping rule of _log_series_sum as column operations, and a row leaves
    the chunk (and its columns) once it stops, so every row is bit for bit
    what _log_series_sum returns for it.  A block's ratios are its P rows
    from blocks (_Blocks.take) times x: block 0 held term-major, for a live
    set of _BY_TERM rows or more, as a term-major array summed by
    _term_major_sums, which rounds each row as the row-major path does.
    The work array is allocated once per call and shaped to each block's
    layout: arrays of a block's size allocated per block took about 2,000
    page faults per round of the benchmark's stroop_mmap workload.  The
    final log is taken per row with math.log, as _log_series_sum takes it:
    numpy's log may differ from it in the last bit.
    """
    out = np.full(len(x), math.nan)
    out[x == 0.0] = 0.0
    todo = x.nonzero()[0]
    # a block's ratios, then its terms: (rows, _BLOCK), or its flat buffer
    # as (_BLOCK, rows)
    work = np.empty((min(len(todo), _CHUNK), _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):  # as in _log_series_sum
        for lo in range(0, len(todo), _CHUNK):
            live = todo[lo : lo + _CHUNK]
            x_live, index = (x[:, None], rows) if len(live) == len(x) else (x[live, None], rows[live])
            scale = np.zeros(len(live), dtype=int)
            acc, top, term = np.ones((3, len(live)))
            j = 0
            while True:
                n = len(live)
                if j == 0 and n >= _BY_TERM and blocks.by_term:
                    ratios = work[:n].reshape(_BLOCK, n)
                    np.multiply(blocks.take(0, index, ratios, True), x_live.T, ratios)
                    below, sums, maxes, lasts = _term_major_sums(ratios)
                else:
                    ratios = work[:n]
                    np.multiply(blocks.take(j, index, ratios), x_live, ratios)
                    below = ratios[:, -1] < 1.0
                    terms = np.multiply.accumulate(ratios, axis=1, out=ratios)
                    sums = np.add.reduce(terms, axis=1)
                    maxes = np.maximum.reduce(terms, axis=1)
                    lasts = terms[:, -1]
                new = acc + term * sums
                finite = new < math.inf
                if not finite.all():
                    # the steep rows' ratios again, as the terms replaced them
                    steep = (~finite).nonzero()[0]
                    steep_ratios = np.empty((len(steep), _BLOCK))
                    np.multiply(blocks.take(j, index[steep], steep_ratios), x_live[steep], steep_ratios)
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
                    live, scale, acc, top, term, x_live, index = (
                        v[keep] for v in (live, scale, acc, top, term, x_live, index)
                    )
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
