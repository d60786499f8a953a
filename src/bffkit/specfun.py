"""Log-domain special functions.

Everything here returns natural logs, as plain floats, so that callers never
touch quantities like 1F1(13, 0.5, 900), whose linear value overflows double
precision by hundreds of orders of magnitude.  The hypergeometric series are
summed by streaming log-sum-exp over buffered blocks of terms; all in-scope
calls have positive parameters and non-negative argument, so every term is
positive and the series is unimodal in the term index.

Each hypergeometric function is evaluated in two steps.  A planner
(_plan_1f1, _plan_2f1) checks the arguments, decides which series to sum
(2F1's (a, b) normalization and, for 2F1 arguments near 1, the Euler
transformation) and rejects a series that cannot stop within TERM_CAP terms.
It returns the plan (log scale, log x, num, den), and the function's log is
the log scale plus the log of the planned series.  A block kernel then sums
the plan: _log_series_sum one plan, as log_1f1 and log_2f1 do, or
_log_series_sums many plans of one arity at once, as
bayes_factors.log_bf10_batch does (the blocked log-sum-exp of Pearson, Olver
& Porter, arXiv:1407.7786, run over a batch axis).  The batched kernel takes
its plans in chunks of rows; a chunk is one array with a row (log x, *num,
*den) per plan, and each block advances every live row of the chunk
together.  Each of its rows comes out bit for bit equal to the one-plan
kernel, which is cheaper for a single value because its per-call overhead
is lower.
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
# Euler transformation threshold for 2F1 arguments close to 1.
_EULER_X = 0.9


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
# Rows per chunk of the batched kernel: large enough to amortize numpy's
# per-call overhead, small enough to keep its per-block arrays small.
_CHUNK = 128


def _nonconvergence(plan: tuple) -> NonConvergenceError:
    _, log_x, num, den = plan
    return NonConvergenceError(
        f"series did not converge within {TERM_CAP} terms "
        f"(x=e^{log_x:.3g}, num={num}, den={den})"
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
    _, log_x, num, den = plan
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


def _plan_1f1(a: float, b: float, x: float) -> tuple:
    """The series of log_1f1(a, b, x) as (log scale, log x, num, den).

    At x = 0 the series is its first term, 1: log x = -inf makes every
    later term 0, and either kernel sums the plan to 0.0 in one block.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_1f1 requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"log_1f1 requires finite x >= 0, got x={x}")
    plan = (0.0, math.log(x) if x > 0.0 else -math.inf, (a,), (b, 1.0))
    h = 0.5 * TERM_CAP  # bound the term ratio as _plan_2f1 does
    bound = x * (a + b + h) / ((b + h) * (1.0 + h))
    if bound >= 1.0 or bound**h > 1e-16:
        _check_cap(plan)
    return plan


def _plan_2f1(a: float, b: float, c: float, x: float) -> tuple:
    """The series of log_2f1(a, b, c, x) as (log scale, log x, num, den),
    with log x = -inf at x = 0 (see _plan_1f1).

    Raises NonConvergenceError when the series cannot stop within TERM_CAP
    terms.  A one-ratio bound clears nearly every plan: for i >= h =
    TERM_CAP / 2 (TERM_CAP is even), (a+i)/(c+i) = 1 + (a-c)/(c+i) is at
    most (a+c+h)/(c+h) and (b+i)/(1+i) at most (b+1+h)/(1+h), so the terms
    fall over the last h of the cap at least by the h-th power of their
    product with x.  A plan it does not clear goes through _check_cap's
    exact test.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError(f"log_2f1 requires a, b, c > 0, got a={a}, b={b}, c={c}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"log_2f1 requires 0 <= x < 1, got x={x}")
    if a > b:  # symmetric in (a, b); normalize so results match bit-for-bit
        a, b = b, a
    scale = 0.0
    if x > _EULER_X and c - a > 0.0 and c - b > 0.0:
        # Euler: 2F1(a, b; c; x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x)
        scale, a, b = (c - a - b) * math.log1p(-x), c - a, c - b
    plan = (scale, math.log(x) if x > 0.0 else -math.inf, (a, b), (c, 1.0))
    h = 0.5 * TERM_CAP
    bound = x * (a + c + h) * (b + 1.0 + h) / ((c + h) * (1.0 + h))
    if bound >= 1.0 or bound**h > 1e-16:  # a power of a bound above 1 can overflow
        _check_cap(plan)
    return plan


def _log_series_sum(plan: tuple) -> float:
    """log scale + log of sum_{i>=0} t_i for a plan (log scale, log x, num,
    den), with t_0 = 1 and t_{i+1}/t_i = x * prod(num + i) / prod(den + i).

    Terms are positive; the series is unimodal in i.  Blocks of log-terms are
    accumulated with an online-rescaled log-sum-exp.  Stops when the latest
    term is <= 1e-16 of the running maximum AND the term ratio is < 1 (past
    the series peak); raises NonConvergenceError at the term cap.
    """
    scale, log_x, num, den = plan
    log_max = 0.0
    acc = 1.0
    log_term = 0.0
    i0 = 0.0
    while i0 < TERM_CAP:
        idx = i0 + _IDX
        ratio = num[0] + idx
        for a in num[1:]:
            ratio = ratio * (a + idx)
        dprod = den[0] + idx
        for b in den[1:]:
            dprod = dprod * (b + idx)
        ratio /= dprod
        inc = np.log(ratio)
        inc += log_x
        log_terms = log_term + np.cumsum(inc)
        block_max = float(log_terms.max())
        if block_max > log_max:
            acc = acc * math.exp(log_max - block_max) + float(
                np.exp(log_terms - block_max).sum()
            )
            log_max = block_max
        else:
            acc += float(np.exp(log_terms - log_max).sum())
        log_term = float(log_terms[-1])
        i0 += _BLOCK
        if inc[-1] < 0.0 and log_term - log_max <= _LOG_TERM_FLOOR:
            return scale + (log_max + math.log(acc))
    raise _nonconvergence(plan)


def _log_series_sums(plans: list) -> list[float]:
    """_log_series_sum of each plan; all plans have the same arity (the
    lengths of num and den).  A plan still running at TERM_CAP comes back
    as NaN.

    Rows go through in chunks of _CHUNK.  A chunk is one (rows, columns)
    array with a row (log x, *num, *den) per plan.  Each block advances
    every live row of a chunk together, with exactly the block, floor and
    stopping rule of _log_series_sum, and a row leaves the chunk once it
    stops, so every row is bit for bit what _log_series_sum returns for it.
    The rescale factor and the final log are taken per row with math.exp
    and math.log, as _log_series_sum takes them: numpy's exp and log may
    differ from them in the last bit.
    """
    out = [math.nan] * len(plans)
    for lo in range(0, len(plans), _CHUNK):
        chunk = plans[lo : lo + _CHUNK]
        arity = len(chunk[0][2])
        params = np.array([(log_x, *num, *den) for _, log_x, num, den in chunk], dtype=float)
        live = np.arange(lo, lo + len(chunk))
        log_max = np.zeros(len(live))
        acc = np.ones(len(live))
        log_term = np.zeros(len(live))
        i0 = 0.0
        while i0 < TERM_CAP:
            idx = i0 + _IDX
            inc = params[:, 1, None] + idx
            for j in range(2, 1 + arity):
                inc *= params[:, j, None] + idx
            dprod = params[:, 1 + arity, None] + idx
            for j in range(2 + arity, params.shape[1]):
                dprod *= params[:, j, None] + idx
            inc /= dprod
            np.log(inc, out=inc)
            inc += params[:, :1]
            log_terms = np.cumsum(inc, axis=1)
            log_terms += log_term[:, None]
            block_max = log_terms.max(axis=1)
            up = np.flatnonzero(block_max > log_max)
            if len(up):
                acc[up] *= [math.exp(d) for d in (log_max[up] - block_max[up]).tolist()]
                log_max[up] = block_max[up]
            acc += np.exp(log_terms - log_max[:, None]).sum(axis=1)
            log_term = log_terms[:, -1]
            i0 += _BLOCK
            done = (inc[:, -1] < 0.0) & (log_term - log_max <= _LOG_TERM_FLOOR)
            if done.any():
                for j, m, a in zip(live[done].tolist(), log_max[done].tolist(), acc[done].tolist()):
                    out[j] = plans[j][0] + (m + math.log(a))
                keep = ~done
                if not keep.any():
                    break
                live, params, log_max, acc, log_term = (
                    v[keep] for v in (live, params, log_max, acc, log_term)
                )
    return out


def log_1f1(a: float, b: float, x: float) -> float:
    """Log of the confluent hypergeometric function 1F1(a, b; x); 0.0 at x = 0.

    Requires a > 0, b > 0 and finite x >= 0, which keeps every series term
    positive.
    """
    return _log_series_sum(_plan_1f1(a, b, x))


def log_2f1(a: float, b: float, c: float, x: float) -> float:
    """Log of the Gaussian hypergeometric function 2F1(a, b; c; x); 0.0 at x = 0.

    Requires a, b, c > 0 and 0 <= x < 1.  For x > 0.9 the Euler
    transformation 2F1(a,b;c;x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x) is applied
    when both c-a and c-b are positive; otherwise the raw series is summed.
    A series that cannot stop within TERM_CAP terms raises
    NonConvergenceError before any term is summed.
    """
    return _log_series_sum(_plan_2f1(a, b, c, x))
