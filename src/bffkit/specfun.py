"""Log-domain special functions.

Everything here returns natural logs, as plain floats, so that callers never
touch quantities like 1F1(13, 0.5, 900), whose linear value overflows double
precision by hundreds of orders of magnitude.  The hypergeometric series are
summed by streaming log-sum-exp over buffered blocks of terms; all in-scope
calls have positive parameters and non-negative argument, so every term is
positive and the series is unimodal in the term index.

Each hypergeometric function is evaluated in two steps.  A planner
(_plan_1f1, _plan_2f1) checks the arguments and decides which series to sum:
the x = 0 shortcut, 2F1's (a, b) normalization and, for 2F1 arguments near
1, the Euler transformation.  It returns the plan (log scale, log x, num,
den), and the function's log is the log scale plus the log of the planned
series.  A block kernel then sums the plan: _log_series_sum one plan, as
log_1f1 and log_2f1 do, or _log_series_sums many plans of one arity at once,
advancing every series of a chunk of rows together (the blocked log-sum-exp
of Pearson, Olver & Porter, arXiv:1407.7786, run over a batch axis), as
bayes_factors.log_bf10_batch does.  Each row of the batched kernel comes out
bit for bit equal to the one-plan kernel, which is cheaper for a single
value because its per-call overhead is lower.
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
# per-call overhead, small enough to keep its (rows, _BLOCK) work arrays small.
_CHUNK = 128


def _nonconvergence(plan: tuple) -> NonConvergenceError:
    _, log_x, num, den = plan
    return NonConvergenceError(
        f"series did not converge within {TERM_CAP} terms "
        f"(x=e^{log_x:.3g}, num={num}, den={den})"
    )


def _plan_1f1(a: float, b: float, x: float) -> tuple | None:
    """The series of log_1f1(a, b, x) as (log scale, log x, num, den), or
    None at x = 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_1f1 requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"log_1f1 requires finite x >= 0, got x={x}")
    if x == 0.0:
        return None
    plan = (0.0, math.log(x), (a,), (b, 1.0))
    i = TERM_CAP - 1.0
    if not x * (a + i) / ((b + i) * (1.0 + i)) < 1.0:
        raise _nonconvergence(plan)  # see _plan_2f1
    return plan


def _plan_2f1(a: float, b: float, c: float, x: float) -> tuple | None:
    """The series of log_2f1(a, b, c, x) as (log scale, log x, num, den), or
    None at x = 0.

    Raises NonConvergenceError when the series cannot stop within TERM_CAP
    terms: the terms are unimodal, so a term ratio not yet below 1 at the
    last term the kernel forms means every term up to the cap is still
    rising.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError(f"log_2f1 requires a, b, c > 0, got a={a}, b={b}, c={c}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"log_2f1 requires 0 <= x < 1, got x={x}")
    if x == 0.0:
        return None
    if a > b:  # symmetric in (a, b); normalize so results match bit-for-bit
        a, b = b, a
    scale = 0.0
    if x > _EULER_X and c - a > 0.0 and c - b > 0.0:
        # Euler: 2F1(a, b; c; x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x)
        scale, a, b = (c - a - b) * math.log1p(-x), c - a, c - b
    plan = (scale, math.log(x), (a, b), (c, 1.0))
    i = TERM_CAP - 1.0
    if not x * (a + i) * (b + i) / ((c + i) * (1.0 + i)) < 1.0:
        raise _nonconvergence(plan)
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


def _column(values: tuple):
    """One parameter of many plans: a float when every plan shares it."""
    return values[0] if values.count(values[0]) == len(values) else np.array(values)


def _log_series_sums(plans: list) -> list[float]:
    """_log_series_sum of each plan; all plans have the same arity (the
    lengths of num and den).  A plan still running at TERM_CAP comes back
    as NaN.

    Rows go through in chunks of _CHUNK.  Each block advances every live row
    of a chunk together, with exactly the block, floor and stopping rule of
    _log_series_sum, and a row leaves the chunk once it stops, so every row
    is bit for bit what _log_series_sum returns for it.  The rescale factor
    and the final log are taken per row with math.exp and math.log, as
    _log_series_sum takes them: numpy's exp and log may differ from them in
    the last bit.
    """
    if not plans:
        return []
    scale, log_x, num, den = zip(*plans)
    log_x = np.array(log_x)
    num = [_column(p) for p in zip(*num)]
    den = [_column(p) for p in zip(*den)]
    out = np.full(len(plans), np.nan)
    for lo in range(0, len(plans), _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        _sum_chunk(
            out[rows],
            log_x[rows],
            [p[rows] if np.ndim(p) else p for p in num],
            [p[rows] if np.ndim(p) else p for p in den],
        )
    return [s + v for s, v in zip(scale, out.tolist())]


def _sum_chunk(out: np.ndarray, log_x: np.ndarray, num: list, den: list) -> None:
    """The block loop of _log_series_sum over the rows of one chunk, writing
    each row's result into out as the row stops.  Live rows are kept
    compacted at the top of three reused (rows, _BLOCK) work arrays."""
    live = np.arange(len(log_x))
    lx = log_x[:, None]
    num = [p[:, None] if np.ndim(p) else p for p in num]
    den = [p[:, None] if np.ndim(p) else p for p in den]
    log_max = np.zeros(len(live))
    acc = np.ones(len(live))
    log_term = np.zeros(len(live))
    work = np.empty((3, len(live), _BLOCK))
    i0 = 0.0
    while i0 < TERM_CAP:
        inc, tmp, log_terms = work[:, : len(live)]
        idx = i0 + _IDX
        np.add(num[0], idx, out=inc)
        for a in num[1:]:
            inc *= np.add(a, idx, out=tmp)
        np.add(den[0], idx, out=tmp)
        for b in den[1:]:
            tmp *= b + idx
        inc /= tmp
        np.log(inc, out=inc)
        inc += lx
        np.cumsum(inc, axis=1, out=log_terms)
        log_terms += log_term[:, None]
        block_max = log_terms.max(axis=1)
        up = np.flatnonzero(block_max > log_max)
        if len(up):
            acc[up] *= [math.exp(d) for d in (log_max[up] - block_max[up]).tolist()]
            log_max[up] = block_max[up]
        acc += np.exp(np.subtract(log_terms, log_max[:, None], out=tmp), out=tmp).sum(axis=1)
        log_term = log_terms[:, -1].copy()
        i0 += _BLOCK
        done = (inc[:, -1] < 0.0) & (log_term - log_max <= _LOG_TERM_FLOOR)
        if done.any():
            out[live[done]] = [
                m + math.log(a) for m, a in zip(log_max[done].tolist(), acc[done].tolist())
            ]
            keep = np.flatnonzero(~done)
            if len(keep) == 0:
                return
            live, lx, log_max, acc, log_term = (
                v[keep] for v in (live, lx, log_max, acc, log_term)
            )
            num = [p[keep] if np.ndim(p) else p for p in num]
            den = [p[keep] if np.ndim(p) else p for p in den]


def log_1f1(a: float, b: float, x: float) -> float:
    """Log of the confluent hypergeometric function 1F1(a, b; x); 0.0 at x = 0.

    Requires a > 0, b > 0 and finite x >= 0, which keeps every series term
    positive.
    """
    plan = _plan_1f1(a, b, x)
    return 0.0 if plan is None else _log_series_sum(plan)


def log_2f1(a: float, b: float, c: float, x: float) -> float:
    """Log of the Gaussian hypergeometric function 2F1(a, b; c; x); 0.0 at x = 0.

    Requires a, b, c > 0 and 0 <= x < 1.  For x > 0.9 the Euler
    transformation 2F1(a,b;c;x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x) is applied
    when both c-a and c-b are positive; otherwise the raw series is summed
    (the term cap is generous enough for arguments arbitrarily close to the
    in-scope bound tau^2/(1+tau^2)).
    """
    plan = _plan_2f1(a, b, c, x)
    return 0.0 if plan is None else _log_series_sum(plan)
