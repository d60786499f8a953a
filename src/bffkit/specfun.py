"""Log-domain special functions, one value at a time or row-wise over arrays.

Everything here returns natural-log magnitudes so that callers never touch
quantities like 1F1(13, 0.5, 900), whose linear value overflows double
precision by hundreds of orders of magnitude.  The hypergeometric series are
summed by streaming log-sum-exp over buffered blocks of terms; all in-scope
calls have positive parameters and non-negative argument, so every term is
positive and the series is unimodal in the term index.

log_1f1 and log_2f1 evaluate one function value.  log_1f1_batch and
log_2f1_batch evaluate many at once through one block kernel that advances
every series of a chunk of rows together (the blocked log-sum-exp of
Pearson, Olver & Porter, arXiv:1407.7786, run over a batch axis); each row
comes out bit for bit equal to the one-value function.  A single value is
cheaper through the one-value functions, whose per-call overhead is lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LogValue",
    "NonConvergenceError",
    "log_gamma",
    "log_gamma_half_ratio",
    "digamma",
    "trigamma",
    "log_pochhammer",
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


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (log |x|, sign).

    sign is 0 exactly when the value is zero, in which case log_magnitude is
    meaningless and ignored.
    """

    log_magnitude: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign}")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(float("-inf"), 0)

    @classmethod
    def one(cls) -> "LogValue":
        return cls(0.0, 1)

    @classmethod
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogValue":
        return cls(log_magnitude, sign)

    def scaled(self, log_factor: float, sign: int = 1) -> "LogValue":
        """Multiply by sign * exp(log_factor)."""
        if self.sign == 0:
            return self
        return LogValue(self.log_magnitude + log_factor, self.sign * sign)

    def plus(self, other: "LogValue") -> "LogValue":
        """Signed log-sum-exp of two values."""
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        m = max(self.log_magnitude, other.log_magnitude)
        v = self.sign * math.exp(self.log_magnitude - m) + other.sign * math.exp(
            other.log_magnitude - m
        )
        if v == 0.0:
            return LogValue.zero()
        return LogValue(m + math.log(abs(v)), 1 if v > 0 else -1)

    def value(self) -> float:
        """Linear-domain value; overflows to +/-inf for huge magnitudes."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_magnitude)
        except OverflowError:
            return self.sign * float("inf")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# Asymptotic tails: psi(x) ~ ln x - 1/(2x) - sum B_2k/(2k x^2k),
# psi_1(x) ~ 1/x + 1/(2x^2) + sum B_2k/x^(2k+1).  With the recurrence shift
# to x >= 6 the truncation error is below 2e-13, well inside the 1e-10
# contract.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)
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


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < _PSI_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


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


def log_pochhammer(a: float, i: int) -> float:
    """ln of the rising factorial (a)(a+1)...(a+i-1); (a)^(0) = 1."""
    if i < 0:
        raise ValueError(f"log_pochhammer requires i >= 0, got {i}")
    if i == 0:
        return 0.0
    return log_gamma(a + i) - log_gamma(a)


_IDX = np.arange(_BLOCK, dtype=np.float64)
# Rows per chunk of the batched kernel: large enough to amortize numpy's
# per-call overhead, small enough to keep its (rows, _BLOCK) work arrays small.
_CHUNK = 128


def _nonconvergence(log_x: float, num: tuple, den: tuple) -> NonConvergenceError:
    return NonConvergenceError(
        f"series did not converge within {TERM_CAP} terms "
        f"(x=e^{log_x:.3g}, num={num}, den={den})"
    )


def _log_series_sum(log_x: float, num: tuple, den: tuple) -> float:
    """Log of sum_{i>=0} t_i with t_0 = 1 and
    t_{i+1}/t_i = x * prod(num + i) / prod(den + i).

    Terms are positive; the series is unimodal in i.  Blocks of log-terms are
    accumulated with an online-rescaled log-sum-exp.  Stops when the latest
    term is <= 1e-16 of the running maximum AND the term ratio is < 1 (past
    the series peak); raises NonConvergenceError at the term cap.
    """
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
            return log_max + math.log(acc)
    raise _nonconvergence(log_x, num, den)


def _log_series_sums(log_x: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """_log_series_sum row by row: row j sums the series with log argument
    log_x[j] and parameters num[.][j], den[.][j] (a parameter may also be a
    float shared by every row).

    Rows go through in chunks of _CHUNK.  Each block advances every live row
    of a chunk together, with exactly the block, floor and stopping rule of
    _log_series_sum, and a row leaves the chunk once it stops, so every row
    is bit for bit what _log_series_sum returns for it.  The rescale factor
    and the final log are taken per row with math.exp and math.log, as
    _log_series_sum takes them: numpy's exp and log may differ from them in
    the last bit.  A row still running at TERM_CAP comes back as NaN.
    """
    log_x = np.asarray(log_x, dtype=np.float64)
    out = np.full(len(log_x), np.nan)
    for lo in range(0, len(log_x), _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        _sum_chunk(
            out[rows],
            log_x[rows],
            [p[rows] if np.ndim(p) else p for p in num],
            [p[rows] if np.ndim(p) else p for p in den],
        )
    return out


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


def _check_1f1(a: float, b: float, x: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_1f1 requires a, b > 0, got a={a}, b={b}")
    if x < 0.0:
        raise ValueError(f"log_1f1 requires x >= 0, got x={x}")


def _check_2f1(a: float, b: float, c: float, x: float) -> None:
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError(f"log_2f1 requires a, b, c > 0, got a={a}, b={b}, c={c}")
    if x < 0.0 or x >= 1.0:
        raise ValueError(f"log_2f1 requires 0 <= x < 1, got x={x}")


def log_1f1(a: float, b: float, x: float) -> LogValue:
    """Log of the confluent hypergeometric function 1F1(a, b; x).

    Requires a > 0, b > 0, x >= 0, which keeps every series term positive.
    """
    _check_1f1(a, b, x)
    if x == 0.0:
        return LogValue.one()
    return LogValue(_log_series_sum(math.log(x), (a,), (b, 1.0)), 1)


def log_2f1(a: float, b: float, c: float, x: float) -> LogValue:
    """Log of the Gaussian hypergeometric function 2F1(a, b; c; x).

    Requires a, b, c > 0 and 0 <= x < 1.  For x > 0.9 the Euler
    transformation 2F1(a,b;c;x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x) is applied
    when both c-a and c-b are positive; otherwise the raw series is summed
    (the term cap is generous enough for arguments arbitrarily close to the
    in-scope bound tau^2/(1+tau^2)).
    """
    _check_2f1(a, b, c, x)
    if x == 0.0:
        return LogValue.one()
    if a > b:  # symmetric in (a, b); normalize so results match bit-for-bit
        a, b = b, a
    if x > _EULER_X and c - a > 0.0 and c - b > 0.0:
        log_sum = _log_series_sum(math.log(x), (c - a, c - b), (c, 1.0))
        return LogValue((c - a - b) * math.log1p(-x) + log_sum, 1)
    return LogValue(_log_series_sum(math.log(x), (a, b), (c, 1.0)), 1)


def _batch(check, params: tuple, bad: np.ndarray, x: np.ndarray, num: tuple, den: tuple):
    """Shared body of the batch entries: per-row domain errors, x == 0 rows,
    and one kernel pass over the remaining rows.  Returns (log sums, errors);
    a log sum is 0 where x == 0 and NaN on an error row."""
    errors = {}
    for j in np.flatnonzero(bad).tolist():
        try:
            check(*(float(p[j]) for p in params))
        except ValueError as exc:
            errors[j] = exc
    sums = np.where(bad, np.nan, 0.0)
    rows = np.flatnonzero(~bad & (x != 0.0))
    if len(rows):
        # math.log per row, as the one-value functions take it (see _log_series_sums)
        log_x = np.array([math.log(v) for v in x[rows].tolist()])
        num = tuple(p[rows] for p in num)
        den = tuple(p[rows] if np.ndim(p) else p for p in den)
        sums[rows] = _log_series_sums(log_x, num, den)
        for k in np.flatnonzero(np.isnan(sums[rows])).tolist():
            errors[int(rows[k])] = _nonconvergence(
                float(log_x[k]),
                tuple(float(p[k]) for p in num),
                tuple(float(p[k]) if np.ndim(p) else p for p in den),
            )
    return sums, errors


def log_1f1_batch(a, b, x) -> tuple[np.ndarray, dict[int, Exception]]:
    """log_1f1(a[j], b[j], x[j]).log_magnitude for every row j of
    equal-length float arrays, through one kernel pass.

    Returns (values, errors).  errors maps each row for which log_1f1 raises
    to the exception it raises, and that row's value is NaN; every other
    value is bit for bit log_1f1's.
    """
    a, b, x = (np.asarray(v, dtype=np.float64) for v in (a, b, x))
    bad = ~((a > 0.0) & (b > 0.0)) | (x < 0.0)
    return _batch(_check_1f1, (a, b, x), bad, x, (a,), (b, 1.0))


def log_2f1_batch(a, b, c, x) -> tuple[np.ndarray, dict[int, Exception]]:
    """log_2f1(a[j], b[j], c[j], x[j]).log_magnitude for every row j of
    equal-length float arrays, through one kernel pass; returns (values,
    errors) as log_1f1_batch does."""
    a, b, c, x = (np.asarray(v, dtype=np.float64) for v in (a, b, c, x))
    bad = ~((a > 0.0) & (b > 0.0) & (c > 0.0)) | (x < 0.0) | (x >= 1.0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)  # log_2f1's (a, b) normalization
    euler = (x > _EULER_X) & (c - lo > 0.0) & (c - hi > 0.0)
    num = (np.where(euler, c - lo, lo), np.where(euler, c - hi, hi))
    sums, errors = _batch(_check_2f1, (a, b, c, x), bad, x, num, (c, 1.0))
    for j in np.flatnonzero(euler & ~bad & (x != 0.0)).tolist():
        sums[j] = float(c[j] - lo[j] - hi[j]) * math.log1p(-float(x[j])) + float(sums[j])
    return sums, errors
