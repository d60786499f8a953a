"""Closed-form log Bayes factors for z, t, chi-square, and F statistics.

Each function returns log BF10 against a point null, under a non-local prior
on the non-centrality parameter: a normal-moment prior (two-sided or one-sided)
for z/t, and a Gamma(k/2 + r, 1/(2 tau_sq)) prior for chi-square/F.  All
arithmetic is carried out on plain float logs.

All six forms are one expression.  With x = s tau_sq / (1 + tau_sq),

    log BF10 = -(c + r) log1p(tau_sq) + log[F(c + r, *extra; c; x) + odd],

where F is 1F1 when extra is empty and 2F1 otherwise.  The one-sided z and
t forms add the odd term

    odd = sign 2 sqrt(x) e^(log_ratio + log_ratio_r) F(c + r + 1/2, *(e + 1/2); 3/2; x)

with log_ratio_r = ln Gamma(r + 1) - ln Gamma(r + 1/2); the bracket is
combined by a signed log-sum-exp (_assemble), because the odd term carries
the sign of the statistic.  Per form:

    form          c     extra          s              sign   log_ratio
    z (two, one)  1/2   ()             z^2 / 2        0, +-1  0
    t (two, one)  1/2   ((nu+1)/2,)    t^2/(nu+t^2)   0, +-1  0, ln G(nu/2+1) - ln G((nu+1)/2)
    chi-square    k/2   ()             h / 2          0      0
    F             k/2   ((k+m)/2,)     kf/(m+kf)      0      0

A one-sided sign is that of the statistic.  A study part (_z_study,
_t_study, _chisq_study, _f_study; _study_part of a TestStatistic) checks the
statistic's values, the only place they are checked, and returns its row as
a _StudyPart.  A TestStatistic builds its study part once, when it is built.

The rest is computed by one of two routes, chosen by the shape of the call.
A single value (log_bf10 and the six one-value forms, through _evaluate) is
_item and _assemble on plain floats, calling log_1f1/log_2f1: the reference
route, with the lowest overhead per call.  Many values at once (a column
pass of evidence, over the columns of _study_columns) are the same steps on
numpy columns, with every transcendental still a per-element math call, and
one batched kernel pass per function.  They are two steps: a layout
(_layout) of everything that does not depend on tau_sq, from the r-free
plan rows of the study parts (_plan_rows), with each function's
specfun._Blocks, and the x step (_log_bf_items).  evidence builds a layout
once per pass of r over a study set, whose rs it has checked, and keeps the
one that repeats at every omega, whose ratio rows _Blocks' reuse rule
holds.  There, screens flag and _evaluate decides: the one-value route
evaluates every item a column test flags, so the two routes agree bit for
bit, errors included.

tau_sq = 0 is accepted everywhere and returns log BF = 0 exactly (the prior
degenerates to the null; evidence grids start at omega > 0 to keep priors
proper, but the limiting value keeps the omega -> 0 endpoint well-defined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .priors import _check_shape
from .specfun import (
    NonConvergenceError,
    _Blocks,
    _log_series_sums,
    _map,
    _unclear,
    log_1f1,
    log_2f1,
    log_gamma_half_ratio,
)

__all__ = [
    "StatFamily",
    "Sidedness",
    "TestStatistic",
    "log_bf10_z_two",
    "log_bf10_z_one",
    "log_bf10_t_two",
    "log_bf10_t_one",
    "log_bf10_chisq",
    "log_bf10_f",
    "log_bf10",
]


class StatFamily(Enum):
    Z = "z"
    T = "t"
    CHI_SQ = "chisq"
    F = "f"


class Sidedness(Enum):
    ONE_SIDED = "one"
    TWO_SIDED = "two"


# the metadata fields each family takes; the others must be absent
_TAKES = {
    StatFamily.Z: ("sided",),
    StatFamily.T: ("sided", "nu"),
    StatFamily.CHI_SQ: ("k",),
    StatFamily.F: ("k", "m"),
}


@dataclass(frozen=True)
class TestStatistic:
    """One observed test statistic with the metadata its family requires.

    nu is the t denominator degrees of freedom; k the chi-square/F numerator
    degrees of freedom; m the F denominator degrees of freedom.  A built
    statistic holds the study part of its closed form, whose builder is the
    one check of its values.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    family: StatFamily
    value: float
    sided: Sidedness | None = None
    nu: float | None = None
    k: float | None = None
    m: float | None = None
    _part: "_StudyPart" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.family, StatFamily):
            raise ValueError(f"family must be a StatFamily, got {self.family!r}")
        takes = _TAKES[self.family]
        for name in ("sided", "nu", "k", "m"):
            if (getattr(self, name) is None) == (name in takes):
                need = "require" if name in takes else "do not take"
                raise ValueError(f"{self.family.value} statistics {need} {name}")
        if "sided" in takes and not isinstance(self.sided, Sidedness):
            raise ValueError(f"sided must be a Sidedness, got {self.sided!r}")
        object.__setattr__(self, "_part", _study_part(self))


class _StudyPart(NamedTuple):
    """The study part of a closed form: its row of the table in the module
    docstring, for a statistic checked once.  extra is () for a 1F1 form
    and the one further upper parameter of a 2F1 form; sign is 0 for the
    forms without an odd term."""

    c: float
    extra: tuple
    s: float
    sign: int
    log_ratio: float


def _item(part: _StudyPart, tau_sq: float, r: float, log_ratio_r: float):
    """The item part of a study part at a checked (tau_sq, r): None when
    tau_sq = 0 (log BF = 0 exactly), else (log prefactor, first, second,
    log coefficient, sign), where first and second are the log values of
    the form's two series; second is None when there is no odd term.
    log_ratio_r = log_gamma_half_ratio(r + 1/2) enters only the odd-term
    coefficient."""
    c, extra, s, sign, log_ratio = part
    x = s * tau_sq / (1.0 + tau_sq)
    if extra and not x < 1.0:  # NaN too: an overflowing statistic gives s = inf / inf
        raise ValueError(
            f"2F1 argument {x} is not below 1 at s={s}, tau_sq={tau_sq}: "
            "the statistic is beyond double precision"
        )
    if tau_sq == 0.0:
        return None
    a = c + r
    series = log_2f1 if extra else log_1f1
    log_prefactor = -a * math.log1p(tau_sq)
    first = series(a, *extra, c, x)
    if not (sign and x > 0.0):
        return log_prefactor, first, None, 0.0, 0
    log_coef = math.log(2.0 * math.sqrt(x)) + log_ratio + log_ratio_r
    # extra has at most one entry; a generator here costs more than the branch
    second = series(a + 0.5, *((extra[0] + 0.5,) if extra else ()), 1.5, x)
    return log_prefactor, first, second, log_coef, sign


def _assemble(log_prefactor, log_first, log_second, log_coef, sign) -> float:
    """log BF10 from the log values of an item's series.  A one-sided form
    combines its two terms with a signed log-sum-exp, since the odd term
    carries the sign of the statistic.  Where the statistic opposes the
    prior's direction the two terms nearly cancel, and at large |statistic|
    or r the difference falls below double precision: the bracket then
    comes out not positive, and an ArithmeticError says so."""
    if log_second is None:
        return log_prefactor + log_first
    log_second += log_coef
    m = log_second if log_second > log_first else log_first  # max(), without the call
    v = math.exp(log_first - m) + sign * math.exp(log_second - m)
    if not v > 0.0:
        raise ArithmeticError(
            "hypergeometric bracket not positive: its one-sided terms cancelled "
            "below double precision for a statistic that opposes the prior"
        )
    return log_prefactor + (m + math.log(v))


def _evaluate(part: _StudyPart, tau_sq: float, r: float) -> float:
    """log BF10 of a study part at (tau_sq, r), one series value at a time."""
    if not 0.0 <= tau_sq < math.inf:
        raise ValueError(f"tau_sq must be finite and >= 0, got {tau_sq}")
    _check_shape(r)
    log_ratio_r = log_gamma_half_ratio(r + 0.5) if part.sign else 0.0
    item = _item(part, tau_sq, r, log_ratio_r)
    return 0.0 if item is None else _assemble(*item)


def _sign(value: float, one_sided: bool) -> int:
    return (1 if value > 0.0 else -1) if one_sided else 0


def _z_study(z: float, one_sided: bool) -> _StudyPart:
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    return _StudyPart(0.5, (), z * z / 2.0, _sign(z, one_sided), 0.0)


def log_bf10_z_two(z: float, tau_sq: float, r: float) -> float:
    """Two-sided z test: log of (1+tau^2)^-(r+1/2) 1F1(r+1/2, 1/2; tau^2 z^2 / (2(1+tau^2)))."""
    return _evaluate(_z_study(z, False), tau_sq, r)


def log_bf10_z_one(z: float, tau_sq: float, r: float) -> float:
    """One-sided z test (positive-effect alternative).

    log of c [1F1(r+1/2, 1/2, y^2) + 2 y Gamma(r+1)/Gamma(r+1/2)
    1F1(r+1, 3/2, y^2)] with y = tau z / sqrt(2 (1+tau^2)) and
    c = (1+tau^2)^-(r+1/2).  Negative z makes the second term subtract.
    """
    return _evaluate(_z_study(z, True), tau_sq, r)


def _t_study(t: float, nu: float, one_sided: bool) -> _StudyPart:
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be finite and > 0, got {nu}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    a = (nu + 1.0) / 2.0
    # Gamma(nu/2+1)/Gamma((nu+1)/2) (and, per r, Gamma(r+1)/Gamma(r+1/2))
    # via the half-shift ratio: plain lgamma differences lose absolute
    # accuracy at large nu, which the near-cancelling bracket then amplifies
    log_ratio = log_gamma_half_ratio(a) if one_sided else 0.0
    return _StudyPart(0.5, (a,), t * t / (nu + t * t), _sign(t, one_sided), log_ratio)


def log_bf10_t_two(t: float, nu: float, tau_sq: float, r: float) -> float:
    """Two-sided t test on nu degrees of freedom:
    log of (1+tau^2)^-(r+1/2) 2F1((nu+1)/2, r+1/2; 1/2; y^2) with
    y = tau t / sqrt((nu+t^2)(1+tau^2)).

    The symmetric prior kills every odd power of the non-centrality: the
    two-sided value is the half/half mixture of the one-sided values at +t
    and -t, so only the even hypergeometric term survives (this is the
    nu -> infinity counterpart of the two-sided z form, and the version that
    agrees with direct quadrature of the noncentral-t marginal).
    """
    return _evaluate(_t_study(t, nu, False), tau_sq, r)


def log_bf10_t_one(t: float, nu: float, tau_sq: float, r: float) -> float:
    """One-sided t test.

    log of c [2F1((nu+1)/2, r+1/2, 1/2, y^2) + 2 y G 2F1(nu/2+1, r+1, 3/2, y^2)]
    with y = tau t / sqrt((nu+t^2)(1+tau^2)), c = (1+tau^2)^-(r+1/2), and
    G = Gamma(nu/2+1) Gamma(r+1) / (Gamma((nu+1)/2) Gamma(r+1/2)).  Negative t
    makes the second term subtract.
    """
    return _evaluate(_t_study(t, nu, True), tau_sq, r)


def _chisq_study(h: float, k: float) -> _StudyPart:
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h must be finite and >= 0, got {h}")
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be finite and > 0, got {k}")
    return _StudyPart(k / 2.0, (), h / 2.0, 0, 0.0)


def log_bf10_chisq(h: float, k: float, tau_sq: float, r: float) -> float:
    """Chi-square test on k degrees of freedom: log of
    (1+tau^2)^-(k/2+r) 1F1(k/2+r, k/2; tau^2 h / (2(1+tau^2)))."""
    return _evaluate(_chisq_study(h, k), tau_sq, r)


def _f_study(f: float, k: float, m: float) -> _StudyPart:
    if not 0.0 <= f < math.inf:
        raise ValueError(f"f must be finite and >= 0, got {f}")
    if not (0.0 < k < math.inf and 0.0 < m < math.inf):
        raise ValueError(f"k and m must be finite and > 0, got k={k}, m={m}")
    kf = k * f
    return _StudyPart(k / 2.0, ((k + m) / 2.0,), kf / (m + kf), 0, 0.0)


def log_bf10_f(f: float, k: float, m: float, tau_sq: float, r: float) -> float:
    """F test on (k, m) degrees of freedom: log of
    (1+tau^2)^-(k/2+r) 2F1(k/2+r, (k+m)/2, k/2; k f tau^2 / ((1+tau^2)(m+kf)))."""
    return _evaluate(_f_study(f, k, m), tau_sq, r)


def log_bf10(stat: TestStatistic, tau_sq: float, r: float) -> float:
    """Dispatch to the closed form matching the statistic's family/sidedness."""
    fam = stat.family
    if fam is StatFamily.Z:
        if stat.sided is Sidedness.ONE_SIDED:
            return log_bf10_z_one(stat.value, tau_sq, r)
        return log_bf10_z_two(stat.value, tau_sq, r)
    if fam is StatFamily.T:
        if stat.sided is Sidedness.ONE_SIDED:
            return log_bf10_t_one(stat.value, stat.nu, tau_sq, r)
        return log_bf10_t_two(stat.value, stat.nu, tau_sq, r)
    if fam is StatFamily.CHI_SQ:
        return log_bf10_chisq(stat.value, stat.k, tau_sq, r)
    return log_bf10_f(stat.value, stat.k, stat.m, tau_sq, r)


def _study_part(stat: TestStatistic) -> _StudyPart:
    """The study part of the closed form log_bf10 dispatches to."""
    fam = stat.family
    one = stat.sided is Sidedness.ONE_SIDED
    if fam is StatFamily.Z:
        return _z_study(stat.value, one)
    if fam is StatFamily.T:
        return _t_study(stat.value, stat.nu, one)
    if fam is StatFamily.CHI_SQ:
        return _chisq_study(stat.value, stat.k)
    return _f_study(stat.value, stat.k, stat.m)


def _study_columns(parts) -> np.ndarray:
    """The study parts of a sequence as the (5, len(parts)) array of the
    columns c, b, s, sign and log_ratio, where b is extra's entry for a 2F1
    form and NaN for a 1F1 form."""
    rows = [(c, extra[0] if extra else math.nan, *rest) for c, extra, *rest in parts]
    return np.array(rows, dtype=float).reshape(-1, 5).T


class _Series(NamedTuple):
    """The plan rows of one function (1F1 or 2F1) over a sequence of study
    parts, free of r: each row's part (owner), the first series of its
    parts, then the second series of the signed ones, in the same order
    (firsts is the count of the first); each row's shift of its upper
    parameters (0, or 1/2 for a second series), its c (den), and, for a
    2F1, its further upper parameter plus shift (other), else None."""

    owner: np.ndarray
    firsts: int
    shift: np.ndarray
    den: np.ndarray
    other: np.ndarray | None


def _plan_rows(parts: np.ndarray) -> tuple:
    """The r-free plan rows of the study parts (the columns of
    _study_columns): (is_2f1, signed, series), the masks of the parts whose
    series is a 2F1 and that have a sign, and the _Series of each function
    the parts use, 1F1 then 2F1."""
    c, b, s, sign, log_ratio = parts
    is_2f1 = b == b
    signed = sign != 0.0
    series = []
    for kind in (~is_2f1, is_2f1):
        items = kind.nonzero()[0]
        if not len(items):
            continue
        pairs = items[signed[items]]
        owner = np.concatenate([items, pairs])
        second = np.arange(len(owner)) >= len(items)
        shift = 0.5 * second
        other = b[owner] + shift if kind is is_2f1 else None
        series.append(_Series(owner, len(items), shift, np.where(second, 1.5, c[owner]), other))
    return is_2f1, signed, tuple(series)


def _tile(owner: np.ndarray, firsts: int, copies: int, size: int) -> tuple:
    """Plan rows of owner (firsts first rows, then the second rows) over
    copies of a sequence of size items, as (owner, index, firsts): every
    copy's first rows, then every copy's second rows, each copy's items
    after the last's, and index each row's row in owner."""
    step = np.arange(0, copies * size, size)[:, None]
    index = np.arange(len(owner))
    return (
        np.concatenate([(step + owner[:firsts]).ravel(), (step + owner[firsts:]).ravel()]),
        np.concatenate([np.tile(index[:firsts], copies), np.tile(index[firsts:], copies)]),
        firsts * copies,
    )


class _Plans(NamedTuple):
    """One function's plan rows over the items of a _Layout: each row's
    item (owner), the first rows, then the second (firsts counts the
    first), and the specfun._Blocks of their upper parameters num and c,
    row for row, which is the kernel's source of their ratio rows."""

    owner: np.ndarray
    firsts: int
    blocks: _Blocks


class _Layout(NamedTuple):
    """The omega-free part of a column pass over m copies of n study parts,
    copy i at the r of row i of an array r of shape (m, n): the parts'
    columns; r; the masks of the parts' 2F1 series and signs; a = c + r,
    sign, log_ratio and log_gamma_half_ratio(r + 1/2) (where signed) per
    item; and the _Plans of each function, whose _Blocks every evaluation
    of the layout reads.  Every signed item has a second-series row, whether
    or not its x makes it odd; _log_bf_items keeps the rows each evaluation
    needs."""

    parts: np.ndarray
    r: np.ndarray
    is_2f1: np.ndarray
    signed: np.ndarray
    a: np.ndarray
    sign: np.ndarray
    log_ratio: np.ndarray
    log_ratio_r: np.ndarray
    plans: tuple


def _layout(parts: np.ndarray, rows: tuple, r: np.ndarray) -> _Layout:
    """The _Layout of the study parts parts (the columns of _study_columns),
    whose _plan_rows are rows, at r, an array of m rows of len(parts[0]),
    every one finite and >= 1 (evidence._Pass checks them; nothing here
    does).  Each function's _Blocks lasts as long as the layout (see its
    reuse rule)."""
    c, b, s, sign, log_ratio = parts
    is_2f1, signed, series = rows
    m, n = r.shape
    with np.errstate(over="ignore"):  # c + r can pass the largest double (the planner rejects it)
        a = (c + r).ravel()
    if m > 1:
        sign, log_ratio = np.tile(sign, m), np.tile(log_ratio, m)
    log_ratio_r = np.zeros(m * n)
    with_r = np.tile(signed, m).nonzero()[0]
    if len(with_r):
        r_signed = r.ravel()[with_r].tolist()
        by_r = {v: log_gamma_half_ratio(v + 0.5) for v in dict.fromkeys(r_signed)}
        log_ratio_r[with_r] = np.fromiter(map(by_r.__getitem__, r_signed), float, len(r_signed))
    plans = []
    for owner, f, shift, den, other in series:
        if m > 1:
            owner, index, f = _tile(owner, f, m, n)
            shift, den = shift[index], den[index]
            other = None if other is None else other[index]
        num = [a[owner] + shift]
        if other is not None:
            num = [np.minimum(num[0], other), np.maximum(num[0], other)]
        plans.append(_Plans(owner, f, _Blocks(num, den)))
    return _Layout(parts, r, is_2f1, signed, a, sign, log_ratio, log_ratio_r, tuple(plans))


def _log_bf_items(layout: _Layout, tau_sq: np.ndarray) -> list:
    """log BF10 of the layout's items at each row of tau_sq, an array of
    shape (k, m, n) for the layout's r of shape (m, n), row after row: each
    entry log_bf10 bit for bit, or the ValueError, ArithmeticError or
    NonConvergenceError log_bf10 would raise.  This is the x step:
    everything that depends on tau_sq, from x to the bracket.

    Screens flag, _evaluate decides.  The items are evaluated as columns:
    every step of _item and _assemble is a column operation, and every log,
    log1p and exp a math call per element (specfun._map), so that each value
    rounds as log_bf10's does.  A column test only flags the items it
    concerns (a tau_sq not finite and >= 0, a 2F1 argument not below 1, a
    plan row _unclear flags, a NaN sum, a bracket not positive), and
    _evaluate then decides each flagged item on its study part rebuilt from
    its columns.  The other items' plan rows go to one _log_series_sums pass
    per function, as x over the rows of the layout's _Blocks; a one-sided
    item's two rows share its x.
    """
    k, m, n = tau_sq.shape
    s = layout.parts[2]
    # s tau_sq can pass the largest double; x of a flagged item is never read
    with np.errstate(over="ignore", invalid="ignore"):
        x = s * tau_sq / (1.0 + tau_sq)
    flagged = ~((tau_sq >= 0.0) & (tau_sq < math.inf))
    flagged |= layout.is_2f1 & ~(x < 1.0)  # NaN too, as in _item
    live = ~flagged & (tau_sq > 0.0)
    odd = live & (x > 0.0) & layout.signed
    x, tau_sq, flagged, live, odd = x.ravel(), tau_sq.ravel(), flagged.ravel(), live.ravel(), odd.ravel()
    a, sign, log_ratio, log_ratio_r = layout.a, layout.sign, layout.log_ratio, layout.log_ratio_r
    if k > 1:  # per item of the layout, for each row of tau_sq
        a, sign, log_ratio, log_ratio_r = (np.tile(v, k) for v in (a, sign, log_ratio, log_ratio_r))
    out = np.zeros(len(x))  # log BF10 at tau_sq = 0; other entries are replaced

    for owner, f, blocks in layout.plans:
        num, den = blocks.num, blocks.c
        index = np.arange(len(owner))  # each row's row of blocks
        if k > 1:
            owner, index, f = _tile(owner, f, k, m * n)
        use = live[owner]
        use[f:] &= odd[owner[f:]]
        if k > 1 or not use.all():
            f = int(np.count_nonzero(use[:f]))
            owner, index = owner[use], index[use]
            num, den = [p[index] for p in num], den[index]
            if not len(owner):
                continue
        xs = x[owner]
        flagged[owner[_unclear(num, den, xs)]] = True
        keep = ~flagged[owner]
        if not keep.all():
            f = int(np.count_nonzero(keep[:f]))
            owner, xs, index = owner[keep], xs[keep], index[keep]
            if not len(owner):
                continue
        sums = _log_series_sums(xs, blocks, index)
        flagged[owner[np.isnan(sums)]] = True  # still running at TERM_CAP
        # the kept second rows are those of the kept odd items, in order
        items, pairs = owner[:f], owner[f:]
        log_first = sums[:f]
        log_prefactor = -a[items] * _map(math.log1p, tau_sq[items])
        out[items] = log_prefactor + log_first
        if not len(pairs):
            continue
        # the signed bracket of _assemble, where a NaN sum gives v = NaN
        with_odd = odd[items]
        log_first, log_prefactor = log_first[with_odd], log_prefactor[with_odd]
        log_coef = _map(math.log, 2.0 * np.sqrt(x[pairs])) + log_ratio[pairs] + log_ratio_r[pairs]
        log_second = sums[f:] + log_coef
        # one exp per pair: the term at the larger log is exp(0.0) = 1.0, and
        # where either log is NaN, so are larger, the other term and v
        larger = np.maximum(log_first, log_second)
        other = _map(math.exp, np.minimum(log_first, log_second) - larger)
        sign_pairs = sign[pairs]
        v = np.where(log_second > log_first, other + sign_pairs, 1.0 + sign_pairs * other)
        summed = v > 0.0
        if not summed.all():
            flagged[pairs[~summed]] = True
            pairs, larger, v, log_prefactor = (w[summed] for w in (pairs, larger, v, log_prefactor))
        out[pairs] = log_prefactor + (larger + _map(math.log, v))
    values = out.tolist()
    r = layout.r.ravel()
    for j in flagged.nonzero()[0].tolist():
        c_j, b_j, s_j, sign_j, log_ratio_j = layout.parts[:, j % n].tolist()
        part = _StudyPart(c_j, () if b_j != b_j else (b_j,), s_j, int(sign_j), log_ratio_j)
        try:
            values[j] = _evaluate(part, float(tau_sq[j]), float(r[j % (m * n)]))
        except (ValueError, ArithmeticError, NonConvergenceError) as exc:
            values[j] = exc
    return values
