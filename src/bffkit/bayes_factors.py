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
statistic once and returns its row as a _StudyPart; _item computes the rest
for one (tau_sq, r).  The one-value forms hand _item log_1f1/log_2f1
(_evaluate), log_bf10_batch hands it specfun's planners, so both routes give
the same value bit for bit.  evidence builds the study part of each Study once.

tau_sq = 0 is accepted everywhere and returns log BF = 0 exactly (the prior
degenerates to the null; evidence grids start at omega > 0 to keep priors
proper, but the limiting value keeps the omega -> 0 endpoint well-defined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .specfun import (
    _log_series_sums,
    _nonconvergence,
    _plan_1f1,
    _plan_2f1,
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


@dataclass(frozen=True)
class TestStatistic:
    """One observed test statistic with the metadata its family requires.

    nu is the t denominator degrees of freedom; k the chi-square/F numerator
    degrees of freedom; m the F denominator degrees of freedom.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    family: StatFamily
    value: float
    sided: Sidedness | None = None
    nu: float | None = None
    k: float | None = None
    m: float | None = None

    def __post_init__(self):
        for name in ("value", "nu", "k", "m"):
            field = getattr(self, name)
            if field is not None and not math.isfinite(field):
                raise ValueError(f"{name} must be finite, got {field}")
        fam = self.family
        if fam in (StatFamily.Z, StatFamily.T):
            if self.sided is None:
                raise ValueError(f"{fam.value} statistics require a sidedness")
            if self.k is not None or self.m is not None:
                raise ValueError(f"k/m are not meaningful for {fam.value} statistics")
            if fam is StatFamily.T:
                if self.nu is None or not self.nu > 0.0:
                    raise ValueError("t statistics require nu > 0")
            elif self.nu is not None:
                raise ValueError("nu is not meaningful for z statistics")
        else:
            if self.sided is not None:
                raise ValueError(f"{fam.value} statistics are inherently one-directional")
            if self.nu is not None:
                raise ValueError(f"nu is not meaningful for {fam.value} statistics")
            if self.k is None or not self.k > 0.0:
                raise ValueError(f"{fam.value} statistics require k > 0")
            if not self.value >= 0.0:
                raise ValueError(f"{fam.value} statistics must be >= 0, got {self.value}")
            if fam is StatFamily.F:
                if self.m is None or not self.m > 0.0:
                    raise ValueError("F statistics require m > 0")
            elif self.m is not None:
                raise ValueError("m is not meaningful for chisq statistics")


def _check_hyperparams(tau_sq: float, r: float) -> None:
    if not 0.0 <= tau_sq < math.inf:
        raise ValueError(f"tau_sq must be finite and >= 0, got {tau_sq}")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"r must be finite and >= 1, got {r}")


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


def _item(part: _StudyPart, tau_sq: float, r: float, log_ratio_r: float, series):
    """The item part of a study part at a checked (tau_sq, r): None when
    tau_sq = 0 (log BF = 0 exactly), else (log prefactor, first, second,
    log coefficient, sign), where first and second are what series returns
    for the form's two series; second is None when there is no odd term.
    series is log_2f1 or _plan_2f1 for a 2F1 form, else log_1f1 or
    _plan_1f1, so the item part evaluates its series or plans them.
    log_ratio_r = log_gamma_half_ratio(r + 1/2) enters only the odd-term
    coefficient; a caller computes it once per r."""
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
    carries the sign of the statistic; the bracket must be positive."""
    if log_second is None:
        return log_prefactor + log_first
    log_second += log_coef
    m = log_second if log_second > log_first else log_first  # max(), without the call
    v = math.exp(log_first - m) + sign * math.exp(log_second - m)
    if not v > 0.0:
        raise ArithmeticError(
            "hypergeometric bracket not positive; this cannot happen for a "
            "valid Bayes factor and indicates an internal error"
        )
    return log_prefactor + (m + math.log(v))


def _evaluate(part: _StudyPart, tau_sq: float, r: float) -> float:
    """log BF10 of a study part at (tau_sq, r), one series value at a time."""
    _check_hyperparams(tau_sq, r)
    log_ratio_r = log_gamma_half_ratio(r + 0.5) if part.sign else 0.0
    item = _item(part, tau_sq, r, log_ratio_r, log_2f1 if part.extra else log_1f1)
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


def log_bf10_batch(items) -> list:
    """log BF10 of every (part, tau_sq, r) in the sequence items, where part
    is a study part (_study_part of a statistic): log_bf10(stat, tau_sq, r)
    bit for bit.

    Each item plans its series in _item; log_gamma_half_ratio(r + 1/2) is
    computed once for each run of consecutive items with the same r.  The
    plans of all items are summed in one _log_series_sums pass per function
    (made only when needed).  Where log_bf10 would raise for an item, its
    entry in the returned list is the exception instead of a float.
    """
    out = [0.0] * len(items)  # log BF10 at tau_sq = 0; other entries are replaced
    series = ([], [])  # the plans of the 1F1 pass and of the 2F1 pass
    owners = ([], [])  # per pass: (index in out, item, position of the first series)
    last_r = log_ratio_r = None
    for slot, (part, tau_sq, r) in enumerate(items):
        is_2f1 = bool(part.extra)
        try:  # like log_bf10, stop at the first series that fails
            _check_hyperparams(tau_sq, r)
            if r != last_r:
                last_r, log_ratio_r = r, log_gamma_half_ratio(r + 0.5)
            item = _item(part, tau_sq, r, log_ratio_r, _plan_2f1 if is_2f1 else _plan_1f1)
        except Exception as exc:
            out[slot] = exc
            continue
        if item is not None:  # the item's series go to positions i and i + 1
            plans = series[is_2f1]
            owners[is_2f1].append((slot, item, len(plans)))
            plans.append(item[1])
            if item[2] is not None:
                plans.append(item[2])
    for plans, group in zip(series, owners):
        if not plans:
            continue
        sums = _log_series_sums(plans)
        for slot, (log_prefactor, _, second, log_coef, sign), i in group:
            log_first = sums[i]
            log_second = None if second is None else sums[i + 1]
            if log_first != log_first or log_second != log_second:  # NaN: still running at TERM_CAP
                out[slot] = _nonconvergence(plans[i if log_first != log_first else i + 1])
                continue
            try:
                out[slot] = _assemble(log_prefactor, log_first, log_second, log_coef, sign)
            except ArithmeticError as exc:
                out[slot] = exc
    return out
