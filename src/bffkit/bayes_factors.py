"""Closed-form log Bayes factors for z, t, chi-square, and F statistics.

Each function returns log BF10 against a point null, under a non-local prior
on the non-centrality parameter: a normal-moment prior (two-sided or one-sided)
for z/t, and a Gamma(k/2 + r, 1/(2 tau_sq)) prior for chi-square/F.  All
arithmetic is carried out on plain float logs; the one-sided z/t forms combine
their two hypergeometric terms with a signed log-sum-exp (_assemble) because
the second term carries the sign of the statistic.

Each closed form is split in two.  Its study part (_z_one_study, _t_study,
...) checks the statistic once and holds everything that does not depend on
the prior (tau_sq, r): which hypergeometric function the form sums, the
statistic-only parameters and constants, the one-sided t form's log-Gamma
ratio in nu, and the sign of the statistic.  Its item part computes the rest
for one (tau_sq, r): the series argument, the prefactor, the odd-term
coefficient and the series.  log_bf10 and the one-value forms compose the
two parts for one value.  evidence builds the study part of each Study once,
and log_bf10_batch evaluates the item parts of many (study, prior) items,
summing all their series in one batched kernel pass per function.

tau_sq = 0 is accepted everywhere and returns log BF = 0 exactly (the prior
degenerates to the null; evidence grids start at omega > 0 to keep priors
proper, but the limiting value keeps the omega -> 0 endpoint well-defined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

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
    """The study part of a closed form: what it needs of the statistic,
    checked once, with everything that does not depend on (tau_sq, r).

    item(tau_sq, r, log_ratio_r, series) is the item part, for a checked
    (tau_sq, r).  It returns None when tau_sq = 0 (log BF = 0 exactly), else
    (log prefactor, first, second, log coefficient, sign), where first and
    second are what series returns for the form's two series.  series is
    log_2f1 or _plan_2f1 when is_2f1, else log_1f1 or _plan_1f1, so the
    item part evaluates its series or plans them.  second is None for the
    one-term forms and where the one-sided odd term vanishes (y = 0);
    otherwise the odd term is sign e^(log coefficient) times the second
    series.  log_ratio_r = log_gamma_half_ratio(r + 1/2) enters only the
    coefficient of the one-sided forms (odd is True for them); a caller
    computes it once per r and passes it to the item part of every study.
    """

    is_2f1: bool
    odd: bool
    item: Callable


# Each closed form is written once, as a function that checks the statistic
# and returns its _StudyPart, whose item closure is the item part; _assemble
# turns the log values of an item's series into log BF10.  The one-value
# forms hand the item part log_1f1/log_2f1 (_evaluate), log_bf10_batch hands
# it specfun's planners and sums the plans of all items in one kernel pass
# per function.  Either way an item does the same operations in the same
# order, so both routes give the same value bit for bit.


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


def _evaluate(kernel, part: _StudyPart, tau_sq: float, r: float) -> float:
    """log BF10 of a study part at (tau_sq, r), one series value at a time."""
    _check_hyperparams(tau_sq, r)
    log_ratio_r = log_gamma_half_ratio(r + 0.5) if part.odd else None
    item = part.item(tau_sq, r, log_ratio_r, kernel)
    return 0.0 if item is None else _assemble(*item)


def _check_z(z: float) -> None:
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")


def _z_two_study(z: float) -> _StudyPart:
    _check_z(z)

    def item(tau_sq, r, _, series):
        if tau_sq == 0.0:
            return None
        x = tau_sq * z * z / (2.0 * (1.0 + tau_sq))
        return -(r + 0.5) * math.log1p(tau_sq), series(r + 0.5, 0.5, x), None, 0.0, 0

    return _StudyPart(False, False, item)


def log_bf10_z_two(z: float, tau_sq: float, r: float) -> float:
    """Two-sided z test: log of (1+tau^2)^-(r+1/2) 1F1(r+1/2, 1/2; tau^2 z^2 / (2(1+tau^2)))."""
    return _evaluate(log_1f1, _z_two_study(z), tau_sq, r)


def _z_one_study(z: float) -> _StudyPart:
    _check_z(z)
    sign = 1 if z > 0.0 else -1

    def item(tau_sq, r, log_ratio_r, series):
        if tau_sq == 0.0:
            return None
        y = math.sqrt(tau_sq) * z / math.sqrt(2.0 * (1.0 + tau_sq))
        y_sq = y * y
        log_prefactor = -(r + 0.5) * math.log1p(tau_sq)
        first = series(r + 0.5, 0.5, y_sq)
        if y == 0.0:
            return log_prefactor, first, None, 0.0, 0
        log_coef = math.log(2.0 * abs(y)) + log_ratio_r
        return log_prefactor, first, series(r + 1.0, 1.5, y_sq), log_coef, sign

    return _StudyPart(False, True, item)


def log_bf10_z_one(z: float, tau_sq: float, r: float) -> float:
    """One-sided z test (positive-effect alternative).

    log of c [1F1(r+1/2, 1/2, y^2) + 2 y Gamma(r+1)/Gamma(r+1/2)
    1F1(r+1, 3/2, y^2)] with y = tau z / sqrt(2 (1+tau^2)) and
    c = (1+tau^2)^-(r+1/2).  Negative z makes the second term subtract.
    """
    return _evaluate(log_1f1, _z_one_study(z), tau_sq, r)


def _t_study(t: float, nu: float, one_sided: bool) -> _StudyPart:
    """Both t forms, which share y = tau t / sqrt((nu+t^2)(1+tau^2)); the
    one-sided form adds the odd term."""
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be finite and > 0, got {nu}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    nu_t_sq = nu + t * t
    a = (nu + 1.0) / 2.0
    if one_sided:
        b = nu / 2.0 + 1.0
        # Gamma(nu/2+1)/Gamma((nu+1)/2) (and, per r, Gamma(r+1)/Gamma(r+1/2))
        # via the half-shift ratio: plain lgamma differences lose absolute
        # accuracy at large nu, which the near-cancelling bracket then amplifies
        log_ratio_nu = log_gamma_half_ratio(a)
        sign = 1 if t > 0.0 else -1

    def item(tau_sq, r, log_ratio_r, series):
        spread = nu_t_sq * (1.0 + tau_sq)
        if not spread < math.inf:  # t * t overflowing would otherwise give y = 0
            raise ValueError(
                f"(nu + t^2)(1 + tau_sq) overflows at t={t}, nu={nu}, "
                f"tau_sq={tau_sq}: the statistic is beyond double precision"
            )
        y = math.sqrt(tau_sq) * t / math.sqrt(spread)
        y_sq = y * y
        if not y_sq < 1.0:
            raise ValueError(
                f"2F1 argument y^2 = {y_sq} is not below 1 at t={t}, nu={nu}, "
                f"tau_sq={tau_sq}: the statistic is beyond double precision"
            )
        if tau_sq == 0.0:
            return None
        log_prefactor = -(r + 0.5) * math.log1p(tau_sq)
        first = series(a, r + 0.5, 0.5, y_sq)
        if not one_sided or y == 0.0:
            return log_prefactor, first, None, 0.0, 0
        log_coef = math.log(2.0 * abs(y)) + log_ratio_nu + log_ratio_r
        return log_prefactor, first, series(b, r + 1.0, 1.5, y_sq), log_coef, sign

    return _StudyPart(True, one_sided, item)


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
    return _evaluate(log_2f1, _t_study(t, nu, False), tau_sq, r)


def log_bf10_t_one(t: float, nu: float, tau_sq: float, r: float) -> float:
    """One-sided t test.

    log of c [2F1((nu+1)/2, r+1/2, 1/2, y^2) + 2 y G 2F1(nu/2+1, r+1, 3/2, y^2)]
    with y = tau t / sqrt((nu+t^2)(1+tau^2)), c = (1+tau^2)^-(r+1/2), and
    G = Gamma(nu/2+1) Gamma(r+1) / (Gamma((nu+1)/2) Gamma(r+1/2)).  Negative t
    makes the second term subtract.
    """
    return _evaluate(log_2f1, _t_study(t, nu, True), tau_sq, r)


def _chisq_study(h: float, k: float) -> _StudyPart:
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h must be finite and >= 0, got {h}")
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be finite and > 0, got {k}")
    half_k = k / 2.0

    def item(tau_sq, r, _, series):
        if tau_sq == 0.0:
            return None
        x = tau_sq * h / (2.0 * (1.0 + tau_sq))
        a = half_k + r
        return -a * math.log1p(tau_sq), series(a, half_k, x), None, 0.0, 0

    return _StudyPart(False, False, item)


def log_bf10_chisq(h: float, k: float, tau_sq: float, r: float) -> float:
    """Chi-square test on k degrees of freedom: log of
    (1+tau^2)^-(k/2+r) 1F1(k/2+r, k/2; tau^2 h / (2(1+tau^2)))."""
    return _evaluate(log_1f1, _chisq_study(h, k), tau_sq, r)


def _f_study(f: float, k: float, m: float) -> _StudyPart:
    if not 0.0 <= f < math.inf:
        raise ValueError(f"f must be finite and >= 0, got {f}")
    if not (0.0 < k < math.inf and 0.0 < m < math.inf):
        raise ValueError(f"k and m must be finite and > 0, got k={k}, m={m}")
    kf = k * f
    m_kf = m + kf
    half_k = k / 2.0
    c = (k + m) / 2.0

    def item(tau_sq, r, _, series):
        if tau_sq == 0.0:
            return None
        x = kf * tau_sq / ((1.0 + tau_sq) * m_kf)
        if not x < 1.0:
            raise ValueError(
                f"2F1 argument {x} is not below 1 at f={f}, k={k}, m={m}, "
                f"tau_sq={tau_sq}: the statistic is beyond double precision"
            )
        a = half_k + r
        return -a * math.log1p(tau_sq), series(a, c, half_k, x), None, 0.0, 0

    return _StudyPart(True, False, item)


def log_bf10_f(f: float, k: float, m: float, tau_sq: float, r: float) -> float:
    """F test on (k, m) degrees of freedom: log of
    (1+tau^2)^-(k/2+r) 2F1(k/2+r, (k+m)/2, k/2; k f tau^2 / ((1+tau^2)(m+kf)))."""
    return _evaluate(log_2f1, _f_study(f, k, m), tau_sq, r)


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
        return (_z_one_study if one else _z_two_study)(stat.value)
    if fam is StatFamily.T:
        return _t_study(stat.value, stat.nu, one)
    if fam is StatFamily.CHI_SQ:
        return _chisq_study(stat.value, stat.k)
    return _f_study(stat.value, stat.k, stat.m)


def log_bf10_batch(items) -> list:
    """log BF10 of every (part, tau_sq, r) in the sequence items, where part
    is a study part (_study_part of a statistic): log_bf10(stat, tau_sq, r)
    bit for bit.

    Each item computes only its item part, which plans its series with
    _plan_1f1/_plan_2f1 as log_1f1/log_2f1 plan them;
    log_gamma_half_ratio(r + 1/2) is computed once for each run of
    consecutive items with the same r.  The planned series of all items are
    summed in one _log_series_sums pass per function (made only when
    needed); an item keeps the positions of its series in its function's
    pass.  Where log_bf10 would raise for an item, its entry in the returned
    list is the exception instead of a float.
    """
    out = [0.0] * len(items)  # log BF10 at tau_sq = 0; other entries are replaced
    series = ([], [])  # the plans of the 1F1 pass and of the 2F1 pass
    owners = ([], [])  # per pass: (index in out, item, position of the first series)
    last_r = log_ratio_r = None
    for slot, (part, tau_sq, r) in enumerate(items):
        is_2f1, _, item_part = part
        try:  # like log_bf10, stop at the first series that fails
            _check_hyperparams(tau_sq, r)
            if r != last_r:
                last_r, log_ratio_r = r, log_gamma_half_ratio(r + 0.5)
            item = item_part(tau_sq, r, log_ratio_r, _plan_2f1 if is_2f1 else _plan_1f1)
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
