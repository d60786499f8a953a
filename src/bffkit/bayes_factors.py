"""Closed-form log Bayes factors for z, t, chi-square, and F statistics.

Each function returns log BF10 against a point null, under a non-local prior
on the non-centrality parameter: a normal-moment prior (two-sided or one-sided)
for z/t, and a Gamma(k/2 + r, 1/(2 tau_sq)) prior for chi-square/F.  All
arithmetic is carried out in log space; the one-sided and two-sided z/t forms
combine their two hypergeometric terms with a signed log-sum-exp because the
second term carries the sign of the statistic.

tau_sq = 0 is accepted everywhere and returns log BF = 0 exactly (the prior
degenerates to the null; evidence grids start at omega > 0 to keep priors
proper, but the limiting value keeps the omega -> 0 endpoint well-defined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import log_1f1, log_1f1_batch, log_2f1, log_2f1_batch, log_gamma_half_ratio

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
    degrees of freedom; m the F denominator degrees of freedom.  n_eff is
    effective-sample-size metadata consumed by the effect-size map (e.g. n,
    n1 n2/(n1+n2), or n-3 for Fisher-transformed correlations); it plays no
    role in the Bayes factor formulas themselves.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    family: StatFamily
    value: float
    sided: Sidedness | None = None
    nu: float | None = None
    k: float | None = None
    m: float | None = None
    n_eff: float | None = None

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
        if self.n_eff is not None and not self.n_eff > 0.0:
            raise ValueError(f"n_eff must be > 0, got {self.n_eff}")


def _check_hyperparams(tau_sq: float, r: float) -> None:
    if not 0.0 <= tau_sq < math.inf:
        raise ValueError(f"tau_sq must be finite and >= 0, got {tau_sq}")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"r must be finite and >= 1, got {r}")


# Each closed form is written once, as a *_terms function returning
#     (log prefactor, first series arguments, second)
# or None when tau_sq = 0 (log BF = 0 exactly).  second is None for the
# one-term forms, else (series arguments, log coefficient, sign) of the
# one-sided odd term.  Series arguments are those of log_1f1 (z, chi-square)
# or log_2f1 (t, F).  _assemble turns the series' log values into log BF10;
# the one-value forms below evaluate the series with log_1f1/log_2f1, and
# log_bf10_batch evaluates the series of many statistics with one batched
# kernel call per function.


def _signed_bracket(log_first: float, log_second: float, sign: int) -> float:
    """log(e^log_first + sign e^log_second), which must be positive."""
    m = max(log_first, log_second)
    v = math.exp(log_first - m) + sign * math.exp(log_second - m)
    if not v > 0.0:
        raise ArithmeticError(
            "hypergeometric bracket not positive; this cannot happen for a "
            "valid Bayes factor and indicates an internal error"
        )
    return m + math.log(v)


def _assemble(terms, log_first: float, log_second: float | None) -> float:
    log_prefactor, _, second = terms
    if second is None:
        return log_prefactor + log_first
    return log_prefactor + _signed_bracket(log_first, log_second + second[1], second[2])


def _evaluate(kernel, terms) -> float:
    """log BF10 from a *_terms result, one series value at a time."""
    if terms is None:
        return 0.0
    second = terms[2]
    log_first = kernel(*terms[1]).log_magnitude
    log_second = None if second is None else kernel(*second[0]).log_magnitude
    return _assemble(terms, log_first, log_second)


def _odd_term(args: tuple, y: float, *log_ratios: float):
    """The one-sided odd term 2 y prod(exp(log_ratios)) F(args), or None at y = 0."""
    if y == 0.0:
        return None
    log_coef = math.log(2.0 * abs(y))
    for log_ratio in log_ratios:
        log_coef += log_ratio
    return args, log_coef, 1 if y > 0 else -1


def _z_two_terms(z: float, tau_sq: float, r: float):
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    _check_hyperparams(tau_sq, r)
    if tau_sq == 0.0:
        return None
    x = tau_sq * z * z / (2.0 * (1.0 + tau_sq))
    return -(r + 0.5) * math.log1p(tau_sq), (r + 0.5, 0.5, x), None


def log_bf10_z_two(z: float, tau_sq: float, r: float) -> float:
    """Two-sided z test: log of (1+tau^2)^-(r+1/2) 1F1(r+1/2, 1/2; tau^2 z^2 / (2(1+tau^2)))."""
    return _evaluate(log_1f1, _z_two_terms(z, tau_sq, r))


def _z_one_terms(z: float, tau_sq: float, r: float):
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    _check_hyperparams(tau_sq, r)
    if tau_sq == 0.0:
        return None
    y = math.sqrt(tau_sq) * z / math.sqrt(2.0 * (1.0 + tau_sq))
    y_sq = y * y
    second = _odd_term((r + 1.0, 1.5, y_sq), y, log_gamma_half_ratio(r + 0.5))
    return -(r + 0.5) * math.log1p(tau_sq), (r + 0.5, 0.5, y_sq), second


def log_bf10_z_one(z: float, tau_sq: float, r: float) -> float:
    """One-sided z test (positive-effect alternative).

    log of c [1F1(r+1/2, 1/2, y^2) + 2 y Gamma(r+1)/Gamma(r+1/2)
    1F1(r+1, 3/2, y^2)] with y = tau z / sqrt(2 (1+tau^2)) and
    c = (1+tau^2)^-(r+1/2).  Negative z makes the second term subtract.
    """
    return _evaluate(log_1f1, _z_one_terms(z, tau_sq, r))


def _t_args(t: float, nu: float, tau_sq: float, r: float) -> float:
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be finite and > 0, got {nu}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_hyperparams(tau_sq, r)
    y = math.sqrt(tau_sq) * t / math.sqrt((nu + t * t) * (1.0 + tau_sq))
    if not y * y < 1.0:
        raise ValueError(
            f"2F1 argument y^2 = {y * y} is not below 1 at t={t}, nu={nu}, "
            f"tau_sq={tau_sq}: the statistic is beyond double precision"
        )
    return y


def _t_two_terms(t: float, nu: float, tau_sq: float, r: float):
    y = _t_args(t, nu, tau_sq, r)
    if tau_sq == 0.0:
        return None
    return -(r + 0.5) * math.log1p(tau_sq), ((nu + 1.0) / 2.0, r + 0.5, 0.5, y * y), None


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
    return _evaluate(log_2f1, _t_two_terms(t, nu, tau_sq, r))


def _t_one_terms(t: float, nu: float, tau_sq: float, r: float):
    y = _t_args(t, nu, tau_sq, r)
    if tau_sq == 0.0:
        return None
    y_sq = y * y
    # Gamma(nu/2+1)/Gamma((nu+1)/2) and Gamma(r+1)/Gamma(r+1/2) via the
    # half-shift ratio: plain lgamma differences lose absolute accuracy at
    # large nu, which the near-cancelling bracket then amplifies
    second = _odd_term(
        (nu / 2.0 + 1.0, r + 1.0, 1.5, y_sq),
        y,
        log_gamma_half_ratio((nu + 1.0) / 2.0),
        log_gamma_half_ratio(r + 0.5),
    )
    return -(r + 0.5) * math.log1p(tau_sq), ((nu + 1.0) / 2.0, r + 0.5, 0.5, y_sq), second


def log_bf10_t_one(t: float, nu: float, tau_sq: float, r: float) -> float:
    """One-sided t test.

    log of c [2F1((nu+1)/2, r+1/2, 1/2, y^2) + 2 y G 2F1(nu/2+1, r+1, 3/2, y^2)]
    with y = tau t / sqrt((nu+t^2)(1+tau^2)), c = (1+tau^2)^-(r+1/2), and
    G = Gamma(nu/2+1) Gamma(r+1) / (Gamma((nu+1)/2) Gamma(r+1/2)).  Negative t
    makes the second term subtract.
    """
    return _evaluate(log_2f1, _t_one_terms(t, nu, tau_sq, r))


def _chisq_terms(h: float, k: float, tau_sq: float, r: float):
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h must be finite and >= 0, got {h}")
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be finite and > 0, got {k}")
    _check_hyperparams(tau_sq, r)
    if tau_sq == 0.0:
        return None
    x = tau_sq * h / (2.0 * (1.0 + tau_sq))
    return -(k / 2.0 + r) * math.log1p(tau_sq), (k / 2.0 + r, k / 2.0, x), None


def log_bf10_chisq(h: float, k: float, tau_sq: float, r: float) -> float:
    """Chi-square test on k degrees of freedom: log of
    (1+tau^2)^-(k/2+r) 1F1(k/2+r, k/2; tau^2 h / (2(1+tau^2)))."""
    return _evaluate(log_1f1, _chisq_terms(h, k, tau_sq, r))


def _f_terms(f: float, k: float, m: float, tau_sq: float, r: float):
    if not 0.0 <= f < math.inf:
        raise ValueError(f"f must be finite and >= 0, got {f}")
    if not (0.0 < k < math.inf and 0.0 < m < math.inf):
        raise ValueError(f"k and m must be finite and > 0, got k={k}, m={m}")
    _check_hyperparams(tau_sq, r)
    if tau_sq == 0.0:
        return None
    x = k * f * tau_sq / ((1.0 + tau_sq) * (m + k * f))
    if not x < 1.0:
        raise ValueError(
            f"2F1 argument {x} is not below 1 at f={f}, k={k}, m={m}, "
            f"tau_sq={tau_sq}: the statistic is beyond double precision"
        )
    return -(k / 2.0 + r) * math.log1p(tau_sq), (k / 2.0 + r, (k + m) / 2.0, k / 2.0, x), None


def log_bf10_f(f: float, k: float, m: float, tau_sq: float, r: float) -> float:
    """F test on (k, m) degrees of freedom: log of
    (1+tau^2)^-(k/2+r) 2F1(k/2+r, (k+m)/2, k/2; k f tau^2 / ((1+tau^2)(m+kf)))."""
    return _evaluate(log_2f1, _f_terms(f, k, m, tau_sq, r))


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


def _terms(stat: TestStatistic, tau_sq: float, r: float):
    """(uses 2F1, *_terms result) of the closed form log_bf10 dispatches to."""
    fam = stat.family
    one = stat.sided is Sidedness.ONE_SIDED
    if fam is StatFamily.Z:
        return False, (_z_one_terms if one else _z_two_terms)(stat.value, tau_sq, r)
    if fam is StatFamily.T:
        return True, (_t_one_terms if one else _t_two_terms)(stat.value, stat.nu, tau_sq, r)
    if fam is StatFamily.CHI_SQ:
        return False, _chisq_terms(stat.value, stat.k, tau_sq, r)
    return True, _f_terms(stat.value, stat.k, stat.m, tau_sq, r)


def log_bf10_batch(items) -> list:
    """log_bf10(stat, tau_sq, r) for every (stat, tau_sq, r) in items.

    The series of all items go through one log_1f1_batch and one
    log_2f1_batch call (each made only when needed); every value is bit for
    bit log_bf10's.  Where log_bf10 would raise for an item, its entry in
    the returned list is the exception instead of a float.
    """
    plans = []
    series = ([], [])  # series arguments per kernel: 1F1, 2F1
    for stat, tau_sq, r in items:
        try:
            is_2f1, terms = _terms(stat, tau_sq, r)
        except Exception as exc:
            plans.append(exc)
            continue
        if terms is None:
            plans.append(0.0)
            continue
        rows = series[is_2f1]
        first = len(rows)
        rows.append(terms[1])
        if terms[2] is not None:
            rows.append(terms[2][0])
        plans.append((is_2f1, terms, first))
    results = []
    for kernel, rows in zip((log_1f1_batch, log_2f1_batch), series):
        values, errors = kernel(*np.array(rows).T) if rows else (np.empty(0), {})
        results.append((values.tolist(), errors))
    out = []
    for plan in plans:
        if not isinstance(plan, tuple):  # 0.0 at tau_sq = 0, or an exception
            out.append(plan)
            continue
        is_2f1, terms, first = plan
        values, errors = results[is_2f1]
        two = terms[2] is not None
        if errors and (first in errors or (two and first + 1 in errors)):
            out.append(errors.get(first) or errors[first + 1])
            continue
        try:
            out.append(_assemble(terms, values[first], values[first + 1] if two else None))
        except ArithmeticError as exc:
            out.append(exc)
    return out
