"""Map standardized effect sizes to prior scales tau^2 for each test design.

The scale is chosen so that the prior mode on the non-centrality parameter
equals the non-centrality implied by the standardized effect: sqrt(n_eff) *
omega for z/t designs, n * omega'omega (or half that, for the linear-model F)
for the chi-square/F designs, where omega'omega = k * rmses^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .bayes_factors import Sidedness, StatFamily, TestStatistic

__all__ = [
    "DesignTag",
    "DesignKind",
    "EffectSize",
    "tau_sq_for",
    "effective_n",
    "fisher_z",
    "rmses",
]


class DesignTag(Enum):
    ONE_SAMPLE_Z = "one_sample_z"
    ONE_SAMPLE_T = "one_sample_t"
    TWO_SAMPLE_Z = "two_sample_z"
    TWO_SAMPLE_T = "two_sample_t"
    MULTINOMIAL_CHISQ = "multinomial_chisq"
    LINEAR_MODEL_F = "linear_model_f"
    LIKELIHOOD_RATIO_CHISQ = "likelihood_ratio_chisq"
    CORRELATION_Z = "correlation_z"


_TWO_SAMPLE = (DesignTag.TWO_SAMPLE_Z, DesignTag.TWO_SAMPLE_T)
_VECTOR_EFFECT = (
    DesignTag.MULTINOMIAL_CHISQ,
    DesignTag.LINEAR_MODEL_F,
    DesignTag.LIKELIHOOD_RATIO_CHISQ,
)


@dataclass(frozen=True)
class DesignKind:
    """Experimental design and its sample size(s)."""

    tag: DesignTag
    n: int | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if self.tag in _TWO_SAMPLE:
            if self.n is not None:
                raise ValueError("two-sample designs take n1/n2, not n")
            if self.n1 is None or self.n2 is None or self.n1 <= 0 or self.n2 <= 0:
                raise ValueError("two-sample designs require n1 > 0 and n2 > 0")
        else:
            if self.n1 is not None or self.n2 is not None:
                raise ValueError(f"{self.tag.value} takes a single sample size n")
            if self.n is None or self.n <= 0:
                raise ValueError(f"{self.tag.value} requires n > 0")
            if self.tag is DesignTag.CORRELATION_Z and self.n <= 3:
                raise ValueError("correlation designs require n > 3")


@dataclass(frozen=True)
class EffectSize:
    """A standardized effect omega, or its root-mean-square analogue for
    vector effects (is_rmses=True)."""

    omega: float
    is_rmses: bool = False

    def __post_init__(self):
        if not math.isfinite(self.omega) or self.omega < 0.0:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")


def effective_n(design: DesignKind) -> float:
    """Sample size entering the non-centrality map: n, n1 n2/(n1+n2), or n-3."""
    if design.tag in _TWO_SAMPLE:
        return design.n1 * design.n2 / (design.n1 + design.n2)
    if design.tag is DesignTag.CORRELATION_Z:
        return design.n - 3.0
    return float(design.n)


def _as_omega(omega: "EffectSize | float") -> EffectSize:
    if isinstance(omega, EffectSize):
        return omega
    return EffectSize(float(omega))


def _check_shape(r: float) -> None:
    if not r >= 1.0:
        raise ValueError(f"r must be >= 1, got {r}")


def _tau_sq_parts(design: DesignKind, k: float | None) -> tuple[float, float, float, float]:
    """(c, d, s, u) such that tau_sq_for(design, omega, r, k) is
    c * w * w / (d * (s + r - u)), evaluated left to right, with w = omega.

    c is n_eff for the z/t designs, with d = 2 and s = u = 0 ((0 + r) - 0 is
    r exactly), and n k for the chi-square/F designs, with d = 4 for the
    linear-model F, else 2, s = k/2 and u = 1.  None of them depends on
    (omega, r).
    """
    tag = design.tag
    if tag in _VECTOR_EFFECT:
        if k is None or not k > 0.0:
            raise ValueError(f"{tag.value} requires numerator df k > 0")
        denom = 4.0 if tag is DesignTag.LINEAR_MODEL_F else 2.0
        return design.n * k, denom, k / 2.0, 1.0
    if k is not None:
        raise ValueError(f"k is not meaningful for {tag.value}")
    return effective_n(design), 2.0, 0.0, 0.0


def tau_sq_for(
    design: DesignKind,
    omega: "EffectSize | float",
    r: float,
    k: float | None = None,
) -> float:
    """Prior scale tau^2 for the given design, effect size, and shape r.

    k is required for the chi-square/F designs.  The linear-model F entry
    uses denominator 4, the published rmses form of that entry; the other
    vector designs use 2.
    """
    _check_shape(r)
    eff = _as_omega(omega)
    c, d, s, u = _tau_sq_parts(design, k)
    if eff.is_rmses and design.tag not in _VECTOR_EFFECT:
        raise ValueError(f"{design.tag.value} takes a scalar effect, not an RMSES")
    w = eff.omega
    return c * w * w / (d * (s + r - u))


def fisher_z(
    rho_hat: float, n: int, sided: Sidedness = Sidedness.TWO_SIDED
) -> TestStatistic:
    """Rescaled Fisher transform of a sample correlation:
    z = sqrt(n-3)/2 * ln((1+rho)/(1-rho)), treated as N(lambda, 1) for large n.

    Defaults to a two-sided statistic: correlations carry a sign, and the
    reference meta-analysis numbers correspond to the two-sided form.
    """
    if not abs(rho_hat) < 1.0:
        raise ValueError(f"|rho_hat| must be < 1, got {rho_hat}")
    if n <= 3:
        raise ValueError(f"fisher_z requires n > 3, got {n}")
    z = math.sqrt(n - 3.0) / 2.0 * math.log((1.0 + rho_hat) / (1.0 - rho_hat))
    return TestStatistic(family=StatFamily.Z, value=z, sided=sided)


def rmses(omega_vec: Sequence[float]) -> float:
    """Root mean square of a vector of standardized effects."""
    if len(omega_vec) == 0:
        raise ValueError("rmses requires a non-empty vector")
    return math.sqrt(sum(w * w for w in omega_vec) / len(omega_vec))
