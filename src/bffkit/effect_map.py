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
from .priors import _check_shape

__all__ = [
    "DesignTag",
    "DesignKind",
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


def _size(n) -> bool:
    """Whether n is a usable sample size: given, finite and > 0."""
    return n is not None and 0 < n < math.inf


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
            if not (_size(self.n1) and _size(self.n2)):
                raise ValueError(
                    "two-sample designs require finite n1 > 0 and n2 > 0, "
                    f"got n1={self.n1}, n2={self.n2}"
                )
        else:
            if self.n1 is not None or self.n2 is not None:
                raise ValueError(f"{self.tag.value} takes a single sample size n")
            if not _size(self.n):
                raise ValueError(f"{self.tag.value} requires finite n > 0, got {self.n}")
            if self.tag is DesignTag.CORRELATION_Z and self.n <= 3:
                raise ValueError("correlation designs require n > 3")


def effective_n(design: DesignKind) -> float:
    """Sample size entering the non-centrality map: n, n1 n2/(n1+n2), or n-3."""
    if design.tag in _TWO_SAMPLE:
        return design.n1 * design.n2 / (design.n1 + design.n2)
    if design.tag is DesignTag.CORRELATION_Z:
        return design.n - 3.0
    return float(design.n)


def _tau_sq_parts(design: DesignKind, k: float | None) -> tuple[float, float, float, float]:
    """(c, d, s, u) such that tau_sq_for(design, omega, r, k) is
    _tau_sq((c, d, s, u), omega, r).

    c is n_eff for the z/t designs, with d = 2 and s = u = 0 ((0 + r) - 0 is
    r exactly), and n k for the chi-square/F designs, with d = 4 for the
    linear-model F, else 2, s = k/2 and u = 1.  None of them depends on
    (omega, r).
    """
    tag = design.tag
    if tag in _VECTOR_EFFECT:
        if k is None or not k > 0.0:
            raise ValueError(f"{tag.value} requires numerator df k > 0")
        if k / 2.0 + 1.0 == 1.0:  # s + r - u would round to 0 at r = 1
            raise ValueError(f"{tag.value} requires k/2 + 1 > 1 in double precision, got k={k}")
        denom = 4.0 if tag is DesignTag.LINEAR_MODEL_F else 2.0
        return design.n * k, denom, k / 2.0, 1.0
    if k is not None:
        raise ValueError(f"k is not meaningful for {tag.value}")
    return effective_n(design), 2.0, 0.0, 0.0


def _tau_sq(parts, w, r):
    """tau_sq_for at w = omega and r from its _tau_sq_parts, of floats or of
    arrays that broadcast: the one expression of tau_sq."""
    c, d, s, u = parts
    return c * w * w / (d * (s + r - u))


def tau_sq_for(design: DesignKind, omega: float, r: float, k: float | None = None) -> float:
    """Prior scale tau^2 for the given design, effect size, and shape r.

    omega is the standardized effect of a z/t design and the RMSES (rmses)
    of a chi-square/F design's vector effect.  k is required for the
    chi-square/F designs.  The linear-model F entry uses denominator 4, the
    published rmses form of that entry; the other vector designs use 2.
    """
    _check_shape(r)
    if not 0.0 <= omega < math.inf:
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    return _tau_sq(_tau_sq_parts(design, k), float(omega), r)


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
