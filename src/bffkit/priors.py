"""Non-local priors on the non-centrality parameter, and the Jeffreys priors
on the shape parameter r used for marginal MAP estimation.

Two families are supported: normal-moment priors (two-sided, or one-sided by
restriction/reflection) for z and t statistics, and a gamma prior for the
non-centrality of chi-square and F statistics.  All densities vanish at the
null value, which is the defining property of a non-local alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .specfun import trigamma

__all__ = [
    "PriorFamily",
    "PriorSpec",
    "log_density",
    "mode",
    "jeffreys_log_prior_nm",
    "jeffreys_log_prior_gamma",
]


class PriorFamily(Enum):
    NORMAL_MOMENT_TWO_SIDED = "normal_moment_two_sided"
    NORMAL_MOMENT_POSITIVE = "normal_moment_positive"
    NORMAL_MOMENT_NEGATIVE = "normal_moment_negative"
    GAMMA_NONLOCAL = "gamma_nonlocal"


_NORMAL_MOMENT_FAMILIES = (
    PriorFamily.NORMAL_MOMENT_TWO_SIDED,
    PriorFamily.NORMAL_MOMENT_POSITIVE,
    PriorFamily.NORMAL_MOMENT_NEGATIVE,
)


@dataclass(frozen=True)
class PriorSpec:
    """Alternative-hypothesis prior on the non-centrality parameter.

    tau_sq is the scale, r >= 1 the shape.  k (the chi-square/F numerator
    degrees of freedom) is required exactly when family is GAMMA_NONLOCAL,
    where the prior is Gamma(shape=k/2 + r, rate=1/(2 tau_sq)).
    """

    family: PriorFamily
    tau_sq: float
    r: float
    k: float | None = None

    def __post_init__(self):
        if not self.tau_sq > 0.0:
            raise ValueError(f"tau_sq must be > 0, got {self.tau_sq}")
        if not self.r >= 1.0:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.family is PriorFamily.GAMMA_NONLOCAL:
            if self.k is None or not self.k > 0.0:
                raise ValueError("gamma prior requires k > 0")
        elif self.k is not None:
            raise ValueError("k is only meaningful for the gamma family")


def _log_density_nm_two(tau_sq: float, r: float, lam: float) -> float:
    if lam == 0.0:
        return float("-inf")
    return (
        r * math.log(lam * lam)
        - (r + 0.5) * math.log(2.0 * tau_sq)
        - math.lgamma(r + 0.5)
        - lam * lam / (2.0 * tau_sq)
    )


def log_density(spec: PriorSpec, lam: float) -> float:
    """Natural log of the prior density at lam.

    Returns -inf at lam = 0 (all these densities vanish at the null); raises
    ValueError when lam lies outside the family's support.
    """
    fam = spec.family
    if fam is PriorFamily.NORMAL_MOMENT_TWO_SIDED:
        return _log_density_nm_two(spec.tau_sq, spec.r, lam)
    if fam is PriorFamily.NORMAL_MOMENT_POSITIVE:
        if lam < 0.0:
            raise ValueError(f"lam={lam} outside support of one-sided positive prior")
        if lam == 0.0:
            return float("-inf")
        return math.log(2.0) + _log_density_nm_two(spec.tau_sq, spec.r, lam)
    if fam is PriorFamily.NORMAL_MOMENT_NEGATIVE:
        if lam > 0.0:
            raise ValueError(f"lam={lam} outside support of one-sided negative prior")
        if lam == 0.0:
            return float("-inf")
        return math.log(2.0) + _log_density_nm_two(spec.tau_sq, spec.r, -lam)
    # gamma non-local prior: shape k/2 + r, rate 1/(2 tau_sq)
    if lam < 0.0:
        raise ValueError(f"lam={lam} outside support of gamma prior")
    if lam == 0.0:
        return float("-inf")
    shape = spec.k / 2.0 + spec.r
    rate = 1.0 / (2.0 * spec.tau_sq)
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(lam) - rate * lam


def mode(spec: PriorSpec) -> float:
    """Prior mode; the two-sided normal-moment family returns the positive
    representative of its symmetric pair."""
    if spec.family in _NORMAL_MOMENT_FAMILIES:
        m = math.sqrt(2.0 * spec.r * spec.tau_sq)
        return -m if spec.family is PriorFamily.NORMAL_MOMENT_NEGATIVE else m
    return (spec.k / 2.0 + spec.r - 1.0) * 2.0 * spec.tau_sq


def jeffreys_log_prior_nm(r: float) -> float:
    """Log of the (unnormalized) Jeffreys prior on r for normal-moment
    priors with fixed mode: 0.5 * ln(psi_1(r + 1/2) - 1/r + 1/(2 r^2))."""
    if not r >= 1.0:
        raise ValueError(f"r must be >= 1, got {r}")
    radicand = trigamma(r + 0.5) - 1.0 / r + 1.0 / (2.0 * r * r)
    if not radicand > 0.0:
        raise ValueError(f"Jeffreys radicand not positive at r={r}: {radicand}")
    return 0.5 * math.log(radicand)


def jeffreys_log_prior_gamma(r: float, k: float) -> float:
    """Log of the (unnormalized) Jeffreys prior on r for the gamma prior
    family: 0.5 * ln(psi_1(k/2 + r) - (k/2 + r - 2)/(k/2 + r - 1)^2)."""
    if not r >= 1.0:
        raise ValueError(f"r must be >= 1, got {r}")
    if not k > 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    a = k / 2.0 + r
    radicand = trigamma(a) - (a - 2.0) / ((a - 1.0) * (a - 1.0))
    if not radicand > 0.0:
        raise ValueError(f"Jeffreys radicand not positive at r={r}, k={k}: {radicand}")
    return 0.5 * math.log(radicand)

