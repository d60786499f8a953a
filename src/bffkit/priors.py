"""Jeffreys priors on the shape parameter r of the non-local priors, the
prior term of the marginal MAP (MMAP) objective.

jeffreys_log_prior_nm serves the normal-moment priors of z and t statistics,
jeffreys_log_prior_gamma the gamma prior on the non-centrality of chi-square
and F statistics with numerator degrees of freedom k.  Both are
unnormalized logs, defined for finite r >= 1, the shape rule that
_check_shape states for every module.
"""

from __future__ import annotations

import math

from .specfun import trigamma

__all__ = [
    "jeffreys_log_prior_nm",
    "jeffreys_log_prior_gamma",
]


def _check_shape(r: float, name: str = "r") -> None:
    """Raise ValueError unless the prior shape r (or a bound on it, named
    name) is finite and >= 1."""
    if not 1.0 <= r < math.inf:
        raise ValueError(f"{name} must be finite and >= 1, got {r}")


def jeffreys_log_prior_nm(r: float) -> float:
    """Log of the (unnormalized) Jeffreys prior on r for normal-moment
    priors with fixed mode: 0.5 * ln(psi_1(r + 1/2) - 1/r + 1/(2 r^2))."""
    _check_shape(r)
    radicand = trigamma(r + 0.5) - 1.0 / r + 1.0 / (2.0 * r * r)
    if not radicand > 0.0:
        raise ValueError(f"Jeffreys radicand not positive at r={r}: {radicand}")
    return 0.5 * math.log(radicand)


def jeffreys_log_prior_gamma(r: float, k: float) -> float:
    """Log of the (unnormalized) Jeffreys prior on r for the gamma prior
    family: 0.5 * ln(psi_1(k/2 + r) - (k/2 + r - 2)/(k/2 + r - 1)^2)."""
    _check_shape(r)
    if not k > 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    a = k / 2.0 + r
    radicand = trigamma(a) - (a - 2.0) / ((a - 1.0) * (a - 1.0))
    if not radicand > 0.0:
        raise ValueError(f"Jeffreys radicand not positive at r={r}, k={k}: {radicand}")
    return 0.5 * math.log(radicand)

