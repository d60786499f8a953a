"""Jeffreys priors on the shape parameter r of the non-local priors, the
prior term of the marginal MAP (MMAP) objective.

jeffreys_log_prior_nm serves the normal-moment priors of z and t statistics,
jeffreys_log_prior_gamma the gamma prior on the non-centrality of chi-square
and F statistics with numerator degrees of freedom k.  Both are
unnormalized logs, defined for finite r >= 1, the shape rule that
_check_shape states for every module.

Each radicand, of size 1/(2 r^2), is psi_1 less terms of size 1/r, which
lose digits as r grows (1e-6 of the log at r = 1e10, a radicand not
positive near r = 1e16).  Above _LARGE_R, the default r_max, each is taken
in logs from an exact form in which no term cancels, with the tail T(x) =
psi_1(x) - 1/x - 1/(2x^2) that trigamma sums (specfun._trigamma_tail).
"""

from __future__ import annotations

import math

from .specfun import _trigamma_tail, trigamma

__all__ = [
    "jeffreys_log_prior_nm",
    "jeffreys_log_prior_gamma",
]


_LARGE_R = 200.0


def _check_shape(r: float, name: str = "r") -> None:
    """Raise ValueError unless the prior shape r (or a bound on it, named
    name) is finite and >= 1."""
    if not 1.0 <= r < math.inf:
        raise ValueError(f"{name} must be finite and >= 1, got {r}")


def jeffreys_log_prior_nm(r: float) -> float:
    """Log of the (unnormalized) Jeffreys prior on r for normal-moment
    priors with fixed mode: 0.5 * ln(psi_1(r + 1/2) - 1/r + 1/(2 r^2)).

    Above _LARGE_R the radicand is 1/(2 r^2) - 1/(4 x^2 r) + T(x), x = r + 1/2."""
    _check_shape(r)
    if r > _LARGE_R:
        x = r + 0.5
        q, inv = r / x, 1.0 / x
        # r^2 times the radicand, with r^2 T(x) = q^2 x^2 T(x)
        scaled = 0.5 - 0.25 * q * inv + q * q * _trigamma_tail(inv, inv * inv)
        return 0.5 * math.log(scaled) - math.log(r)
    radicand = trigamma(r + 0.5) - 1.0 / r + 1.0 / (2.0 * r * r)
    if not radicand > 0.0:
        raise ValueError(f"Jeffreys radicand not positive at r={r}: {radicand}")
    return 0.5 * math.log(radicand)


def jeffreys_log_prior_gamma(r: float, k: float) -> float:
    """Log of the (unnormalized) Jeffreys prior on r for the gamma prior
    family: 0.5 * ln(psi_1(k/2 + r) - (k/2 + r - 2)/(k/2 + r - 1)^2).

    Above _LARGE_R the radicand is 1/(a (a - 1)^2) + 1/(2 a^2) + T(a), a = k/2 + r."""
    _check_shape(r)
    if not k > 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    a = k / 2.0 + r
    if r > _LARGE_R:
        inv = 1.0 / a
        # a^2 times the radicand
        scaled = 0.5 + a / (a - 1.0) / (a - 1.0) + _trigamma_tail(inv, inv * inv)
        return 0.5 * math.log(scaled) - math.log(a)
    radicand = trigamma(a) - (a - 2.0) / ((a - 1.0) * (a - 1.0))
    if not radicand > 0.0:
        raise ValueError(f"Jeffreys radicand not positive at r={r}, k={k}: {radicand}")
    return 0.5 * math.log(radicand)

