"""Test support: the independent routes that the closed forms are checked
against, imported by acceptance criteria 4 (quadrature equivalence) and 7
(asymptotic rates), by the tests of the oracle itself, by the closed forms'
mpmath grid, and by the prior and effect-map tests for its prior densities
and modes.  Its MMAP reference, reference_mmap_r, and criterion 6's study
sets serve the acceptance criteria and the MMAP tests.

It holds the non-local prior densities on the non-centrality parameter,
exact sampling densities, quadrature marginals, and a Monte Carlo harness
for the asymptotic-rate properties.  The quadrature route deliberately
avoids the closed-form hypergeometric route so that agreement between
`marginal_bf_quadrature` and the `bayes_factors` formulas is a genuine
two-route check.  Central densities are evaluated from their textbook
formulas; noncentral densities come from their mixture/series
representations (a Poisson mixture for chi-square and F, a two-branch series
for t), accumulated term by term with numpy's logaddexp.  The second route,
mpmath_log_bf10, evaluates the paper's closed forms themselves at 50 or more
digits with mpmath's hypergeometric functions, over the whole input domain
rather than the quadrature-friendly box.

Two prior families are covered: normal-moment priors (two-sided, or
one-sided by restriction/reflection) for z and t statistics, and a gamma
prior for the non-centrality of chi-square and F statistics.  All densities
vanish at the null value, which is the defining property of a non-local
alternative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammaincc

from bffkit.bayes_factors import Sidedness, StatFamily, TestStatistic, log_bf10
from bffkit.effect_map import DesignKind, DesignTag
from bffkit.evidence import StudySet, _objectives

__all__ = [
    "PriorFamily",
    "PriorSpec",
    "log_density",
    "mode",
    "QuadratureSpec",
    "QuadratureError",
    "TruncationError",
    "density_null",
    "density_noncentral",
    "marginal_bf_quadrature",
    "validation_tuples",
    "mpmath_log_bf10",
    "RateReport",
    "rate_harness",
    "single_statistic_sets",
    "reference_mmap_r",
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


_LOG_2PI = math.log(2.0 * math.pi)
_SERIES_CAP = 1_000_000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerances."""


class TruncationError(RuntimeError):
    """A density series failed to reach its tail bound within the term cap."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and domain policy for the marginal-density quadrature.

    The integration interval runs to prior mode + sd_multiplier * prior SD,
    widened until the prior tail mass beyond it is below tail_mass_bound.
    """

    abs_tol: float = 0.0
    rel_tol: float = 1e-10
    max_subdivisions: int = 300
    sd_multiplier: float = 12.0
    tail_mass_bound: float = 1e-12


def density_null(stat: TestStatistic) -> float:
    """Exact central density of the statistic at its observed value."""
    x = stat.value
    if stat.family is StatFamily.Z:
        return math.exp(-0.5 * x * x - 0.5 * _LOG_2PI)
    if stat.family is StatFamily.T:
        nu = stat.nu
        log_pdf = (
            math.lgamma((nu + 1.0) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - (nu + 1.0) / 2.0 * math.log1p(x * x / nu)
        )
        return math.exp(log_pdf)
    if stat.family is StatFamily.CHI_SQ:
        k = stat.k
        if x == 0.0:
            if k == 2.0:
                return 0.5
            return float("inf") if k < 2.0 else 0.0
        log_pdf = (
            (k / 2.0 - 1.0) * math.log(x)
            - x / 2.0
            - (k / 2.0) * math.log(2.0)
            - math.lgamma(k / 2.0)
        )
        return math.exp(log_pdf)
    k, m = stat.k, stat.m
    if x == 0.0:
        if k == 2.0:
            return 1.0
        return float("inf") if k < 2.0 else 0.0
    log_pdf = (
        math.lgamma((k + m) / 2.0)
        - math.lgamma(k / 2.0)
        - math.lgamma(m / 2.0)
        + (k / 2.0) * math.log(k / m)
        + (k / 2.0 - 1.0) * math.log(x)
        - (k + m) / 2.0 * math.log1p(k * x / m)
    )
    return math.exp(log_pdf)


def _log_series(log_t0: float, log_ratio) -> float:
    """Accumulate log(sum of a positive unimodal series) term by term.

    log_ratio(i) gives log(t_{i+1}/t_i).  Stops once past the peak with the
    latest term 1e-16 below the running total (relative tail well under
    1e-14); raises TruncationError at the cap.
    """
    acc = log_t0
    log_t = log_t0
    for i in range(_SERIES_CAP):
        lr = log_ratio(i)
        log_t = log_t + lr
        acc = float(np.logaddexp(acc, log_t))
        if lr < 0.0 and log_t < acc + math.log(1e-16):
            return acc
    raise TruncationError("density series did not reach its tail bound")


def density_noncentral(stat: TestStatistic, lam: float) -> float:
    """Noncentral density of the statistic at its observed value.

    Z: shifted normal (exact).  T: two-branch confluent series.  Chi-square
    and F: Poisson mixtures of central densities, truncated by tail bound.
    """
    x = stat.value
    if stat.family is StatFamily.Z:
        d = x - lam
        return math.exp(-0.5 * d * d - 0.5 * _LOG_2PI)
    if stat.family is StatFamily.CHI_SQ or stat.family is StatFamily.F:
        if lam < 0.0:
            raise ValueError(f"lam must be >= 0 for {stat.family.value}, got {lam}")
    if lam == 0.0:
        return density_null(stat)

    if stat.family is StatFamily.T:
        nu = stat.nu
        w = lam * lam * x * x / (2.0 * (x * x + nu))
        log_w = math.log(w) if w > 0.0 else float("-inf")
        # branch 1: sum_j ((nu+1)/2)_j / ((1/2)_j j!) w^j
        if w == 0.0:
            la1 = 0.0
            la2 = 0.0
        else:
            la1 = _log_series(
                0.0,
                lambda j: log_w
                + math.log((nu + 1.0) / 2.0 + j)
                - math.log((0.5 + j) * (1.0 + j)),
            )
            # branch 2: sum_j (nu/2+1)_j / ((3/2)_j j!) w^j
            la2 = _log_series(
                0.0,
                lambda j: log_w
                + math.log(nu / 2.0 + 1.0 + j)
                - math.log((1.5 + j) * (1.0 + j)),
            )
        coef = math.sqrt(2.0) * lam * x / math.sqrt(x * x + nu)
        if coef == 0.0:
            bracket_log, bracket_sign = la1, 1.0
        else:
            lc2 = la2 + math.log(abs(coef)) + math.lgamma(nu / 2.0 + 1.0) - math.lgamma(
                (nu + 1.0) / 2.0
            )
            m_log = max(la1, lc2)
            val = math.exp(la1 - m_log) + math.copysign(math.exp(lc2 - m_log), coef)
            if val <= 0.0:
                # catastrophic cancellation floor: the true density is below
                # double-precision resolution of the two branches; it is also
                # exponentially negligible wherever this occurs
                return 0.0
            bracket_log, bracket_sign = m_log + math.log(val), 1.0
        log_m0 = math.log(density_null(stat))
        return bracket_sign * math.exp(log_m0 - lam * lam / 2.0 + bracket_log)

    if stat.family is StatFamily.CHI_SQ:
        k = stat.k
        if x == 0.0:
            return math.exp(-lam / 2.0) * density_null(stat)
        log_t0 = (
            -lam / 2.0
            + (k / 2.0 - 1.0) * math.log(x)
            - x / 2.0
            - (k / 2.0) * math.log(2.0)
            - math.lgamma(k / 2.0)
        )
        log_half_lam_x = math.log(lam * x / 4.0)

        def ratio(i):
            return log_half_lam_x - math.log((1.0 + i) * (k / 2.0 + i))

        return math.exp(_log_series(log_t0, ratio))

    k, m = stat.k, stat.m
    if x == 0.0:
        return math.exp(-lam / 2.0) * density_null(stat)
    log_t0 = (
        -lam / 2.0
        + math.lgamma((k + m) / 2.0)
        - math.lgamma(k / 2.0)
        - math.lgamma(m / 2.0)
        + (k / 2.0) * math.log(k / m)
        + ((k + m) / 2.0) * math.log(m / (m + k * x))
        + (k / 2.0 - 1.0) * math.log(x)
    )
    log_z = math.log(lam / 2.0 * k * x / (m + k * x))

    def ratio_f(i):
        return log_z + math.log(((k + m) / 2.0 + i) / ((1.0 + i) * (k / 2.0 + i)))

    return math.exp(_log_series(log_t0, ratio_f))


def _prior_sd(spec: PriorSpec) -> float:
    if spec.family in _NORMAL_MOMENT_FAMILIES:
        return math.sqrt((2.0 * spec.r + 1.0) * spec.tau_sq)
    return math.sqrt(spec.k / 2.0 + spec.r) * 2.0 * spec.tau_sq


def _prior_tail_mass(spec: PriorSpec, bound: float) -> float:
    """Prior mass beyond |lam| > bound."""
    if spec.family in _NORMAL_MOMENT_FAMILIES:
        # lam^2/(2 tau^2) ~ Gamma(r + 1/2, 1)
        return float(gammaincc(spec.r + 0.5, bound * bound / (2.0 * spec.tau_sq)))
    return float(gammaincc(spec.k / 2.0 + spec.r, bound / (2.0 * spec.tau_sq)))


def _upper_bound(spec: PriorSpec, q: QuadratureSpec) -> float:
    bound = abs(mode(spec)) + q.sd_multiplier * _prior_sd(spec)
    while _prior_tail_mass(spec, bound) >= q.tail_mass_bound:
        bound *= 2.0
    return bound


def marginal_bf_quadrature(
    stat: TestStatistic, spec: PriorSpec, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """log of [integral of noncentral density against the prior] / null density,
    by adaptive quadrature over the prior's support."""
    fam = stat.family
    if fam in (StatFamily.Z, StatFamily.T):
        if spec.family not in _NORMAL_MOMENT_FAMILIES:
            raise ValueError("z/t statistics pair with normal-moment priors")
    elif spec.family is not PriorFamily.GAMMA_NONLOCAL:
        raise ValueError("chi-square/F statistics pair with the gamma prior")

    def integrand(lam: float) -> float:
        ld = log_density(spec, lam)
        if ld == float("-inf"):
            return 0.0
        return density_noncentral(stat, lam) * math.exp(ld)

    bound = _upper_bound(spec, q)
    mode_pos = abs(mode(spec))
    pieces: list[tuple[float, float, list[float]]] = []
    if spec.family is PriorFamily.GAMMA_NONLOCAL:
        pieces.append((0.0, bound, [mode_pos]))
    else:
        # the integrand peaks near a*stat (a = tau^2/(1+tau^2)) and near the
        # prior modes; list both so the subdivision starts well placed
        peak = spec.tau_sq / (1.0 + spec.tau_sq) * stat.value
        if spec.family in (
            PriorFamily.NORMAL_MOMENT_TWO_SIDED,
            PriorFamily.NORMAL_MOMENT_POSITIVE,
        ):
            pts = sorted({mode_pos, min(max(peak, 0.0), bound)})
            pieces.append((0.0, bound, [p for p in pts if 0.0 < p < bound]))
        if spec.family in (
            PriorFamily.NORMAL_MOMENT_TWO_SIDED,
            PriorFamily.NORMAL_MOMENT_NEGATIVE,
        ):
            pts = sorted({-mode_pos, max(min(peak, 0.0), -bound)})
            pieces.append((-bound, 0.0, [p for p in pts if -bound < p < 0.0]))

    m1 = 0.0
    err_total = 0.0
    with warnings.catch_warnings():
        # QUADPACK warns when the requested tolerance brushes roundoff; the
        # returned error estimate still tells us whether the value is usable
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi, pts in pieces:
            val, err = integrate.quad(
                integrand,
                lo,
                hi,
                points=pts or None,
                limit=q.max_subdivisions,
                epsabs=q.abs_tol,
                epsrel=q.rel_tol,
            )
            m1 += val
            err_total += abs(err)
    if not m1 > 0.0:
        raise QuadratureError(f"non-positive marginal {m1}")
    if err_total > 10.0 * q.rel_tol * abs(m1):
        raise QuadratureError(
            f"quadrature error estimate {err_total:.3e} exceeds "
            f"{10.0 * q.rel_tol:.1e} x |marginal| = {10.0 * q.rel_tol * abs(m1):.3e}"
        )
    return math.log(m1) - math.log(density_null(stat))


def validation_tuples(check: str, count: int, rng) -> list[tuple]:
    """count randomized (statistic, prior, closed-form log BF10) tuples for
    one check (z_one, z_two, t_one, t_two, chisq or f), kept inside
    quadrature-friendly ranges and rejecting near-zero log BF so that
    relative error is well defined."""
    if check not in ("z_one", "z_two", "t_one", "t_two", "chisq", "f"):
        raise ValueError(f"unknown validation check {check!r}")
    family, _, side = check.partition("_")
    out = []
    while len(out) < count:
        tau_sq = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(1.0, 3.5))
        if family in ("z", "t"):
            value = float(rng.uniform(-3.5, 3.5))
            nu = float(rng.uniform(4.0, 60.0)) if family == "t" else None
            stat = TestStatistic(StatFamily(family), value, Sidedness(side), nu=nu)
            prior_family = (
                PriorFamily.NORMAL_MOMENT_POSITIVE
                if side == "one"
                else PriorFamily.NORMAL_MOMENT_TWO_SIDED
            )
            prior = PriorSpec(prior_family, tau_sq, r)
        else:
            k = float(rng.integers(1, 8))
            if family == "chisq":
                stat = TestStatistic(StatFamily.CHI_SQ, float(rng.uniform(0.1, 25.0)), k=k)
            else:
                m = float(rng.uniform(5.0, 120.0))
                stat = TestStatistic(StatFamily.F, float(rng.uniform(0.05, 12.0)), k=k, m=m)
            prior = PriorSpec(PriorFamily.GAMMA_NONLOCAL, tau_sq, r, k=k)
        closed = log_bf10(stat, tau_sq, r)
        if abs(closed) < 0.05:
            continue  # relative comparison needs the log away from zero
        out.append((stat, prior, closed))
    return out


# Working precision of mpmath_log_bf10, in decimal digits; a one-sided
# bracket that cancels is recomputed with the digits it lost added.
_MP_DPS = 50


def mpmath_log_bf10(stat: TestStatistic, tau_sq: float, r: float) -> float:
    """log BF10 of a statistic at (tau_sq, r) from the paper's closed form
    for its family and sidedness, evaluated by mpmath's hyp1f1/hyp2f1 at
    _MP_DPS or more digits: a second route that shares no code with
    bayes_factors or specfun.

    z two-sided: (1+tau^2)^-(r+1/2) 1F1(r+1/2; 1/2; y^2), y^2 = tau^2 z^2 / (2(1+tau^2));
    z one-sided: (1+tau^2)^-(r+1/2) [1F1(r+1/2; 1/2; y^2)
        + 2y Gamma(r+1)/Gamma(r+1/2) 1F1(r+1; 3/2; y^2)], y = tau z / sqrt(2(1+tau^2));
    t two-sided: (1+tau^2)^-(r+1/2) 2F1((nu+1)/2, r+1/2; 1/2; y^2),
        y = tau t / sqrt((nu+t^2)(1+tau^2));
    t one-sided: (1+tau^2)^-(r+1/2) [2F1((nu+1)/2, r+1/2; 1/2; y^2)
        + 2y G 2F1(nu/2+1, r+1; 3/2; y^2)],
        G = Gamma(nu/2+1) Gamma(r+1) / (Gamma((nu+1)/2) Gamma(r+1/2));
    chi-square: (1+tau^2)^-(k/2+r) 1F1(k/2+r; k/2; tau^2 h / (2(1+tau^2)));
    F: (1+tau^2)^-(k/2+r) 2F1(k/2+r, (k+m)/2; k/2; k f tau^2 / ((1+tau^2)(m+kf))).
    """
    dps = _MP_DPS
    while True:
        with mp.workdps(dps):
            tsq, r_, v = mp.mpf(tau_sq), mp.mpf(r), mp.mpf(stat.value)
            if stat.family in (StatFamily.CHI_SQ, StatFamily.F):
                half_k = mp.mpf(stat.k) / 2
                a = half_k + r_
                if stat.family is StatFamily.CHI_SQ:
                    bracket = mp.hyp1f1(a, half_k, tsq * v / (2 * (1 + tsq)))
                else:
                    m = mp.mpf(stat.m)
                    x = stat.k * v * tsq / ((1 + tsq) * (m + stat.k * v))
                    bracket = mp.hyp2f1(a, (stat.k + m) / 2, half_k, x)
                return float(-a * mp.log1p(tsq) + mp.log(bracket))
            if stat.family is StatFamily.Z:
                y = mp.sqrt(tsq) * v / mp.sqrt(2 * (1 + tsq))
                even = mp.hyp1f1(r_ + 0.5, 0.5, y * y)
                odd = mp.hyp1f1(r_ + 1, 1.5, y * y) * mp.gamma(r_ + 1) / mp.gamma(r_ + 0.5)
            else:
                nu = mp.mpf(stat.nu)
                y = mp.sqrt(tsq) * v / mp.sqrt((nu + v * v) * (1 + tsq))
                even = mp.hyp2f1((nu + 1) / 2, r_ + 0.5, 0.5, y * y)
                odd = (
                    mp.hyp2f1(nu / 2 + 1, r_ + 1, 1.5, y * y)
                    * mp.gamma(nu / 2 + 1) * mp.gamma(r_ + 1)
                    / (mp.gamma((nu + 1) / 2) * mp.gamma(r_ + 0.5))
                )
            log_prefactor = -(r_ + 0.5) * mp.log1p(tsq)
            if stat.sided is Sidedness.TWO_SIDED:
                return float(log_prefactor + mp.log(even))
            odd *= 2 * y
            bracket = even + odd
            lost = mp.log10(max(abs(even), abs(odd)) / bracket) if bracket > 0 else mp.inf
            if lost < dps - 30:
                return float(log_prefactor + mp.log(bracket))
        if dps >= 1000:
            raise ArithmeticError("mpmath bracket unresolved at 1000 digits")
        dps = min(1000, 2 * dps if lost == mp.inf else dps + int(lost) + 10)


@dataclass(frozen=True)
class RateReport:
    """Median log Bayes factors across simulated replicates and the fitted
    growth rates the asymptotic lemmas prescribe."""

    family: StatFamily
    r: float
    beta: float
    gamma: float
    k: float | None
    n_grid: tuple[int, ...]
    replicates: int
    h0_median_log_bf10: tuple[float, ...]
    h1_median_log_bf01: tuple[float, ...]
    h0_slope_vs_log_n: float
    h1_slope_vs_n: float

    @property
    def h0_target_slope(self) -> float:
        if self.family in (StatFamily.Z, StatFamily.T):
            return -(self.r + 0.5)
        return -(self.r + self.k / 2.0)

    @property
    def h1_increments(self) -> tuple[float, ...]:
        m = self.h1_median_log_bf01
        return tuple(b - a for a, b in zip(m, m[1:]))


def _simulate(family: StatFamily, k: float, n: int, gamma: float, null: bool, rng):
    """One statistic draw under H0 (null=True) or the lemma's H1 scaling."""
    if family is StatFamily.Z:
        loc = 0.0 if null else gamma * math.sqrt(n)
        return rng.normal(loc, 1.0)
    if family is StatFamily.T:
        nu = n - 1
        num = rng.normal(0.0 if null else gamma * math.sqrt(n), 1.0)
        return num / math.sqrt(rng.chisquare(nu) / nu), nu
    if family is StatFamily.CHI_SQ:
        if null:
            return rng.chisquare(k)
        return rng.noncentral_chisquare(k, gamma * n)
    m = n
    if null:
        return rng.f(k, m), m
    return rng.noncentral_f(k, m, gamma * n), m


def rate_harness(
    family: StatFamily,
    r: float,
    beta: float,
    gamma: float,
    n_grid: list[int],
    seed: int,
    replicates: int = 500,
    k: float = 2.0,
    sided: Sidedness = Sidedness.TWO_SIDED,
) -> RateReport:
    """Simulate the lemma setups (tau^2 = beta*n, noncentrality gamma-scaled
    in n) and fit the growth rates of the median log Bayes factors.

    Under H0 the fit is median log BF10 against ln n (target -(r+1/2) for z/t,
    -(r+k/2) for chi-square/F); under H1 it is median log BF01 against n
    (negative, super-logarithmic).  Medians, not means: the lemmas are
    O_p statements and means are heavy-tailed under H1.
    """
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be increasing with at least 3 points")
    root = np.random.SeedSequence(seed)
    h0_medians = []
    h1_medians = []
    for n, ss in zip(n_grid, root.spawn(len(n_grid))):
        tau_sq = beta * n
        for null, child in zip((True, False), ss.spawn(2)):
            vals = np.empty(replicates)
            for i, rep_seed in enumerate(child.spawn(replicates)):
                rng = np.random.default_rng(rep_seed)
                draw = _simulate(family, k, n, gamma, null, rng)
                if family is StatFamily.Z:
                    stat = TestStatistic(StatFamily.Z, draw, sided)
                elif family is StatFamily.T:
                    t, nu = draw
                    stat = TestStatistic(StatFamily.T, t, sided, nu=float(nu))
                elif family is StatFamily.CHI_SQ:
                    stat = TestStatistic(StatFamily.CHI_SQ, draw, k=k)
                else:
                    f, m = draw
                    stat = TestStatistic(StatFamily.F, f, k=k, m=float(m))
                vals[i] = log_bf10(stat, tau_sq, r)
            med = float(np.median(vals))
            if null:
                h0_medians.append(med)
            else:
                h1_medians.append(-med)  # log BF01
    ns = np.asarray(n_grid, dtype=float)
    h0_slope = float(np.polyfit(np.log(ns), h0_medians, 1)[0])
    h1_slope = float(np.polyfit(ns, h1_medians, 1)[0])
    return RateReport(
        family=family,
        r=r,
        beta=beta,
        gamma=gamma,
        k=k if family in (StatFamily.CHI_SQ, StatFamily.F) else None,
        n_grid=tuple(n_grid),
        replicates=replicates,
        h0_median_log_bf10=tuple(h0_medians),
        h1_median_log_bf01=tuple(h1_medians),
        h0_slope_vs_log_n=h0_slope,
        h1_slope_vs_n=h1_slope,
    )


def single_statistic_sets(rng) -> list[tuple[StudySet, float]]:
    """100 randomized (single-study set, omega) pairs drawn from rng, a
    quarter from each of the z, t, chi-square and F families: the inputs of
    acceptance criterion 6."""
    out = []
    for i in range(100):
        fam = (StatFamily.Z, StatFamily.T, StatFamily.CHI_SQ, StatFamily.F)[i % 4]
        n = int(rng.integers(20, 300))
        if fam is StatFamily.Z:
            sided = Sidedness.ONE_SIDED if rng.random() < 0.5 else Sidedness.TWO_SIDED
            stat = TestStatistic(fam, float(rng.uniform(-3, 3)), sided)
            design = DesignKind(DesignTag.ONE_SAMPLE_Z, n=n)
        elif fam is StatFamily.T:
            sided = Sidedness.ONE_SIDED if rng.random() < 0.5 else Sidedness.TWO_SIDED
            stat = TestStatistic(fam, float(rng.uniform(-3, 3)), sided, nu=float(n - 1))
            design = DesignKind(DesignTag.ONE_SAMPLE_T, n=n)
        elif fam is StatFamily.CHI_SQ:
            stat = TestStatistic(
                fam, float(rng.uniform(0.1, 20.0)), k=float(rng.integers(1, 7))
            )
            design = DesignKind(DesignTag.MULTINOMIAL_CHISQ, n=n)
        else:
            stat = TestStatistic(
                fam,
                float(rng.uniform(0.05, 8.0)),
                k=float(rng.integers(1, 7)),
                m=float(rng.uniform(5, 150)),
            )
            design = DesignKind(DesignTag.LINEAR_MODEL_F, n=n)
        out.append((StudySet.build([(stat, design)]), float(rng.uniform(0.05, 0.8))))
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def reference_mmap_r(study_set: StudySet, omega: float, r_max: float = 200.0) -> tuple[float, float]:
    """(r*, objective) of the MMAP maximization by a plain, slow and precise
    search that shares no search code with evidence.mmap_r: the objective
    (evidence._objectives) on a 32-point log-spaced scan of [1, r_max] in
    one pass, then a golden-section search on the best scan point's
    neighbours until its bracket is 1e-10 wide.  The best of the scan point
    and the search's two last points wins, so a maximum at r = 1 or r_max
    comes back as that end."""
    def objective(rs):
        return [value for value, _ in _objectives(study_set, omega, rs)]

    scan = np.exp(np.linspace(0.0, math.log(r_max), 32)).tolist()
    scan[0], scan[-1] = 1.0, r_max
    values = objective(scan)
    best = int(np.argmax(values))
    lo, hi = scan[max(best - 1, 0)], scan[min(best + 1, len(scan) - 1)]
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = objective([c, d])
    while hi - lo > 1e-10:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            (fc,) = objective([c])
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            (fd,) = objective([d])
    objective_star, r_star = max((values[best], scan[best]), (fc, c), (fd, d))
    return r_star, objective_star
