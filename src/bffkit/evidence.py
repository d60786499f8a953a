"""Combine Bayes factors across replicated studies and maximize over the
prior shape r.

A study set holds statistics that are assumed to share a common standardized
effect omega; the combined log Bayes factor at (omega, r) is the sum of the
per-study values with per-study prior scales from the effect map.  The MMAP
estimate of r maximizes that sum plus the log Jeffreys prior on r: the
marginal densities in the defining product differ from Bayes factors only by
an r-independent factor (the null marginals), so the two maximizations agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# log_bf10 is not called here any more; it stays bound in this module
# because bench/tracing.py wraps this module's bindings.
from .bayes_factors import (  # noqa: F401
    StatFamily,
    TestStatistic,
    _study_part,
    _StudyPart,
    log_bf10,
    log_bf10_batch,
)
from .effect_map import DesignKind, EffectSize, _check_shape, _tau_sq_parts, tau_sq_for
from .priors import jeffreys_log_prior_gamma, jeffreys_log_prior_nm

__all__ = [
    "Study",
    "StudySet",
    "EffectGrid",
    "BffPoint",
    "BffCurve",
    "FixedR",
    "MmapR",
    "MmapResult",
    "combined_log_bf",
    "per_study_log_bf",
    "mmap_r",
    "bff_curve",
    "evidence_thresholds",
]

_GAMMA_STAT_FAMILIES = (StatFamily.CHI_SQ, StatFamily.F)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 32
_R_TOL = 1e-4


@dataclass(frozen=True)
class Study:
    """A statistic and its design.  The design must fit the statistic's
    family, by tau_sq_for's rules (a chi-square/F design takes the numerator
    df k, a z/t design none), so no prior scale of a built study fails.

    A built study also holds, in private fields, everything of its log BF10
    that does not depend on (omega, r): the study part of its closed form,
    the record (c, extra, s, sign, log_ratio) of bayes_factors' one
    expression, and the constants of its prior scale (effect_map's
    _tau_sq_parts), so an evaluation at (omega, r) computes only tau_sq and
    bayes_factors._item."""

    stat: TestStatistic
    design: DesignKind
    _part: _StudyPart = field(init=False, repr=False, compare=False)
    _scale: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau_sq_for(self.design, 0.0, 1.0, self.stat.k)
        object.__setattr__(self, "_part", _study_part(self.stat))
        object.__setattr__(self, "_scale", _tau_sq_parts(self.design, self.stat.k))


@dataclass(frozen=True)
class StudySet:
    """Replicated studies sharing a standardized effect.

    All studies must map to the same prior family (normal-moment for z/t,
    gamma for chi-square/F) so a single Jeffreys prior on r applies; gamma
    sets must additionally share the numerator df k, since the Jeffreys prior
    depends on it.
    """

    studies: tuple[Study, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.studies) == 0:
            raise ValueError("a study set must contain at least one study")
        gammas = [s.stat.family in _GAMMA_STAT_FAMILIES for s in self.studies]
        if any(gammas) and not all(gammas):
            raise ValueError(
                "mixed prior families in one study set: z/t studies cannot be "
                "combined with chi-square/F studies under a single prior on r"
            )
        if all(gammas):
            ks = {s.stat.k for s in self.studies}
            if len(ks) > 1:
                raise ValueError(
                    "chi-square/F study sets must share the numerator df k; "
                    f"got {sorted(ks)}"
                )

    @classmethod
    def build(cls, pairs: Iterable[tuple[TestStatistic, DesignKind]], label: str = "") -> "StudySet":
        return cls(tuple(Study(stat, design) for stat, design in pairs), label)

    def jeffreys_log_prior(self, r: float) -> float:
        # k is None for z/t studies and shared by chi-square/F sets
        return jeffreys_log_prior(r, self.studies[0].stat.k)


def jeffreys_log_prior(r: float, k: float | None = None) -> float:
    """Log Jeffreys prior on r: the gamma-prior form for chi-square/F
    numerator df k, the normal-moment form when k is None."""
    if k is None:
        return jeffreys_log_prior_nm(r)
    return jeffreys_log_prior_gamma(r, k)


def _at_omega(study_set: StudySet, omega: float) -> list[tuple]:
    """(study part, c w w, d, s, u) of every study at common effect omega,
    from the study's _tau_sq_parts: c w w is the part of tau_sq that
    depends on omega alone, formed once per omega."""
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    w = EffectSize(float(omega)).omega
    scaled = []
    for study in study_set.studies:
        c, d, s, u = study._scale
        scaled.append((study._part, c * w * w, d, s, u))
    return scaled


def _log_bf_rows(scaled: list[tuple], rs: Sequence[float]) -> list[list]:
    """Per-study log BF10 at the effect of scaled (_at_omega) for every
    shape in rs, one list per r, with all (r, study) items evaluated by one
    log_bf10_batch pass.  Where the evaluation of a study raises, its entry
    is the exception instead of a float.

    Each study was compiled when built, so an item computes only its tau_sq
    here and the rest in log_bf10_batch.  tau_sq is c w w / (d (s + r -
    u)): tau_sq_for's operations in its order, so its value bit for bit.  An
    r below 1 raises tau_sq_for's error for the whole call; it concerns no
    study."""
    items = []
    for r in rs:
        _check_shape(r)
        items += [(part, cww / (d * (s + r - u)), r) for part, cww, d, s, u in scaled]
    values = log_bf10_batch(items)
    n = len(scaled)
    return [values[i : i + n] for i in range(0, len(values), n)]


def _raise_first_error(per_study: list) -> None:
    for i, value in enumerate(per_study):
        if isinstance(value, Exception):
            raise type(value)(f"study {i}: {value}") from value


def per_study_log_bf(study_set: StudySet, omega: float, r: float) -> list[float]:
    """Per-study log BF10 at common effect omega and shape r."""
    per_study = _log_bf_rows(_at_omega(study_set, omega), (r,))[0]
    _raise_first_error(per_study)
    return per_study


def combined_log_bf(study_set: StudySet, omega: float, r: float) -> float:
    """Sum of per-study log Bayes factors (the product law in log space)."""
    return sum(per_study_log_bf(study_set, omega, r))


def _objectives(study_set: StudySet, scaled: list[tuple], rs: Sequence[float]) -> list[tuple]:
    """(objective, per-study values) at each r in rs and the effect of
    scaled (_at_omega), where the MMAP objective is combined_log_bf + log
    Jeffreys prior, all through one _log_bf_rows pass.

    One-sided brackets with the statistic strongly opposing the prior
    direction can fall below double-precision resolution at large r (the log
    BF there is enormously negative).  Such r can never be the maximizer, so
    an ArithmeticError makes that r's objective -inf rather than aborting the
    search, and its per-study list keeps the exception; any other error
    propagates, tagged with its study.
    """
    out = []
    for r, per_study in zip(rs, _log_bf_rows(scaled, rs)):
        try:
            _raise_first_error(per_study)
            out.append((sum(per_study) + study_set.jeffreys_log_prior(r), per_study))
        except ArithmeticError:
            out.append((float("-inf"), per_study))
    return out


@dataclass(frozen=True)
class MmapResult:
    """The MMAP maximizer r_star, its objective, and the per-study log BF10
    values at r_star that the objective sums."""

    r_star: float
    objective: float
    at_boundary: bool
    per_study_log_bf: tuple[float, ...]


def _golden_max(evaluate, lo: float, hi: float, tol: float) -> tuple[float, tuple]:
    """Golden-section search for the maximum objective on [lo, hi]; returns
    the final point and its (objective, per-study values)."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    (fc, _), (fd, _) = evaluate((c, d))
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            ((fc, _),) = evaluate((c,))
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            ((fd, _),) = evaluate((d,))
    x = 0.5 * (lo + hi)
    return x, evaluate((x,))[0]


def mmap_r(study_set: StudySet, omega: float, r_max: float = 200.0) -> MmapResult:
    """Maximize combined_log_bf(set, omega, r) + log Jeffreys prior over
    r in [1, r_max].

    A coarse 32-point log-spaced scan picks the bracketing interval, then a
    golden-section search refines the maximizer to ~1e-4 in r.  at_boundary
    flags a maximizer pinned against r_max, which would otherwise silently
    clip sets with very consistent effects.

    The objective is evaluated a batch of r values at a time, every (r,
    study) series of a batch in one vectorised kernel pass: the scan is one
    pass over all 32 x studies rows, the two initial golden-section points
    one pass, and each further golden-section step and the final evaluation
    one pass over the studies.  The values are bit for bit those of
    combined_log_bf.  The result carries the per-study values of the winning
    evaluation, so a caller needs no further pass at r_star.
    """
    if not r_max >= 1.0:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    scaled = _at_omega(study_set, omega)

    def objectives(rs: Sequence[float]) -> list[tuple]:
        return _objectives(study_set, scaled, rs)

    if r_max == 1.0:
        ((obj, per_study),) = objectives((1.0,))
        _raise_first_error(per_study)  # no other r to fall back on
        return MmapResult(1.0, obj, True, tuple(per_study))
    scan = np.exp(np.linspace(0.0, math.log(r_max), _SCAN_POINTS))
    scan[0], scan[-1] = 1.0, r_max  # exp(log(r_max)) can miss r_max by an ulp
    evaluated = objectives(scan.tolist())
    values = [obj for obj, _ in evaluated]
    if not any(math.isfinite(v) for v in values):
        raise ArithmeticError(
            f"MMAP objective unresolvable over r in [1, {r_max}] at omega={omega}"
        )
    best = int(np.argmax(values))
    lo = scan[max(best - 1, 0)]
    hi = scan[min(best + 1, _SCAN_POINTS - 1)]
    r_star, (obj, per_study) = _golden_max(objectives, float(lo), float(hi), _R_TOL)
    # the best scan point beats a worse search result: an endpoint maximum,
    # or a final search point whose objective is -inf
    if values[best] > obj:
        r_star, (obj, per_study) = float(scan[best]), evaluated[best]
    return MmapResult(r_star, obj, r_max - r_star <= 2.0 * _R_TOL, tuple(per_study))


@dataclass(frozen=True)
class EffectGrid:
    """Strictly increasing positive effect sizes at which a BFF is evaluated."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        if len(self.omegas) == 0:
            raise ValueError("effect grid must be non-empty")
        if self.omegas[0] <= 0.0:
            raise ValueError("effect grid must start above 0")
        if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("effect grid must be strictly increasing")

    @classmethod
    def from_range(cls, omega_min: float, omega_max: float, step: float) -> "EffectGrid":
        if step <= 0.0 or omega_min <= 0.0 or omega_max < omega_min:
            raise ValueError(
                f"invalid grid: min={omega_min}, max={omega_max}, step={step}"
            )
        count = int(math.floor((omega_max - omega_min) / step + 1e-9)) + 1
        return cls(tuple(omega_min + i * step for i in range(count)))

    @classmethod
    def default(cls) -> "EffectGrid":
        return cls.from_range(0.005, 1.0, 0.005)


@dataclass(frozen=True)
class FixedR:
    r: float

    def __post_init__(self):
        if not self.r >= 1.0:
            raise ValueError(f"r must be >= 1, got {self.r}")


@dataclass(frozen=True)
class MmapR:
    r_max: float = 200.0


@dataclass(frozen=True)
class BffPoint:
    """One BFF evaluation.

    log_bf10 is the plain combined log Bayes factor (the sum of the per-study
    values).  objective is the quantity the MMAP maximizes at this omega:
    log_bf10 plus the unnormalized log Jeffreys prior at r_star.  Under a
    fixed-r policy no prior on r is in play and objective equals log_bf10.
    Replicated-study threshold reporting follows the objective curve, which is
    what the reference meta-analyses tabulate.
    """

    omega: float
    r_star: float
    log_bf10: float
    per_study_log_bf: tuple[float, ...]
    objective: float
    at_r_boundary: bool = False


@dataclass(frozen=True)
class BffCurve:
    points: tuple[BffPoint, ...]
    label: str = ""

    @property
    def maximizer(self) -> BffPoint:
        return max(self.points, key=lambda p: p.log_bf10)

    def log_bf_array(self) -> np.ndarray:
        return np.array([p.log_bf10 for p in self.points])

    def objective_array(self) -> np.ndarray:
        return np.array([p.objective for p in self.points])

    def omega_array(self) -> np.ndarray:
        return np.array([p.omega for p in self.points])


def bff_curve(
    study_set: StudySet, grid: EffectGrid, r_policy: "FixedR | MmapR"
) -> BffCurve:
    """Evaluate the BFF over the grid under a fixed r or per-point MMAP r."""
    points = []
    for omega in grid.omegas:
        if isinstance(r_policy, FixedR):
            per_study = tuple(per_study_log_bf(study_set, omega, r_policy.r))
            total = sum(per_study)
            point = BffPoint(omega, r_policy.r, total, per_study, objective=total)
        else:
            res = mmap_r(study_set, omega, r_policy.r_max)
            point = BffPoint(
                omega,
                res.r_star,
                sum(res.per_study_log_bf),
                res.per_study_log_bf,
                objective=res.objective,
                at_r_boundary=res.at_boundary,
            )
        points.append(point)
    return BffCurve(tuple(points), study_set.label)


def evidence_thresholds(
    curve: BffCurve, levels: Sequence[float], *, on_objective: bool = True
) -> dict[float, float | None]:
    """For each level, the smallest omega beyond which the curve stays below
    it, linearly interpolated between grid points.

    Crossings are located on the objective curve by default (identical to the
    plain log-BF curve under a fixed-r policy); pass on_objective=False to
    cross the plain curve.  A level the curve never crosses downward (never
    above it, or still above it at the end of the grid) maps to None.
    """
    values = curve.objective_array() if on_objective else curve.log_bf_array()
    return dict(zip(levels, crossings(curve.omega_array(), values, levels)))


def crossings(
    omegas: np.ndarray, values: np.ndarray, levels: Sequence[float]
) -> list[float | None]:
    """For each level, the smallest omega beyond which values stays below it,
    linearly interpolated between grid points; None where the values never
    cross the level downward."""
    out: list[float | None] = []
    for level in levels:
        above = np.nonzero(values >= level)[0]
        if len(above) == 0 or above[-1] == len(values) - 1:
            out.append(None)
            continue
        j = int(above[-1])
        w0, w1 = omegas[j], omegas[j + 1]
        v0, v1 = values[j], values[j + 1]
        out.append(float(w0 + (level - v0) * (w1 - w0) / (v1 - v0)))
    return out
