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
from .bayes_factors import StatFamily, TestStatistic, log_bf10, log_bf10_batch  # noqa: F401
from .effect_map import DesignKind, EffectSize, tau_sq_for
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
    stat: TestStatistic
    design: DesignKind


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

    @property
    def family_homogeneous(self) -> bool:
        return True  # enforced at construction

    @property
    def uses_gamma_prior(self) -> bool:
        return self.studies[0].stat.family in _GAMMA_STAT_FAMILIES

    def jeffreys_log_prior(self, r: float) -> float:
        if self.uses_gamma_prior:
            return jeffreys_log_prior_gamma(r, self.studies[0].stat.k)
        return jeffreys_log_prior_nm(r)


def _log_bf_rows(study_set: StudySet, omega: float, rs: Sequence[float]) -> list[list]:
    """Per-study log BF10 at common effect omega for every shape in rs, one
    list per r, with all (r, study) series evaluated by one batched
    log_bf10_batch pass.  Where the evaluation of a study raises, its entry is
    the exception instead of a float."""
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    effect = EffectSize(float(omega))  # validated once, not once per row
    values: list = []
    slots, items = [], []
    for r in rs:
        for study in study_set.studies:
            try:
                tau_sq = tau_sq_for(study.design, effect, r, study.stat.k)
            except Exception as exc:
                values.append(exc)
                continue
            slots.append(len(values))
            values.append(None)
            items.append((study.stat, tau_sq, r))
    for slot, value in zip(slots, log_bf10_batch(items)):
        values[slot] = value
    n = len(study_set.studies)
    return [values[i : i + n] for i in range(0, len(values), n)]


def _raise_first_error(per_study: list) -> None:
    for i, value in enumerate(per_study):
        if isinstance(value, Exception):
            raise type(value)(f"study {i}: {value}") from value


def per_study_log_bf(study_set: StudySet, omega: float, r: float) -> list[float]:
    """Per-study log BF10 at common effect omega and shape r."""
    per_study = _log_bf_rows(study_set, omega, (r,))[0]
    _raise_first_error(per_study)
    return per_study


def combined_log_bf(study_set: StudySet, omega: float, r: float) -> float:
    """Sum of per-study log Bayes factors (the product law in log space)."""
    return sum(per_study_log_bf(study_set, omega, r))


def _objectives(study_set: StudySet, omega: float, rs: Sequence[float]) -> list[float]:
    """The MMAP objective combined_log_bf + log Jeffreys prior at each r in
    rs, all through one _log_bf_rows pass.

    One-sided brackets with the statistic strongly opposing the prior
    direction can fall below double-precision resolution at large r (the log
    BF there is enormously negative).  Such r can never be the maximizer, so
    an ArithmeticError makes that r's objective -inf rather than aborting the
    search; any other error propagates, tagged with its study.
    """
    out = []
    for r, per_study in zip(rs, _log_bf_rows(study_set, omega, rs)):
        try:
            _raise_first_error(per_study)
            out.append(sum(per_study) + study_set.jeffreys_log_prior(r))
        except ArithmeticError:
            out.append(float("-inf"))
    return out


@dataclass(frozen=True)
class MmapResult:
    r_star: float
    objective: float
    at_boundary: bool


def _golden_max(objectives, lo: float, hi: float, tol: float) -> tuple[float, float]:
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = objectives((c, d))
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            (fc,) = objectives((c,))
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            (fd,) = objectives((d,))
    x = 0.5 * (lo + hi)
    return x, objectives((x,))[0]


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
    combined_log_bf.
    """
    if not r_max >= 1.0:
        raise ValueError(f"r_max must be >= 1, got {r_max}")

    def objectives(rs: Sequence[float]) -> list[float]:
        return _objectives(study_set, omega, rs)

    if r_max == 1.0:
        return MmapResult(1.0, objectives((1.0,))[0], True)
    scan = np.exp(np.linspace(0.0, math.log(r_max), _SCAN_POINTS))
    values = objectives(scan.tolist())
    if not any(math.isfinite(v) for v in values):
        raise ArithmeticError(
            f"MMAP objective unresolvable over r in [1, {r_max}] at omega={omega}"
        )
    best = int(np.argmax(values))
    lo = scan[best - 1] if best > 0 else scan[0]
    hi = scan[best + 1] if best < _SCAN_POINTS - 1 else scan[-1]
    r_star, obj = _golden_max(objectives, float(lo), float(hi), _R_TOL)
    # endpoints can beat the interior point returned by the search
    for r_edge, obj_edge in ((1.0, values[0]), (r_max, values[-1])):
        if obj_edge > obj:
            r_star, obj = r_edge, obj_edge
    return MmapResult(r_star, obj, at_boundary=r_max - r_star <= 2.0 * _R_TOL)


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
    grid: EffectGrid
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
            r_star, boundary = r_policy.r, False
            penalty = 0.0
        else:
            res = mmap_r(study_set, omega, r_policy.r_max)
            r_star, boundary = res.r_star, res.at_boundary
            penalty = study_set.jeffreys_log_prior(r_star)
        per_study = per_study_log_bf(study_set, omega, r_star)
        total = sum(per_study)
        points.append(
            BffPoint(
                omega=omega,
                r_star=r_star,
                log_bf10=total,
                per_study_log_bf=tuple(per_study),
                objective=total + penalty,
                at_r_boundary=boundary,
            )
        )
    return BffCurve(tuple(points), grid, study_set.label)


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
    omegas = curve.omega_array()
    values = curve.objective_array() if on_objective else curve.log_bf_array()
    out: dict[float, float | None] = {}
    for level in levels:
        above = np.nonzero(values >= level)[0]
        if len(above) == 0 or above[-1] == len(values) - 1:
            out[level] = None
            continue
        j = int(above[-1])
        w0, w1 = omegas[j], omegas[j + 1]
        v0, v1 = values[j], values[j + 1]
        out[level] = float(w0 + (level - v0) * (w1 - w0) / (v1 - v0))
    return out
