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

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# log_bf10 is not called here any more; it stays bound in this module
# because bench/tracing.py wraps this module's bindings.
from .bayes_factors import (  # noqa: F401
    StatFamily,
    TestStatistic,
    _layout,
    _log_bf_items,
    _study_columns,
    log_bf10,
)
from .effect_map import DesignKind, _tau_sq, _tau_sq_parts, tau_sq_for
from .priors import _check_shape, jeffreys_log_prior_gamma, jeffreys_log_prior_nm

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

# mmap_r's nodes, the Chebyshev-Lobatto points cos(theta) in ascending order,
# and the DCT-I matrix from values there to their interpolant's coefficients
_NODES = 14
_THETA = np.pi * np.arange(_NODES - 1, -1, -1) / (_NODES - 1)
_FIT = np.cos(np.outer(np.arange(_NODES), _THETA)) * (2.0 / (_NODES - 1))
_FIT[:, [0, -1]] *= 0.5
_FIT[[0, -1], :] *= 0.5
# an r* this close to r_max is flagged as pinned against it
_AT_R_MAX = 2e-4
# EffectGrid.default's (omega_min, omega_max, step): the CLI's curve reads it
_DEFAULT_GRID = (0.005, 1.0, 0.005)


@dataclass(frozen=True)
class Study:
    """A statistic and its design.  The design must fit the statistic's
    family, by tau_sq_for's rules (a chi-square/F design takes the numerator
    df k, a z/t design none), so no prior scale of a built study fails."""

    stat: TestStatistic
    design: DesignKind

    def __post_init__(self):
        tau_sq_for(self.design, 0.0, 1.0, self.stat.k)


@dataclass(frozen=True)
class StudySet:
    """Replicated studies sharing a standardized effect.

    All studies must map to the same prior family (normal-moment for z/t,
    gamma for chi-square/F) so a single Jeffreys prior on r applies; gamma
    sets must additionally share the numerator df k, since the Jeffreys prior
    depends on it.  A built set holds, in private fields, its studies'
    parts and prior-scale constants (effect_map's _tau_sq_parts) as
    columns, everything of their log BF10 that does not depend on (omega,
    r), from which every column pass (_Pass) is built, and, from its first
    mmap_r call on, mmap_r's node pass for one r_max (_node_pass): the
    nodes in r, the Jeffreys log prior at each, and the omega-free part of
    their column pass, with the ratio rows that its specfun._Blocks hold.
    A call with another r_max replaces it.

    A set may be shared between threads: its node pass holds each block of
    ratio rows by a rule of the block's index and the pass's size alone, and
    stores it once, so no value depends on the order of the calls.  A
    pickled or copied set leaves its node pass behind, and the copy builds
    its own.
    """

    studies: tuple[Study, ...]
    label: str = ""
    _columns: tuple = field(init=False, repr=False, compare=False)
    _nodes: tuple | None = field(init=False, repr=False, compare=False)

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
        # the study parts' columns, and the prior-scale constants (c, d, s, u)
        # as the rows of one array
        parts = _study_columns([s.stat._part for s in self.studies])
        scales = np.array([_tau_sq_parts(s.design, s.stat.k) for s in self.studies]).T
        object.__setattr__(self, "_columns", (parts, scales))
        object.__setattr__(self, "_nodes", None)  # (r_max, _Pass) once mmap_r runs

    @classmethod
    def build(cls, pairs: Iterable[tuple[TestStatistic, DesignKind]], label: str = "") -> "StudySet":
        return cls(tuple(Study(stat, design) for stat, design in pairs), label)

    def __getstate__(self):
        return {**self.__dict__, "_nodes": None}


def jeffreys_log_prior(r: float, k: float | None = None) -> float:
    """Log Jeffreys prior on r: the gamma-prior form for chi-square/F
    numerator df k, the normal-moment form when k is None."""
    if k is None:
        return jeffreys_log_prior_nm(r)
    return jeffreys_log_prior_gamma(r, k)


def _check_omega(omega: float) -> None:
    """The one rule for a common effect: finite and > 0."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be finite and > 0, got {omega}")


class _Pass(list):
    """The omega-free part of a column pass over the items rs x studies of
    a study set, built in one step from the set's columns, as the list of
    its rs, checked, with: layout, that of bayes_factors._layout, whose
    specfun._Blocks hold its ratio rows across the pass's evaluations; and
    log_priors, the Jeffreys log prior at each r, formed on first read."""

    def __init__(self, study_set: StudySet, rs: Sequence[float]):
        for r in rs:
            _check_shape(r)
        super().__init__(rs)
        r = np.array(self, dtype=float)[:, None]
        self.k = study_set.studies[0].stat.k  # the set's one k, or None for z/t
        self.layout = _layout(study_set._columns[0], np.repeat(r, len(study_set.studies), axis=1))

    @functools.cached_property
    def log_priors(self) -> list[float]:
        return [jeffreys_log_prior(r, self.k) for r in self]


def _log_bf_rows(study_set: StudySet, omegas: Sequence[float], rs: Sequence[float]) -> list[list]:
    """Per-study log BF10 at every (omega, r) of omegas x rs, one list per
    pair, omega-major, with all items evaluated by one column pass.  Where
    the evaluation of a study raises, its entry is the exception.

    rs is a sequence of r, or a _Pass that the caller holds for them, which
    the call then reuses: each study was compiled when built, and the pass
    holds everything that does not depend on omega, so the call computes
    only the array of tau_sq here, by effect_map's _tau_sq on the set's
    prior-scale columns (so each is tau_sq_for's value bit for bit), and
    the x step in bayes_factors._log_bf_items.  An omega that is not finite
    and > 0, then an r that is not finite and >= 1, raises for the whole
    call; it concerns no study."""
    for omega in omegas:
        _check_omega(omega)
    held = rs if isinstance(rs, _Pass) else _Pass(study_set, rs)
    w = np.array(omegas, dtype=float)[:, None, None]
    r = np.array(held, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # an r near the largest double, as tau_sq_for's inf
        tau_sq = _tau_sq(study_set._columns[1], w, r)
    n = len(study_set.studies)
    values = _log_bf_items(held.layout, tau_sq)
    return [values[i : i + n] for i in range(0, len(values), n)]


def _raise_first_error(per_study: list, skip: type | tuple = ()) -> bool:
    """Raise the first exception in per_study that is not an instance of
    skip, of study i, as a copy of it (same type and attributes) whose
    message is prefixed "study i: ", whose study attribute is i, and whose
    cause is the original.  The copy is made from the original's own args,
    so any exception type that copy.copy can rebuild keeps its constructor's
    signature.  Returns whether per_study holds an exception of skip."""
    skipped = False
    for i, value in enumerate(per_study):
        if isinstance(value, Exception):
            if isinstance(value, skip):
                skipped = True
                continue
            error = copy.copy(value)
            error.args = (f"study {i}: {value}",)
            error.study = i
            raise error from value
    return skipped


def per_study_log_bf(study_set: StudySet, omega: float, r: float) -> list[float]:
    """Per-study log BF10 at common effect omega and shape r."""
    per_study = _log_bf_rows(study_set, (omega,), (r,))[0]
    _raise_first_error(per_study)
    return per_study


def combined_log_bf(study_set: StudySet, omega: float, r: float) -> float:
    """Sum of per-study log Bayes factors (the product law in log space)."""
    return sum(per_study_log_bf(study_set, omega, r))


def _objectives(study_set: StudySet, omega: float, rs: Sequence[float]) -> list[tuple]:
    """(objective, per-study values) at common effect omega and each r in
    rs (a sequence, or a _Pass, as for _log_bf_rows), where the MMAP
    objective is combined_log_bf + log Jeffreys prior, all through one
    _log_bf_rows pass, with the pass's log_priors.

    One-sided brackets with the statistic strongly opposing the prior
    direction can fall below double-precision resolution at large r (the log
    BF there is enormously negative).  Such r can never be the maximizer, so
    an ArithmeticError makes that r's objective -inf, for mmap_r to pass
    over, and its per-study list keeps the exception.  Any other error
    propagates, tagged with its study, even where an ArithmeticError of an
    earlier study comes first, so the result does not depend on study order.
    """
    held = rs if isinstance(rs, _Pass) else _Pass(study_set, rs)
    rows = _log_bf_rows(study_set, (omega,), held)
    out = []
    for prior, per_study in zip(held.log_priors, rows):
        if _raise_first_error(per_study, ArithmeticError):
            out.append((float("-inf"), per_study))
        else:
            out.append((sum(per_study) + prior, per_study))
    return out


def _node_pass(study_set: StudySet, r_max: float) -> _Pass:
    """mmap_r's node pass over [1, r_max]: the _NODES Chebyshev-Lobatto
    points of u = log r on [0, log r_max], whose ends are exactly r = 1 and
    r_max, with the Jeffreys log prior at each node.  The study set holds
    one, for one r_max: it is built on the first call for r_max, and
    replaces the pass of any other r_max.  It repeats at every omega, and
    its specfun._Blocks hold its ratio rows."""
    held = study_set._nodes
    if held is None or held[0] != r_max:
        half = 0.5 * math.log(r_max)
        rs = np.exp(half * (1.0 + np.cos(_THETA))).tolist()
        rs[0], rs[-1] = 1.0, r_max  # exp(log(r_max)) can miss r_max by an ulp
        held = (r_max, _Pass(study_set, rs))
        object.__setattr__(study_set, "_nodes", held)
    return held[1]


@dataclass(frozen=True)
class FixedR:
    """A prior shape r fixed for every grid point."""

    r: float

    def __post_init__(self):
        _check_shape(self.r)


@dataclass(frozen=True)
class MmapR:
    """MMAP's r at every grid point, searched over [1, r_max].  Its r_max
    default is the one in the package: mmap_r and the CLI read it here."""

    r_max: float = 200.0

    def __post_init__(self):
        _check_shape(self.r_max, "r_max")


@dataclass(frozen=True)
class MmapResult:
    """The MMAP maximizer r_star, its objective, and the per-study log BF10
    values at r_star that the objective sums."""

    r_star: float
    objective: float
    at_boundary: bool
    per_study_log_bf: tuple[float, ...]


def mmap_r(study_set: StudySet, omega: float, r_max: float = MmapR.r_max) -> MmapResult:
    """Maximize combined_log_bf(set, omega, r) + log Jeffreys prior over
    r in [1, r_max].

    For fixed omega the objective is analytic in u = log r, so a Chebyshev
    interpolant in u represents it closely.  One pass evaluates it at the
    _NODES Chebyshev-Lobatto points of u on [0, log r_max], whose ends are
    exactly r = 1 and r_max.  The interpolant's coefficients are _FIT times
    those values.  Where the best real root of its derivative inside (0, log
    r_max) is predicted to beat the best node, one more pass evaluates that
    point exactly.  The result is the better exact evaluation, node or
    fitted point, with the per-study values it sums, so a caller needs no
    further pass at r_star.  at_boundary flags an r* pinned against r_max,
    which would otherwise silently clip sets with very consistent effects.

    The fit needs every node objective finite.  A one-sided bracket that
    cancels makes a node -inf (see _objectives); the result is then the best
    finite node, and the objective is unresolvable when no node is finite.

    Each pass is one column pass of _log_bf_rows over all its (r, study)
    items, bit for bit combined_log_bf.  The node pass is the study set's
    (_node_pass): built on the first call for r_max, with its layout, the
    Jeffreys prior at each node and the ratio rows that its specfun._Blocks
    hold, so a later call computes only tau_sq, x, the screens, the kernel
    and the bracket.  The fitted point's pass is built for the call and
    evaluated once.
    """
    _check_shape(r_max, "r_max")
    if r_max == 1.0:
        ((obj, per_study),) = _objectives(study_set, omega, (1.0,))
        _raise_first_error(per_study)  # no other r to fall back on
        return MmapResult(1.0, obj, True, tuple(per_study))
    half = 0.5 * math.log(r_max)
    rs = _node_pass(study_set, r_max)
    nodes = _objectives(study_set, omega, rs)
    values = np.array([value for value, _ in nodes])
    best = int(np.argmax(values))
    if not math.isfinite(values[best]):
        raise ArithmeticError(
            f"MMAP objective unresolvable over r in [1, {r_max}] at omega={omega}"
        )
    r_star, (obj, per_study) = rs[best], nodes[best]
    if np.isfinite(values).all():
        coef = (_FIT @ values).tolist()
        x = [v.real for v in _chebroots(_chebder(coef)).tolist() if v.imag == 0.0 and abs(v) < 1.0]
        predicted = [_chebval(v, coef) for v in x]
        if x and max(predicted) > obj:
            r = min(math.exp(half * (1.0 + x[predicted.index(max(predicted))])), r_max)
            ((found, found_per_study),) = _objectives(study_set, omega, (r,))
            if found > obj:
                r_star, obj, per_study = r, found, found_per_study
    return MmapResult(r_star, obj, r_max - r_star <= _AT_R_MAX, tuple(per_study))


# mmap_r's interpolant in the arithmetic of numpy.polynomial.chebyshev, bit
# for bit, on plain floats: that module costs every process a few ms to
# import, and its array set-up costs more than the sums on 14 coefficients.
_HALF_SQRT = math.sqrt(0.5)


def _chebder(c: list) -> list:
    """The Chebyshev coefficients of the derivative of the series c (at
    least three coefficients), as chebder's recurrence forms them."""
    c = list(c)
    n = len(c) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def _chebroots(c: list) -> np.ndarray:
    """The roots of the Chebyshev series c, sorted, as chebroots finds
    them: c without its trailing zeros; none for a constant, -c0/c1 for a
    line, else the eigenvalues of chebcompanion's scaled companion matrix,
    rotated by half a turn."""
    n = len(c) - 1
    while n > 0 and c[n] == 0.0:
        n -= 1
    if n < 1:
        return np.array([])
    if n == 1:
        return np.array([-c[0] / c[1]])
    mat = np.zeros((n, n))
    for k in range(n - 1):
        mat[k, k + 1] = mat[k + 1, k] = 0.5 if k else _HALF_SQRT
    for k in range(n):
        mat[k, -1] -= (c[k] / c[n]) * ((_HALF_SQRT if k else 1.0) / _HALF_SQRT) * 0.5
    roots = np.linalg.eigvals(mat[::-1, ::-1])
    roots.sort()
    return roots


def _chebval(x: float, c: list) -> float:
    """The Chebyshev series c (at least two coefficients) at x, by
    chebval's Clenshaw recurrence."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


@dataclass(frozen=True)
class EffectGrid:
    """Strictly increasing finite positive effect sizes at which a BFF is
    evaluated."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        if len(self.omegas) == 0:
            raise ValueError("effect grid must be non-empty")
        for omega in self.omegas:
            _check_omega(omega)
        if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("effect grid must be strictly increasing")

    @classmethod
    def from_range(cls, omega_min: float, omega_max: float, step: float) -> "EffectGrid":
        if not (0.0 < step < math.inf and 0.0 < omega_min <= omega_max < math.inf):
            raise ValueError(
                f"invalid grid: min={omega_min}, max={omega_max}, step={step}"
            )
        count = int(math.floor((omega_max - omega_min) / step + 1e-9)) + 1
        return cls(tuple(omega_min + i * step for i in range(count)))

    @classmethod
    def default(cls) -> "EffectGrid":
        return cls.from_range(*_DEFAULT_GRID)


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
    if not isinstance(r_policy, (FixedR, MmapR)):
        raise TypeError(f"r_policy must be a FixedR or an MmapR, got {r_policy!r}")
    points = []
    if isinstance(r_policy, FixedR):
        # per_study_log_bf at each omega, the whole grid in one column pass
        for omega, per_study in zip(grid.omegas, _log_bf_rows(study_set, grid.omegas, (r_policy.r,))):
            _raise_first_error(per_study)
            total = sum(per_study)
            points.append(BffPoint(omega, r_policy.r, total, tuple(per_study), objective=total))
        return BffCurve(tuple(points), study_set.label)
    for omega in grid.omegas:
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


def evidence_thresholds(curve: BffCurve, levels: Sequence[float]) -> dict[float, float | None]:
    """For each level, the smallest omega beyond which the curve's objective
    stays below it, linearly interpolated between grid points.

    The objective is log BF10 plus the log Jeffreys prior at r_star under
    MMAP, and log BF10 itself under a fixed r, as `bffkit curve` reports.  A
    level the objective never crosses downward (never above it, or still
    above it at the end of the grid) maps to None.
    """
    return dict(zip(levels, crossings(curve.omega_array(), curve.objective_array(), levels)))


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
