"""Output checks against the mpmath reference; run outside the timed region.

Nothing here calls bffkit's evaluation code.  The curve workloads are checked
at a seeded sample of omega points: the reported log BF10 at the returned r*,
and that the reference objective at r* (1 +- R_STEP) does not beat r*.  Every
sim_points draw is checked.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

CURVE_CHECK_POINTS = 8
R_MAX = 200.0  # MmapR's default search bound
# Relative step around r* at which the reference objective must not beat r*.
# The MMAP search resolves r* to ~1e-4, so a step 100 times wider only loses.
R_STEP = 1e-2


def study_specs(rows, fisher: bool) -> list[dict]:
    """Reference descriptions of generated study rows: one-sided t rows, or
    two-sided Fisher-z rows built from (rho, n)."""
    specs = []
    for row in rows:
        n = int(row["n"])
        if fisher:
            specs.append({"form": "z_two", "stat": ref.fisher_z(float(row["rho"]), n), "n": n,
                          "design": row["design"]})
        else:
            specs.append({"form": "t_one", "stat": float(row["stat"]), "nu": float(row["nu"]),
                          "n": n, "design": row["design"]})
    return specs


def check_point(specs, omega: float, r_star: float, log_bf: float) -> str | None:
    """A failure reason for one curve point, or None when it passes."""
    if not (math.isfinite(log_bf) and math.isfinite(r_star)):
        return f"omega={omega}: non-finite point (r*={r_star}, log_bf10={log_bf})"
    per_study = [ref.combined_log_bf([s], omega, r_star) for s in specs]
    value = sum(per_study)
    # a sum is only as exact as its largest terms
    scale = max(1.0, sum(abs(v) for v in per_study))
    if not abs(log_bf - float(value)) <= ref.REL_TOL * scale:
        return f"omega={omega}: log_bf10 {log_bf!r} vs reference {float(value)!r}"
    best = value + ref.jeffreys_log_prior_nm(r_star)
    for r in (r_star * (1.0 - R_STEP), r_star * (1.0 + R_STEP)):
        if 1.0 <= r <= R_MAX:
            other = ref.objective(specs, omega, r)
            if float(other - best) > ref.REL_TOL * max(1.0, abs(float(best))):
                return f"omega={omega}: objective at r={r} beats r*={r_star}"
    return None


def check_points(cases, rng, label: str) -> list[str]:
    """cases: (specs, omega, r_star, log_bf10) tuples; checks a seeded sample."""
    notes = []
    picks = rng.choice(len(cases), size=min(CURVE_CHECK_POINTS, len(cases)), replace=False)
    for i in sorted(picks.tolist()):
        reason = check_point(*cases[i])
        if reason:
            notes.append(f"{label}: {reason}")
    return notes


def parse_cli_curve(data: bytes) -> list[tuple[float, float, float]]:
    """(omega, r_star, log_bf10) rows of a written curve CSV (10 significant
    digits, well inside REL_TOL of the values they round)."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != "omega,r_star,log_bf10":
        raise ValueError("unexpected curve header")
    return [tuple(map(float, ln.split(","))) for ln in lines[1:] if ln and not ln.startswith("#")]


def check_sim(draws, values) -> list[int]:
    """Indices of the draws that raised (a str value) or miss the reference."""
    bad = []
    for i, (d, v) in enumerate(zip(draws, values)):
        if isinstance(v, str) or not ref.agrees(
            v, ref.log_bf10(d.form, d.stat, d.tau_sq, d.r, nu=d.nu, k=d.k, m=d.m)
        ):
            bad.append(i)
    return bad


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 99])
