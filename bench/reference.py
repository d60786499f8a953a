"""Independent reference for the benchmark's output check.

Evaluates the paper's six closed-form log Bayes factors, the omega -> tau^2
map and the Jeffreys priors on r with mpmath at 50 or more significant digits
(hyp1f1, hyp2f1, psi).  Nothing here calls bffkit: the check must not share
code with what it checks.  One-sided forms add two terms that can cancel;
when they lose more digits than the working precision can spare, the bracket
is recomputed at a precision raised by the digits lost.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 50
# Relative agreement required of a closed form, with an absolute floor for
# log Bayes factors near zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _log_bracket(terms):
    """log of first + second for terms() -> (first, second), raising the
    precision while their cancellation eats the digits the check needs."""
    dps = DPS
    while True:
        with mp.workdps(dps):
            first, second = terms()
            total = first + second
            lost = mp.log10(max(abs(first), abs(second)) / total) if total > 0 else mp.inf
            if lost <= dps - 25:
                return mp.log(total)
        if dps >= 4000:
            raise ArithmeticError("reference bracket unresolved at 4000 digits")
        dps = min(4000, max(2 * dps, int(lost) + 60) if mp.isfinite(lost) else 2 * dps)


def log_bf10(form: str, stat: float, tau_sq: float, r: float, nu=None, k=None, m=None):
    """mpmath log BF10 of one closed form, as an mpf at DPS digits."""
    with mp.workdps(DPS):
        x = mp.mpf(stat)
        tsq = mp.mpf(tau_sq)
        r = mp.mpf(r)
        if tsq == 0:
            return mp.mpf(0)
        if form in ("z_two", "z_one", "t_two", "t_one"):
            pre = -(r + mp.mpf(0.5)) * mp.log1p(tsq)
        else:
            k = mp.mpf(k)
            pre = -(k / 2 + r) * mp.log1p(tsq)
        if form == "z_two":
            arg = tsq * x * x / (2 * (1 + tsq))
            return pre + mp.log(mp.hyp1f1(r + 0.5, 0.5, arg))
        if form == "z_one":
            def terms():
                y = mp.sqrt(tsq) * x / mp.sqrt(2 * (1 + tsq))
                coef = 2 * y * mp.gamma(r + 1) / mp.gamma(r + 0.5)
                return mp.hyp1f1(r + 0.5, 0.5, y * y), coef * mp.hyp1f1(r + 1, 1.5, y * y)

            return pre + _log_bracket(terms)
        if form in ("t_two", "t_one"):
            nu = mp.mpf(nu)
            if form == "t_two":
                y_sq = tsq * x * x / ((nu + x * x) * (1 + tsq))
                return pre + mp.log(mp.hyp2f1((nu + 1) / 2, r + 0.5, 0.5, y_sq))

            def terms():
                y = mp.sqrt(tsq) * x / mp.sqrt((nu + x * x) * (1 + tsq))
                coef = (
                    2 * y * mp.gamma(nu / 2 + 1) * mp.gamma(r + 1)
                    / (mp.gamma((nu + 1) / 2) * mp.gamma(r + 0.5))
                )
                return (
                    mp.hyp2f1((nu + 1) / 2, r + 0.5, 0.5, y * y),
                    coef * mp.hyp2f1(nu / 2 + 1, r + 1, 1.5, y * y),
                )

            return pre + _log_bracket(terms)
        if form == "chisq":
            arg = tsq * x / (2 * (1 + tsq))
            return pre + mp.log(mp.hyp1f1(k / 2 + r, k / 2, arg))
        if form == "f":
            m = mp.mpf(m)
            arg = k * x * tsq / ((1 + tsq) * (m + k * x))
            return pre + mp.log(mp.hyp2f1(k / 2 + r, (k + m) / 2, k / 2, arg))
    raise ValueError(f"unknown closed form {form!r}")


def agrees(value: float, ref) -> bool:
    """Closed-form agreement rule: relative REL_TOL with an ABS_TOL floor."""
    if not math.isfinite(value):
        return False
    return abs(value - float(ref)) <= max(REL_TOL * abs(float(ref)), ABS_TOL)


# ------------------------------------------------------------------ studies


def tau_sq(design: str, n: int, omega: float, r: float) -> mp.mpf:
    """Prior scale for the z/t designs the curve workloads use:
    n_eff omega^2 / (2 r), with n_eff = n, or n - 3 for Fisher-z correlations."""
    n_eff = mp.mpf(n - 3) if design == "correlation_z" else mp.mpf(n)
    return n_eff * mp.mpf(omega) ** 2 / (2 * mp.mpf(r))


def fisher_z(rho: float, n: int) -> mp.mpf:
    rho = mp.mpf(rho)
    return mp.sqrt(mp.mpf(n) - 3) / 2 * mp.log((1 + rho) / (1 - rho))


def jeffreys_log_prior_nm(r) -> mp.mpf:
    """0.5 ln(psi_1(r + 1/2) - 1/r + 1/(2 r^2)), the normal-moment Jeffreys
    prior on r."""
    with mp.workdps(DPS):
        r = mp.mpf(r)
        return mp.log(mp.psi(1, r + 0.5) - 1 / r + 1 / (2 * r * r)) / 2


def combined_log_bf(studies, omega: float, r: float) -> mp.mpf:
    """Sum over studies of the reference log BF10.  Each study is a dict
    with keys form, stat, n, design and (for t) nu."""
    with mp.workdps(DPS):
        total = mp.mpf(0)
        for s in studies:
            tsq = tau_sq(s["design"], s["n"], omega, r)
            total += log_bf10(s["form"], s["stat"], tsq, r, nu=s.get("nu"))
        return total


def objective(studies, omega: float, r: float) -> mp.mpf:
    """MMAP objective for a normal-moment study set: combined log BF plus the
    log Jeffreys prior on r."""
    return combined_log_bf(studies, omega, r) + jeffreys_log_prior_nm(r)
