"""Seeded input generators for the three benchmark workloads.

Every generator takes the benchmark seed and is deterministic for it; the
program only ever sees what these functions return.  The generators use
numpy and the standard library only, never bffkit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
CSV_FIELDS = ("test", "sided", "stat", "nu", "k", "m", "n", "n1", "n2", "rho", "design")

WORKLOADS = ("stroop_mmap", "correlation_cli", "sim_points")
# The six closed forms, drawn in equal shares by sim_points.
FORMS = ("z_one", "z_two", "t_one", "t_two", "chisq", "f")

# sim_points calls every draw of one population, the same for every seed;
# the seed only orders the calls.  The current code gets a few draws of any
# population wrong (0 to 6 in 12000 over seeds 0 to 11); fresh draws per seed
# would make the failure count move with the seed, while a fixed population
# fails on the same draws in every run.  2310 (the paper's arXiv number) was
# fixed before its draws were checked; one of them fails.
POPULATION_SEED = 2310
# 2000 draws per form: enough to surface the rare one-sided cancellation
# misses while the reference check of every draw stays near 11 s.
SIM_DRAWS = 12000
# Rate-lemma setups (acceptance criterion 7): tau^2 = 0.5 n, gamma = 0.3.
RATE_N = (100, 1000, 10000)
RATE_BETA = 0.5
RATE_GAMMA = 0.3
R_CHOICES = (1.0, 2.0, 5.0)
K_CHOICES = (1, 2, 3, 4, 5)
# Share of draws from the small-sample, strong-effect stratum, whose t and F
# hypergeometric arguments sit near 1 and whose series run longest.
SMALL_SHARE = 0.2


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def read_rows(name: str) -> list[dict]:
    with open(DATA / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


TABLES = {"stroop_mmap": "stroop.csv", "correlation_cli": "correlation.csv"}


def balanced_pair(seed: int, workload: str) -> tuple[list[dict], list[dict]]:
    """Two bootstrap resamples of a study table that together hold every row
    exactly twice (a balanced bootstrap).  Each resample varies with the seed,
    but the pair's total work does not, which keeps run-to-run spread low."""
    rows = read_rows(TABLES[workload])
    picks = _rng(seed, workload).permutation(np.tile(np.arange(len(rows)), 2))
    return [rows[i] for i in picks[: len(rows)]], [rows[i] for i in picks[len(rows):]]


def write_rows(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@dataclass(frozen=True)
class Draw:
    """One single-statistic Bayes factor evaluation for sim_points."""

    form: str
    stat: float
    tau_sq: float
    r: float
    nu: float | None = None
    k: float | None = None
    m: float | None = None
    stratum: str = "rate"


def _rate_draw(form: str, rng: np.random.Generator) -> Draw:
    n = int(rng.choice(RATE_N))
    null = bool(rng.integers(0, 2))
    r = float(rng.choice(R_CHOICES))
    tau_sq = RATE_BETA * n
    shift = 0.0 if null else RATE_GAMMA * np.sqrt(n)
    if form in ("z_one", "z_two"):
        return Draw(form, float(rng.normal(shift, 1.0)), tau_sq, r)
    if form in ("t_one", "t_two"):
        nu = n - 1
        t = rng.normal(shift, 1.0) / np.sqrt(rng.chisquare(nu) / nu)
        return Draw(form, float(t), tau_sq, r, nu=float(nu))
    k = int(rng.choice(K_CHOICES))
    lam = RATE_GAMMA * n
    if form == "chisq":
        h = rng.chisquare(k) if null else rng.noncentral_chisquare(k, lam)
        return Draw(form, float(h), tau_sq, r, k=float(k))
    f = rng.f(k, n) if null else rng.noncentral_f(k, n, lam)
    return Draw(form, float(f), tau_sq, r, k=float(k), m=float(n))


def _small_draw(form: str, rng: np.random.Generator) -> Draw:
    """n in 5..20 with a strong standardized effect (omega in [1.5, 6]) and a
    wide prior (tau^2 log-uniform in [10, 100])."""
    n = int(rng.integers(5, 21))
    omega = rng.uniform(1.5, 6.0)
    r = float(rng.choice(R_CHOICES))
    tau_sq = float(np.exp(rng.uniform(np.log(10.0), np.log(100.0))))
    shift = omega * np.sqrt(n)
    if form in ("z_one", "z_two"):
        return Draw(form, float(rng.normal(shift, 1.0)), tau_sq, r, stratum="small")
    if form in ("t_one", "t_two"):
        nu = n - 1
        t = rng.normal(shift, 1.0) / np.sqrt(rng.chisquare(nu) / nu)
        return Draw(form, float(t), tau_sq, r, nu=float(nu), stratum="small")
    k = int(rng.choice(K_CHOICES))
    lam = n * omega * omega
    if form == "chisq":
        h = rng.noncentral_chisquare(k, lam)
        return Draw(form, float(h), tau_sq, r, k=float(k), stratum="small")
    f = rng.noncentral_f(k, n, lam)
    return Draw(form, float(f), tau_sq, r, k=float(k), m=float(n), stratum="small")


def sim_population(count: int = SIM_DRAWS) -> list[Draw]:
    """count single-statistic draws from POPULATION_SEED, the six forms in
    equal shares.  Every draw is kept: one-sided statistics that oppose the
    prior and near-1 hypergeometric arguments included."""
    rng = _rng(POPULATION_SEED, "sim_points")
    out = []
    for i in range(count):
        form = FORMS[i % len(FORMS)]
        small = rng.random() < SMALL_SHARE
        out.append(_small_draw(form, rng) if small else _rate_draw(form, rng))
    return out


def sim_draws(seed: int) -> list[Draw]:
    """The population in an order drawn from the seed."""
    population = sim_population()
    return [population[i] for i in _rng(seed, "sim_points").permutation(len(population))]
