"""Pinned values: sha256 digests of the three default-grid curves and of the
log_bf10 values of every sim_points draw, so that any change to a value's
last bit fails here.  A change meant to move values updates the digests
and lists the moved values in CHANGES.md; a numpy or libm upgrade can move
them too.
"""

import hashlib
from pathlib import Path

import pytest

from bffkit.bayes_factors import Sidedness, StatFamily, TestStatistic, log_bf10
from bffkit.cli import load_studies
from bffkit.evidence import EffectGrid, FixedR, MmapR, bff_curve

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
MOVED = (
    "values moved bit for bit: a change meant to move them updates this digest and "
    "lists the moved values in CHANGES.md (a numpy or libm upgrade can move them too)"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "table, policy, digest",
    [
        ("stroop", MmapR(), "3893b4738afbc244bcbadb27290dc0fc717b458e3785d351b9d5adf9087d8116"),
        ("correlation", MmapR(), "6eab64cef1d747a10f95fbd6c6de87f4e1042bcde008521835b8bdbd24a6f4ee"),
        ("fig1", FixedR(1.0), "04aff90ec049db44518bf484c9ca64c82e3e32bc004140496f3dc58c8343688a"),
    ],
)
def test_default_grid_curve(table, policy, digest):
    curve = bff_curve(load_studies(str(DATA / f"{table}.csv")), EffectGrid.default(), policy)
    assert _sha256(repr(curve.points)) == digest, MOVED


def _statistic(draw) -> TestStatistic:
    if draw.form == "chisq":
        return TestStatistic(StatFamily.CHI_SQ, draw.stat, k=draw.k)
    if draw.form == "f":
        return TestStatistic(StatFamily.F, draw.stat, k=draw.k, m=draw.m)
    sided = Sidedness.ONE_SIDED if draw.form.endswith("one") else Sidedness.TWO_SIDED
    if draw.form.startswith("z"):
        return TestStatistic(StatFamily.Z, draw.stat, sided)
    return TestStatistic(StatFamily.T, draw.stat, sided, nu=draw.nu)


def test_sim_points_values(monkeypatch):
    # the benchmark's 12,000 sim_points draws, in the order of its seed 1
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    draws = workloads.sim_draws(1)
    assert len(draws) == 12_000
    values = [log_bf10(_statistic(d), d.tau_sq, d.r) for d in draws]
    digest = "b5b4e608d5c128aaae035dfc7a54cc289de71acf90b47ff5b4c519e0044d5107"
    assert _sha256("\n".join(map(repr, values))) == digest, MOVED
