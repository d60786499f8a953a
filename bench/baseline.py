"""Timings of the ROADMAP's north-star figures on the original tables.

    python3 bench/baseline.py [--repeats N]

Times, each N times (default 3): the MMAP curve of tests' Stroop and
correlation tables over the default grid in-process, the CLI `curve`
command on the correlation table as a process, and a fresh process that
imports bffkit and loads the Stroop table.  Prints raw seconds, as the
ROADMAP quotes them; they drift with the machine's speed (see run.py), so
they are one-off figures for the record, not gated metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

import run
import workloads as wl


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    bffkit = run.import_bffkit()
    ev = bffkit.evidence
    stroop = bffkit.cli.load_studies(str(wl.DATA / "stroop.csv"))
    correlation = bffkit.cli.load_studies(str(wl.DATA / "correlation.csv"))
    grid = ev.EffectGrid.default()
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        out = f"{tmp}/curve.csv"
        cases = {
            "stroop curve, in-process": lambda: ev.bff_curve(stroop, grid, ev.MmapR()),
            "correlation curve, in-process": lambda: ev.bff_curve(correlation, grid, ev.MmapR()),
            "correlation curve, CLI process": lambda: subprocess.run(
                [sys.executable, "-m", "bffkit.cli", "curve", "--file", str(wl.DATA / "correlation.csv"),
                 "--out", out],
                cwd=run.ROOT, env={**os.environ, "PYTHONPATH": str(run.SRC)},
                stdout=subprocess.DEVNULL, check=True,
            ),
            "import bffkit + load stroop, process": lambda: subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path.insert(0, sys.argv[1]); import bffkit.cli; "
                 "bffkit.cli.load_studies(sys.argv[2])", str(run.SRC), str(wl.DATA / "stroop.csv")],
                check=True,
            ),
        }
        for name, fn in cases.items():
            samples = ", ".join(f"{timed(fn):.3f}" for _ in range(args.repeats))
            print(f"{name:38s} s: {samples}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
