"""bffkit benchmark runner.

    python3 bench/run.py --workload {stroop_mmap,correlation_cli,sim_points,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; bffkit is imported from its src/.
With --trace 0 the run repeats rounds of the workload for S seconds (at least
one round), checks the outputs against the mpmath reference outside the timed
region, and prints the end-to-end metrics.  With --trace 1 it alternates
three untraced and three traced rounds (S does not apply), checks that all
give the same outputs, and prints the per-layer metrics.  The last line of
output is one JSON object; the full record goes to bench/out/.
--workload all runs the three workloads one after another, each in its own
process, and prints a table.  See bench/README.md.
"""

from __future__ import annotations

import os

# One process on one core: keep numpy's thread pools from competing.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 6
# sim_points keeps the draws the one-sided closed forms get wrong (1 of its
# 12000 at this writing).  correct stays true while the share of units that
# raise or miss the reference is at most this; fail_frac reports the share.
SIM_FAIL_BUDGET = 1e-3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- speed
#
# The reference machine is a shared 2-core VM whose speed drifts between
# states about 1.8 times apart that last from seconds to minutes: over six
# minutes, 10-second medians of one fixed 45 ms MMAP point ranged from 53 to
# 90 ms, so raw times move by 15 to 30 % from one 32-second run to the next.
# Every timed unit is therefore rescaled to the reference speed: a fixed
# calibration task (small-array numpy and float work, like bffkit's series
# kernel, and no bffkit code) is timed right before and right after the
# unit, and the unit's time is multiplied by CAL_REF_S over their mean.  In
# a minute when 5-second medians of that point moved from 45 to 83 ms, the
# medians of its rescaled times spread by 3.4 % (quartile distance over
# median).  Rescaling tracks short units only: a unit of several seconds
# can change speed inside, so every unit here lasts well under a second.

CAL_REF_S = 6.5e-4  # the calibration task's time on the reference machine at full speed
_CAL_IDX = np.arange(128, dtype=np.float64)


def _calibration_task() -> float:
    acc = 0.0
    for k in range(60):
        x = 0.5 + k * 1e-3
        ratio = (3.0 + _CAL_IDX) * (1.5 + _CAL_IDX) / ((0.5 + _CAL_IDX) * (1.0 + _CAL_IDX))
        inc = np.log(ratio)
        inc += math.log(x)
        terms = np.cumsum(inc)
        top = float(terms.max())
        acc += float(np.exp(terms - top).sum()) + math.lgamma(x + k)
    return acc


def calibrate() -> float:
    """Median time of three runs of the calibration task."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_task()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Speed:
    """Rescales times to the reference speed.  scale() recalibrates and
    returns the factor for the work done since the previous calibration."""

    def __init__(self):
        self.last = calibrate()

    def scale(self) -> float:
        now = calibrate()
        factor = 2.0 * CAL_REF_S / (self.last + now)
        self.last = now
        return factor


def import_bffkit():
    """Import bffkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "bffkit" / "__init__.py").is_file():
        sys.exit(f"bench: no bffkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bffkit
    import bffkit.cli  # noqa: F401  (load_studies is part of the curve set-up)

    if Path(bffkit.__file__).resolve().parent != SRC / "bffkit":
        sys.exit(f"bench: imported bffkit from {bffkit.__file__}, not {SRC}")
    return bffkit


# ---------------------------------------------------------------- inputs


@dataclass
class Table:
    """One generated study table: its rows, CSV file and loaded StudySet."""

    rows: list
    path: Path
    studies: object


def prepare(bffkit, workload: str, seed: int, tmp: Path):
    """Generate the workload's inputs and hand them to bffkit."""
    if workload == "sim_points":
        draws = wl.sim_draws(seed)
        return draws, [_statistic(bffkit, d) for d in draws]
    tables = []
    for i, rows in enumerate(wl.balanced_pair(seed, workload)):
        path = tmp / f"{workload}-{i}.csv"
        wl.write_rows(rows, path)
        tables.append(Table(rows, path, bffkit.cli.load_studies(str(path))))
    return tables


def _statistic(bffkit, d):
    bf = bffkit.bayes_factors
    if d.form in ("z_one", "z_two", "t_one", "t_two"):
        sided = bf.Sidedness.ONE_SIDED if d.form.endswith("one") else bf.Sidedness.TWO_SIDED
        if d.form[0] == "z":
            return bf.TestStatistic(bf.StatFamily.Z, d.stat, sided)
        return bf.TestStatistic(bf.StatFamily.T, d.stat, sided, nu=d.nu)
    if d.form == "chisq":
        return bf.TestStatistic(bf.StatFamily.CHI_SQ, d.stat, k=d.k)
    return bf.TestStatistic(bf.StatFamily.F, d.stat, k=d.k, m=d.m)


def measure_setup(workload: str, seed: int, count: int):
    """Rescaled wall times of `count` fresh processes that start Python,
    import bffkit and build the workload's inputs, and their median import
    time."""
    walls, imports = [], []
    speed = Speed()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        walls.append((time.perf_counter() - t0) * speed.scale())
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, statistics.median(imports)


# ---------------------------------------------------------------- workloads
#
# A runner's round() times each of its units alone and returns (unit times,
# their speed factors, output); every round computes the same units and the
# same output.  walls(unit) turns per-unit rescaled times into wall_s samples
# and the unit times that unit_p50_ms and unit_p95_ms summarize.


class Curve:
    """stroop_mmap: MMAP curve points, in-process.

    The grid is every eighth point of the default grid (25 omegas from 0.02
    to 0.98).  A round evaluates every grid omega on both resamples of the
    pair, each point as its own bff_curve call with MmapR(), timed alone.
    A resample's curve time is the sum of its points' times.
    """

    def __init__(self, bffkit, tables):
        ev = bffkit.evidence
        self.ev = ev
        self.tables = tables
        self.omegas = ev.EffectGrid.default().omegas[3::8]
        self.grids = [ev.EffectGrid((w,)) for w in self.omegas]
        self.units = len(tables) * len(self.omegas)

    def round(self, bff_curve=None):
        fn = bff_curve or self.ev.bff_curve
        policy = self.ev.MmapR()
        clock = time.perf_counter
        times, scales, points = [], [], []
        speed = Speed()
        for table in self.tables:
            for grid in self.grids:
                t0 = clock()
                curve = fn(table.studies, grid, policy)
                times.append(clock() - t0)
                scales.append(speed.scale())
                points.append(curve.points[0])
        return times, scales, points

    def walls(self, unit):
        n = len(self.omegas)
        return [float(unit[i * n:(i + 1) * n].sum()) for i in range(len(self.tables))], unit

    @staticmethod
    def digest(points) -> str:
        rows = [
            (p.omega, p.r_star, p.log_bf10, p.objective, p.at_r_boundary, p.per_study_log_bf)
            for p in points
        ]
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def check(self, points, rng):
        from check import check_points, study_specs

        n = len(self.omegas)
        notes = []
        for i, table in enumerate(self.tables):
            specs = study_specs(table.rows, fisher=False)
            cases = [(specs, p.omega, p.r_star, p.log_bf10) for p in points[i * n:(i + 1) * n]]
            notes += check_points(cases, rng, f"resample {i}")
        return notes


class Cli:
    """correlation_cli: `python -m bffkit.cli curve` as one child process per
    resample of the pair, over the CLI grid 0.02..0.98 by 0.08 (13 points).
    A unit is one CLI process.  The CLI hides per-point times, so its unit
    times are each process's time over its points."""

    POINTS = 13
    GRID = ["--omega-min", "0.02", "--omega-max", "0.98", "--omega-step", "0.08"]

    def __init__(self, tables, tmp: Path):
        self.tables = tables
        self.tmp = tmp
        self.units = len(tables) * self.POINTS
        self.peak_rss_mb = 0.0

    @classmethod
    def argv(cls, table, out: Path):
        return ["curve", "--file", str(table.path), "--out", str(out), *cls.GRID]

    def invoke(self, table) -> tuple[float, bytes]:
        out = self.tmp / "curve.csv"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.tmp / "cli-stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bffkit.cli", *self.argv(table, out)],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            # wait4 reaps the child and returns its resource usage
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                raise RuntimeError(f"bffkit.cli exited {proc.returncode}: {err.read().decode()}")
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return wall, out.read_bytes()

    def round(self):
        times, scales, outputs = [], [], []
        speed = Speed()
        for table in self.tables:
            wall, data = self.invoke(table)
            times.append(wall)
            scales.append(speed.scale())
            outputs.append(data)
        return times, scales, outputs

    def walls(self, unit):
        return list(unit), unit / self.POINTS

    @staticmethod
    def digest(outputs) -> str:
        return hashlib.sha256(b"".join(outputs)).hexdigest()

    def check(self, outputs, rng):
        from check import check_points, parse_cli_curve, study_specs

        notes = []
        for i, (table, data) in enumerate(zip(self.tables, outputs)):
            try:
                rows = parse_cli_curve(data)
            except ValueError as exc:
                notes.append(f"cli {i}: {exc}")
                continue
            if len(rows) != self.POINTS:
                notes.append(f"cli {i}: {len(rows)} curve rows, expected {self.POINTS}")
            specs = study_specs(table.rows, fisher=True)
            notes += check_points([(specs, *row) for row in rows], rng, f"cli {i}")
        return notes


class Sim:
    """sim_points: one log_bf10 call per draw at fixed r, each timed alone.
    A round is one pass over all draws; a pass's time is the sum of its
    calls' times.  Calls are rescaled in blocks of BLOCK, the calibration
    taking about 2 ms against a block's 10 ms or so."""

    BLOCK = 200

    def __init__(self, bffkit, inputs):
        self.log_bf10 = bffkit.bayes_factors.log_bf10
        self.draws, self.stats = inputs
        self.units = len(self.draws)

    def round(self, log_bf10=None):
        fn = log_bf10 or self.log_bf10
        clock = time.perf_counter
        values, times, scales = [], [], []
        speed = Speed()
        for i, (d, stat) in enumerate(zip(self.draws, self.stats), 1):
            t0 = clock()
            try:
                v = fn(stat, d.tau_sq, d.r)
            except Exception as exc:  # a unit that raises is a counted failure
                v = type(exc).__name__
            times.append(clock() - t0)
            values.append(v)
            if i % self.BLOCK == 0 or i == self.units:
                scales += [speed.scale()] * (len(times) - len(scales))
        return times, scales, values

    def walls(self, unit):
        return [float(unit.sum())], unit

    @staticmethod
    def digest(values) -> str:
        return hashlib.sha256(repr(values).encode()).hexdigest()

    def check(self, values, rng):
        from check import check_sim

        return [f"sim: draw {i} {self.draws[i]} -> {values[i]!r}" for i in check_sim(self.draws, values)]


def make_runner(bffkit, workload, inputs, tmp):
    if workload == "stroop_mmap":
        return Curve(bffkit, inputs)
    if workload == "correlation_cli":
        return Cli(inputs, tmp)
    return Sim(bffkit, inputs)


# ---------------------------------------------------------------- runs


def verdict(workload, runner, output, seed, digests):
    """(correct, failed, notes) for rounds whose outputs all hash to
    `digests`.  Every round computes the same units, so one output is checked
    and a unit counts once however many rounds repeated it: the counts do not
    move with the machine's speed."""
    from check import seeded

    notes = runner.check(output, seeded(seed))
    if len(digests) != 1:
        notes.append("outputs differ between passes over the same inputs")
    failed = len(notes)
    budget = SIM_FAIL_BUDGET if workload == "sim_points" else 0.0
    return len(digests) == 1 and failed <= budget * runner.units, failed, notes


def measure(bffkit, workload, seed, seconds, tmp):
    """Rounds over the same inputs until the next one would pass `seconds`
    (at least one).  Each unit's time is the median over the rounds of its
    rescaled times."""
    # set-up probes before and after the rounds, so that setup_s is not
    # taken in one stretch of the run
    setup_walls = measure_setup(workload, seed, SETUP_PROBES // 2)[0]
    runner = make_runner(bffkit, workload, prepare(bffkit, workload, seed, tmp), tmp)
    rows, raw_s, digests, longest = [], [], set(), 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, scales, output = runner.round()
        longest = max(longest, time.perf_counter() - t0)
        rows.append(np.asarray(times) * scales)
        raw_s.append(float(sum(times)))
        digests.add(runner.digest(output))
        if time.perf_counter() - start + longest > seconds:
            break
    peak = runner.peak_rss_mb if workload == "correlation_cli" else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    setup_walls += measure_setup(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)[0]
    walls, unit_times = runner.walls(np.median(rows, axis=0))
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "units_per_s": runner.units / sum(walls),
        "unit_p50_ms": float(np.percentile(unit_times, 50)) * 1e3,
        "unit_p95_ms": float(np.percentile(unit_times, 95)) * 1e3,
        "peak_rss_mb": peak,
    }
    correct, failed, notes = verdict(workload, runner, output, seed, digests)
    details = {"rounds": len(rows), "walls_s": walls, "raw_round_s": raw_s, "setup_walls_s": setup_walls}
    return correct, runner.units, failed, metrics, details, notes


TRACE_REPEATS = 3


def measure_traced(bffkit, workload, seed, tmp):
    """Untraced and traced rounds over the same inputs, alternating.  The
    first traced round gives the per-layer metrics; the per-unit medians of
    the rescaled times give the tracing overhead."""
    from tracing import Tracer

    _, import_s = measure_setup(workload, seed, count=1)
    runner = make_runner(bffkit, workload, prepare(bffkit, workload, seed, tmp), tmp)
    cli = bffkit.cli
    outputs = []
    if workload == "stroop_mmap":
        def once(tracer=None):
            if tracer is None:
                return runner.round()
            for table in runner.tables:  # reload through the wrapped binding
                table.studies = cli.load_studies(str(table.path))
            return runner.round(tracer.wrap("evidence.bff_curve", bffkit.evidence.bff_curve))
    elif workload == "correlation_cli":
        outputs.append(runner.round()[2])  # the CLI processes' files join the comparison

        def once(tracer=None):
            main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
            times, scales, files = [], [], []
            speed = Speed()
            for table in runner.tables:
                out = tmp / "main.csv"
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(Cli.argv(table, out))
                times.append(time.perf_counter() - t0)
                scales.append(speed.scale())
                if code != 0:
                    raise RuntimeError(f"bffkit.cli main exited {code}")
                files.append(out.read_bytes())
            return times, scales, files
    else:
        def once(tracer=None):
            if tracer is None:
                return runner.round()
            return runner.round(tracer.wrap("bayes_factors.log_bf10", runner.log_bf10))

    plain, traced, first = [], [], None
    for _ in range(TRACE_REPEATS):
        times, scales, output = once()
        plain.append(np.asarray(times) * scales)
        outputs.append(output)
        with Tracer(bffkit) as tracer:
            times, scales, output = once(tracer)
        traced.append(np.asarray(times) * scales)
        outputs.append(output)
        first = first or tracer
    plain = np.median(plain, axis=0)
    traced = np.median(traced, axis=0)
    metrics = first.layer_metrics()
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = float(traced.sum() / plain.sum()) - 1.0
    first.save(OUT / f"{workload}-seed{seed}-spans.npz", run_id=f"{workload}-seed{seed}")
    digests = {runner.digest(o) for o in outputs}
    correct, failed, notes = verdict(workload, runner, outputs[-1], seed, digests)
    details = {"untraced_s": float(plain.sum()), "traced_s": float(traced.sum()),
               "spans": len(first.name)}
    return correct, runner.units, failed, metrics, details, notes


def environment() -> dict:
    import mpmath
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = ""
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": sha or "unknown",
    }


def units(trace: int) -> dict[str, str]:
    """Declared metric units for a run: end-to-end, or per-layer when traced."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def run(args) -> int:
    bffkit = import_bffkit()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            result = measure_traced(bffkit, args.workload, args.seed, tmp)
        else:
            result = measure(bffkit, args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp)
    correct, attempted, failed, metrics, details, notes = result
    declared = units(args.trace)
    if metrics.keys() != declared.keys():
        sys.exit(f"bench: metrics {sorted(metrics.keys() ^ declared.keys())} differ from BENCHMARK.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
        "details": details,
        "notes": notes,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for note in notes[:20]:
        print(f"# check: {note}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {path.relative_to(ROOT)}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {record['fail_frac']:.6g} ratio ({failed} of {attempted} units)")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    records = {}
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        records[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric [unit]':44s}" + "".join(f"{w:>17s}" for w in records))
    for name, m in records[wl.WORKLOADS[0]]["metrics"].items():
        cells = "".join(f"{r['metrics'][name]['value']:>17.6g}" for r in records.values())
        print(f"{name + ' [' + m['unit'] + ']':44s}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:>17.6g}" for r in records.values())
    print(f"{'fail_frac [ratio]':44s}{cells}")
    print(f"{'correct':44s}" + "".join(f"{str(r['correct']):>17s}" for r in records.values()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bffkit benchmark")
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
