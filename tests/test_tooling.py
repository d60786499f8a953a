"""Guards for the benchmark tooling's assumptions about the package.

bench/tracing.py wraps functions at the bindings its callers use, so a
binding that looks dead in the package (evidence.log_bf10,
evidence.jeffreys_log_prior_nm) is still load-bearing, and a single log_bf10
call must pass through the wrapped one-value bindings; the benchmark's
setup_s times `import bffkit.cli`, which must not pull in scipy; the
correlation_cli workload runs the CLI with bench/run.py's argv, which must
still parse, on tables that bench/workloads.py writes, which must still
load.  The quadrature oracle and the prior densities it integrates
are test support in tests/oracle.py; the package must not ship them again.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_bindings_exist(monkeypatch):
    import bffkit
    import bffkit.cli  # noqa: F401  (bindings() reads bffkit.cli)

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import bindings

    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in bindings(bffkit)
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_tracer_sees_the_one_value_route(monkeypatch):
    # sim_points' per-layer counts come from the one-value bindings; a single
    # log_bf10 call must pass through them
    import bffkit
    import bffkit.cli  # noqa: F401  (bindings() reads bffkit.cli)
    from bffkit import Sidedness, StatFamily, TestStatistic

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer

    stat = TestStatistic(StatFamily.T, 2.0, Sidedness.ONE_SIDED, nu=20.0)
    with Tracer(bffkit) as tracer:
        bffkit.log_bf10(stat, 1.0, 1.0)
    metrics = tracer.layer_metrics()
    assert metrics["specfun.log_2f1.calls"] > 0
    assert metrics["bayes_factors.t_one.calls"] > 0


def test_benchmark_cli_argv_parses_to_mmap(monkeypatch, tmp_path):
    from bffkit import MmapR, cli

    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # run.py sets both on import; restored after
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from run import Cli

    table = SimpleNamespace(path=ROOT / "bench" / "data" / "correlation.csv")
    args = cli._build_parser().parse_args(Cli.argv(table, tmp_path / "curve.csv"))
    assert args.func is cli.cmd_curve
    assert cli._policy_from_args(args) == MmapR()


def test_cli_import_leaves_out_scipy_and_oracle():
    code = (
        "import importlib.util, sys, bffkit, bffkit.cli; "
        "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules, "
        "importlib.util.find_spec('bffkit.oracle') is None, "
        "sorted(n for n in ('PriorFamily', 'PriorSpec', 'log_density', 'mode') "
        "if hasattr(bffkit, n)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False False True []"


def test_benchmark_tables_load(monkeypatch, tmp_path):
    # the pinned tables, and a resample written as correlation_cli writes its
    # input files (all 11 columns), pass the CLI's header and row checks
    from bffkit.cli import load_studies

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    for name, count in (("stroop.csv", 20), ("correlation.csv", 20)):
        assert len(load_studies(str(workloads.DATA / name)).studies) == count
    rows, _ = workloads.balanced_pair(1, "correlation_cli")
    path = tmp_path / "resample.csv"
    workloads.write_rows(rows, path)
    assert path.read_text().splitlines()[0].split(",") == list(workloads.CSV_FIELDS)
    assert len(load_studies(str(path)).studies) == len(rows)
