"""The benchmark's own tests: checks of the traced run.

    python3 bench/selftest.py [--seed N] [--workload W ...]

1. Constructing the tracer replaces every listed binding, and closing it
   restores the original objects.
2. For each workload, two traced runs with the same seed both report
   correct: their traced outputs are bit-identical to the untraced pass over
   the same inputs, and pass the reference check.
3. Every *.calls count is the same in both runs.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads as wl
from tracing import Tracer, bindings


def check_bindings(bffkit) -> list[str]:
    targets = bindings(bffkit)
    originals = [getattr(module, attr) for module, attr, _ in targets]
    failures = []
    with Tracer(bffkit):
        for (module, attr, _), original in zip(targets, originals):
            if getattr(module, attr) is original:
                failures.append(f"{module.__name__}.{attr} was not wrapped")
    for (module, attr, _), original in zip(targets, originals):
        if getattr(module, attr) is not original:
            failures.append(f"{module.__name__}.{attr} was not restored")
    return failures


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    failures = [f"traced run {i} not correct" for i, r in enumerate((first, second)) if not r["correct"]]
    for name, m in first["metrics"].items():
        if name.endswith(".calls") and m["value"] != second["metrics"][name]["value"]:
            failures.append(f"{name}: {m['value']} then {second['metrics'][name]['value']}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced-run checks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(wl.WORKLOADS), choices=wl.WORKLOADS)
    args = parser.parse_args(argv)
    results = {"bindings restored": check_bindings(run.import_bffkit())}
    for workload in args.workload:
        results[f"{workload}: traced == untraced, calls repeat"] = check_workload(workload, args.seed)
    for name, failures in results.items():
        print(f"{'ok  ' if not failures else 'FAIL'} {name}")
        for failure in failures:
            print(f"     {failure}")
    return int(any(results.values()))


if __name__ == "__main__":
    sys.exit(main())
