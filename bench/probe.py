"""Set-up probe: one fresh process that imports bffkit and builds a workload's
inputs, as a user's process would before any evaluation.

    python3 bench/probe.py WORKLOAD SEED

Prints {"import_s": ..., "inputs_s": ...}.  bench/run.py times whole
processes of this script for setup_s.
"""

import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import bffkit.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import run  # noqa: E402

t1 = time.perf_counter()
bffkit = run.import_bffkit()  # checks that bffkit came from this checkout
tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=run.OUT))
try:
    run.prepare(bffkit, sys.argv[1], int(sys.argv[2]), tmp)
finally:
    shutil.rmtree(tmp)
print(json.dumps({"import_s": import_s, "inputs_s": time.perf_counter() - t1}))
