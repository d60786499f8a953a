"""Guards for the benchmark tooling's assumptions about the package.

bench/tracing.py wraps functions at the bindings its callers use, so a
binding that looks dead in the package (evidence.log_bf10,
evidence.jeffreys_log_prior_nm) is still load-bearing; and the benchmark's
setup_s times `import bffkit.cli`, which must not pull in scipy or the
oracle layer.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_scipy_and_oracle():
    code = (
        "import sys, bffkit.cli; "
        "print(sorted(m for m in ('scipy', 'bffkit.oracle') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
