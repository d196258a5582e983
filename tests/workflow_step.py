"""Run named steps of the CI workflow here, as GitHub runs them.

    python tests/workflow_step.py "Slow demos" "Benchmark smoke run"

Each step's ``run`` block is read from ``.github/workflows/tier1.yml`` and run
by ``bash --noprofile --norc -eo pipefail`` from the repository root, with
a fresh ``RUNNER_TEMP``, the package from ``src/`` and this interpreter as
``python`` and ``python3`` (see ``tests/test_workflow.py``); ``pip install``
lines are skipped.  The step's output passes through.  Exits with the first
failing step's code, else 0.  Not a test module: pytest does not collect it.
"""

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_workflow import _run_script, _runnable_script  # noqa: E402


def main(names):
    if not names:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name in names:
        print(f"== step {name!r}", flush=True)
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="runner-temp-") as runner_temp:
            code = _run_script(_runnable_script(name), runner_temp).returncode
        print(f"== step {name!r} exited {code} after {time.perf_counter() - t0:.1f} s",
              flush=True)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
