"""The CI workflow's console-script step, run here against the source tree."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")


def _step_script(name):
    """The ``run: |`` block of the workflow step called ``name``, dedented."""
    with open(WORKFLOW) as fh:
        lines = fh.read().splitlines()
    start = lines.index(f"      - name: {name}")
    body, indent = None, None
    for line in lines[start + 1:]:
        stripped = line.strip()
        if body is None:
            if stripped.startswith("- name:"):
                break
            if stripped == "run: |":
                body, indent = [], len(line) - len(line.lstrip())
            continue
        if stripped and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    assert body, f"no run block in the step {name!r} of {WORKFLOW}"
    return textwrap.dedent("\n".join(body)) + "\n"


def _runnable_script(name):
    """The step's script less its ``pip install`` lines: nothing is installed here."""
    return "".join(line + "\n" for line in _step_script(name).splitlines()
                   if "pip install" not in line)


def _run_script(script, runner_temp, **run):
    """Run a step's script as GitHub runs a bash step, in the source tree; a CompletedProcess.

    A ``quadricdiff`` on PATH runs the CLI from ``src/`` in place of the
    step's editable install, next to ``python`` and ``python3`` links to
    this interpreter.  ``RUNNER_TEMP`` is ``runner_temp``; ``run`` goes to
    ``subprocess.run``.
    """
    shims = os.path.join(runner_temp, "bin")
    os.makedirs(shims, exist_ok=True)
    cli = os.path.join(shims, "quadricdiff")
    with open(cli, "w") as fh:
        fh.write(f"#!{sys.executable}\nimport sys\nfrom quadricdiff.cli import main\n"
                 "sys.exit(main())\n")
    os.chmod(cli, 0o755)
    for link in ("python", "python3"):
        if not os.path.lexists(os.path.join(shims, link)):
            os.symlink(sys.executable, os.path.join(shims, link))
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp),
               PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    # GitHub runs a bash step as: bash --noprofile --norc -eo pipefail {0}
    return subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                          cwd=ROOT, env=env, **run)


def test_console_script_step_runs(tmp_path):
    script = _runnable_script("Console script")
    assert script.count("quadricdiff ") >= 6, script
    r = _run_script(script, tmp_path, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "p.csv").is_file()
