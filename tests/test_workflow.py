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


def test_console_script_step_runs(tmp_path):
    # The package is not installed here: a quadricdiff on PATH runs the CLI
    # from the source tree in place of the step's editable install.
    script = "".join(line + "\n" for line in _step_script("Console script").splitlines()
                     if "pip install" not in line)
    assert script.count("quadricdiff ") >= 6, script
    shims = tmp_path / "bin"
    shims.mkdir()
    (shims / "quadricdiff").write_text(
        f"#!{sys.executable}\nimport sys\nfrom quadricdiff.cli import main\nsys.exit(main())\n")
    (shims / "quadricdiff").chmod(0o755)
    (shims / "python").symlink_to(sys.executable)
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path),
               PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    # GitHub runs a bash step as: bash --noprofile --norc -eo pipefail {0}
    r = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "p.csv").is_file()
