"""The package's public names are exactly the layers' ``__all__``, and the demos run."""

import ast
import glob
import os
import subprocess
import sys
import types

import pytest

import quadricdiff
from quadricdiff import cspace, generator, liealg, model, simulate, skew, sos

LAYERS = (skew, cspace, sos, model, generator, simulate, liealg)


def exported():
    return {name for name, value in vars(quadricdiff).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_package_exports_the_union_of_the_layers_all():
    exported_names = exported()
    declared = {}
    for layer in LAYERS:
        for name in layer.__all__:
            assert name not in declared, (name, layer.__name__, declared[name])
            declared[name] = layer
    assert exported_names == declared.keys()
    assert len(exported_names) <= 55
    for name, layer in declared.items():
        assert getattr(quadricdiff, name) is getattr(layer, name), name


SRC = os.path.dirname(os.path.dirname(quadricdiff.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def test_every_name_a_demo_imports_is_exported():
    exported_names = exported()
    for path in sorted(glob.glob(os.path.join(DEMOS, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "quadricdiff":
                for alias in node.names:
                    assert alias.name in exported_names, (os.path.basename(path), alias.name)


# The demos that run in about a second; a public name they import must not vanish.
@pytest.mark.parametrize("demo", ["demo_tangential_space.py", "demo_sos_certificates.py",
                                  "demo_density_checks.py"])
def test_demo_runs(demo):
    r = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                       env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, quadricdiff; print('scipy.optimize' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
