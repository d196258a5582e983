"""The exports are the layers' ``__all__``, each named in the README or a demo, every
option of theirs has a caller outside the tests, every definition and import in src/ is
used, the demos run, and scipy loads only where used."""

import argparse
import ast
import glob
import inspect
import os
import re
import subprocess
import sys
import types

import pytest

import quadricdiff
from quadricdiff import cli, cspace, generator, liealg, model, simulate, skew, sos

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
    assert len(exported_names) <= 36
    for name, layer in declared.items():
        assert getattr(quadricdiff, name) is getattr(layer, name), name


# Every public parameter with a default, and its callers outside the tests: the
# library function that passes it, or the CLI options that set it.  A value that
# only tests set is a constant, not an option.
OPTIONS = {
    "ball_ensemble.sink": ("model.ensemble",),
    "density_check.tol": ("density --tol",),
    "ensemble.sink": ("simulate --keep-paths",),
    "ensemble.tol": ("simulate --tol",),
    "g_ideal.tol": ("liealg._density_report",),
    "moment.k": ("moments --k",),
    "sos_check.max_iter": ("model._positivity", "sos-check --max-iter"),
    "sos_check.tol": ("sos-check --tol", "counterexample --tol"),
    "sphere_ensemble.sink": ("model.ensemble",),
    "twin_path_experiment.eps": ("twin --eps",),
    "twin_path_experiment.seed": ("twin --seed",),
    "validate.tol": ("validate --tol",),
    "verify_certificate.tol": ("sos.sos_check",),
}


def _defaulted_parameters():
    """"export.parameter" for each parameter with a default of every exported function,
    and of every public method and classmethod of an exported class."""
    for name in exported():
        value = getattr(quadricdiff, name)
        members = [(name, value)]
        if isinstance(value, type):
            members = [(f"{name}.{attr}", getattr(value, attr))
                       for attr, raw in vars(value).items() if not attr.startswith("_")
                       and isinstance(raw, (classmethod, staticmethod, types.FunctionType))]
        for qualified, fn in members:
            for param in inspect.signature(fn).parameters.values():
                if param.default is not param.empty:
                    yield f"{qualified}.{param.name}"


def test_every_option_has_a_caller_outside_the_tests():
    assert sorted(_defaulted_parameters()) == sorted(OPTIONS)
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    for option, callers in OPTIONS.items():
        function = option.split(".")[-2]
        for caller in callers:
            if " --" in caller:
                command, flag = caller.split(" ")
                assert flag in commands[command]._option_string_actions, caller
            else:
                layer, name = caller.split(".")
                source = inspect.getsource(getattr(sys.modules[f"quadricdiff.{layer}"], name))
                assert re.search(rf"\b{function}\(", source), (option, caller)


def test_the_benchmark_names_of_validate_are_validate():
    # bench/workloads.py calls validate_ball and validate_sphere: one entry, not a second path
    assert model.validate_ball is model.validate_sphere is model.validate
    assert not {"validate_ball", "validate_sphere"} & set(model.__all__)


SRC = os.path.dirname(os.path.dirname(quadricdiff.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
# Module-level definitions that nothing in src/ references, each with its reason.
UNREFERENCED = {
    "generator.__getattr__": "serves only the benchmark's tracer, which wraps generator.expm",
}


def _names(node):
    """The names that node references: Name ids, Attribute attrs and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_src_definition_and_import_is_used():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "quadricdiff", "*.py"))):
        with open(path) as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read(), path)
    # A definition is referenced from another module, or from its own module
    # outside its own body: __init__'s re-exports and the CLI's
    # set_defaults(func=...) count like any call.
    unreferenced, unused = set(), []
    for module, tree in trees.items():
        elsewhere = {name for other, t in trees.items() if other != module for name in _names(t)}
        stmts = [(stmt, set(_names(stmt))) for stmt in tree.body]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not (
                    node.name in elsewhere
                    or any(node.name in names for stmt, names in stmts if stmt is not node)):
                unreferenced.add(f"{module}.{node.name}")
        # Every name a module imports is used there; __init__'s imports are the exports.
        if module == "__init__":
            continue
        loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in loaded]
    assert unreferenced == UNREFERENCED.keys(), sorted(unreferenced ^ UNREFERENCED.keys())
    assert not unused, unused


def test_package_modules_import_each_other_at_module_level():
    # A function-local import of a package module hides an import cycle; the
    # function-local scipy and stdlib imports are intended (they load on first use).
    local = []
    for path in sorted(glob.glob(os.path.join(SRC, "quadricdiff", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{os.path.basename(path)}:{node.lineno} {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not local, local


def test_every_export_is_named_in_the_readme_or_a_demo():
    # The README and the demos are the package's usage: a name neither of them
    # gives is a layer-level helper, imported from its layer.
    texts = []
    for path in [os.path.join(os.path.dirname(DEMOS), "README.md"),
                 *sorted(glob.glob(os.path.join(DEMOS, "*.py")))]:
        with open(path) as fh:
            texts.append(fh.read())
    text = "\n".join(texts)
    unnamed = sorted(name for name in exported() if not re.search(rf"\b{name}\b", text))
    assert not unnamed, unnamed


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


# Each case runs in a fresh interpreter: (code, the public scipy subpackages it loads).
# The algebra, SOS, validation and density layers load none; a simulation loads
# scipy.special alone.
SCIPY_CASES = [
    ("import quadricdiff", set()),
    ("import quadricdiff.cli", set()),
    ("import numpy as np, quadricdiff as q\n"
     "q.sos_check(np.eye(15)); q.counterexample_d6()\n"
     "sphere = q.SphereModel(H=np.eye(3), B=-np.eye(3))\n"
     "ball = q.BallModel(alpha=np.eye(3), H=np.eye(3), b=np.zeros(3), B=-2 * np.eye(3))\n"
     "q.validate(sphere); q.validate(ball)\n"
     "q.density_check(sphere, np.array([1.0, 0.0, 0.0])); q.density_check(ball, np.zeros(3))",
     set()),
    ("import numpy as np, quadricdiff as q\n"
     "q.sphere_ensemble(q.SkewDrive.elementary(3), np.array([1.0, 0.0, 0.0]), 0.1, 0.01, 0, 4)",
     {"special"}),
]


def _fresh(code):
    """The last line that code prints in a fresh interpreter."""
    r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip().splitlines()[-1]


def _scipy_loaded(code):
    """The public scipy subpackages that a fresh interpreter holds after running code."""
    names = ast.literal_eval(_fresh(code + "\nimport sys; print(sorted(sys.modules))"))
    return {name.split(".")[1] for name in names
            if name.count(".") == 1 and name.startswith("scipy.")
            and not name.startswith("scipy._") and name != "scipy.version"}


def test_import_leaves_scipy_optimize_unloaded():
    for code, expected in SCIPY_CASES:
        assert _scipy_loaded(code) == expected, code
    moment = ("import numpy as np, quadricdiff as q\n"
              "q.moment(q.SphereModel(H=np.eye(3), B=-np.eye(3)), {(2, 0, 0): 1.0},"
              " np.array([1.0, 0.0, 0.0]), 0.5)")
    assert "sparse" in _scipy_loaded(moment)
    # bench/tracer.py reads generator.expm, which imports scipy.linalg on access.
    expm = "import quadricdiff.generator as g, scipy.linalg\nprint(g.expm is scipy.linalg.expm)"
    assert _fresh(expm) == "True"


def test_only_a_simulation_loads_concurrent_futures():
    # numpy alone does not load it, so the noise helper's import is the simulator's to defer
    loaded = "\nimport sys; print('concurrent.futures' in sys.modules)"
    assert _fresh("import numpy" + loaded) == "False"
    for code, scipy_parts in SCIPY_CASES:
        assert _fresh(code + loaded) == str(bool(scipy_parts)), code
