"""The benchmark still finds every name it calls or wraps in the package.

``bench/tracer.py`` resolves the layers' public functions and
``generator.expm`` by name when a traced benchmark run installs its spans,
and ``bench/workloads.py`` calls the simulator, SOS, model and CLI entries
directly; a renamed or removed name fails here instead of in a benchmark run.
"""

import json
import os
import sys

import numpy as np

import quadricdiff
# Every layer module the tracer patches must be imported first.
from quadricdiff import cli, cspace, generator, liealg, model, simulate, sos  # noqa: F401
from quadricdiff.model import SphereModel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics that the benchmark adds outside tracer.layer_metrics.
NOT_FROM_SPANS = {"cli.csv_rows", "setup.import_s", "trace.overhead_s"}


def test_tracer_records_generator_spans():
    mdl = SphereModel(H=np.eye(3), B=-np.eye(3))
    tr = tracer.Tracer()
    tr.install()
    try:
        gk = generator.build_Gk(mdl, 2)
        generator.moment(mdl, {(2, 0, 0): 1.0}, [1.0, 0.0, 0.0], 0.5)
    finally:
        tr.uninstall()
    spans = {s[0]: s for s in tr.spans}
    assert {"generator.build_Gk", "generator.moment"} <= spans.keys()
    assert spans["generator.build_Gk"][4] == {"n": 10, "nnz": gk.G.nnz}
    assert generator.build_Gk.__module__ == "quadricdiff.generator"
    assert not hasattr(generator.build_Gk, "__wrapped__")


def test_layer_metrics_of_a_traced_ensemble():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]} - NOT_FROM_SPANS
    for name in tracer.INFO:
        layer, attr = name.split(".")
        assert attr in sys.modules[f"quadricdiff.{layer}"].__all__, name
    tr = tracer.Tracer()
    tr.install()
    try:
        simulate.sphere_ensemble(simulate.SkewDrive.elementary(3), np.eye(3)[0], 0.05, 1e-2,
                                 seed=1, n_paths=8)
        simulate.path_normals(1, 0, 5, 3)
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics(tr.spans, simulate._BLOCK)
    assert names <= metrics.keys()
    assert metrics["simulate.ensemble_self_s"] > 0
    assert metrics["simulate.path_normals_calls"] == 1
    assert metrics["simulate.path_steps"] == 5


def test_every_workload_builds_and_warms_up(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = cls(quadricdiff, 1, str(workdir))
        assert wl.ops(), name
        wl.warm_up()
