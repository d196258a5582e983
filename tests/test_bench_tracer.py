"""The benchmark's tracer still finds every name it wraps in the package.

``bench/tracer.py`` resolves the layers' public functions and
``generator.expm`` by name when a traced benchmark run installs its spans; a
renamed or removed name fails here instead of in that run.
"""

import os
import sys

import numpy as np

# Every layer module the tracer patches must be imported first.
from quadricdiff import cli, cspace, generator, liealg, model, simulate, sos  # noqa: F401
from quadricdiff.model import SphereModel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
import tracer  # noqa: E402


def test_tracer_records_generator_spans():
    mdl = SphereModel(H=np.eye(3), B=-np.eye(3))
    tr = tracer.Tracer()
    tr.install()
    try:
        gk = generator.build_Gk(mdl, 2)
        generator.moment(mdl, {(1, 0, 0): 1.0}, [1.0, 0.0, 0.0], 0.5, gk=gk)
    finally:
        tr.uninstall()
    spans = {s[0]: s for s in tr.spans}
    assert {"generator.build_Gk", "generator.moment"} <= spans.keys()
    assert spans["generator.build_Gk"][4] == {"n": 10, "nnz": gk.G.nnz}
    assert generator.build_Gk.__module__ == "quadricdiff.generator"
    assert not hasattr(generator.build_Gk, "__wrapped__")
