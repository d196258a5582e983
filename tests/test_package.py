"""The package's public names are exactly the layers' ``__all__``."""

import types

import quadricdiff
from quadricdiff import cspace, generator, liealg, model, simulate, skew, sos

LAYERS = (skew, cspace, sos, model, generator, simulate, liealg)


def test_package_exports_the_union_of_the_layers_all():
    exported = {name for name, value in vars(quadricdiff).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = {}
    for layer in LAYERS:
        for name in layer.__all__:
            assert name not in declared, (name, layer.__name__, declared[name])
            declared[name] = layer
    assert exported == declared.keys()
    for name, layer in declared.items():
        assert getattr(quadricdiff, name) is getattr(layer, name), name
