"""The layer vocabulary is exactly what the system's model builders construct.

Every layer type costs a layer class, an autograd op, a plan op and a
differential-verifier block.  This guard builds every network ``src/``
constructs — each zoo model, the detector, the MagNet autoencoder and the
black-box substitute — and checks that the layer types they use are the
layer types ``repro.nn`` exports, the plan compiles, and the verifier
samples.  A layer no builder uses fails it by name.
"""

import numpy as np

from repro import nn
from repro.attacks.blackbox import _default_substitute
from repro.core.detector import build_detector_network
from repro.defenses.magnet import build_autoencoder
from repro.nn.layers import Layer
from repro.nn.plan import _PLANNABLE
from repro.verify.differ import sample_case
from repro.zoo import MODEL_CONFIGS, build_network

INPUT_SHAPE = (1, 16, 16)


def _system_networks():
    for config in MODEL_CONFIGS.values():
        yield build_network(config, INPUT_SHAPE, num_classes=10)
    yield build_detector_network()
    yield build_autoencoder(INPUT_SHAPE)
    yield _default_substitute(INPUT_SHAPE, num_classes=10, seed=0)


def _used_types():
    return {type(layer) for network in _system_networks() for layer in network.layers}


def _names(types):
    return sorted(t.__name__ for t in types)


def test_exported_layers_are_the_ones_the_system_builds():
    exported = {
        value
        for value in (getattr(nn, name) for name in nn.__all__)
        if isinstance(value, type) and issubclass(value, Layer)
    }
    used = _used_types()
    assert not exported - used, f"exported but built by no model: {_names(exported - used)}"
    assert not used - exported, f"built but not exported: {_names(used - exported)}"


def test_plan_vocabulary_is_the_built_vocabulary():
    assert _names(_PLANNABLE) == _names(_used_types())


def test_differ_samples_only_the_plan_vocabulary():
    sampled = {type(layer) for seed in range(200) for layer in sample_case(seed).network.layers}
    assert sampled <= set(_PLANNABLE), f"outside the plan vocabulary: {_names(sampled - set(_PLANNABLE))}"
    # ... and the whole of it: every planned layer is differentially checked.
    assert sampled == set(_PLANNABLE)
