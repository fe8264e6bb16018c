"""Shared serving fixtures: the tiny DCN with a deterministic detector.

``RuleDetector`` stands in for the trained detector: it flags rows by a
pure rule on their logits, so which rows reach the corrector is known
exactly.  ``tiny_dcn`` flags every even-labelled row and pins the
corrector seed, so served labels can be compared bitwise against
``DCN.classify``.
"""

import numpy as np
import pytest

from repro.core import DCN, Corrector


class RuleDetector:
    """Deterministic detector stand-in: flags rows by a pure logits rule."""

    def __init__(self, network, rule):
        self.network = network
        self._rule = rule

    def is_adversarial(self, logits):
        return self._rule(np.asarray(logits))


def flag_even(logits):
    return logits.argmax(axis=-1) % 2 == 0


def make_tiny_dcn(network):
    """DCN whose detector flags every even-labelled row (pinned seed)."""
    detector = RuleDetector(network, flag_even)
    return DCN(network, detector, Corrector(network, radius=0.1, samples=20, seed=0))


@pytest.fixture()
def tiny_dcn(tiny_correct):
    network, _, _ = tiny_correct
    return make_tiny_dcn(network)
