"""Workspace fusion: arena-backed mesh and network evaluation.

The fused ``matrix_batch``/``accuracy_batch`` paths write every stage into
reusable :class:`~repro.training.workspace.VectorizedWorkspace` buffers;
these cases hold them bit-identical to the allocating path and check that
the arena actually recycles its backing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.onn.spnn import SPNN, SPNNArchitecture
from repro.training.workspace import VectorizedWorkspace
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import (
    sample_layer_perturbation_batch,
    sample_network_perturbation_batch,
)


@pytest.fixture
def spnn() -> SPNN:
    gen = np.random.default_rng(21)
    architecture = SPNNArchitecture(layer_dims=(6, 6, 4))
    weights = [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 3.0
        for shape in architecture.weight_shapes()
    ]
    return SPNN(weights, architecture)


@pytest.fixture
def eval_set():
    gen = np.random.default_rng(22)
    features = (gen.standard_normal((20, 6)) + 1j * gen.standard_normal((20, 6))) / 2.0
    labels = gen.integers(0, 4, 20)
    return features, labels


MODEL = UncertaintyModel(sigma_phs=0.01, sigma_bes=0.008)


class TestWorkspaceFusion:
    """The fused matrix_batch path: same values, arena-backed buffers."""

    def test_fused_matrices_bit_identical(self, spnn):
        layer = spnn.photonic_layers[0]
        batch = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(31, 4))
        plain = layer.matrix_batch(batch)
        workspace = VectorizedWorkspace()
        fused = layer.matrix_batch(batch, workspace=workspace, workspace_key="t")
        np.testing.assert_array_equal(plain, fused)
        assert workspace.num_buffers > 0

    def test_fused_buffers_reused_across_calls(self, spnn):
        layer = spnn.photonic_layers[0]
        workspace = VectorizedWorkspace()
        batch = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(32, 4))
        first = layer.matrix_batch(batch, workspace=workspace, workspace_key="t")
        buffers_after_first = workspace.num_buffers
        second = layer.matrix_batch(batch, workspace=workspace, workspace_key="t")
        assert workspace.num_buffers == buffers_after_first
        assert np.shares_memory(first, second)  # same arena backing handed back

    def test_fused_partial_batch_reuses_capacity(self, spnn):
        layer = spnn.photonic_layers[0]
        workspace = VectorizedWorkspace()
        full = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(33, 4))
        layer.matrix_batch(full, workspace=workspace, workspace_key="t")
        nbytes_full = workspace.nbytes
        tail = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(34, 2))
        plain = layer.matrix_batch(tail)
        fused = layer.matrix_batch(tail, workspace=workspace, workspace_key="t")
        np.testing.assert_array_equal(plain, fused)
        assert workspace.nbytes == nbytes_full  # no reallocation for the tail

    def test_network_level_fusion_bit_identical(self, spnn, eval_set):
        features, labels = eval_set
        batch = sample_network_perturbation_batch(
            spnn.photonic_layers, MODEL, spawn_rngs(35, 3)
        )
        plain = spnn.accuracy_batch(features, labels, batch)
        workspace = VectorizedWorkspace()
        fused = spnn.accuracy_batch(features, labels, batch, workspace=workspace)
        np.testing.assert_array_equal(plain, fused)
