"""The column-sweep kernel registry: conformance, selection and blocking.

Every registered kernel is held to the same contract on the same packed
:class:`~repro.arrays.ColumnProgram`: ``looped``, ``fused`` and ``numba``
must match the reference loop **bit for bit**.  Kernels whose dependencies
are missing (numba) are *skipped*, never failed — the registry's whole
point is graceful degradation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import (
    SWEEP_KERNEL_ENV,
    FusedSweepKernel,
    apply_column_sweep,
    available_sweep_kernels,
    get_sweep_kernel,
    register_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
)
from repro.arrays.sweep import _HOST_BLOCK_ELEMENTS
from repro.mesh.mesh import MZIMesh
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import sample_mesh_perturbation_batch
from repro.exceptions import ConfigurationError


def _sweep_inputs(n: int, batch: int, scheme: str = "clements", seed: int = 7):
    """Packed program + column-sorted components + identity work batch."""
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=seed), scheme=scheme)
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.02), spawn_rngs(seed + 1, batch)
    )
    components, _ = mesh._blocks_and_phases(perturbation)
    program = mesh.column_program()
    sorted_components = tuple(c[..., program.perm] for c in components)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (batch, n, n))
    return program, sorted_components, eye


class TestRegistry:
    def test_reference_kernels_registered(self):
        names = sweep_kernel_names()
        for expected in ("looped", "fused", "numba"):
            assert expected in names

    def test_available_kernels_always_include_reference(self):
        available = available_sweep_kernels()
        assert "looped" in available
        assert "fused" in available

    def test_get_unknown_kernel_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            get_sweep_kernel("no-such-kernel")

    def test_register_requires_name(self):
        class Nameless(FusedSweepKernel):
            name = ""

        with pytest.raises(ConfigurationError):
            register_sweep_kernel(Nameless())

    def test_env_override_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "looped")
        assert select_sweep_kernel().name == "looped"

    def test_env_override_unknown_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "no-such-kernel")
        with pytest.raises(ConfigurationError):
            select_sweep_kernel()

    def test_env_override_unavailable_fails_loudly(self, monkeypatch):
        kernel = get_sweep_kernel("numba")
        if kernel.available():  # pragma: no cover - numba-equipped machines
            pytest.skip("numba installed; unavailability cannot be simulated")
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "numba")
        with pytest.raises(ConfigurationError):
            select_sweep_kernel()

    def test_default_selection_prefers_fused_on_host(self):
        selected = select_sweep_kernel()
        if get_sweep_kernel("numba").available():  # pragma: no cover
            assert selected.name == "numba"
        else:
            assert selected.name == "fused"

    def test_apply_accepts_kernel_instance(self):
        program, components, eye = _sweep_inputs(6, 3)
        by_name = eye.copy()
        by_instance = eye.copy()
        apply_column_sweep(by_name, components, program, kernel="fused")
        apply_column_sweep(by_instance, components, program, kernel=FusedSweepKernel())
        np.testing.assert_array_equal(by_instance, by_name)


@pytest.mark.parametrize("name", sorted(sweep_kernel_names()))
@pytest.mark.parametrize(
    "n,batch,scheme",
    [(6, 4, "clements"), (6, 4, "reck"), (8, 9, "clements")],
)
class TestKernelConformance:
    """Every kernel against the looped reference on the same inputs."""

    def test_matches_reference(self, name, n, batch, scheme):
        if not get_sweep_kernel(name).available():
            pytest.skip(f"sweep kernel {name!r} is unavailable (dependency missing)")
        program, components, eye = _sweep_inputs(n, batch, scheme=scheme)
        reference = eye.copy()
        apply_column_sweep(reference, components, program, kernel="looped")
        result = eye.copy()
        apply_column_sweep(result, components, program, kernel=name)
        np.testing.assert_array_equal(result, reference)


class TestFusedBlocking:
    """The fused kernel's internal cache blocking is a pure perf detail."""

    def test_blocked_path_bit_identical_to_looped(self):
        n = 16
        block = max(1, _HOST_BLOCK_ELEMENTS // (n * n))
        for batch in (block + 1, 3 * block + 7, 1):
            program, components, eye = _sweep_inputs(n, batch, seed=batch)
            looped = eye.copy()
            fused = eye.copy()
            apply_column_sweep(looped, components, program, kernel="looped")
            apply_column_sweep(fused, components, program, kernel="fused")
            np.testing.assert_array_equal(fused, looped)

    def test_single_matrix_lead_bit_identical(self):
        program, components, eye = _sweep_inputs(6, 1)
        single_components = tuple(c[0] for c in components)
        looped = eye[0].copy()
        fused = looped.copy()
        apply_column_sweep(looped, single_components, program, kernel="looped")
        apply_column_sweep(fused, single_components, program, kernel="fused")
        np.testing.assert_array_equal(fused, looped)

    def test_internal_blocking_flags(self):
        assert get_sweep_kernel("fused").blocks_internally
        assert get_sweep_kernel("numba").blocks_internally
        assert not get_sweep_kernel("looped").blocks_internally
