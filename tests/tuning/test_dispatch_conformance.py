"""Shape-hint dispatch conformance: hints change *which* kernel runs, never
*what* it computes.

For every available kernel the hinted path (``select_sweep_kernel`` with a
:class:`SweepShape`) must yield bit-identical results to the unhinted path
and to an explicit ``REPRO_SWEEP_KERNEL`` pin; a synthetic cost table that
steers a small shape to the looped kernel must flip the dispatch choice
while leaving the numbers untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import apply_column_sweep
from repro.arrays.sweep import SweepShape, available_sweep_kernels, select_sweep_kernel
from repro.mesh.mesh import MZIMesh
from repro.tuning import CostTable
from repro.tuning.policy import install_table, reset_tuning_state
from repro.utils import random_unitary, spawn_rngs
from repro.variation import UncertaintyModel, sample_mesh_perturbation_batch


@pytest.fixture(autouse=True)
def _clean_tuning_state(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("REPRO_AUTOTUNE", "on")
    monkeypatch.delenv("REPRO_SWEEP_KERNEL", raising=False)
    reset_tuning_state()
    yield
    reset_tuning_state()


def _sweep_inputs(mesh: MZIMesh, batch: int):
    """The exact (program, components) pair production sweeps consume."""
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.01), spawn_rngs(23, batch)
    )
    components, _ = mesh._blocks_and_phases(perturbation)
    program = mesh.column_program()
    return program, tuple(c[..., program.perm] for c in components)


def _sweep(mesh: MZIMesh, program, components, batch: int, kernel=None):
    work = np.broadcast_to(
        np.eye(mesh.n, dtype=complex), (batch, mesh.n, mesh.n)
    ).copy()
    apply_column_sweep(work, components, program, kernel=kernel)
    return work


@pytest.mark.parametrize("scheme", ["clements", "reck"])
def test_every_kernel_bit_identical_hinted_vs_pinned(scheme, monkeypatch):
    mesh = MZIMesh.from_unitary(random_unitary(6, rng=5), scheme=scheme)
    program, components = _sweep_inputs(mesh, batch=4)
    reference = _sweep(mesh, program, components, 4, kernel="looped")
    for name in available_sweep_kernels():
        # explicit pin through the environment
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", name)
        pinned = _sweep(mesh, program, components, 4)
        monkeypatch.delenv("REPRO_SWEEP_KERNEL")
        np.testing.assert_array_equal(
            pinned, reference, err_msg=f"pinned {name} diverges from looped"
        )
        # direct kernel request through the registry
        direct = _sweep(mesh, program, components, 4, kernel=name)
        np.testing.assert_array_equal(direct, reference)


def test_hinted_matches_unhinted_sweep():
    # An installed (empty) table keeps the hinted path from lazily
    # calibrating; with no predictions the policy defers to static order.
    install_table(CostTable(fingerprint={"machine": "synthetic"}))
    mesh = MZIMesh.from_unitary(random_unitary(8, rng=9))
    program, components = _sweep_inputs(mesh, batch=8)
    unhinted = _sweep(mesh, program, components, 8)
    hinted_kernel = select_sweep_kernel(
        SweepShape(8, 8, program.num_columns, "clements")
    )
    hinted = _sweep(mesh, program, components, 8, kernel=hinted_kernel)
    np.testing.assert_array_equal(hinted, unhinted)


def test_steering_table_flips_choice_but_not_results(monkeypatch):
    target = random_unitary(6, rng=5)
    mesh = MZIMesh.from_unitary(target)
    program = mesh.column_program()
    shape = SweepShape(6, 1, program.num_columns, "clements")

    monkeypatch.setenv("REPRO_AUTOTUNE", "off")  # baseline: pure static order
    baseline = select_sweep_kernel(shape)
    assert baseline.name == "fused", "static order picks fused before steering"
    before = mesh.matrix()
    monkeypatch.setenv("REPRO_AUTOTUNE", "on")

    table = CostTable(fingerprint={"machine": "synthetic"})
    # make fused look catastrophically slow at every small shape
    for n in (2, 32):
        for batch in (1, 4096):
            table.record_grid("fused", "clements", n, batch, columns=n, seconds=9e9)
            table.record_grid("looped", "clements", n, batch, columns=n, seconds=1e-9)
    install_table(table)

    steered = select_sweep_kernel(shape)
    assert steered.name == "looped", "synthetic table must override the static order"
    after = mesh.matrix()
    np.testing.assert_array_equal(after, before)
    np.testing.assert_allclose(after, target, atol=1e-10)


def test_autotune_off_ignores_steering_table(monkeypatch):
    table = CostTable(fingerprint={"machine": "synthetic"})
    table.record_grid("fused", "clements", 6, 1, columns=6, seconds=9e9)
    table.record_grid("looped", "clements", 6, 1, columns=6, seconds=1e-9)
    install_table(table)
    monkeypatch.setenv("REPRO_AUTOTUNE", "off")
    assert select_sweep_kernel(SweepShape(6, 1, 11)).name == "fused"


def test_pin_beats_steering_table(monkeypatch):
    table = CostTable(fingerprint={"machine": "synthetic"})
    table.record_grid("fused", "clements", 6, 1, columns=6, seconds=9e9)
    table.record_grid("looped", "clements", 6, 1, columns=6, seconds=1e-9)
    install_table(table)
    monkeypatch.setenv("REPRO_SWEEP_KERNEL", "fused")
    assert select_sweep_kernel(SweepShape(6, 1, 11)).name == "fused"


def test_kernel_availability_probe_memoized():
    from repro.arrays.sweep import _KERNELS

    for name in ("fused", "looped"):
        kernel = _KERNELS[name]
        first = kernel.availability()
        assert kernel.availability() is first, "probe result must be memoized"
        assert first == (True, None)
