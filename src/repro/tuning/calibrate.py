"""One-shot micro-benchmark that fits the per-machine sweep cost table.

``run_calibration`` times every available sweep kernel over
a small ``(scheme, n, batch)`` grid — real :class:`~repro.mesh.mesh.
MZIMesh` column programs with real perturbation batches, the exact
inputs ``apply_column_sweep`` sees in production — and records the
measurements into a :class:`~repro.tuning.costmodel.CostTable`.

The grid is deliberately tiny (seconds total, run once per machine):
the dispatch policy interpolates between points and the observed layer
sharpens them online, so the calibration only has to capture the broad
crossover structure (fused wins growing with ``batch × n²``, looped
near-parity at single-matrix shapes), not the exact surface.

Budget discipline: cheap points get best-of-``repeats`` timing; a point
whose first measurement is already slow (> ``_ONE_SHOT_SECONDS``) keeps
that single sample — at that cost scheduler noise is relatively small
and extra repeats would triple the calibration price for nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence, Tuple

import numpy as np

from ..arrays.sweep import BACKEND_NAME, apply_column_sweep, available_sweep_kernels
from ..observability.dispatch import use_collector
from ..utils.rng import spawn_rngs
from ..variation.models import UncertaintyModel
from .costmodel import CostTable, machine_fingerprint

__all__ = ["run_calibration", "DEFAULT_NS", "DEFAULT_BATCHES", "DEFAULT_SCHEMES"]

DEFAULT_NS: Tuple[int, ...] = (4, 8, 16, 32)
DEFAULT_BATCHES: Tuple[int, ...] = (1, 16, 128, 1024)
DEFAULT_SCHEMES: Tuple[str, ...] = ("clements", "reck")

#: A measurement at least this long is trusted from a single sample.
_ONE_SHOT_SECONDS = 0.05


def _grid_inputs(scheme: str, n: int, max_batch: int):
    """Build one calibration point's sweep inputs (sized for ``max_batch``)."""
    from scipy.stats import unitary_group

    from ..mesh.mesh import MZIMesh
    from ..variation.sampler import sample_mesh_perturbation_batch

    mesh = MZIMesh.from_unitary(
        unitary_group.rvs(n, random_state=n), scheme=scheme
    )
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.01), spawn_rngs(17, max_batch)
    )
    components, _ = mesh._blocks_and_phases(perturbation)
    program = mesh.column_program()
    sorted_components = tuple(c[..., program.perm] for c in components)
    eye = np.eye(n, dtype=np.complex128)
    return program, sorted_components, eye


def _time_point(kernel_name: str, program, sorted_components, eye, batch: int, repeats: int) -> float:
    components = tuple(c[:batch] for c in sorted_components)
    work = np.empty((batch, program.n, program.n), dtype=np.complex128)
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        work[...] = eye
        start = perf_counter()
        apply_column_sweep(work, components, program, kernel=kernel_name)
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if elapsed > _ONE_SHOT_SECONDS:
            break
    return best if best is not None else 0.0


def run_calibration(
    ns: Sequence[int] = DEFAULT_NS,
    batches: Sequence[int] = DEFAULT_BATCHES,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    kernels: Optional[Sequence[str]] = None,
    repeats: int = 3,
    progress=None,
) -> CostTable:
    """Measure the sweep-kernel cost grid and return the fitted table.

    ``kernels`` defaults to every registered kernel that is available.
    ``progress`` (callable taking one string)
    receives a line per grid point for the CLI.  Runs with the dispatch
    collector shadowed to ``None`` so calibration noise never pollutes an
    active trace's kernel metrics.
    """
    names = tuple(kernels) if kernels is not None else available_sweep_kernels()
    if not names:
        raise RuntimeError("no sweep kernels available to calibrate")
    table = CostTable(
        fingerprint=machine_fingerprint(tuple(available_sweep_kernels())),
        backend=BACKEND_NAME,
    )
    with use_collector(None):
        for scheme in schemes:
            for n in ns:
                max_batch = max(batches)
                program, sorted_components, eye = _grid_inputs(scheme, n, max_batch)
                for batch in sorted(batches):
                    for name in names:
                        seconds = _time_point(
                            name, program, sorted_components, eye, batch, repeats
                        )
                        table.record_grid(
                            name, scheme, n, batch, program.num_columns, seconds
                        )
                        if progress is not None:
                            progress(
                                f"{name:>10s}  {scheme:<8s} n={n:<3d} batch={batch:<5d} "
                                f"{seconds * 1e6:10.1f} us"
                            )
    table.generation = 0
    return table
