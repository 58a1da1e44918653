"""Array kernels of the numerics hot paths.

See :mod:`repro.arrays.kernels` for the out-buffer kernels the Monte Carlo
engine and the SPNN forward pass share, and :mod:`repro.arrays.sweep` for
the column-sweep kernel registry (packed column programs, the fused and
optional numba megakernels).
"""

from . import kernels
from .sweep import (
    SWEEP_KERNEL_ENV,
    ColumnProgram,
    FusedSweepKernel,
    LoopedSweepKernel,
    SweepKernel,
    SweepShape,
    apply_column_sweep,
    available_sweep_kernels,
    get_sweep_kernel,
    register_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
    _register_optional_kernels,
)

_register_optional_kernels()

__all__ = [
    "kernels",
    "ColumnProgram",
    "SweepKernel",
    "SweepShape",
    "LoopedSweepKernel",
    "FusedSweepKernel",
    "SWEEP_KERNEL_ENV",
    "apply_column_sweep",
    "available_sweep_kernels",
    "get_sweep_kernel",
    "register_sweep_kernel",
    "select_sweep_kernel",
    "sweep_kernel_names",
]
