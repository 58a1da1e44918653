"""Auto-calibrated cost models for shape-aware kernel dispatch.

``repro.tuning`` measures, stores and consults per-machine cost tables
for the sweep-kernel registry:

* :mod:`repro.tuning.costmodel` — the :class:`CostTable` data model,
  machine fingerprinting, XDG cache paths (numpy-free).
* :mod:`repro.tuning.calibrate` — the one-shot ``spnn-repro calibrate``
  micro-benchmark that fits a table (seconds, cached per machine).
* :mod:`repro.tuning.policy` — the dispatch consultation
  (:func:`choose_kernel_name`), lazy calibration on first hinted
  dispatch, and the live-dispatch feedback loop.

Escape hatches: ``REPRO_AUTOTUNE=off`` disables consultation entirely;
``REPRO_SWEEP_KERNEL`` pins a kernel and always wins over the table.
"""

from .costmodel import (
    AUTOTUNE_ENV,
    CostTable,
    CostTableError,
    autotune_enabled,
    cache_dir,
    cache_path,
    fingerprint_digest,
    machine_fingerprint,
)
from .policy import (
    active_table,
    choose_kernel_name,
    ensure_table,
    install_table,
    reset_tuning_state,
    tuning_status,
)

__all__ = [
    "AUTOTUNE_ENV",
    "CostTable",
    "CostTableError",
    "autotune_enabled",
    "cache_dir",
    "cache_path",
    "fingerprint_digest",
    "machine_fingerprint",
    "active_table",
    "choose_kernel_name",
    "ensure_table",
    "install_table",
    "reset_tuning_state",
    "tuning_status",
    "run_calibration",
]


def run_calibration(*args, **kwargs):
    """Lazy re-export of :func:`repro.tuning.calibrate.run_calibration`.

    The calibration pulls in the mesh/scipy stack; importing it lazily
    keeps the dispatch-side modules of ``repro.tuning`` numpy-free.
    """
    from .calibrate import run_calibration as _run

    return _run(*args, **kwargs)
