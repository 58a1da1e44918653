"""Shape-aware kernel choice: the consultation side of autotuning.

:func:`choose_kernel_name` is what the sweep-kernel registry calls (via
:func:`repro.arrays.sweep.select_sweep_kernel`) when it has a shape hint
and more than one available kernel.  It loads — or, exactly once per
machine, lazily builds — the per-machine :class:`~repro.tuning.costmodel.
CostTable` and returns the kernel the table predicts cheapest, or
``None`` to keep the static preference order (autotune off, no usable
table, or no prediction advantage).

Failure discipline: a corrupt or stale cache file must *never* silently
steer dispatch and must *never* crash the sweep.  It warns loudly
(``RuntimeWarning``), memoizes the failure, and the process runs on the
static order until ``spnn-repro calibrate`` refreshes the file.

Live refinement: whenever a table is active, a feedback sink installed at
the dispatch-metrics seam (:func:`repro.observability.dispatch.
set_feedback`) folds every timed ``apply_column_sweep`` call back into
the table's observed layer with exponential decay, so real workload
shapes sharpen the calibration-grid estimates as the process runs.

Numpy-free: everything here is dict lookups and floats; the measurement
side lives in :mod:`repro.tuning.calibrate`.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, Optional, Sequence, Tuple

from .costmodel import (
    CostTable,
    CostTableError,
    autotune_enabled,
    cache_path,
    machine_fingerprint,
)

__all__ = [
    "choose_kernel_name",
    "ensure_table",
    "install_table",
    "active_table",
    "reset_tuning_state",
    "tuning_status",
]

#: An in-progress calibration elsewhere (another process) is assumed live
#: for this long; a lock file older than this is stale and taken over.
_LOCK_TIMEOUT_SECONDS = 300.0

#: Decision-memo size cap; shapes repeat heavily so this rarely evicts.
_MEMO_CAP = 4096

# Process memo: the active CostTable, None once a load/build attempt
# failed (static fallback for the rest of the process), or _UNTRIED.
_UNTRIED = object()
_TABLE: object = _UNTRIED
_DECISIONS: Dict[Tuple[int, Tuple[int, int, int, Optional[str]], Tuple[str, ...]], Optional[str]] = {}
_FEEDBACK_INSTALLED = False
_CALIBRATING = False


def reset_tuning_state() -> None:
    """Forget memoized tables/decisions (tests and re-calibration)."""
    global _FEEDBACK_INSTALLED, _TABLE
    _TABLE = _UNTRIED
    _DECISIONS.clear()
    if _FEEDBACK_INSTALLED:
        from ..observability import dispatch

        dispatch.set_feedback(None)
        _FEEDBACK_INSTALLED = False


def _host_fingerprint() -> Dict[str, object]:
    from ..arrays.sweep import available_sweep_kernels

    return machine_fingerprint(tuple(available_sweep_kernels()))


def _install_feedback() -> None:
    """Route live dispatch records into active tables' observed layers."""
    global _FEEDBACK_INSTALLED
    if _FEEDBACK_INSTALLED:
        return
    from ..observability import dispatch

    def _sink(backend: str, kernel: str, n: int, batch: int, columns: int, seconds: float) -> None:
        table = active_table()
        if table is not None:
            table.observe(kernel, n, batch, columns, seconds)

    dispatch.set_feedback(_sink)
    _FEEDBACK_INSTALLED = True


def install_table(table: CostTable) -> None:
    """Activate ``table`` for kernel dispatch (tests, benchmarks, and the
    CLI after an explicit calibration)."""
    global _TABLE
    _TABLE = table
    _DECISIONS.clear()
    _install_feedback()


def active_table() -> Optional[CostTable]:
    """The table currently steering kernel dispatch, if any."""
    return None if _TABLE is _UNTRIED else _TABLE


def _lazy_calibrate(path) -> Optional[CostTable]:
    """Build the table on first dispatch, guarded against stampedes.

    An ``O_EXCL`` lock file serializes concurrent first-dispatchers
    (multiprocess workers all hitting a cold cache): losers skip to the
    static order for this process instead of calibrating N times.
    """
    lock = path.with_suffix(".lock")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            if time.time() - lock.stat().st_mtime < _LOCK_TIMEOUT_SECONDS:
                return None  # someone else is calibrating; stay static
            fd = os.open(lock, os.O_WRONLY)  # stale lock: take over
        except OSError:
            return None
    except OSError:
        return None  # unwritable cache dir: stay static, no warning spam
    global _CALIBRATING
    try:
        os.close(fd)
        from .calibrate import run_calibration

        _CALIBRATING = True
        table = run_calibration()
        table.save(path)
        return table
    except Exception as error:  # noqa: BLE001 - never crash dispatch
        warnings.warn(
            f"autotune calibration failed ({error}); using static kernel order",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    finally:
        _CALIBRATING = False
        try:
            os.unlink(lock)
        except OSError:
            pass


def ensure_table() -> Optional[CostTable]:
    """Load (or lazily build) the machine's cost table.

    Memoized per process — including the *failed* outcome, so a corrupt
    cache warns once and the process stays on the static order rather
    than re-parsing the bad file on every dispatch.
    """
    global _CALIBRATING, _TABLE
    if _TABLE is not _UNTRIED:
        return _TABLE
    if _CALIBRATING:
        # A sweep dispatched *by* the calibration itself (mesh builds
        # verify via matrix()) must not recurse into another calibration;
        # stay static, unmemoized, until the outer run finishes.
        return None
    fingerprint = _host_fingerprint()
    path = cache_path(fingerprint)
    table: Optional[CostTable] = None
    if path.exists():
        try:
            table = CostTable.load(path, expected_fingerprint=fingerprint)
        except CostTableError as error:
            warnings.warn(
                f"ignoring unusable autotune cache: {error}; "
                f"using static kernel order (re-run 'spnn-repro calibrate')",
                RuntimeWarning,
                stacklevel=3,
            )
            table = None
    else:
        table = _lazy_calibrate(path)
    _TABLE = table
    if table is not None:
        _install_feedback()
    return table


def choose_kernel_name(shape, candidates: Sequence[str]) -> Optional[str]:
    """Pick the predicted-cheapest kernel for ``shape``, or ``None``.

    ``None`` means "no opinion — keep the static preference order": that
    is the answer whenever autotune is off, no table is usable, or the
    table can't separate the candidates.  Ties keep static order
    (strict ``<`` comparison), and a candidate the table has never seen
    is never chosen over one it has.
    """
    if len(candidates) < 2 or not autotune_enabled():
        return None
    table = ensure_table()
    if table is None:
        return None
    key = (
        table.generation,
        (int(shape.n), int(shape.batch), int(shape.columns), shape.scheme),
        tuple(candidates),
    )
    if key in _DECISIONS:
        return _DECISIONS[key]
    best_name: Optional[str] = None
    best_cost: Optional[float] = None
    for name in candidates:
        cost = table.predict(name, shape.n, shape.batch, shape.columns, scheme=shape.scheme)
        if cost is None:
            continue
        if best_cost is None or cost < best_cost:
            best_name, best_cost = name, cost
    if best_name == candidates[0]:
        best_name = None  # static order already picks it; no override
    if len(_DECISIONS) >= _MEMO_CAP:
        _DECISIONS.clear()
    _DECISIONS[key] = best_name
    return best_name


def tuning_status() -> Dict[str, object]:
    """Diagnostics for ``spnn-repro info``: cache state without side
    effects (never triggers a lazy calibration)."""
    fingerprint = _host_fingerprint()
    path = cache_path(fingerprint)
    status: Dict[str, object] = {
        "enabled": autotune_enabled(),
        "cache_path": str(path),
        "cached": path.exists(),
        "loaded": active_table() is not None,
        "grid_points": 0,
        "observed_shapes": 0,
    }
    table = active_table()
    if table is None and path.exists():
        try:
            table = CostTable.load(path, expected_fingerprint=fingerprint)
        except CostTableError:
            status["cached"] = "stale"
            table = None
    if table is not None:
        status["grid_points"] = sum(len(v) for v in table.grid.values())
        status["observed_shapes"] = sum(len(v) for v in table.observed.values())
        status["kernels"] = list(table.kernels())
    return status
