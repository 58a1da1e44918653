"""Kernel-dispatch metrics: who ran the column sweep, on what, how fast.

:func:`repro.arrays.sweep.apply_column_sweep` consults the module-level
collector before every dispatch.  ``None`` (the default) means disabled —
the sweep's only overhead is one module-global read per call.  While a
collector is installed, every dispatch records ``(kernel_name, backend,
n, batch, columns, seconds)``; the :class:`DispatchAggregator` folds the
calls into per-shape totals, which is exactly the raw data the
shape-aware adaptive kernel-selection roadmap item needs (where is the
fused/looped crossover on *this* machine?).

Collectors are installed two ways:

* :func:`repro.observability.recorder.observe` registers the active
  recorder's aggregator, so parent-side sweeps (nominal forwards,
  serial-backend chunks) land in the trace directly;
* :class:`repro.observability.frames.InstrumentedChunkEvaluator` installs
  a chunk-local aggregator around each chunk evaluation — in worker
  processes and inline alike — and ships the result back inside the
  chunk's telemetry frame.

This module is numpy-free (``tests/test_numpy_free_modules.py`` checks
it) and never touches the swept arrays — only their shapes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DispatchAggregator",
    "active_collector",
    "set_collector",
    "use_collector",
    "active_feedback",
    "set_feedback",
]


class DispatchAggregator:
    """Folds kernel dispatches into deterministic per-shape totals.

    Keyed by ``(kernel, backend, n, batch, columns)``; the call count per
    key is deterministic for a deterministic workload, only the
    accumulated seconds vary between runs.
    """

    __slots__ = ("_totals",)

    def __init__(self) -> None:
        self._totals: Dict[Tuple[str, str, int, int, int], List[float]] = {}

    def record(self, kernel: str, backend: str, n: int, batch: int, columns: int, seconds: float) -> None:
        key = (kernel, backend, n, batch, columns)
        entry = self._totals.get(key)
        if entry is None:
            self._totals[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def __len__(self) -> int:
        return len(self._totals)

    @property
    def total_calls(self) -> int:
        return sum(int(entry[0]) for entry in self._totals.values())

    def merge(self, entries: Iterator[dict]) -> None:
        """Fold exported entries (e.g. from a worker frame) into this one."""
        for entry in entries:
            key = (
                str(entry["kernel"]),
                str(entry["backend"]),
                int(entry["n"]),
                int(entry["batch"]),
                int(entry["columns"]),
            )
            existing = self._totals.get(key)
            if existing is None:
                self._totals[key] = [int(entry["calls"]), float(entry["seconds"])]
            else:
                existing[0] += int(entry["calls"])
                existing[1] += float(entry["seconds"])

    def entries(self) -> List[dict]:
        """Per-shape totals in deterministic (sorted-key) order."""
        return [
            {
                "kernel": kernel,
                "backend": backend,
                "n": n,
                "batch": batch,
                "columns": columns,
                "calls": int(calls),
                "seconds": float(seconds),
            }
            for (kernel, backend, n, batch, columns), (calls, seconds) in sorted(self._totals.items())
        ]


#: The process's dispatch collector; ``None`` disables dispatch recording.
_COLLECTOR: Optional[DispatchAggregator] = None


def active_collector() -> Optional[DispatchAggregator]:
    """The installed collector, or ``None`` when dispatch metrics are off."""
    return _COLLECTOR


def set_collector(collector: Optional[DispatchAggregator]) -> None:
    """Install ``collector`` process-wide (``None`` disables)."""
    global _COLLECTOR
    _COLLECTOR = collector


#: Autotune feedback sink: called as ``sink(backend, kernel, n, batch,
#: columns, seconds)`` for every timed dispatch.  Unlike the collector —
#: an *observer* installed per trace/chunk — the sink is a process-wide
#: *consumer* (the cost-model's online refinement in
#: :mod:`repro.tuning.policy`) and stays installed across traces.
_FEEDBACK: Optional[Callable[[str, str, int, int, int, float], None]] = None


def active_feedback() -> Optional[Callable[[str, str, int, int, int, float], None]]:
    """The installed autotune feedback sink, or ``None`` when inactive."""
    return _FEEDBACK


def set_feedback(sink: Optional[Callable[[str, str, int, int, int, float], None]]) -> None:
    """Install the dispatch feedback ``sink`` process-wide (``None`` disables)."""
    global _FEEDBACK
    _FEEDBACK = sink


@contextmanager
def use_collector(collector: Optional[DispatchAggregator]) -> Iterator[Optional[DispatchAggregator]]:
    """Install ``collector`` for the duration of the block (nestable).

    The previous collector is restored on exit, so a chunk-local
    aggregator (inline serial evaluation under an active recorder) shadows
    the recorder's global one for exactly its chunk — dispatches are never
    double-counted.
    """
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    try:
        yield collector
    finally:
        _COLLECTOR = previous
