"""Pluggable execution backends for the Monte Carlo engine.

The paper's methodology multiplies quickly: 1000 uncertainty realizations
per design point, hundreds of design points across EXP 1 / EXP 2 / the yield
sweeps.  PR 1 vectorized one design point at a time, but the whole sweep
still ran on a single NumPy thread.  This module factors the *scheduling* of
that work out of :class:`~repro.analysis.monte_carlo.MonteCarloRunner` into
a small backend protocol so the same experiment code can run

* inline on the calling thread (:class:`SerialBackend`, the default),
* sharded across worker processes (:class:`MultiprocessBackend`, stdlib
  :mod:`concurrent.futures`, no extra dependencies), or
* across a persistent socket-connected worker fleet
  (:class:`~repro.execution.fleet.FleetBackend`, stdlib sockets — see
  :mod:`repro.execution.fleet`).

**Determinism contract.**  A backend never creates randomness and never
reorders results: it receives a list of self-contained task payloads (for
Monte Carlo work: chunk start index + the chunk's pre-spawned child
generators + the trial callable) and returns one result per task *in task
order*.  Because the child streams are spawned deterministically in the
parent via ``SeedSequence.spawn()`` before any scheduling happens, the
samples are bit-identical for every backend and every worker count.

**Picklability contract.**  Process-based backends pickle the mapped
function and each task payload into the workers, so both must be picklable:
module-level functions, dataclass instances, NumPy generators/arrays and
bound methods of picklable objects all qualify; locally defined closures do
not (the experiment layers therefore expose their trials as module-level
callable dataclasses).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Protocol, Sequence, Union, runtime_checkable

from ..observability.progress import emit_progress, progress_sink
from ..observability.recorder import Stopwatch


def _map_with_heartbeat(label: str, results: Iterator[Any], total: int) -> List[Any]:
    """Gather ``results`` in order, emitting a progress record per task.

    Backends call this only when a progress sink is installed (the
    disabled path is the untouched list comprehension); ``results`` is a
    lazy iterator, so each heartbeat fires as its task completes.
    """
    watch = Stopwatch()
    gathered: List[Any] = []
    for result in results:
        gathered.append(result)
        emit_progress(
            "chunk", label=label, done=len(gathered), total=total, seconds=watch.seconds
        )
    return gathered


def gather_with_heartbeat(label: str, results: Iterator[Any], total: int) -> List[Any]:
    """Drain a lazy result iterator in order, heartbeating when a sink is set.

    The one gather loop every backend shares: with no progress sink the
    results are drained as a plain list (zero overhead), with one a
    ``chunk``-kind progress record fires per completed task under
    ``label``.  ``results`` must already yield in task order — heartbeats
    never reorder anything.
    """
    if progress_sink() is None:
        return list(results)
    return _map_with_heartbeat(label, results, total)


def _gather_futures(futures: List[Any]) -> List[Any]:
    """Collect futures in submission order (with heartbeats when sunk)."""
    return gather_with_heartbeat(
        "multiprocess", (future.result() for future in futures), len(futures)
    )


@runtime_checkable
class Backend(Protocol):
    """Protocol every execution backend implements.

    ``map`` evaluates ``fn`` over ``tasks`` and returns the results in task
    order; ``parallelism`` reports how many tasks may run concurrently (used
    by callers to pick a chunk size — 1 means "do not bother chunking for
    concurrency").
    """

    @property
    def parallelism(self) -> int:  # pragma: no cover - protocol definition
        ...

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SerialBackend:
    """Evaluate every task inline on the calling thread (the default)."""

    @property
    def parallelism(self) -> int:
        return 1

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        return gather_with_heartbeat("serial", (fn(task) for task in tasks), len(tasks))


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass(frozen=True)
class MultiprocessBackend:
    """Shard tasks across worker processes via :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` uses the CPUs available to the
        process.  A value of 1 degenerates to inline execution (no pool is
        created), so ``MultiprocessBackend(workers=1)`` is behaviorally a
        :class:`SerialBackend` — handy for worker-count sweeps.

    Results are gathered in submission order, so ``map`` preserves task
    order no matter which worker finishes first.

    **Pool lifetime.**  By default every :meth:`map` call forks a fresh pool
    and tears it down again — safe, but the spin-up plus copy-on-write
    faulting costs ~0.15 s per run, which dominates sweeps made of many
    small Monte Carlo runs (EXP 2's 54 zones, the per-sigma evaluations of
    the robustness experiment).  Entering the backend as a context manager
    keeps one pool alive for every ``map`` inside the block::

        with MultiprocessBackend(workers=4) as backend:
            for sigma in sigmas:
                monte_carlo_accuracy(..., backend=backend)

    Pool reuse never changes results (the backend still schedules
    self-contained payloads in task order); it only removes the per-run
    fork overhead.  The context is reentrant: nested ``with`` blocks reuse
    the outermost pool and only the outermost exit shuts it down.
    """

    workers: Optional[int] = None
    #: Live executor while inside a ``with`` block (never pickled/compared).
    _executor: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )
    _entries: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def parallelism(self) -> int:
        return self.workers if self.workers is not None else available_workers()

    # ------------------------------------------------------------------ #
    # persistent-pool lifetime
    # ------------------------------------------------------------------ #
    @property
    def pool_is_open(self) -> bool:
        """Whether a persistent pool is currently alive (inside ``with``)."""
        return self._executor is not None

    def __enter__(self) -> "MultiprocessBackend":
        if self._executor is None and self.parallelism > 1:
            object.__setattr__(self, "_executor", ProcessPoolExecutor(max_workers=self.parallelism))
        object.__setattr__(self, "_entries", self._entries + 1)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        object.__setattr__(self, "_entries", self._entries - 1)
        if self._entries <= 0 and self._executor is not None:
            self._executor.shutdown(wait=True)
            object.__setattr__(self, "_executor", None)

    def __getstate__(self) -> dict:
        # The live executor must never travel into a worker (pools are not
        # picklable); a pickled copy behaves like a fresh, closed backend.
        return {"workers": self.workers}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "workers", state["workers"])
        object.__setattr__(self, "_executor", None)
        object.__setattr__(self, "_entries", 0)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        max_workers = min(self.parallelism, len(tasks))
        if max_workers <= 1:
            return gather_with_heartbeat(
                "multiprocess", (fn(task) for task in tasks), len(tasks)
            )
        if self._executor is not None:
            futures = [self._executor.submit(fn, task) for task in tasks]
            return _gather_futures(futures)
        with ProcessPoolExecutor(max_workers=max_workers) as executor:
            futures = [executor.submit(fn, task) for task in tasks]
            return _gather_futures(futures)


@contextmanager
def pool_scope(backend: Backend) -> Iterator[Backend]:
    """Keep the backend's worker pool alive for the duration of the block.

    Sweeps that issue many small Monte Carlo runs wrap their loop in this
    scope so pool-capable backends (currently :class:`MultiprocessBackend`)
    fork their workers once instead of once per run; backends without pool
    lifetime (e.g. :class:`SerialBackend`) pass through unchanged.  Results
    are identical either way — the scope is purely a wall-clock
    optimization.
    """
    enter = getattr(backend, "__enter__", None)
    if enter is None:
        yield backend
        return
    with backend:
        yield backend


#: What callers may pass as a backend: a name, an instance, or None (auto).
BackendLike = Union[None, str, Backend]

#: Registered backend names (the strings accepted by :func:`resolve_backend`).
BACKEND_NAMES = ("serial", "multiprocess", "fleet")


def resolve_backend(backend: BackendLike = None, workers: Optional[int] = None) -> Backend:
    """Turn a ``backend``/``workers`` knob pair into a backend.

    Resolution rules (shared by every layer that exposes the knobs):

    * an existing :class:`Backend` instance is returned unchanged
      (``workers`` must then be left unset — the instance already decided),
    * ``None`` auto-selects: ``workers`` of ``None``/1 gives the serial
      backend, anything larger a multiprocess backend with that many
      workers,
    * ``"serial"`` / ``"multiprocess"`` / ``"fleet"`` select
      explicitly; ``workers`` is honored by the multiprocess backend (pool
      size) and the fleet backend (minimum connected workers) and must be
      unset or 1 otherwise.  The fleet coordinator binds the address in
      ``REPRO_FLEET_ADDRESS`` (default ``127.0.0.1:0``).
    """
    if backend is not None and not isinstance(backend, str):
        if not isinstance(backend, Backend):
            raise TypeError(
                f"backend must be None, one of {BACKEND_NAMES} or a Backend instance, "
                f"got {type(backend)!r}"
            )
        if workers is not None:
            raise ValueError("workers cannot be combined with a Backend instance")
        return backend
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend is None:
        if workers is None or workers == 1:
            return SerialBackend()
        return MultiprocessBackend(workers=workers)
    name = backend.lower()
    if name == "serial":
        if workers is not None and workers > 1:
            raise ValueError(f"the serial backend cannot use {workers} workers")
        return SerialBackend()
    if name == "multiprocess":
        return MultiprocessBackend(workers=workers)
    if name == "fleet":
        # Imported lazily: the fleet package imports observability (spans)
        # and would otherwise create an import cycle through this module.
        from .fleet import FleetBackend

        return FleetBackend(min_workers=workers if workers is not None else 1)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
