"""Zero-overhead observability: span tracing, worker telemetry, metrics.

The engine spans multiprocess pools, shared-memory hosting, a network
fleet and a runtime sweep-kernel registry; this package makes all of it visible
without making any of it slower:

* :mod:`~repro.observability.recorder` — the span/counter recorder behind
  every instrumented seam.  A module-level :class:`NullRecorder` serves the
  disabled path (the default): every hot-seam call site costs one global
  read plus a no-op method call.  Enable with :func:`observe`, the
  ``REPRO_TRACE`` environment variable, or the CLI ``--trace`` /
  ``--metrics-out`` flags.
* :mod:`~repro.observability.dispatch` — per-call kernel-dispatch metrics
  for :func:`repro.arrays.sweep.apply_column_sweep` (kernel name, backend,
  shape, seconds): the raw data shape-aware adaptive kernel selection
  needs.
* :mod:`~repro.observability.frames` — worker-side telemetry riding the
  existing ``Backend`` protocol: compact picklable
  :class:`~repro.observability.frames.ChunkFrame` records (chunk wall
  time, payload bytes, kernel dispatches) piggybacked alongside the
  ``(start, samples)`` chunk results and merged deterministically into the
  parent trace.
* :mod:`~repro.observability.report` — JSONL trace export, the aggregated
  :class:`~repro.observability.report.MetricsReport` (per-span totals,
  per-kernel histograms, worker utilization) and
  :func:`~repro.observability.report.summarize_trace`.
* :mod:`~repro.observability.progress` — heartbeat sink for long sweeps
  and structured training-epoch records (CLI ``--progress``).

**Invariants.**  Instrumentation never consumes randomness and never reads
or writes result arrays (only their ``nbytes`` metadata), so traced runs
are bit-identical to untraced runs; frames are deterministic in content —
only the timing fields vary between runs.
"""

from .dispatch import DispatchAggregator, active_collector, use_collector
from .frames import ChunkFrame, InstrumentedChunkEvaluator, KernelDispatch, map_chunks
from .progress import (
    PrintProgressSink,
    ProgressSink,
    emit_epoch,
    emit_progress,
    progress_sink,
    set_progress_sink,
    use_progress_sink,
)
from .recorder import (
    NullRecorder,
    Stopwatch,
    TRACE_ENV,
    TraceRecorder,
    active,
    observe,
    perf_seconds,
    recording_enabled,
)
from .report import MetricsReport, read_trace, summarize_trace

__all__ = [
    "ChunkFrame",
    "DispatchAggregator",
    "InstrumentedChunkEvaluator",
    "KernelDispatch",
    "MetricsReport",
    "NullRecorder",
    "PrintProgressSink",
    "ProgressSink",
    "Stopwatch",
    "TRACE_ENV",
    "TraceRecorder",
    "active",
    "active_collector",
    "emit_epoch",
    "emit_progress",
    "map_chunks",
    "observe",
    "perf_seconds",
    "progress_sink",
    "read_trace",
    "recording_enabled",
    "set_progress_sink",
    "summarize_trace",
    "use_collector",
    "use_progress_sink",
]
