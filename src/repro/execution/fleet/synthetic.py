"""Synthetic chunk evaluators for exercising the fleet scheduler.

Scheduling behavior (weighted claiming, tail-chunk duplication) depends
on *timing*, which real numeric chunks make noisy and slow to provoke.
:class:`SleepChunkEvaluator` gives the tests and the ``weighted_fleet``
benchmark a deterministic stand-in: each evaluation sleeps a configurable
time — per *worker*, via the ``REPRO_SYNTH_SLEEP`` environment variable
read in the worker process, which :func:`~repro.execution.fleet.backend.
local_fleet`'s ``worker_env`` sets per child — and returns a pure
function of the task payload, so results are bit-identical no matter
which worker computed a chunk, how often it was duplicated, or what the
sleeps were.

This module is numpy-free.
"""

from __future__ import annotations

import os
import time
from typing import Any

__all__ = ["SYNTH_SLEEP_ENV", "SleepChunkEvaluator"]

#: Per-process override of the evaluator's sleep, in seconds.  Set it in a
#: worker's environment (not the coordinator's) to slow that worker down.
SYNTH_SLEEP_ENV = "REPRO_SYNTH_SLEEP"


class SleepChunkEvaluator:
    """Sleep, then return a deterministic transform of the task.

    The result depends only on the task payload (never on the sleep, the
    worker, or the wall clock), so any scheduling policy must reassemble
    the exact same output list — the property the weighted-fleet
    bit-identity tests assert.
    """

    def __init__(self, default_seconds: float = 0.0):
        self.default_seconds = float(default_seconds)

    def _sleep_seconds(self) -> float:
        raw = os.environ.get(SYNTH_SLEEP_ENV, "").strip()
        if raw:
            try:
                return float(raw)
            except ValueError:
                pass
        return self.default_seconds

    def __call__(self, task: Any) -> Any:
        seconds = self._sleep_seconds()
        if seconds > 0.0:
            time.sleep(seconds)
        return ("synth", task)
