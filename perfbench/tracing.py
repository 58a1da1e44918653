"""Outside-in layer timers for the benchmark's traced run.

The traced run adds no spans to the program.  It wraps the public functions
and methods that enter each layer, from this file, before the workload runs,
and times every call through the wrappers.  Each wrapper belongs to a
layer; a call counts towards its layer only when no call of the same layer
encloses it (so ``sample_batch`` reaching the sampler is not counted twice),
and the time of enclosed calls of other layers is kept apart, giving each
layer its self time as well as its total.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class LayerClock:
    """Totals, self times and call counts per layer, plus a work counter."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Seconds spent in calls that no timed call encloses.
        self.top_level = 0.0
        # One frame per open timed call: [layer, seconds of enclosed calls].
        self._stack: List[list] = []

    def wrap(self, layer: str, function: Callable, count: Optional[Tuple[str, Callable]] = None) -> Callable:
        """``function`` timed as ``layer``; ``count=(name, f)`` adds ``f(result)`` to a counter."""

        @functools.wraps(function)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.top_level += elapsed
                self.own[layer] += elapsed - frame[1]
                if not any(open_frame[0] == layer for open_frame in self._stack):
                    self.total[layer] += elapsed
                    self.calls[layer] += 1
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return timed

    def patch_function(self, module_name: str, name: str, layer: str, count=None) -> None:
        """Time ``module_name.name`` wherever a loaded ``repro`` module binds it.

        Modules that do ``from x import f`` hold their own reference, so the
        wrapper replaces every binding of the same function object.  Modules
        imported later read the wrapped attribute from the defining module.
        """
        original = getattr(importlib.import_module(module_name), name)
        timed = self.wrap(layer, original, count)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is original:
                setattr(module, name, timed)

    def patch_method(self, module_name: str, class_name: str, name: str, layer: str) -> None:
        """Time ``class_name.name`` for every instance, on the class defining it."""
        cls = getattr(importlib.import_module(module_name), class_name)
        owner = next(klass for klass in cls.__mro__ if name in vars(klass))
        setattr(owner, name, self.wrap(layer, vars(owner)[name]))
