"""Per-machine sweep-kernel cost tables: the data model behind autotuning.

A :class:`CostTable` holds, per sweep kernel, the measured cost of the
column sweep over a small calibration grid of ``(scheme, n, batch)``
points (:mod:`repro.tuning.calibrate` produces them) plus an *observed*
layer fed online from live dispatch records with exponential decay.
:meth:`CostTable.predict` interpolates between grid points, so the
dispatch policy (:mod:`repro.tuning.policy`) can compare kernels at
shapes the calibration never timed directly.

Tables are JSON on disk, cached under ``$XDG_CACHE_HOME/spnn-repro``
(``~/.cache/spnn-repro`` by default) and keyed by a machine/backend
fingerprint — platform, CPU budget, python, and which kernels were
available when the table was fitted.  A table whose stored fingerprint no
longer matches the running machine is *stale* and must not silently steer
dispatch; loading raises :class:`CostTableError` and the policy falls
back to the static preference order with a loud warning.

This module is numpy-free: cost tables are plain dicts, floats and JSON
— never arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "AUTOTUNE_ENV",
    "SCHEMA_VERSION",
    "CostTableError",
    "CostTable",
    "autotune_enabled",
    "machine_fingerprint",
    "fingerprint_digest",
    "cache_dir",
    "cache_path",
]

#: Escape hatch: ``REPRO_AUTOTUNE=off`` (or 0/false/no) disables the
#: cost-model consultation entirely — dispatch reverts to the static
#: preference order and no calibration is ever triggered.
AUTOTUNE_ENV = "REPRO_AUTOTUNE"

#: Bump when the on-disk payload layout changes; older files are stale.
SCHEMA_VERSION = 1

#: Exponential-decay weight of a fresh observation folded into the
#: observed layer: ``new = DECAY * sample + (1 - DECAY) * old``.
OBSERVED_DECAY = 0.3


class CostTableError(RuntimeError):
    """A cost-table cache file is corrupt, stale, or malformed."""


def autotune_enabled() -> bool:
    """Whether the shape-aware dispatch layer may consult cost tables."""
    return os.environ.get(AUTOTUNE_ENV, "").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
    )


def machine_fingerprint(kernels: Tuple[str, ...] = ()) -> Dict[str, object]:
    """The identity a calibration is valid for.

    Coarse on purpose: measured kernel costs move with the machine class,
    the interpreter line and the set of importable kernels — not with the
    OS patch level.  ``kernels`` should be the *available* kernel names at
    calibration time: installing numba later must invalidate a table that
    has no numba column rather than silently never choosing it.
    """
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": ".".join(platform.python_version_tuple()[:2]),
        "cpu_count": os.cpu_count() or 1,
        "kernels": sorted(kernels),
    }


def fingerprint_digest(fingerprint: Dict[str, object]) -> str:
    """Short stable digest of a fingerprint (the cache file name key)."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def cache_dir() -> Path:
    """The per-user autotune cache directory (XDG convention)."""
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(base) if base else Path.home() / ".cache"
    return root / "spnn-repro"


def cache_path(fingerprint: Dict[str, object]) -> Path:
    """Where the cost table for ``fingerprint`` lives on disk."""
    return cache_dir() / f"cost_table_{fingerprint_digest(fingerprint)}.json"


def _interp1(points: List[Tuple[float, float]], x: float) -> float:
    """Piecewise-linear interpolation over sorted ``(x, y)`` points.

    Outside the sampled range the nearest *segment* extrapolates linearly
    — sweep cost keeps growing past the largest calibrated batch, so
    clamping would systematically undersell big shapes.  A single point
    is treated as flat.
    """
    if len(points) == 1:
        return points[0][1]
    if x <= points[0][0]:
        (x0, y0), (x1, y1) = points[0], points[1]
    elif x >= points[-1][0]:
        (x0, y0), (x1, y1) = points[-2], points[-1]
    else:
        for index in range(1, len(points)):
            if x <= points[index][0]:
                (x0, y0), (x1, y1) = points[index - 1], points[index]
                break
    if x1 == x0:
        return y0
    fraction = (x - x0) / (x1 - x0)
    return max(0.0, y0 + fraction * (y1 - y0))


class CostTable:
    """Measured per-kernel sweep costs with grid interpolation.

    Two layers, consulted in order:

    * **observed** — exact ``(kernel, n, batch, columns)`` shapes fed from
      live dispatch records, exponentially decayed (recent runs dominate);
      a shape the workload actually executes beats any interpolation.
    * **grid** — the calibration micro-benchmark's ``(scheme, n, batch)``
      lattice, normalized to seconds *per column* so schemes of different
      depth share one scale; predictions interpolate bilinearly over
      ``(n, batch)`` (scheme-matched points preferred when present).
    """

    def __init__(self, fingerprint: Optional[Dict[str, object]] = None, backend: str = "numpy"):
        self.fingerprint: Dict[str, object] = dict(fingerprint or {})
        self.backend = backend
        #: kernel -> {(scheme, n, batch): {"seconds": s, "columns": c}}
        self.grid: Dict[str, Dict[Tuple[str, int, int], Dict[str, float]]] = {}
        #: kernel -> {(n, batch, columns): seconds-per-column EWMA}
        self.observed: Dict[str, Dict[Tuple[int, int, int], float]] = {}
        #: Bumped on every mutation so decision caches can invalidate.
        self.generation = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_grid(
        self, kernel: str, scheme: str, n: int, batch: int, columns: int, seconds: float
    ) -> None:
        """Store one calibration measurement (seconds per sweep call)."""
        self.grid.setdefault(kernel, {})[(scheme, int(n), int(batch))] = {
            "seconds": float(seconds),
            "columns": float(max(1, columns)),
        }
        self.generation += 1

    def observe(
        self,
        kernel: str,
        n: int,
        batch: int,
        columns: int,
        seconds: float,
        decay: float = OBSERVED_DECAY,
    ) -> None:
        """Fold one live dispatch (seconds per call) into the observed layer."""
        per_column = float(seconds) / float(max(1, columns))
        shapes = self.observed.setdefault(kernel, {})
        key = (int(n), int(batch), int(columns))
        previous = shapes.get(key)
        shapes[key] = per_column if previous is None else decay * per_column + (1.0 - decay) * previous
        self.generation += 1

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def kernels(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.grid) | set(self.observed)))

    def predict(
        self,
        kernel: str,
        n: int,
        batch: int,
        columns: int,
        scheme: Optional[str] = None,
    ) -> Optional[float]:
        """Estimated seconds for one sweep call, or ``None`` when unknown."""
        columns = max(1, int(columns))
        observed = self.observed.get(kernel, {}).get((int(n), int(batch), columns))
        if observed is not None:
            return observed * columns
        points = self.grid.get(kernel)
        if not points:
            return None
        if scheme is not None and any(key[0] == scheme for key in points):
            points = {key: value for key, value in points.items() if key[0] == scheme}
        # Group per-column seconds by n, interpolate along batch within
        # each n row, then along n across the row results.
        rows: Dict[int, List[Tuple[float, float]]] = {}
        for (_, grid_n, grid_batch), value in points.items():
            rows.setdefault(grid_n, []).append(
                (float(grid_batch), value["seconds"] / value["columns"])
            )
        row_points: List[Tuple[float, float]] = []
        for grid_n in sorted(rows):
            samples = sorted(rows[grid_n])
            merged: List[Tuple[float, float]] = []
            for x, y in samples:  # duplicate batch points (schemes) average
                if merged and merged[-1][0] == x:
                    merged[-1] = (x, 0.5 * (merged[-1][1] + y))
                else:
                    merged.append((x, y))
            row_points.append((float(grid_n), _interp1(merged, float(batch))))
        return _interp1(row_points, float(n)) * columns

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "backend": self.backend,
            "fingerprint": self.fingerprint,
            "grid": [
                {
                    "kernel": kernel,
                    "scheme": scheme,
                    "n": n,
                    "batch": batch,
                    "columns": value["columns"],
                    "seconds": value["seconds"],
                }
                for kernel, points in sorted(self.grid.items())
                for (scheme, n, batch), value in sorted(points.items())
            ],
            "observed": [
                {
                    "kernel": kernel,
                    "n": n,
                    "batch": batch,
                    "columns": columns,
                    "seconds_per_column": seconds,
                }
                for kernel, shapes in sorted(self.observed.items())
                for (n, batch, columns), seconds in sorted(shapes.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "CostTable":
        if not isinstance(payload, dict):
            raise CostTableError("cost-table payload is not a JSON object")
        if payload.get("schema") != SCHEMA_VERSION:
            raise CostTableError(
                f"cost-table schema {payload.get('schema')!r} does not match "
                f"{SCHEMA_VERSION} (stale cache file)"
            )
        table = cls(
            fingerprint=payload.get("fingerprint") or {},
            backend=str(payload.get("backend", "numpy")),
        )
        try:
            for entry in payload.get("grid", ()):
                table.record_grid(
                    str(entry["kernel"]),
                    str(entry["scheme"]),
                    int(entry["n"]),
                    int(entry["batch"]),
                    int(entry["columns"]),
                    float(entry["seconds"]),
                )
            for entry in payload.get("observed", ()):
                table.observed.setdefault(str(entry["kernel"]), {})[
                    (int(entry["n"]), int(entry["batch"]), int(entry["columns"]))
                ] = float(entry["seconds_per_column"])
        except (KeyError, TypeError, ValueError) as error:
            raise CostTableError(f"malformed cost-table entry: {error}") from error
        if not table.grid:
            raise CostTableError("cost table holds no calibration grid points")
        table.generation = 0
        return table

    def save(self, path: Path) -> Path:
        """Write the table atomically (temp file + rename) to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_suffix(f".tmp{os.getpid()}")
        staging.write_text(json.dumps(self.to_payload(), indent=2) + "\n")
        os.replace(staging, path)
        return path

    @classmethod
    def load(cls, path: Path, expected_fingerprint: Optional[Dict[str, object]] = None) -> "CostTable":
        """Read and validate a table; raise :class:`CostTableError` loudly.

        ``expected_fingerprint`` (the running machine's) rejects tables
        calibrated on a different machine/interpreter/kernel set — using
        them would steer dispatch with numbers measured somewhere else.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CostTableError(f"unreadable cost table {path}: {error}") from error
        table = cls.from_payload(payload)
        if expected_fingerprint is not None and table.fingerprint != expected_fingerprint:
            raise CostTableError(
                f"cost table {path} was calibrated for a different machine/"
                f"environment (stale fingerprint); re-run 'spnn-repro calibrate'"
            )
        return table

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        points = sum(len(v) for v in self.grid.values())
        observed = sum(len(v) for v in self.observed.values())
        return (
            f"CostTable(backend={self.backend!r}, kernels={list(self.kernels())}, "
            f"grid_points={points}, observed={observed})"
        )
