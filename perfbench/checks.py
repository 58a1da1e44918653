"""Output checks, result digests and evaluation counts shared by the runner and the program process.

Standard library only: the runner checks the CLI's ``--output`` JSON without
importing numpy, and the program process checks its in-memory results after
``repro.utils.serialization.to_jsonable``.  Both sides see the same plain
JSON shapes, so one set of checks serves both.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

#: Fields that define a result.  Measured-time fields (drift's
#: ``renull_cost``) and echoed configuration stay out, and so do fields a
#: later release may add (such as confidence intervals): the digest pins the
#: numbers the program computed, not the shape of its report.
YIELD_FIELDS = ("sigmas", "iterations", "nominal_accuracy", "accuracy_threshold", "accuracy_samples")
TIMELINE_FIELDS = ("accuracy", "recalibrations", "num_steps", "timelines", "nominal_accuracy")


def digest(payload: Dict, fields) -> str:
    """SHA-256 of the canonical JSON of ``payload`` restricted to ``fields``."""
    core = {name: payload[name] for name in fields}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def yield_digest(payload: Dict) -> str:
    return digest(payload, YIELD_FIELDS)


def drift_digest(payload: Dict) -> str:
    return "+".join(
        digest(payload[sweep], TIMELINE_FIELDS) for sweep in ("baseline", "recalibrated")
    )


def yield_evaluations(payload: Dict) -> int:
    """Monte Carlo evaluations behind a yield result (sigma 0 runs none)."""
    return int(payload["iterations"]) * sum(1 for sigma in payload["sigmas"] if sigma > 0)


def _in_unit_interval(values) -> bool:
    return all(0.0 <= float(value) <= 1.0 for value in values)


def yield_errors(payload: Dict, iterations: int) -> List[str]:
    """Why a yield-sweep result is wrong; empty when every check passes.

    Every sigma carries exactly ``iterations`` samples, and every yield,
    accuracy and threshold lies in [0, 1].
    """
    errors = []
    if int(payload["iterations"]) != iterations:
        errors.append(f"iterations {payload['iterations']} != {iterations}")
    for key in ("nominal_accuracy", "accuracy_threshold"):
        if not _in_unit_interval([payload[key]]):
            errors.append(f"{key} {payload[key]} outside [0, 1]")
    samples = payload["accuracy_samples"]
    estimates = payload["estimates"]
    if len(samples) != len(payload["sigmas"]) or len(estimates) != len(payload["sigmas"]):
        errors.append("not one sample set and one estimate per sigma")
    for sigma, values in samples.items():
        if len(values) != iterations:
            errors.append(f"sigma {sigma}: {len(values)} samples != {iterations}")
        if not _in_unit_interval(values):
            errors.append(f"sigma {sigma}: accuracy sample outside [0, 1]")
    for sigma, estimate in estimates.items():
        if int(estimate["samples"]) != iterations:
            errors.append(f"sigma {sigma}: estimate over {estimate['samples']} samples")
        if not _in_unit_interval([estimate["yield_fraction"], estimate["mean_accuracy"]]):
            errors.append(f"sigma {sigma}: yield or mean accuracy outside [0, 1]")
    return errors


def drift_errors(payload: Dict, timelines: int, num_steps: int) -> List[str]:
    """Why a drift result is wrong; empty when every check passes.

    Both sweeps serve ``timelines x num_steps`` accuracies in [0, 1], and
    the unmaintained baseline never re-nulls.
    """
    errors = []
    for sweep in ("baseline", "recalibrated"):
        accuracy = payload[sweep]["accuracy"]
        if len(accuracy) != timelines or any(len(row) != num_steps for row in accuracy):
            errors.append(f"{sweep}: accuracy is not {timelines} x {num_steps}")
        if not all(_in_unit_interval(row) for row in accuracy):
            errors.append(f"{sweep}: accuracy outside [0, 1]")
    if any(any(row) for row in payload["baseline"]["recalibrations"]):
        errors.append("baseline sweep re-nulled without a policy")
    return errors
