"""Results pinned across commits: the yield smoke against ``perfbench/golden.json``.

The equivalence tests elsewhere compare one code path with another (serial
vs pool vs fleet, batched vs looped), so a refactor that moves both sides
passes them unnoticed.  This test compares the ``spnn-repro yield --smoke``
result with the digest the benchmark recorded, using the benchmark's own
digest function, so a change to any number the smoke computes fails here.

The digest is bit-level and depends on the machine's arithmetic (CPU,
NumPy/SciPy builds, BLAS, SIMD set); on a machine whose fingerprint differs
from the recorded one the test skips and says which fields differ.
"""

from __future__ import annotations

import importlib.util
import json
import platform
from pathlib import Path

import numpy
import pytest
import scipy

from repro.experiments.registry import get_experiment
from repro.experiments.yield_experiment import run_yield
from repro.utils.serialization import to_jsonable

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arithmetic_fingerprint() -> dict:
    """The fields ``perfbench`` keys its golden digests by, for this machine."""
    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "simd": sorted(config["SIMD Extensions"].get("found", [])),
    }


def test_yield_smoke_matches_the_golden_digest():
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    here = _arithmetic_fingerprint()
    differing = sorted(name for name, value in golden["fingerprint"].items() if here.get(name) != value)
    if differing:
        pytest.skip(
            "golden digests were recorded on other arithmetic; this machine differs in "
            + ", ".join(f"{name} ({here.get(name)!r})" for name in differing)
        )
    payload = to_jsonable(run_yield(get_experiment("yield").smoke_config))
    assert _load_checks().yield_digest(payload) == golden["digests"]["cli_yield_smoke"]
