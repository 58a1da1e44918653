"""Autotune tour: calibrate the kernel cost table, watch it steer dispatch.

Walks the whole ``repro.tuning`` loop:

1. run the one-shot calibration micro-benchmark (the same measurement
   ``spnn-repro calibrate`` persists under ``~/.cache/spnn-repro/``; here
   it goes to a temp cache so the tour never touches your real one),
2. inspect the fitted cost table — per-kernel grid timings, the machine
   fingerprint that keys the cache file, and interpolated predictions at
   shapes *between* the calibrated points,
3. dispatch hinted sweeps through ``select_sweep_kernel`` and show which
   kernel the table picks per shape (with the static order alongside),
4. verify the load-bearing invariant: steering is bit-identical — the
   table changes *which* kernel runs, never the numbers,
5. run a traced sweep and show the observed-cost feedback loop: live
   dispatch timings land in ``CostTable.observe`` and refine the grid.

Run with:  python examples/autotune_tour.py
CLI twin:  spnn-repro calibrate && spnn-repro info
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.arrays.sweep import SweepShape, select_sweep_kernel
from repro.mesh.mesh import MZIMesh
from repro.tuning import (
    cache_path,
    fingerprint_digest,
    install_table,
    reset_tuning_state,
    run_calibration,
    tuning_status,
)
from repro.utils import random_unitary

PROBE_SHAPES = ((8, 1), (8, 64), (12, 500), (32, 2048))  # (n, batch)


def main() -> None:
    os.environ["REPRO_AUTOTUNE"] = "on"
    reset_tuning_state()

    # 1. calibrate (≈3 s: every kernel × a small (scheme, n, batch) grid)
    print("calibrating the sweep-kernel cost table ...")
    table = run_calibration(progress=lambda line: print(f"  {line}"))

    # 2. inspect — what `spnn-repro calibrate` would persist
    digest = fingerprint_digest(table.fingerprint)
    print(f"\nmachine fingerprint digest: {digest}")
    print(f"cache file would be: {cache_path(table.fingerprint)}")
    print(f"grid points per kernel: { {k: len(v) for k, v in table.grid.items()} }")
    print("\ninterpolated per-sweep predictions (seconds):")
    for n, batch in PROBE_SHAPES:
        row = {
            kernel: table.predict(kernel, n, batch, columns=n, scheme="clements")
            for kernel in table.kernels()
        }
        rendered = ", ".join(f"{k}={v:.2e}" for k, v in row.items() if v is not None)
        print(f"  n={n:<3} batch={batch:<5} {rendered}")

    # 3. hinted dispatch — the table only overrides where it measured a win
    with tempfile.TemporaryDirectory() as cache_home:
        os.environ["XDG_CACHE_HOME"] = cache_home  # keep the real cache clean
        reset_tuning_state()
        install_table(table)
        print("\nhinted kernel choice per shape (static order head: fused):")
        for n, batch in PROBE_SHAPES:
            chosen = select_sweep_kernel(SweepShape(n, batch, n))
            print(f"  n={n:<3} batch={batch:<5} -> {chosen.name}")

        # 4. bit-identity: steering never changes the numbers
        mesh = MZIMesh.from_unitary(random_unitary(8, rng=11))
        hinted = mesh.matrix()  # threads SweepShape(8, 1, ...) internally
        os.environ["REPRO_AUTOTUNE"] = "off"
        static = mesh.matrix()
        os.environ["REPRO_AUTOTUNE"] = "on"
        assert np.array_equal(hinted, static), "steering must be bit-identical"
        print("\nhinted matrix() bit-identical to static dispatch: True")

        # 5. the feedback loop: live hinted dispatches refine the table
        before = sum(len(shapes) for shapes in table.observed.values())
        for _ in range(3):
            mesh.matrix()
        after = sum(len(shapes) for shapes in table.observed.values())
        print(f"observed-cost shapes: {before} -> {after} (live EWMA refinement)")

        status = tuning_status()
        print(f"tuning status: enabled={status['enabled']} loaded={status['loaded']} "
              f"observed_shapes={status['observed_shapes']}")

    reset_tuning_state()
    print("\ndone — `spnn-repro calibrate` persists this table for real runs.")


if __name__ == "__main__":
    main()
