"""Unit tests for the autotune cost model and dispatch policy.

Covers the :class:`CostTable` data model (grid recording, bilinear
interpolation, observed-layer EWMA, JSON round-trip, corrupt/stale
rejection), the cache-path/fingerprint plumbing, and the policy contract:
``REPRO_AUTOTUNE=off`` and ``REPRO_SWEEP_KERNEL`` pins bypass the table,
ties keep the static order, and a
corrupt on-disk cache falls back to the static preference *loudly*
(``RuntimeWarning``) without ever crashing a sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.arrays.sweep import SweepShape, select_sweep_kernel
from repro.tuning import (
    CostTable,
    CostTableError,
    autotune_enabled,
    cache_dir,
    cache_path,
    fingerprint_digest,
    machine_fingerprint,
)
from repro.tuning.policy import (
    choose_kernel_name,
    ensure_table,
    install_table,
    reset_tuning_state,
)


@pytest.fixture(autouse=True)
def _clean_tuning_state(tmp_path, monkeypatch):
    """Isolate every test: fresh memo state, cache under tmp, autotune on."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("REPRO_AUTOTUNE", "on")
    monkeypatch.delenv("REPRO_SWEEP_KERNEL", raising=False)
    reset_tuning_state()
    yield
    reset_tuning_state()


def _table(points) -> CostTable:
    """A table from ``{kernel: {(scheme, n, batch): seconds}}`` shorthand."""
    table = CostTable(fingerprint={"machine": "test"})
    for kernel, grid in points.items():
        for (scheme, n, batch), seconds in grid.items():
            table.record_grid(kernel, scheme, n, batch, columns=n, seconds=seconds)
    return table


class TestCostTable:
    def test_exact_grid_point_predicts_itself(self):
        table = _table({"fused": {("clements", 8, 16): 1e-3}})
        assert table.predict("fused", 8, 16, 8) == pytest.approx(1e-3)

    def test_unknown_kernel_predicts_none(self):
        table = _table({"fused": {("clements", 8, 16): 1e-3}})
        assert table.predict("numba", 8, 16, 8) is None

    def test_interpolates_between_batches(self):
        table = _table(
            {"fused": {("clements", 8, 1): 1e-4, ("clements", 8, 101): 1.01e-2}}
        )
        # per-column cost is linear in batch here; batch=51 is the midpoint
        midpoint = table.predict("fused", 8, 51, 8)
        assert midpoint == pytest.approx((1e-4 + 1.01e-2) / 2.0, rel=1e-6)

    def test_interpolates_between_ns(self):
        table = _table(
            {"fused": {("clements", 4, 16): 1e-3, ("clements", 12, 16): 3e-3}}
        )
        # per-column seconds interpolate along n, then scale by columns=8
        per_column_4 = 1e-3 / 4
        per_column_12 = 3e-3 / 12
        expected = (per_column_4 + per_column_12) / 2.0 * 8
        assert table.predict("fused", 8, 16, 8) == pytest.approx(expected, rel=1e-6)

    def test_extrapolates_beyond_largest_batch(self):
        table = _table(
            {"fused": {("clements", 8, 1): 1e-4, ("clements", 8, 101): 1.01e-2}}
        )
        beyond = table.predict("fused", 8, 201, 8)
        assert beyond == pytest.approx(2.01e-2, rel=1e-6)
        assert beyond > table.predict("fused", 8, 101, 8)

    def test_scheme_matched_points_preferred(self):
        table = _table(
            {
                "fused": {
                    ("clements", 8, 16): 1e-3,
                    ("reck", 8, 16): 9e-3,
                }
            }
        )
        assert table.predict("fused", 8, 16, 8, scheme="reck") == pytest.approx(9e-3)
        assert table.predict("fused", 8, 16, 8, scheme="clements") == pytest.approx(1e-3)

    def test_observed_layer_beats_grid_and_decays(self):
        table = _table({"fused": {("clements", 8, 16): 1e-3}})
        table.observe("fused", 8, 16, 8, seconds=8e-3, decay=0.5)
        assert table.predict("fused", 8, 16, 8) == pytest.approx(8e-3)
        table.observe("fused", 8, 16, 8, seconds=4e-3, decay=0.5)
        # EWMA: 0.5 * 4e-3 + 0.5 * 8e-3 = 6e-3
        assert table.predict("fused", 8, 16, 8) == pytest.approx(6e-3)

    def test_observation_bumps_generation(self):
        table = _table({"fused": {("clements", 8, 16): 1e-3}})
        generation = table.generation
        table.observe("fused", 8, 16, 8, seconds=1e-3)
        assert table.generation == generation + 1

    def test_round_trip_through_payload(self):
        table = _table(
            {
                "fused": {("clements", 8, 16): 1e-3, ("reck", 16, 128): 2e-2},
                "looped": {("clements", 8, 16): 5e-3},
            }
        )
        table.observe("fused", 8, 16, 8, seconds=2e-3)
        clone = CostTable.from_payload(table.to_payload())
        assert clone.grid == table.grid
        assert clone.observed == table.observed
        assert clone.fingerprint == table.fingerprint

    def test_save_load_round_trip(self, tmp_path):
        table = _table({"fused": {("clements", 8, 16): 1e-3}})
        path = tmp_path / "cost.json"
        table.save(path)
        loaded = CostTable.load(path)
        assert loaded.grid == table.grid

    def test_load_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text("{not json")
        with pytest.raises(CostTableError):
            CostTable.load(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({"schema": 999, "grid": []}))
        with pytest.raises(CostTableError, match="stale"):
            CostTable.load(path)

    def test_load_rejects_empty_grid(self, tmp_path):
        table = CostTable(fingerprint={})
        path = tmp_path / "cost.json"
        path.write_text(json.dumps(table.to_payload()))
        with pytest.raises(CostTableError, match="no calibration grid"):
            CostTable.load(path)

    def test_load_rejects_stale_fingerprint(self, tmp_path):
        table = _table({"fused": {("clements", 8, 16): 1e-3}})
        path = tmp_path / "cost.json"
        table.save(path)
        with pytest.raises(CostTableError, match="fingerprint"):
            CostTable.load(path, expected_fingerprint={"machine": "other"})


class TestFingerprint:
    def test_digest_is_stable_and_kernel_sensitive(self):
        base = machine_fingerprint(("fused", "looped"))
        again = machine_fingerprint(("looped", "fused"))  # order-insensitive
        assert fingerprint_digest(base) == fingerprint_digest(again)
        other = machine_fingerprint(("fused", "looped", "numba"))
        assert fingerprint_digest(base) != fingerprint_digest(other)

    def test_cache_path_honors_xdg(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "custom"))
        assert cache_dir() == tmp_path / "custom" / "spnn-repro"
        path = cache_path(machine_fingerprint())
        assert path.parent == cache_dir()
        assert path.name.startswith("cost_table_")

    def test_autotune_enabled_values(self, monkeypatch):
        for off in ("off", "0", "false", "no", "OFF"):
            monkeypatch.setenv("REPRO_AUTOTUNE", off)
            assert not autotune_enabled()
        for on in ("", "on", "1", "yes"):
            monkeypatch.setenv("REPRO_AUTOTUNE", on)
            assert autotune_enabled()


class TestPolicy:
    def test_injected_table_steers_choice(self):
        table = _table(
            {
                "fused": {("clements", 8, 1): 9e-3, ("clements", 8, 1024): 1e-3},
                "looped": {("clements", 8, 1): 1e-4, ("clements", 8, 1024): 9e-1},
            }
        )
        install_table(table)
        small = choose_kernel_name(SweepShape(8, 1, 8), ("fused", "looped"))
        assert small == "looped"
        # At the big shape fused wins — and since fused is already the
        # static head of the candidate list, the policy has no opinion.
        big = choose_kernel_name(SweepShape(8, 1024, 8), ("fused", "looped"))
        assert big is None

    def test_autotune_off_bypasses_table(self, monkeypatch):
        table = _table({"looped": {("clements", 8, 1): 1e-9}})
        install_table(table)
        monkeypatch.setenv("REPRO_AUTOTUNE", "off")
        assert (
            choose_kernel_name(SweepShape(8, 1, 8), ("fused", "looped"))
            is None
        )

    def test_unpredicted_candidate_never_chosen(self):
        table = _table({"fused": {("clements", 8, 1): 1e-3}})
        install_table(table)
        # looped has no prediction; fused (static head) keeps the slot.
        assert (
            choose_kernel_name(SweepShape(8, 1, 8), ("fused", "looped"))
            is None
        )

    def test_env_pin_always_wins_over_table(self, monkeypatch):
        table = _table(
            {
                "fused": {("clements", 8, 1): 9e-3},
                "looped": {("clements", 8, 1): 1e-9},
            }
        )
        install_table(table)
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "fused")
        kernel = select_sweep_kernel(SweepShape(8, 1, 8))
        assert kernel.name == "fused"

    def test_select_uses_table_with_shape_hint(self):
        table = _table(
            {
                "fused": {("clements", 8, 1): 9e-3},
                "looped": {("clements", 8, 1): 1e-9},
            }
        )
        install_table(table)
        assert select_sweep_kernel(SweepShape(8, 1, 8)).name == "looped"
        assert select_sweep_kernel().name == "fused", (
            "unhinted selection keeps the static preference order"
        )

    def test_corrupt_cache_file_warns_and_falls_back(self):
        path = cache_path(machine_fingerprint(_available_host_kernels()))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{definitely not json")
        with pytest.warns(RuntimeWarning, match="unusable autotune cache"):
            assert ensure_table() is None
        # The failure is memoized: selection stays static, no more warnings.
        assert select_sweep_kernel(SweepShape(8, 1, 8)).name == "fused"
        assert ensure_table() is None

    def test_stale_fingerprint_cache_warns_and_falls_back(self):
        stale = CostTable(fingerprint={"machine": "somewhere-else"})
        stale.record_grid("looped", "clements", 8, 1, 8, 1e-9)
        path = cache_path(machine_fingerprint(_available_host_kernels()))
        path.parent.mkdir(parents=True, exist_ok=True)
        stale.save(path)
        with pytest.warns(RuntimeWarning, match="unusable autotune cache"):
            assert ensure_table() is None
        assert select_sweep_kernel(SweepShape(8, 1, 8)).name == "fused"

    def test_feedback_refines_installed_table(self):
        from repro.arrays import apply_column_sweep
        from repro.mesh.mesh import MZIMesh
        from repro.utils import random_unitary

        table = _table({"fused": {("clements", 5, 1): 1e-3}})
        install_table(table)
        mesh = MZIMesh.from_unitary(random_unitary(5, rng=3))
        mesh.matrix()  # one hinted dispatch through the feedback sink
        assert table.observed, "live dispatch must land in the observed layer"
        ((kernel, shapes),) = [(k, v) for k, v in table.observed.items()]
        assert kernel in ("fused", "looped")
        assert all(seconds > 0.0 for seconds in shapes.values())


def _available_host_kernels():
    from repro.arrays.sweep import available_sweep_kernels

    return tuple(available_sweep_kernels())
