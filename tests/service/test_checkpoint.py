"""Tests of crash-safe checkpoint/restore for resilient shards."""

import numpy as np
import pytest

import repro.io as rio
from repro.core.config import TDAMConfig
from repro.devices.variation import VariationModel
from repro.hdc.quantize import quantize_equal_area
from repro.resilience.resilient import ResilientTDAMArray
from repro.service import (
    CheckpointCorruptError,
    CheckpointNotFoundError,
    ServiceCheckpointer,
)
from repro.telemetry.state import enabled_scope


@pytest.fixture
def config():
    return TDAMConfig(n_stages=16)


@pytest.fixture
def stored(config):
    return np.random.default_rng(5).integers(
        0, config.levels, size=(6, config.n_stages)
    )


def make_array(config, stored, seed=9):
    array = ResilientTDAMArray(
        config,
        n_rows=stored.shape[0],
        n_spares=2,
        variation=VariationModel(seed=seed),
    )
    array.write_all(stored)
    return array


def corrupt(path):
    blob = bytearray(path.read_bytes())
    for i in range(64, min(2048, len(blob)), 17):
        blob[i] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestRoundTrip:
    def test_restore_is_bit_identical(self, tmp_path, config, stored):
        array = make_array(config, stored)
        queries = np.random.default_rng(6).integers(
            0, config.levels, size=(5, config.n_stages)
        )
        reference = array.search_batch(queries)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        # A fresh array with a *different* variation stream: only a
        # bit-exact state transplant can reproduce the reference delays.
        target = make_array(config, stored[::-1].copy(), seed=1234)
        ckpt.restore(target)
        replay = target.search_batch(queries)
        assert np.array_equal(replay.best_rows, reference.best_rows)
        assert np.array_equal(replay.delays_s, reference.delays_s)
        assert np.array_equal(target._shadow, stored)

    def test_repair_state_survives(self, tmp_path, config, stored):
        from repro.core.faults import Fault, FaultType

        array = ResilientTDAMArray(
            config,
            n_rows=stored.shape[0],
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=1, stage=None)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        # Row 1 is remapped onto the first spare.
        assert np.array_equal(array._map, [0, 6, 2, 3, 4, 5])
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        target = ResilientTDAMArray(
            config, n_rows=stored.shape[0], n_spares=2
        )
        ckpt.restore(target)
        assert np.array_equal(target._map, array._map)
        assert np.array_equal(target._free_spares, array._free_spares)
        assert np.array_equal(target._retired_mask, array._retired_mask)

    def test_saved_repair_entries(self, tmp_path, config, stored):
        from repro.core.faults import Fault, FaultType

        # Data rows 1 and 3 and spare 7 dead: row 1 is remapped onto
        # spare 6, row 3 is retired, and the dead spare stays unused.
        array = ResilientTDAMArray(
            config,
            n_rows=stored.shape[0],
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=r) for r in (1, 3, 7)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        expected = {
            "row_map": np.array([0, 6, 2, 3, 4, 5], dtype=np.int64),
            "free_spares": np.array([7], dtype=np.int64),
            "retired": np.array([3], dtype=np.int64),
        }
        with np.load(ckpt.path, allow_pickle=False) as data:
            for name, want in expected.items():
                assert data[name].dtype == want.dtype, name
                assert np.array_equal(data[name], want), name
        target = ResilientTDAMArray(
            config, n_rows=stored.shape[0], n_spares=2
        )
        ckpt.restore(target)
        assert target.health_report().retired_rows == (3,)
        assert target._free_spares == [7]
        assert np.array_equal(target._map, expected["row_map"])

    def test_restored_remap_is_not_pristine(self, tmp_path, config, stored):
        from repro.core.faults import Fault, FaultType

        array = ResilientTDAMArray(
            config,
            n_rows=stored.shape[0],
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=1, stage=None)],
        )
        array.write_all(stored)
        array.self_test_and_repair()
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        # A fault-free target: only the restored map keeps it off the
        # pristine path, whose physical rows 0..n-1 miss the spare.
        target = ResilientTDAMArray(
            config, n_rows=stored.shape[0], n_spares=2
        )
        target.write_all(stored)
        assert target._is_pristine()
        ckpt.restore(target)
        assert not target._is_pristine()
        queries = np.concatenate([
            stored,
            np.random.default_rng(7).integers(
                0, config.levels, size=(5, config.n_stages)
            ),
        ])
        assert np.array_equal(
            target.top_k_batch(queries, 3).rows,
            target.search_batch(queries).top_k(3),
        )

    def test_model_round_trip(self, tmp_path, config, stored, rng):
        model = quantize_equal_area(rng.normal(size=(4, 64)), bits=2)
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array, model=model, metadata={"note": "with model"})
        info, loaded = ckpt.restore(make_array(config, stored))
        assert info.metadata["note"] == "with model"
        assert loaded is not None
        assert np.array_equal(loaded.levels, model.levels)
        assert np.allclose(loaded.edges, model.edges)

    def test_malformed_model_rejected_before_restore(
        self, tmp_path, config, stored, rng
    ):
        # The model fields sit outside the payload checksum; a model
        # with too few edges for its bits is refused as corrupt before
        # the target array is touched, and restore_latest falls back.
        model = quantize_equal_area(rng.normal(size=(4, 64)), bits=2)
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array, model=model, trigger="good")
        ckpt.save(array, model=model, trigger="bad")
        with np.load(ckpt.path) as data:
            fields = {name: data[name] for name in data.files}
        fields["model_edges"] = fields["model_edges"][:2].copy()
        np.savez(ckpt.path, **fields)
        target = make_array(config, stored[::-1].copy())
        before = target._shadow.copy()
        with pytest.raises(CheckpointCorruptError, match="malformed model"):
            ckpt.restore(target)
        assert np.array_equal(target._shadow, before)
        info, loaded = ckpt.restore_latest(target)
        assert info.manifest["trigger"] == "good"
        assert np.array_equal(loaded.edges, model.edges)

    def test_geometry_mismatch_rejected(self, tmp_path, config, stored):
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        other = ResilientTDAMArray(config, n_rows=4, n_spares=2)
        with pytest.raises(CheckpointCorruptError, match="geometry"):
            ckpt.restore(other)

    def test_missing_artifact(self, tmp_path, config, stored):
        ckpt = ServiceCheckpointer(tmp_path / "nope.npz")
        with pytest.raises(CheckpointNotFoundError):
            ckpt.restore(make_array(config, stored))


class TestCorruption:
    def test_checksum_mismatch_rejected(self, tmp_path, config, stored):
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        corrupt(ckpt.path)
        with pytest.raises(CheckpointCorruptError):
            ckpt.restore(array)

    def test_restore_latest_falls_back_to_prev(
        self, tmp_path, config, stored
    ):
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array, trigger="first")
        ckpt.save(array, trigger="second")
        corrupt(ckpt.path)
        info, _ = ckpt.restore_latest(array)
        assert info.path == ckpt.previous_path
        assert info.manifest["trigger"] == "first"

    def test_both_corrupt_raises(self, tmp_path, config, stored):
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.save(array)
        ckpt.save(array)
        corrupt(ckpt.path)
        corrupt(ckpt.previous_path)
        with pytest.raises(CheckpointCorruptError):
            ckpt.restore_latest(array)


class _Crash(BaseException):
    pass


class TestCrashMidSave:
    def test_crash_leaves_previous_snapshot_intact(
        self, tmp_path, config, stored
    ):
        array = make_array(config, stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz",
                                   keep_previous=False)
        ckpt.save(array)
        good = ckpt.path.read_bytes()
        array.write_all(stored[::-1].copy())

        def crash(tmp, dst):
            raise _Crash()

        original = rio._REPLACE
        rio._REPLACE = crash
        try:
            with pytest.raises(_Crash):
                ckpt.save(array)
        finally:
            rio._REPLACE = original
        assert ckpt.path.read_bytes() == good
        assert not list(tmp_path.glob("*.tmp"))
        info, _ = ckpt.restore_latest(array)
        assert np.array_equal(array._shadow, stored)
        assert info.path == ckpt.path


class TestProbeDrivenSnapshots:
    def test_repair_event_triggers_save(self, tmp_path, config, stored):
        from repro.core.faults import Fault, FaultType

        array = ResilientTDAMArray(
            config,
            n_rows=stored.shape[0],
            n_spares=2,
            faults=[Fault(FaultType.DEAD_ROW, row=0, stage=None)],
        )
        array.write_all(stored)
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        with enabled_scope():
            ckpt.attach_probes(array)
            assert not ckpt.path.exists()
            array.self_test_and_repair()
            assert ckpt.path.exists()
            info, _ = ckpt.restore(
                ResilientTDAMArray(config, n_rows=stored.shape[0],
                                   n_spares=2)
            )
            assert info.manifest["trigger"] == "resilience.repair"
            ckpt.detach_probes()
            ckpt.path.unlink()
            array.self_test_and_repair()
            assert not ckpt.path.exists()

    def test_detach_is_idempotent(self, tmp_path, config, stored):
        ckpt = ServiceCheckpointer(tmp_path / "shard.npz")
        ckpt.attach_probes(make_array(config, stored))
        ckpt.detach_probes()
        ckpt.detach_probes()
