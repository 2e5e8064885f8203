"""Bit-plane store: round trips, crash safety, corruption detection."""

import json

import numpy as np
import pytest

import repro.io
from repro.core.bitplane import (
    pack_bit_planes,
    packed_pair_counts,
    packed_stage_bytes,
)
from repro.core.config import TDAMConfig
from repro.index import (
    BitPlaneStore,
    ClusteredTDAMIndex,
    StoreCorruptionError,
    StoreManifestError,
    build_store,
)
from repro.index.store import MANIFEST_NAME


@pytest.fixture
def config():
    return TDAMConfig(n_stages=32)


@pytest.fixture
def corpus(rng, config):
    return rng.integers(
        0, config.levels, size=(64, config.n_stages)
    ).astype(np.int64)


class _SimulatedCrash(BaseException):
    """Out of the Exception tree so nothing accidentally swallows it."""


class TestRoundTrip:
    def test_single_shard_round_trip(self, tmp_path, corpus, config):
        store = build_store(tmp_path / "s", corpus, config)
        assert store.n_rows == 64
        assert store.n_shards == 1
        shard = store.shard(0)
        assert np.array_equal(shard.levels, corpus.astype(np.uint8))
        assert np.array_equal(shard.row_ids, np.arange(64))
        expected = pack_bit_planes(corpus, config.bits)
        assert np.array_equal(store.planes, expected)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_planes_are_stored_level_bits(self, tmp_path, rng, bits):
        config = TDAMConfig(bits=bits, n_stages=37)
        corpus = rng.integers(0, config.levels, size=(50, 37))
        store = build_store(tmp_path / "s", corpus, config)
        assert store.planes.dtype == np.uint8
        assert np.array_equal(store.planes, pack_bit_planes(corpus, bits))
        width = packed_stage_bytes(37)
        assert store.planes.nbytes == bits * 50 * width
        assert (tmp_path / "s" / "g000000.planes").stat().st_size == (
            bits * width * 50
        )
        if bits == 2:
            # Format 1 held one inequality plane per level: twice this.
            assert 2 * store.planes.nbytes == config.levels * 50 * width

    def test_reopen_without_repacking(self, tmp_path, corpus, config):
        built = build_store(tmp_path / "s", corpus, config)
        reopened = BitPlaneStore(tmp_path / "s")
        assert reopened.generation == built.generation
        assert np.array_equal(reopened.planes, built.planes)

    def test_clustered_shards_partition_the_corpus(
        self, tmp_path, corpus, config, rng
    ):
        assignments = rng.integers(0, 4, size=64)
        cents = rng.integers(
            0, config.levels, size=(4, config.n_stages)
        ).astype(np.uint8)
        store = build_store(
            tmp_path / "s", corpus, config,
            assignments=assignments, centroid_levels=cents,
        )
        seen = []
        offset = 0
        for i in range(store.n_shards):
            shard = store.shard(i)
            ids = np.asarray(shard.row_ids)
            # Shards are consecutive runs of the corpus components, in
            # cluster order, with ascending global ids.
            assert shard.offset == offset
            offset += shard.n_rows
            assert np.all(np.diff(ids) > 0)
            assert np.array_equal(
                shard.levels, corpus[ids].astype(np.uint8)
            )
            assert np.all(assignments[ids] == shard.cluster)
            seen.append(ids)
        assert np.all(np.diff(store.shard_clusters) > 0)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(64))
        assert np.array_equal(store.centroid_levels, cents)
        # One planes component, packed from the shard-ordered levels.
        ordered = corpus[np.asarray(store.row_ids)]
        assert np.array_equal(
            store.planes, pack_bit_planes(ordered, config.bits)
        )

    def test_memmapped_planes_feed_the_packed_kernels(
        self, tmp_path, corpus, config, rng
    ):
        store = build_store(tmp_path / "s", corpus, config)
        queries = rng.integers(
            0, config.levels, size=(5, config.n_stages)
        )
        planes = store.planes
        assert isinstance(planes, np.memmap)
        rows = rng.integers(0, 64, size=(5, 20))
        counts = packed_pair_counts(
            planes, pack_bit_planes(queries, config.bits), rows
        )
        expected = (queries[:, None, :] != corpus[rows]).sum(axis=2)
        assert np.array_equal(counts, expected)

    def test_shards_map_lazily(self, tmp_path, corpus, config, rng):
        assignments = rng.integers(0, 4, size=64)
        cents = rng.integers(
            0, config.levels, size=(4, config.n_stages)
        ).astype(np.uint8)
        build_store(
            tmp_path / "s", corpus, config,
            assignments=assignments, centroid_levels=cents,
        )
        store = BitPlaneStore(tmp_path / "s")
        index = ClusteredTDAMIndex(store, nprobe=1)
        assert store.n_mapped_shards == 0
        # Every shard lives in every corpus component, so the first
        # probe maps them all at once.
        index.top_k(corpus[:2], 3)
        assert store.n_mapped_shards == store.n_shards == 4

    def test_rebuild_bumps_generation_and_collects_stale(
        self, tmp_path, corpus, config
    ):
        first = build_store(tmp_path / "s", corpus, config)
        second = build_store(tmp_path / "s", corpus[:32], config)
        assert second.generation == first.generation + 1
        assert not list((tmp_path / "s").glob("g000000.*"))
        assert second.n_rows == 32

    def test_rebuild_leaves_foreign_files_alone(
        self, tmp_path, corpus, config
    ):
        root = tmp_path / "s"
        root.mkdir()
        foreign = {
            "notes.txt": b"keep me",
            "results.csv": b"a,b\n1,2\n",
            "g1.txt": b"not a generation file",
        }
        for name, data in foreign.items():
            (root / name).write_bytes(data)
        build_store(root, corpus, config)
        build_store(root, corpus[:32], config)
        for name, data in foreign.items():
            assert (root / name).read_bytes() == data
        assert not list(root.glob("g000000.*"))
        assert sorted(p.name for p in root.glob("g000001.*")) == [
            "g000001.levels", "g000001.planes", "g000001.rows",
        ]


class TestValidation:
    def test_stage_mismatch_rejected(self, tmp_path, corpus, config):
        with pytest.raises(ValueError, match="stages"):
            build_store(
                tmp_path / "s", corpus[:, :16], config
            )

    @pytest.mark.parametrize(
        "levels,message",
        [
            (lambda c: c - 1, r"levels matrix elements must be in \[0, 3\], "
                              r"got range \[-1, 2\]"),
            (lambda c: c + 1, r"must be in \[0, 3\], got range \[1, 4\]"),
            (lambda c: c + 0.5, "levels matrix elements must be integers"),
            (lambda c: c[0], "expected a 2-D levels matrix"),
        ],
        ids=["negative", "too_high", "non_integral", "one_d"],
    )
    def test_invalid_levels_rejected(
        self, tmp_path, corpus, config, levels, message
    ):
        with pytest.raises(ValueError, match=message):
            build_store(tmp_path / "s", levels(corpus.astype(np.int64)), config)

    def test_integral_floats_store_as_uint8_levels(
        self, tmp_path, corpus, config
    ):
        store = build_store(tmp_path / "s", corpus.astype(float), config)
        assert store.shard(0).levels.dtype == np.uint8
        assert np.array_equal(store.shard(0).levels, corpus)

    def test_bad_assignment_shape_rejected(self, tmp_path, corpus, config):
        with pytest.raises(ValueError, match="assignments"):
            build_store(
                tmp_path / "s", corpus, config,
                assignments=np.zeros(3, dtype=np.int64),
            )

    def test_assignment_beyond_centroids_rejected(
        self, tmp_path, corpus, config
    ):
        cents = np.zeros((2, config.n_stages), dtype=np.uint8)
        with pytest.raises(ValueError, match="centroids"):
            build_store(
                tmp_path / "s", corpus, config,
                assignments=np.full(64, 5, dtype=np.int64),
                centroid_levels=cents,
            )


class TestCrashSafety:
    def _crash_on_manifest(self, monkeypatch):
        original = repro.io._REPLACE

        def crash(tmp, dst):
            if str(dst).endswith(MANIFEST_NAME):
                raise _SimulatedCrash()
            return original(tmp, dst)

        monkeypatch.setattr(repro.io, "_REPLACE", crash)

    def test_crash_before_manifest_keeps_previous_generation(
        self, tmp_path, corpus, config, monkeypatch
    ):
        root = tmp_path / "s"
        build_store(root, corpus, config)
        before = BitPlaneStore(root)
        planes_before = np.array(before.planes)
        self._crash_on_manifest(monkeypatch)
        with pytest.raises(_SimulatedCrash):
            build_store(root, corpus[:16], config)
        monkeypatch.undo()
        after = BitPlaneStore(root)
        assert after.generation == before.generation
        assert after.n_rows == 64
        assert np.array_equal(after.planes, planes_before)

    def test_crash_mid_components_keeps_previous_generation(
        self, tmp_path, corpus, config, monkeypatch
    ):
        root = tmp_path / "s"
        build_store(root, corpus, config)
        before = json.loads((root / MANIFEST_NAME).read_text())

        def crash(tmp, dst):
            raise _SimulatedCrash()

        monkeypatch.setattr(repro.io, "_REPLACE", crash)
        with pytest.raises(_SimulatedCrash):
            build_store(root, corpus[:16], config)
        monkeypatch.undo()
        assert json.loads((root / MANIFEST_NAME).read_text()) == before
        store = BitPlaneStore(root)
        assert store.n_rows == 64
        # The interrupted generation's components must still verify for
        # the *published* generation -- the probe path works unchanged.
        assert store.planes.shape[0] == config.bits

    def test_crash_on_first_build_leaves_no_store(
        self, tmp_path, corpus, config, monkeypatch
    ):
        root = tmp_path / "s"
        self._crash_on_manifest(monkeypatch)
        with pytest.raises(_SimulatedCrash):
            build_store(root, corpus, config)
        monkeypatch.undo()
        with pytest.raises(StoreManifestError, match="manifest"):
            BitPlaneStore(root)


class TestCorruptionDetection:
    def test_flipped_plane_byte_raises_typed_error(
        self, tmp_path, corpus, config
    ):
        build_store(tmp_path / "s", corpus, config)
        victim = next((tmp_path / "s").glob("*.planes"))
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        store = BitPlaneStore(tmp_path / "s")
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.planes

    def test_truncated_component_raises_typed_error(
        self, tmp_path, corpus, config
    ):
        build_store(tmp_path / "s", corpus, config)
        victim = next((tmp_path / "s").glob("*.rows"))
        victim.write_bytes(victim.read_bytes()[:-8])
        store = BitPlaneStore(tmp_path / "s")
        with pytest.raises(StoreCorruptionError, match="bytes"):
            store.shard(0).row_ids

    def test_missing_component_raises_typed_error(
        self, tmp_path, corpus, config
    ):
        build_store(tmp_path / "s", corpus, config)
        next((tmp_path / "s").glob("*.levels")).unlink()
        store = BitPlaneStore(tmp_path / "s")
        with pytest.raises(StoreCorruptionError, match="missing"):
            store.shard(0).levels

    def test_garbage_manifest_raises_manifest_error(
        self, tmp_path, corpus, config
    ):
        build_store(tmp_path / "s", corpus, config)
        (tmp_path / "s" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreManifestError, match="JSON"):
            BitPlaneStore(tmp_path / "s")

    def test_unsupported_format_raises_manifest_error(
        self, tmp_path, corpus, config
    ):
        build_store(tmp_path / "s", corpus, config)
        payload = json.loads(
            (tmp_path / "s" / MANIFEST_NAME).read_text()
        )
        payload["format"] = 99
        (tmp_path / "s" / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreManifestError, match="format"):
            BitPlaneStore(tmp_path / "s")

    def test_row_sum_mismatch_raises_manifest_error(
        self, tmp_path, corpus, config
    ):
        build_store(tmp_path / "s", corpus, config)
        payload = json.loads(
            (tmp_path / "s" / MANIFEST_NAME).read_text()
        )
        payload["geometry"]["n_rows"] = 63
        (tmp_path / "s" / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreManifestError, match="sum"):
            BitPlaneStore(tmp_path / "s")


def _edit_manifest(root, edit):
    path = root / MANIFEST_NAME
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _component(payload, kind):
    return payload["components"][kind]


def _reshape(payload, kind, shape, dtype="uint8"):
    spec = _component(payload, kind)
    spec["shape"] = list(shape)
    spec["dtype"] = dtype
    spec["nbytes"] = int(np.prod(shape)) * np.dtype(dtype).itemsize


def _set_rows(payload, n_rows):
    payload["shards"][0]["n_rows"] = n_rows
    payload["geometry"]["n_rows"] = sum(
        shard["n_rows"] for shard in payload["shards"]
    )


def _shape(payload, kind):
    return _component(payload, kind)["shape"]


#: (case, manifest edit, expected message) -- each edit leaves a
#: manifest that parses but disagrees with itself.
_INCONSISTENT = [
    ("format_1", lambda p: p.update(format=1), "format 3"),
    ("format_2", lambda p: p.update(format=2), "format 3"),
    (
        "repeated_cluster",
        lambda p: p["shards"][1].update(cluster=p["shards"][0]["cluster"]),
        "named by 2 shards",
    ),
    (
        "negative_cluster",
        lambda p: p["shards"][0].update(cluster=-1),
        "cluster -1; neither may be negative",
    ),
    (
        "cluster_beyond_centroids",
        lambda p: p["shards"][0].update(cluster=4),
        "4 centroids",
    ),
    (
        "permuted_planes",
        lambda p: _reshape(
            p, "planes", [_shape(p, "planes")[i] for i in (1, 0, 2)]
        ),
        "planes component",
    ),
    (
        "level_planes",
        lambda p: _reshape(p, "planes", [4] + _shape(p, "planes")[1:]),
        "planes component",
    ),
    (
        "planes_byte_width",
        lambda p: _reshape(p, "planes", _shape(p, "planes")[:2] + [16]),
        "planes component",
    ),
    (
        "planes_dtype",
        lambda p: _component(p, "planes").update(dtype="int8"),
        "planes component",
    ),
    (
        "planes_nbytes",
        lambda p: _component(p, "planes").update(
            nbytes=_component(p, "planes")["nbytes"] + 8
        ),
        "planes component",
    ),
    (
        "rows_disagree_with_n_rows",
        lambda p: _set_rows(p, p["shards"][0]["n_rows"] + 1),
        "planes component",
    ),
    (
        "negative_n_rows",
        lambda p: _set_rows(p, -3),
        "shard 0 has -3 rows",
    ),
    (
        "row_ids_dtype",
        lambda p: _component(p, "rows").update(dtype="float64"),
        "rows component",
    ),
    (
        "row_ids_length",
        lambda p: _reshape(
            p, "rows", [_shape(p, "rows")[0] - 1], dtype="int64"
        ),
        "rows component",
    ),
    (
        "levels_stages",
        lambda p: _reshape(p, "levels", [_shape(p, "levels")[0], 33]),
        "levels component",
    ),
    (
        "missing_component",
        lambda p: p["components"].pop("levels"),
        "structurally invalid",
    ),
    (
        "centroid_stages",
        lambda p: p["centroids"].update(
            shape=[4, 31], nbytes=4 * 31
        ),
        "centroids",
    ),
]


class TestManifestConsistency:
    """Opening refuses a manifest that disagrees with itself: the
    search lays its candidates out from the recorded geometry."""

    @pytest.fixture
    def clustered(self, tmp_path, corpus, config):
        cents = corpus[:4].astype(np.uint8)
        build_store(
            tmp_path / "s", corpus, config,
            assignments=np.arange(64, dtype=np.int64) % 4,
            centroid_levels=cents,
        )
        return tmp_path / "s"

    def test_consistent_manifest_opens(self, clustered):
        store = BitPlaneStore(clustered)
        assert sorted(store.shard_clusters.tolist()) == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "edit,message",
        [case[1:] for case in _INCONSISTENT],
        ids=[case[0] for case in _INCONSISTENT],
    )
    def test_inconsistent_manifest_raises_manifest_error(
        self, clustered, edit, message
    ):
        _edit_manifest(clustered, edit)
        with pytest.raises(StoreManifestError, match=message):
            BitPlaneStore(clustered)
