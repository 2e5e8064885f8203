"""Tests of artifact persistence (configs, models, array images)."""

import json

import numpy as np
import pytest

from repro.core.config import TDAMConfig
from repro.hdc.quantize import quantize_equal_area
import repro.io
from repro.io import (
    atomic_write,
    config_from_dict,
    config_to_dict,
    export_array_image,
    image_checksum,
    load_array_image,
    load_config,
    load_quantized_model,
    save_config,
    save_quantized_model,
)


@pytest.fixture
def model(rng):
    return quantize_equal_area(rng.normal(size=(5, 300)), bits=2)


class TestConfigRoundtrip:
    def test_default_roundtrip(self, tmp_path):
        config = TDAMConfig()
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_customized_roundtrip(self, tmp_path):
        config = TDAMConfig.fig8_system().with_(c_load_f=12e-15, bits=3)
        path = tmp_path / "config.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config
        assert loaded.vth_levels == config.vth_levels

    def test_nested_params_preserved(self):
        config = TDAMConfig(
            tech=TDAMConfig().tech.scaled(kp_n=123e-6)
        )
        assert config_from_dict(config_to_dict(config)).tech.kp_n == 123e-6

    def test_unknown_format_rejected(self):
        payload = config_to_dict(TDAMConfig())
        payload["_format"] = 99
        with pytest.raises(ValueError, match="format"):
            config_from_dict(payload)

    def test_json_is_human_readable(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(TDAMConfig(), path)
        payload = json.loads(path.read_text())
        assert payload["bits"] == 2
        assert payload["tech"]["name"] == "umc40-like"


class TestModelRoundtrip:
    def test_levels_and_edges_preserved(self, tmp_path, model):
        path = tmp_path / "model.npz"
        save_quantized_model(model, path, metadata={"dataset": "isolet"})
        loaded, metadata = load_quantized_model(path)
        assert np.array_equal(loaded.levels, model.levels)
        assert np.allclose(loaded.edges, model.edges)
        assert np.allclose(loaded.centers, model.centers)
        assert loaded.bits == 2
        assert metadata["dataset"] == "isolet"

    def test_malformed_edges_refused(self, tmp_path, model):
        # A file whose edges the level rule cannot count (here out of
        # order) is refused when the model is rebuilt, not at query time.
        path = tmp_path / "model.npz"
        save_quantized_model(model, path)
        with np.load(path) as data:
            fields = {name: data[name] for name in data.files}
        fields["edges"] = fields["edges"][::-1].copy()
        np.savez_compressed(path, **fields)
        with pytest.raises(ValueError, match="strictly increasing"):
            load_quantized_model(path)

    def test_loaded_model_quantizes_queries_identically(self, tmp_path,
                                                        model, rng):
        path = tmp_path / "model.npz"
        save_quantized_model(model, path)
        loaded, _ = load_quantized_model(path)
        queries = rng.normal(size=(4, 300))
        assert np.array_equal(
            loaded.quantize_queries(queries), model.quantize_queries(queries)
        )


class TestArrayImage:
    def test_export_pads_to_tiles(self, tmp_path, model):
        config = TDAMConfig(bits=2, n_stages=128)
        path = tmp_path / "image.npz"
        manifest = export_array_image(model, config, path)
        image, loaded_manifest = load_array_image(path)
        assert manifest == loaded_manifest
        assert image.shape == (5, 3 * 128)  # ceil(300/128) = 3 tiles
        # Padding is always-match level 0.
        assert (image[:, 300:] == 0).all()
        assert np.array_equal(image[:, :300], model.levels)

    def test_checksum_detects_corruption(self, tmp_path, model):
        config = TDAMConfig(bits=2, n_stages=128)
        path = tmp_path / "image.npz"
        export_array_image(model, config, path)
        image, manifest = load_array_image(path)
        # Re-save with a flipped cell but the stale checksum.
        image[0, 0] = (image[0, 0] + 1) % 4
        np.savez_compressed(
            path, image=image, manifest=np.array([json.dumps(manifest)])
        )
        with pytest.raises(ValueError, match="checksum"):
            load_array_image(path)

    def test_bits_mismatch_rejected(self, tmp_path, model):
        with pytest.raises(ValueError, match="bits"):
            export_array_image(
                model, TDAMConfig(bits=1, n_stages=128), tmp_path / "x.npz"
            )

    def test_checksum_stability(self, model):
        config_pad = np.zeros((5, 384), dtype=np.int64)
        config_pad[:, :300] = model.levels
        assert image_checksum(config_pad) == image_checksum(config_pad.copy())


class _SimulatedCrash(BaseException):
    pass


class TestAtomicPublish:
    """Every artifact write is publish-or-nothing."""

    def test_atomic_write_round_trip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write(path, lambda handle: handle.write(b"payload"))
        assert path.read_bytes() == b"payload"
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "blob.bin"

        def explode(handle):
            handle.write(b"partial")
            raise RuntimeError("payload writer died")

        with pytest.raises(RuntimeError):
            atomic_write(path, explode)
        assert not path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_before_replace_keeps_old_config(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "config.json"
        save_config(TDAMConfig(), path)
        before = path.read_bytes()

        def crash(tmp, dst):
            raise _SimulatedCrash()

        monkeypatch.setattr(repro.io, "_REPLACE", crash)
        with pytest.raises(_SimulatedCrash):
            save_config(TDAMConfig(bits=3), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_config(path) == TDAMConfig()
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_before_replace_keeps_old_model(self, tmp_path, model,
                                                  monkeypatch, rng):
        path = tmp_path / "model.npz"
        save_quantized_model(model, path, metadata={"generation": 1})

        def crash(tmp, dst):
            raise _SimulatedCrash()

        monkeypatch.setattr(repro.io, "_REPLACE", crash)
        other = quantize_equal_area(rng.normal(size=(5, 300)), bits=2)
        with pytest.raises(_SimulatedCrash):
            save_quantized_model(other, path, metadata={"generation": 2})
        monkeypatch.undo()
        loaded, metadata = load_quantized_model(path)
        assert metadata["generation"] == 1
        assert np.array_equal(loaded.levels, model.levels)

    def test_saved_npz_bits_are_reload_stable(self, tmp_path, model):
        # Same model saved twice loads to identical arrays (bit
        # identity of the payload round trip).
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_quantized_model(model, a)
        save_quantized_model(model, b)
        la, _ = load_quantized_model(a)
        lb, _ = load_quantized_model(b)
        assert np.array_equal(la.levels, lb.levels)
        assert np.array_equal(la.edges, lb.edges)
        assert np.array_equal(la.centers, lb.centers)

    def test_temp_files_land_in_destination_dir(self, tmp_path):
        # Atomicity of os.replace requires same-filesystem temp files.
        observed = {}

        def spy(tmp, dst):
            observed["tmp_dir"] = str(repro.io.Path(tmp).parent)
            raise _SimulatedCrash()

        original = repro.io._REPLACE
        repro.io._REPLACE = spy
        try:
            with pytest.raises(_SimulatedCrash):
                atomic_write(
                    tmp_path / "x.bin", lambda handle: handle.write(b"x")
                )
        finally:
            repro.io._REPLACE = original
        assert observed["tmp_dir"] == str(tmp_path)


class TestPresets:
    def test_paper_default(self):
        assert TDAMConfig.paper_default() == TDAMConfig()

    def test_fig8_system(self):
        config = TDAMConfig.fig8_system()
        assert config.n_stages == 128
        assert config.vdd == 0.6
        assert config.bits == 2
