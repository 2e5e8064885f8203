"""Persistence: save/load configs, quantized models, and array images.

A deployed TD-AM system needs its artifacts on disk: the design point
(for the controller), the quantized class hypervectors (the array image),
and the quantization edges (for the query path).  This module provides a
single-file NPZ container for the model artifacts and JSON round-tripping
for configurations:

- :func:`save_config` / :func:`load_config` -- :class:`TDAMConfig` as
  JSON (device/tech parameter sets included),
- :func:`save_quantized_model` / :func:`load_quantized_model` -- a
  :class:`~repro.hdc.quantize.QuantizedModel` plus optional metadata as a
  compressed ``.npz``,
- :func:`export_array_image` -- the row-major level matrix a programming
  controller consumes, with a checksum for write verification.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

import numpy as np

from repro.core.config import TDAMConfig
from repro.devices.fefet import FeFETParams
from repro.devices.params import TechnologyParams

if TYPE_CHECKING:
    from repro.hdc.quantize import QuantizedModel

PathLike = Union[str, Path]

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "save_quantized_model",
    "load_quantized_model",
    "export_array_image",
    "load_array_image",
    "image_checksum",
    "atomic_write",
]

#: Format tag written into every artifact for forward compatibility.
FORMAT_VERSION = 1

#: The publish step of :func:`atomic_write`.  Kept as a module attribute
#: so the chaos harness and crash tests can intercept it to simulate a
#: process dying between the temp-file write and the rename.
_REPLACE = os.replace


def atomic_write(
    path: PathLike, write_payload: Callable[[Any], None]
) -> None:
    """Crash-safe single-file publish: temp write, fsync, ``os.replace``.

    ``write_payload(handle)`` streams the artifact into a temporary file
    created *in the destination directory* (so the final rename never
    crosses a filesystem), the file is fsynced, and only then atomically
    renamed over ``path``.  A crash at any point -- mid-write, or between
    the temp write and the replace -- leaves the previous artifact at
    ``path`` intact; the orphaned temp file is removed on error when the
    process survives to do so.

    Args:
        path: Final artifact location.
        write_payload: Callback receiving a binary file handle.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write_payload(handle)
            handle.flush()
            os.fsync(handle.fileno())
        _REPLACE(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------
def config_to_dict(config: TDAMConfig) -> Dict[str, Any]:
    """A JSON-serializable dict of a design point."""
    payload = dataclasses.asdict(config)
    payload["tech"] = dataclasses.asdict(config.tech)
    payload["fefet"] = dataclasses.asdict(config.fefet)
    payload["_format"] = FORMAT_VERSION
    return payload


def config_from_dict(payload: Dict[str, Any]) -> TDAMConfig:
    """Rebuild a design point from :func:`config_to_dict` output."""
    payload = dict(payload)
    version = payload.pop("_format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported config format {version} (supported: {FORMAT_VERSION})"
        )
    tech = TechnologyParams(**payload.pop("tech"))
    fefet = FeFETParams(**payload.pop("fefet"))
    payload["vth_window"] = tuple(payload["vth_window"])
    return TDAMConfig(tech=tech, fefet=fefet, **payload)


def save_config(config: TDAMConfig, path: PathLike) -> None:
    """Write a design point as JSON (atomically, see :func:`atomic_write`)."""
    payload = json.dumps(config_to_dict(config), indent=2).encode()
    atomic_write(path, lambda handle: handle.write(payload))


def load_config(path: PathLike) -> TDAMConfig:
    """Read a design point written by :func:`save_config`."""
    return config_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Quantized models
# ----------------------------------------------------------------------
def save_quantized_model(
    model: QuantizedModel,
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a quantized model (levels, edges, centers) as ``.npz``.

    Args:
        model: The quantized model.
        metadata: Optional JSON-serializable extras (dataset name,
            accuracy, training seed, ...), stored alongside.
    """
    meta = dict(metadata or {})
    meta["_format"] = FORMAT_VERSION
    atomic_write(
        path,
        lambda handle: np.savez_compressed(
            handle,
            levels=model.levels,
            edges=model.edges,
            centers=model.centers,
            bits=np.array([model.bits]),
            method=np.array([model.method]),
            metadata=np.array([json.dumps(meta)]),
        ),
    )


def load_quantized_model(
    path: PathLike,
) -> "tuple[QuantizedModel, Dict[str, Any]]":
    """Read a model written by :func:`save_quantized_model`.

    Returns:
        ``(model, metadata)``.
    """
    from repro.hdc.quantize import QuantizedModel

    with np.load(Path(path), allow_pickle=False) as data:
        metadata = json.loads(str(data["metadata"][0]))
        version = metadata.pop("_format", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format {version} "
                f"(supported: {FORMAT_VERSION})"
            )
        model = QuantizedModel(
            levels=data["levels"].astype(np.int64),
            edges=data["edges"].astype(float),
            centers=data["centers"].astype(float),
            bits=int(data["bits"][0]),
            method=str(data["method"][0]),
        )
    return model, metadata


# ----------------------------------------------------------------------
# Array images
# ----------------------------------------------------------------------
def image_checksum(levels: np.ndarray) -> str:
    """Content checksum of an array image (write verification)."""
    canonical = np.ascontiguousarray(levels, dtype=np.int64)
    return hashlib.sha256(canonical.tobytes()).hexdigest()[:16]


def export_array_image(
    model: QuantizedModel,
    config: TDAMConfig,
    path: PathLike,
) -> Dict[str, Any]:
    """Write the tile-padded array image the programmer consumes.

    Pads the model's dimension up to whole tiles of ``config.n_stages``
    with always-match level 0 (the padding convention of the mapping
    layer) and records a checksum.

    Returns:
        The manifest (also embedded in the file).
    """
    if model.bits != config.bits:
        raise ValueError(
            f"model bits {model.bits} != config bits {config.bits}"
        )
    n_stages = config.n_stages
    n_tiles = -(-model.dimension // n_stages)
    padded = np.zeros((model.n_classes, n_tiles * n_stages), dtype=np.int64)
    padded[:, : model.dimension] = model.levels
    manifest = {
        "_format": FORMAT_VERSION,
        "n_classes": model.n_classes,
        "dimension": model.dimension,
        "n_tiles": n_tiles,
        "n_stages": n_stages,
        "bits": model.bits,
        "checksum": image_checksum(padded),
    }
    atomic_write(
        path,
        lambda handle: np.savez_compressed(
            handle,
            image=padded,
            manifest=np.array([json.dumps(manifest)]),
        ),
    )
    return manifest


def load_array_image(path: PathLike) -> "tuple[np.ndarray, Dict[str, Any]]":
    """Read an array image; verifies the checksum.

    Returns:
        ``(image, manifest)``.

    Raises:
        ValueError: on checksum mismatch (corrupted artifact).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        image = data["image"].astype(np.int64)
        manifest = json.loads(str(data["manifest"][0]))
    if image_checksum(image) != manifest["checksum"]:
        raise ValueError(f"array image {path} failed its checksum")
    return image, manifest
