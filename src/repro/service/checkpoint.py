"""Crash-safe checkpoint/restore of a resilient shard's full state.

A deployed shard's only durable artifact is its checkpoint; a crash
mid-save must never be able to destroy it.  Three layers of defense:

1. every write goes through :func:`repro.io.atomic_write` (temp file in
   the destination directory, fsync, ``os.replace``) -- a crash between
   the temp write and the publish leaves the previous artifact intact;
2. before publishing a new snapshot the current one is atomically
   copied to ``<path>.prev``, so even a *logically* bad (but
   fully-written) snapshot has a fallback;
3. the payload carries a SHA-256 checksum and a shape manifest;
   :meth:`ServiceCheckpointer.load` rejects any mismatch with
   :class:`~repro.service.errors.CheckpointCorruptError`, and
   :meth:`restore_latest` then falls back to ``.prev``.

The captured state is the *complete* serving state of a
:class:`~repro.resilience.resilient.ResilientTDAMArray` -- shadow image,
row map, spare pool, masked stages, retirement set, drift clocks,
endurance odometers, and the write-time V_TH offsets -- so a restored
shard answers bit-identically to the moment of the snapshot (asserted by
the round-trip tests).

:meth:`attach_probes` subscribes the checkpointer to the
``resilience.repair`` / ``resilience.refresh`` probe points, snapshotting
automatically whenever the closed loop changes the array (telemetry must
be enabled for those probes to fire).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.hdc.quantize import QuantizedModel
from repro.io import FORMAT_VERSION, PathLike, atomic_write
from repro.resilience.resilient import ResilientTDAMArray
from repro.service.errors import (
    CheckpointCorruptError,
    CheckpointNotFoundError,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry.log import get_logger
from repro.telemetry.profile import (
    emit_probe as _emit_probe,
    register_probe,
    unregister_probe,
)
from repro.telemetry.state import STATE as _TM

__all__ = ["ServiceCheckpointer", "CheckpointInfo"]

_log = get_logger(__name__)

_REG = _metrics.get_registry()
_CHECKPOINTS = _REG.counter(
    "service_checkpoints_total",
    "Checkpoint operations, by op (save/restore/reject)",
    labels=("op",),
)

#: Array fields captured in a snapshot, in manifest order.
_ARRAY_FIELDS = (
    "shadow",
    "stored",
    "off_a",
    "off_b",
    "base_off_a",
    "base_off_b",
    "row_age_s",
    "cycles",
    "row_map",
    "free_spares",
    "masked",
    "retired",
)


class CheckpointInfo:
    """Metadata of one loaded/saved snapshot.

    Attributes:
        path: The artifact the snapshot was read from / written to.
        manifest: The embedded manifest (shapes, checksum, trigger).
        metadata: Caller-supplied extras stored at save time.
    """

    def __init__(
        self, path: Path, manifest: Dict[str, Any], metadata: Dict[str, Any]
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.metadata = metadata

    def __repr__(self) -> str:
        return (
            f"CheckpointInfo({self.path.name}, "
            f"trigger={self.manifest.get('trigger')!r})"
        )


def _payload_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every payload array, in fixed field order."""
    digest = hashlib.sha256()
    for name in _ARRAY_FIELDS:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


class ServiceCheckpointer:
    """Snapshots one shard to disk and brings it back after a crash.

    Args:
        path: The snapshot artifact (``.npz``); the previous snapshot
            is kept alongside as ``<path>.prev``.
        keep_previous: Whether to retain the prior snapshot as the
            corruption fallback (on by default).
    """

    def __init__(self, path: PathLike, keep_previous: bool = True) -> None:
        self.path = Path(path)
        self.keep_previous = keep_previous
        self._hooks: List[Tuple[str, Any]] = []

    @property
    def previous_path(self) -> Path:
        """Location of the retained prior snapshot."""
        return self.path.with_name(self.path.name + ".prev")

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def _capture(self, array: ResilientTDAMArray) -> Dict[str, np.ndarray]:
        phys = array._physical
        return {
            "shadow": array._shadow.copy(),
            "stored": phys._stored.copy(),
            "off_a": phys._off_a.copy(),
            "off_b": phys._off_b.copy(),
            "base_off_a": array._base_off_a.copy(),
            "base_off_b": array._base_off_b.copy(),
            "row_age_s": array._row_age_s.copy(),
            "cycles": array._cycles.copy(),
            "row_map": array._map.copy(),
            "free_spares": np.asarray(array._free_spares, dtype=np.int64),
            "masked": np.asarray(array._masked, dtype=np.int64),
            "retired": np.flatnonzero(array._retired_mask).astype(np.int64),
        }

    def save(
        self,
        array: ResilientTDAMArray,
        model: Optional[QuantizedModel] = None,
        metadata: Optional[Dict[str, Any]] = None,
        trigger: str = "manual",
    ) -> CheckpointInfo:
        """Atomically snapshot the shard (and optionally its model).

        The current snapshot (if any) is first preserved as ``.prev``;
        only then is the new one published over ``path``.  A crash at
        any point leaves at least one valid artifact on disk.
        """
        arrays = self._capture(array)
        manifest = {
            "_format": FORMAT_VERSION,
            "n_rows": array.n_rows,
            "n_spares": array.n_spares,
            "n_stages": array.config.n_stages,
            "levels": array.config.levels,
            "searches_since_bist": array._searches_since_bist,
            "has_model": model is not None,
            "trigger": trigger,
            "checksum": _payload_checksum(arrays),
        }
        meta = dict(metadata or {})
        payload = dict(arrays)
        payload["manifest"] = np.array([json.dumps(manifest)])
        payload["metadata"] = np.array([json.dumps(meta)])
        if model is not None:
            payload["model_levels"] = model.levels
            payload["model_edges"] = model.edges
            payload["model_centers"] = model.centers
            payload["model_bits"] = np.array([model.bits])
            payload["model_method"] = np.array([model.method])
        if self.keep_previous and self.path.exists():
            current = self.path.read_bytes()
            atomic_write(
                self.previous_path, lambda handle: handle.write(current)
            )
        atomic_write(
            self.path,
            lambda handle: np.savez_compressed(handle, **payload),
        )
        if _TM.enabled:
            _CHECKPOINTS.inc(op="save")
            _emit_probe(
                "service.checkpoint",
                op="save",
                trigger=trigger,
                path=str(self.path),
            )
            _log.info(
                "checkpoint saved",
                extra={"path": str(self.path), "trigger": trigger},
            )
        return CheckpointInfo(self.path, manifest, meta)

    # ------------------------------------------------------------------
    # Load / restore
    # ------------------------------------------------------------------
    def load(
        self, path: Optional[PathLike] = None
    ) -> Tuple[Dict[str, np.ndarray], CheckpointInfo]:
        """Read and checksum-verify one snapshot artifact.

        Raises:
            CheckpointNotFoundError: No artifact at the location.
            CheckpointCorruptError: Unreadable container, missing
                fields, checksum mismatch, or a malformed model.
        """
        target = Path(path) if path is not None else self.path
        if not target.exists():
            raise CheckpointNotFoundError(f"no checkpoint at {target}")
        try:
            with np.load(target, allow_pickle=False) as data:
                arrays = {
                    name: np.array(data[name]) for name in _ARRAY_FIELDS
                }
                manifest = json.loads(str(data["manifest"][0]))
                metadata = json.loads(str(data["metadata"][0]))
                model_arrays = None
                if manifest.get("has_model"):
                    model_arrays = {
                        "levels": data["model_levels"].astype(np.int64),
                        "edges": data["model_edges"].astype(float),
                        "centers": data["model_centers"].astype(float),
                        "bits": int(data["model_bits"][0]),
                        "method": str(data["model_method"][0]),
                    }
        except CheckpointCorruptError:
            raise
        except Exception as exc:
            self._reject(target, f"unreadable container: {exc}")
        version = manifest.get("_format")
        if version != FORMAT_VERSION:
            self._reject(target, f"unsupported format {version}")
        if _payload_checksum(arrays) != manifest.get("checksum"):
            self._reject(target, "payload checksum mismatch")
        model = None
        if model_arrays is not None:
            # Built here so a malformed model is refused before restore
            # touches the array.
            try:
                model = QuantizedModel(**model_arrays)
            except ValueError as exc:
                self._reject(target, f"malformed model: {exc}")
        arrays["_model"] = model  # type: ignore[assignment]
        return arrays, CheckpointInfo(target, manifest, metadata)

    def _reject(self, target: Path, reason: str) -> None:
        if _TM.enabled:
            _CHECKPOINTS.inc(op="reject")
            _emit_probe(
                "service.checkpoint",
                op="reject",
                trigger=reason,
                path=str(target),
            )
            _log.warning(
                "checkpoint rejected",
                extra={"path": str(target), "reason": reason},
            )
        raise CheckpointCorruptError(f"checkpoint {target}: {reason}")

    def restore(
        self,
        array: ResilientTDAMArray,
        path: Optional[PathLike] = None,
    ) -> Tuple[CheckpointInfo, Optional[QuantizedModel]]:
        """Load one snapshot into ``array`` (bit-exact state transplant).

        The target array must match the snapshot's geometry (rows,
        spares, stages, levels); its physical state, repair bookkeeping,
        and drift clocks are all overwritten.
        """
        arrays, info = self.load(path)
        manifest = info.manifest
        expected = (
            array.n_rows,
            array.n_spares,
            array.config.n_stages,
            array.config.levels,
        )
        found = (
            manifest["n_rows"],
            manifest["n_spares"],
            manifest["n_stages"],
            manifest["levels"],
        )
        if expected != found:
            raise CheckpointCorruptError(
                f"checkpoint {info.path} geometry {found} does not match "
                f"array {expected}"
            )
        phys = array._physical
        array._shadow = arrays["shadow"].astype(np.int64)
        phys._stored = arrays["stored"].astype(np.int64)
        phys.set_vth_offsets(arrays["off_a"], arrays["off_b"])
        phys._written[:] = True
        phys._all_written = True
        array._base_off_a = arrays["base_off_a"]
        array._base_off_b = arrays["base_off_b"]
        array._row_age_s = arrays["row_age_s"]
        array._cycles = arrays["cycles"]
        array._map = arrays["row_map"].astype(np.int64)
        array._free_spares = arrays["free_spares"].tolist()
        array._masked = tuple(int(s) for s in arrays["masked"])
        array._retired_mask = np.isin(
            np.arange(array.n_rows), arrays["retired"]
        )
        array._searches_since_bist = int(manifest["searches_since_bist"])
        phys.invalidate_threshold_cache()
        model = arrays.get("_model")
        if _TM.enabled:
            _CHECKPOINTS.inc(op="restore")
            _emit_probe(
                "service.checkpoint",
                op="restore",
                trigger=manifest.get("trigger", ""),
                path=str(info.path),
            )
            _log.info(
                "checkpoint restored", extra={"path": str(info.path)}
            )
        return info, model

    def restore_latest(
        self, array: ResilientTDAMArray
    ) -> Tuple[CheckpointInfo, Optional[QuantizedModel]]:
        """Restore from the newest *valid* snapshot.

        Tries ``path`` first; on corruption falls back to ``.prev``.
        Raises :class:`CheckpointCorruptError` only when every candidate
        is corrupt, :class:`CheckpointNotFoundError` when none exists.
        """
        try:
            return self.restore(array, self.path)
        except CheckpointNotFoundError:
            if not self.previous_path.exists():
                raise
        except CheckpointCorruptError:
            if not self.previous_path.exists():
                raise
        return self.restore(array, self.previous_path)

    # ------------------------------------------------------------------
    # Probe-driven snapshotting
    # ------------------------------------------------------------------
    def attach_probes(
        self,
        array: ResilientTDAMArray,
        model: Optional[QuantizedModel] = None,
        events: Tuple[str, ...] = ("resilience.repair", "resilience.refresh"),
    ) -> None:
        """Snapshot automatically on the closed loop's probe events.

        Registers one hook per event; each repair/refresh then persists
        the post-event state.  Probes fire only while telemetry is
        enabled.  Call :meth:`detach_probes` to stop.
        """

        def make_hook(event_name: str):
            def hook(event: str, **payload: Any) -> None:
                self.save(array, model=model, trigger=event_name)

            return hook

        for event in events:
            hook = make_hook(event)
            register_probe(event, hook)
            self._hooks.append((event, hook))

    def detach_probes(self) -> None:
        """Unregister every hook installed by :meth:`attach_probes`."""
        for event, hook in self._hooks:
            unregister_probe(event, hook)
        self._hooks.clear()
