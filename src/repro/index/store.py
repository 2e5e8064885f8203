"""Memory-mapped on-disk store of packed stored-level bit-planes.

A million-row corpus is packed into ``(bits, M, B)`` stored-level
bit-planes **once** (:func:`~repro.core.bitplane.pack_bit_planes`, ``B
= ceil(N/8)`` padded to whole words), published crash-safely, and
reopened by any later process without re-packing; the XOR popcount
kernels in :mod:`repro.core.bitplane` run directly on the memmapped
slices, so a corpus much larger than RAM stays servable -- the OS pages
in only the plane bytes a probe actually touches.

On-disk layout (one directory per store, format 2)::

    manifest.json            -- the commit point, written LAST via
                                repro.io.atomic_write
    <gen>.shard000.planes    -- raw uint8 (bits, M_s, B), C order
    <gen>.shard000.rows      -- raw int64 (M_s,), ascending global ids
    <gen>.shard000.levels    -- raw uint8 (M_s, N), the stored levels
    <gen>.centroids.levels   -- raw uint8 (C, N), quantized centroid
                                levels (present when built clustered)

Format 1 held ``(L, M_s, B)`` level-inequality planes instead -- twice
the bytes at 2 bits, 8/3 at 3 bits.  A format-1 store is refused with
:class:`StoreManifestError`; rebuild it from its levels.

Crash-safety contract: every component file of a generation is written
first (each itself via :func:`repro.io.atomic_write`), and only then is
``manifest.json`` atomically replaced.  A crash at *any* point leaves
the previous manifest -- and therefore the previous, fully verified
generation -- in charge; stale generations are garbage-collected
best-effort after a successful publish.  Opening checks that every
component's recorded shape and dtype agree with the manifest's geometry
and that cluster ids are distinct and in range; each component also
records a SHA-256 digest, verified once on first map, and a mismatch
raises :class:`StoreCorruptionError` instead of serving corrupt planes.

Counting XOR over stored-level bits answers like the live array only
when the design point's nominal decision is **pure level inequality**
(``stored != query`` per stage) -- :func:`build_store` proves that
against a live probe array and refuses geometries where store-served
searches would diverge.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.array import FastTDAMArray
from repro.core.bitplane import pack_bit_planes, packed_stage_bytes
from repro.core.config import TDAMConfig
from repro.core.encoding import validate_levels
from repro.io import atomic_write, config_from_dict, config_to_dict

PathLike = Union[str, Path]

__all__ = [
    "BitPlaneStore",
    "BitPlaneStoreError",
    "StoreCorruptionError",
    "StoreManifestError",
    "StoreShard",
    "build_store",
]

#: Name of the store's commit-point file.
MANIFEST_NAME = "manifest.json"

#: On-disk format tag, bumped on layout changes.
STORE_FORMAT = 2

_CHECKSUM_CHUNK = 1 << 20


class BitPlaneStoreError(RuntimeError):
    """Base class of every bit-plane store failure."""


class StoreManifestError(BitPlaneStoreError):
    """The manifest is missing, unparsable, or structurally invalid."""


class StoreCorruptionError(BitPlaneStoreError):
    """A component file failed its size or checksum verification."""


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_CHECKSUM_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _assert_pure_inequality(config: TDAMConfig) -> None:
    """Refuse design points whose nominal decision is not ``!=``.

    A written one-row probe array is enough: under nominal timing the
    XOR-eligibility check decides from the design's L x L table whether
    every (query level, stored level) pair mismatches exactly when the
    levels differ, and a nominal cell's decision depends only on its
    stored level, not its row or stage.
    """
    probe = FastTDAMArray(config, n_rows=1)
    row = np.arange(config.n_stages, dtype=np.int64) % config.levels
    probe.write_all(row[None, :])
    if probe._xor_bit_planes() is None:
        raise BitPlaneStoreError(
            "this design point's nominal mismatch decision is not pure "
            "level inequality; store-served searches would diverge from "
            "the live array"
        )


@dataclass(frozen=True)
class _ComponentSpec:
    """One raw component file as recorded in the manifest."""

    name: str
    sha256: str
    nbytes: int
    shape: Tuple[int, ...]
    dtype: str


def _component_spec(payload: Dict[str, Any], what: str) -> _ComponentSpec:
    try:
        return _ComponentSpec(
            name=str(payload["name"]),
            sha256=str(payload["sha256"]),
            nbytes=int(payload["nbytes"]),
            shape=tuple(int(s) for s in payload["shape"]),
            dtype=str(payload["dtype"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreManifestError(
            f"manifest entry for {what} is malformed: {exc!r}"
        ) from None


def _check_component(
    spec: _ComponentSpec, shape: Tuple[int, ...], dtype: str, what: str
) -> None:
    """Refuse a component whose recorded shape, dtype or size is not
    what the manifest's geometry implies."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if spec.shape != shape or spec.dtype != dtype or spec.nbytes != nbytes:
        raise StoreManifestError(
            f"{what} is recorded as {spec.dtype} {spec.shape} "
            f"({spec.nbytes} bytes); the geometry implies {dtype} {shape} "
            f"({nbytes} bytes)"
        )


class StoreShard:
    """Lazy memmapped views over one shard's component files.

    Nothing is opened until a component property is first touched; each
    file is then size- and checksum-verified exactly once before the
    memmap is handed out.  All views are read-only.

    Attributes:
        index: Shard position within the store.
        cluster: Coarse-quantizer cluster this shard holds (equals
            ``index`` for unclustered stores).
        n_rows: Rows stored in this shard.
    """

    def __init__(
        self,
        root: Path,
        index: int,
        cluster: int,
        n_rows: int,
        components: Dict[str, _ComponentSpec],
    ) -> None:
        self._root = root
        self.index = index
        self.cluster = cluster
        self.n_rows = n_rows
        self._components = components
        self._maps: Dict[str, np.ndarray] = {}

    def _map(self, kind: str) -> np.ndarray:
        cached = self._maps.get(kind)
        if cached is not None:
            return cached
        spec = self._components[kind]
        path = self._root / spec.name
        try:
            actual_bytes = path.stat().st_size
        except OSError as exc:
            raise StoreCorruptionError(
                f"shard {self.index} component {spec.name!r} is missing: "
                f"{exc}"
            ) from exc
        if actual_bytes != spec.nbytes:
            raise StoreCorruptionError(
                f"shard {self.index} component {spec.name!r} is "
                f"{actual_bytes} bytes, manifest says {spec.nbytes}"
            )
        digest = _file_sha256(path)
        if digest != spec.sha256:
            raise StoreCorruptionError(
                f"shard {self.index} component {spec.name!r} failed its "
                f"checksum (got {digest[:16]}, manifest "
                f"{spec.sha256[:16]})"
            )
        view = np.memmap(
            path, dtype=np.dtype(spec.dtype), mode="r", shape=spec.shape
        )
        self._maps[kind] = view
        return view

    @property
    def mapped(self) -> bool:
        """Whether any component of this shard has been mapped yet."""
        return bool(self._maps)

    @property
    def planes(self) -> np.ndarray:
        """Stored-level bit-planes, memmapped uint8 ``(bits, M_s, B)``."""
        return self._map("planes")

    @property
    def row_ids(self) -> np.ndarray:
        """Ascending global row ids, memmapped int64 ``(M_s,)``."""
        return self._map("rows")

    @property
    def levels(self) -> np.ndarray:
        """Stored level vectors, memmapped uint8 ``(M_s, N)``."""
        return self._map("levels")


class BitPlaneStore:
    """A published bit-plane store, opened from its manifest.

    Opening reads *only* the manifest; shards map lazily on first
    touch (:meth:`shard`), so a search process pays for exactly the
    shards it probes.

    Raises:
        StoreManifestError: Missing/corrupt manifest, unsupported
            format, or inconsistent geometry.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        try:
            payload = json.loads(manifest_path.read_text())
        except OSError as exc:
            raise StoreManifestError(
                f"no readable manifest at {manifest_path}: {exc}"
            ) from exc
        except ValueError as exc:
            raise StoreManifestError(
                f"manifest at {manifest_path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise StoreManifestError("manifest root must be an object")
        if payload.get("format") != STORE_FORMAT:
            raise StoreManifestError(
                f"unsupported store format {payload.get('format')!r}: "
                f"this build reads format {STORE_FORMAT} (stored-level "
                f"bit-planes); rebuild the store from its levels"
            )
        try:
            self.config = config_from_dict(payload["config"])
            self.generation = int(payload["generation"])
            geometry = payload["geometry"]
            self.n_rows = int(geometry["n_rows"])
            self.n_stages = int(geometry["n_stages"])
            self.levels = int(geometry["levels"])
            self.byte_width = int(geometry["byte_width"])
            shard_specs = payload["shards"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreManifestError(
                f"manifest is structurally invalid: {exc!r}"
            ) from None
        if self.n_stages != self.config.n_stages:
            raise StoreManifestError(
                f"geometry n_stages {self.n_stages} disagrees with the "
                f"embedded config ({self.config.n_stages})"
            )
        if self.levels != self.config.levels:
            raise StoreManifestError(
                f"geometry levels {self.levels} disagrees with the "
                f"embedded config ({self.config.levels})"
            )
        if self.byte_width != packed_stage_bytes(self.n_stages):
            raise StoreManifestError(
                f"geometry byte_width {self.byte_width} is not "
                f"packed_stage_bytes({self.n_stages})"
            )
        centroid_spec = payload.get("centroids")
        self._centroid_spec = (
            _component_spec(centroid_spec, "centroids")
            if centroid_spec is not None
            else None
        )
        n_centroids = None
        if self._centroid_spec is not None:
            shape = self._centroid_spec.shape
            _check_component(
                self._centroid_spec, shape[:1] + (self.n_stages,), "uint8",
                "centroids",
            )
            n_centroids = shape[0]
        # The search lays candidates out from each shard's n_rows and
        # routes by cluster id, so neither is trusted unchecked.
        self._shards: List[StoreShard] = []
        total = 0
        for i, spec in enumerate(shard_specs):
            try:
                cluster = int(spec["cluster"])
                n_rows = int(spec["n_rows"])
                components = {
                    kind: _component_spec(
                        spec["components"][kind], f"shard {i} {kind}"
                    )
                    for kind in ("planes", "rows", "levels")
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreManifestError(
                    f"shard {i} entry is malformed: {exc!r}"
                ) from None
            if n_rows < 0 or cluster < 0:
                raise StoreManifestError(
                    f"shard {i} has {n_rows} rows in cluster {cluster}; "
                    f"neither may be negative"
                )
            if n_centroids is not None and cluster >= n_centroids:
                raise StoreManifestError(
                    f"shard {i} names cluster {cluster} but only "
                    f"{n_centroids} centroids are published"
                )
            for kind, shape, dtype in (
                ("planes", (self.config.bits, n_rows, self.byte_width),
                 "uint8"),
                ("rows", (n_rows,), "int64"),
                ("levels", (n_rows, self.n_stages), "uint8"),
            ):
                _check_component(
                    components[kind], shape, dtype, f"shard {i} {kind}"
                )
            total += n_rows
            self._shards.append(
                StoreShard(self.path, i, cluster, n_rows, components)
            )
        if total != self.n_rows:
            raise StoreManifestError(
                f"shard rows sum to {total}, geometry says {self.n_rows}"
            )
        clusters, counts = np.unique(self.shard_clusters, return_counts=True)
        repeated = counts > 1
        if repeated.any():
            raise StoreManifestError(
                f"cluster {int(clusters[repeated][0])} is named by "
                f"{int(counts[repeated][0])} shards"
            )
        self._centroid_levels: Optional[np.ndarray] = None

    @property
    def n_shards(self) -> int:
        """Number of published shards."""
        return len(self._shards)

    @property
    def n_mapped_shards(self) -> int:
        """Shards with at least one component mapped (laziness probe)."""
        return sum(1 for shard in self._shards if shard.mapped)

    def shard(self, i: int) -> StoreShard:
        """The ``i``-th shard's lazy component views."""
        return self._shards[i]

    @property
    def shard_clusters(self) -> np.ndarray:
        """Cluster id of each shard, int64 ``(n_shards,)``."""
        return np.array([s.cluster for s in self._shards], dtype=np.int64)

    @property
    def centroid_levels(self) -> Optional[np.ndarray]:
        """Quantized centroid levels ``(C, N)``, or ``None`` when the
        store was built without a coarse quantizer.  Verified once."""
        if self._centroid_spec is None:
            return None
        if self._centroid_levels is None:
            spec = self._centroid_spec
            path = self.path / spec.name
            try:
                nbytes = path.stat().st_size
            except OSError as exc:
                raise StoreCorruptionError(
                    f"centroid component {spec.name!r} is missing: {exc}"
                ) from exc
            if nbytes != spec.nbytes or _file_sha256(path) != spec.sha256:
                raise StoreCorruptionError(
                    f"centroid component {spec.name!r} failed verification"
                )
            self._centroid_levels = np.fromfile(
                path, dtype=np.dtype(spec.dtype)
            ).reshape(spec.shape)
        return self._centroid_levels

    def __repr__(self) -> str:
        return (
            f"BitPlaneStore({self.n_rows} rows x {self.n_stages} stages, "
            f"{self.n_shards} shards, gen {self.generation} at "
            f"{str(self.path)!r})"
        )


def _write_component(
    root: Path, name: str, array: np.ndarray
) -> Dict[str, Any]:
    """Atomically publish one raw component; returns its manifest entry."""
    data = np.ascontiguousarray(array)
    path = root / name
    atomic_write(path, lambda handle: handle.write(data.tobytes()))
    return {
        "name": name,
        "sha256": _file_sha256(path),
        "nbytes": int(data.nbytes),
        "shape": list(data.shape),
        "dtype": data.dtype.name,
    }


def _next_generation(root: Path) -> int:
    """The successor of the currently published generation (or 0)."""
    try:
        payload = json.loads((root / MANIFEST_NAME).read_text())
        return int(payload["generation"]) + 1
    except (OSError, ValueError, KeyError, TypeError):
        return 0


def _collect_stale(root: Path, keep_prefix: str) -> List[Path]:
    stale = []
    for child in root.iterdir():
        if child.name == MANIFEST_NAME or child.name.startswith("."):
            continue
        if not child.name.startswith(keep_prefix):
            stale.append(child)
    return stale


def build_store(
    path: PathLike,
    levels_mat: Sequence[Sequence[int]],
    config: TDAMConfig,
    assignments: Optional[np.ndarray] = None,
    centroid_levels: Optional[np.ndarray] = None,
) -> BitPlaneStore:
    """Pack a level corpus into a published :class:`BitPlaneStore`.

    Rows are grouped by ``assignments`` into one shard per (non-empty)
    cluster, each shard keeping its global row ids in ascending order;
    with ``assignments=None`` the whole corpus becomes a single shard.
    Every component is written through :func:`repro.io.atomic_write`,
    and the manifest -- the commit point -- is replaced last, so a
    crash anywhere mid-build leaves a previously published store fully
    intact.  Stale generations are removed best-effort *after* the new
    manifest is live.

    Args:
        path: Store directory (created if needed).
        levels_mat: Stored levels, shape (M, N).
        config: Design point; embedded in the manifest and checked for
            pure-inequality nominal conduction (see module docstring).
        assignments: Optional cluster id per row, shape (M,).
        centroid_levels: Optional quantized centroid levels (C, N);
            required by the clustered index's router.

    Returns:
        The freshly opened store.
    """
    levels_arr = validate_levels(
        levels_mat, config.levels, ndim=2, name="levels matrix"
    )
    if levels_arr.shape[1] != config.n_stages:
        raise ValueError(
            f"levels matrix has {levels_arr.shape[1]} stages, config "
            f"says {config.n_stages}"
        )
    _assert_pure_inequality(config)
    n_rows = levels_arr.shape[0]
    if assignments is None:
        groups: List[Tuple[int, np.ndarray]] = [
            (0, np.arange(n_rows, dtype=np.int64))
        ]
    else:
        assign = np.asarray(assignments, dtype=np.int64)
        if assign.shape != (n_rows,):
            raise ValueError(
                f"assignments must have shape ({n_rows},), got "
                f"{assign.shape}"
            )
        if assign.size and (assign.min() < 0):
            raise ValueError("assignments must be non-negative")
        groups = []
        for cluster in np.unique(assign):
            members = np.flatnonzero(assign == cluster).astype(np.int64)
            groups.append((int(cluster), members))
    cents: Optional[np.ndarray] = None
    if centroid_levels is not None:
        cents = validate_levels(
            centroid_levels, config.levels, ndim=2, name="centroid levels"
        ).astype(np.uint8)
        if cents.shape[1] != config.n_stages:
            raise ValueError(
                f"centroid levels have {cents.shape[1]} stages, config "
                f"says {config.n_stages}"
            )
        if assignments is not None:
            max_cluster = max(cluster for cluster, _ in groups)
            if max_cluster >= cents.shape[0]:
                raise ValueError(
                    f"assignment names cluster {max_cluster} but only "
                    f"{cents.shape[0]} centroids were given"
                )
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    generation = _next_generation(root)
    prefix = f"g{generation:06d}."
    stored_u8 = levels_arr.astype(np.uint8)
    shard_entries = []
    for i, (cluster, members) in enumerate(groups):
        sub = stored_u8[members]
        planes = pack_bit_planes(sub, config.bits)
        base = f"{prefix}shard{i:04d}"
        shard_entries.append(
            {
                "cluster": cluster,
                "n_rows": int(members.shape[0]),
                "components": {
                    "planes": _write_component(
                        root, f"{base}.planes", planes
                    ),
                    "rows": _write_component(root, f"{base}.rows", members),
                    "levels": _write_component(root, f"{base}.levels", sub),
                },
            }
        )
    manifest: Dict[str, Any] = {
        "format": STORE_FORMAT,
        "generation": generation,
        "config": config_to_dict(config),
        "geometry": {
            "n_rows": int(n_rows),
            "n_stages": int(config.n_stages),
            "levels": int(config.levels),
            "byte_width": int(packed_stage_bytes(config.n_stages)),
        },
        "shards": shard_entries,
        "centroids": (
            _write_component(root, f"{prefix}centroids.levels", cents)
            if cents is not None
            else None
        ),
    }
    doc = json.dumps(manifest, indent=2, sort_keys=True)
    atomic_write(
        root / MANIFEST_NAME,
        lambda handle: handle.write(doc.encode("utf-8")),
    )
    # The new generation is live; anything older is unreferenced.
    for stale in _collect_stale(root, prefix):
        try:
            stale.unlink()
        except OSError:
            pass
    return BitPlaneStore(root)
