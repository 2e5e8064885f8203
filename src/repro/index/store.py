"""Memory-mapped on-disk store of packed stored-level bit-planes.

A million-row corpus is packed into ``(bits, M, B)`` stored-level
bit-planes **once** (:func:`~repro.core.bitplane.pack_bit_planes`, ``B
= ceil(N/8)`` padded to whole words), published crash-safely, and
reopened by any later process without re-packing;
:func:`~repro.core.bitplane.packed_pair_counts` gathers each query's
candidate rows straight from the memmapped file, so a corpus much
larger than RAM stays servable -- the OS pages in only the plane bytes
a probe actually touches.

On-disk layout (one directory per store, format 3)::

    manifest.json    -- the commit point, written LAST via
                        repro.io.atomic_write; lists each shard's
                        cluster and row count
    <gen>.planes     -- raw uint8 (bits, M, B), C order
    <gen>.rows       -- raw int64 (M,), each position's global row id
    <gen>.levels     -- raw uint8 (M, N), the stored levels
    <gen>.centroids  -- raw uint8 (C, N), quantized centroid levels
                        (present when built clustered)

The corpus components hold the rows shard after shard, each shard's
global ids ascending.  Format 1 (level-inequality planes) and format 2
(three files per shard) are refused with :class:`StoreManifestError`;
rebuild the store from its levels.

Crash-safety contract: every component file of a generation is written
first (each itself via :func:`repro.io.atomic_write`), and only then is
``manifest.json`` atomically replaced.  A crash at *any* point leaves
the previous manifest -- and therefore the previous, fully verified
generation -- in charge; the files of stale generations (and only
those, ``g<6 digits>.*``) are garbage-collected best-effort after a
successful publish.  Opening checks that every component's recorded
shape and dtype agree with the manifest's geometry and that cluster
ids are distinct and in range; each component also records a SHA-256
digest, verified once on first map, and a mismatch raises
:class:`StoreCorruptionError` instead of serving corrupt planes.

Counting XOR over stored-level bits answers like the live array only
when the design point's nominal decision is **pure level inequality**
(``stored != query`` per stage) -- :func:`build_store` proves that
against a live probe array and refuses geometries where store-served
searches would diverge.
"""

from __future__ import annotations

import hashlib
import json
import re
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
STORE_FORMAT = 3

_CHECKSUM_CHUNK = 1 << 20

# Component files of any generation: ``g`` + six digits + ``.``.
_GENERATION_FILE = re.compile(r"g\d{6}\.")


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
    """One shard: a contiguous run of the store's corpus components.

    The views are slices of the store's lazily mapped components, so
    touching one maps (and verifies) that component for every shard.

    Attributes:
        cluster: Coarse-quantizer cluster this shard holds (0 for an
            unclustered store's one shard).
        offset: First corpus position of this shard's rows.
        n_rows: Rows stored in this shard.
    """

    def __init__(
        self, store: "BitPlaneStore", cluster: int, offset: int, n_rows: int
    ) -> None:
        self._store = store
        self.cluster = cluster
        self.offset = offset
        self.n_rows = n_rows

    @property
    def row_ids(self) -> np.ndarray:
        """Ascending global row ids, memmapped int64 ``(M_s,)``."""
        return self._store.row_ids[self.offset:self.offset + self.n_rows]

    @property
    def levels(self) -> np.ndarray:
        """Stored level vectors, memmapped uint8 ``(M_s, N)``."""
        return self._store._map("levels")[
            self.offset:self.offset + self.n_rows
        ]


class BitPlaneStore:
    """A published bit-plane store, opened from its manifest.

    Opening reads *only* the manifest; each corpus component maps
    lazily on first touch, after a one-time size and checksum check,
    so a process that never probes never reads the corpus.

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
                f"this build reads format {STORE_FORMAT} (one bit-plane "
                f"file per store); rebuild the store from its levels"
            )
        try:
            self.config = config_from_dict(payload["config"])
            self.generation = int(payload["generation"])
            geometry = payload["geometry"]
            self.n_rows = int(geometry["n_rows"])
            self.n_stages = int(geometry["n_stages"])
            self.levels = int(geometry["levels"])
            self.byte_width = int(geometry["byte_width"])
            shard_specs = [
                (int(spec["cluster"]), int(spec["n_rows"]))
                for spec in payload["shards"]
            ]
            self._components = {
                kind: _component_spec(payload["components"][kind], kind)
                for kind in ("planes", "rows", "levels")
            }
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
        # The search lays candidates out from each shard's offset and
        # n_rows and routes by cluster id, so neither is trusted
        # unchecked.
        self._shards: List[StoreShard] = []
        total = 0
        for i, (cluster, n_rows) in enumerate(shard_specs):
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
            self._shards.append(StoreShard(self, cluster, total, n_rows))
            total += n_rows
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
        for kind, shape, dtype in (
            ("planes", (self.config.bits, self.n_rows, self.byte_width),
             "uint8"),
            ("rows", (self.n_rows,), "int64"),
            ("levels", (self.n_rows, self.n_stages), "uint8"),
        ):
            _check_component(
                self._components[kind], shape, dtype, f"{kind} component"
            )
        self._maps: Dict[str, np.ndarray] = {}
        self._centroid_levels: Optional[np.ndarray] = None

    def _verified(self, spec: _ComponentSpec) -> Path:
        """The component's path, once its size and digest check out."""
        path = self.path / spec.name
        try:
            actual_bytes = path.stat().st_size
        except OSError as exc:
            raise StoreCorruptionError(
                f"component {spec.name!r} is missing: {exc}"
            ) from exc
        if actual_bytes != spec.nbytes:
            raise StoreCorruptionError(
                f"component {spec.name!r} is {actual_bytes} bytes, "
                f"manifest says {spec.nbytes}"
            )
        digest = _file_sha256(path)
        if digest != spec.sha256:
            raise StoreCorruptionError(
                f"component {spec.name!r} failed its checksum (got "
                f"{digest[:16]}, manifest {spec.sha256[:16]})"
            )
        return path

    def _map(self, kind: str) -> np.ndarray:
        view = self._maps.get(kind)
        if view is None:
            spec = self._components[kind]
            view = np.memmap(
                self._verified(spec), dtype=np.dtype(spec.dtype), mode="r",
                shape=spec.shape,
            )
            self._maps[kind] = view
        return view

    @property
    def planes(self) -> np.ndarray:
        """Stored-level bit-planes of every corpus position, memmapped
        uint8 ``(bits, M, B)``."""
        return self._map("planes")

    @property
    def row_ids(self) -> np.ndarray:
        """Global row id of each corpus position, memmapped int64
        ``(M,)``."""
        return self._map("rows")

    @property
    def n_shards(self) -> int:
        """Number of published shards."""
        return len(self._shards)

    @property
    def n_mapped_shards(self) -> int:
        """Shards with a corpus component mapped (laziness probe):
        every shard lives in every component, so this reads 0 or
        :attr:`n_shards`."""
        return self.n_shards if self._maps else 0

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
            self._centroid_levels = np.fromfile(
                self._verified(spec), dtype=np.dtype(spec.dtype)
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
    atomic_write(root / name, lambda handle: handle.write(data))
    return {
        "name": name,
        "sha256": hashlib.sha256(data).hexdigest(),
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
    """Component files of every generation but the kept one; nothing
    else in the directory is the store's to delete."""
    return [
        child
        for child in root.iterdir()
        if _GENERATION_FILE.match(child.name)
        and not child.name.startswith(keep_prefix)
    ]


def build_store(
    path: PathLike,
    levels_mat: Sequence[Sequence[int]],
    config: TDAMConfig,
    assignments: Optional[np.ndarray] = None,
    centroid_levels: Optional[np.ndarray] = None,
) -> BitPlaneStore:
    """Pack a level corpus into a published :class:`BitPlaneStore`.

    Rows are grouped by ``assignments`` into one shard per (non-empty)
    cluster, in cluster order, each shard keeping its global row ids in
    ascending order; with ``assignments=None`` the whole corpus becomes
    a single shard.  The shards' rows are laid out one after another in
    one planes, one row-id and one level component.  Every component is
    written through
    :func:`repro.io.atomic_write`, and the manifest -- the commit point
    -- is replaced last, so a crash anywhere mid-build leaves a
    previously published store fully intact.  Stale generations' files
    are removed best-effort *after* the new manifest is live; nothing
    else in ``path`` is touched.

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
        levels_mat, config.levels, ndim=2, name="levels matrix",
        dtype=np.uint8,
    )
    if levels_arr.shape[1] != config.n_stages:
        raise ValueError(
            f"levels matrix has {levels_arr.shape[1]} stages, config "
            f"says {config.n_stages}"
        )
    _assert_pure_inequality(config)
    n_rows = levels_arr.shape[0]
    if assignments is None:
        order = np.arange(n_rows, dtype=np.int64)
        clusters = np.zeros(1, dtype=np.int64)
        sizes = np.array([n_rows], dtype=np.int64)
    else:
        assign = np.asarray(assignments, dtype=np.int64)
        if assign.shape != (n_rows,):
            raise ValueError(
                f"assignments must have shape ({n_rows},), got "
                f"{assign.shape}"
            )
        if assign.size and (assign.min() < 0):
            raise ValueError("assignments must be non-negative")
        # A stable sort keeps each cluster's rows in ascending order.
        order = np.argsort(assign, kind="stable")
        clusters, sizes = np.unique(assign, return_counts=True)
    cents: Optional[np.ndarray] = None
    if centroid_levels is not None:
        cents = validate_levels(
            centroid_levels, config.levels, ndim=2, name="centroid levels",
            dtype=np.uint8,
        )
        if cents.shape[1] != config.n_stages:
            raise ValueError(
                f"centroid levels have {cents.shape[1]} stages, config "
                f"says {config.n_stages}"
            )
        last = int(clusters[-1]) if clusters.size else -1
        if assignments is not None and last >= cents.shape[0]:
            raise ValueError(
                f"assignment names cluster {last} but only "
                f"{cents.shape[0]} centroids were given"
            )
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    generation = _next_generation(root)
    prefix = f"g{generation:06d}."
    stored = levels_arr[order]
    components = {
        "planes": _write_component(
            root, f"{prefix}planes", pack_bit_planes(stored, config.bits)
        ),
        "rows": _write_component(root, f"{prefix}rows", order),
        "levels": _write_component(root, f"{prefix}levels", stored),
    }
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
        "shards": [
            {"cluster": int(cluster), "n_rows": int(size)}
            for cluster, size in zip(clusters, sizes)
        ],
        "components": components,
        "centroids": (
            _write_component(root, f"{prefix}centroids", cents)
            if cents is not None
            else None
        ),
    }
    doc = json.dumps(manifest, indent=2, sort_keys=True)
    atomic_write(
        root / MANIFEST_NAME,
        lambda handle: handle.write(doc.encode("utf-8")),
    )
    # The new generation is live; older generations are unreferenced.
    for stale in _collect_stale(root, prefix):
        try:
            stale.unlink()
        except OSError:
            pass
    return BitPlaneStore(root)
