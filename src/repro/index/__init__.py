"""Million-row ANN: memmapped bit-plane store + cluster-routed search.

The scale-out layer above the single in-RAM array:
:class:`BitPlaneStore` persists packed level bit-planes on disk
(crash-safe atomic publish, lazy memmapped shards, checksummed
components), and :class:`ClusteredTDAMIndex` routes each query batch
through a coarse quantizer to its ``nprobe`` nearest clusters and
ranks exact mismatch counts inside only those shards.
:class:`IndexSearchService` adapts the index to the serving layer's
backend contract (deadlines, typed admission, coalescing frontend
compatibility).
"""

from repro.index.cluster_index import (
    DEFAULT_NPROBE,
    ClusteredTDAMIndex,
    IndexTopKResult,
)
from repro.index.service import IndexSearchService
from repro.index.store import (
    BitPlaneStore,
    BitPlaneStoreError,
    StoreCorruptionError,
    StoreManifestError,
    StoreShard,
    build_store,
    level_inequality_planes,
)

__all__ = [
    "BitPlaneStore",
    "BitPlaneStoreError",
    "ClusteredTDAMIndex",
    "DEFAULT_NPROBE",
    "IndexSearchService",
    "IndexTopKResult",
    "StoreCorruptionError",
    "StoreManifestError",
    "StoreShard",
    "build_store",
    "level_inequality_planes",
]
