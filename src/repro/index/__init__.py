"""Million-row ANN: memmapped bit-plane store + cluster-routed search.

The scale-out layer above the single in-RAM array:
:class:`BitPlaneStore` persists packed stored-level bit-planes on
disk (crash-safe atomic publish, one lazily memmapped, checksummed file
per component), and :class:`ClusteredTDAMIndex` routes each query batch
through a coarse quantizer to its ``nprobe`` nearest clusters and
ranks exact mismatch counts inside only those shards.
:class:`IndexSearchService` adapts the index to the serving layer's
backend contract (deadlines, typed admission, coalescing frontend
compatibility).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BitPlaneStore": "store",
    "BitPlaneStoreError": "store",
    "ClusteredTDAMIndex": "cluster_index",
    "DEFAULT_NPROBE": "cluster_index",
    "IndexSearchService": "service",
    "IndexTopKResult": "cluster_index",
    "StoreCorruptionError": "store",
    "StoreManifestError": "store",
    "StoreShard": "store",
    "build_store": "store",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
