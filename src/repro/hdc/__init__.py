"""Hyperdimensional computing stack for the paper's case study (Sec. IV-B).

The pipeline mirrors the paper's experiment:

1. encode feature vectors into D-dimensional hypervectors
   (:mod:`~repro.hdc.encoder`),
2. train a classifier with single-pass bundling plus OnlineHD-style
   refinement (:mod:`~repro.hdc.model`),
3. quantize the class hypervectors into ``2**n`` equal-probability-area
   levels (:mod:`~repro.hdc.quantize`) -- the paper's "blocks of equal
   areas" mapping,
4. run inference on the TD-AM: per-element exact-match (Hamming)
   similarity between the quantized query and each quantized class
   hypervector, with architecture-level latency/energy accounting
   (:mod:`~repro.hdc.mapping`).

The 32-bit reference model predicts with cosine similarity on the float
prototypes (the GPU path); the quantized models predict with the TD-AM's
match-count similarity.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RandomProjectionEncoder": "encoder",
    "QuantizedProjectionEncoder": "encoder",
    "RecordEncoder": "encoder",
    "EncodePipeline": "pipeline",
    "build_pipeline": "pipeline",
    "random_bipolar": "hypervector",
    "random_gaussian": "hypervector",
    "bind": "hypervector",
    "bundle": "hypervector",
    "permute": "hypervector",
    "HDCClassifier": "model",
    "QuantizedModel": "quantize",
    "quantize_equal_area": "quantize",
    "quantize_uniform": "quantize",
    "TDAMInference": "mapping",
    "InferenceCost": "mapping",
    "cosine_similarity": "metrics",
    "hamming_distance": "metrics",
    "match_count": "metrics",
    "SequenceEncoder": "sequence",
    "SequenceMatcher": "sequence",
    "ScanHit": "sequence",
    "HDCluster": "cluster",
    "ClusterResult": "cluster",
    "clustering_accuracy": "cluster",
    "OnlineLearner": "online",
    "AcceleratorModel": "accelerator",
    "AcceleratorSpec": "accelerator",
    "size_accelerator": "accelerator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
