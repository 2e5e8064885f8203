"""Hyperdimensional clustering (k-centroids in HV space).

The paper's introduction lists clustering among HDC's strengths; this
module provides the standard HDC clustering loop -- k centroids in
hypervector space, cosine assignment, bundling updates -- so the TD-AM's
similarity search can serve unsupervised workloads too: after training,
the quantized centroids are stored in the array and every assignment is
one associative search.

Initialization is greedy max-dissimilarity (k-means++ flavor) with a
running closeness maximum: each chosen centroid costs one
matrix-vector product, not a re-scored ``n x j`` similarity matrix.
Closeness is compared by the signed square of the cosine, built from
integer-exact products, so on integer level vectors (the clustered
index's quantizer) equal cosines tie exactly and the lowest index wins
while those products stay below ``2**53``.

Encoder note: cluster on *linear* random projections
(``RandomProjectionEncoder(..., nonlinear=False)``).  The trigonometric
nonlinearity used for classification saturates inter-cluster distances,
which supervised refinement tolerates but Lloyd-style local search does
not (measured in ``tests/hdc/test_cluster.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.hdc.hypervector import bundle_groups
from repro.hdc.metrics import cosine_similarity


@dataclass
class ClusterResult:
    """Outcome of HDC clustering.

    Attributes:
        centroids: Cluster centroid hypervectors, shape (k, D).
        assignments: Cluster index per sample.
        iterations: Iterations until convergence (or the cap).
        converged: Whether assignments stabilized before the cap.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    iterations: int
    converged: bool


class HDCluster:
    """K-centroid clustering over encoded hypervectors.

    Args:
        k: Number of clusters.
        max_iterations: Iteration cap per restart.
        seed: Initial-centroid seed.
        n_init: Independent restarts; the run with the highest mean
            sample-to-centroid similarity wins (Lloyd-style loops are
            local searches, so restarts matter).
    """

    def __init__(self, k: int, max_iterations: int = 50,
                 seed: Optional[int] = 0, n_init: int = 4) -> None:
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.k = k
        self.max_iterations = max_iterations
        self.seed = seed
        self.n_init = n_init

    def fit(self, encoded: np.ndarray) -> ClusterResult:
        """Cluster encoded hypervectors (best of ``n_init`` restarts).

        Args:
            encoded: Sample hypervectors, shape (n_samples, D); must have
                at least ``k`` samples.
        """
        encoded = np.asarray(encoded, dtype=np.float64)
        if encoded.ndim != 2:
            raise ValueError(f"encoded must be 2-D, got shape {encoded.shape}")
        n = encoded.shape[0]
        if n < self.k:
            raise ValueError(f"need at least k={self.k} samples, got {n}")
        seed_seq = np.random.SeedSequence(self.seed)
        best: Optional[Tuple[float, ClusterResult]] = None
        for child in seed_seq.spawn(self.n_init):
            result = self._fit_once(encoded, np.random.default_rng(child))
            score = float(
                cosine_similarity(encoded, result.centroids).max(axis=1).mean()
            )
            if best is None or score > best[0]:
                best = (score, result)
        assert best is not None
        return best[1]

    def _fit_once(
        self, encoded: np.ndarray, rng: np.random.Generator
    ) -> ClusterResult:
        """One Lloyd-style clustering run."""
        n = encoded.shape[0]
        # k-means++-style spread initialization in cosine space.
        centroids = encoded[self._init_indices(encoded, rng)]
        assignments = np.full(n, -1, dtype=np.int64)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            sims = cosine_similarity(encoded, centroids)
            new_assignments = sims.argmax(axis=1)
            if np.array_equal(new_assignments, assignments):
                converged = True
                break
            assignments = new_assignments
            centroids, counts = bundle_groups(encoded, assignments, self.k)
            if not counts.all():
                # Re-seed every empty cluster at the worst-fit sample.
                centroids[counts == 0] = encoded[sims.max(axis=1).argmin()]
        return ClusterResult(
            centroids=centroids,
            assignments=assignments,
            iterations=iteration,
            converged=converged,
        )

    def _init_indices(
        self, encoded: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Greedy max-dissimilarity initialization (k-means++ flavor).

        The first centroid is a uniform draw; each next one is the
        sample least similar to its closest chosen centroid (ties to
        the lowest index).  Closeness is a running maximum: choosing
        centroid ``c`` costs one product ``d = encoded @ encoded[c]``,
        folded in as the key ``d * |d| / (|x|^2 * |c|^2)``, which
        orders samples as their cosine does (``t * |t|`` is
        increasing).  On integer-valued samples whose
        ``|x|^2 * |c|^2`` (which bounds ``d^2``) stays below ``2**53``
        -- 3.3e5 for 2-bit levels at 64 stages; 8-bit levels pass it
        only beyond 1460 stages -- each key is one correctly rounded
        division of exact integers, so equal cosines give equal keys
        whatever the evaluation order.

        Raises:
            ValueError: A sample is the zero vector (its cosine is
                undefined).
        """
        n = encoded.shape[0]
        sq_norms = np.einsum("ij,ij->i", encoded, encoded)
        if (sq_norms == 0).any():
            raise ValueError("cosine similarity undefined for zero vectors")
        chosen = [int(rng.integers(n))]
        closeness = np.full(n, -np.inf)
        while len(chosen) < self.k:
            c = chosen[-1]
            d = encoded @ encoded[c]
            key = d * np.abs(d)
            key /= sq_norms * sq_norms[c]
            np.maximum(closeness, key, out=closeness)
            closeness[c] = np.inf
            chosen.append(int(closeness.argmin()))
        return np.array(chosen)


def clustering_accuracy(
    assignments: np.ndarray, labels: np.ndarray
) -> float:
    """Best-map clustering accuracy: each cluster takes its majority label.

    A standard external metric when true labels exist (greedy majority
    mapping; exact Hungarian assignment is unnecessary at HDC's typical
    cluster counts).
    """
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if assignments.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: {assignments.shape} vs {labels.shape}"
        )
    correct = 0
    for cluster in np.unique(assignments):
        members = labels[assignments == cluster]
        if len(members):
            correct += int(np.bincount(members).max())
    return correct / len(labels)
