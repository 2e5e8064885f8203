"""The HDC classifier: single-pass training + OnlineHD-style refinement.

Training follows the paper's reference framework (OnlineHD [35]):

1. **single pass**: every encoded training hypervector is bundled into
   its class prototype;
2. **refinement epochs**: each sample is re-classified; on a miss the
   sample is added to the correct prototype and subtracted from the
   wrongly winning one, scaled by how confidently wrong the model was
   (the adaptive OnlineHD update).

Prediction on the float model uses cosine similarity (the 32-bit
reference / GPU path).  Quantized inference lives in
:mod:`repro.hdc.quantize` and :mod:`repro.hdc.mapping`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hdc.encoder import RandomProjectionEncoder
from repro.hdc.hypervector import bundle_groups
from repro.hdc.metrics import cosine_similarity


class HDCClassifier:
    """HDC classifier over a fixed encoder.

    Args:
        encoder: The feature-to-hypervector encoder.
        n_classes: Number of classes.
        learning_rate: Scale of the refinement updates.
    """

    def __init__(
        self,
        encoder: RandomProjectionEncoder,
        n_classes: int,
        learning_rate: float = 0.35,
    ) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.encoder = encoder
        self.n_classes = n_classes
        self.learning_rate = learning_rate
        self.prototypes = np.zeros(
            (n_classes, encoder.dimension), dtype=np.float32
        )
        #: Per-dimension mean of the training encodings.  The nonlinear
        #: projection has a class-independent mean component (a fixed
        #: phase pattern) that would dominate cosine similarity and
        #: quantization bins; it is removed from every encoding.
        self.encoding_center = np.zeros(encoder.dimension, dtype=np.float32)
        self._trained = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 10,
        shuffle_seed: Optional[int] = 0,
    ) -> "HDCClassifier":
        """Train: single-pass bundling plus refinement epochs.

        Args:
            features: Shape (n_samples, n_features).
            labels: Integer class labels in [0, n_classes).
            epochs: Refinement epochs after the single pass.
            shuffle_seed: Seed of the per-epoch sample shuffles.
        """
        labels = self._check_labels(labels)
        raw = self.encoder.encode(features)
        if raw.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{raw.shape[0]} samples but {labels.shape[0]} labels"
            )
        self.encoding_center = raw.mean(axis=0)
        encoded = self._normalize(raw - self.encoding_center)
        self.prototypes[:] = bundle_groups(encoded, labels, self.n_classes)[0]
        self._trained = True
        rng = np.random.default_rng(shuffle_seed)
        for _ in range(epochs):
            order = rng.permutation(len(labels))
            self._refine_epoch(encoded[order], labels[order])
        return self

    @staticmethod
    def _normalize(encoded: np.ndarray) -> np.ndarray:
        """L2-normalize each encoding row (OnlineHD convention)."""
        norms = np.linalg.norm(encoded, axis=1, keepdims=True)
        return encoded / np.maximum(norms, 1e-12)

    def _refine_epoch(self, encoded: np.ndarray, labels: np.ndarray) -> None:
        """One OnlineHD-style adaptive refinement epoch."""
        sims = cosine_similarity(encoded, self.prototypes)
        predictions = sims.argmax(axis=1)
        for i in np.nonzero(predictions != labels)[0]:
            truth, wrong = labels[i], predictions[i]
            # Confidence-scaled update: larger when the model was far from
            # the truth and confidently wrong.
            alpha_t = 1.0 - sims[i, truth]
            alpha_w = 1.0 - sims[i, wrong]
            self.prototypes[truth] += self.learning_rate * alpha_t * encoded[i]
            self.prototypes[wrong] -= self.learning_rate * alpha_w * encoded[i]

    # ------------------------------------------------------------------
    # Inference (float / 32-bit reference path)
    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels via cosine similarity."""
        self._check_trained()
        return cosine_similarity(self.encode(features), self.prototypes).argmax(axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a labelled set."""
        labels = self._check_labels(labels)
        return float((self.predict(features) == labels).mean())

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode features as the classifier sees them: the encoder's
        output, centered and L2-normalized (used by all inference paths,
        including the quantized/TD-AM one)."""
        return self.encode_with(self.encoder, features)

    def encode_with(self, encoder, features: np.ndarray) -> np.ndarray:
        """:meth:`encode` through an alternate encoder -- e.g. the
        quantized in-fabric projection
        (:class:`repro.hdc.encoder.QuantizedProjectionEncoder`) -- with
        this classifier's centering and normalization statistics, so
        the result is directly comparable to the training-time view."""
        self._check_trained()
        raw = encoder.encode(features)
        return self._normalize(raw - self.encoding_center)

    def _check_labels(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must be in [0, {self.n_classes - 1}], "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        return labels.astype(np.int64)

    def _check_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("model used before fit()")
