"""End-to-end encode pipeline: features -> TD-AM query levels.

The TD-AM consumes integer *levels*, but an application holds raw
feature vectors.  Between them sit three fixed transformations that the
classifier and quantizer own jointly:

1. encode -- the random projection (float, or the in-fabric quantized
   MVM of :class:`repro.hdc.encoder.QuantizedProjectionEncoder`);
2. center + L2-normalize with the *classifier's* training statistics
   (the quantizer's bin edges were fitted on exactly this view);
3. digitize with the *quantized model's* shared bin edges.

:class:`EncodePipeline` packages the three so serving code
(:class:`repro.service.encode.EncodeSearchService`) and experiments
cannot recombine them inconsistently, and :func:`build_pipeline`
assembles the whole thing -- including the fabric encoder variant --
from a trained classifier in one call.

When the pipeline's encoder is the in-fabric quantized one, the encode
step itself runs as the fabric's exact integer MVM and
:meth:`EncodePipeline.encode_cost` reports the modeled fabric
latency/energy of the encode stage (the search stage's cost model lives
with the arrays that serve it).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.config import TDAMConfig
from repro.core.mvm import MVMCost
from repro.hdc.encoder import QuantizedProjectionEncoder, RandomProjectionEncoder
from repro.hdc.model import HDCClassifier
from repro.hdc.quantize import QuantizedModel, quantize_equal_area

__all__ = ["EncodePipeline", "build_pipeline"]

Encoder = Union[RandomProjectionEncoder, QuantizedProjectionEncoder]


class EncodePipeline:
    """Feature -> level pipeline over one trained classifier.

    Args:
        classifier: The trained classifier; supplies the centering /
            normalization statistics (and the default encoder).
        model: The quantized class-hypervector model; supplies the bin
            edges queries must share.
        encoder: Optional encoder override -- pass the classifier
            encoder's :meth:`~repro.hdc.encoder.RandomProjectionEncoder
            .quantize` result to run the encode stage in-fabric.  Must
            match the classifier's encoder geometry.
    """

    def __init__(
        self,
        classifier: HDCClassifier,
        model: QuantizedModel,
        encoder: Optional[Encoder] = None,
    ) -> None:
        classifier._check_trained()
        encoder = encoder if encoder is not None else classifier.encoder
        base = classifier.encoder
        if (
            encoder.n_features != base.n_features
            or encoder.dimension != base.dimension
        ):
            raise ValueError(
                f"encoder geometry ({encoder.n_features}, "
                f"{encoder.dimension}) != classifier encoder geometry "
                f"({base.n_features}, {base.dimension})"
            )
        if model.dimension != base.dimension:
            raise ValueError(
                f"model dimension {model.dimension} != encoder "
                f"dimension {base.dimension}"
            )
        self.classifier = classifier
        self.model = model
        self.encoder = encoder

    @property
    def n_features(self) -> int:
        """Input feature count the pipeline accepts."""
        return self.encoder.n_features

    @property
    def dimension(self) -> int:
        """Hypervector dimension of the encode stage."""
        return self.encoder.dimension

    @property
    def in_fabric(self) -> bool:
        """Whether the encode stage runs on the bit-serial MVM fabric."""
        return isinstance(self.encoder, QuantizedProjectionEncoder)

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encoded hypervectors as the quantizer expects them:
        projected, centered, and L2-normalized, shape (n, D)."""
        return self.classifier.encode_with(self.encoder, features)

    def query_levels(self, features: np.ndarray) -> np.ndarray:
        """TD-AM query levels for raw feature rows, shape (n, D)."""
        return self.model.quantize_queries(self.encode(features))

    def encode_cost(self, n_samples: int = 1) -> Optional[MVMCost]:
        """Modeled fabric cost of the encode stage, or ``None`` when
        the pipeline encodes in floating point off-fabric."""
        if not self.in_fabric:
            return None
        assert isinstance(self.encoder, QuantizedProjectionEncoder)
        return self.encoder.encode_cost(n_samples)

    def __repr__(self) -> str:
        stage = "fabric" if self.in_fabric else "float"
        return (
            f"EncodePipeline(features={self.n_features}, "
            f"D={self.dimension}, bits={self.model.bits}, "
            f"encode={stage})"
        )


def build_pipeline(
    classifier: HDCClassifier,
    bits: int,
    fabric: bool = False,
    weight_bits: int = 8,
    act_bits: int = 8,
    config: Optional[TDAMConfig] = None,
) -> EncodePipeline:
    """Assemble the full pipeline from a trained classifier.

    Quantizes the class prototypes to ``bits`` with the paper's
    equal-area scheme and, when ``fabric`` is set, swaps the encode
    stage for the quantized in-fabric projection.

    Args:
        classifier: Trained :class:`~repro.hdc.model.HDCClassifier`.
        bits: TD-AM element precision of the stored model.
        fabric: Serve the encode stage on the bit-serial MVM fabric.
        weight_bits: Stored projection width of the fabric encoder.
        act_bits: Streamed activation width of the fabric encoder.
        config: Fabric design point for the encode cost model.
    """
    model = quantize_equal_area(classifier.prototypes, bits)
    encoder: Optional[Encoder] = None
    if fabric:
        encoder = classifier.encoder.quantize(
            weight_bits=weight_bits, act_bits=act_bits, config=config
        )
    return EncodePipeline(classifier, model, encoder=encoder)
