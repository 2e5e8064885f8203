"""Encode-then-search: raw feature vectors as the request surface.

:class:`EncodeSearchService` fronts a
:class:`~repro.service.server.TDAMSearchService` with an
:class:`~repro.hdc.pipeline.EncodePipeline`: a request carries raw
feature vectors, the pipeline encodes and digitizes them into TD-AM
query levels (optionally on the fabric's own integer MVM),
and the wrapped service serves the search with its full admission /
deadline / retry / breaker / degradation discipline.

The encode stage runs *before* admission of the level matrix, under the
same request deadline -- a request whose encode step ate the budget
misses its deadline honestly rather than starting a search it cannot
finish.  Feature-level admission (shape, finiteness) raises
:class:`~repro.service.errors.InvalidRequestError` before any encoding
or shard work happens, and so does an encoding that comes out NaN/Inf
(finite float32 features large enough to overflow the projection).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.mvm import MVMCost
from repro.hdc.pipeline import EncodePipeline
from repro.service.errors import InvalidRequestError
from repro.service.response import ServiceResponse
from repro.service.server import TDAMSearchService

__all__ = ["EncodeSearchService"]


class EncodeSearchService:
    """Feature-in, ranked-rows-out serving endpoint.

    Args:
        service: The level-domain search service to front.
        pipeline: The encode pipeline; its level output must match the
            service's stored geometry (checked at construction).
    """

    def __init__(
        self, service: TDAMSearchService, pipeline: EncodePipeline
    ) -> None:
        if pipeline.dimension != service.config.n_stages:
            raise ValueError(
                f"pipeline dimension {pipeline.dimension} != service "
                f"row width {service.config.n_stages}"
            )
        self.service = service
        self.pipeline = pipeline

    @property
    def n_features(self) -> int:
        """Feature count a request row must carry."""
        return self.pipeline.n_features

    @property
    def in_fabric(self) -> bool:
        """Whether the encode stage runs on the bit-serial MVM fabric."""
        return self.pipeline.in_fabric

    def _admit_features(self, features) -> np.ndarray:
        try:
            x = np.atleast_2d(np.asarray(features, dtype=np.float32))
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"features not numeric: {exc}")
        if x.ndim != 2:
            raise InvalidRequestError(
                f"features must be 1-D or 2-D, got shape {x.shape}"
            )
        if x.shape[0] < 1:
            raise InvalidRequestError("feature batch is empty")
        if x.shape[1] != self.n_features:
            raise InvalidRequestError(
                f"expected {self.n_features} features per row, "
                f"got {x.shape[1]}"
            )
        if not np.isfinite(x).all():
            raise InvalidRequestError("features contain NaN/Inf")
        return x

    def _levels(self, features) -> np.ndarray:
        x = self._admit_features(features)
        try:
            return self.pipeline.query_levels(x)
        except ValueError as exc:
            # Admitted rows have the right shape, so the quantizer can
            # only refuse a non-finite encoding.
            raise InvalidRequestError(f"encoding not finite: {exc}") from exc

    def search(
        self,
        features: Sequence[float],
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Encode one feature vector and serve its nearest-row search."""
        levels = self._levels(features)
        if levels.shape[0] != 1:
            raise InvalidRequestError(
                f"search() takes one feature row, got {levels.shape[0]}; "
                "use search_batch()"
            )
        return self.service.search(levels[0], deadline_s=deadline_s)

    def search_batch(
        self,
        features: Sequence[Sequence[float]],
        deadline_s: Optional[float] = None,
    ) -> List[ServiceResponse]:
        """Encode a feature batch and serve it under one deadline."""
        return self.service.search_batch(
            self._levels(features), deadline_s=deadline_s
        )

    def top_k(
        self,
        features: Sequence[Sequence[float]],
        k: int,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Encode a feature batch and serve its batched top-k."""
        return self.service.top_k(
            self._levels(features), k, deadline_s=deadline_s
        )

    def encode_cost(self, n_samples: int = 1) -> Optional[MVMCost]:
        """Modeled fabric cost of the encode stage (``None`` when the
        pipeline encodes off-fabric in floating point)."""
        return self.pipeline.encode_cost(n_samples)

    def __repr__(self) -> str:
        return (
            f"EncodeSearchService(features={self.n_features}, "
            f"pipeline={self.pipeline!r})"
        )
