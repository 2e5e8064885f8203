"""The replicated serving stack ``repro serve`` runs.

One place builds the shards, the stored corpus and the front end that
``repro serve``, both load generators and the chaos harness share:

- :class:`LoadConfig` -- the geometry, seed, control knobs and cost
  model a stack (and a load-test run) is built from;
- :func:`build_shards` -- replica arrays, optionally seeded with fault
  maps;
- :func:`draw_stored` -- the stored matrix, the first draw of the
  seed's generator, so a server and a load generator in different
  processes store identical corpora;
- :func:`build_server_stack` -- the wall-clock service and coalescing
  front end behind the socket server.

It imports the serving code alone: starting a server loads neither the
load generators nor the chaos harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TDAMConfig
from repro.core.faults import FaultInjector
from repro.resilience.resilient import ResilientTDAMArray
from repro.service.admission import AdmissionController, TenantQuotas
from repro.service.coalesce import CoalescePolicy
from repro.service.frontend import CoalescingFrontend
from repro.service.server import TDAMSearchService

__all__ = [
    "LoadConfig",
    "build_shards",
    "draw_stored",
    "build_server_stack",
]


@dataclass(frozen=True)
class LoadConfig:
    """One load-test run: traffic shape, control knobs, cost model.

    Args:
        duration_s: Simulated arrival span (requests arriving in
            ``[0, duration_s)``; the run itself continues until every
            admitted request resolves).
        rate_per_s: Offered Poisson arrival rate, all tenants combined.
        deadline_s: Per-request deadline, dated from *nominal* arrival
            (an arrival delayed by upstream queueing has already spent
            part of its budget -- open-loop honesty).
        n_tenants: Tenants (``t0`` .. ``t{n-1}``).
        tenant_weights: Per-tenant traffic share (default uniform).
        quota_rate_per_s: Default per-tenant quota (``inf`` = off).
        quota_burst: Default per-tenant bucket capacity.
        quota_overrides: ``tenant -> (rate_per_s, burst)`` explicit
            quotas layered over the default.
        max_queue_depth: Front-end intake bound.
        window_s: Coalescing window.
        max_batch: Coalescing batch-size cap.
        attempt_base_s: Simulated shard cost per attempt (fixed part).
        attempt_per_query_s: Simulated shard cost per query in the
            batch -- this gap is exactly what coalescing harvests.
        kind: ``"search"`` or ``"topk"``.
        k: Top-k size (``kind="topk"``).
        pool_size: Distinct queries drawn from (answers precomputed
            for the honesty check).
        n_rows: Stored rows (self-built service only).
        n_shards: Replicas (self-built service only).
        n_stages: Design-point stage count (self-built service only).
        seed: Master seed of the arrival/tenant/query streams.
    """

    duration_s: float = 0.25
    rate_per_s: float = 2000.0
    deadline_s: float = 0.050
    n_tenants: int = 4
    tenant_weights: Optional[Tuple[float, ...]] = None
    quota_rate_per_s: float = math.inf
    quota_burst: float = 16.0
    quota_overrides: Optional[Dict[str, Tuple[float, float]]] = None
    max_queue_depth: int = 64
    window_s: float = 0.002
    max_batch: int = 32
    attempt_base_s: float = 0.0005
    attempt_per_query_s: float = 0.0001
    kind: str = "search"
    k: int = 3
    pool_size: int = 32
    n_rows: int = 16
    n_shards: int = 2
    n_stages: int = 16
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {self.rate_per_s}")
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.kind not in ("search", "topk"):
            raise ValueError(
                f"kind must be 'search' or 'topk', got {self.kind!r}"
            )
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if self.tenant_weights is not None and (
            len(self.tenant_weights) != self.n_tenants
            or any(w < 0 for w in self.tenant_weights)
            or sum(self.tenant_weights) <= 0
        ):
            raise ValueError(
                "tenant_weights must be n_tenants non-negative weights "
                "with a positive sum"
            )


def build_shards(
    config: TDAMConfig,
    n_rows: int,
    n_shards: int,
    n_spares: int,
    fault_counts: Optional[Sequence[Tuple[int, int, int]]] = None,
    seed: int = 0,
) -> List[ResilientTDAMArray]:
    """Replica arrays, optionally seeded with per-shard fault maps.

    ``fault_counts[i]`` is ``(n_stuck_mismatch, n_stuck_match,
    n_dead_rows)`` for shard ``i``; masking repairs are disabled so the
    ideal-Hamming oracle stays exact for non-degraded answers.
    """
    shards = []
    for i in range(n_shards):
        faults = ()
        if fault_counts is not None:
            injector = FaultInjector(
                config, n_rows + n_spares, seed=seed + 1000 * i
            )
            sm, sma, dead = fault_counts[i]
            faults = injector.draw(
                n_stuck_mismatch=sm, n_stuck_match=sma, n_dead_rows=dead
            )
        shards.append(
            ResilientTDAMArray(
                config,
                n_rows=n_rows,
                n_spares=n_spares,
                faults=list(faults),
                max_masked_stages=0,
            )
        )
    return shards


def draw_stored(rng: np.random.Generator, service) -> np.ndarray:
    """The stored matrix, sized by ``service``'s geometry.

    It is the first draw of a seed's generator:
    :func:`~repro.service.loadgen.derive_traffic` continues from the
    same generator, so the corpus a server stores and the one its load
    generator scores against are identical.
    """
    return rng.integers(
        0, service.config.levels, (service.n_rows, service.config.n_stages)
    )


def build_server_stack(
    config: LoadConfig,
) -> Tuple[TDAMSearchService, CoalescingFrontend]:
    """The wall-clock service + front end ``repro serve`` runs.

    Same topology as the fake-clock loadtest stack (replicated shards,
    quotas, bounded queue, coalescing) but on real time, with the
    simulated per-attempt cost realized as an actual sleep -- the knob
    that gives the socket smoke test a controllable capacity ceiling.
    """
    shards = build_shards(
        TDAMConfig(n_stages=config.n_stages),
        config.n_rows,
        n_shards=config.n_shards,
        n_spares=2,
        seed=config.seed,
    )
    service = TDAMSearchService(
        shards, default_deadline_s=config.deadline_s
    )
    if config.attempt_base_s > 0 or config.attempt_per_query_s > 0:
        def cost(shard_id: str, queries: np.ndarray) -> None:
            time.sleep(
                config.attempt_base_s
                + config.attempt_per_query_s * queries.shape[0]
            )

        service.add_interceptor(cost)
    service.write_all(draw_stored(np.random.default_rng(config.seed), service))
    quotas = TenantQuotas(
        default_rate_per_s=config.quota_rate_per_s,
        default_burst=config.quota_burst,
    )
    for tenant, (rate, burst) in (config.quota_overrides or {}).items():
        quotas.set_quota(tenant, rate, burst=burst)
    frontend = CoalescingFrontend(
        service,
        policy=CoalescePolicy(
            window_s=config.window_s, max_batch=config.max_batch
        ),
        admission=AdmissionController(
            max_queue_depth=config.max_queue_depth,
            quotas=quotas,
            overload_retry_after_s=config.window_s,
        ),
        auto_dispatch=True,
        name="remote-frontend",
    )
    return service, frontend
