"""Open-loop load generation over the socket transport.

The wall-clock sibling of :func:`repro.service.loadgen.run_load`: the
same seeded traffic (:func:`~repro.service.loadgen.derive_traffic`),
the same reference answers, outcome tally and
:class:`~repro.service.loadgen.LoadReport` -- but offered through
:class:`~repro.net.client.RemoteFrontend` against a real server across
a real socket.

Determinism across two processes comes from one invariant: **both
sides derive the corpus from the seed, in the same rng order**.
``repro serve --seed N`` stores the matrix ``derive_traffic`` yields;
``repro loadtest --remote --seed N`` derives the identical traffic,
replays the reference answers through a private seeded in-process
service, and scores every remote ``degraded=False`` answer against
them.  A transport that flips a bit, drops a frame, or reorders a
response can therefore never be graded "healthy" by accident -- any
silent corruption lands in ``wrong_unflagged`` and fails the honesty
SLO.

The run stays open-loop on the wall clock: nominal arrival times are
fixed up front; a scheduler offers each request at its nominal time
regardless of how the server is doing, and latency is charged from the
nominal arrival.  Requests that cannot even start before their
deadline (every worker busy past the budget) are counted as
``queue_deadline`` sheds -- client-side dead-on-arrivals, exactly like
the in-process generator's.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional

from repro.net.client import RemoteFrontend
from repro.service.chaos import FakeClock
from repro.service.errors import AdmissionRejectedError, ServiceError
from repro.service.loadgen import (
    LoadConfig,
    LoadReport,
    _build_service,
    _prepare,
    _Tally,
)

__all__ = [
    "run_remote_load",
]


def run_remote_load(
    config: Optional[LoadConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    n_workers: int = 16,
    client_factory: Optional[Callable[[], RemoteFrontend]] = None,
) -> LoadReport:
    """Offer one seeded open-loop run over the wire; score it.

    Args:
        config: The same knobs as the in-process generator; the server
            must have been started from the same ``seed`` / ``n_rows``
            / ``n_stages`` (``repro serve`` enforces this by storing the
            matrix :func:`~repro.service.loadgen.derive_traffic`
            yields).
        host / port: The running server.
        n_workers: Client worker threads (the in-flight ceiling; an
            arrival with no free worker waits, its budget burning,
            exactly like a queue).
        client_factory: Override client construction (tests inject
            fault plans here); default builds a plain
            :class:`~repro.net.client.RemoteFrontend`.
    """
    config = config if config is not None else LoadConfig()
    # The honesty oracle: a private fake-clock service with the
    # identical seed and stored matrix answers every pool query.
    traffic, reference = _prepare(config, _build_service(config, FakeClock()))

    if client_factory is None:
        def client_factory() -> RemoteFrontend:
            return RemoteFrontend(
                host, port, default_deadline_s=config.deadline_s
            )

    tally = _Tally(config)
    lock = threading.Lock()
    work: "queue.Queue[Optional[int]]" = queue.Queue()
    start = time.monotonic()

    def offer(client: RemoteFrontend, idx: int) -> None:
        tenant = traffic.tenants[idx]
        qi = traffic.query_ids[idx]
        nominal_at = start + traffic.arrivals[idx]
        budget_s = (nominal_at + config.deadline_s) - time.monotonic()
        if budget_s <= 0:
            # Every worker was busy past this request's whole budget: a
            # client-side dead-on-arrival -- shed, not miss (no byte of
            # it ever reached the server).
            with lock:
                tally.shed(tenant, "queue_deadline")
            return
        try:
            if config.kind == "search":
                response = client.search(
                    traffic.pool[qi], tenant=tenant, deadline_s=budget_s
                )
            else:
                response = client.top_k(
                    traffic.pool[qi], config.k, tenant=tenant,
                    deadline_s=budget_s,
                )
        except AdmissionRejectedError as exc:
            with lock:
                tally.shed(tenant, exc.reason)
            return
        except (ServiceError, OSError) as exc:
            with lock:
                tally.admit(tenant)
                tally.fail(tenant, exc)
            return
        latency = time.monotonic() - nominal_at
        with lock:
            tally.admit(tenant)
            tally.answer(tenant, latency, response, reference[qi])

    def worker() -> None:
        client = client_factory()
        try:
            while True:
                idx = work.get()
                if idx is None:
                    return
                try:
                    offer(client, idx)
                except Exception:
                    # Whatever slipped past the typed handlers, the
                    # worker must survive to drain the queue.
                    with lock:
                        tally.errors += 1
                finally:
                    work.task_done()
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(n_workers)
    ]
    for th in threads:
        th.start()
    for idx, (t_nominal, tenant) in enumerate(
        zip(traffic.arrivals, traffic.tenants)
    ):
        with lock:
            tally.tenants[tenant].offered += 1
        # Open loop: enqueue at the nominal time no matter how the
        # service (or the worker pool) is doing.
        delay = (start + t_nominal) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        work.put(idx)
    work.join()
    for _ in threads:
        work.put(None)
    for th in threads:
        th.join(timeout=10.0)
    return tally.report(
        time.monotonic() - start, mean_batch_size=0.0, batches=0
    )
