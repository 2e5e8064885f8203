"""The socket load generator scores like the in-process one.

Both generators share one outcome tally, so their reports must obey the
same accounting identities -- including under overload, where admitted
requests end in deadline misses rather than answers.
"""

import pytest

from repro.net.chaos import ServerHarness
from repro.net.loadgen import run_remote_load
from repro.service.loadgen import LoadConfig, run_load
from repro.service.stack import build_server_stack

# Small queue, slow attempts, tight deadline: the run sheds, and some
# admitted requests miss their deadline instead of being answered.
_OVERLOADED = LoadConfig(
    n_rows=16, n_shards=2, n_stages=16, seed=7,
    max_queue_depth=8, attempt_base_s=0.004, deadline_s=0.04,
    rate_per_s=1500.0, duration_s=0.25,
)


def _run(where):
    if where == "in_process":
        return run_load(_OVERLOADED)
    _, frontend = build_server_stack(_OVERLOADED)
    harness = ServerHarness(frontend).start()
    try:
        return run_remote_load(
            _OVERLOADED, port=harness.port, n_workers=32
        )
    finally:
        harness.stop()


@pytest.mark.timeout(60)
@pytest.mark.parametrize("where", ["in_process", "remote"])
def test_tenant_rows_sum_to_the_totals(where):
    report = _run(where)
    tenants = report.tenants.values()
    assert report.sheds > 0
    assert report.admitted > report.goodput
    assert sum(t.admitted for t in tenants) == report.admitted
    assert sum(t.offered for t in tenants) == report.offered
    assert sum(t.answered for t in tenants) == report.goodput
    assert report.honest
