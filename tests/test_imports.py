"""Each process imports what it runs, not every subsystem.

Every case runs in a fresh interpreter, which reports the ``repro``
modules it loaded: a benchmark workload's entry imports (those of
``bench/child.py``), and ``repro serve`` up to the point where it
would start listening.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Tooling no serving or benchmark process needs.
TOOLING = (
    "repro.service.chaos",
    "repro.service.loadgen",
    "repro.net.client",
    "repro.net.faults",
    "repro.net.loadgen",
    "repro.spice",
    "repro.experiments",
    "repro.baselines",
)

#: Workload -> (entry modules, subsystems that must stay unloaded).
WORKLOADS = {
    "scan-topk": (
        ["repro.core.config", "repro.resilience.resilient",
         "repro.service.server"],
        TOOLING + ("repro.hdc", "repro.index", "repro.net"),
    ),
    "ann-probe": (
        ["repro.core.config", "repro.index.cluster_index"],
        TOOLING + ("repro.service", "repro.resilience", "repro.net",
                   "repro.hdc.quantize"),
    ),
    "hdc-refresh": (
        ["repro.core.config", "repro.datasets.synthetic",
         "repro.hdc.encoder", "repro.hdc.model", "repro.hdc.pipeline",
         "repro.resilience.resilient", "repro.service.encode",
         "repro.service.server"],
        TOOLING + ("repro.index", "repro.net"),
    ),
}

#: ``repro serve`` with the socket loop replaced by a report of what
#: the process loaded once its stack was built.
SERVE = """
import json, sys
import repro.net.server

def report(frontend, **kwargs):
    loaded = sorted(m for m in sys.modules if m.startswith("repro"))
    print("LOADED " + json.dumps(loaded))

repro.net.server.serve_until_signal = report
from repro.cli import main
main(["serve", "--port", "0", "--rows", "16", "--stages", "16"])
"""

SERVE_UNLOADED = TOOLING + ("repro.hdc", "repro.index", "repro.datasets")


def _loaded(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout
    line = next(l for l in out.splitlines() if l.startswith("LOADED "))
    return json.loads(line[len("LOADED "):])


def _stray(loaded, unloaded):
    return [
        m for m in loaded
        if any(m == u or m.startswith(u + ".") for u in unloaded)
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_entry_imports(workload):
    entries, unloaded = WORKLOADS[workload]
    loaded = _loaded(
        "import importlib, json, sys\n"
        f"for name in {entries!r}:\n"
        "    importlib.import_module(name)\n"
        "print('LOADED ' + json.dumps("
        "sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert set(entries) <= set(loaded)
    assert _stray(loaded, unloaded) == []


def test_serve_imports_the_serving_stack_only():
    loaded = _loaded(SERVE)
    assert {"repro.net.server", "repro.service.frontend"} <= set(loaded)
    assert _stray(loaded, SERVE_UNLOADED) == []


def test_mvm_export_is_the_function_after_importing_its_module():
    # ``repro.core.mvm`` is both a submodule and an exported function;
    # importing the submodule must not rebind the package's name.
    loaded = _loaded(
        "import inspect, json, sys\n"
        "import repro.core.mvm\n"
        "from repro.core import mvm\n"
        "module = sys.modules['repro.core.mvm']\n"
        "print('LOADED ' + json.dumps([inspect.isfunction(mvm), "
        "mvm is module.mvm]))\n"
    )
    assert loaded == [True, True]
