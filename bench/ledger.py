"""Per-layer self time, measured by wrapping each layer's public callables.

The benchmark times layers from outside the program: :class:`Tracer`
replaces the callables listed in :data:`LAYERS` with thin wrappers that
record a span per call on a per-thread stack.  A span's *self* time is
its duration minus the durations of its direct children on the same
thread, so self times partition each thread's traced time exactly.

Methods are wrapped on their class.  A module-level function is rebound
in every loaded ``repro.*`` module that holds it, because
``from x import f`` copies the binding into the importing module.

Spans are reduced on the fly (per-layer call counts and self-time
totals) and, for the layers whose distributions are reported, kept as
``(start, end, layer self)`` entries: one entry per outermost call into
the layer, its value the layer's own self time inside that call.
:meth:`Tracer.dump` writes the result once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_now = time.monotonic


def _bitplane_bytes(acc, args, kwargs, result, exc) -> None:
    total = acc.get("bytes", 0)
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.nbytes
    acc["bytes"] = total


def _prune_survivors(acc, args, kwargs, result, exc) -> None:
    if exc is None:
        acc["survivors"] = acc.get("survivors", 0) + int(result[0].shape[0])
        acc["pairs"] = acc.get("pairs", 0) + int(np.asarray(args[0]).size)


def _mvm_macs(acc, args, kwargs, result, exc) -> None:
    plan, acts = args[0], np.asarray(args[1])
    rows = acts.shape[0] if acts.ndim == 2 else 1
    acc["macs"] = acc.get("macs", 0) + rows * plan.n_out * plan.n_in


def _service_outcome(acc, args, kwargs, result, exc) -> None:
    if exc is not None:
        acc["errors"] = acc.get("errors", 0) + 1
        return
    response = result[0] if isinstance(result, list) else result
    if response is None or not hasattr(response, "degraded"):
        return
    queries = np.asarray(args[1])
    acc.setdefault("batch_sizes", []).append(
        (_now(), queries.shape[0] if queries.ndim == 2 else 1)
    )
    acc["retries"] = acc.get("retries", 0) + int(response.retries)
    acc["degraded"] = acc.get("degraded", 0) + int(bool(response.degraded))


def _probe_fraction(acc, args, kwargs, result, exc) -> None:
    if exc is None:
        acc["probe_fraction_sum"] = (
            acc.get("probe_fraction_sum", 0.0) + result.probe_fraction
        )
        acc["probes"] = acc.get("probes", 0) + 1


#: Layer -> wrapped callables ``(module, "Class.method" or "function",
#: hook or None)``.  A hook sees ``(accumulator, args, kwargs, result,
#: exception)`` after every traced call and adds the layer's counters.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "net": [
        ("repro.net.wire", "encode_frame", None),
        ("repro.net.wire", "FrameDecoder.feed", None),
        ("repro.net.wire", "request_message", None),
        ("repro.net.wire", "response_message", None),
        ("repro.net.wire", "decode_response", None),
    ],
    "service.frontend": [
        ("repro.service.frontend", "CoalescingFrontend.submit", None),
        ("repro.service.frontend", "CoalescingFrontend.submit_top_k", None),
    ],
    "service.server": [
        ("repro.service.server", "TDAMSearchService.search",
         _service_outcome),
        ("repro.service.server", "TDAMSearchService.search_batch",
         _service_outcome),
        ("repro.service.server", "TDAMSearchService.top_k",
         _service_outcome),
        ("repro.service.server", "TDAMSearchService.write_all", None),
    ],
    "service.encode": [
        ("repro.service.encode", "EncodeSearchService.search_batch", None),
    ],
    "resilience": [
        ("repro.resilience.resilient", "ResilientTDAMArray.search_batch",
         None),
        ("repro.resilience.resilient", "ResilientTDAMArray.top_k_batch",
         None),
        ("repro.resilience.resilient", "ResilientTDAMArray.write_all", None),
    ],
    "core.array": [
        ("repro.core.array", "FastTDAMArray.search", None),
        ("repro.core.array", "FastTDAMArray.search_batch", None),
        ("repro.core.array", "FastTDAMArray.top_k_batch", None),
        ("repro.core.array", "FastTDAMArray.mismatch_count_batch", None),
        ("repro.core.array", "FastTDAMArray.mismatch_tensor", None),
        ("repro.core.array",
         "FastTDAMArray.batch_result_from_mismatch_counts", None),
        ("repro.core.array", "FastTDAMArray.write_all", None),
        ("repro.core.array", "FastTDAMArray.write", None),
    ],
    "core.bitplane": [
        ("repro.core.bitplane", "pack_query_masks", _bitplane_bytes),
        ("repro.core.bitplane", "packed_mismatch_counts", _bitplane_bytes),
        ("repro.core.bitplane", "packed_pair_counts", _bitplane_bytes),
        ("repro.core.bitplane", "packed_xor_counts", _bitplane_bytes),
    ],
    "core.topk": [
        ("repro.core.topk", "top_k_indices", None),
        ("repro.core.topk", "prune_survivors", _prune_survivors),
        ("repro.core.topk", "grouped_top_k", None),
    ],
    "core.mvm": [
        ("repro.core.mvm", "MVMPlan.matmul", _mvm_macs),
    ],
    "hdc": [
        ("repro.hdc.pipeline", "EncodePipeline.query_levels", None),
        ("repro.hdc.encoder", "QuantizedProjectionEncoder.encode", None),
        ("repro.hdc.quantize", "QuantizedModel.quantize_queries", None),
    ],
    "index": [
        ("repro.index.cluster_index", "ClusteredTDAMIndex.top_k",
         _probe_fraction),
        # top_k routes through this private step, not the public route().
        ("repro.index.cluster_index", "ClusteredTDAMIndex._route_masks",
         None),
        ("repro.index.store", "BitPlaneStore.shard", None),
    ],
}

#: Layers whose calls are too many and too small to keep one entry each;
#: only their totals and hook counters are reported.
TOTALS_ONLY = frozenset({"net", "core.bitplane", "core.topk"})

#: Callables whose own inclusive durations are kept (nested same-layer
#: calls never become layer entries).
SAMPLED = frozenset({"ClusteredTDAMIndex._route_masks"})

#: The benchmark's own driving code, outside every wrapped layer.
ROOT = "bench"


class _ThreadState:
    """One thread's open spans and per-layer totals."""

    __slots__ = ("stack", "calls", "self_s", "counters")

    def __init__(self, n_layers: int) -> None:
        self.stack: List[list] = []
        self.calls = [0] * n_layers
        self.self_s = [0.0] * n_layers
        self.counters: List[Dict[str, object]] = [{} for _ in range(n_layers)]


class Tracer:
    """Wraps :data:`LAYERS` and reduces their spans to a ledger.

    Recording happens only between :meth:`start` and :meth:`stop`; a
    wrapper entered while stopped calls straight through.
    """

    def __init__(self, layers: Optional[List[str]] = None) -> None:
        self.layers = list(LAYERS) if layers is None else list(layers)
        names = self.layers + [ROOT]
        self._index = {name: i for i, name in enumerate(names)}
        self._names = names
        # Per-thread totals, so that recording a span takes no lock;
        # :meth:`dump` adds them up.
        self._threads: List[_ThreadState] = []
        self.entries: List[List[Tuple[float, float, float, str]]] = [
            [] for _ in names
        ]
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self.frontend_requests: List[Tuple[float, object]] = []
        self.active = False
        self.t_start = 0.0
        self.t_stop = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every listed callable of the selected layers."""
        for layer in self.layers:
            for module_name, qualname, hook in LAYERS[layer]:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(layer, qualname, original, hook)
                    self._installed.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, qualname, original, hook)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith(
                        "repro"
                    ):
                        continue
                    if getattr(loaded, qualname, None) is original:
                        self._installed.append((loaded, qualname, original))
                        setattr(loaded, qualname, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _state(self) -> "_ThreadState":
        """The calling thread's :class:`_ThreadState`."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState(len(self._names))
            with self._lock:
                self._threads.append(state)
            return state

    def _wrap(self, layer: str, qualname: str, fn, hook):
        tracer = self
        idx = self._index[layer]
        keep_entries = layer not in TOTALS_ONLY
        sampled = qualname in SAMPLED
        frontend = layer == "service.frontend"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            # [layer, children's time, same-layer descendants' self]
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            exc = None
            result = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = _now()
                stack.pop()
                tracer._close(state, frame, t0, t1, qualname, keep_entries)
                if sampled:
                    tracer.samples.setdefault(qualname, []).append((t0, t1))
                if frontend:
                    tracer.frontend_requests.append(
                        (t0, exc if exc is not None else result)
                    )
                if hook is not None:
                    hook(state.counters[idx], args, kwargs, result, exc)

        return wrapper

    def _close(self, state, frame, t0, t1, name, keep_entries) -> None:
        idx = frame[0]
        stack = state.stack
        duration = t1 - t0
        own = duration - frame[1]
        if stack:
            stack[-1][1] += duration
        state.calls[idx] += 1
        state.self_s[idx] += own
        layer_self = frame[2] + own
        for ancestor in reversed(stack):
            if ancestor[0] == idx:
                ancestor[2] += layer_self
                return
        if keep_entries:
            self.entries[idx].append((t0, t1, layer_self, name))

    # ------------------------------------------------------------------
    # Recording window
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording (the measured phase starts)."""
        self.t_start = _now()
        self.active = True

    def stop(self) -> None:
        """Stop recording (the measured phase ended)."""
        self.active = False
        self.t_stop = _now()

    def root(self):
        """Context manager: record the calling thread's own code as the
        :data:`ROOT` layer, so this thread's self times sum to its wall."""
        tracer = self

        class _Root:
            def __enter__(self_inner):
                tracer.start()
                self_inner.frame = [tracer._index[ROOT], 0.0, 0.0]
                tracer._state().stack.append(self_inner.frame)
                self_inner.t0 = _now()
                return tracer

            def __exit__(self_inner, *exc_info):
                t1 = _now()
                state = tracer._state()
                state.stack.pop()
                tracer._close(state, self_inner.frame, self_inner.t0, t1,
                              ROOT, True)
                tracer.stop()

        return _Root()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, object]:
        """The ledger as plain JSON-ready data."""
        requests = []
        for t0, outcome in self.frontend_requests:
            if isinstance(outcome, BaseException):
                requests.append([t0, None, type(outcome).__name__])
                continue
            exc = outcome.exception() if hasattr(outcome, "exception") else None
            requests.append([
                t0,
                getattr(outcome, "completed_at", None),
                type(exc).__name__ if exc is not None else None,
            ])
        with self._lock:
            threads = list(self._threads)
        layers = {}
        for i, name in enumerate(self._names):
            counters: Dict[str, object] = {}
            for state in threads:
                for key, value in state.counters[i].items():
                    counters[key] = counters.get(key, [] if isinstance(
                        value, list) else 0) + value
            layers[name] = {
                "calls": sum(state.calls[i] for state in threads),
                "self_s": sum(state.self_s[i] for state in threads),
                "counters": counters,
                "entries": [list(e) for e in self.entries[i]],
            }
        return {
            "t_start": self.t_start,
            "t_stop": self.t_stop,
            "wall_s": self.t_stop - self.t_start,
            "layers": layers,
            "samples": {k: [list(s) for s in v]
                        for k, v in self.samples.items()},
            "frontend_requests": requests,
        }


# ----------------------------------------------------------------------
# Ledger -> per-layer metrics
# ----------------------------------------------------------------------
_WRITES = ("FastTDAMArray.write", "FastTDAMArray.write_all",
           "TDAMSearchService.write_all", "ResilientTDAMArray.write_all")
_SHEDS = ("OverloadError", "QuotaExceededError", "AdmissionRejectedError")


def _ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _entries(ledger, layer: str, reads_only: bool = True) -> np.ndarray:
    """(start, end, layer self) rows of one layer's entries."""
    rows = [
        e[:3] for e in ledger["layers"][layer]["entries"]
        if not (reads_only and e[3] in _WRITES)
    ]
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def balance(ledger) -> float:
    """Relative gap between summed self times and the traced wall time.

    Meaningful for single-threaded runs recorded under
    :meth:`Tracer.root`: every span then nests in the root, so the self
    times of all layers (root included) add up to the wall time.
    """
    total = sum(layer["self_s"] for layer in ledger["layers"].values())
    return abs(total - ledger["wall_s"]) / ledger["wall_s"]


def _frontend(ledger, window) -> dict:
    """Sojourn, wait and sheds of the front-end requests submitted
    inside ``window`` (start, end).

    Wait runs from submit to the start of the service call that ended
    last before the request's future resolved (the call that served it).
    """
    calls = _entries(ledger, "service.server")
    ends = calls[:, 1]
    order = np.argsort(ends)
    ends, starts = ends[order], calls[order, 0]
    sojourns, waits, sheds = [], [], 0
    for t_submit, completed, error in ledger["frontend_requests"]:
        if not window[0] <= t_submit < window[1]:
            continue
        if error in _SHEDS:
            sheds += 1
            continue
        if completed is None or error is not None:
            continue
        sojourns.append(completed - t_submit)
        i = int(np.searchsorted(ends, completed, side="right")) - 1
        if i >= 0 and starts[i] >= t_submit:
            waits.append(starts[i] - t_submit)
    return {"sojourns": sojourns, "waits": waits, "sheds": sheds}


def layer_metrics(ledger, extra) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``ledger`` is :meth:`Tracer.dump` of the process that ran the
    layers.  ``extra`` carries what only the run knows: the tracing
    overhead measured against an untraced run (``overhead_pct``); for
    ``serve-remote`` the client's own wall time, net ledger and request
    timings; for ``ann-probe`` the mapped shard count.
    """
    client = extra.get("client")
    wall = extra.get("wall_s", ledger["wall_s"])
    layers = ledger["layers"]
    out = {}
    for name in LAYERS:
        calls = layers[name]["calls"]
        self_s = layers[name]["self_s"]
        if client is not None and name == "net":
            calls += client["layers"]["net"]["calls"]
            self_s += client["layers"]["net"]["self_s"]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.share"] = (self_s / wall, "fraction")
    if client is not None:
        out["bench.share"] = (extra["generator_cpu_s"] / wall, "fraction")
    else:
        out["bench.share"] = (layers[ROOT]["self_s"] / wall, "fraction")

    # Request timings explain latency, so they come from the open-loop
    # half; batch sizes explain goodput, so from the closed-loop half.
    whole = (ledger["t_start"], ledger["t_stop"])
    front = _frontend(ledger, extra.get("open_window", whole))
    served = layers["service.server"]["counters"]
    sojourn_mean = float(np.mean(front["sojourns"])) if front["sojourns"] \
        else 0.0
    closed = extra.get("closed_window", whole)
    sizes = [
        size for t_done, size in served.get("batch_sizes", [])
        if closed[0] <= t_done < closed[1]
    ]
    out["net.overhead_ms_mean"] = (
        max(0.0, extra.get("client_latency_ms_mean", 0.0)
            - sojourn_mean * 1e3) if client is not None else 0.0,
        "ms",
    )
    out["net.bytes_per_request"] = (extra.get("bytes_per_request", 0.0),
                                    "bytes")
    out["net.errors"] = (extra.get("wire_errors", 0), "count")
    out["service.frontend.wait_ms_mean"] = (
        float(np.mean(front["waits"])) * 1e3 if front["waits"] else 0.0, "ms"
    )
    out["service.frontend.batch_size_mean"] = (
        float(np.mean(sizes)) if front["sojourns"] and sizes else 0.0,
        "queries",
    )
    out["service.frontend.sojourn_ms_p50"] = (_ms(front["sojourns"], 50), "ms")
    out["service.frontend.sojourn_ms_p99"] = (_ms(front["sojourns"], 99), "ms")
    out["service.frontend.sheds"] = (front["sheds"], "count")

    server = _entries(ledger, "service.server")[:, 2]
    out["service.server.self_ms_p50"] = (_ms(server, 50), "ms")
    out["service.server.self_ms_p99"] = (_ms(server, 99), "ms")
    out["service.server.retries"] = (served.get("retries", 0), "count")
    out["service.server.degraded"] = (served.get("degraded", 0), "count")
    out["service.encode.self_ms_p50"] = (
        _ms(_entries(ledger, "service.encode")[:, 2], 50), "ms"
    )
    hdc = _entries(ledger, "hdc")
    out["hdc.encode_ms_p50"] = (_ms(hdc[:, 1] - hdc[:, 0], 50), "ms")
    resilience = _entries(ledger, "resilience")[:, 2]
    out["resilience.self_ms_p50"] = (_ms(resilience, 50), "ms")
    out["resilience.self_ms_p99"] = (_ms(resilience, 99), "ms")

    reads = _entries(ledger, "core.array")
    out["core.array.self_ms_p50"] = (_ms(reads[:, 2], 50), "ms")
    out["core.array.self_ms_p99"] = (_ms(reads[:, 2], 99), "ms")
    writes = [
        e for e in layers["core.array"]["entries"] if e[3] in _WRITES
    ]
    # One write event = one outermost write call (service, else array).
    events = [
        e for e in layers["service.server"]["entries"] if e[3] in _WRITES
    ] or writes
    out["core.array.write_ms_mean"] = (
        1e3 * sum(e[2] for e in writes) / len(events) if events else 0.0,
        "ms",
    )
    rebuilds = []
    starts = reads[:, 0]
    order = np.argsort(starts)
    for event in events:
        i = int(np.searchsorted(starts[order], event[1]))
        if i < len(order):
            rebuilds.append(reads[order[i], 2])
    out["core.array.rebuild_ms_mean"] = (
        1e3 * float(np.mean(rebuilds)) if rebuilds else 0.0, "ms"
    )

    bitplane = layers["core.bitplane"]
    out["core.bitplane.self_ms_total"] = (bitplane["self_s"] * 1e3, "ms")
    out["core.bitplane.gb_moved"] = (
        bitplane["counters"].get("bytes", 0) / 1e9, "GB"
    )
    topk = layers["core.topk"]
    out["core.topk.self_ms_total"] = (topk["self_s"] * 1e3, "ms")
    pairs = topk["counters"].get("pairs", 0)
    out["core.topk.survivor_ratio"] = (
        topk["counters"].get("survivors", 0) / pairs if pairs else 0.0,
        "fraction",
    )
    mvm = layers["core.mvm"]
    out["core.mvm.self_ms_total"] = (mvm["self_s"] * 1e3, "ms")
    out["core.mvm.gmacs"] = (mvm["counters"].get("macs", 0) / 1e9, "GMAC")

    index = layers["index"]
    top_k = [e[2] for e in index["entries"]
             if e[3] == "ClusteredTDAMIndex.top_k"]
    out["index.topk_self_ms_p50"] = (_ms(top_k, 50), "ms")
    route = [t1 - t0 for t0, t1 in
             ledger["samples"].get("ClusteredTDAMIndex._route_masks", [])]
    out["index.route_ms_p50"] = (_ms(route, 50), "ms")
    probes = index["counters"].get("probes", 0)
    out["index.probe_fraction"] = (
        index["counters"].get("probe_fraction_sum", 0.0) / probes
        if probes else 0.0,
        "fraction",
    )
    out["index.shards_mapped"] = (extra.get("shards_mapped", 0), "count")
    out["trace.overhead_pct"] = (extra["overhead_pct"], "%")
    return out
