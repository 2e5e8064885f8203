"""``serve-remote``: a ``repro serve`` child driven over TCP.

One asyncio thread drives the server over ``min(2, nproc)``
connections with pipelined frames built from :mod:`repro.net.wire`
(``RemoteFrontend`` blocks on one request per connection, so it would
need more threads than cores to build a queue).  After a warm-up the
run offers open-loop Poisson arrivals for :data:`OPEN_SHARE` of the
measured time -- each request timed from when it was due -- and then
keeps a fixed number of requests outstanding for the rest, which gives
the goodput.  Every answer not flagged degraded must equal the oracle's.
The server runs on the program's CPUs and the generator, which also
takes the probes, on the benchmark's own (:func:`bench.probe.isolation`).
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bench import oracle, probe
from bench import workloads as W

#: A server that has not printed its endpoint by then failed to start.
LISTEN_TIMEOUT_S = 60.0
#: How long the run waits for answers still in flight at the end.
DRAIN_TIMEOUT_S = 10.0
#: Share of the measured time given to the open loop.  With two thirds,
#: latency varied less from run to run than goodput did.
OPEN_SHARE = 0.5
#: Servers set up per measured server; only every this-many-th is
#: measured.  A start takes about half a second, nearly all of it
#: imports, and varies by a quarter from one start to the next, so
#: ``setup_s`` needs more starts than the measurement needs servers:
#: with five, three runs of one commit read ``unresolved`` in about one
#: comparison of three.
SETUPS_PER_SERVER = 3
#: p99 of how late the generator sent its open-loop requests, in ms.
#: Above it a run is marked ``valid: false``, and a measured server is
#: replaced by a fresh one, at most ``MAX_REPLACED`` times per untraced
#: run.  The generator has a CPU the server cannot use, so when it falls
#: behind the host has taken that CPU (steal time), and the server's
#: latencies then measure the host: in ten runs during such a period,
#: the p90 of the six valid ones read 5.5-6.4 ms and of the four others
#: 6.1-10.1 ms.  Replaced servers' answers are still checked.
MAX_LAG_MS = 5.0
MAX_REPLACED = 2

#: Error codes of transport failures (as opposed to serving outcomes).
_WIRE_ERRORS = ("frame_too_large", "frame_corrupt", "frame_timeout",
                "connection_lost", "handshake", "wire_protocol")


def prepare(seed: int, p: Dict) -> Dict[str, np.ndarray]:
    """The server's corpus (as ``repro serve --seed`` stores it), the
    query pool, each pool entry's kind, and the oracle's answers."""
    stored = np.random.default_rng(seed).integers(
        0, W.LEVELS, (p["rows"], p["stages"])
    )
    rng = np.random.default_rng([seed, 1])
    src = rng.integers(0, p["rows"], p["pool"])
    queries = W.redraw(stored[src], p["redraw"], rng)
    topk = rng.random(p["pool"]) < p["topk_share"]
    return {
        "queries": queries,
        "topk": topk,
        "expected": oracle.exact_top_k(stored, queries, p["k"]),
        "arrivals": rng.exponential(1.0 / p["rate"], size=1 << 20),
        "picks": rng.integers(0, p["pool"], size=1 << 20),
    }


def _server_argv(seed: int, p: Dict) -> List[str]:
    return [
        "serve", "--port", "0", "--seed", str(seed),
        "--rows", str(p["rows"]), "--stages", str(p["stages"]),
        "--shards", str(p["shards"]),
        "--attempt-base", "0", "--attempt-per-query", "0",
        "--max-in-flight", str(p["max_in_flight"]),
        "--deadline", str(p["deadline"]),
    ]


class _Server:
    """One server child on the program's CPUs: spawn, endpoint, drain.

    Until the endpoint shows, the machine's speed is probed every
    ``probe.EVERY_S`` into :attr:`probes`.
    """

    def __init__(self, root: Path, workdir: Path, tag: str, argv: List[str],
                 ledger_path: Optional[Path],
                 pin: Optional[Callable[[], None]]) -> None:
        self.log = workdir / f"server-{tag}.log"
        self.env = W.child_env(root, workdir, f"server-{tag}")
        if ledger_path is None:
            cmd = [sys.executable, "-m", "repro"] + argv
        else:
            cmd = [sys.executable, "-m", "bench.serve_traced",
                   str(ledger_path)] + argv
        self._stderr = open(self.log, "w")
        self.probes: List[List[float]] = [[time.monotonic(), probe.probe()]]
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=self.env,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            preexec_fn=pin,
        )
        self.port = self._await_endpoint()

    def _await_endpoint(self) -> int:
        deadline = time.monotonic() + LISTEN_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], probe.EVERY_S
            )
            if not ready:
                self.probes.append([time.monotonic(), probe.probe()])
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                return int(line.split()[2].split(":")[1])
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log}")

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def profile(self) -> Dict:
        """The autotune profile the server wrote (empty if none)."""
        text = Path(self.env["REPRO_AUTOTUNE_PROFILE"]).read_text()
        return json.loads(text) if text.strip() else {}

    def stop(self) -> int:
        code = W.stop_process(self.proc)
        self.proc.stdout.close()
        self._stderr.close()
        return code


class _Conn:
    def __init__(self, reader, writer, decoder) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = decoder
        self.pending: Dict[int, list] = {}
        self.next_id = 1


# Request record fields.
_POOL, _PHASE, _DUE, _SENT, _RECV, _OUTCOME, _ANSWER = range(7)


class _LoadGen:
    """The asyncio load generator (one thread, pipelined frames)."""

    def __init__(self, port: int, p: Dict, inputs: Dict, wire) -> None:
        self.port = port
        self.p = p
        self.wire = wire
        self.queries = inputs["queries"]
        self.topk = inputs["topk"]
        self.arrivals = inputs["arrivals"]
        self.picks = inputs["picks"]
        self.records: List[list] = []
        self.probes: List[List[float]] = []
        self.conns: List[_Conn] = []
        self.bytes_out = 0
        self.bytes_in = 0
        self._draw = 0
        self._cursor = 0
        self._closed_until = 0.0
        self._idle: Optional[asyncio.Event] = None

    async def connect(self, n: int) -> None:
        wire = self.wire
        for _ in range(n):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
            writer.write(wire.encode_frame(wire.hello_message()))
            decoder = wire.FrameDecoder()
            messages: List[Dict] = []
            while not messages:
                data = await reader.read(65536)
                if not data:
                    raise ConnectionError("server closed during handshake")
                messages = decoder.feed(data)
            if messages[0].get("type") != "hello_ok":
                raise ConnectionError(f"handshake failed: {messages[0]}")
            conn = _Conn(reader, writer, decoder)
            self.conns.append(conn)
        self._readers = [
            asyncio.ensure_future(self._read(conn)) for conn in self.conns
        ]

    def send(self, conn: _Conn, pool: int, phase: str, due: float) -> None:
        wire = self.wire
        rid = conn.next_id
        conn.next_id += 1
        kind = "topk" if self.topk[pool] else "search"
        frame = wire.encode_frame(wire.request_message(
            rid, kind, self.queries[pool], budget_s=self.p["deadline"],
            k=self.p["k"],
        ))
        record = [pool, phase, due, time.monotonic(), None, None, None]
        conn.pending[rid] = record
        self.records.append(record)
        conn.writer.write(frame)
        self.bytes_out += len(frame)

    async def _read(self, conn: _Conn) -> None:
        wire = self.wire
        while True:
            data = await conn.reader.read(65536)
            if not data:
                return
            now = time.monotonic()
            self.bytes_in += len(data)
            for message in conn.decoder.feed(data):
                mtype = message.get("type")
                if mtype not in ("response", "error"):
                    continue
                record = conn.pending.pop(message.get("id"), None)
                if record is None:
                    continue
                record[_RECV] = now
                if mtype == "error":
                    record[_OUTCOME] = str(message.get("code"))
                else:
                    kind = message["kind"]
                    response = wire.decode_response(kind, message["payload"])
                    record[_OUTCOME] = (
                        "degraded" if response.degraded else "ok"
                    )
                    record[_ANSWER] = (
                        response.rows.tolist() if kind == "topk"
                        else [response.best_row]
                    )
                if record[_PHASE] == "closed" and now < self._closed_until:
                    self.send(conn, self._next_pool(), "closed", now)
                if self._idle is not None and not self._in_flight():
                    self._idle.set()

    def _in_flight(self) -> int:
        return sum(len(c.pending) for c in self.conns)

    def _next_pool(self) -> int:
        self._cursor += 1
        return self._cursor % self.p["pool"]

    async def open_loop(self, phase: str, duration: float) -> None:
        """Poisson arrivals at ``rate``, offered whatever the server does."""
        t0 = time.monotonic()
        due = t0
        i = 0
        while True:
            due += float(self.arrivals[self._draw % self.arrivals.size])
            pool = int(self.picks[self._draw % self.picks.size])
            self._draw += 1
            if due >= t0 + duration:
                break
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            self.send(self.conns[i % len(self.conns)], pool, phase, due)
            i += 1
        delay = t0 + duration - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    async def closed_loop(self, duration: float) -> Tuple[float, float]:
        """Keep ``outstanding`` requests in flight for ``duration``."""
        t0 = time.monotonic()
        self._closed_until = t0 + duration
        per_conn = max(1, self.p["outstanding"] // len(self.conns))
        for conn in self.conns:
            for _ in range(per_conn):
                self.send(conn, self._next_pool(), "closed", t0)
        await asyncio.sleep(duration)
        return t0, self._closed_until

    async def probe_loop(self) -> None:
        """Take a :func:`bench.probe.probe` every ``probe.EVERY_S``."""
        while True:
            self.probes.append([time.monotonic(), probe.probe()])
            await asyncio.sleep(probe.EVERY_S)

    async def drain(self) -> None:
        """Wait for every answer still in flight, then hang up."""
        if self._in_flight():
            self._idle = asyncio.Event()
            try:
                await asyncio.wait_for(self._idle.wait(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        for conn in self.conns:
            conn.writer.write(self.wire.encode_frame(self.wire.bye_message()))
            conn.writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def _first_answer(port: int, p: Dict, inputs: Dict, wire):
    """The set-up request's record, and the probes taken meanwhile."""
    gen = _LoadGen(port, p, inputs, wire)
    prober = asyncio.ensure_future(gen.probe_loop())
    try:
        await gen.connect(1)
        gen.send(gen.conns[0], 0, "setup", time.monotonic())
        await gen.drain()
    finally:
        prober.cancel()
        await asyncio.gather(prober, return_exceptions=True)
    return gen.records[0], gen.probes


def _lag_p99_ms(records: List[list]) -> float:
    """p99 of how late the open-loop requests were sent, in ms."""
    return W.percentile_ms(
        [r[_SENT] - r[_DUE] for r in records if r[_PHASE] == "open"], 99
    )


def _check_record(record: list, inputs: Dict, p: Dict) -> Optional[str]:
    if record[_OUTCOME] != "ok":
        return None
    pool = record[_POOL]
    want = inputs["expected"][pool]
    want = want.tolist() if inputs["topk"][pool] else [int(want[0])]
    if record[_ANSWER] != want:
        kind = "top-k" if inputs["topk"][pool] else "search"
        return (
            f"serve-remote: {record[_PHASE]} {kind} request for pool query "
            f"{pool} returned {record[_ANSWER]}, oracle {want}"
        )
    return None


async def _drive(server: _Server, p: Dict, inputs: Dict, wire,
                 seconds: float, n_conns: int, client_tracer) -> Dict:
    """Warm-up, then the measured open and closed loops on one server."""
    gen = _LoadGen(server.port, p, inputs, wire)
    await gen.connect(n_conns)
    prober = asyncio.ensure_future(gen.probe_loop())
    try:
        await gen.open_loop("warmup", p["warmup_s"])
        if client_tracer is not None:
            server.signal(signal.SIGUSR1)
            client_tracer.start()
        cpu0 = time.thread_time()
        t0 = time.monotonic()
        await gen.open_loop("open", seconds * OPEN_SHARE)
        c0, c1 = await gen.closed_loop(seconds * (1.0 - OPEN_SHARE))
        t1 = time.monotonic()
        cpu = time.thread_time() - cpu0
        if client_tracer is not None:
            server.signal(signal.SIGUSR2)
            client_tracer.stop()
    finally:
        prober.cancel()
        await asyncio.gather(prober, return_exceptions=True)
    await gen.drain()
    return {"gen": gen, "t0": t0, "t1": t1, "c0": c0, "c1": c1, "cpu": cpu}


def run(root: Path, workdir: Path, seed: int, seconds: float, trace: bool,
        quick: bool, repeats: int,
        pin: Optional[Callable[[], None]]) -> Dict:
    """Set up servers one after another and measure every
    ``SETUPS_PER_SERVER``-th, each for ``seconds / repeats``, until
    ``repeats`` are measured (see :data:`MAX_LAG_MS` for the ones
    replaced).  ``setup_s`` takes every set-up; the latencies are each
    measured server's own.  ``pin`` is the servers' ``preexec_fn`` (see
    :func:`bench.probe.isolation`).
    """
    from repro.net import wire

    p = W.params_for("serve-remote", quick)
    inputs = prepare(seed, p)
    argv = _server_argv(seed, p)
    n_conns = max(1, min(2, os.cpu_count() or 1))
    # A traced run records the client's spans of every server it drives.
    max_replaced = 0 if trace else MAX_REPLACED
    setups: List[float] = []
    wall_setups: List[float] = []
    firsts: List[list] = []
    runs: List[Dict] = []
    replaced: List[Dict] = []
    peaks: List[float] = []
    profiles: List[Dict] = []
    ledger_path = workdir / "server-ledger.json" if trace else None
    client_tracer = None
    if trace:
        from bench.ledger import Tracer

        client_tracer = Tracer(layers=["net"]).install()
    try:
        rep = 0
        while len(runs) < repeats:
            measure = rep % SETUPS_PER_SERVER == 0
            kept = False
            rep += 1
            server = _Server(root, workdir, str(rep), argv,
                             ledger_path if measure else None, pin)
            try:
                record, probes = asyncio.run(
                    _first_answer(server.port, p, inputs, wire)
                )
                if record[_OUTCOME] != "ok":
                    raise RuntimeError(
                        f"serve-remote: set-up request failed: {record}"
                    )
                times, secs = np.asarray(
                    server.probes + probes, dtype=float
                ).reshape(-1, 2).T
                setups.append(probe.scaled_span(
                    times, secs, server.t_spawn, record[_RECV]
                ))
                wall_setups.append(record[_RECV] - server.t_spawn)
                firsts.append(record)
                if measure:
                    out = asyncio.run(_drive(
                        server, p, inputs, wire, seconds / repeats, n_conns,
                        client_tracer,
                    ))
                    if (_lag_p99_ms(out["gen"].records) > MAX_LAG_MS
                            and len(replaced) < max_replaced):
                        replaced.append(out)
                    else:
                        kept = True
                        runs.append(out)
                        peaks.append(W.peak_rss_mb(server.proc.pid))
            finally:
                code = server.stop()
            if code != 0:
                raise RuntimeError(f"server exited {code}; see {server.log}")
            if kept:
                # The server's kernel and chunk decisions, as it persisted
                # them.
                profiles.append(server.profile())
    finally:
        if client_tracer is not None:
            client_tracer.uninstall()

    records = [r for out in runs for r in out["gen"].records]
    checked = firsts + records + [
        r for out in replaced for r in out["gen"].records
    ]
    errors = [
        problem for problem in (
            _check_record(r, inputs, p) for r in checked
        ) if problem
    ]
    measured = [r for r in records if r[_PHASE] in ("open", "closed")]
    failed = [r for r in measured if r[_OUTCOME] != "ok"]
    open_recs = [r for r in measured if r[_PHASE] == "open"]
    goodput = sum(
        1 for out in runs for r in out["gen"].records
        if r[_PHASE] == "closed" and r[_OUTCOME] == "ok"
        and out["c0"] <= r[_RECV] <= out["c1"]
    )
    outcomes: Dict[str, int] = {}
    for r in failed:
        outcomes[str(r[_OUTCOME])] = outcomes.get(str(r[_OUTCOME]), 0) + 1
    gen_lag_p99 = _lag_p99_ms(records)
    probe_t, probe_s = np.asarray(
        [pr for out in runs for pr in out["gen"].probes], dtype=float
    ).reshape(-1, 2).T
    # Each request timed from when it was due, and at the speed around
    # then; one array per measured server.
    walls, scaled = [], []
    for out in runs:
        recs = [r for r in out["gen"].records if r[_PHASE] == "open"]
        wall = np.asarray([
            (r[_RECV] - r[_DUE]) if r[_OUTCOME] == "ok" else float("inf")
            for r in recs
        ])
        walls.append(wall)
        scaled.append(
            wall * probe.scale(probe_t, probe_s, [r[_DUE] for r in recs])
        )
    latencies = np.concatenate(walls)

    def per_server_ms(q: float) -> float:
        # The median of the servers' own percentiles: a few seconds of
        # host contention then move one server's value, not the run's.
        return statistics.median(W.percentile_ms(x, q) for x in scaled)

    # Goodput per second of reference-speed time in the closed phases.
    closed_wall = sum(out["c1"] - out["c0"] for out in runs)
    closed_s = sum(
        probe.scaled_span(probe_t, probe_s, out["c0"], out["c1"])
        for out in runs
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_qps": (goodput / closed_s, "queries/s"),
        "latency_p50_ms": (per_server_ms(50), "ms"),
        "latency_p90_ms": (per_server_ms(90), "ms"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }
    diagnostics = {
        "latency_p99_ms": W.percentile_ms(np.concatenate(scaled), 99),
        "latency_samples": len(latencies),
        "wall_setup_s": statistics.median(wall_setups),
        "wall_throughput_qps": goodput / closed_wall,
        "wall_latency_p50_ms": W.percentile_ms(latencies, 50),
        "wall_latency_p90_ms": W.percentile_ms(latencies, 90),
        "machine_speed": closed_s / closed_wall,
        "gen_lag_p99_ms": gen_lag_p99,
        "valid": gen_lag_p99 <= MAX_LAG_MS,
        "replaced_servers": len(replaced),
        "offered_rate": len(open_recs) / (seconds * OPEN_SHARE),
        "generator_cpu_share": sum(out["cpu"] for out in runs)
        / sum(out["t1"] - out["t0"] for out in runs),
        "connections": n_conns,
        "setup_samples_s": setups,
        "failed_by_outcome": outcomes,
        "autotune_profiles": profiles,
    }
    result = {
        "errors": errors,
        "attempted": len(measured),
        "failed": len(failed),
        "metrics": metrics,
        "diagnostics": diagnostics,
        "ledger": None,
    }
    if trace:
        # Traced runs have one server.
        out = runs[-1]
        gen = out["gen"]
        answered = [r for r in measured if r[_OUTCOME] == "ok"]
        result["ledger"] = json.loads(ledger_path.read_text())
        result["ledger_extra"] = {
            "wall_s": out["t1"] - out["t0"],
            "open_window": [out["t0"], out["c0"]],
            "closed_window": [out["c0"], out["c1"]],
            "client": client_tracer.dump(),
            "client_latency_ms_mean": 1e3 * float(np.mean(
                [r[_RECV] - r[_SENT] for r in answered
                 if r[_PHASE] == "open"]
            )) if answered else 0.0,
            "bytes_per_request": (gen.bytes_in + gen.bytes_out)
            / max(1, len(records)),
            "wire_errors": sum(
                1 for r in measured
                if r[_OUTCOME] is None or r[_OUTCOME] in _WIRE_ERRORS
            ),
            "generator_cpu_s": out["cpu"],
        }
    return result
