"""Broker benchmark: one daemon process, one load-generator process.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-drift --seed 1 --seconds 10 --trace 0

The generator (this process) makes the workload's inputs from ``--seed``,
starts the daemon launcher (``perfbench/daemon.py``), drives a forked
broker daemon over loopback TCP for ``--seconds``, checks every grant and
prints one JSON object as its last line.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs an untraced and a traced pass of
``--seconds / 2`` each and prints the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import queue
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from checks import Alloc, Release  # noqa: E402
from spans import clock  # noqa: E402
from stats import mean, p50, tail  # noqa: E402

#: set-up probes per run, besides the measured daemon's own set-up
SETUP_PROBES = 4
#: how long to wait for the daemon at each step, s
STEP_TIMEOUT_S = 60.0
#: how long an allocate or release may stay unanswered, s
REPLY_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "alloc_p50_ms": "ms",
    "alloc_tail_ms": "ms",
    "goodput_rts": "1/s",
    "grant_frac": "ratio",
    "eq4_cost_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "client.encode_us": "us",
    "server.decode_us": "us",
    "server.encode_us": "us",
    "transport_ms": "ms",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.tail": "ms",
    "server.batch_size_mean": "count",
    "server.busy_rejected": "count",
    "monitor.refresh_ms.p50": "ms",
    "monitor.refresh_ms.tail": "ms",
    "monitor.compute_delta_ms": "ms",
    "monitor.apply_delta_ms": "ms",
    "monitor.full_rebuilds": "count",
    "monitor.states_migrated.mean": "count",
    "monitor.states_migrated.max": "count",
    "core.load_state_ms": "ms",
    "core.load_state_miss_frac": "ratio",
    "core.seed_bounds_ms": "ms",
    "core.grow_ms": "ms",
    "core.seeds_grown": "count",
    "core.select_ms": "ms",
    "service.batch_ms": "ms",
    "service.memo_hit_frac": "ratio",
    "service.swaps_adopted": "count",
    "leases.grant_us": "us",
    "leases.release_us": "us",
    "leases.held_nodes_us": "us",
    "federation.route_ms": "ms",
    "federation.advance_ms": "ms",
    "federation.slice_sync_ms": "ms",
    "federation.cross_shard_frac": "ratio",
    "federation.spill_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


# ------------------------------------------------------------------ daemon
class Launcher:
    """The daemon launcher process and its line protocol (see daemon.py)."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float,
                 overrides: dict) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        # one string-hash layout for every run, so set and dict costs in
        # the daemon do not vary from process to process
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py"),
             "--workload", workload.name, "--seed", str(seed),
             "--seconds", repr(seconds), "--overrides", json.dumps(overrides)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.children: list[int] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.inputs_s = json.loads(self.expect("ready"))["inputs_s"]

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, word: str, timeout: float = STEP_TIMEOUT_S) -> str:
        deadline = clock() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - clock()))
            except queue.Empty:
                raise BenchError(f"daemon launcher sent no {word!r} in {timeout}s")
            if line is None:
                raise BenchError(f"daemon launcher exited while waiting for {word!r}")
            head, _, rest = line.partition(" ")
            if head == word:
                return rest
            print(f"[daemon] {line}", file=sys.stderr)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def fork(self, traced: bool, probe: bool, fleet: int) -> tuple[float, int]:
        """Start a daemon child; returns (its fork instant, its port)."""
        self.send(f"fork {int(traced)} {int(probe)} {fleet}")
        pid, t_fork = self.expect("forked").split()
        self.children.append(int(pid))
        return float(t_fork), int(self.expect("port"))

    def stop(self, timeout: float = STEP_TIMEOUT_S) -> dict:
        self.send("stop")
        result = json.loads(self.expect("result", timeout))
        self.expect("reaped")
        self.children.pop()
        return result

    def close(self) -> None:
        """End the launcher and every child, and wait for all of them."""
        try:
            if self.proc.poll() is None and not self.children:
                self.send("exit")
                self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None or self.children:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        for pid in self.children:
            deadline = clock() + 10
            while clock() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                threading.Event().wait(0.05)
        self._reader.join(timeout=5)


# --------------------------------------------------------------- generator
class Timer:
    """Client-side encode timing for the traced pass.

    Wraps ``protocol.encode_request``, the JSON-lines encoder
    ``BrokerClient`` uses (the broker.client layer).
    """

    def __init__(self) -> None:
        self.encode_s: list[float] = []

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            self.encode_s.append(clock() - t0)
            return out
        return wrapper


class Conn:
    """One JSON-lines connection to the daemon, read without blocking."""

    def __init__(self, port: int, index: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        # Nagle off, as BrokerClient's production socket factory does
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.index = index
        self.buf = b""
        self.sizes: list[int] = []
        self.next = 0
        self.held: list[str] = []
        #: closed loop: what the connection waits for (None = idle)
        self.waiting: Alloc | Release | str | None = None
        #: closed loop: the last request sent (None once the window closed)
        self.last: Alloc | Release | None = None

    def send(self, data: bytes) -> None:
        self.sock.setblocking(True)
        try:
            self.sock.sendall(data)
        finally:
            self.sock.setblocking(False)

    def lines(self) -> list[bytes]:
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not data:
            raise BenchError("daemon closed the connection")
        self.buf += data
        *out, self.buf = self.buf.split(b"\n")
        return out


class Run:
    """One daemon session driven by a single-threaded generator.

    Closed loop: each connection sends its next allocate only after the
    previous reply (and, with ``hold``, releases its oldest lease once it
    holds more than ``hold``).  Open loop: allocates are sent when due on
    one pipelined connection, whatever is in flight; each grant is
    released at once.  All sockets are multiplexed in this one thread, so
    the generator never contends with itself for the interpreter lock.
    """

    def __init__(self, workload: wl.Workload, port: int, seconds: float,
                 inputs: dict) -> None:
        self.w = workload
        self.port = port
        self.seconds = seconds
        self.inputs = inputs
        self.allocs: list[Alloc] = []
        self.releases: dict[str, Release] = {}
        self.first_grant_t = 0.0
        self.status_active = -1
        self.lateness: list[float] = []
        self._ids = 0
        #: request id -> what the reply settles
        self._pending: dict[str, Alloc | Release | str] = {}
        #: open loop: release every grant as soon as it arrives
        self._release_at_once = False
        timer = inputs.get("timer")
        from repro.broker import protocol

        self._encode = protocol.encode_request if timer is None else \
            timer.wrap(protocol.encode_request)

    # -- wire -----------------------------------------------------------
    def _request(self, conn: Conn, op: str, params: dict, item) -> float:
        self._ids += 1
        req_id = f"{op[0]}{self._ids}"
        self._pending[req_id] = item
        data = self._encode(req_id, op, params)
        t = clock()
        conn.send(data)
        return t

    def _allocate(self, conn: Conn, n: int, ppn: int | None, due: float,
                  in_window: bool) -> Alloc:
        a = Alloc(n=n, t_due=due, t_send=0.0, in_window=in_window)
        self.allocs.append(a)
        a.t_send = self._request(conn, "allocate",
                                 {"n": n, "ppn": ppn, "alpha": wl.ALPHA}, a)
        return a

    def _release(self, conn: Conn, lease: str) -> Release:
        r = Release(lease=lease, t_send=0.0)
        self.releases[lease] = r
        r.t_send = self._request(conn, "release", {"lease_id": lease}, r)
        return r

    def _pump(self, conns: list[Conn], timeout: float | None, sel) -> None:
        """Wait up to ``timeout`` and settle every reply that arrived."""
        events = sel.select(timeout)
        now = clock()
        for key, _ in events:
            conn: Conn = key.data
            for line in conn.lines():
                out = json.loads(line)
                item = self._pending.pop(str(out.get("id")), None)
                if isinstance(item, Alloc):
                    item.t_recv = now
                    if out.get("ok"):
                        res = out["result"]
                        item.lease = str(res["lease_id"])
                        item.nodes = tuple(res["nodes"])
                        item.procs = {str(k): int(v) for k, v in res["procs"].items()}
                    else:
                        item.code = str((out.get("error") or {}).get("code", "INTERNAL"))
                elif isinstance(item, Release):
                    item.t_recv, item.ok = now, bool(out.get("ok"))
                elif item == "status" and out.get("ok"):
                    self.status_active = int(out["result"]["leases"]["active"])
                if conn.waiting is item:
                    conn.waiting = None
                if self._release_at_once and isinstance(item, Alloc) and item.granted:
                    self._release(conn, item.lease)

    def _drain(self, conns: list[Conn], sel, until) -> None:
        deadline = clock() + REPLY_TIMEOUT_S
        while not until():
            if clock() > deadline:
                raise BenchError(f"no reply within {REPLY_TIMEOUT_S}s")
            self._pump(conns, max(0.0, deadline - clock()), sel)

    def _wait(self, conns, sel, conn: Conn, item) -> Any:
        """Wait for the reply to ``item``, just sent on ``conn``."""
        conn.waiting = item
        self._drain(conns, sel, lambda: conn.waiting is None)
        return item

    # -- session ----------------------------------------------------------
    def session(self) -> None:
        import selectors

        w = self.w
        conns = [Conn(self.port, i) for i in range(w.connections)]
        sel = selectors.DefaultSelector()
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        try:
            first = conns[0]
            if w.loop == "open":
                hello = {"codec": "json", "pipeline": True, "max_inflight": 64}
                self._request(first, "hello", hello, "hello")
                self._wait(conns, sel, first, "hello")
            sizes = self.inputs["sizes"]
            ppn = self.inputs.get("ppn") or [wl.PPN] * len(sizes[0])
            # the first grant ends set-up; it sits outside the window
            a = self._allocate(first, sizes[0][0], ppn[0], clock(), in_window=False)
            self._wait(conns, sel, first, a)
            self.first_grant_t = a.t_recv or 0.0
            if a.granted:
                self._wait(conns, sel, first, self._release(first, a.lease))
            if w.loop == "open":
                self._open(conns, sel, sizes[0], ppn)
            else:
                for c in conns:
                    c.sizes, c.next = sizes[c.index], 1 if c.index == 0 else 0
                if w.warmup_s:
                    self._closed(conns, sel, w.warmup_s, in_window=False)
                self._closed(conns, sel, self.seconds, in_window=True)
            self._request(first, "status", {}, "status")
            self._wait(conns, sel, first, "status")
        finally:
            sel.close()
            for c in conns:
                c.sock.close()

    def _closed(self, conns: list[Conn], sel, seconds: float, in_window: bool) -> None:
        hold = self.w.hold
        deadline = clock() + seconds

        def step(c: Conn) -> None:
            """Send the connection's next request, if any."""
            if isinstance(c.last, Alloc) and c.last.granted:
                c.held.append(c.last.lease)
            if len(c.held) > hold:
                c.last = c.waiting = self._release(c, c.held.pop(0))
                return
            now = clock()
            if now >= deadline:
                c.last = None
                return
            if c.next >= len(c.sizes):
                raise BenchError("request stream ran out before the window closed")
            n = c.sizes[c.next]
            c.next += 1
            c.last = c.waiting = self._allocate(c, n, wl.PPN, now, in_window)

        for c in conns:
            c.last = None
            step(c)
        while any(c.waiting is not None for c in conns):
            self._pump(conns, REPLY_TIMEOUT_S, sel)
            for c in conns:
                if c.waiting is None and c.last is not None:
                    step(c)
        # after the window: every lease still held is released
        for c in conns:
            while c.held:
                self._wait(conns, sel, c, self._release(c, c.held.pop(0)))

    def _open(self, conns: list[Conn], sel, sizes: list[int], ppn: list) -> None:
        conn = conns[0]
        offsets = self.inputs["arrivals"]
        self._release_at_once = True
        t0 = clock()
        for i, off in enumerate(offsets, start=1):
            due = t0 + off
            while True:
                delay = due - clock()
                if delay <= 0:
                    break
                self._pump(conns, delay, sel)
            a = self._allocate(conn, sizes[i], ppn[i], due, in_window=True)
            self.lateness.append(a.t_send - due)
        # every allocate and release answered
        self._drain(conns, sel, lambda: not any(
            isinstance(item, (Alloc, Release)) for item in self._pending.values()
        ))
        self._release_at_once = False


@functools.lru_cache(maxsize=None)
def big_job_size(nodes: int, seed: int, fleet: int, shards: int) -> int:
    return wl.big_job_size(wl.synth_fleet(nodes, seed, fleet), shards)


def make_inputs(w: wl.Workload, seed: int, seconds: float, session: int) -> dict:
    """Request streams, generated before anything is timed.

    Each session of a run draws its own stream, so sessions are
    independent samples of the workload.
    """
    if w.loop == "open":
        offsets = wl.arrivals(seed, w.rate_rts, seconds, stream=session)
        sizes = wl.job_sizes(seed, len(offsets) + 1, stream=session)
        ppn: list[int | None] = [wl.PPN] * len(sizes)
        if w.big_every:
            # counted across the run's sessions, so the share is exact
            big = big_job_size(w.nodes, seed, session % wl.FLEETS, w.shards)
            first = session * len(offsets)
            for i in range(1, len(sizes)):
                if (first + i) % w.big_every == w.big_every // 2:
                    sizes[i], ppn[i] = big, None
        return {"sizes": [sizes], "ppn": ppn, "arrivals": offsets}
    # closed loop: more requests than any connection can send in the window
    count = int(5000 * (seconds + w.warmup_s)) + 16
    return {
        "sizes": [
            wl.job_sizes(seed, count, stream=session * w.connections + i)
            for i in range(w.connections)
        ],
    }


def drive(launcher: Launcher, w: wl.Workload, seed: int, seconds: float,
          *, traced: bool = False, probe: bool = False, session: int = 0) -> dict:
    """Fork a daemon child, run one session against it, stop it; its facts.

    Session ``i`` is served on fleet ``i mod FLEETS``.  A probe only
    measures set-up: first grant, release, stop.
    """
    inputs = make_inputs(w, seed, seconds, session)
    timer = Timer() if traced else None
    inputs["timer"] = timer
    if probe:
        w = w.scaled(connections=1, hold=0, warmup_s=0.0)
        inputs["sizes"] = [inputs["sizes"][0][:2]]
        inputs["arrivals"] = []
        seconds = 0.0
    run = Run(w, port=0, seconds=seconds, inputs=inputs)
    # the generator's own collector must not pause inside a timed interval
    gc.collect()
    gc.disable()
    try:
        t_fork, run.port = launcher.fork(traced, probe, session % wl.FLEETS)
        try:
            run.session()
        finally:
            daemon = launcher.stop(timeout=STEP_TIMEOUT_S + 120.0)
    finally:
        gc.enable()
    return {"run": run, "daemon": daemon, "setup_s": run.first_grant_t - t_fork,
            "timer": timer}


# ----------------------------------------------------------------- metrics
def latencies(sessions: list[dict], w: wl.Workload) -> list[float]:
    """Allocate latencies (s) in the windows; open loops count from when due."""
    return [
        a.t_recv - (a.t_due if w.loop == "open" else a.t_send)
        for s in sessions
        for a in s["run"].allocs
        if a.in_window and a.t_recv is not None
    ]


def in_window(sessions: list[dict]) -> list[Alloc]:
    return [a for s in sessions for a in s["run"].allocs if a.in_window]


def end_to_end(w: wl.Workload, probes: list[dict], sessions: list[dict],
               seconds: float) -> tuple[dict, dict]:
    lat = latencies(sessions, w)
    window = in_window(sessions)
    good = sum(
        a.granted and (a.t_recv - (a.t_due if w.loop == "open" else a.t_send))
        <= w.limit_ms / 1e3
        for a in window
    )
    setups = [p["setup_s"] for p in probes + sessions]
    tail_s, tail_q = tail(lat)
    ratios = [r for s in sessions for r in s["daemon"]["eq4_ratios"]]
    rss = [s["daemon"]["peak_rss_mb"] for s in sessions]
    metrics = {
        "setup_s": p50(setups),
        "alloc_p50_ms": 1e3 * p50(lat),
        "alloc_tail_ms": 1e3 * tail_s,
        "goodput_rts": good / seconds,
        "grant_frac": sum(a.granted for a in window) / max(1, len(window)),
        "eq4_cost_ratio": mean(ratios),
        "peak_rss_mb": p50(rss),
    }
    samples = {
        "sessions": len(sessions),
        "setup_s": len(setups),
        "setup_s_values": setups,
        "alloc_latency": len(lat),
        "alloc_tail_pct": tail_q,
        "goodput_within_limit": good,
        "attempted": len(window),
        "fail_frac": 1.0 - metrics["grant_frac"],
        "peak_rss_mb_per_session": rss,
        "eq4_grants_sampled": len(ratios),
        "eq4_grants_captured": sum(s["daemon"]["eq4_grants_captured"] for s in sessions),
        "eq4_ratio_min_max": [min(ratios, default=0.0), max(ratios, default=0.0)],
        "eq4_offclock_s": sum(s["daemon"]["eq4_s"] for s in sessions),
    }
    return metrics, samples


def per_layer(w: wl.Workload, base: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics, pooled over the traced sessions."""
    import layers

    metrics, samples = layers.metrics([s["daemon"]["layers"] for s in traced])
    metrics["client.encode_us"] = 1e6 * p50(
        [t for s in traced for t in s["timer"].encode_s]
    )
    transport = []
    for s in traced:
        run, handling = s["run"], s["daemon"]["handling"]
        transport += [
            a.t_recv - a.t_send - handling["allocate"][a.lease]
            for a in run.allocs
            if a.granted and a.lease in handling["allocate"]
        ] + [
            r.t_recv - r.t_send - handling["release"][r.lease]
            for r in run.releases.values()
            if r.ok and r.t_recv is not None and r.lease in handling["release"]
        ]
    metrics["transport_ms"] = 1e3 * p50(transport)
    plain, with_trace = p50(latencies(base, w)), p50(latencies(traced, w))
    metrics["trace_overhead_frac"] = with_trace / plain - 1.0 if plain > 0 else 0.0
    spans: dict[str, dict[str, float]] = {}
    for s in traced:
        for name, row in s["daemon"]["spans"].items():
            acc = spans.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    samples.update({
        "sessions": len(traced),
        "transport": len(transport),
        "alloc_p50_ms_untraced": 1e3 * plain,
        "alloc_p50_ms_traced": 1e3 * with_trace,
        "spans": spans,
    })
    return {k: metrics[k] for k in PER_LAYER_UNITS}, samples


def correctness(sessions: list[dict]) -> list[str]:
    failures = []
    for p in sessions:
        run, daemon = p["run"], p["daemon"]
        failures += checks.check_all(run.allocs, run.releases, daemon["counters"],
                                     run.status_active)
    return failures


def machine() -> dict:
    import numpy

    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split() or (None, None)
        sha = sha if top and Path(top).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired, ValueError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha or "unavailable (not a git checkout)",
    }


def bench(name: str, seed: int, seconds: float, trace: int,
          overrides: dict | None = None, tamper=None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, run record).

    ``overrides`` replaces :class:`~workloads.Workload` fields (the
    self-test's tiny scale); ``tamper`` may edit the finished passes
    before they are checked (the self-test's negative check).
    """
    import repro.broker.protocol  # noqa: F401 — load it before any clock starts

    overrides = overrides or {}
    w = wl.WORKLOADS[name].scaled(**overrides)
    length = seconds / w.sessions
    launcher = Launcher(w, seed, length, overrides)
    try:
        if trace:
            # an untraced and a traced pass, each half the run: sessions of
            # the untraced run's length when there are several
            per, length = (w.sessions // 2, length) if w.sessions > 1 else (1, seconds / 2)
            base = [drive(launcher, w, seed, length, session=i) for i in range(per)]
            traced = [drive(launcher, w, seed, length, traced=True, session=i)
                      for i in range(per)]
            metrics, samples = per_layer(w, base, traced)
            units, sessions = PER_LAYER_UNITS, base + traced
        else:
            probes = [drive(launcher, w, seed, length, probe=True, session=i)
                      for i in range(SETUP_PROBES)]
            sessions = [drive(launcher, w, seed, length, session=i)
                        for i in range(w.sessions)]
            metrics, samples = end_to_end(w, probes, sessions, seconds)
            units = END_TO_END_UNITS
            sessions = probes + sessions
    finally:
        launcher.close()
    if tamper is not None:
        tamper(sessions)
    failures = correctness(sessions)
    window = in_window(sessions)
    lateness = [t for s in sessions for t in s["run"].lateness]
    result = {
        "correct": not failures,
        "attempted": len(window),
        "failed": sum(not a.granted for a in window),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": {
            "world": w.world,
            "nodes": 60 if w.world == "paper" else w.nodes,
            "fleets": None if w.world == "paper" else wl.FLEETS,
            "loop": w.loop,
            "connections": w.connections,
            "rate_rts": w.rate_rts or None,
            "hold": w.hold or None,
            "shards": w.shards or None,
            "sessions": w.sessions,
            "session_s": seconds / w.sessions,
            "latency_limit_ms": w.limit_ms,
            "job_mix": list(wl.JOB_MIX),
            "ppn": wl.PPN,
            "alpha": wl.ALPHA,
        },
        "machine": machine(),
        "inputs_s": launcher.inputs_s,
        "samples": samples,
        "generator_lateness_ms": {
            "p50": 1e3 * p50(lateness),
            "max": 1e3 * max(lateness, default=0.0),
        } if lateness else None,
        "drift_steps_used": [s["daemon"]["drift_steps"] for s in sessions],
        "drift_exhausted": sum(s["daemon"]["drift_exhausted"] or 0 for s in sessions),
        "correctness_failures": failures[:20],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # the program under test is the checkout's own source tree
    if not (ROOT / "src" / "repro" / "broker").is_dir():
        print(f"no broker source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result, record = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
