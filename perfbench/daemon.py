"""Broker daemon launcher for the benchmark (a process of its own).

Run as ``python perfbench/daemon.py --workload W --seed N --seconds S``
from the checkout root.  The process imports the broker, generates the
workload's inputs (the warmed §5 scenario, or the synthetic fleet and its
drift sequence) and prints ``ready``.  It then serves commands on stdin,
one per line:

* ``fork <traced> <probe> <fleet>`` — fork a daemon child that builds the
  service on fleet number ``fleet`` (fleet worlds), binds
  an ephemeral loopback port and prints ``port <n>``.  The fork instant
  is printed as ``forked <pid> <t>``: it is the start of the child's
  set-up clock, so set-up excludes imports and input generation.  With
  ``traced`` = 1 the child installs the layer wrappers of :mod:`layers`
  before it builds anything; a ``probe`` child (a set-up measurement)
  skips the Equation-4 reference;
* ``stop`` — SIGTERM the child; it stops serving, reads its peak RSS,
  computes the off-clock results (the Equation-4 reference, layer
  figures, counters) and prints them as ``result <json>``; the launcher
  reaps it and prints ``reaped <status>``;
* ``exit`` — end the launcher.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, clock  # noqa: E402

from repro.broker import BrokerServer, BrokerService  # noqa: E402
from repro.core.arrays import LoadState  # noqa: E402
from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy  # noqa: E402
from repro.core.weights import TradeOff  # noqa: E402
from repro.federation.daemon import FederationDaemon  # noqa: E402
from repro.federation.router import FederationRouter, build_federation  # noqa: E402
from repro.federation.sharding import snapshot_switches, subtree_partition  # noqa: E402
from repro.monitor.snapshot import (  # noqa: E402
    CachedSnapshotSource,
    ClusterSnapshot,
    derived_cache,
)

#: ``repro serve`` defaults the paper workload runs with
SERVE_DEFAULTS = dict(
    warmup_s=30 * 60.0,
    snapshot_max_age_s=5.0,
    advance_on_refresh_s=5.0,
    default_ttl_s=60.0,
    max_ttl_s=3600.0,
    batch_window_s=0.0,
    max_batch=64,
    max_queue=128,
    sweep_period_s=1.0,
)

#: grants kept for the Equation-4 reference before the capture thins out
CAPTURE_CAP = 4096


def say(*words) -> None:
    """Write one protocol line to stdout in a single ``write`` call.

    The launcher and its forked child share the stdout pipe.  ``print``
    writes each word separately when Python runs unbuffered
    (``PYTHONUNBUFFERED``), so two processes printing at once could
    interleave mid-line; one write of a line under ``PIPE_BUF`` bytes
    cannot.
    """
    sys.stdout.flush()
    data = (" ".join(str(w) for w in words) + "\n").encode()
    while data:
        data = data[os.write(sys.stdout.fileno(), data):]


def _fresh(snap: ClusterSnapshot) -> ClusterSnapshot:
    """The same facts in a new object, with no derived cache."""
    return ClusterSnapshot(
        time=snap.time,
        nodes=dict(snap.nodes),
        bandwidth_mbs=dict(snap.bandwidth_mbs),
        latency_us=dict(snap.latency_us),
        peak_bandwidth_mbs=dict(snap.peak_bandwidth_mbs),
        livehosts=snap.livehosts,
    )


class PaperSource:
    """The §5 scenario's monitor snapshot, remembering what it published."""

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.published: dict[float, ClusterSnapshot] = {}

    def __call__(self) -> ClusterSnapshot:
        snap = self.scenario.snapshot()
        self.published[snap.time] = snap
        return snap

    def snapshots_at(self, times):
        for t in times:
            yield t, _fresh(self.published[t])


class World:
    """A workload's inputs, generated once in the launcher."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        if workload.world == "paper":
            from repro.scenarios import get_scenario

            self.scenario = get_scenario("paper-tree").build(
                seed, warmup_s=SERVE_DEFAULTS["warmup_s"]
            )
        else:
            self.bases = [wl.synth_fleet(workload.nodes, seed, f)
                          for f in range(wl.FLEETS)]
            if workload.loop == "open":
                steps = len(wl.arrivals(seed, workload.rate_rts, seconds)) + 64
            else:
                # a closed loop refreshes once per decision; sized for
                # decisions down to ~2.5 ms before the plan runs dry
                steps = int(400 * seconds) + 64
            self.plans = [wl.drift_plan(base, seed, steps, f)
                          for f, base in enumerate(self.bases)]

    def build(self, fleet: int):
        """(server, source) — service build, as ``repro serve`` wires it."""
        w = self.workload
        d = SERVE_DEFAULTS
        if w.world == "paper":
            sc = self.scenario
            source = PaperSource(sc)
            cached = CachedSnapshotSource(
                source,
                max_age_s=d["snapshot_max_age_s"],
                refresh_hook=lambda: sc.advance(d["advance_on_refresh_s"]),
            )
            rng = sc.streams.child("broker")
        else:
            source = wl.DriftSource(self.bases[fleet], self.plans[fleet])
            cached = CachedSnapshotSource(
                source, max_age_s=w.max_age_s, incremental=True
            )
            rng = None
        server_kwargs = dict(
            host="127.0.0.1",
            port=0,
            batch_window_s=d["batch_window_s"],
            max_batch=d["max_batch"],
            max_queue=d["max_queue"],
            sweep_period_s=d["sweep_period_s"],
        )
        if w.shards:
            partition = subtree_partition(snapshot_switches(cached()), w.shards)
            router = build_federation(
                cached,
                partition,
                default_policy="network_load_aware",
                default_ttl_s=d["default_ttl_s"],
                max_ttl_s=d["max_ttl_s"],
            )
            server = FederationDaemon(router, **server_kwargs)
        else:
            service = BrokerService(
                cached,
                default_policy="network_load_aware",
                default_ttl_s=d["default_ttl_s"],
                max_ttl_s=d["max_ttl_s"],
                rng=rng,
            )
            server = BrokerServer(service, **server_kwargs)
        return server, source, cached


class GrantCapture:
    """What each grant was decided from: snapshot time, request, exclusion.

    The only hook of the untraced pass — one dict write per decision and
    one append per grant — so that ``eq4_cost_ratio`` can re-decide
    sampled grants on the exhaustive path after the timed window.
    """

    def __init__(self) -> None:
        self.grants: list[tuple] = []
        self.stride = 1
        self._seen = 0
        self._decided: dict[int, tuple] = {}
        self._router_held: frozenset[str] = frozenset()
        #: federation only: releases the router answered successfully
        self.router_releases = 0

    def _keep(self, row: tuple) -> None:
        self._seen += 1
        if self._seen % self.stride:
            return
        self.grants.append(row)
        if len(self.grants) >= CAPTURE_CAP:
            self.grants = self.grants[1::2]
            self.stride *= 2

    def install(self, tracer: Tracer, federated: bool) -> None:
        cap = self
        if federated:
            def held(fn):
                def wrapper(router):
                    cap._router_held = fn(router)
                    return cap._router_held
                return wrapper

            def allocate_one(fn):
                def wrapper(router, params):
                    out = fn(router, params)
                    cap._keep((
                        float(out["snapshot_time"]), params.n_processes,
                        params.ppn, params.alpha, cap._router_held,
                        tuple(out["nodes"]),
                    ))
                    return out
                return wrapper

            def release(fn):
                def wrapper(router, params):
                    out = fn(router, params)
                    cap.router_releases += 1
                    return out
                return wrapper

            tracer.patch(FederationRouter, "_held_nodes", held)
            tracer.patch(FederationRouter, "_allocate_one", allocate_one)
            tracer.patch(FederationRouter, "release", release)
            return

        def decide(fn):
            def wrapper(service, snapshot, params, policy, held):
                alloc = fn(service, snapshot, params, policy, held)
                cap._decided[id(alloc)] = (alloc, snapshot.time, params, held)
                return alloc
            return wrapper

        def grant_result(fn):
            def wrapper(service, lease, allocation):
                row = cap._decided.get(id(allocation))
                if row is not None and row[0] is allocation:
                    _, t, params, held = row
                    cap._keep((
                        float(t), params.n_processes, params.ppn,
                        params.alpha, held, tuple(allocation.nodes),
                    ))
                return fn(service, lease, allocation)
            return wrapper

        tracer.patch(BrokerService, "_decide", decide)
        tracer.patch(BrokerService, "_grant_result", grant_result)

    def eq4_ratios(self, source, samples: int) -> list[float]:
        """Granted raw α·C + β·N over the exhaustive path's, per sampled grant.

        Both costs are taken on one freshly built fleet-wide LoadState for
        the grant's snapshot and exclusion set, so a federated grant is
        priced on the same footing as a single broker's.
        """
        if not self.grants or samples <= 0:
            return []
        picks = sorted(set(
            np.linspace(0, len(self.grants) - 1, min(samples, len(self.grants)))
            .round().astype(int).tolist()
        ))
        rows = [self.grants[i] for i in picks]
        policy = NetworkLoadAwarePolicy(prune_threshold=None)
        snaps = dict(source.snapshots_at([r[0] for r in rows]))
        ratios = []
        for t, n, ppn, alpha, held, nodes in rows:
            snap = _fresh(snaps[t])
            request = AllocationRequest(
                n_processes=n, ppn=ppn, tradeoff=TradeOff.from_alpha(alpha)
            )
            ref = policy.allocate(snap, request, exclude=held)
            state = next(
                v for v in derived_cache(snap).values() if isinstance(v, LoadState)
            )
            idx = np.array([state.index[x] for x in nodes], dtype=np.intp)
            c = float(state.cl_vec[idx].sum())
            net = 0.5 * float(state.nl_mat[np.ix_(idx, idx)].sum())
            granted = alpha * c + (1 - alpha) * net
            best = (
                alpha * ref.metadata["compute_cost"]
                + (1 - alpha) * ref.metadata["network_cost"]
            )
            ratios.append(granted / best)
        return ratios


def counters(server, capture: GrantCapture) -> dict:
    """Lease and decision counters, read in-process after the window."""
    service = server.service
    if isinstance(service, FederationRouter):
        shards = [service.shard(s).service for s in service.shard_ids]
        m = service.metrics
        return {
            "granted": m.granted,
            "denied": m.denied,
            "busy_rejected": m.busy_rejected,
            "released": capture.router_releases,
            "expired": sum(s.metrics.expired for s in shards),
            "active_leases": sum(len(s.leases) for s in shards),
            "cross_shard_grants": service.cross_shard_grants,
            "spills": service.spills,
            "memo_hits": sum(s.metrics.decisions_memoized for s in shards),
            "swaps_adopted": sum(s.metrics.batch_swaps_adopted for s in shards),
        }
    m = service.metrics
    return {
        "granted": m.granted,
        "denied": m.denied,
        "busy_rejected": m.busy_rejected,
        "released": m.released,
        "expired": m.expired,
        "active_leases": len(service.leases),
        "cross_shard_grants": 0,
        "spills": 0,
        "memo_hits": m.decisions_memoized,
        "swaps_adopted": m.batch_swaps_adopted,
    }


def child_main(world: World, traced: bool, probe: bool, fleet: int) -> None:
    import asyncio
    import resource

    hooks = Tracer()
    capture = GrantCapture()
    capture.install(hooks, federated=bool(world.workload.shards))
    tracer = Tracer() if traced else None
    if tracer is not None:
        ledger = layers.install(tracer, federated=bool(world.workload.shards))
        for feed in (PaperSource, wl.DriftSource):
            tracer.patch(feed, "__call__", lambda fn: tracer.span("monitor.source", fn))
    server, source, cached = world.build(fleet)

    async def serve() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        _, port = await server.start()
        say("port", port)
        await stop.wait()
        await server.stop()

    asyncio.run(serve())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "peak_rss_mb": peak_rss_mb,
        "counters": counters(server, capture),
        "drift_steps": getattr(source, "step", None),
        "drift_exhausted": getattr(source, "exhausted", None),
    }
    if tracer is not None:
        tracer.unpatch()
        out["layers"] = layers.raw(tracer, ledger, server, cached)
        out["handling"] = ledger.handling
        out["spans"] = tracer.summary()
    else:
        hooks.unpatch()
        t0 = clock()
        w = world.workload
        samples = 0 if probe else -(-w.eq4_samples // w.sessions)
        out["eq4_ratios"] = capture.eq4_ratios(source, samples)
        out["eq4_grants_captured"] = capture._seen
        out["eq4_s"] = clock() - t0
    say("result", json.dumps(out))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of one session (sizes the drift plan)")
    ap.add_argument("--overrides", default="{}",
                    help="JSON of Workload fields to replace (self-test scale)")
    args = ap.parse_args()
    workload = wl.WORKLOADS[args.workload].scaled(**json.loads(args.overrides))
    t0 = clock()
    world = World(workload, args.seed, args.seconds)
    say("ready", json.dumps({"inputs_s": clock() - t0}))

    child = None
    try:
        for line in sys.stdin:
            cmd = line.split()
            if not cmd:
                continue
            if cmd[0] == "fork":
                sys.stdout.flush()
                # imports and inputs leave the collector's view, as in a
                # pre-fork server: the daemon's collections traverse only
                # what the daemon itself allocates
                gc.collect()
                gc.freeze()
                t_fork = clock()
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        signal.signal(signal.SIGTERM, signal.SIG_DFL)
                        child_main(world, traced=cmd[1] == "1", probe=cmd[2] == "1",
                                   fleet=int(cmd[3]))
                        code = 0
                    except BaseException:  # noqa: BLE001 — report and exit the forked child
                        traceback.print_exc()
                    finally:
                        sys.stdout.flush()
                        sys.stderr.flush()
                        os._exit(code)
                child = pid
                say("forked", pid, repr(t_fork))
            elif cmd[0] == "stop" and child is not None:
                os.kill(child, signal.SIGTERM)
                _, status = os.waitpid(child, 0)
                child = None
                say("reaped", status)
            elif cmd[0] == "exit":
                break
    finally:
        if child is not None:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
