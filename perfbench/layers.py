"""The traced pass: which layer functions are wrapped, and what they yield.

:func:`install` wraps, in the daemon process, the module-level functions
(and a few methods) each layer is made of; :func:`raw` collects one traced
session's spans and counters, and :func:`metrics` pools the sessions into
the per-layer metrics.  Names follow the modules:

=====================  ==================================================
span                   wrapped callable
=====================  ==================================================
server.decode          ``broker.server``'s ``parse_request``,
                       ``parse_request_obj``, ``load_payload``
server.encode          ``BrokerServer._encode_payload``
service.batch          ``BrokerService.allocate_batch``
service.decide         ``BrokerService._decide``
monitor.refresh        ``CachedSnapshotSource.__call__`` when it rebuilt
monitor.source         the benchmark's own monitor feed (drift replay)
monitor.compute_delta  ``compute_delta`` (``monitor.delta``/``slicing``)
monitor.apply_delta    ``apply_snapshot_delta`` (``monitor.delta``/``slicing``)
monitor.migrate        ``core.arrays.migrate_states``
core.load_state        ``load_state`` as the policy calls it
core.best_candidate    ``best_candidate_fast``; its self time is Eq-4 selection
core.seed_bounds       ``core.arrays._seed_lower_bounds``
core.grow              ``core.arrays._candidates_for_seeds``
leases.*               ``LeaseTable.grant`` / ``release`` / ``held_nodes``
federation.route       ``FederationRouter.allocate_batch`` (self time)
federation.advance     ``PartitionedLoadState.advance``
federation.slice_sync  ``ShardSnapshotSource.sync`` / ``sync_to``
=====================  ==================================================

Coroutines cannot sit on the span stack, so the server's request handling
(``BrokerServer._dispatch_safe``) and admission (``BrokerServer._admit``)
are timed by the :class:`Ledger` instead.
"""

from __future__ import annotations

from typing import Any

import repro.broker.server as server_mod
import repro.core.arrays as arrays
import repro.core.policies.network_load_aware as nla
import repro.monitor.delta as delta_mod
import repro.monitor.slicing as slicing
from repro.broker.protocol import Request
from repro.broker.server import BrokerServer
from repro.broker.service import BrokerService
from repro.core.partition import PartitionedLoadState
from repro.federation.router import FederationRouter
from repro.monitor.slicing import ShardSnapshotSource
from repro.monitor.snapshot import CachedSnapshotSource
from repro.scheduler.leases import LeaseTable

from spans import Tracer, clock
from stats import mean, p50, tail


class Ledger:
    """Per-request server handling and admission-queue waits.

    ``handling`` maps ``allocate``/``release`` to ``{lease_id: seconds}``:
    decode + dispatch (queue wait and decision included) + encode, which
    the generator subtracts from its round trip to get transport time.
    """

    def __init__(self) -> None:
        self.handling: dict[str, dict[str, float]] = {"allocate": {}, "release": {}}
        self.queue_wait: list[float] = []
        self.batch_sizes: list[int] = []
        self._decode_carry = 0.0
        self._decoded: dict[int, float] = {}
        self._to_encode: dict[int, tuple[str, str, float]] = {}
        self._enqueued: dict[int, float] = {}

    def on_decode(self, args: tuple, result: Any, dur: float) -> None:
        self._decode_carry += dur
        if isinstance(result, Request):
            self._decoded[id(result)] = self._decode_carry
            self._decode_carry = 0.0

    def on_encode(self, args: tuple, result: Any, dur: float) -> None:
        row = self._to_encode.pop(id(args[1]), None)
        if row is not None:
            op, lease_id, seconds = row
            self.handling[op][lease_id] = seconds + dur

    def dispatch(self, fn):
        ledger = self

        async def wrapper(srv, request):
            decode = ledger._decoded.pop(id(request), 0.0)
            t0 = clock()
            response = await fn(srv, request)
            seconds = decode + clock() - t0
            if response.ok and request.op == "allocate":
                lease_id = str(response.result["lease_id"])
            elif response.ok and request.op == "release":
                lease_id = request.params.lease_id
            else:
                return response
            ledger._to_encode[id(response)] = (request.op, lease_id, seconds)
            return response

        return wrapper

    def admit(self, fn):
        ledger = self

        async def wrapper(srv, request):
            ledger._enqueued[id(request.params)] = clock()
            return await fn(srv, request)

        return wrapper

    def batch_entry(self, fn):
        ledger = self

        def wrapper(service, batch):
            now = clock()
            for params in batch:
                t = ledger._enqueued.pop(id(params), None)
                if t is not None:
                    ledger.queue_wait.append(now - t)
            ledger.batch_sizes.append(len(batch))
            return fn(service, batch)

        return wrapper


def install(tracer: Tracer, federated: bool) -> Ledger:
    """Wrap every layer; returns the ledger of per-request server timings."""
    ledger = Ledger()
    sp = tracer.span

    for name in ("parse_request", "parse_request_obj", "load_payload"):
        tracer.patch(server_mod, name,
                     lambda fn: sp("server.decode", fn, ledger.on_decode))
    tracer.patch(BrokerServer, "_encode_payload",
                 lambda fn: sp("server.encode", fn, ledger.on_encode))
    tracer.patch(BrokerServer, "_dispatch_safe", ledger.dispatch)
    tracer.patch(BrokerServer, "_admit", ledger.admit)

    tracer.patch(BrokerService, "allocate_batch",
                 lambda fn: sp("service.batch", fn))
    tracer.patch(BrokerService, "_decide", lambda fn: sp("service.decide", fn))
    top = FederationRouter if federated else BrokerService
    tracer.patch(top, "allocate_batch", ledger.batch_entry)

    refreshes: dict[int, int] = {}

    def refresh_name(result: Any, args: tuple) -> str:
        src = args[0]
        before = refreshes.get(id(src), 0)
        refreshes[id(src)] = src.refreshes
        return "monitor.refresh" if src.refreshes != before else "monitor.cache_hit"

    tracer.patch(CachedSnapshotSource, "__call__",
                 lambda fn: sp("monitor.refresh", fn, name_of=refresh_name))
    for owner in (delta_mod, slicing):
        tracer.patch(owner, "compute_delta",
                     lambda fn: sp("monitor.compute_delta", fn))
        tracer.patch(owner, "apply_snapshot_delta",
                     lambda fn: sp("monitor.apply_delta", fn))

    def migrated(args: tuple, result: Any, dur: float) -> None:
        tracer.values["monitor.states_migrated"].append(result)

    tracer.patch(arrays, "migrate_states",
                 lambda fn: sp("monitor.migrate", fn, migrated))

    def built(args: tuple, result: Any, dur: float) -> None:
        if tracer._active["core.load_state"]:
            tracer.counts["core.load_state_miss"] += 1

    tracer.patch(nla, "load_state", lambda fn: sp("core.load_state", fn))
    tracer.patch(arrays, "_build_state", lambda fn: sp("core.build_state", fn, built))
    tracer.patch(nla, "best_candidate_fast",
                 lambda fn: sp("core.best_candidate", fn))
    tracer.patch(arrays, "_seed_lower_bounds",
                 lambda fn: sp("core.seed_bounds", fn))

    def grown(args: tuple, result: Any, dur: float) -> None:
        tracer.values["core.seeds_grown"].append(len(args[1]))

    tracer.patch(arrays, "_candidates_for_seeds",
                 lambda fn: sp("core.grow", fn, grown))

    for op in ("grant", "release", "held_nodes"):
        tracer.patch(LeaseTable, op, lambda fn, op=op: sp(f"leases.{op}", fn))

    tracer.patch(FederationRouter, "allocate_batch",
                 lambda fn: sp("federation.route", fn))
    tracer.patch(PartitionedLoadState, "advance",
                 lambda fn: sp("federation.advance", fn))
    for name in ("sync", "sync_to"):
        tracer.patch(ShardSnapshotSource, name,
                     lambda fn: sp("federation.slice_sync", fn))
    return ledger


def raw(
    tracer: Tracer, ledger: Ledger, server: Any, cached: CachedSnapshotSource
) -> dict[str, Any]:
    """One traced session's samples and counters, to be pooled by :func:`metrics`."""
    d = tracer.durations
    service = server.service
    router = service if isinstance(service, FederationRouter) else None
    services = (
        [router.shard(s).service for s in router.shard_ids] if router else [service]
    )
    return {
        "lists": {
            "server.decode": d("server.decode"),
            "server.encode": d("server.encode"),
            "server.queue_wait": ledger.queue_wait,
            "server.batch_size": ledger.batch_sizes,
            "monitor.refresh": d("monitor.refresh"),
            "monitor.compute_delta": d("monitor.compute_delta"),
            "monitor.apply_delta": d("monitor.apply_delta"),
            "monitor.states_migrated": tracer.values["monitor.states_migrated"],
            "monitor.source": d("monitor.source"),
            "core.load_state": d("core.load_state"),
            "core.seed_bounds": d("core.seed_bounds"),
            "core.grow": d("core.grow"),
            "core.seeds_grown": tracer.values["core.seeds_grown"],
            "core.select": d("core.best_candidate", self_time=True),
            "service.batch": d("service.batch"),
            "leases.grant": d("leases.grant"),
            "leases.release": d("leases.release"),
            "leases.held_nodes": d("leases.held_nodes"),
            "federation.route": d("federation.route", self_time=True),
            "federation.advance": d("federation.advance"),
            "federation.slice_sync": d("federation.slice_sync"),
        },
        "counts": {
            "busy_rejected": service.metrics.busy_rejected,
            "full_rebuilds":
                cached.refreshes - cached.deltas_applied - cached.deltas_empty,
            "load_state_miss": tracer.counts["core.load_state_miss"],
            "decide_calls": len(d("service.decide")),
            "memo_hits": sum(s.metrics.decisions_memoized for s in services),
            "swaps_adopted": sum(s.metrics.batch_swaps_adopted for s in services),
            "granted": router.metrics.granted if router else 0,
            "decided": router.metrics.granted + router.metrics.denied if router else 0,
            "cross_shard_grants": router.cross_shard_grants if router else 0,
            "spills": router.spills if router else 0,
        },
    }


def metrics(raws: list[dict[str, Any]]) -> tuple[dict[str, float], dict[str, Any]]:
    """Every daemon-side per-layer metric, pooled over the traced sessions.

    Samples are concatenated and counters summed before any figure is
    taken.  Returns (metrics, sample counts for the run record).
    """
    lists: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for r in raws:
        for k, v in r["lists"].items():
            lists.setdefault(k, []).extend(v)
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def ms(name: str) -> float:
        return 1e3 * p50(lists[name])

    def us(name: str) -> float:
        return 1e6 * p50(lists[name])

    wait_tail, wait_pct = tail(lists["server.queue_wait"])
    refresh_tail, refresh_pct = tail(lists["monitor.refresh"])
    migrated = lists["monitor.states_migrated"]
    figures = {
        "server.decode_us": us("server.decode"),
        "server.encode_us": us("server.encode"),
        "server.queue_wait_ms.p50": ms("server.queue_wait"),
        "server.queue_wait_ms.tail": 1e3 * wait_tail,
        "server.batch_size_mean": mean(lists["server.batch_size"]),
        "server.busy_rejected": float(counts["busy_rejected"]),
        "monitor.refresh_ms.p50": ms("monitor.refresh"),
        "monitor.refresh_ms.tail": 1e3 * refresh_tail,
        "monitor.compute_delta_ms": ms("monitor.compute_delta"),
        "monitor.apply_delta_ms": ms("monitor.apply_delta"),
        "monitor.full_rebuilds": float(counts["full_rebuilds"]),
        "monitor.states_migrated.mean": mean(migrated),
        "monitor.states_migrated.max": float(max(migrated, default=0)),
        "core.load_state_ms": ms("core.load_state"),
        "core.load_state_miss_frac":
            counts["load_state_miss"] / max(1, len(lists["core.load_state"])),
        "core.seed_bounds_ms": ms("core.seed_bounds"),
        "core.grow_ms": ms("core.grow"),
        "core.seeds_grown": mean(lists["core.seeds_grown"]),
        "core.select_ms": ms("core.select"),
        "service.batch_ms": ms("service.batch"),
        "service.memo_hit_frac": counts["memo_hits"] / max(1, counts["decide_calls"]),
        "service.swaps_adopted": float(counts["swaps_adopted"]),
        "leases.grant_us": us("leases.grant"),
        "leases.release_us": us("leases.release"),
        "leases.held_nodes_us": us("leases.held_nodes"),
        "federation.route_ms": ms("federation.route"),
        "federation.advance_ms": ms("federation.advance"),
        "federation.slice_sync_ms": ms("federation.slice_sync"),
        "federation.cross_shard_frac":
            counts["cross_shard_grants"] / max(1, counts["granted"]),
        "federation.spill_frac": counts["spills"] / max(1, counts["decided"]),
    }
    samples = {
        **{f"{k}.samples": len(v) for k, v in lists.items()},
        "server.queue_wait_tail_pct": wait_pct,
        "monitor.refresh_tail_pct": refresh_pct,
        "monitor.source_ms_p50": ms("monitor.source"),
        "monitor.states_migrated_series": [
            r["lists"]["monitor.states_migrated"] for r in raws
        ],
    }
    return figures, samples
