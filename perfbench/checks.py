"""Correctness checks over one run's event log.

Each check returns human-readable failures; an empty list means the run
was correct.  The generator's view of a lease is the *definite* holding
interval ``[grant received, release sent]``: the daemon granted before
the reply arrived and cannot free the nodes before the release is sent,
so two such intervals that overlap on a node prove a double booking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: error codes that are the daemon refusing (as opposed to the transport failing)
REFUSALS = ("BUSY", "NO_CAPACITY", "WAIT", "MONITOR_STALE", "SHARD_DOWN")


@dataclass
class Alloc:
    n: int
    t_due: float
    t_send: float
    t_recv: float | None = None
    code: str | None = None  # None when granted
    lease: str | None = None
    nodes: tuple[str, ...] = ()
    procs: dict[str, int] = field(default_factory=dict)
    in_window: bool = True

    @property
    def granted(self) -> bool:
        return self.t_recv is not None and self.code is None


@dataclass
class Release:
    lease: str
    t_send: float
    t_recv: float | None = None
    ok: bool = False


def check_grants(allocs: list[Alloc]) -> list[str]:
    """Every grant's process counts sum to the request, one entry per node."""
    out = []
    for a in allocs:
        if not a.granted:
            continue
        if sum(a.procs.values()) != a.n:
            out.append(f"{a.lease}: procs sum to {sum(a.procs.values())}, asked {a.n}")
        if len(set(a.nodes)) != len(a.nodes) or set(a.procs) != set(a.nodes):
            out.append(f"{a.lease}: node list and process map disagree")
    return out


def check_no_double_booking(allocs: list[Alloc], releases: dict[str, Release]) -> list[str]:
    """No node sits in two concurrently held leases."""
    events: list[tuple[float, int, str, tuple[str, ...]]] = []
    for a in allocs:
        if not a.granted:
            continue
        rel = releases.get(a.lease)
        end = rel.t_send if rel is not None else float("inf")
        events.append((a.t_recv, 1, a.lease, a.nodes))
        events.append((end, 0, a.lease, a.nodes))  # frees sort first on ties
    holder: dict[str, str] = {}
    out = []
    for _, kind, lease, nodes in sorted(events, key=lambda e: (e[0], e[1])):
        for node in nodes:
            if kind == 0:
                if holder.get(node) == lease:
                    del holder[node]
            elif node in holder and holder[node] != lease:
                out.append(f"node {node} granted to {lease} while {holder[node]} holds it")
            else:
                holder[node] = lease
    return out


def check_releases(allocs: list[Alloc], releases: dict[str, Release], active: int) -> list[str]:
    """Every grant was released successfully and no lease remains."""
    out = []
    for a in allocs:
        if a.granted and not (a.lease in releases and releases[a.lease].ok):
            out.append(f"{a.lease} was not released successfully")
    if active:
        out.append(f"{active} lease(s) still active at the end")
    return out


def check_counters(
    allocs: list[Alloc], releases: dict[str, Release], counters: dict[str, Any]
) -> list[str]:
    """The daemon's own counters match what the generator saw."""
    granted = sum(a.granted for a in allocs)
    refused = sum(a.code in REFUSALS for a in allocs)
    released = sum(r.ok for r in releases.values())
    want = {
        "granted": granted,
        "denied + busy_rejected": refused,
        "released": released,
        "expired": 0,
        "active_leases": 0,
    }
    have = {
        "granted": counters["granted"],
        "denied + busy_rejected": counters["denied"] + counters["busy_rejected"],
        "released": counters["released"],
        "expired": counters["expired"],
        "active_leases": counters["active_leases"],
    }
    return [
        f"daemon counts {k}={have[k]}, generator counts {want[k]}"
        for k in want
        if have[k] != want[k]
    ]


def check_all(
    allocs: list[Alloc],
    releases: dict[str, Release],
    counters: dict[str, Any],
    status_active: int,
) -> list[str]:
    return (
        check_grants(allocs)
        + check_no_double_booking(allocs, releases)
        + check_releases(allocs, releases, status_active)
        + check_counters(allocs, releases, counters)
    )
