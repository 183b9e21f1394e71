"""Synthetic snapshot builders for allocator tests."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.monitor.snapshot import ClusterSnapshot, NodeView


def flat(v: float) -> dict[str, float]:
    return {"now": v, "m1": v, "m5": v, "m15": v}


def make_view(
    name: str,
    *,
    cores: int = 12,
    freq: float = 4.6,
    mem: float = 16.0,
    users: int = 0,
    load: float = 0.0,
    util: float = 10.0,
    flow: float = 0.0,
    avail: float = 12.0,
) -> NodeView:
    return NodeView(
        name=name,
        cores=cores,
        frequency_ghz=freq,
        memory_gb=mem,
        users=users,
        cpu_load=flat(load),
        cpu_util=flat(util),
        flow_rate_mbs=flat(flow),
        available_memory_gb=flat(avail),
    )


def make_snapshot(
    views: dict[str, NodeView],
    *,
    bandwidth: dict[tuple[str, str], float] | None = None,
    latency: dict[tuple[str, str], float] | None = None,
    peak: float = 125.0,
    time: float = 0.0,
) -> ClusterSnapshot:
    """Snapshot with uniform defaults for any unspecified pair."""
    names = list(views)
    pairs = [
        (a, b) if a <= b else (b, a)
        for a, b in itertools.combinations(names, 2)
    ]
    bw = {p: 125.0 for p in pairs}
    lat = {p: 100.0 for p in pairs}
    if bandwidth:
        for k, v in bandwidth.items():
            key = k if k[0] <= k[1] else (k[1], k[0])
            bw[key] = v
    if latency:
        for k, v in latency.items():
            key = k if k[0] <= k[1] else (k[1], k[0])
            lat[key] = v
    return ClusterSnapshot(
        time=time,
        nodes=views,
        bandwidth_mbs=bw,
        latency_us=lat,
        peak_bandwidth_mbs={p: peak for p in pairs},
        livehosts=tuple(names),
    )


def ring_fleet(n: int, seed: int) -> ClusterSnapshot:
    """A fleet-scale snapshot: ``n`` nodes, 16 per switch, sparse links.

    Each node measures its two ring successors (degree 4), the shape a
    fleet-scale monitor produces; every other pair is unmeasured and
    priced by the allocator's missing-measurement penalty.
    """
    rng = np.random.default_rng(seed)
    names = [f"n{i:05d}" for i in range(n)]
    views = {}
    for i, name in enumerate(names):
        load = float(rng.uniform(0.0, 10.0))
        views[name] = NodeView(
            name=name,
            cores=12,
            frequency_ghz=2.6,
            memory_gb=64.0,
            users=int(rng.integers(0, 3)),
            cpu_load=flat(load),
            cpu_util=flat(min(100.0, load * 8.0)),
            flow_rate_mbs=flat(float(rng.uniform(0.0, 60.0))),
            available_memory_gb=flat(float(rng.uniform(8.0, 60.0))),
            switch=f"s{i // 16}",
        )
    bandwidth: dict[tuple[str, str], float] = {}
    latency: dict[tuple[str, str], float] = {}
    for i in range(n):
        for step in (1, 2):
            a, b = sorted((names[i], names[(i + step) % n]))
            if a == b or (a, b) in bandwidth:
                continue
            bandwidth[(a, b)] = float(125.0 * rng.uniform(0.5, 1.0))
            latency[(a, b)] = float(rng.uniform(40.0, 120.0))
    return ClusterSnapshot(
        time=0.0,
        nodes=views,
        bandwidth_mbs=bandwidth,
        latency_us=latency,
        peak_bandwidth_mbs={k: 125.0 for k in bandwidth},
        livehosts=tuple(names),
    )


@pytest.fixture
def four_node_snapshot() -> ClusterSnapshot:
    """Two idle well-connected nodes (a, b), one loaded (c), one far (d)."""
    views = {
        "a": make_view("a", load=0.5),
        "b": make_view("b", load=0.5),
        "c": make_view("c", load=10.0, util=80.0, users=4),
        "d": make_view("d", load=0.5),
    }
    return make_snapshot(
        views,
        bandwidth={("a", "d"): 30.0, ("b", "d"): 30.0, ("c", "d"): 30.0},
        latency={("a", "d"): 400.0, ("b", "d"): 400.0, ("c", "d"): 400.0},
    )
