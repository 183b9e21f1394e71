"""Snapshot slicing: projection correctness and the incremental path."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.arrays import load_state
from repro.core.partition import PartitionedLoadState
from repro.experiments.scenario import small_scenario
from repro.federation import (
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from repro.monitor.snapshot import CachedSnapshotSource
from repro.monitor.slicing import ShardSnapshotSource, slice_snapshot

from tests.core.conftest import ring_fleet


@pytest.fixture
def sc():
    """A private scenario — these tests advance simulated time."""
    return small_scenario(8, seed=1, warmup_s=300.0)


class TestSliceSnapshot:
    def test_projection_keeps_only_shard_state(self, sc):
        snap = sc.snapshot()
        part = subtree_partition(snapshot_switches(snap), 2)
        keep = set(part["shard1"])
        sliced = slice_snapshot(snap, keep)
        assert set(sliced.nodes) == keep & set(snap.nodes)
        assert sliced.time == snap.time
        for pair in sliced.bandwidth_mbs:
            assert pair[0] in keep and pair[1] in keep
        for pair in sliced.latency_us:
            assert pair[0] in keep and pair[1] in keep
        assert all(h in keep for h in sliced.livehosts)
        # livehosts order is the parent's, filtered
        assert list(sliced.livehosts) == [
            h for h in snap.livehosts if h in keep
        ]

    def test_cross_subtree_links_are_dropped(self, sc):
        snap = sc.snapshot()
        part = subtree_partition(snapshot_switches(snap), 2)
        sliced = slice_snapshot(snap, part["shard1"])
        crossing = [
            pair
            for pair in snap.latency_us
            if (pair[0] in part["shard1"]) != (pair[1] in part["shard1"])
        ]
        assert all(pair not in sliced.latency_us for pair in crossing)

    def test_unknown_nodes_are_ignored(self, sc):
        snap = sc.snapshot()
        sliced = slice_snapshot(snap, ["ghost1", *list(snap.nodes)[:2]])
        assert len(sliced.nodes) == 2


class TestShardSnapshotSource:
    def test_same_parent_object_reuses_the_slice(self, sc):
        snap = sc.snapshot()
        source = ShardSnapshotSource(lambda: snap, list(snap.nodes)[:4])
        first = source()
        second = source()
        assert second is first
        assert source.reuses == 1
        assert source.rebuilds == 1  # the initial slice

    def test_parent_advance_is_served_incrementally(self, sc):
        part = subtree_partition(
            snapshot_switches(sc.snapshot()), 2
        )
        source = ShardSnapshotSource(sc.snapshot, part["shard1"])
        first = source()
        sc.advance(30.0)
        second = source()
        assert second is not first
        assert second.time > first.time
        assert set(second.nodes) == set(first.nodes)
        assert source.deltas + source.rebuilds >= 2

    def test_rejects_empty_node_set(self, sc):
        with pytest.raises(ValueError):
            ShardSnapshotSource(sc.snapshot, [])


class _DriftingMonitor:
    """Each call publishes the next snapshot: a few loads and links move."""

    def __init__(self, base, seed: int) -> None:
        self.snap = base
        self.rng = np.random.default_rng(seed)
        self.names = list(base.nodes)
        self.pairs = list(base.bandwidth_mbs)

    def __call__(self):
        rng = self.rng
        nodes = dict(self.snap.nodes)
        for i in rng.choice(len(self.names), 6, replace=False):
            view = nodes[self.names[i]]
            factor = float(rng.uniform(0.7, 1.3))
            nodes[view.name] = dataclasses.replace(
                view,
                cpu_load={k: v * factor for k, v in view.cpu_load.items()},
            )
        bandwidth = dict(self.snap.bandwidth_mbs)
        for j in rng.choice(len(self.pairs), 6, replace=False):
            bandwidth[self.pairs[j]] = float(125.0 * rng.uniform(0.3, 1.0))
        self.snap = dataclasses.replace(
            self.snap,
            time=self.snap.time + 1.0,
            nodes=nodes,
            bandwidth_mbs=bandwidth,
        )
        return self.snap


class TestFederationCatchUp:
    """The router's O(changed) path: partition advance + composed slices."""

    STEPS = 5

    def test_idle_shard_catches_up_by_composed_delta(self):
        now = [0.0]
        source = CachedSnapshotSource(
            _DriftingMonitor(ring_fleet(64, seed=4), seed=5),
            max_age_s=0.5,
            clock=lambda: now[0],
            incremental=True,
        )
        partition = subtree_partition(snapshot_switches(source()), 4)
        router = build_federation(source, partition, clock=lambda: now[0])
        idle = sorted(partition)[0]
        idle_source = router.shard(idle).source
        router.shards()  # the router's first PartitionedLoadState
        for sid in partition:
            router.shard(sid).source()
        load_state(idle_source())  # a cached state to migrate
        for _ in range(self.STEPS):
            now[0] += 1.0
            router.shards()  # advance the partition, log the step
            for sid in partition:
                if sid != idle:
                    router.shard(sid).source()
        parent = source()
        assert source.deltas_applied == self.STEPS
        assert len(router._logged_steps(
            idle_source.parent_snapshot, parent
        )) == self.STEPS

        # the advanced aggregates equal a from-scratch partition pass
        advanced = router._partitioned()
        assert advanced.snapshot is parent
        assert advanced.aggregates() == (
            PartitionedLoadState(parent, partition).aggregates()
        )

        # one composed patch brings the idle slice current...
        router._sync_shard_source(idle)
        caught = idle_source()
        assert idle_source.parent_snapshot is parent
        fresh = slice_snapshot(parent, partition[idle])
        for attr in ("time", "nodes", "bandwidth_mbs", "latency_us",
                     "peak_bandwidth_mbs", "livehosts"):
            assert getattr(caught, attr) == getattr(fresh, attr), attr

        # ...and its migrated LoadState equals a fresh one bit for bit
        migrated = load_state(caught)
        rebuilt = load_state(fresh)
        assert migrated.generation > 0
        assert migrated.nodes == rebuilt.nodes
        for attr in ("cl_vec", "nl_mat", "measured", "pc_vec"):
            assert np.array_equal(
                getattr(migrated, attr), getattr(rebuilt, attr)
            ), attr
        assert migrated.missing_penalty == rebuilt.missing_penalty
        assert dict(migrated.cl) == dict(rebuilt.cl)
        assert dict(migrated.nl) == dict(rebuilt.nl)
