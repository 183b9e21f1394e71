"""Partitioned LoadState view — per-shard aggregates over one snapshot.

The federation router never runs Algorithms 1–2 over the whole fleet;
that is exactly the per-decision ceiling sharding removes.  Each shard's
:class:`~repro.broker.service.BrokerService` decides placements over its
own snapshot slice (:mod:`repro.monitor.slicing`).  What lives here is
the router's *scoring* input, :meth:`PartitionedLoadState.aggregates`:
per shard, total/free cores, mean Equation-1 CL and mean Equation-2 NL
per subtree, and quarantine counts.  The CL/NL means come from one
**fleet-wide** Equation-1/2 pass (O(V + measured links), paid once per
instance and advanced in O(changed) across delta-patched snapshots via
:meth:`PartitionedLoadState.advance`) rather than from per-shard
states: Equation 1/2 normalize *within* the ranked set, so per-shard
means would hover around 1.0 for every shard and carry no cross-shard
signal — the global pass makes subtree means directly comparable.

The fleet pass is kept as dense vectors (an attributes×nodes raw
matrix, measured-pair latency/bandwidth-complement vectors) so both the
initial build and every per-delta patch run as a handful of numpy
operations rather than Python-level dict sweeps — at fleet scale the
router consults aggregates once per request, and this pass must not
cost O(V) Python operations per consultation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.attributes import ATTRIBUTES, Criterion
from repro.core.effective_procs import (
    effective_proc_count,
    effective_proc_counts,
)
from repro.core.network_load import PairKey, pair_inputs
from repro.core.weights import ComputeWeights, NetworkWeights
from repro.monitor.delta import SnapshotDelta
from repro.monitor.snapshot import ClusterSnapshot


@dataclass(frozen=True)
class ShardAggregate:
    """One shard's scoring inputs, derived from the fleet-wide pass."""

    shard: str
    #: nodes of the shard present in the snapshot
    n_nodes: int
    #: nodes currently usable (live, not held, not quarantined)
    usable_nodes: int
    #: raw core count over present nodes (static capacity)
    total_cores: int
    #: summed Equation-3 effective processors over usable nodes
    free_procs: int
    #: mean fleet-normalized Equation-1 compute load over live nodes
    mean_cl: float
    #: mean fleet-normalized Equation-2 load over measured intra-shard
    #: pairs (falls back to the fleet mean when no link is measured, so
    #: an unmeasured subtree looks average rather than free)
    mean_nl: float
    #: shard nodes currently quarantined
    quarantined: int

    def as_dict(self) -> dict[str, float | int | str]:
        """JSON-ready form for the ``shards`` router verb."""
        return {
            "shard": self.shard,
            "n_nodes": self.n_nodes,
            "usable_nodes": self.usable_nodes,
            "total_cores": self.total_cores,
            "free_procs": self.free_procs,
            "mean_cl": self.mean_cl,
            "mean_nl": self.mean_nl,
            "quarantined": self.quarantined,
        }


class PartitionedLoadState:
    """Per-shard Equation-1/2 aggregates over one snapshot.

    ``partition`` maps shard name → node names; nodes the snapshot does
    not know (or that are not live) simply drop out of that shard's
    view.  Everything derived is memoized on the instance (one instance
    per snapshot), so a router consulting aggregates many times per
    snapshot pays each build exactly once — and :meth:`advance` carries
    the expensive parts to the next snapshot in O(changed).
    """

    def __init__(
        self,
        snapshot: ClusterSnapshot,
        partition: Mapping[str, Iterable[str]],
        *,
        compute_weights: ComputeWeights | None = None,
        network_weights: NetworkWeights | None = None,
        ppn: int | None = None,
        load_key: str = "m1",
    ) -> None:
        if not partition:
            raise ValueError("partition must name at least one shard")
        self.snapshot = snapshot
        self.partition = {
            shard: tuple(nodes) for shard, nodes in partition.items()
        }
        for shard, nodes in self.partition.items():
            if not nodes:
                raise ValueError(f"shard {shard!r} has no nodes")
        self._cw = compute_weights or ComputeWeights()
        self._nw = network_weights or NetworkWeights()
        self._ppn = ppn
        self._load_key = load_key
        # per-instance memos: the snapshot is fixed for this object's
        # lifetime, so live-node filtering and the fleet pass happen once
        self._live_list: list[str] | None = None
        self._live_set: frozenset[str] = frozenset()
        # fleet-pass vectors; the raw inputs are kept so :meth:`advance`
        # can patch them per delta instead of re-extracting the fleet
        self._index: dict[str, int] = {}
        self._raw_mat: np.ndarray | None = None  # (attributes, V)
        self._pair_order: tuple[PairKey, ...] = ()
        self._pair_index: dict[PairKey, int] = {}
        self._lat_vec: np.ndarray | None = None
        self._bwc_vec: np.ndarray | None = None
        self._cl_vec: np.ndarray | None = None
        self._nl_vec: np.ndarray | None = None
        self._pc: dict[str, int] | None = None
        # chain-invariant per-shard facts (member/pair index arrays) —
        # safe to carry across :meth:`advance`
        self._shard_topo: dict[
            str, tuple[int, int, tuple[str, ...], np.ndarray, np.ndarray]
        ] = {}
        # per-snapshot per-shard means — never carried across advance
        self._shard_means: dict[str, tuple[float, float]] = {}

    def _live(self) -> list[str]:
        if self._live_list is None:
            members = frozenset(self.snapshot.livehosts)
            self._live_list = [
                n
                for n in self.snapshot.nodes
                if not members or n in members
            ]
            self._live_set = frozenset(self._live_list)
        return self._live_list

    def live_nodes(self, shard: str) -> tuple[str, ...]:
        """The shard's nodes that are present and live in the snapshot."""
        self._live()
        return tuple(
            n for n in self.partition[shard] if n in self._live_set
        )

    # -- fleet-wide scoring pass ----------------------------------------
    def _ensure_fleet(self) -> None:
        """Build the fleet CL/NL/PC vectors once per instance."""
        if self._cl_vec is not None:
            return
        live = self._live()
        self._index = {n: i for i, n in enumerate(live)}
        views = [self.snapshot.nodes[n] for n in live]
        self._raw_mat = np.array(
            [[a.extract(v) for v in views] for a in ATTRIBUTES],
            dtype=np.float64,
        )
        lat, bwc = pair_inputs(self.snapshot, nodes=live)
        self._pair_order = tuple(lat)
        self._pair_index = {k: j for j, k in enumerate(self._pair_order)}
        self._lat_vec = np.fromiter(
            lat.values(), dtype=np.float64, count=len(lat)
        )
        self._bwc_vec = np.fromiter(
            bwc.values(), dtype=np.float64, count=len(bwc)
        )
        self._pc = effective_proc_counts(
            self.snapshot, ppn=self._ppn, load_key=self._load_key
        )
        self._nl_vec = self._combine_nl()
        self._cl_vec = self._combine_cl()

    def _combine_cl(self) -> np.ndarray:
        """Equation 1 over the raw matrix — vectorized ``compute_loads``.

        Mirrors ``to_cost`` (mean-normalize, complement maximization
        attributes to the normalized maximum) and ``saw_scores`` (weight
        and sum), so the per-node values match a dict-based rebuild.
        """
        assert self._raw_mat is not None
        v = self._raw_mat.shape[1]
        cl = np.zeros(v, dtype=np.float64)
        if v == 0:
            return cl
        weights = self._cw.weights
        for i, attr in enumerate(ATTRIBUTES):
            w = float(weights.get(attr.name, 0.0))
            if w == 0.0:
                continue
            column = self._raw_mat[i]
            mean = float(column.mean())
            norm = (
                column / mean
                if mean != 0.0
                else np.zeros(v, dtype=np.float64)
            )
            if attr.criterion is Criterion.MAXIMIZE:
                norm = norm.max() - norm
            cl += w * norm
        return cl

    def _combine_nl(self) -> np.ndarray:
        """Equation 2 over the pair vectors — vectorized
        ``combine_pair_costs`` with mean normalization."""
        assert self._lat_vec is not None and self._bwc_vec is not None
        e = len(self._lat_vec)
        if e == 0:
            return np.zeros(0, dtype=np.float64)
        lat_mean = float(self._lat_vec.mean())
        bwc_mean = float(self._bwc_vec.mean())
        lat_n = (
            self._lat_vec / lat_mean
            if lat_mean != 0.0
            else np.zeros(e, dtype=np.float64)
        )
        bwc_n = (
            self._bwc_vec / bwc_mean
            if bwc_mean != 0.0
            else np.zeros(e, dtype=np.float64)
        )
        return self._nw.w_lt * lat_n + self._nw.w_bw * bwc_n

    def advance(
        self, snapshot: ClusterSnapshot, delta: SnapshotDelta
    ) -> "PartitionedLoadState":
        """The O(changed) successor over a delta-patched snapshot.

        ``snapshot`` must be exactly one generation ahead of this
        instance's snapshot on the same lineage (the caller verifies via
        :func:`repro.monitor.delta.snapshot_step_delta`), so the node
        set, livehosts, and measured-pair sets are unchanged: only the
        changed raw entries are re-extracted, then the cheap vectorized
        normalize-and-combine passes re-run.  The result matches a
        fresh build over ``snapshot``.
        """
        nxt = PartitionedLoadState(
            snapshot,
            self.partition,
            compute_weights=self._cw,
            network_weights=self._nw,
            ppn=self._ppn,
            load_key=self._load_key,
        )
        if self._cl_vec is None:
            return nxt  # nothing derived yet — build lazily as usual
        assert self._raw_mat is not None
        assert self._lat_vec is not None and self._bwc_vec is not None
        assert self._pc is not None
        nxt._live_list = self._live_list
        nxt._live_set = self._live_set
        nxt._index = self._index
        nxt._pair_order = self._pair_order
        nxt._pair_index = self._pair_index
        nxt._shard_topo = self._shard_topo

        changed = [n for n in delta.nodes if n in self._index]
        raw = self._raw_mat
        if changed:
            raw = raw.copy()
            for n in changed:
                view = snapshot.nodes[n]
                j = self._index[n]
                for i, attr in enumerate(ATTRIBUTES):
                    if not attr.static:
                        # a chaining delta cannot move static specs
                        raw[i, j] = attr.extract(view)
        nxt._raw_mat = raw

        touched = [
            k
            for k in {*delta.latency_us, *delta.bandwidth_mbs}
            if k in self._pair_index
        ]
        lat_vec, bwc_vec = self._lat_vec, self._bwc_vec
        if touched:
            lat_vec, bwc_vec = lat_vec.copy(), bwc_vec.copy()
            for key in touched:
                j = self._pair_index[key]
                lat_vec[j] = snapshot.latency(*key)
                bwc_vec[j] = snapshot.bandwidth_complement(*key)
        nxt._lat_vec, nxt._bwc_vec = lat_vec, bwc_vec

        pc = self._pc
        if self._ppn is None and changed:
            pc = dict(pc)
            for n in changed:
                view = snapshot.nodes[n]
                pc[n] = effective_proc_count(
                    view.cores, float(view.cpu_load[self._load_key])
                )
        nxt._pc = pc
        nxt._cl_vec = nxt._combine_cl() if changed else self._cl_vec
        nxt._nl_vec = nxt._combine_nl() if touched else self._nl_vec
        return nxt

    def _topo(
        self, shard: str
    ) -> tuple[int, int, tuple[str, ...], np.ndarray, np.ndarray]:
        """(present, total_cores, live members, member idx, intra pair
        idx) — all chain-invariant, so the memo survives advance."""
        topo = self._shard_topo.get(shard)
        if topo is None:
            present = [
                n for n in self.partition[shard] if n in self.snapshot.nodes
            ]
            live = self.live_nodes(shard)
            members = frozenset(live)
            member_idx = np.fromiter(
                (self._index[n] for n in live), dtype=np.intp, count=len(live)
            )
            intra_idx = np.fromiter(
                (
                    j
                    for j, k in enumerate(self._pair_order)
                    if k[0] in members and k[1] in members
                ),
                dtype=np.intp,
            )
            topo = (
                len(present),
                sum(self.snapshot.nodes[n].cores for n in present),
                live,
                member_idx,
                intra_idx,
            )
            self._shard_topo[shard] = topo
        return topo

    def aggregate(
        self,
        shard: str,
        *,
        held: frozenset[str] = frozenset(),
        quarantined: frozenset[str] = frozenset(),
    ) -> ShardAggregate:
        """The shard's scoring aggregates under the given exclusions."""
        self._ensure_fleet()
        assert self._cl_vec is not None and self._nl_vec is not None
        assert self._pc is not None
        n_present, total_cores, live, member_idx, intra_idx = self._topo(
            shard
        )
        means = self._shard_means.get(shard)
        if means is None:
            if len(intra_idx):
                mean_nl = float(self._nl_vec[intra_idx].mean())
            elif len(self._nl_vec):
                mean_nl = float(self._nl_vec.mean())
            else:
                mean_nl = 0.0
            means = (
                (
                    float(self._cl_vec[member_idx].mean())
                    if len(member_idx)
                    else 0.0
                ),
                mean_nl,
            )
            self._shard_means[shard] = means
        blocked = held | quarantined
        pc = self._pc
        return ShardAggregate(
            shard=shard,
            n_nodes=n_present,
            usable_nodes=sum(1 for n in live if n not in blocked),
            total_cores=total_cores,
            free_procs=int(
                sum(int(pc[n]) for n in live if n not in blocked)
            ),
            mean_cl=means[0],
            mean_nl=means[1],
            quarantined=sum(
                1
                for n in self.partition[shard]
                if n in quarantined and n in self.snapshot.nodes
            ),
        )

    def aggregates(
        self,
        *,
        held: frozenset[str] = frozenset(),
        quarantined: frozenset[str] = frozenset(),
    ) -> dict[str, ShardAggregate]:
        """Aggregates for every shard, in partition order."""
        return {
            shard: self.aggregate(shard, held=held, quarantined=quarantined)
            for shard in self.partition
        }
