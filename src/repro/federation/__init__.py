"""Sharded broker federation: per-subtree shards behind a scoring router.

The single broker runs the paper's Algorithms 1–2 over every node of
the fleet for every decision; past a few thousand nodes that per-
decision ceiling dominates.  This package removes it by partitioning
the node space along the switch topology:

* :mod:`repro.federation.sharding` — deterministic whole-subtree
  partitioning of the node space;
* :mod:`repro.federation.router` — the :class:`FederationRouter` that
  scores shards on cheap fleet-normalized aggregates, forwards
  allocates with spill-over, prefix-routes lease operations, and runs
  the cross-shard two-phase reserve/commit for jobs no single shard can
  host;
* :mod:`repro.federation.daemon` — the :class:`FederationDaemon`
  transport (a :class:`~repro.broker.server.BrokerServer` whose
  service is the router, so it also answers ``shards``/``resolve``).

See ``docs/FEDERATION.md`` for the architecture and consistency model.
"""

from repro.federation.daemon import FederationDaemon
from repro.federation.router import (
    CROSS_SHARD_PREFIX,
    FederationRouter,
    Shard,
    build_federation,
)
from repro.federation.sharding import snapshot_switches, subtree_partition

__all__ = [
    "CROSS_SHARD_PREFIX",
    "FederationDaemon",
    "FederationRouter",
    "Shard",
    "build_federation",
    "snapshot_switches",
    "subtree_partition",
]
