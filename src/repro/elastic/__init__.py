"""Elastic reallocation — malleable jobs under load drift.

The paper's broker picks nodes once, at submission time, yet its own
premise is that load and network state on a shared cluster *drift* while
jobs run.  This package closes the loop (in the spirit of the DMR /
MPI-malleability line of work):

* :mod:`repro.elastic.drift` — decides *when* to act: sustained drift on
  a job's nodes, read off the monitor's rolling means
  (:class:`repro.monitor.drift.DriftTracker`), not instantaneous spikes;
* :mod:`repro.elastic.plan` — decides *what* to do: re-runs the
  vectorized Algorithm 1/2 core over the nodes a job could legally use
  (its own plus all unleased ones) and emits an expand / shrink /
  migrate :class:`ReconfigPlan` with its Equation-4 score gain;
* :mod:`repro.elastic.cost` — prices what acting costs: a migration
  moves rank images over the same contended network the cost model in
  :mod:`repro.simmpi.costmodel` prices;
* :mod:`repro.elastic.gate` — accepts a plan only when the predicted
  saving over the job's remaining runtime clears the migration bill with
  margin (hysteresis against flapping);
* :mod:`repro.elastic.executor` — applies an accepted plan through the
  broker's :class:`~repro.scheduler.leases.LeaseTable` as a two-phase
  reserve → switch → release transaction, so a migration that dies
  mid-flight strands nothing and double-books nothing;
* :mod:`repro.elastic.sim` — the DES integration: a malleable
  :class:`~repro.scheduler.scheduler.ClusterScheduler` whose running
  jobs are periodically re-priced and re-placed.

The static-vs-elastic experiment on drifting OU-process load traces,
reproducible from one seed, lives in :mod:`repro.experiments.drifting`.
"""

from repro.elastic.cost import (
    MigrationCostConfig,
    NetworkMigrationCost,
    SnapshotMigrationCost,
)
from repro.elastic.drift import DriftPolicy, DriftVerdict, LoadDriftMonitor
from repro.elastic.executor import (
    MigrationFailure,
    ReconfigError,
    TwoPhaseExecutor,
)
from repro.elastic.gate import GateConfig, GateDecision, PlanGate
from repro.elastic.plan import ReconfigPlan, ReconfigPlanner

__all__ = [
    "DriftPolicy",
    "DriftVerdict",
    "LoadDriftMonitor",
    "GateConfig",
    "GateDecision",
    "PlanGate",
    "MigrationCostConfig",
    "NetworkMigrationCost",
    "SnapshotMigrationCost",
    "MigrationFailure",
    "ReconfigError",
    "ReconfigPlan",
    "ReconfigPlanner",
    "TwoPhaseExecutor",
]
