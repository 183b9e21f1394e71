"""Static vs. per-job elastic vs. fleet-elastic under drifting load.

One seed builds identical simulated clusters whose background load
*drifts* (slow, large-amplitude OU excursions instead of the calibrated
Figure-1 jitter).  The same job stream runs through each scheduler
variant, every one adding one mechanism to the one before it:

* **static** — :class:`MalleableClusterScheduler` with reconfiguration
  off.  Jobs are still repriced against ground truth every tick, so
  drift genuinely hurts them; they just cannot escape it.
* **elastic** — the same scheduler with the full per-job drift → plan →
  gate → two-phase-execute loop enabled.
* **fleet** — the per-job loop *plus* the global malleability pass
  (:class:`~repro.fleet.sim.FleetScheduler`): joint expand / shrink /
  admit actions that maximize the fleet objective.

Everything else — cluster, seeds, workload trajectory, policy, job
stream — is identical, so any difference in completion times is
attributable to the added mechanism alone.  Beyond turnaround, each
variant reports measured cluster **utilization** (busy node·seconds over
nodes × makespan), the second axis the malleability literature scores
on.

Two presets name the worlds the CLI runs: :data:`ELASTIC` (static vs.
elastic on a 12-node tree, jobs spaced 600 s apart) and :data:`FLEET`
(all three variants on an 8-node tree with 240 s spacing, so arrivals
outpace departures and a queue forms — the regime where coordinated
shrink-to-admit beats any per-job reaction).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.apps.minimd import MiniMD, MiniMDConfig
from repro.cluster.topology import uniform_cluster
from repro.elastic.cost import MigrationCostConfig
from repro.elastic.drift import DriftPolicy
from repro.elastic.gate import GateConfig
from repro.elastic.sim import MalleableClusterScheduler
from repro.experiments.scenario import Scenario
from repro.fleet.optimizer import FleetWeights
from repro.fleet.sim import FleetScheduler
from repro.scheduler.queue import JobRequest, SchedulerStats
from repro.workload.generator import WorkloadConfig

#: the scheduler variants, in reporting order; each adds one mechanism
VARIANTS = ("static", "elastic", "fleet")


def drifting_workload_config(intensity: float = 1.0) -> WorkloadConfig:
    """Workload whose ambient load wanders far and slowly.

    The stock config is calibrated to the paper's Figure 1 (load spikes
    around a fairly stable mean).  For the elastic experiment we want
    the regime the engine exists for: per-node load that climbs or falls
    by several runnable processes and *stays* there for tens of minutes
    (users logging in, long analysis scripts).  The OU parameters set
    the stationary spread to ≈ ``2.3 · intensity`` load units with a
    ~30-minute correlation time, and stronger per-node busyness skew
    makes quiet escape hatches exist when a node turns hot.
    """
    if intensity <= 0:
        raise ValueError(f"intensity must be positive, got {intensity}")
    base = WorkloadConfig()
    return replace(
        base,
        ambient_load_mu=1.2 * intensity,
        ambient_load_theta=1.0 / 1800.0,
        ambient_load_sigma=0.077 * intensity,
        busyness_sigma=0.8,
    )


def drifting_world(
    scenario: str | None,
    *,
    drift_intensity: float,
    n_nodes: int,
    nodes_per_switch: int,
):
    """Cluster + workload for one variant world, optionally from a scenario.

    Returns ``(specs, topo, workload_config, spec)`` where ``spec`` is the
    resolved :class:`~repro.scenarios.registry.ScenarioSpec` (or ``None``
    for the legacy uniform tree).  A scenario contributes its topology,
    node classes, background job/flow processes and regime fields
    (diurnal, spikes); the ambient terms stay the drifting OU this
    experiment's static-vs-elastic claim depends on.
    """
    if scenario is None:
        specs, topo = uniform_cluster(
            n_nodes, nodes_per_switch=nodes_per_switch
        )
        return specs, topo, drifting_workload_config(drift_intensity), None
    from repro.scenarios import get_scenario

    spec = get_scenario(scenario)
    specs, topo = spec.build_cluster()
    base = spec.workload_config
    workload_config = replace(
        drifting_workload_config(drift_intensity),
        jobs=base.jobs,
        netflows=base.netflows,
        diurnal=base.diurnal,
        spikes=base.spikes,
    )
    return specs, topo, workload_config, spec


def submit_offsets(spec, n_jobs: int, interarrival_s: float, streams):
    """Per-job submit offsets: fixed spacing, or the scenario's arrivals."""
    if spec is None:
        return tuple(i * interarrival_s for i in range(n_jobs))
    return spec.arrival_offsets(n_jobs, streams.child("arrivals"))


@dataclass(frozen=True)
class DriftingConfig:
    """Everything one drifting-load comparison run depends on."""

    #: which variants run: ``("static", "elastic")`` or all of
    #: :data:`VARIANTS` (a comparison always has the two baselines)
    variants: tuple[str, ...] = VARIANTS
    #: registered scenario providing cluster + regime (None = the legacy
    #: uniform tree); the drifting ambient load is kept either way
    scenario: str | None = None
    n_nodes: int = 8
    nodes_per_switch: int = 4
    n_jobs: int = 6
    n_processes: int = 8
    ppn: int = 4
    #: miniMD problem size / length (sets job duration; the defaults
    #: price to ~30 idle minutes — long enough to live through drift)
    app_s: int = 64
    app_timesteps: int = 12000
    interarrival_s: float = 240.0
    warmup_s: float = 1800.0
    reprice_period_s: float = 30.0
    drift_intensity: float = 1.0
    migration_failure_rate: float = 0.0
    #: seed for the fleet variant's per-job-class speedup curves
    utility_seed: int = 0
    max_expand_factor: float = 2.0
    drift_policy: DriftPolicy = field(default_factory=DriftPolicy)
    gate_config: GateConfig = field(default_factory=GateConfig)
    cost_config: MigrationCostConfig = field(
        default_factory=MigrationCostConfig
    )
    fleet_weights: FleetWeights = field(default_factory=FleetWeights)

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or self.n_jobs < 1:
            raise ValueError("need at least 2 nodes and 1 job")
        if self.variants not in (VARIANTS[:2], VARIANTS):
            raise ValueError(
                f"variants must be {VARIANTS[:2]} or {VARIANTS}, "
                f"got {self.variants!r}"
            )


#: ``repro elastic``: static vs. elastic, 12 nodes, jobs 600 s apart
ELASTIC = DriftingConfig(
    variants=VARIANTS[:2], n_nodes=12, interarrival_s=600.0
)
#: ``repro fleet``: all three variants, 8 nodes, jobs 240 s apart — short
#: against ~30-minute jobs on 2 nodes each, so a queue forms
FLEET = DriftingConfig()


@dataclass(frozen=True)
class VariantResult:
    """One scheduler variant's outcome on the drifting world."""

    variant: str
    stats: SchedulerStats
    reconfigs: int
    failed_migrations: int
    #: busy node·seconds over nodes × makespan, in [0, 1]
    utilization: float
    fleet_passes: int = 0
    fleet_actions: int = 0
    reconfig_events: tuple = ()

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_jobs": self.stats.n_jobs,
            "makespan_s": self.stats.makespan_s,
            "mean_wait_s": self.stats.mean_wait_s,
            "mean_turnaround_s": self.stats.mean_turnaround_s,
            "mean_execution_s": self.stats.mean_execution_s,
            "utilization": self.utilization,
            "reconfigs": self.reconfigs,
            "failed_migrations": self.failed_migrations,
            "fleet_passes": self.fleet_passes,
            "fleet_actions": self.fleet_actions,
        }


@dataclass(frozen=True)
class DriftingComparison:
    """Every configured variant, one seed, one drifting world."""

    seed: int
    static: VariantResult
    elastic: VariantResult
    fleet: VariantResult | None = None

    @property
    def results(self) -> tuple[VariantResult, ...]:
        """The variants that ran, in :data:`VARIANTS` order."""
        return tuple(
            r for r in (self.static, self.elastic, self.fleet)
            if r is not None
        )

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """``(variant, earlier variant)`` for every pair that ran."""
        names = [r.variant for r in self.results]
        return [(name, base) for i, name in enumerate(names)
                for base in names[:i]]

    def gain_pct(
        self,
        variant: str,
        over: str = "static",
        metric: str = "mean_turnaround_s",
    ) -> float:
        """How much ``variant`` beats ``over`` on ``metric``, in percent.

        ``metric`` names a :class:`SchedulerStats` time (lower is
        better), so a positive value means ``variant`` wins.
        """
        base = getattr(getattr(self, over).stats, metric)
        if base <= 0:
            return 0.0
        other = getattr(getattr(self, variant).stats, metric)
        return (base - other) / base * 100.0

    @property
    def fleet_utilization_delta(self) -> float:
        """Utilization points the fleet pass adds over per-job elastic."""
        assert self.fleet is not None
        return self.fleet.utilization - self.elastic.utilization

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"seed": self.seed}
        out.update((r.variant, r.to_dict()) for r in self.results)
        # the elastic-vs-static headline, turnaround and makespan
        out["turnaround_improvement_pct"] = self.gain_pct("elastic")
        out["makespan_improvement_pct"] = self.gain_pct(
            "elastic", metric="makespan_s"
        )
        for name, base in self.pairs:
            out[f"{name}_vs_{base}_pct"] = self.gain_pct(name, base)
        if self.fleet is not None:
            out["fleet_utilization_delta"] = self.fleet_utilization_delta
        return out


def run_variant(
    variant: str, *, seed: int, config: DriftingConfig
) -> VariantResult:
    """One scheduler variant on a freshly built drifting-load world."""
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    cfg = config
    specs, topo, workload_config, spec = drifting_world(
        cfg.scenario,
        drift_intensity=cfg.drift_intensity,
        n_nodes=cfg.n_nodes,
        nodes_per_switch=cfg.nodes_per_switch,
    )
    sc = Scenario.build(
        specs, topo, seed=seed, workload_config=workload_config
    )
    sc.warm_up(cfg.warmup_s)
    fleet = variant == "fleet"
    extra: dict[str, Any] = (
        dict(
            fleet_weights=cfg.fleet_weights,
            fleet_rng=sc.streams.child("fleet"),
            utility_seed=cfg.utility_seed,
            max_expand_factor=cfg.max_expand_factor,
        )
        if fleet
        else dict(reconfigure=variant == "elastic")
    )
    scheduler = (FleetScheduler if fleet else MalleableClusterScheduler)(
        sc.engine,
        sc.workload,
        sc.network,
        sc.snapshot,
        rng=sc.streams.child("scheduler"),
        reprice_period_s=cfg.reprice_period_s,
        drift_policy=cfg.drift_policy,
        gate_config=cfg.gate_config,
        cost_config=cfg.cost_config,
        migration_failure_rate=(
            cfg.migration_failure_rate if variant != "static" else 0.0
        ),
        failure_rng=sc.streams.child("migration-failures"),
        **extra,
    )
    app = MiniMD(cfg.app_s, MiniMDConfig(timesteps=cfg.app_timesteps))
    t0 = sc.engine.now
    for offset in submit_offsets(
        spec, cfg.n_jobs, cfg.interarrival_s, sc.streams
    ):
        scheduler.submit(
            JobRequest(
                app=app,
                n_processes=cfg.n_processes,
                ppn=cfg.ppn,
                submit_time=t0 + offset,
            )
        )
    stats = scheduler.drain()
    scheduler.stop()
    # Utilization is against the *actual* node count — scenarios can
    # build clusters of any size, so cfg.n_nodes is only the legacy
    # world's parameter.
    busy_share = 0.0
    if stats.makespan_s > 0:
        busy_share = scheduler.busy_node_seconds / (
            len(sc.cluster.names) * stats.makespan_s
        )
    passes = actions = 0
    if isinstance(scheduler, FleetScheduler):
        passes = scheduler.fleet_pass_count
        actions = scheduler.fleet_actions_applied
    return VariantResult(
        variant=variant,
        stats=stats,
        reconfigs=scheduler.reconfig_count,
        failed_migrations=scheduler.failed_migrations,
        utilization=min(busy_share, 1.0),
        fleet_passes=passes,
        fleet_actions=actions,
        reconfig_events=tuple(scheduler.reconfig_events),
    )


def run_comparison(
    *,
    seed: int = 0,
    config: DriftingConfig = FLEET,
    **overrides: Any,
) -> DriftingComparison:
    """Every configured variant on the same drifting world.

    ``overrides`` are field overrides for ``config`` (convenience for
    the CLI / benchmarks); an unknown name raises ``TypeError``.
    """
    cfg = replace(config, **overrides) if overrides else config
    results = {
        variant: run_variant(variant, seed=seed, config=cfg)
        for variant in cfg.variants
    }
    return DriftingComparison(seed=seed, **results)
