"""Fleet-wide elastic optimizer benchmarks (subsystem acceptance).

Three measurements, all recorded in ``BENCH_fleet.json`` at the repo
root (also via ``make bench-json``):

* **fleet-pass rate** — one full broker-side ``fleet_plan`` dry-run
  pass (snapshot, per-lease replanning, gating, ordering) against the
  warmed 60-node paper cluster with active leases.  This is what a
  control loop pays per pass, so it must stay interactive.  Acceptance
  floor: ≥ ``MIN_PASSES_PER_S`` passes/second sustained.
* **optimizer objective invariant** — the greedy + swap-refinement pass
  over randomized fleet snapshots must never decrease the fleet
  objective ("never worse than per-job-elastic by construction").
* **three-way comparison** — the headline DES claim: fleet-elastic
  beats (or ties) per-job elastic, and both beat static, on turnaround
  and utilization at the benchmark seed.
"""

from __future__ import annotations

import random
from pathlib import Path

from benchmarks.conftest import merge_record, run_once, scale
from repro.broker.metrics import percentile
from repro.broker.protocol import AllocateParams, FleetPlanParams
from repro.broker.service import BrokerService
from repro.experiments.drifting import FLEET, run_comparison
from repro.experiments.scenario import paper_scenario
from repro.fleet.optimizer import (
    FleetJobState,
    FleetOptimizer,
    PendingJobState,
)
from repro.fleet.utility import curve_for_class
from repro.monitor.snapshot import CachedSnapshotSource

#: acceptance floor, full dry-run fleet passes per second (60 nodes)
MIN_PASSES_PER_S = 20.0

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def comparison_params() -> dict:
    s = scale()
    if s == "full":
        return dict(seed=2, warmup_s=900.0)
    if s == "smoke":
        return dict(seed=2, n_jobs=4, warmup_s=600.0, app_timesteps=8000)
    return dict(seed=2, warmup_s=900.0)


def test_fleet_pass_rate(benchmark):
    """One dry-run fleet pass over the paper cluster with 8 live jobs."""
    sc = paper_scenario(seed=7, warmup_s=1800.0)
    source = CachedSnapshotSource(
        sc.snapshot, max_age_s=5.0, clock=lambda: sc.engine.now
    )
    service = BrokerService(
        source, clock=lambda: sc.engine.now, default_ttl_s=3600.0
    )
    for _ in range(8):
        out = service.allocate_batch(
            [AllocateParams(n_processes=8, ppn=4, alpha=0.3, ttl_s=3600.0)]
        )[0]
        assert isinstance(out, dict), f"setup allocate failed: {out}"
    params = FleetPlanParams(dry_run=True, max_actions=8)
    # Steady-state rate is the claim: the first pass pays the one-time
    # snapshot + load-state builds every later pass reuses (production
    # brokers run passes against the same cached snapshot identity).
    for _ in range(2):
        service.fleet_plan(params)
    latencies: list[float] = []

    def one_pass():
        import time as _t

        t0 = _t.perf_counter()
        result = service.fleet_plan(params)
        latencies.append(_t.perf_counter() - t0)
        return result

    result = benchmark(one_pass)
    assert result["considered"] == 8
    assert result["applied"] == 0  # dry run must not move anything
    lat = sorted(latencies)
    passes_per_s = len(lat) / sum(lat)
    snapshot = source()
    payload = {
        "scale": scale(),
        "cluster_nodes": len(snapshot.nodes),
        "leases": 8,
        "passes": len(lat),
        "passes_per_s": passes_per_s,
        "pass_latency_ms": {
            "p50": percentile(lat, 0.50) * 1e3,
            "p99": percentile(lat, 0.99) * 1e3,
            "max": lat[-1] * 1e3,
        },
    }
    merge_record(RECORD_PATH, "pass_rate", payload)
    print(f"\nfleet passes: {passes_per_s:.0f}/s "
          f"(p50 {payload['pass_latency_ms']['p50']:.2f} ms, "
          f"{len(snapshot.nodes)} nodes, 8 leases) -> {RECORD_PATH.name}")
    assert passes_per_s >= MIN_PASSES_PER_S, (
        f"pass rate {passes_per_s:.0f}/s below floor {MIN_PASSES_PER_S}"
    )


def test_optimizer_never_degrades_objective(benchmark):
    """Greedy + swap refinement: objective after ≥ objective before."""
    n_snapshots = 20 if scale() == "smoke" else 100
    optimizer = FleetOptimizer()

    def build(seed: int) -> tuple[list, list, int]:
        rng = random.Random(seed)
        capacity = rng.choice((32, 64, 128))
        jobs = [
            FleetJobState(
                job_id=f"j{i}",
                ranks=rng.choice((2, 4, 8)),
                curve=curve_for_class(f"class-{rng.randrange(6)}"),
                min_ranks=1,
                max_ranks=rng.choice((8, 16, None)),
                weight=rng.choice((0.5, 1.0, 2.0)),
            )
            for i in range(rng.randrange(1, 9))
        ]
        pending = [
            PendingJobState(
                job_id=f"p{i}",
                ranks=rng.choice((2, 4, 8)),
                curve=curve_for_class(f"class-{rng.randrange(6)}"),
                wait_s=60.0 * i,
            )
            for i in range(rng.randrange(0, 4))
        ]
        return jobs, pending, capacity

    worst_gain = float("inf")
    total_actions = 0

    def sweep():
        nonlocal worst_gain, total_actions
        worst_gain = float("inf")
        total_actions = 0
        for seed in range(n_snapshots):
            jobs, pending, capacity = build(seed)
            result = optimizer.optimize(jobs, pending, capacity)
            worst_gain = min(worst_gain, result.objective_gain)
            total_actions += len(result.actions)
        return worst_gain

    run_once(benchmark, sweep)
    payload = {
        "scale": scale(),
        "snapshots": n_snapshots,
        "total_actions": total_actions,
        "worst_objective_gain": worst_gain,
    }
    merge_record(RECORD_PATH, "optimizer_invariant", payload)
    print(f"\noptimizer invariant: worst gain {worst_gain:+.6f} over "
          f"{n_snapshots} snapshots ({total_actions} actions) "
          f"-> {RECORD_PATH.name}")
    assert worst_gain >= 0.0, (
        f"a fleet pass degraded the objective by {worst_gain:+.6f}"
    )


def test_fleet_three_way_comparison(benchmark):
    """Fleet ≥ elastic ≥ static on turnaround; fleet util ≥ elastic."""
    params = comparison_params()
    seed = params.pop("seed")

    def compare():
        return run_comparison(seed=seed, config=FLEET, **params)

    cmp = run_once(benchmark, compare)
    e_vs_s = cmp.gain_pct("elastic")
    f_vs_s = cmp.gain_pct("fleet")
    f_vs_e = cmp.gain_pct("fleet", over="elastic")
    util_delta = cmp.fleet_utilization_delta
    payload = {
        "scale": scale(),
        "seed": seed,
        **{k: v for k, v in params.items()},
        "static_turnaround_s": cmp.static.stats.mean_turnaround_s,
        "elastic_turnaround_s": cmp.elastic.stats.mean_turnaround_s,
        "fleet_turnaround_s": cmp.fleet.stats.mean_turnaround_s,
        "elastic_vs_static_pct": e_vs_s,
        "fleet_vs_static_pct": f_vs_s,
        "fleet_vs_elastic_pct": f_vs_e,
        "fleet_utilization_delta": util_delta,
        "fleet_passes": cmp.fleet.fleet_passes,
        "fleet_actions": cmp.fleet.fleet_actions,
    }
    merge_record(RECORD_PATH, "comparison", payload)
    print(f"\nfleet comparison (seed {seed}): fleet vs elastic "
          f"{f_vs_e:+.1f}%, vs static {f_vs_s:+.1f}%, utilization "
          f"{util_delta:+.3f} -> {RECORD_PATH.name}")
    assert cmp.fleet.failed_migrations == 0
    assert e_vs_s > 0.0
    assert f_vs_s > 0.0
    # ties are exact 0.0 when no fleet action commits; never worse
    assert f_vs_e >= 0.0, (
        f"fleet lost to per-job elastic by {-f_vs_e:.2f}% at seed {seed}"
    )
    assert util_delta >= 0.0
