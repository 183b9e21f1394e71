"""Elastic reallocation engine benchmarks (subsystem acceptance).

Two measurements, both recorded in ``BENCH_elastic.json`` at the repo
root (also via ``make bench-json``):

* **reconfigure-decision latency** — one full drift-tick decision
  (Algorithm 1/2 replanning over all three shapes + the cost/benefit
  gate) against the warmed 60-node paper cluster.  This is the work the
  broker does inline per ``reconfigure`` RPC and the DES scheduler does
  per drift trip, so it must stay cheap.  Acceptance floor:
  ≥ ``MIN_PLANS_PER_S`` decisions/second sustained.
* **static vs. elastic makespan** — the headline DES comparison (same
  drifting world, reconfiguration off vs. on).  Elastic must not lose:
  mean turnaround improvement ≥ 0 at the benchmark seed.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import merge_record, run_once, scale
from repro.broker.metrics import percentile
from repro.core.policies import AllocationRequest
from repro.core.weights import TradeOff
from repro.elastic.cost import SnapshotMigrationCost
from repro.elastic.gate import PlanGate
from repro.elastic.plan import ReconfigPlanner
from repro.experiments.drifting import ELASTIC, run_comparison
from repro.experiments.scenario import paper_scenario

#: acceptance floor, full plan+gate decisions per second (60 nodes)
MIN_PLANS_PER_S = 50.0

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_elastic.json"


def comparison_params() -> dict:
    s = scale()
    if s == "full":
        return dict(seed=3, n_nodes=16, n_jobs=8)
    if s == "smoke":
        return dict(seed=1, n_nodes=8, n_jobs=3, nodes_per_switch=4)
    return dict(seed=3, n_nodes=12, n_jobs=6)


def test_reconfigure_decision_latency(benchmark):
    """One drift-tick decision: replan all shapes, then gate the winner."""
    sc = paper_scenario(seed=7, warmup_s=1800.0)
    snapshot = sc.snapshot()
    planner = ReconfigPlanner()
    gate = PlanGate(SnapshotMigrationCost(snapshot))
    names = sorted(snapshot.nodes)[:2]
    procs = {n: 4 for n in names}
    request = AllocationRequest(
        n_processes=8, ppn=4, tradeoff=TradeOff.from_alpha(0.3)
    )
    latencies: list[float] = []

    def decide():
        import time as _t

        t0 = _t.perf_counter()
        plan = planner.propose(
            snapshot,
            lease_id="bench",
            nodes=names,
            procs=procs,
            request=request,
        )
        if plan is not None:
            gate.evaluate(plan, remaining_s=3600.0, now=0.0)
            gate.forget("bench")  # no cooldown: every round does full work
        latencies.append(_t.perf_counter() - t0)
        return plan

    benchmark(decide)
    lat = sorted(latencies)
    plans_per_s = len(lat) / sum(lat)
    payload = {
        "scale": scale(),
        "cluster_nodes": len(snapshot.nodes),
        "decisions": len(lat),
        "plans_per_s": plans_per_s,
        "decision_latency_ms": {
            "p50": percentile(lat, 0.50) * 1e3,
            "p99": percentile(lat, 0.99) * 1e3,
            "max": lat[-1] * 1e3,
        },
    }
    merge_record(RECORD_PATH, "decision", payload)
    print(f"\nreconfigure decisions: {plans_per_s:.0f}/s "
          f"(p50 {payload['decision_latency_ms']['p50']:.2f} ms, "
          f"{len(snapshot.nodes)} nodes) -> {RECORD_PATH.name}")
    assert plans_per_s >= MIN_PLANS_PER_S, (
        f"decision rate {plans_per_s:.0f}/s below floor {MIN_PLANS_PER_S}"
    )


def test_static_vs_elastic_makespan(benchmark):
    """The headline claim: elastic beats static under drifting load."""
    params = comparison_params()
    seed = params.pop("seed")

    def compare():
        return run_comparison(seed=seed, config=ELASTIC, **params)

    cmp = run_once(benchmark, compare)
    gain = cmp.gain_pct("elastic")
    makespan_gain = cmp.gain_pct("elastic", metric="makespan_s")
    payload = {
        "scale": scale(),
        "seed": seed,
        **{k: v for k, v in params.items()},
        "static_makespan_s": cmp.static.stats.makespan_s,
        "elastic_makespan_s": cmp.elastic.stats.makespan_s,
        "static_turnaround_s": cmp.static.stats.mean_turnaround_s,
        "elastic_turnaround_s": cmp.elastic.stats.mean_turnaround_s,
        "turnaround_improvement_pct": gain,
        "makespan_improvement_pct": makespan_gain,
        "reconfigs": cmp.elastic.reconfigs,
        "failed_migrations": cmp.elastic.failed_migrations,
    }
    merge_record(RECORD_PATH, "comparison", payload)
    print(f"\nstatic vs elastic (seed {seed}): turnaround "
          f"{gain:+.1f}%, makespan {makespan_gain:+.1f}%, "
          f"{cmp.elastic.reconfigs} reconfigs -> {RECORD_PATH.name}")
    assert cmp.elastic.failed_migrations == 0
    assert gain >= 0.0, (
        f"elastic lost to static by {-gain:.1f}% at seed {seed}"
    )
