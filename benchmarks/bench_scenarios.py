"""Scenario-zoo benchmarks (matrix acceptance).

Two measurements per registered scenario, recorded in
``BENCH_scenarios.json`` at the repo root (also via ``make bench-json``):

* **Eq-4 quality** — every policy allocates from the same snapshot and
  is scored with the shared-normalisation Equation-4 metric
  (:mod:`repro.scenarios.quality`).  Acceptance floor: the
  network-load-aware allocator never scores worse than the random or
  sequential baselines, on any scenario in the matrix.
* **decision latency** — wall time of one warm network-load-aware
  allocation on the scenario's cluster.  Acceptance floor: p99 below
  ``MAX_DECISION_MS`` everywhere — exotic topologies (BFS routing,
  redundant links) must not blow up the allocate hot path.

``REPRO_SMOKE=1`` sweeps the smoke cells only; default and
``REPRO_FULL=1`` sweep the whole registry.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import merge_record, run_once, scale
from repro.broker.metrics import percentile
from repro.core.policies import PAPER_POLICIES
from repro.scenarios import get_scenario, list_scenarios
from repro.scenarios.quality import policy_quality

#: network_load_aware's mean Eq-4 score may not exceed either baseline's
#: (ratio vs baseline must stay ≤ 1.0 on every scenario)
MAX_QUALITY_RATIO = 1.0

#: p99 of one warm network-load-aware allocation, milliseconds
MAX_DECISION_MS = 50.0

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"


def matrix() -> list[str]:
    return list_scenarios(smoke_only=scale() == "smoke")


def test_scenario_quality_matrix(benchmark):
    """Eq-4 allocate-vs-baselines quality on every scenario."""
    names = matrix()

    def sweep():
        return {
            name: policy_quality(name, seed=0, rounds=3, warmup_s=300.0)
            for name in names
        }

    results = run_once(benchmark, sweep)
    payload = {"scale": scale(), "scenarios": {}}
    worst = ("", 0.0)
    for name, q in results.items():
        nla = q["network_load_aware"]
        ratios = {
            b: (nla / q[b] if q[b] > 0 else 1.0)
            for b in ("random", "sequential")
        }
        payload["scenarios"][name] = {
            "eq4_scores": q,
            "ratio_vs_random": ratios["random"],
            "ratio_vs_sequential": ratios["sequential"],
        }
        peak = max(ratios.values())
        if peak > worst[1]:
            worst = (name, peak)
    payload["worst_ratio"] = {"scenario": worst[0], "ratio": worst[1]}
    merge_record(RECORD_PATH, "quality", payload)
    print(f"\nscenario quality: worst allocate/baseline Eq-4 ratio "
          f"{worst[1]:.3f} on {worst[0]!r} over {len(names)} scenario(s) "
          f"-> {RECORD_PATH.name}")
    for name, cell in payload["scenarios"].items():
        assert cell["ratio_vs_random"] <= MAX_QUALITY_RATIO, (
            f"{name}: network_load_aware lost to random "
            f"({cell['ratio_vs_random']:.3f}x)"
        )
        assert cell["ratio_vs_sequential"] <= MAX_QUALITY_RATIO, (
            f"{name}: network_load_aware lost to sequential "
            f"({cell['ratio_vs_sequential']:.3f}x)"
        )


def test_scenario_decision_latency(benchmark):
    """Warm network-load-aware allocate latency on every scenario."""
    names = matrix()
    repeats = 20 if scale() == "smoke" else 50

    def sweep():
        out = {}
        for name in names:
            spec = get_scenario(name)
            sc = spec.build(seed=0, warmup_s=300.0)
            rng = sc.streams.child("bench")
            request = spec.request(8, ppn=4)
            snapshot = sc.snapshot()
            policy = PAPER_POLICIES["network_load_aware"]()
            policy.allocate(snapshot, request, rng=rng)  # warm caches
            lat = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                policy.allocate(snapshot, request, rng=rng)
                lat.append(time.perf_counter() - t0)
            out[name] = {
                "nodes": len(snapshot.nodes),
                "p50_ms": percentile(lat, 0.50) * 1e3,
                "p99_ms": percentile(lat, 0.99) * 1e3,
                "mean_ms": float(np.mean(lat)) * 1e3,
            }
        return out

    results = run_once(benchmark, sweep)
    worst = max(results.items(), key=lambda kv: kv[1]["p99_ms"])
    payload = {
        "scale": scale(),
        "repeats": repeats,
        "scenarios": results,
        "worst_p99_ms": {
            "scenario": worst[0], "p99_ms": worst[1]["p99_ms"],
        },
    }
    merge_record(RECORD_PATH, "decision_latency", payload)
    print(f"\nscenario decision latency: worst p99 "
          f"{worst[1]['p99_ms']:.2f} ms on {worst[0]!r} "
          f"({worst[1]['nodes']} nodes) -> {RECORD_PATH.name}")
    for name, cell in results.items():
        assert cell["p99_ms"] <= MAX_DECISION_MS, (
            f"{name}: allocate p99 {cell['p99_ms']:.2f} ms over floor "
            f"{MAX_DECISION_MS} ms"
        )
