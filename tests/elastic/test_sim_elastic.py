"""DES integration — the elastic engine's headline and failure claims.

Two acceptance criteria from the subsystem issue live here:

* on a drifting-load scenario, the elastic variant beats the static one
  on mean job completion time (same seed, same world, same repricing);
* with migration failures injected, every accepted-then-failed plan
  leaves the lease table consistent and all jobs still complete.

The configs are scaled down (8 nodes, 3 jobs) so the whole module runs
in seconds; the full-size comparison is ``python -m repro elastic`` /
``benchmarks/bench_elastic.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.drifting import ELASTIC, run_comparison, run_variant

SMALL = replace(
    ELASTIC,
    n_nodes=8,
    nodes_per_switch=4,
    n_jobs=3,
    n_processes=8,
    ppn=4,
    interarrival_s=600.0,
    warmup_s=1800.0,
)


@pytest.fixture(scope="module")
def comparison():
    return run_comparison(seed=1, config=SMALL)


class TestElasticBeatsStatic:
    def test_turnaround_improves(self, comparison):
        static = comparison.static.stats.mean_turnaround_s
        elastic = comparison.elastic.stats.mean_turnaround_s
        assert elastic < static, (
            f"elastic {elastic:.0f}s should beat static {static:.0f}s"
        )
        assert comparison.gain_pct("elastic") > 0

    def test_elastic_actually_reconfigured(self, comparison):
        assert comparison.elastic.reconfigs >= 1
        assert comparison.static.reconfigs == 0
        assert comparison.elastic.failed_migrations == 0

    def test_all_jobs_complete_in_both_variants(self, comparison):
        for variant in (comparison.static, comparison.elastic):
            assert variant.stats.n_jobs == SMALL.n_jobs
            assert variant.stats.makespan_s > 0

    def test_events_record_committed_plans(self, comparison):
        events = comparison.elastic.reconfig_events
        committed = [e for e in events if e["outcome"] == "committed"]
        assert len(committed) == comparison.elastic.reconfigs
        for ev in committed:
            assert ev["predicted_gain"] > 0
            assert set(ev["from"]) != set(ev["to"]) or ev["kind"] == "rebalance"

    def test_to_dict_roundtrip(self, comparison):
        d = comparison.to_dict()
        assert d["seed"] == 1
        assert d["static"]["variant"] == "static"
        assert d["elastic"]["reconfigs"] == comparison.elastic.reconfigs
        assert "turnaround_improvement_pct" in d


class TestDeterminism:
    def test_same_seed_same_outcome(self, comparison):
        again = run_comparison(seed=1, config=SMALL)
        assert again.elastic.stats.mean_turnaround_s == pytest.approx(
            comparison.elastic.stats.mean_turnaround_s
        )
        assert again.elastic.reconfigs == comparison.elastic.reconfigs
        assert tuple(again.elastic.reconfig_events) == tuple(
            comparison.elastic.reconfig_events
        )


class TestInjectedMigrationFailures:
    def test_failures_leave_jobs_and_leases_consistent(self):
        """Every accepted migration dies mid-flight; nothing corrupts."""
        import dataclasses

        cfg = dataclasses.replace(SMALL, migration_failure_rate=1.0)
        result = run_variant("elastic", seed=1, config=cfg)
        # plans were accepted and every one of them failed...
        assert result.failed_migrations >= 1
        assert result.reconfigs == 0
        failed = [
            e for e in result.reconfig_events if e["outcome"] == "failed"
        ]
        assert len(failed) == result.failed_migrations
        assert all(e["error"] == "RECONFIG_FAILED" for e in failed)
        # ...yet every job still completed on its original placement
        assert result.stats.n_jobs == SMALL.n_jobs
        assert result.stats.makespan_s > 0

    def test_partial_failure_rate_still_completes(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, migration_failure_rate=0.5)
        result = run_variant("elastic", seed=1, config=cfg)
        assert result.stats.n_jobs == SMALL.n_jobs
        assert result.reconfigs + result.failed_migrations >= 1
