"""The three-way fleet experiment, end to end at toy scale.

The full acceptance run (seed 2, default config) lives in
benchmarks/bench_fleet.py and the CI fleet-smoke job; here a shrunken
world checks the harness itself: determinism, result plumbing, and the
never-worse ordering of the three variants.
"""

from __future__ import annotations

import pytest

from repro.experiments.drifting import (
    FLEET,
    DriftingConfig,
    run_comparison,
)

#: small enough for test time, oversubscribed enough to queue jobs
TINY = dict(n_jobs=3, warmup_s=600.0, app_timesteps=6000)


@pytest.fixture(scope="module")
def cmp():
    return run_comparison(seed=2, config=FLEET, **TINY)


class TestComparison:
    def test_three_variants_ran_every_job(self, cmp):
        for variant in (cmp.static, cmp.elastic, cmp.fleet):
            assert variant.stats.n_jobs == 3
            assert variant.stats.makespan_s > 0
            assert 0.0 <= variant.utilization <= 1.0

    def test_never_worse_ordering(self, cmp):
        assert cmp.gain_pct("elastic") >= 0.0
        assert cmp.gain_pct("fleet") >= 0.0
        assert cmp.gain_pct("fleet", over="elastic") >= 0.0
        assert cmp.fleet_utilization_delta >= 0.0
        assert cmp.fleet.failed_migrations == 0

    def test_fleet_variant_ran_passes(self, cmp):
        assert cmp.fleet.fleet_passes > 0
        assert cmp.static.fleet_passes == 0
        assert cmp.elastic.fleet_passes == 0

    def test_to_dict_round_trips_the_headlines(self, cmp):
        d = cmp.to_dict()
        assert d["seed"] == 2
        assert set(d) >= {"static", "elastic", "fleet",
                          "elastic_vs_static_pct", "fleet_vs_static_pct",
                          "fleet_vs_elastic_pct", "fleet_utilization_delta"}
        assert d["fleet"]["variant"] == "fleet"
        assert d["fleet"]["fleet_passes"] == cmp.fleet.fleet_passes

    def test_deterministic_replay(self, cmp):
        again = run_comparison(seed=2, config=FLEET, **TINY)
        assert again.to_dict() == cmp.to_dict()


class TestConfig:
    def test_rejects_degenerate_worlds(self):
        with pytest.raises(ValueError):
            DriftingConfig(n_nodes=1)
        with pytest.raises(ValueError):
            DriftingConfig(n_jobs=0)

    def test_overrides_reach_the_config(self):
        # unknown override names must fail loudly, not silently no-op
        with pytest.raises(TypeError):
            run_comparison(seed=0, config=FLEET, no_such_knob=1)
