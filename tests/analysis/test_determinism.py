"""DET rules: ambient clocks and seedless RNGs in replayable code."""

from __future__ import annotations

from tests.analysis.conftest import rules_of


class TestClockRules:
    def test_time_time_call_in_des_flagged(self, lint):
        findings = lint({
            "src/repro/des/engine.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert rules_of(findings) == ["DET001"]
        assert "time.time" in findings[0].message
        assert findings[0].context == "stamp"

    def test_clock_reference_is_injection_not_violation(self, lint):
        # `clock: Callable = time.monotonic` is exactly how clocks get
        # injected — only *calls* are ambient reads.
        findings = lint({
            "src/repro/scheduler/leases.py": """
                import time

                def make_table(clock=time.monotonic):
                    return clock
            """,
        })
        assert findings == []

    def test_import_alias_resolved(self, lint):
        findings = lint({
            "src/repro/chaos/faults.py": """
                import time as _t

                def now():
                    return _t.monotonic()
            """,
        })
        assert rules_of(findings) == ["DET001"]

    def test_from_import_resolved(self, lint):
        findings = lint({
            "src/repro/simmpi/job.py": """
                from time import perf_counter

                def tick():
                    return perf_counter()
            """,
        })
        assert rules_of(findings) == ["DET001"]

    def test_clock_call_outside_replayable_packages_allowed(self, lint):
        # The broker serves real clients and may time real requests.
        findings = lint({
            "src/repro/broker/timing.py": """
                import time

                def wall():
                    return time.time()
            """,
        })
        assert findings == []

    def test_drifting_experiment_and_fleet_are_replayable(self, lint):
        # Both run on the DES clock and must replay from a seed.
        findings = lint({
            "src/repro/experiments/drifting.py": """
                import time

                def wall():
                    return time.time()
            """,
            "src/repro/fleet/sim.py": """
                import random

                JITTER = random.random()
            """,
        })
        assert sorted(rules_of(findings)) == ["DET001", "DET004"]

    def test_datetime_now_flagged(self, lint):
        findings = lint({
            "src/repro/elastic/logbook.py": """
                from datetime import datetime

                def stamp():
                    return datetime.now()
            """,
        })
        assert rules_of(findings) == ["DET002"]

    def test_pragma_with_rationale_suppresses(self, lint):
        findings = lint({
            "src/repro/des/engine.py": """
                import time

                def stamp():
                    return time.time()  # lint: allow(DET001) — report header stamps real walltime
            """,
        })
        assert findings == []

    def test_pragma_without_rationale_does_not_suppress(self, lint):
        findings = lint({
            "src/repro/des/engine.py": """
                import time

                def stamp():
                    return time.time()  # lint: allow(DET001)
            """,
        })
        assert rules_of(findings) == ["DET001"]


class TestSeedlessRng:
    def test_prefix_broker_client_pattern_flagged(self, lint):
        # The literal pre-fix pattern from broker/client.py: retry jitter
        # drawn from an unseeded generator never replays.
        findings = lint({
            "src/repro/broker/client.py": """
                import random

                class BrokerClient:
                    def __init__(self, rng=None):
                        self._rng = rng if rng is not None else random.Random()
            """,
        })
        assert rules_of(findings) == ["DET003"]
        assert "random.Random" in findings[0].message
        assert findings[0].context == "BrokerClient.__init__"

    def test_seeded_random_ok(self, lint):
        findings = lint({
            "src/repro/broker/client.py": """
                import random

                def make(seed):
                    return random.Random(seed)
            """,
        })
        assert findings == []

    def test_seedless_default_rng_flagged_even_outside_replayable(self, lint):
        # DET003 is package-wide: hidden entropy is a bug anywhere.
        findings = lint({
            "src/repro/experiments/sampling.py": """
                import numpy

                def make():
                    return numpy.random.default_rng()
            """,
        })
        assert rules_of(findings) == ["DET003"]

    def test_default_rng_with_seed_kwarg_ok(self, lint):
        findings = lint({
            "src/repro/experiments/sampling.py": """
                import numpy

                def make(s):
                    return numpy.random.default_rng(seed=s)
            """,
        })
        assert findings == []


class TestModuleLevelRandom:
    def test_module_random_draw_in_chaos_flagged(self, lint):
        findings = lint({
            "src/repro/chaos/faults.py": """
                import random

                def pick(items):
                    return random.choice(items)
            """,
        })
        assert rules_of(findings) == ["DET004"]

    def test_random_seed_global_mutation_flagged(self, lint):
        findings = lint({
            "src/repro/chaos/faults.py": """
                import random

                def reset(s):
                    random.seed(s)
            """,
        })
        assert rules_of(findings) == ["DET004"]

    def test_instance_draws_ok(self, lint):
        findings = lint({
            "src/repro/chaos/faults.py": """
                import random

                def pick(items, seed):
                    rng = random.Random(seed)
                    return rng.choice(items)
            """,
        })
        assert findings == []
