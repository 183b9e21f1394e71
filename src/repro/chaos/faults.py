"""FaultPlan / FaultInjector — seed-driven scheduling of every fault kind.

One object schedules faults across all three seams the stack exposes:

* **store** faults (corrupt / freeze / skew / poison) through a
  :class:`~repro.chaos.store.ChaoticStore`, armed and disarmed at exact
  simulation times;
* **daemon** faults (crash) and **node** faults (outage, flap)
  through the existing :class:`~repro.monitor.failures.FailureInjector`;
* a :class:`FaultPlan` records everything injected, so a scenario report
  can print *what* chaos ran alongside *what* invariants held — and so a
  given ``(seed, plan)`` pair replays identically forever.

All timing uses the DES engine clock; nothing here reads wall time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chaos.store import ChaoticStore, Mutator
from repro.experiments.scenario import Scenario
from repro.monitor.failures import FailureInjector


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, for the audit trail."""

    at: float
    kind: str
    target: str
    duration_s: float | None = None


@dataclass
class FaultPlan:
    """The audit trail of everything a scenario injected."""

    seed: int
    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self,
        at: float,
        kind: str,
        target: str,
        duration_s: float | None = None,
    ) -> None:
        self.events.append(FaultEvent(at, kind, target, duration_s))

    def describe(self) -> list[str]:
        return [
            f"t={e.at:.0f}s {e.kind}({e.target})"
            + (f" for {e.duration_s:.0f}s" if e.duration_s is not None else "")
            for e in self.events
        ]


class FaultInjector:
    """Schedules faults against one scenario, deterministically.

    ``seed`` drives only *which* targets random helpers pick
    (:meth:`pick_nodes`); *when* faults fire is always explicit, so a
    scenario is reproducible from its seed alone.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        store: ChaoticStore | None = None,
        seed: int = 0,
    ) -> None:
        self.scenario = scenario
        self.store = store
        self.rng = random.Random(seed)
        self.plan = FaultPlan(seed)
        self.daemons = FailureInjector(scenario.engine, scenario.cluster)

    # -- helpers --------------------------------------------------------
    def pick_nodes(self, k: int) -> list[str]:
        """``k`` distinct node names, chosen by this injector's seed."""
        names = list(self.scenario.cluster.names)
        if k > len(names):
            raise ValueError(f"cannot pick {k} of {len(names)} nodes")
        return self.rng.sample(names, k)

    def _require_store(self) -> ChaoticStore:
        if self.store is None:
            raise RuntimeError(
                "this injector was built without a ChaoticStore; "
                "store faults are unavailable"
            )
        return self.store

    def _arm(
        self,
        kind: str,
        pattern: str,
        at: float,
        duration_s: float | None,
        arm,
    ) -> None:
        """Schedule ``arm()`` at ``at`` and auto-heal after ``duration_s``."""
        store = self._require_store()
        engine = self.scenario.engine

        def start() -> None:
            rule = arm()
            if duration_s is not None:
                engine.schedule_at(
                    engine.now + duration_s, lambda: store.remove(rule)
                )

        engine.schedule_at(at, start)
        self.plan.record(at, kind, pattern, duration_s)

    # -- store faults ---------------------------------------------------
    def corrupt_keys(
        self, pattern: str, at: float, duration_s: float | None = None
    ) -> None:
        store = self._require_store()
        self._arm(
            "corrupt", pattern, at, duration_s, lambda: store.corrupt(pattern)
        )

    def freeze_keys(
        self, pattern: str, at: float, duration_s: float | None = None
    ) -> None:
        store = self._require_store()
        self._arm(
            "freeze", pattern, at, duration_s, lambda: store.freeze(pattern)
        )

    def skew_keys(
        self,
        pattern: str,
        skew_s: float,
        at: float,
        duration_s: float | None = None,
    ) -> None:
        store = self._require_store()
        self._arm(
            f"skew{skew_s:+.0f}s",
            pattern,
            at,
            duration_s,
            lambda: store.skew(pattern, skew_s),
        )

    def poison_keys(
        self,
        pattern: str,
        mutate: Mutator,
        at: float,
        duration_s: float | None = None,
    ) -> None:
        store = self._require_store()
        name = getattr(mutate, "__name__", "mutator")
        self._arm(
            f"poison:{name}",
            pattern,
            at,
            duration_s,
            lambda: store.poison(pattern, mutate),
        )

    # -- daemon faults --------------------------------------------------
    def crash_daemon(self, target, at: float, label: str = "") -> None:
        self.daemons.crash(target, at, label)
        self.plan.record(at, "crash", label or repr(target))

    # -- node faults ----------------------------------------------------
    def node_down(
        self, node: str, at: float, duration_s: float | None = None
    ) -> None:
        self.daemons.node_down(node, at, duration=duration_s)
        self.plan.record(at, "node_down", node, duration_s)

    def flap_node(
        self,
        node: str,
        at: float,
        *,
        down_s: float,
        up_s: float,
        cycles: int,
    ) -> None:
        self.daemons.flap_node(
            node, at, down_s=down_s, up_s=up_s, cycles=cycles
        )
        self.plan.record(
            at, f"flap×{cycles}", node, cycles * (down_s + up_s)
        )
