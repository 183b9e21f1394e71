"""Failure injection for resilience testing.

Schedules node outages and daemon/monitor crashes on the engine so tests
and the fault-tolerance benchmarks can exercise the Central Monitor's
recovery paths deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.cluster.cluster import Cluster
from repro.des.engine import Engine


class _Crashable(Protocol):
    def crash(self) -> None: ...


@dataclass
class FailureLog:
    """Record of injected failures, for assertions in tests."""

    node_outages: list[tuple[float, str, float]] = field(default_factory=list)
    crashes: list[tuple[float, str]] = field(default_factory=list)


class FailureInjector:
    """Deterministic scheduler of outages and crashes."""

    def __init__(self, engine: Engine, cluster: Cluster) -> None:
        self._engine = engine
        self._cluster = cluster
        self.log = FailureLog()

    def node_down(self, node: str, at: float, duration: float | None = None) -> None:
        """Take ``node`` down at time ``at``; back up after ``duration``.

        ``duration=None`` keeps the node down for the rest of the run.
        """
        if node not in self._cluster:
            raise KeyError(f"unknown node {node!r}")
        if duration is not None and duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")

        def down() -> None:
            self._cluster.mark_down(node)
            self.log.node_outages.append((self._engine.now, node, duration or -1.0))

        self._engine.schedule_at(at, down)
        if duration is not None:
            self._engine.schedule_at(
                at + duration, lambda: self._cluster.mark_up(node)
            )

    def crash(self, target: _Crashable, at: float, label: str = "") -> None:
        """Crash any daemon/monitor at time ``at``."""

        def do() -> None:
            target.crash()
            self.log.crashes.append(
                (self._engine.now, label or getattr(target, "name", repr(target)))
            )

        self._engine.schedule_at(at, do)

    def flap_node(
        self,
        node: str,
        at: float,
        *,
        down_s: float,
        up_s: float,
        cycles: int,
    ) -> None:
        """Bounce ``node`` up/down repeatedly — the quarantine trigger.

        Each cycle takes the node down for ``down_s`` then back up for
        ``up_s``; after ``cycles`` cycles the node stays up.
        """
        if down_s <= 0 or up_s <= 0:
            raise ValueError("down_s and up_s must be positive")
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        t = at
        for _ in range(cycles):
            self.node_down(node, t, duration=down_s)
            t += down_s + up_s
