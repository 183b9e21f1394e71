"""Fleet-wide elastic optimizer — global malleability passes.

Where :mod:`repro.elastic` reacts to *one* job's load drift, this
subsystem coordinates **all** malleable jobs plus the pending queue:
speedup-curve utilities (:mod:`repro.fleet.utility`), a global
objective search over joint expand / shrink / admit action sets
(:mod:`repro.fleet.optimizer`), ordered atomic execution
(:mod:`repro.fleet.executor`), and the DES consumer
(:mod:`repro.fleet.sim`); the three-way experiment lives in
:mod:`repro.experiments.drifting`.
See docs/FLEET.md.
"""

from repro.fleet.executor import (
    FleetActionResult,
    FleetExecutor,
    FleetPassReport,
    order_plans,
)
from repro.fleet.optimizer import (
    FleetAction,
    FleetJobState,
    FleetOptimizer,
    FleetPlanResult,
    FleetWeights,
    PendingJobState,
    fleet_objective,
    jain_index,
)
from repro.fleet.utility import (
    FAMILIES,
    SpeedupCurve,
    calibrate_amdahl,
    curve_for_class,
    measured_speedup,
)

__all__ = [
    "FAMILIES",
    "FleetAction",
    "FleetActionResult",
    "FleetExecutor",
    "FleetJobState",
    "FleetOptimizer",
    "FleetPassReport",
    "FleetPlanResult",
    "FleetWeights",
    "PendingJobState",
    "SpeedupCurve",
    "calibrate_amdahl",
    "curve_for_class",
    "fleet_objective",
    "jain_index",
    "measured_speedup",
    "order_plans",
]
