"""Tiny-scale self-test of the benchmark itself.

Runs every workload, untraced and traced, on a small fleet for a second
or two, and checks that every metric ``BENCHMARK.json`` declares is
printed with its unit and that the runs are correct.  Then it books one
node into two concurrently held leases of a finished run and checks that
the correctness checks catch it.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

#: small enough to finish in seconds, big enough that every layer runs
TINY = {
    "paper-steady": {},
    "fleet-drift": {"nodes": 128, "eq4_samples": 2},
    "fleet-hold": {"nodes": 128, "eq4_samples": 2, "hold": 3},
    "fleet-federated": {"nodes": 128, "eq4_samples": 2, "rate_rts": 6.0,
                        "big_every": 4},
}


def double_book(passes: list[dict]) -> None:
    """Give a later grant a node that an earlier, still-held grant holds."""
    granted = [a for a in passes[-1]["run"].allocs if a.granted]
    first, later = granted[0], granted[1]
    node = next(n for n in first.nodes if n not in later.nodes)
    releases = passes[-1]["run"].releases
    # keep ``first`` held past ``later``'s grant
    releases[first.lease].t_send = max(releases[first.lease].t_send,
                                       releases[later.lease].t_send)
    count = later.procs.pop(later.nodes[-1])
    later.nodes = later.nodes[:-1] + (node,)
    later.procs[node] = later.procs.get(node, 0) + count


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            result, record = run.bench(name, seed=1, seconds=2.0, trace=trace,
                                       overrides=TINY[name])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {printed} != {want[trace]}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {record['correctness_failures']}")
            print(f"{name} trace={trace}: attempted={result['attempted']} "
                  f"correct={result['correct']}", flush=True)
    result, record = run.bench("fleet-hold", seed=1, seconds=2.0, trace=0,
                               overrides=TINY["fleet-hold"], tamper=double_book)
    caught = [f for f in record["correctness_failures"] if "while" in f]
    if result["correct"] or not caught:
        problems.append("a double-booked node was not caught")
    else:
        print(f"tampered grant caught: {caught[0]}")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
