"""Determinism rules — clocks and RNGs must be injected, never ambient.

The DES engine, chaos harness, elastic reallocator, MPI simulator, and
scheduler are all seed-replayable: the chaos runner re-executes whole
fault scenarios byte-identically from one integer.  A single ambient
clock read (``time.time()``) or hidden entropy draw (``random.Random()``
with no seed) silently breaks that property — it still *works*, it just
stops replaying.  These rules make the convention from ``util/rng.py``
(explicit generators, explicit clocks) statically enforced:

* ``DET001`` — wall/monotonic clock **calls** in replayable packages.
  References are fine (``clock: Callable = time.monotonic`` is exactly
  how a clock gets injected); calling one inline is not.
* ``DET002`` — ``datetime.now``/``utcnow``/``today`` calls, same scope.
* ``DET003`` — seedless RNG construction (``random.Random()``,
  ``numpy.random.default_rng()`` with no arguments) anywhere in the
  package, including the broker client whose retry jitter must replay.
* ``DET004`` — module-level ``random.*`` draws (``random.random()``,
  ``random.choice()``, …) in replayable packages: the module-global
  generator is shared mutable state no seed parameter controls.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.names import import_aliases, resolve_call
from repro.analysis.pragmas import justification
from repro.analysis.source import QualnameVisitor, SourceFile

RULES = (
    RuleInfo("DET001", "determinism", "ambient clock call in replayable code"),
    RuleInfo("DET002", "determinism", "datetime now/today call in replayable code"),
    RuleInfo("DET003", "determinism", "seedless RNG construction"),
    RuleInfo("DET004", "determinism", "module-level random.* draw in replayable code"),
)

#: packages whose behavior must replay from a seed (clock + module-RNG scope)
REPLAYABLE_PACKAGES = (
    "repro.des",
    "repro.chaos",
    "repro.elastic",
    "repro.experiments",
    "repro.fleet",
    "repro.simmpi",
    "repro.scheduler",
)

#: ambient clock calls (DET001) — reading any of these inline captures
#: real time where the DES clock or an injected callable should flow
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

#: datetime construction that embeds the wall clock (DET002)
_DATETIME_CALLS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",  # via `from datetime import datetime`
        "datetime.utcnow",
        "datetime.today",
    }
)

#: RNG constructors that are deterministic only when given a seed (DET003)
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",  # never seedable — always flagged
        "numpy.random.default_rng",
        "numpy.random.Generator",  # bare Generator() is a TypeError anyway
    }
)

#: module-level draws on the shared global generator (DET004)
_MODULE_RANDOM_PREFIX = "random."


def check(file: SourceFile) -> list[Finding]:
    if file.tree is None:
        return []
    clock_scope = file.in_package(*REPLAYABLE_PACKAGES)
    aliases = import_aliases(file.tree)
    quals = QualnameVisitor(file.tree)
    findings: list[Finding] = []

    def emit(
        node: ast.AST, rule: str, message: str, hint: str
    ) -> None:
        if justification(file, node.lineno, rule) is not None:
            return
        findings.append(
            Finding(
                path=file.rel,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                severity="error",
                message=message,
                hint=hint,
                context=quals.qualname(node.lineno),
            )
        )

    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call(node.func, aliases)
        if target is None:
            continue
        if clock_scope and target in _CLOCK_CALLS:
            emit(
                node,
                "DET001",
                f"ambient clock call {target}() in seed-replayable code",
                "take a clock callable (or the DES engine's now) as a "
                "parameter instead of reading real time inline",
            )
        elif clock_scope and target in _DATETIME_CALLS:
            emit(
                node,
                "DET002",
                f"wall-clock datetime call {target}() in seed-replayable code",
                "inject the timestamp; derive display times from the "
                "simulation clock, not the host",
            )
        elif target in _SEEDED_CONSTRUCTORS and not node.args:
            # keyword seeds count as seeded: Random(x=...) doesn't exist,
            # but default_rng(seed=...) does.
            if not any(kw.arg in ("seed",) for kw in node.keywords):
                emit(
                    node,
                    "DET003",
                    f"seedless {target}() — draws are irreproducible",
                    "pass an explicit seed or accept an injected "
                    "generator (see repro/util/rng.py)",
                )
        elif (
            clock_scope
            and target.startswith(_MODULE_RANDOM_PREFIX)
            and target not in _SEEDED_CONSTRUCTORS
            and target != "random.seed"  # seeding global state is DET004 too
        ):
            emit(
                node,
                "DET004",
                f"module-level {target}() draws from the shared global "
                "generator",
                "construct random.Random(seed) (or a numpy Generator) "
                "and thread it through",
            )
        elif clock_scope and target == "random.seed":
            emit(
                node,
                "DET004",
                "random.seed() mutates the process-global generator",
                "seed a local random.Random instance instead",
            )
    return findings
