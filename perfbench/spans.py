"""Span recorder for the traced pass, installed from outside the program.

Layers are timed by wrapping their module-level functions (and a few
class methods) in the process that runs them; nothing under ``src/`` is
edited.  Synchronous spans nest on one stack, so every span also yields
its *self time*: its duration minus the part covered by child spans.  A
span re-entered under its own name (``ShardSnapshotSource.sync`` calling
``sync_to``) counts once, as the outer call.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        #: name -> list of (inclusive seconds, self seconds)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: name -> list of numbers a wrapper chose to record
        self.values: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[Any]] = []  # [name, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[Any, str, Any]] = []

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[[tuple, Any, float], None] | None = None,
        name_of: Callable[[Any, tuple], str] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name`` (``name_of`` may rename per call)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._active[name]:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self._active[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
            final = name_of(result, args) if name_of is not None else name
            self.spans[final].append((dur, dur - frame[1]))
            if on_result is not None:
                on_result(args, result, dur)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``wrap(original)``; undone by :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(wrap(original.__func__)))
        else:
            setattr(owner, attr, wrap(original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self, name: str, *, self_time: bool = False) -> list[float]:
        i = 1 if self_time else 0
        return [s[i] for s in self.spans.get(name, ())]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span: count, total and self seconds (the run record's table)."""
        return {
            name: {
                "count": len(rows),
                "total_s": sum(r[0] for r in rows),
                "self_s": sum(r[1] for r in rows),
            }
            for name, rows in sorted(self.spans.items())
        }
