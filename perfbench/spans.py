"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it replaces a layer's public entry
points (module functions and class methods) with timing wrappers for the
duration of a traced pass and restores them afterwards.  Each wrapper
records one span per call.  Spans nest on a single stack because every
traced call runs in the benchmark's own process and thread; the only
fan-out is the service's session pool, whose worker-side time is inside
the parent's ``service.pool`` span.

Self time is a span's duration minus the durations of its direct
children, so the self times of all spans partition the root spans, and
``wall - sum(self)`` is the time spent outside every traced layer.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer that owns spans; each reports ``<layer>.self_s``.
LAYERS: Tuple[str, ...] = (
    "flows",
    "fastscreen",
    "cnative",
    "transition_build",
    "compact_model",
    "chain",
    "inference",
    "engine",
    "harness",
    "trials",
    "simulator",
    "service",
)


class _Group:
    """Aggregates for one traced entry point (or several folded together)."""

    __slots__ = ("layer", "calls", "busy", "durations", "extra")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.busy = 0.0
        self.durations: List[float] = []
        self.extra: Dict[str, float] = defaultdict(float)


class Tracer:
    """Installs timing wrappers and keeps the resulting span aggregates."""

    def __init__(self) -> None:
        self.groups: Dict[str, _Group] = {}
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Open spans: [group name, child time so far].
        self._stack: List[List[Any]] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, Any]] = []

    def is_open(self, group: str) -> bool:
        """Whether a span of ``group`` is currently open."""
        return self._open[group] > 0

    def wrap(
        self,
        owner: Any,
        attr: str,
        group: str,
        layer: str,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span of ``group``.

        A call made while another span of the same group is open (for
        example ``best_set`` delegating to ``best_single``) is folded
        into the outer span, so calls and busy time are not counted
        twice.  ``before(*args)`` runs untimed ahead of the call and its
        return value is handed to ``after(token, result, *args)``, which
        also runs untimed, to record work counters.
        """
        original = getattr(owner, attr)
        stats = self.groups.setdefault(group, _Group(layer))
        stack = self._stack
        open_count = self._open
        self_time = self.self_time
        clock = time.perf_counter

        def enter() -> Tuple[List[Any], float]:
            frame = [group, 0.0]
            stack.append(frame)
            open_count[group] += 1
            return frame, clock()

        def leave(frame: List[Any], start: float) -> None:
            duration = clock() - start
            open_count[group] -= 1
            stack.pop()
            if stack:
                stack[-1][1] += duration
            stats.calls += 1
            stats.busy += duration
            stats.durations.append(duration)
            self_time[layer] += duration - frame[1]

        wrapper: Callable[..., Any]
        if inspect.iscoroutinefunction(original):
            # The benchmark's client awaits one service call at a time,
            # so an awaited span still nests on the single stack.
            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                if open_count[group]:
                    return await original(*args, **kwargs)
                token = before(*args, **kwargs) if before else None
                frame, start = enter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    leave(frame, start)
                if after is not None:
                    after(token, result, *args, **kwargs)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if open_count[group]:
                    return original(*args, **kwargs)
                token = before(*args, **kwargs) if before else None
                frame, start = enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave(frame, start)
                if after is not None:
                    after(token, result, *args, **kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def count(self, owner: Any, attr: str, group: str, layer: str,
              after: Callable[..., None]) -> None:
        """Count calls of a hot entry point without opening a span."""
        original = getattr(owner, attr)
        self.groups.setdefault(group, _Group(layer))

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            after(None, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root_time(self) -> float:
        """Sum of all self times: the wall covered by traced layers."""
        return sum(self.self_time.values())


def percentile_ms(durations: List[float], q: int) -> float:
    """The ``q``-th percentile of ``durations`` in ms (0 with no samples)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3
