"""One ordered fork-map primitive for every process fan-out.

Every parallel site in the repository -- probe scoring, adaptive
scoring, trial chunks, config screening, service sessions, the lint
file pass -- fans work out through :class:`ForkExecutor`::

    def work(context, item):          # module level; pure in (context, item)
        ...

    with ForkExecutor(work, context, jobs=4,
                      fallback_counter="experiment.pool.fallbacks") as ex:
        results = ex.map(items)       # item order, bit-identical to serial

The contract, shared by all of those sites:

* **one read-only context, inherited through fork.**  The executor's
  initializer installs ``(fn, context)`` in each worker (the only
  module global here); nothing but items and results is pickled.
* **in-parent when there is nothing to fan out.**  ``jobs <= 1``, or a
  platform without the fork start method, runs ``fn(context, item)``
  in the calling process and never creates a pool.
* **counters come home.**  When the parent's instrumentation is
  enabled, each worker item runs under a fresh
  :class:`~repro.obs.Instrumentation`; its counter deltas travel back
  with the result and the parent re-emits their sums in sorted name
  order.  Sums commute, so totals equal the in-parent run's.  Spans,
  histograms and phases recorded inside workers are not shipped.
* **first failure retires the pool.**  Any exception escaping the pool
  (fork failure, a worker crash, a broken pipe) retires it for the
  executor's lifetime, is counted once on ``fallback_counter``, and
  the batch re-runs in the parent.  Callers rely on ``fn`` being a pure
  function of its inputs, so the re-run returns what the pool would
  have.

An executor serves one call (``with`` block or :func:`fork_map`) or
stays open across calls (the recon service keeps one for its lifetime;
close it with :meth:`ForkExecutor.close`).
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.context import BaseContext
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.obs import Instrumentation, get_instrumentation, use_instrumentation

C = TypeVar("C")
T = TypeVar("T")
R = TypeVar("R")

#: ``(fn, context)`` inside a pool worker; ``None`` in every other
#: process.  Installed only by :func:`_init_worker`.
_WORKER: Optional[Tuple[Callable[[Any, Any], Any], Any]] = None


def _init_worker(fn: Callable[[Any, Any], Any], context: Any) -> None:
    global _WORKER
    _WORKER = (fn, context)


def _work(task: Tuple[bool, Any]) -> Tuple[Any, Optional[Dict[str, int]]]:
    """Run one item in a worker; counter deltas ride back when asked."""
    collect, item = task
    assert _WORKER is not None, "worker used before initialisation"
    fn, context = _WORKER
    if not collect:
        return fn(context, item), None
    worker_obs = Instrumentation()
    with use_instrumentation(worker_obs):
        result = fn(context, item)
    counters = worker_obs.metrics.to_document()["counters"]
    return result, {
        name: value
        for name, value in counters.items()  # type: ignore[union-attr]
        if value
    }


def _fork_context() -> Optional[BaseContext]:
    """The fork start method, or ``None`` where it is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


class ForkExecutor(Generic[C, T, R]):
    """Ordered ``fn(context, item)`` map over a lazily built fork pool."""

    def __init__(
        self,
        fn: Callable[[C, T], R],
        context: C,
        *,
        jobs: int,
        fallback_counter: Optional[str] = None,
    ) -> None:
        self.fn = fn
        self.context = context
        self.jobs = max(1, int(jobs))
        self.fallback_counter = fallback_counter
        #: Pool failures absorbed (0 or 1: the first one retires the pool).
        self.fallbacks = 0
        self._pool: Any = None
        self._retired = self.jobs <= 1

    @property
    def pooled(self) -> bool:
        """Whether :meth:`map` currently goes through a (live) pool."""
        return not self._retired

    def map(self, items: Iterable[T]) -> List[R]:
        """``[fn(context, item) for item in items]``, fanned out."""
        items = list(items)
        if items and self._start():
            obs = get_instrumentation()
            try:
                outputs = self._pool.map(
                    _work, [(obs.enabled, item) for item in items]
                )
            except Exception:
                self._fail()
            else:
                _merge_counters(obs, [deltas for _, deltas in outputs])
                return [result for result, _ in outputs]
        return [self.fn(self.context, item) for item in items]

    def _start(self) -> bool:
        """Build the pool on first use; ``False`` means run in the parent."""
        if self._retired or self._pool is not None:
            return self.pooled
        fork = _fork_context()
        if fork is None:
            self._retired = True
            return False
        try:
            self._pool = fork.Pool(
                self.jobs,
                initializer=_init_worker,
                initargs=(self.fn, self.context),
            )
        except Exception:
            self._fail()
            return False
        return True

    def _fail(self) -> None:
        """Retire the pool for good and count the fallback once."""
        self._retired = True
        self.fallbacks += 1
        self.close()
        if self.fallback_counter is not None:
            get_instrumentation().metrics.counter(self.fallback_counter).inc()

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

    def __enter__(self) -> "ForkExecutor[C, T, R]":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _merge_counters(
    obs: Instrumentation, deltas: List[Optional[Dict[str, int]]]
) -> None:
    merged: Dict[str, int] = {}
    for item_deltas in deltas:
        for name, value in (item_deltas or {}).items():
            merged[name] = merged.get(name, 0) + value
    for name in sorted(merged):
        obs.metrics.counter(name).inc(merged[name])


def fork_map(
    fn: Callable[[C, T], R],
    context: C,
    items: Iterable[T],
    *,
    jobs: int,
    fallback_counter: Optional[str] = None,
) -> List[R]:
    """One-shot :class:`ForkExecutor` map, at most one worker per item."""
    items = list(items)
    with ForkExecutor(
        fn,
        context,
        jobs=min(int(jobs), len(items)),
        fallback_counter=fallback_counter,
    ) as executor:
        return executor.map(items)


__all__ = ["ForkExecutor", "fork_map"]
