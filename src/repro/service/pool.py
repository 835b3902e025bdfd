"""Persistent session pool for the reconnaissance service.

Unlike the per-call executors of :mod:`repro.experiments.parallel`, the
service keeps one :class:`repro.exec.ForkExecutor` open across jobs and
ships each session to it as a single item: the trial context plus its
pre-drawn plans.  The payload is the trial fan-out's own
(``_run_trial_chunk`` over a ``_TrialContext``), so a pooled session
returns bit-identical ``TrialResult`` lists to running the same plans
serially.

Failure discipline is the executor's: the first exception escaping the
pool (fork failure, worker crash, broken pipe after a kill) retires it
for this service instance, bumps ``service.pool.fallbacks``, and every
session from then on runs serially in the parent -- same plans, same
results, no retry storms against a dead pool.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exec import ForkExecutor
from repro.experiments.parallel import TrialPlan, _run_trial_chunk, _TrialContext
from repro.experiments.trials import TrialResult

#: One pool item: a session's trial context and its pre-drawn plans.
SessionTask = Tuple[_TrialContext, Sequence[TrialPlan]]


def _run_session(_: None, task: SessionTask) -> List[TrialResult]:
    """Run one whole session's trials (the executor's work function)."""
    return _run_trial_chunk(*task)


class SessionPool:
    """A persistent fork pool that degrades to serial, permanently.

    ``shards`` is the worker count; ``shards <= 1`` (or a platform
    without the fork start method) never creates a pool at all.  The
    pool is built lazily on first use, so a service that only ever runs
    serial jobs costs nothing.
    """

    def __init__(self, shards: int = 1) -> None:
        self.shards = max(1, int(shards))
        self._executor = ForkExecutor(
            _run_session,
            None,
            jobs=self.shards,
            fallback_counter="service.pool.fallbacks",
        )

    @property
    def pooled(self) -> bool:
        """Whether sessions currently go through a live pool."""
        return self._executor.pooled

    def run_sessions(
        self, tasks: Sequence[SessionTask]
    ) -> List[List[TrialResult]]:
        """Run several sessions' trials, one pool item per session.

        Returns per-session ``TrialResult`` lists in task order.
        """
        return self._executor.map(tasks)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._executor.close()


__all__ = ["SessionPool", "SessionTask"]
