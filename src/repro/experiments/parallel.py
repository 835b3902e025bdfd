"""Deterministic process-parallel experiment execution.

The figure pipelines aggregate hundreds of independent Monte Carlo
trials over dozens of sampled configurations; both levels fan out
through :class:`repro.exec.ForkExecutor` while keeping every number
**bit-identical to the serial run**:

* **trial-level** (:func:`plan_trials` + :func:`run_planned_trials`) --
  the per-trial randomness is pre-drawn in the parent from the harness
  generator in exactly the serial order (one seed integer, then one
  verdict per probeless attacker in lineup order), so the generator
  stream is untouched by the fan-out.  Workers replay the pre-drawn
  verdicts through :class:`_ScriptedAttacker` stand-ins and results are
  merged back in trial order.  The recon service ships whole sessions
  through the same trial payload (:mod:`repro.service.pool`).
* **config-level** -- the one screening loop,
  :func:`repro.experiments.harness.sample_screened_harnesses`, screens
  speculative candidate batches through the executor and rewinds the
  generator past the unconsumed tail.

Worker counters, fork-inherited context and the fallback on pool death
are the executor's: a broken pool re-runs its batch in the parent
(trials and screens are pure functions of their pre-drawn inputs) and
is counted in :class:`ExecutionStats` and ``experiment.pool.fallbacks``.

See EXPERIMENTS.md ("Parallel execution") for the determinism contract
and the seed-stream layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attacker import Attacker
from repro.exec import ForkExecutor
from repro.experiments.trials import DefenseFactory, TrialResult, run_trial
from repro.faults import FaultPlan
from repro.flows.config import NetworkConfiguration
from repro.simulator.timing import LatencyModel

#: Trial chunks handed out per worker: small enough to balance load,
#: large enough to amortise task pickling.  Chunking never affects
#: results -- trials are merged back in trial order regardless.
TRIAL_CHUNKS_PER_WORKER = 4


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
@dataclass
class ExecutionStats:
    """Counters and stage timings for one parallel experiment run.

    The experiment-layer sibling of
    :class:`~repro.core.engine.ScoringStats`: one instance threads
    through ``sample_screened_harnesses`` and ``run_trials`` calls and
    accumulates what the fan-out actually did.
    """

    #: Parallelism the run was configured with.
    n_jobs: int = 1
    #: Trials executed through :func:`run_planned_trials`.
    trials: int = 0
    #: Trial chunks dispatched to the pool.
    trial_chunks: int = 0
    #: Screening attempts consumed (accepted + rejected samples).
    screen_attempts: int = 0
    #: Screening batches sampled (one candidate each at ``n_jobs=1``).
    screen_batches: int = 0
    #: Harnesses rebuilt in the parent from configurations a pool
    #: accepted (at ``n_jobs=1`` the screening harness is kept instead).
    harness_builds: int = 0
    #: Pool dispatches re-run serially after a fork-pool failure.
    pool_fallbacks: int = 0
    #: Wall-clock seconds per stage (``trials``, ``screen``).
    wall_times: Dict[str, float] = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall time for a named stage."""
        self.wall_times[stage] = self.wall_times.get(stage, 0.0) + seconds

    def rows(self) -> List[List[object]]:
        """``[name, value]`` rows for plain-text tables (CLI output)."""
        rows: List[List[object]] = [
            ["n_jobs", self.n_jobs],
            ["trials", self.trials],
            ["trial chunks", self.trial_chunks],
            ["screen attempts", self.screen_attempts],
            ["screen batches", self.screen_batches],
            ["harness builds", self.harness_builds],
            ["pool fallbacks", self.pool_fallbacks],
        ]
        for stage in sorted(self.wall_times):
            rows.append([f"{stage} time (s)", f"{self.wall_times[stage]:.6f}"])
        return rows


# ----------------------------------------------------------------------
# Trial-level fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialPlan:
    """Pre-drawn randomness for one trial.

    ``verdicts`` carries the scripted decision of every probeless
    attacker (``(name, verdict)`` in lineup order): those attackers may
    draw from the harness generator inside the trial, so their draws are
    made in the parent -- interleaved with the seed draws exactly as the
    serial loop interleaves them -- and replayed in the worker.
    """

    index: int
    seed: int
    verdicts: Tuple[Tuple[str, int], ...]


class _ScriptedAttacker(Attacker):
    """Replays a verdict pre-drawn by :func:`plan_trials` in the parent."""

    def __init__(self, name: str, verdict: int) -> None:
        self.name = name
        self._verdict = int(verdict)

    def plan(self) -> Tuple[int, ...]:
        return ()

    def decide(self, outcomes: Sequence[Optional[int]]) -> int:
        if outcomes:
            raise ValueError("scripted attacker sends no probes")
        return self._verdict


def plan_trials(
    rng: np.random.Generator,
    lineup: Sequence[Attacker],
    n_trials: int,
) -> List[TrialPlan]:
    """Pre-draw the randomness of ``n_trials`` trials from ``rng``.

    Consumes the generator stream exactly as the serial trial loop
    does: for each trial, one seed integer, then one ``decide(())``
    call per probeless attacker in lineup order (probing attackers
    never draw from the shared generator at trial time).  After this
    call the generator state equals the post-loop serial state, so
    later draws -- e.g. the next harness's trials -- are unaffected.
    """
    probeless = [attacker for attacker in lineup if not attacker.plan()]
    plans: List[TrialPlan] = []
    for index in range(int(n_trials)):
        seed = int(rng.integers(2**63 - 1))
        verdicts = tuple(
            (attacker.name, int(attacker.decide(())))
            for attacker in probeless
        )
        plans.append(TrialPlan(index=index, seed=seed, verdicts=verdicts))
    return plans


@dataclass
class _TrialContext:
    """Fork-inherited worker state for trial-level fan-out."""

    config: NetworkConfiguration
    lineup: Tuple[Attacker, ...]
    mode: str
    latency: Optional[LatencyModel]
    defense_factory: Optional[DefenseFactory]
    fault_plan: Optional[FaultPlan]
    probe_retries: int


def _scripted_lineup(
    lineup: Tuple[Attacker, ...], plan: TrialPlan
) -> Tuple[Attacker, ...]:
    verdicts = dict(plan.verdicts)
    return tuple(
        _ScriptedAttacker(attacker.name, verdicts[attacker.name])
        if attacker.name in verdicts
        else attacker
        for attacker in lineup
    )


def _run_trial_chunk(
    context: _TrialContext, plans: Sequence[TrialPlan]
) -> List[TrialResult]:
    """Trials from their pre-drawn plans (the executor's work function)."""
    return [
        run_trial(
            context.config,
            _scripted_lineup(context.lineup, plan),
            plan.seed,
            mode=context.mode,
            latency=context.latency,
            defense_factory=context.defense_factory,
            fault_plan=context.fault_plan,
            probe_retries=context.probe_retries,
        )
        for plan in plans
    ]


def _trial_chunks(
    plans: Sequence[TrialPlan], n_jobs: int
) -> List[Tuple[TrialPlan, ...]]:
    size = max(1, -(-len(plans) // (n_jobs * TRIAL_CHUNKS_PER_WORKER)))
    return [
        tuple(plans[start:start + size])
        for start in range(0, len(plans), size)
    ]


def run_planned_trials(
    config: NetworkConfiguration,
    lineup: Sequence[Attacker],
    plans: Sequence[TrialPlan],
    *,
    n_jobs: int,
    mode: str = "network",
    latency: Optional[LatencyModel] = None,
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
    execution: Optional[ExecutionStats] = None,
) -> List[TrialResult]:
    """Run pre-planned trials across the fork executor, in trial order.

    Every trial is a pure function of its :class:`TrialPlan` (the
    scripted verdicts remove the only in-trial draw from the shared
    generator), so the returned ``TrialResult`` list is bit-identical
    to running the serial loop over the same plans -- also when a dead
    pool makes the executor re-run the batch in the parent (counted in
    ``execution.pool_fallbacks`` / ``experiment.pool.fallbacks``).
    """
    context = _TrialContext(
        config=config,
        lineup=tuple(lineup),
        mode=mode,
        latency=latency,
        defense_factory=defense_factory,
        fault_plan=fault_plan,
        probe_retries=int(probe_retries),
    )
    chunks = _trial_chunks(list(plans), max(1, int(n_jobs)))
    started = time.perf_counter()
    with ForkExecutor(
        _run_trial_chunk,
        context,
        jobs=min(int(n_jobs), len(chunks)),
        fallback_counter="experiment.pool.fallbacks",
    ) as executor:
        results = [trial for chunk in executor.map(chunks) for trial in chunk]
    if execution is not None:
        execution.trials += len(results)
        execution.trial_chunks += len(chunks)
        execution.pool_fallbacks += executor.fallbacks
        execution.add_time("trials", time.perf_counter() - started)
    return results
