"""Per-configuration harness: model fit, probe choice, trial loop.

:class:`ConfigHarness` owns everything derived from one sampled network
configuration: the compact model, the fitted inference object, the
attacker lineup (naive / model / constrained / random), the paper's
detector-viability screen, and the trial loop producing accuracies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.attacker import (
    Attacker,
    ConstrainedModelAttacker,
    ModelAttacker,
    NaiveAttacker,
    RandomAttacker,
)
from repro.core.compact_model import CompactModel
from repro.core.engine import ScoringStats
from repro.core.inference import ReconInference
from repro.core.recency import make_estimator
from repro.deprecation import keyword_only
from repro.exec import ForkExecutor
from repro.experiments.params import ExperimentParams
from repro.faults import FaultPlan
from repro.experiments.parallel import (
    ExecutionStats,
    plan_trials,
    run_planned_trials,
)
from repro.experiments.trials import DefenseFactory, TrialResult, run_trial
from repro.flows.config import ConfigGenerator, NetworkConfiguration
from repro.obs import get_instrumentation
from repro.simulator.timing import LatencyModel


@dataclass
class ConfigResult:
    """Aggregated trial results for one configuration."""

    config: NetworkConfiguration
    accuracies: Dict[str, float]
    trials: int
    screened: bool
    optimal_probe: int
    optimal_is_target: bool
    prior_absent: float
    n_rules_covering_target: int
    #: Whether the rule a target miss installs covers only the target
    #: (the regime where no sibling probe can see the target's tracks;
    #: see repro.analysis.structure).
    target_install_exclusive: bool = False
    trial_results: List[TrialResult] = field(default_factory=list, repr=False)

    @property
    def improvement(self) -> float:
        """Additive accuracy improvement of model over naive (Fig. 6b)."""
        return self.accuracies["model"] - self.accuracies["naive"]

    @property
    def constrained_improvement(self) -> float:
        """Constrained-model accuracy minus naive (Fig. 7 comparison)."""
        return self.accuracies["constrained"] - self.accuracies["naive"]


class ConfigHarness:
    """Everything derived from one network configuration."""

    @keyword_only
    def __init__(
        self,
        config: NetworkConfiguration,
        params: ExperimentParams,
        *,
        rng: Optional[np.random.Generator] = None,
        latency: Optional[LatencyModel] = None,
        model: Optional[CompactModel] = None,
    ) -> None:
        self.config = config
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(params.seed)
        self.latency = latency
        obs = get_instrumentation()
        self._obs = obs

        with obs.phase("harness.model_build"), obs.span(
            "harness.model_build",
            n_flows=len(config.universe),
            cache_size=config.cache_size,
        ):
            # ``model`` lets the fast screen hand over the CompactModel
            # it already built for this configuration instead of paying
            # for a second identical build (repro.experiments.fastscreen).
            self.model = model if model is not None else CompactModel(
                config.policy,
                config.universe,
                config.delta,
                config.cache_size,
                kernel=params.kernel,
            )
            if params.estimator != "independent":
                self.model.estimator = make_estimator(
                    params.estimator, self.model.context
                )
            self.inference = ReconInference(
                self.model, config.target_flow, config.window_steps
            )

        self.naive_attacker = NaiveAttacker(config.target_flow)
        with obs.phase("harness.probe_selection"), obs.span(
            "harness.probe_selection", n_probes=params.n_probes
        ):
            self.model_attacker = ModelAttacker(
                self.inference,
                n_probes=params.n_probes,
                decision=params.decision,
                n_jobs=params.selection_n_jobs,
            )
        # Built on first use: the screens only consult the model
        # attacker's probe choice, so rejection-sampled candidates never
        # pay for the constrained selection.
        self._constrained_attacker: Optional[ConstrainedModelAttacker] = None
        self.random_attacker = RandomAttacker(
            prior_present=1.0 - self.inference.prior_absent(),
            rng=self.rng,
            mode=params.random_attacker_mode,
        )
        obs.metrics.counter("experiment.harnesses_built").inc()

    @property
    def constrained_attacker(self) -> ConstrainedModelAttacker:
        """The Figure 7 attacker, selected lazily on first use."""
        if self._constrained_attacker is None:
            with self._obs.phase("harness.probe_selection"), self._obs.span(
                "harness.probe_selection", n_probes=self.params.n_probes
            ):
                self._constrained_attacker = ConstrainedModelAttacker(
                    self.inference,
                    n_probes=self.params.n_probes,
                    decision=self.params.constrained_decision,
                    n_jobs=self.params.selection_n_jobs,
                )
        return self._constrained_attacker

    @property
    def scoring_stats(self) -> Optional[ScoringStats]:
        """Engine instrumentation from the model attacker's selection."""
        return self.model_attacker.choice.stats

    @classmethod
    def sample(
        cls,
        params: ExperimentParams,
        generator: Optional[ConfigGenerator] = None,
    ) -> "ConfigHarness":
        """Sample a fresh configuration under ``params`` and wrap it."""
        generator = generator or ConfigGenerator(params.config, seed=params.seed)
        config = generator.sample()
        return cls(config, params, rng=generator.rng)

    # ------------------------------------------------------------------
    # Paper screens
    # ------------------------------------------------------------------
    def is_screened_in(self) -> bool:
        """The Section VI-B viability screen, applied to the optimal probe."""
        from repro.experiments.screening import paper_screen

        return paper_screen(self.inference, self.model_attacker.probes[0])

    def optimal_differs_from_target(self) -> bool:
        """Figure 6's extra restriction: optimal probe != target flow."""
        return self.model_attacker.probes[0] != self.config.target_flow

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------
    def attackers(self) -> Tuple[Attacker, ...]:
        """The standard lineup evaluated in every trial."""
        return (
            self.naive_attacker,
            self.model_attacker,
            self.constrained_attacker,
            self.random_attacker,
        )

    @keyword_only
    def run_trials(
        self,
        *,
        n_trials: Optional[int] = None,
        attackers: Optional[Sequence[Attacker]] = None,
        keep_trials: bool = False,
        defense_factory: Optional[DefenseFactory] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe_retries: Optional[int] = None,
        trial_jobs: Optional[int] = None,
        execution: Optional[ExecutionStats] = None,
    ) -> ConfigResult:
        """Run the trial loop and aggregate accuracies.

        ``fault_plan`` / ``probe_retries`` override the values carried
        by ``self.params`` (used by the robustness sweep to reuse one
        set of screened harnesses across fault rates).  ``trial_jobs``
        overrides ``params.trial_jobs``; any value > 1 fans the trials
        out across a fork pool with bit-identical results
        (repro.experiments.parallel).
        """
        n_trials = n_trials if n_trials is not None else self.params.n_trials
        if fault_plan is None:
            fault_plan = self.params.fault_plan
        if probe_retries is None:
            probe_retries = self.params.probe_retries
        if trial_jobs is None:
            trial_jobs = self.params.trial_jobs
        lineup = tuple(attackers) if attackers is not None else self.attackers()
        names = [attacker.name for attacker in lineup]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                "duplicate attacker name(s) in lineup: "
                + ", ".join(duplicates)
            )
        correct = {name: 0 for name in names}
        kept: List[TrialResult] = []
        obs = self._obs
        trial_counter = obs.metrics.counter("experiment.trials")
        with obs.phase("harness.trials"):
            if trial_jobs > 1:
                with obs.span(
                    "experiment.trial_batch",
                    trials=n_trials,
                    jobs=trial_jobs,
                    mode=self.params.trial_mode,
                ):
                    plans = plan_trials(self.rng, lineup, n_trials)
                    results = run_planned_trials(
                        self.config,
                        lineup,
                        plans,
                        n_jobs=trial_jobs,
                        mode=self.params.trial_mode,
                        latency=self.latency,
                        defense_factory=defense_factory,
                        fault_plan=fault_plan,
                        probe_retries=probe_retries,
                        execution=execution,
                    )
                trial_counter.inc(n_trials)
                for trial in results:
                    for name in names:
                        if trial.correct(name):
                            correct[name] += 1
                if keep_trials:
                    kept.extend(results)
            else:
                for index in range(n_trials):
                    seed = int(self.rng.integers(2**63 - 1))
                    with obs.span(
                        "experiment.trial",
                        trial=index,
                        mode=self.params.trial_mode,
                    ):
                        trial = run_trial(
                            self.config,
                            lineup,
                            seed,
                            mode=self.params.trial_mode,
                            latency=self.latency,
                            defense_factory=defense_factory,
                            fault_plan=fault_plan,
                            probe_retries=probe_retries,
                        )
                    trial_counter.inc()
                    for name in names:
                        if trial.correct(name):
                            correct[name] += 1
                    if keep_trials:
                        kept.append(trial)
        accuracies = {
            name: count / n_trials for name, count in correct.items()
        }
        from repro.analysis.structure import target_structure

        structure = target_structure(
            self.config.policy, self.config.target_flow
        )
        return ConfigResult(
            config=self.config,
            accuracies=accuracies,
            trials=n_trials,
            screened=self.is_screened_in(),
            optimal_probe=self.model_attacker.probes[0],
            optimal_is_target=not self.optimal_differs_from_target(),
            prior_absent=self.inference.prior_absent(),
            n_rules_covering_target=len(self.config.rules_covering_target()),
            target_install_exclusive=structure.install_rule_is_exclusive,
            trial_results=kept,
        )


#: Candidate configurations sampled per speculative screening batch,
#: as a multiple of the worker count.
SCREEN_BATCH_PER_WORKER = 2


def screening_verdicts(
    params: ExperimentParams,
    config: NetworkConfiguration,
    require_optimal_differs: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Optional[ConfigHarness], CompactModel]:
    """Screen one candidate: ``(harness, model)``.

    ``harness`` is the harness that screened the candidate when it
    passes, else ``None``; ``model`` is the compact model the screen
    built either way.  Where the certified float32 fast screen applies
    (repro.experiments.fastscreen) and proves the candidate rejected,
    no harness is built.  Otherwise the exact harness -- reusing the
    fast screen's model -- applies the paper screen (``params.screen``)
    and, if asked, the optimal-probe-differs restriction.

    ``rng`` is the harness generator handed to an accepted harness.  A
    pool worker passes none: it builds the harness with serial probe
    selection (a daemonic worker cannot fork children of its own; the
    engine's selection is bit-identical for every ``n_jobs``) and a
    throwaway seeded generator -- screening never draws from the
    harness generator, and the parent rebuilds accepted configurations.
    """
    from repro.experiments import fastscreen

    model = None
    if fastscreen.supports(params):
        outcome = fastscreen.screen_candidate(
            params, config, require_optimal_differs=require_optimal_differs
        )
        if outcome.certified_reject:
            return None, outcome.model
        model = outcome.model
    if rng is None:
        params = replace(params, selection_n_jobs=1)
        rng = np.random.default_rng(0)
    harness = ConfigHarness(config, params, rng=rng, model=model)
    if (params.screen and not harness.is_screened_in()) or (
        require_optimal_differs and not harness.optimal_differs_from_target()
    ):
        return None, harness.model
    return harness, harness.model


@dataclass(frozen=True)
class _ScreenContext:
    """What screening a candidate needs besides the candidate itself."""

    params: ExperimentParams
    require_optimal_differs: bool
    #: The harness generator when screening runs in the parent; ``None``
    #: in a pool, where only the verdict travels back.
    rng: Optional[np.random.Generator]


def _screen_work(
    context: _ScreenContext, config: NetworkConfiguration
) -> Union[bool, Tuple[Optional[ConfigHarness], CompactModel]]:
    screened = screening_verdicts(
        context.params, config, context.require_optimal_differs, context.rng
    )
    if context.rng is None:
        return screened[0] is not None
    return screened


@keyword_only
def sample_screened_harnesses(
    params: ExperimentParams,
    n_configs: int,
    *,
    require_optimal_differs: bool = False,
    max_attempts_factor: int = 40,
    generator: Optional[ConfigGenerator] = None,
    trial_jobs: Optional[int] = None,
    execution: Optional[ExecutionStats] = None,
) -> List[ConfigHarness]:
    """Sample configurations until ``n_configs`` pass the screens.

    Mirrors the paper's procedure of restricting attention to
    configurations where the side channel can work at all
    (``screen=True`` in params), optionally also requiring the
    model-optimal probe to differ from the target (Figure 6's case
    split).  Raises ``RuntimeError`` if the acceptance rate is too low.

    This is the one screening loop.  With ``trial_jobs`` (or
    ``params.trial_jobs``) at 1 it samples a candidate, screens it in
    the parent and keeps the harness that screened it.  Above 1 it
    samples speculative batches, screens them across the fork executor,
    accepts in attempt order, rebuilds accepted configurations in the
    parent, and rewinds the generator to just after the last consumed
    sample.  Accepted configurations, the generator's post-call state
    and the exhaustion error are identical for every ``trial_jobs``.
    """
    generator = generator or ConfigGenerator(params.config, seed=params.seed)
    if trial_jobs is None:
        trial_jobs = params.trial_jobs
    pooled = trial_jobs > 1
    batch_size = max(SCREEN_BATCH_PER_WORKER * trial_jobs, 4) if pooled else 1
    context = _ScreenContext(
        params, require_optimal_differs, None if pooled else generator.rng
    )
    obs = get_instrumentation()
    sampled = obs.metrics.counter("experiment.configs_sampled")
    screened_out = obs.metrics.counter("experiment.configs_screened_out")
    max_attempts = max(1, n_configs) * max_attempts_factor
    harnesses: List[ConfigHarness] = []
    attempts = 0
    started = time.perf_counter()
    executor = ForkExecutor(
        _screen_work,
        context,
        jobs=trial_jobs,
        fallback_counter="experiment.pool.fallbacks",
    )
    try:
        while len(harnesses) < n_configs:
            remaining = max_attempts - attempts
            if remaining <= 0:
                raise RuntimeError(
                    f"only {len(harnesses)}/{n_configs} configurations "
                    f"accepted after {max_attempts + 1} attempts; relax "
                    "the screens or the absence range"
                )
            batch: List[NetworkConfiguration] = []
            states: List[dict] = []
            for _ in range(min(batch_size, remaining)):
                batch.append(generator.sample())
                states.append(generator.rng.bit_generator.state)
            if execution is not None:
                execution.screen_batches += 1
            # ``screened`` keeps the previous batch's models referenced
            # while the next batch is screened: each model build in the
            # parent then reuses heap its predecessor already faulted in,
            # where freeing it first returns the pages to the system and
            # every candidate pays to fault them in again.
            screened = executor.map(batch)
            for position, verdict in enumerate(screened):
                attempts += 1
                sampled.inc()
                if isinstance(verdict, tuple):
                    harness = verdict[0]
                elif verdict:
                    harness = ConfigHarness(
                        batch[position], params, rng=generator.rng
                    )
                    if execution is not None:
                        execution.harness_builds += 1
                else:
                    harness = None
                if harness is None:
                    screened_out.inc()
                    continue
                harnesses.append(harness)
                if len(harnesses) == n_configs:
                    # Rewind past the speculative tail: the generator
                    # resumes exactly where one-at-a-time sampling stops.
                    generator.rng.bit_generator.state = states[position]
                    break
        return harnesses
    finally:
        executor.close()
        if execution is not None:
            execution.screen_attempts += attempts
            execution.pool_fallbacks += executor.fallbacks
            execution.add_time("screen", time.perf_counter() - started)
