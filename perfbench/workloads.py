"""The benchmark's three workloads: set-up, one measured pass, checks.

Each workload turns the benchmark seed into the program's inputs, runs
one pass until a :class:`Budget` says stop, and checks what came out.
Timed runs stop at a deadline; traced runs stop after a fixed number of
operations so that their work counters repeat exactly for a seed.
Between operations (between jobs for the service) a pass samples a
:class:`~hostspeed.HostGauge`, and reports each operation's duration
also rescaled to the reference host speed.

* ``fig6-screen`` -- Figure 6 jobs (``run_fig6`` on a ``JobSpec``, one
  config per bin, table-mode trials, ``trial_jobs=1``), half of the
  pass on each viable absence bin.  Job ``k`` of a bin uses the
  benchmark seed for ``k == 0`` and a seed derived from it otherwise.
  One operation is one sampled candidate config.
* ``sim-network`` -- packet-level trials round-robin over a pinned set
  of configs that set-up samples with ``ConfigGenerator`` and wraps in
  ``ConfigHarness`` (no screening).  The seed draws the trial seeds and
  the random attacker's stream.  One operation is one trial.
* ``service-recon`` -- one warm ``ReconService`` at ``shards = nproc``
  fed by one closed-loop client from a pinned queue of scenarios; the
  seed picks each job's targets.  Every scenario is submitted
  ``SERVICE_REPEATS`` times under distinct job ids.  One operation is
  one session.

The configs and scenarios are pinned (the same for every seed) because
their cost differs by ~25% from one to the next: with a seed-drawn set,
a run's figures would follow the few configs it happened to draw.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from hostspeed import HostGauge

#: Seed of the pinned configs (sim-network) and scenarios (service-recon).
PINNED_SEED = 2017

#: Pinned configurations the network-mode trials cycle through.
SIM_CONFIGS = 8

#: Pinned scenarios in the service client's queue (a timed run uses
#: about 15; the queue ends the pass early only for a much faster
#: program).
SERVICE_QUEUE = 96

#: Targets per recon job, drawn by the seed from the scenario's
#: eligible targets.  Four keeps a job to one or two pool batches, so a
#: run spans ~15 scenarios and where the deadline cuts the queue moves
#: the scenario mix by a few percent at most.
SERVICE_TARGETS = 4

#: Submissions per scenario: the first pays the cold target-excluded
#: power chains, the rest reuse the service's warm model.  Three puts
#: the median session inside the warm mode and the 75th percentile
#: inside the cold one, instead of on the boundary between them.
SERVICE_REPEATS = 3

#: Scenarios after which the service pass samples its high-water RSS.
#: The service caches one model per scenario, so RSS read at a fixed
#: amount of work does not grow with the program's speed.
SERVICE_RSS_SCENARIOS = 8

#: Operations per fixed-work pass, per second of ``--seconds``: about
#: half of what a timed run of the same length completes, because a
#: traced run makes an untraced and a traced pass over the same work.
TRACE_OPS_PER_SECOND = {
    "fig6-screen": 2.0,
    "sim-network": 7.0,
    "service-recon": 0.3,  # scenarios, not sessions
}


class Stop(Exception):
    """Raised from the benchmark's own hook to end a Figure 6 pass."""


class Budget:
    """When a pass ends: at a deadline, or after a fixed operation count."""

    def __init__(self, *, seconds: Optional[float] = None,
                 ops: Optional[int] = None) -> None:
        self.seconds = seconds
        self.ops = ops
        self.deadline = float("inf")

    def start(self) -> float:
        now = time.perf_counter()
        if self.seconds is not None:
            self.deadline = now + self.seconds
        return now

    def done(self, ops: int, now: float) -> bool:
        return (self.ops is not None and ops >= self.ops) or now >= self.deadline

    def split(self, parts: int) -> List["Budget"]:
        """Equal shares of this budget, to be spent one after another."""
        return [
            Budget(
                seconds=None if self.seconds is None else self.seconds / parts,
                ops=None if self.ops is None else max(1, self.ops // parts),
            )
            for _ in range(parts)
        ]


@dataclass
class PassResult:
    """What one pass did, and what its checks found."""

    ops: int = 0
    failed: int = 0
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: ``latencies`` at the reference host speed.
    scaled: List[float] = field(default_factory=list)
    #: Time spent in the program (the gauge's samples left out) at the
    #: reference host speed.
    scaled_busy: float = 0.0
    problems: List[str] = field(default_factory=list)
    #: Digest of the seed-determined prefix that every pass completes.
    digest: Optional[str] = None
    #: High-water resident set (MB) of the process and its workers.
    rss_mb: float = 0.0
    info: Dict[str, Any] = field(default_factory=dict)


def derived_seed(seed: int, stream: int, index: int) -> int:
    """Seed of item ``index`` of a workload stream (``index 0`` = ``seed``)."""
    if index == 0:
        return seed
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)
    return int(state[0])


def peak_rss_mb(pids: List[int]) -> float:
    """High-water resident set of this process plus the given children."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    if not total_kb:  # no /proc: the own peak is all we can see
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    #: The :data:`hostspeed.REFERENCES` entry shaped like this workload.
    reference = "interpreted"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Build the inputs (timed as part of ``setup_s``)."""

    def run(self, budget: Budget, gauge: HostGauge) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult) -> None:
        """Untimed output checks; appends to ``result.problems``."""

    def child_pids(self) -> List[int]:
        """Worker processes whose memory counts towards ``rss_mb``."""
        return []

    def close(self) -> None:
        """Release what set-up started."""


class Fig6Screen(Workload):
    name = "fig6-screen"
    reference = "sparse"

    def spec(self, k: int) -> Any:
        from repro.apispec import JobSpec

        return JobSpec(
            experiment="fig6",
            seed=derived_seed(self.seed, 1, k),
            trial_mode="table",
            trial_jobs=1,
        )

    def setup(self) -> None:
        from repro.experiments import fastscreen
        from repro.flows.config import ConfigGenerator

        params = self.spec(0).to_params()
        self.fast = fastscreen.supports(params)
        # Screen one throwaway candidate so first-call costs (scipy's
        # sparse paths, the native kernel's first call) land in set-up.
        warm = ConfigGenerator(params.config, seed=derived_seed(self.seed, 9, 1))
        if self.fast:
            fastscreen.screen_candidate(
                params, warm.sample(), require_optimal_differs=True)

    def run(self, budget: Budget, gauge: HostGauge) -> PassResult:
        from repro.experiments.fig6 import run_fig6
        from repro.experiments.params import VIABLE_FIG6_BINS
        from repro.flows.config import ConfigGenerator

        original = ConfigGenerator.sample
        clock = time.perf_counter
        part = budget
        # A candidate runs from the end of the gauge sample ahead of its
        # sampling (its mark) to the next sampling call or the bin's end.
        entries: List[float] = []
        marks: List[float] = []

        def sample(generator: Any, *args: Any, **kwargs: Any) -> Any:
            now = clock()
            if part.done(len(marks), now):
                raise Stop
            entries.append(now)
            gauge.sample()
            marks.append(clock())
            return original(generator, *args, **kwargs)

        result = PassResult()
        #: (bin, job index, the job's single-bin result bucket)
        self.jobs: List[Any] = []
        candidates: Dict[str, List[int]] = {}
        ConfigGenerator.sample = sample
        started = clock()
        try:
            # Rejection sampling costs differ between the bins, and one
            # job can take a whole pass; equal time per bin keeps the
            # mix the same from seed to seed.
            for absence_bin, part in zip(
                VIABLE_FIG6_BINS, budget.split(len(VIABLE_FIG6_BINS))
            ):
                entries, marks = [], []
                counts = candidates.setdefault(f"{absence_bin}", [])
                part.start()
                for k in itertools.count():
                    first = len(marks)
                    try:
                        fig6 = run_fig6(self.spec(k), bins=(absence_bin,),
                                        configs_per_bin=1)
                    except Stop:
                        break
                    except RuntimeError as exc:
                        # Rejection sampling exhausted its attempt budget:
                        # the job's candidates failed, and no other seed
                        # stands in for it.
                        result.failed += len(marks) - first
                        result.problems.append(f"bin {absence_bin} job {k}: {exc}")
                        break
                    self.jobs.append((absence_bin, k, fig6.results_per_bin[0]))
                    counts.append(len(marks) - first)
                ends = entries[1:] + [clock()]
                result.latencies += [e - m for e, m in zip(ends, marks)]
                result.ops += len(marks)
        finally:
            ConfigGenerator.sample = original
        result.wall = clock() - started
        result.scaled = [
            d * f for d, f in zip(result.latencies, gauge.factors(result.ops))]
        result.scaled_busy = sum(result.scaled)
        result.rss_mb = peak_rss_mb([])
        result.info = {"candidates_per_completed_job": candidates,
                       "fastscreen_supported": self.fast}
        first_jobs = [bucket for _, k, bucket in self.jobs if k == 0]
        if len(first_jobs) == len(VIABLE_FIG6_BINS):
            # The same payload the two-bin Figure 6 job 0 would give:
            # run_fig6 seeds every bin's sampler with the job seed.
            result.digest = digest([
                [_config_payload(r) for r in bucket] for bucket in first_jobs
            ])
        return result

    def verify(self, result: PassResult) -> None:
        from repro.experiments.harness import ConfigHarness

        for (low, high), k, bucket in self.jobs:
            where = f"bin ({low}, {high}) job {k}"
            if len(bucket) != 1:
                result.problems.append(f"{where}: {len(bucket)} configs")
                continue
            accepted = bucket[0]
            absent = accepted.config.absence_probability()
            if not low <= absent <= high:
                result.problems.append(f"{where}: absence {absent} off-bin")
            # Re-screen from scratch on the exact path: the accepted
            # config must pass the paper screen with probe != target.
            exact = ConfigHarness(accepted.config, self.spec(k).to_params())
            if not (exact.is_screened_in()
                    and exact.optimal_differs_from_target()
                    and exact.model_attacker.probes[0]
                    == accepted.optimal_probe):
                result.problems.append(f"{where}: fails the exact screen")
            if not all(0.0 <= a <= 1.0 for a in accepted.accuracies.values()):
                result.problems.append(f"{where}: accuracy outside [0, 1]")


def _config_payload(result: Any) -> Dict[str, Any]:
    return {
        "accuracies": result.accuracies,
        "optimal_probe": result.optimal_probe,
        "target": result.config.target_flow,
        "prior_absent": result.prior_absent,
    }


class SimNetwork(Workload):
    name = "sim-network"

    def setup(self) -> None:
        from repro.experiments.harness import ConfigHarness
        from repro.experiments.params import ExperimentParams
        from repro.flows.config import ConfigGenerator

        params = ExperimentParams(seed=PINNED_SEED, trial_mode="network")
        generator = ConfigGenerator(params.config, seed=PINNED_SEED)
        self.pinned = []
        for index in range(SIM_CONFIGS):
            config = generator.sample()
            harness = ConfigHarness(
                config, params,
                rng=np.random.default_rng([self.seed, 5, index]))
            self.pinned.append((config, harness.attackers()))
        self.trial_seeds = np.random.default_rng([self.seed, 3]).integers(
            2**63 - 1, size=100_000)

    def run(self, budget: Budget, gauge: HostGauge) -> PassResult:
        from repro.experiments import trials

        result = PassResult()
        self.results: List[Any] = []
        clock = time.perf_counter
        started = budget.start()
        now = started
        index = 0
        while not budget.done(index, now):
            config, lineup = self.pinned[index % len(self.pinned)]
            gauge.sample()
            before = clock()
            trial = trials.run_trial(
                config, lineup, int(self.trial_seeds[index]), mode="network")
            now = clock()
            result.latencies.append(now - before)
            self.results.append(trial)
            index += 1
        result.wall = now - started
        result.ops = index
        result.scaled = [
            d * f for d, f in zip(result.latencies, gauge.factors(index))]
        result.scaled_busy = sum(result.scaled)
        result.rss_mb = peak_rss_mb([])
        prefix = self.results[: len(self.pinned)]
        if len(prefix) == len(self.pinned):
            result.digest = digest([
                [t.ground_truth, t.decisions,
                 {k: list(v) for k, v in t.outcomes.items()}]
                for t in prefix
            ])
        return result

    def verify(self, result: PassResult) -> None:
        names = sorted(a.name for a in self.pinned[0][1])
        correct = dict.fromkeys(names, 0)
        for trial in self.results:
            if trial.ground_truth not in (0, 1) or sorted(
                    trial.decisions) != names:
                result.problems.append("malformed trial result")
                return
            for name in names:
                correct[name] += trial.correct(name)
        for name, hits in correct.items():
            accuracy = hits / max(1, len(self.results))
            if not 0.0 <= accuracy <= 1.0:
                result.problems.append(f"{name} accuracy {accuracy}")


class ServiceRecon(Workload):
    name = "service-recon"
    reference = "sparse"

    def spec(self, scenario_seed: int, job_id: str, targets: Any) -> Any:
        from repro.apispec import JobSpec

        return JobSpec(
            experiment="recon",
            seed=scenario_seed,
            trial_mode="table",
            n_probes=2,
            targets=tuple(int(t) for t in targets),
            shards=self.shards,
            job_id=job_id,
        )

    def setup(self) -> None:
        from repro.apispec import JobSpec
        from repro.flows.config import ConfigGenerator
        from repro.service import ReconService
        from repro.service.sessions import eligible_targets

        self.shards = os.cpu_count() or 1
        every_target = JobSpec(experiment="recon", n_targets=16)
        self.queue = []
        for k in range(SERVICE_QUEUE + 1):
            scenario_seed = derived_seed(PINNED_SEED, 2, k)
            scenario = ConfigGenerator(
                every_target.config, seed=scenario_seed).sample()
            eligible = eligible_targets(scenario, every_target)
            chooser = np.random.default_rng([self.seed, 4, k])
            count = min(SERVICE_TARGETS, len(eligible))
            self.queue.append((scenario_seed, chooser.choice(
                eligible, count, replace=False)))
        self.state = self.scratch / f"service-{os.getpid()}-{id(self)}"
        self.service = ReconService(self.state, shards=self.shards)
        # Warm-up job on a scenario the measured queue does not hold:
        # starts the pool and the lazily imported session path.
        warm_seed, warm_targets = self.queue.pop()
        self.service.submit(self.spec(warm_seed, "warmup", warm_targets[:1]))
        asyncio.run(self.service.drain())

    def run(self, budget: Budget, gauge: HostGauge) -> PassResult:
        from repro.service import service as service_module
        from repro.service.checkpoint import CheckpointStore

        starts: Dict[Any, float] = {}
        latencies: List[float] = []
        #: Each session's job (its index in ``job_walls``).
        session_jobs: List[int] = []
        job_walls: List[float] = []
        plan = service_module.plan_session
        write = CheckpointStore.write_session
        clock = time.perf_counter

        # A session runs from the start of its planning to the end of
        # its checkpoint write.
        def timed_plan(model, scenario, spec, index, target):
            starts[spec.job_id, index] = clock()
            return plan(model, scenario, spec, index, target)

        def timed_write(store, job_id, index, document):
            path = write(store, job_id, index, document)
            latencies.append(clock() - starts.pop((job_id, index)))
            session_jobs.append(len(job_walls))
            return path

        result = PassResult()
        self.rows: List[List[Any]] = []
        service = self.service

        async def client() -> None:
            for k, (scenario_seed, targets) in enumerate(self.queue):
                if budget.done(k, clock()):
                    return
                runs = []
                for repeat in range(SERVICE_REPEATS):
                    job_id = f"s{k}-r{repeat}"
                    done = len(latencies)
                    gauge.sample()
                    submitted = clock()
                    try:
                        service.submit(self.spec(scenario_seed, job_id, targets))
                        completed = await service.drain()
                    except Exception as exc:  # count the job, keep the report
                        result.failed += len(latencies) - done
                        result.problems.append(f"{job_id}: {exc!r}")
                        return
                    finally:
                        job_walls.append(clock() - submitted)
                    runs.append(completed[job_id]["series"]["sessions"])
                self.rows.append(runs)
                if len(self.rows) == SERVICE_RSS_SCENARIOS:
                    result.rss_mb = peak_rss_mb(self.child_pids())

        service_module.plan_session = timed_plan
        CheckpointStore.write_session = timed_write
        started = budget.start()
        try:
            asyncio.run(client())
        finally:
            service_module.plan_session = plan
            CheckpointStore.write_session = write
        result.wall = clock() - started
        result.ops = len(latencies)
        result.latencies = latencies
        factors = gauge.factors(len(job_walls))
        result.scaled = [
            d * factors[job] for d, job in zip(latencies, session_jobs)]
        result.scaled_busy = sum(w * f for w, f in zip(job_walls, factors))
        result.rss_mb = result.rss_mb or peak_rss_mb(self.child_pids())
        result.info = {"scenarios": len(self.rows)}
        if self.rows:
            result.digest = digest(self.rows[0][0])
        return result

    def verify(self, result: PassResult) -> None:
        for k, runs in enumerate(self.rows):
            if any(rows != runs[0] for rows in runs[1:]):
                result.problems.append(f"scenario {k}: resubmitted rows differ")
            for row in runs[0]:
                if not all(0.0 <= a <= 1.0 for a in row["accuracies"].values()):
                    result.problems.append(f"scenario {k}: accuracy off [0, 1]")

    def child_pids(self) -> List[int]:
        import multiprocessing

        return [child.pid for child in multiprocessing.active_children()]

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.state, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Fig6Screen, SimNetwork, ServiceRecon)}
