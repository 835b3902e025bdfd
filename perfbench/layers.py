"""Which entry points the traced pass wraps, and the per-layer metrics.

Every wrapped name is public API of its module or class.  One private
attribute is read, never written, to size work: ``TransitionOperator._csr_t``
for the non-zeros a power chain walks.  What each metric means and
which end-to-end metric it should move is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import os
from typing import Any, Dict

import numpy as np

from spans import LAYERS, Tracer, percentile_ms

#: Program obs counters that must equal a wrapper-side count
#: (wrapper metric, obs counter).  Equality shows the wrappers sit on
#: the same boundaries the program counts at.
CROSS_CHECKS = (
    ("fastscreen.certified_rejects", "experiment.fastscreen_rejects"),
    ("chain.matvecs", "kernel.sparse.matvecs"),
    ("harness.builds", "experiment.harnesses_built"),
)
#: Only the screening loop counts sampled configurations, so this check
#: applies where every sample is a screening candidate (fig6-screen).
SAMPLE_CHECK = ("flows.sample.calls", "experiment.configs_sampled")


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.uninstall``)."""
    from repro.core import cnative, transition_build
    from repro.core.chain import TransitionOperator
    from repro.core.compact_model import CompactModel
    from repro.core.engine import ProbeScoringEngine
    from repro.core.inference import ReconInference
    from repro.experiments import fastscreen
    from repro.experiments import fig6 as fig6_module
    from repro.experiments import harness as harness_module
    from repro.experiments import trials as trials_module
    from repro.experiments.harness import ConfigHarness
    from repro.flows.config import ConfigGenerator
    from repro.service import service as service_module
    from repro.service.checkpoint import CheckpointStore
    from repro.service.pool import SessionPool
    from repro.service.service import ReconService
    from repro.simulator.events import Simulator

    groups = tracer.groups

    def add(group: str, key: str, value: float) -> None:
        groups[group].extra[key] += value

    tracer.wrap(ConfigGenerator, "sample", "flows.sample", "flows")

    tracer.wrap(
        fastscreen, "screen_candidate", "fastscreen", "fastscreen",
        after=lambda _t, outcome, *a, **k: add(
            "fastscreen", "certified_rejects", int(outcome.certified_reject)
        ),
    )

    def pair_chain_work(_t: Any, _r: Any, indptr_a, indices_a, data_a,
                        indptr_b, indices_b, data_b, x0, steps) -> None:
        add("cnative", "nnz_steps", (len(data_a) + len(data_b)) * int(steps))

    tracer.wrap(cnative, "pair_chain_f32", "cnative", "cnative",
                after=pair_chain_work)
    tracer.wrap(transition_build, "build_entries", "transition_build",
                "transition_build")

    def model_built(*_a: Any, **_k: Any) -> None:
        # The service builds a model only on a scenario-cache miss.
        if tracer.is_open("service.drain"):
            add("service.drain", "model_builds", 1)

    tracer.wrap(CompactModel, "__init__", "compact_model.init",
                "compact_model", after=model_built)
    tracer.wrap(CompactModel, "transition_matrix",
                "compact_model.transition_matrix", "compact_model")

    def power_work(_t: Any, _r: Any, operator, distribution, steps) -> None:
        # Mirrors the kernel.sparse.matvecs counter: sparse operators
        # only, one matvec per step per stacked row.
        matrix = getattr(operator, "_csr_t", None)
        if matrix is None or steps <= 0:
            return
        rows = 1 if np.ndim(distribution) == 1 else distribution.shape[0]
        add("chain.power", "matvecs", steps * rows)
        add("chain.power", "nnz_steps", matrix.nnz * steps * rows)

    tracer.wrap(TransitionOperator, "power", "chain.power", "chain",
                after=power_work)
    tracer.wrap(ReconInference, "evolution", "inference.evolution",
                "inference")

    def scored(engine: Any, *_a: Any, **_k: Any) -> int:
        return engine.stats.sequences_scored

    def sequences(before: int, _r: Any, engine: Any, *_a: Any,
                  **_k: Any) -> None:
        add("engine", "sequences", engine.stats.sequences_scored - before)

    for method in ("best_single", "best_set"):
        tracer.wrap(ProbeScoringEngine, method, "engine", "engine",
                    before=scored, after=sequences)

    tracer.wrap(ConfigHarness, "__init__", "harness.build", "harness")
    tracer.wrap(ConfigHarness, "run_trials", "harness.run_trials", "harness")

    def screen_start(*_a: Any, **_k: Any) -> tuple:
        return groups["flows.sample"].calls, groups["harness.build"].calls

    def screen_done(start: tuple, accepted: list, *_a: Any, **_k: Any) -> None:
        samples, builds = start
        add("harness.screen", "candidates",
            groups["flows.sample"].calls - samples)
        add("harness.screen", "accepted", len(accepted))
        add("harness.screen", "exact_rejects",
            groups["harness.build"].calls - builds - len(accepted))

    # run_fig6 binds the screening loop by name at import.
    tracer.wrap(fig6_module, "sample_screened_harnesses", "harness.screen",
                "harness", before=screen_start, after=screen_done)

    # ConfigHarness.run_trials binds run_trial by name at import; the
    # benchmark's own trial loop calls it through the trials module.
    for module in (trials_module, harness_module):
        tracer.wrap(module, "run_trial", "trials", "trials")

    def events_before(sim: Any, *_a: Any, **_k: Any) -> int:
        return sim.events_run

    def events_after(before: int, _r: Any, sim: Any, *_a: Any,
                     **_k: Any) -> None:
        add("simulator", "events", sim.events_run - before)

    tracer.wrap(Simulator, "run_until", "simulator", "simulator",
                before=events_before, after=events_after)
    # Probe waits single-step the clock; counted, not spanned (hot).
    tracer.count(Simulator, "step", "simulator", "simulator",
                 after=lambda _t, ran, *a, **k: add(
                     "simulator", "events", int(bool(ran))))

    tracer.wrap(service_module, "plan_session", "service.plan", "service")
    tracer.wrap(SessionPool, "run_sessions", "service.pool", "service")
    tracer.wrap(
        CheckpointStore, "write_session", "service.checkpoint", "service",
        after=lambda _t, path, *a, **k: add(
            "service.checkpoint", "bytes", os.path.getsize(path)),
    )
    tracer.wrap(ReconService, "drain", "service.drain", "service")


def per_layer(
    tracer: Tracer,
    *,
    wall: float,
    counters: Dict[str, int],
    recon_jobs: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is idle)."""
    g = tracer.groups

    def calls(name: str) -> float:
        return float(g[name].calls)

    def busy(name: str) -> float:
        return g[name].busy

    def extra(name: str, key: str) -> float:
        return float(g[name].extra.get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    screen = "harness.screen"
    out: Dict[str, float] = {
        "flows.sample.calls": calls("flows.sample"),
        "flows.sample.busy_s": busy("flows.sample"),
        "fastscreen.calls": calls("fastscreen"),
        "fastscreen.busy_s": busy("fastscreen"),
        "fastscreen.p50_ms": percentile_ms(g["fastscreen"].durations, 50),
        "fastscreen.p90_ms": percentile_ms(g["fastscreen"].durations, 90),
        "fastscreen.certified_rejects": extra("fastscreen",
                                              "certified_rejects"),
        "fastscreen.fallbacks": calls("fastscreen")
        - extra("fastscreen", "certified_rejects"),
        "fastscreen.certified_frac": ratio(
            extra("fastscreen", "certified_rejects"), calls("fastscreen")),
        "cnative.calls": calls("cnative"),
        "cnative.busy_s": busy("cnative"),
        "cnative.nnz_steps": extra("cnative", "nnz_steps"),
        "cnative.ns_per_nnz_step": ratio(
            busy("cnative") * 1e9, extra("cnative", "nnz_steps")),
        "transition_build.calls": calls("transition_build"),
        "transition_build.busy_s": busy("transition_build"),
        "transition_build.ms_per_call": ratio(
            busy("transition_build") * 1e3, calls("transition_build")),
        "compact_model.init.calls": calls("compact_model.init"),
        "compact_model.init.busy_s": busy("compact_model.init"),
        "compact_model.transition_matrix.calls": calls(
            "compact_model.transition_matrix"),
        "compact_model.transition_matrix.busy_s": busy(
            "compact_model.transition_matrix"),
        "chain.power.calls": calls("chain.power"),
        "chain.matvecs": extra("chain.power", "matvecs"),
        "chain.busy_s": busy("chain.power"),
        "chain.ns_per_nnz_step": ratio(
            busy("chain.power") * 1e9, extra("chain.power", "nnz_steps")),
        "inference.evolution.calls": calls("inference.evolution"),
        "inference.evolution.busy_s": busy("inference.evolution"),
        "engine.calls": calls("engine"),
        "engine.busy_s": busy("engine"),
        "engine.sequences_per_s": ratio(extra("engine", "sequences"),
                                        busy("engine")),
        "harness.builds": calls("harness.build"),
        "harness.build_busy_s": busy("harness.build"),
        "harness.exact_rejects": extra(screen, "exact_rejects"),
        "screen.candidates_per_accepted": ratio(
            extra(screen, "candidates"), extra(screen, "accepted")),
        "trials.calls": calls("trials"),
        "trials.busy_s": busy("trials"),
        "trials.p50_ms": percentile_ms(g["trials"].durations, 50),
        "trials.p90_ms": percentile_ms(g["trials"].durations, 90),
        "simulator.events": extra("simulator", "events"),
        "simulator.busy_s": busy("simulator"),
        "simulator.events_per_s": ratio(extra("simulator", "events"),
                                        busy("simulator")),
        "service.plan.calls": calls("service.plan"),
        "service.plan.busy_s": busy("service.plan"),
        "service.plan_p50_ms": percentile_ms(g["service.plan"].durations, 50),
        "service.plan_p90_ms": percentile_ms(g["service.plan"].durations, 90),
        "service.pool.calls": calls("service.pool"),
        "service.pool.busy_s": busy("service.pool"),
        "service.pool.fallbacks": float(counters.get(
            "service.pool.fallbacks", 0)),
        "service.checkpoint.writes": calls("service.checkpoint"),
        "service.checkpoint.busy_s": busy("service.checkpoint"),
        "service.checkpoint.bytes": extra("service.checkpoint", "bytes"),
        "service.model_builds": extra("service.drain", "model_builds"),
        "service.model_cache_hit_frac": ratio(
            recon_jobs - extra("service.drain", "model_builds"), recon_jobs),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_time.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["unattributed_s"] = wall - tracer.root_time()
    return out


def counter_mismatches(
    metrics: Dict[str, float], counters: Dict[str, int], screening: bool
) -> Dict[str, tuple]:
    """Cross-checks whose wrapper count differs from the program's count."""
    checks = CROSS_CHECKS + ((SAMPLE_CHECK,) if screening else ())
    return {
        ours: (metrics[ours], counters.get(theirs, 0))
        for ours, theirs in checks
        if metrics[ours] != counters.get(theirs, 0)
    }
