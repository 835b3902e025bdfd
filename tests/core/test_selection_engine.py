"""Differential suite: the probe-scoring engine ≡ the serial path.

The engine (`repro.core.engine.ProbeScoringEngine`) replaces the serial
dict-walk candidate loops with cached prefix distributions and batched
matrix scoring.  These tests pin it to the original implementation
(kept as ``best_single_probe_serial`` / ``best_probe_set_serial``):
same chosen probes, gains within 1e-12, across randomized policies,
cache sizes, windows, and exclusion sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference
from repro.core.probe import walk_probes
from repro.core.selection import (
    best_probe_set,
    best_probe_set_serial,
    best_single_probe,
    best_single_probe_serial,
)
from tests.conftest import make_policy, make_universe

ATOL = 1e-12

#: ≥ 20 randomized configurations (acceptance criterion).
SEEDS = list(range(24))


def random_setup(seed: int):
    """One random tiny configuration: (model, target, window_steps)."""
    rng = np.random.default_rng(1000 + seed)
    n_flows = int(rng.integers(3, 7))
    n_rules = int(rng.integers(2, 5))
    rates = rng.uniform(0.05, 1.2, size=n_flows)

    universe = make_universe(rates)
    specs = []
    for _ in range(n_rules):
        size = int(rng.integers(1, n_flows + 1))
        covered = set(
            int(f) for f in rng.choice(n_flows, size=size, replace=False)
        )
        timeout = int(rng.integers(3, 9))
        specs.append((covered, timeout))
    policy = make_policy(specs)

    cache_size = int(rng.integers(1, min(3, n_rules) + 1))
    window_steps = int(rng.integers(5, 26))
    delta = float(rng.uniform(0.02, 0.1))
    model = CompactModel(
        policy,
        universe,
        delta,
        cache_size,
        multi_expiry=bool(seed % 2),
    )
    target = int(rng.integers(n_flows))
    return model, target, window_steps


def outcome_index(outcome):
    """Map an outcome tuple to its prefix-distribution row (MSB-first)."""
    index = 0
    for bit in outcome:
        index = (index << 1) | bit
    return index


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_serial(seed):
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    serial_inf = ReconInference(model, target, window)
    engine_inf = ReconInference(model, target, window)

    serial = best_single_probe_serial(serial_inf)
    fast = best_single_probe(engine_inf)
    assert fast.probes == serial.probes
    assert fast.gain == pytest.approx(serial.gain, abs=ATOL)

    for method in ("exhaustive", "greedy"):
        serial_set = best_probe_set_serial(serial_inf, 2, method=method)
        fast_set = best_probe_set(engine_inf, 2, method=method)
        assert fast_set.probes == serial_set.probes, method
        assert fast_set.gain == pytest.approx(serial_set.gain, abs=ATOL)

    if n_flows >= 4:
        serial_three = best_probe_set_serial(serial_inf, 3, method="greedy")
        fast_three = best_probe_set(engine_inf, 3, method="greedy")
        assert fast_three.probes == serial_three.probes
        assert fast_three.gain == pytest.approx(serial_three.gain, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS[:12])
def test_engine_matches_serial_restricted_candidates(seed):
    """Candidate subsets (the constrained attacker's case) also agree."""
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    candidates = [f for f in range(n_flows) if f != target]
    serial_inf = ReconInference(model, target, window)
    engine_inf = ReconInference(model, target, window)

    serial = best_single_probe_serial(serial_inf, candidates)
    fast = best_single_probe(engine_inf, candidates=candidates)
    assert fast.probes == serial.probes
    assert fast.gain == pytest.approx(serial.gain, abs=ATOL)

    if len(candidates) >= 2:
        serial_set = best_probe_set_serial(serial_inf, 2, candidates)
        fast_set = best_probe_set(engine_inf, 2, candidates=candidates)
        assert fast_set.probes == serial_set.probes
        assert fast_set.gain == pytest.approx(serial_set.gain, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_distribution_matches_walk(seed):
    """Cached prefix rows ≡ the dict frontier walk, outcome by outcome.

    Covers the empty exclusion, the target exclusion, and an arbitrary
    two-flow exclusion set -- the full keying of the shared cache.
    """
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    inference = ReconInference(model, target, window)
    rng = np.random.default_rng(5000 + seed)
    prefix = tuple(
        int(f) for f in rng.choice(n_flows, size=min(3, n_flows), replace=False)
    )
    exclusions = [(), (target,), tuple(sorted({target, (target + 1) % n_flows}))]
    for exclusion in exclusions:
        base = inference.evolution(exclusion)
        weights = {
            model.states[i]: float(base[i])
            for i in np.nonzero(base > 1e-15)[0]
        }
        expected = walk_probes(model, weights, prefix)
        rows = inference.prefix_distribution(prefix, exclusion=exclusion)
        assert rows.shape == (2 ** len(prefix), model.n_states)
        row_masses = rows.sum(axis=1)
        for outcome, mass in expected.items():
            assert row_masses[outcome_index(outcome)] == pytest.approx(
                mass, abs=ATOL
            )
        # Rows without a dict entry carry (at most pruning-level) mass.
        seen = {outcome_index(outcome) for outcome in expected}
        for row in range(rows.shape[0]):
            if row not in seen:
                assert row_masses[row] == pytest.approx(0.0, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_sequence_gain_matches_information_gain(seed):
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    inference = ReconInference(model, target, window)
    engine = ProbeScoringEngine(inference)
    rng = np.random.default_rng(9000 + seed)
    for length in (1, 2, 3):
        probes = tuple(
            int(f)
            for f in rng.choice(n_flows, size=min(length, n_flows), replace=False)
        )
        assert engine.sequence_gain(probes) == pytest.approx(
            inference.information_gain(probes), abs=ATOL
        )


def test_stats_populated():
    model, target, window = random_setup(0)
    inference = ReconInference(model, target, window)
    choice = best_probe_set(inference, 2, method="exhaustive")
    stats = choice.stats
    assert stats is not None
    assert stats.evolutions == 2  # full + target-excluded, shared after
    assert stats.sequences_scored > 0
    assert stats.batches > 0
    assert stats.cache_misses > 0
    assert "total" in stats.wall_times
    # A second selection on the same inference reuses the caches.
    engine = ProbeScoringEngine(inference)
    again = engine.best_set(2, method="exhaustive")
    assert engine.stats.evolutions == 2
    assert engine.stats.cache_hits > 0
    assert again[0] == choice.probes


def test_shared_engine_across_calls():
    """Explicitly passing an engine reuses it (and its stats)."""
    model, target, window = random_setup(3)
    inference = ReconInference(model, target, window)
    engine = ProbeScoringEngine(inference)
    first = best_single_probe(inference, engine=engine)
    second = best_probe_set(inference, 2, engine=engine)
    assert first.stats is engine.stats
    assert second.stats is engine.stats


def test_pooled_selection_keeps_worker_obs_counters():
    """Worker-side kernel counters reach the parent's backend.

    Workers can only repeat prefix work the serial run shares, so the
    pooled ``kernel.sparse.matvecs`` total can never fall below the
    serial one (the pool once dropped every worker increment: 3000
    against 3896 on this configuration).
    """
    from repro.experiments.params import ExperimentParams
    from repro.flows.config import ConfigGenerator
    from repro.obs import Instrumentation, use_instrumentation

    params = ExperimentParams()
    config = ConfigGenerator(params.config, seed=2017).sample()
    outcomes = {}
    for n_jobs in (1, 2):
        backend = Instrumentation()
        with use_instrumentation(backend):
            model = CompactModel(
                config.policy,
                config.universe,
                config.delta,
                config.cache_size,
                kernel=params.kernel,
            )
            inference = ReconInference(
                model, config.target_flow, config.window_steps
            )
            engine = ProbeScoringEngine(inference, n_jobs=n_jobs)
            probes, gain = engine.best_set(3)
        matvecs = backend.metrics.counter("kernel.sparse.matvecs").value
        outcomes[n_jobs] = (probes, gain, matvecs)
    serial, pooled = outcomes[1], outcomes[2]
    assert pooled[:2] == serial[:2]
    assert serial[2] > 0
    assert pooled[2] >= serial[2]
