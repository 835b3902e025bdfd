"""The scoring engine degrades to serial when the fork pool dies.

A crashed worker (OOM-killed fork, broken pipe, an exception escaping
the map) must not take the experiment down: ``ProbeScoringEngine._map``
re-scores the whole batch serially in the parent and counts the
fallback, and ``batched_conditional_gains`` does the same for the
adaptive path.  Scoring is pure, so the fallback results are identical
to what the pool would have returned.
"""

import numpy as np
import pytest

import repro.core.engine as engine_mod
import repro.exec as exec_mod
from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine, batched_conditional_gains
from repro.core.inference import ReconInference
from repro.obs import Instrumentation, use_instrumentation

from tests.conftest import make_policy, make_universe


class _BrokenContext:
    """A multiprocessing context whose pool always dies."""

    def Pool(self, *args, **kwargs):
        raise BrokenPipeError("worker died during fork")


@pytest.fixture
def inference():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5), ({1, 3}, 7)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    model = CompactModel(policy, universe, 0.25, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=20)


class TestEngineFallback:
    def test_broken_pool_falls_back_to_serial(self, inference, monkeypatch):
        serial = ProbeScoringEngine(
            ReconInference(
                inference.model, inference.target_flow, inference.window_steps
            ),
            n_jobs=1,
        )
        expected = serial.score_tails((), (0, 1, 2, 3))

        # Small blocks force >= 2 work items, so the pool branch (and
        # therefore the fallback) actually engages at this tiny size.
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(exec_mod, "_fork_context", _BrokenContext)
        backend = Instrumentation()
        with use_instrumentation(backend):
            pooled = ProbeScoringEngine(inference, n_jobs=2)
            gains = pooled.score_tails((), (0, 1, 2, 3))
        np.testing.assert_allclose(gains, expected, atol=1e-12)
        assert pooled.stats.pool_fallbacks == 1
        assert backend.metrics.counter("engine.pool.fallbacks").value == 1

    def test_fallback_is_recorded_in_stats_rows(self, inference, monkeypatch):
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(exec_mod, "_fork_context", _BrokenContext)
        engine = ProbeScoringEngine(inference, n_jobs=2)
        engine.score_tails((), (0, 1, 2, 3))
        rows = dict(engine.stats.rows())
        assert rows["pool fallbacks"] == 1

    def test_healthy_serial_path_never_counts_fallbacks(self, inference):
        engine = ProbeScoringEngine(inference, n_jobs=1)
        engine.score_tails((), (0, 1, 2, 3))
        assert engine.stats.pool_fallbacks == 0


class TestAdaptiveFallback:
    def test_batched_conditional_gains_falls_back(self, monkeypatch):
        policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
        universe = make_universe([0.3, 0.4, 0.5])
        model = CompactModel(policy, universe, 0.25, cache_size=2)
        inference = ReconInference(model, target_flow=0, window_steps=10)
        base = inference.evolution(())
        weights_full = {
            model.states[i]: float(base[i])
            for i in np.nonzero(base > 1e-15)[0]
        }
        absent = inference.evolution((inference.target_flow,))
        weights_absent = {
            model.states[i]: float(absent[i])
            for i in np.nonzero(absent > 1e-15)[0]
        }
        flows = (0, 1, 2)
        expected = batched_conditional_gains(
            model, weights_full, weights_absent, flows, n_jobs=1
        )

        # Force multiple blocks so the pool branch engages, then break it.
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(exec_mod, "_fork_context", _BrokenContext)
        backend = Instrumentation()
        with use_instrumentation(backend):
            gains = batched_conditional_gains(
                model, weights_full, weights_absent, flows, n_jobs=2
            )
        np.testing.assert_allclose(gains, expected, atol=1e-12)
        assert backend.metrics.counter("engine.pool.fallbacks").value == 1
