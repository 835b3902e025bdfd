"""Contract suite for the fork executor (repro.exec).

Every fan-out in the repository rides on :class:`ForkExecutor`, so its
contract is pinned once here: item order for every ``jobs``, pooled
results bit-identical to the in-parent run, a broken pool counted once
and retired with its batch re-run in the parent, worker counter deltas
equal to the in-parent totals, and no worker context left in the
parent's module state.
"""

import os

import numpy as np
import pytest

import repro.exec as exec_mod
from repro.exec import ForkExecutor, fork_map
from repro.obs import Instrumentation, counter_inc, use_instrumentation


def _affine(context, item):
    scale, offset = context
    return scale * item + offset


def _noise(context, item):
    """Float work whose bits would expose any reordering or re-seeding."""
    draws = np.random.default_rng([context, item]).standard_normal(64)
    return float(np.cumsum(draws * 1e-3).sum()), draws


def _counting(context, item):
    counter_inc("exec.items")
    counter_inc("exec.weight", item * context)
    if item % 2:
        counter_inc("exec.odd")
    return item


def _pid(context, item):
    return os.getpid()


def _exploding_work(task):
    raise RuntimeError("worker crashed mid-item")


class _BrokenContext:
    """Stands in for the fork context; every pool creation dies."""

    def Pool(self, *args, **kwargs):
        raise BrokenPipeError("simulated pool death")


class _NoPoolContext:
    """Fails the test if anything asks it for a pool."""

    def Pool(self, *args, **kwargs):
        raise AssertionError("the in-parent path created a pool")


ITEMS = list(range(11))


class TestOrderAndIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_in_item_order(self, jobs):
        results = fork_map(_affine, (3, 1), ITEMS, jobs=jobs)
        assert results == [3 * item + 1 for item in ITEMS]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_pool_run_bit_identical_to_in_parent_run(self, jobs):
        in_parent = fork_map(_noise, 5, ITEMS, jobs=1)
        pooled = fork_map(_noise, 5, ITEMS, jobs=jobs)
        assert [total for total, _ in pooled] == [
            total for total, _ in in_parent
        ]
        for (_, a), (_, b) in zip(in_parent, pooled):
            assert a.tobytes() == b.tobytes()

    def test_empty_batch(self):
        assert fork_map(_affine, (1, 0), [], jobs=3) == []

    def test_open_executor_reuses_its_workers(self):
        with ForkExecutor(_pid, None, jobs=2) as executor:
            first = set(executor.map(range(8)))
            second = set(executor.map(range(8)))
            assert executor.pooled
        # Which worker serves which item is up to the scheduler (one
        # worker may take a whole batch), so assert only what reuse
        # guarantees: no batch ran in the parent, and the two batches
        # together saw no more than ``jobs`` distinct workers -- a pool
        # that respawned between batches would show up to four.
        assert os.getpid() not in first | second
        assert len(first | second) <= 2


class TestFallback:
    def test_broken_pool_counted_once_and_retired(self, monkeypatch):
        monkeypatch.setattr(exec_mod, "_fork_context", _BrokenContext)
        backend = Instrumentation()
        with use_instrumentation(backend):
            with ForkExecutor(
                _affine, (2, 0), jobs=2, fallback_counter="test.fallbacks"
            ) as executor:
                first = executor.map(ITEMS)
                assert not executor.pooled
                second = executor.map(ITEMS)
        expected = [2 * item for item in ITEMS]
        assert first == expected and second == expected
        assert executor.fallbacks == 1
        assert backend.metrics.counter("test.fallbacks").value == 1

    def test_worker_exception_reruns_the_batch_in_parent(self, monkeypatch):
        monkeypatch.setattr(exec_mod, "_work", _exploding_work)
        backend = Instrumentation()
        with use_instrumentation(backend):
            with ForkExecutor(
                _counting, 1, jobs=2, fallback_counter="test.fallbacks"
            ) as executor:
                results = executor.map(ITEMS)
                again = executor.map(ITEMS)
        assert results == ITEMS and again == ITEMS
        assert executor.fallbacks == 1
        counters = backend.metrics.to_document()["counters"]
        assert counters["test.fallbacks"] == 1
        # Only the in-parent re-runs counted: the crashed pool's items
        # left no trace.
        assert counters["exec.items"] == 2 * len(ITEMS)

    def test_no_fallback_counter_is_fine(self, monkeypatch):
        monkeypatch.setattr(exec_mod, "_fork_context", _BrokenContext)
        assert fork_map(_affine, (1, 1), ITEMS, jobs=2) == [
            item + 1 for item in ITEMS
        ]


class TestCounters:
    def _counters(self, jobs):
        backend = Instrumentation()
        with use_instrumentation(backend):
            fork_map(_counting, 3, ITEMS, jobs=jobs)
        return backend.metrics.to_document()["counters"]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_deltas_equal_in_parent_totals(self, jobs):
        serial = self._counters(1)
        assert serial["exec.items"] == len(ITEMS)
        assert self._counters(jobs) == serial

    def test_disabled_parent_collects_nothing(self):
        assert fork_map(_counting, 3, ITEMS, jobs=2) == ITEMS


class TestModuleState:
    @pytest.mark.parametrize("jobs", [0, 1])
    def test_in_parent_path_never_builds_a_pool(self, jobs, monkeypatch):
        monkeypatch.setattr(exec_mod, "_fork_context", _NoPoolContext)
        with ForkExecutor(_affine, (1, 0), jobs=jobs) as executor:
            assert executor.map(ITEMS) == ITEMS
            assert not executor.pooled
        assert exec_mod._WORKER is None

    def test_pooled_path_leaves_parent_state_clean(self):
        fork_map(_affine, (1, 0), ITEMS, jobs=2)
        assert exec_mod._WORKER is None
