"""Executor dispatches; no variable here is named after a pool."""

from executor.workers import noisy, observed, scaled
from repro.exec import ForkExecutor, fork_map


def run(items):
    first = fork_map(noisy, None, items, jobs=2)
    with ForkExecutor(observed, None, jobs=2) as runner:
        second = runner.map(items)
    return first + second + fork_map(scaled, 3, items, jobs=2)
