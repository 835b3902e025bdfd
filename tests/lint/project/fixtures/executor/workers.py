"""Workers dispatched through the executor from another module."""

from executor.helpers import record
from executor.state import SHARED_RNG
from repro.obs import get_instrumentation


def noisy(context, item):
    return record(item) + float(SHARED_RNG.random())  # expect[PAR101]


def observed(context, item):
    obs = get_instrumentation()  # expect[PAR101]
    obs.metrics.counter("worker.items").inc()
    return record(item)


def scaled(context, item):
    # ``context`` is the sanctioned fork-inherited channel.
    return record(item * context)
