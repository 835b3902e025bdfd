"""Library code the workers call."""

from repro.obs import get_instrumentation


def record(value):
    # Sanctioned under the executor: each item runs under a fresh
    # backend whose counters the executor ships home.
    get_instrumentation().metrics.counter("helper.calls").inc()
    return value
