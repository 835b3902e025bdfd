"""PAR001 fixture: workers handed to the fork executor (repro.exec).

Never imported -- parsed by the lint tests.  Lines carrying a
``expect[RULE]`` marker must produce exactly that finding.  The worker
is ``fn``, whatever the variable holding the executor is called.
"""

import numpy as np

from repro.exec import ForkExecutor, fork_map
from repro.obs import get_instrumentation

SHARED_RNG = np.random.default_rng(7)


def _rng_capturing_worker(context, item):
    return item + float(SHARED_RNG.random())  # expect[PAR001]


def _ambient_obs_worker(context, item):
    get_instrumentation().metrics.counter("worker.items").inc()  # expect[PAR001]
    return item


def _clean_worker(context, item):
    # ``context`` is the sanctioned fork-inherited channel.
    scale, seed = context
    return item * scale + float(np.random.default_rng([seed, item]).random())


def fan_out(items):
    results = fork_map(_rng_capturing_worker, None, items, jobs=2)
    with ForkExecutor(_ambient_obs_worker, None, jobs=2) as runner:
        results += runner.map(items)
    return results + fork_map(
        fn=_clean_worker, context=(2, 7), items=items, jobs=2
    )
