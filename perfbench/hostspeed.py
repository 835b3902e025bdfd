"""Host-speed gauge: fixed reference work timed next to the program.

On a shared host the same inputs can run 40% slower from one minute to
the next, and process CPU time slows down with wall time, so neither
clock measures the program alone.  What does track the slowdown is a
fixed piece of reference work of the same kind, timed right next to
each operation.  Two references cover the workloads:

* ``interpreted`` -- heap events, dict counts and small tuples, shaped
  like the packet simulator.  On identical sim-network inputs whose
  trials ran between 48 and 75 ms, trial time over the adjacent
  reference time stayed within 1.5%.
* ``sparse`` -- float32 CSR matrix-vector products, shaped like the
  screening kernel and the power chains.  Native kernels slow down
  less than the interpreter on a busy host: on identical fig6-screen
  work, time over the interpreted reference varied by 11% from run to
  run, time over this one by 5%.

A :class:`HostGauge` times its reference once per operation (or per
job), outside the operation's own timing.  Each operation's duration is
then rescaled to the reference speed: multiplied by the reference's
nominal time over the median of the nearby reference samples.  A
program change moves the operation's time but not the reference, so a
real speed-up or slow-down still shows in full; a host slowdown moves
both and cancels.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Reference samples on each side of an operation whose median sets its
#: scale factor; the median drops samples hit by an interrupt.
WINDOW = 2

_VECTOR = np.arange(256, dtype=np.float64)


def interpreted() -> float:
    """Fixed work shaped like the simulator's: heap events, dict counts,
    small tuples and a small numpy reduction every 16 steps."""
    heap: list = []
    table: dict = {}
    total = 0.0
    for step in range(1200):
        key = (step * 7919) % 97
        heapq.heappush(heap, (key * 0.5, step, ("pkt", key)))
        table[key] = table.get(key, 0) + 1
        if len(heap) > 32:
            when, _, packet = heapq.heappop(heap)
            total += when + table[packet[1]]
        if step % 16 == 0:
            total += float((_VECTOR * (step % 5)).sum())
    return total


_SPARSE: List[Tuple[object, np.ndarray]] = []


def sparse() -> float:
    """Ten float32 CSR matrix-vector products (2500 states, 100k
    nonzeros), shaped like the screening kernel's powering."""
    if not _SPARSE:
        import scipy.sparse

        matrix = scipy.sparse.random(
            2500, 2500, density=0.016, format="csr", dtype=np.float32,
            random_state=1)
        start = np.random.default_rng(0).random(2500, dtype=np.float32)
        _SPARSE.append((matrix, start))
    matrix, vector = _SPARSE[0]
    for _ in range(10):
        vector = matrix @ vector
    return float(vector[0])


#: Each reference and its duration (s) at the reference speed: about
#: its time on an uncontended 2.1 GHz Xeon vCPU.  Rescaled durations
#: read as they would on that host.
REFERENCES: Dict[str, Tuple[Callable[[], float], float]] = {
    "interpreted": (interpreted, 1.1e-3),
    "sparse": (sparse, 1.0e-3),
}


class HostGauge:
    """Reference samples taken between operations, and the scale factors
    that turn operation durations into durations at the reference speed.

    A disabled gauge takes no samples and scales by 1 (fixed-work passes
    keep their timings raw, so the gauge's own time is not attributed to
    the program).
    """

    def __init__(self, reference: str, enabled: bool = True) -> None:
        self.work, self.nominal = REFERENCES[reference]
        self.enabled = enabled
        self.samples: List[float] = []
        if enabled:  # first calls build the matrix and warm the interpreter
            for _ in range(3):
                self.work()

    def sample(self) -> None:
        """Time one reference call (a no-op when disabled)."""
        if not self.enabled:
            return
        started = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - started)

    def factors(self, count: int) -> List[float]:
        """Scale factor of each of ``count`` operations, the ``i``-th
        taken next to sample ``i`` (1 for all when nothing was sampled)."""
        if not self.samples:
            return [1.0] * count
        if len(self.samples) != count:
            raise ValueError(f"{len(self.samples)} samples for {count} operations")
        return [
            self.nominal / statistics.median(
                self.samples[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(count)
        ]

    def scale(self) -> float:
        """Scale factor of the whole sample (1 when nothing was sampled)."""
        if not self.samples:
            return 1.0
        return self.nominal / statistics.median(self.samples)

    def median_ms(self) -> float:
        """Median reference time in ms (0 when nothing was sampled)."""
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0
