"""One workload in a fresh interpreter; prints its raw figures as JSON.

``run.py`` starts this script once per set-up measurement and once per
measured run; it is not meant to be called by hand.  Roles:

* ``prepare`` -- load (compiling on first use) the native kernel and
  import every module the workloads touch, untimed, then print the
  resolved environment;
* ``setup`` -- build the workload's inputs and exit;
* ``measure`` -- build the inputs, then run one pass of the workload:
  until ``--seconds`` have passed, or with ``--fixed-work`` over an
  amount of work that the seed and ``--seconds`` fix; ``--trace 1``
  wraps every layer's entry points and records the program's obs
  counters for the per-layer metrics.

Both roles time the workload's host-speed reference ``SETUP_SAMPLES``
times before and after set-up, so that ``run.py`` can rescale the
set-up time to the reference speed.  Timed passes sample a gauge between
operations; fixed-work passes (traced or not) keep raw timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hostspeed import HostGauge  # noqa: E402
from spans import percentile_ms  # noqa: E402
from workloads import WORKLOADS, Budget, PassResult  # noqa: E402

#: Reference samples taken on each side of set-up.
SETUP_SAMPLES = 5


def summary(result: PassResult) -> dict:
    return {
        "ops": result.ops,
        "failed": result.failed,
        "wall": result.wall,
        "scaled_busy": result.scaled_busy,
        "p50_ms": percentile_ms(result.scaled, 50),
        "p75_ms": percentile_ms(result.scaled, 75),
        "digest": result.digest,
        "problems": result.problems,
        "info": result.info,
    }


def prepare() -> dict:
    from repro.core import cnative
    from repro.core.kernels import resolve_kernel
    from repro.core.simpath import resolve_simpath
    from repro.experiments import fastscreen
    from repro.experiments.params import ExperimentParams

    import layers  # noqa: F401  (imports every traced module)

    return {
        "kernel": resolve_kernel().describe(),
        "simpath": resolve_simpath().describe(),
        "simd": cnative.simd_level(),
        "ckernel_error": cnative.load_error(),
        "fastscreen_supported": fastscreen.supports(ExperimentParams()),
        "nproc": os.cpu_count(),
    }


def measure(args: argparse.Namespace) -> dict:
    kind = WORKLOADS[args.workload]
    started = time.monotonic()
    setup_gauge = HostGauge(kind.reference)
    for _ in range(SETUP_SAMPLES):
        setup_gauge.sample()
    inside = time.monotonic() - started
    workload = kind(args.seed, args.scratch)
    workload.setup()
    setup_done = time.monotonic()
    for _ in range(SETUP_SAMPLES):
        setup_gauge.sample()
    setup = {"setup_done": setup_done, "setup_gauge_inside_s": inside,
             "setup_scale": setup_gauge.scale()}
    if args.role == "setup":
        workload.close()
        return setup
    if args.fixed_work:
        rate = workloads.TRACE_OPS_PER_SECOND[args.workload]
        budget = Budget(ops=max(1, round(rate * args.seconds)))
    else:
        budget = Budget(seconds=args.seconds)
    gauge = HostGauge(kind.reference, enabled=not args.fixed_work)
    tracer = obs = None
    if args.trace:
        import layers
        from repro.obs import Instrumentation, use_instrumentation
        from spans import Tracer

        tracer, obs = Tracer(), Instrumentation()
        layers.install(tracer)
    try:
        with use_instrumentation(obs) if obs else nullcontext():
            result = workload.run(budget, gauge)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.verify(result)
    report = summary(result)
    report["peak_rss_mb"] = result.rss_mb
    report["info"]["reference_ms"] = gauge.median_ms()
    report.update(setup)
    workload.close()
    if tracer is not None:
        counters = obs.metrics.to_document()["counters"]
        jobs = result.info.get("scenarios", 0) * workloads.SERVICE_REPEATS
        metrics = layers.per_layer(
            tracer, wall=result.wall, counters=counters, recon_jobs=jobs)
        mismatches = layers.counter_mismatches(
            metrics, counters, screening=args.workload == "fig6-screen")
        report["problems"] += [
            f"wrapper count {ours}={mine} but program counter says {theirs}"
            for ours, (mine, theirs) in mismatches.items()
        ]
        report["per_layer"] = metrics
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed-work", action="store_true",
                        help="stop after a seed-determined amount of work "
                        "sized by --seconds, not at a deadline")
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args()
    report = prepare() if args.role == "prepare" else measure(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
