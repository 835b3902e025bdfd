"""The repository's benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload fig6-screen --seed 2017 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  Every workload runs in fresh
interpreters with each ``REPRO_*`` variable cleared and a private native
kernel cache under ``.perfbench/`` that is compiled before any timing.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics.  A human-readable table
comes first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.

The exit code is 0 only when every child finished and reported; a
failed output check is reported (``correct: false``), not an error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Fresh interpreters whose set-up time is measured; ``setup_s`` is
#: their median (the last one goes on to run the workload).
SETUP_RUNS = 3
#: Whole-run limit in seconds; children are killed past it.
RUN_LIMIT_S = 175.0

WORKLOAD_NAMES = ("fig6-screen", "sim-network", "service-recon")


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_CKERNEL_CACHE=str(WORK / "ckernel"),
        TMPDIR=str(WORK / "tmp"),
    )
    return env


def run_child(args: List[str], deadline: float) -> dict:
    """Run ``child.py`` with ``args``; returns its last JSON line."""
    command = [sys.executable, str(HERE / "child.py"), *args]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"timed out: {' '.join(args)}")
    finally:
        # The child closes its session pool; reap anything it left.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"exit {process.returncode}: {' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_digests() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 provenance: dict, deadline: float) -> dict:
    scratch = WORK / "tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--scratch", str(scratch)]
    setups: List[float] = []
    try:
        if trace:
            # The same fixed work untraced, then traced, each in a fresh
            # interpreter: the wall-time ratio is the tracing overhead.
            fixed = common + ["--role", "measure", "--fixed-work"]
            plain = run_child(fixed + ["--trace", "0"], deadline)
            report = run_child(fixed + ["--trace", "1"], deadline)
        else:
            for role in ["setup"] * (SETUP_RUNS - 1) + ["measure"]:
                started = time.monotonic()
                report = run_child(common + ["--role", role], deadline)
                # Set-up at the reference host speed, the child's own
                # reference samples left out.
                spent = (report["setup_done"] - started
                         - report["setup_gauge_inside_s"])
                setups.append(spent * report["setup_scale"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = list(report["problems"])
    if trace:
        problems += plain["problems"]
        if plain["digest"] != report["digest"]:
            problems.append("traced pass changed the workload's results")
        report["per_layer"]["trace.overhead_frac"] = (
            report["wall"] / plain["wall"] - 1.0)
        report["ops"] += plain["ops"]
        report["failed"] += plain["failed"]
    pinned = expected_digests()
    expected = pinned.get(name)
    digest = report["info"]["digest"] = report["digest"]
    if seed == pinned["seed"] and expected is not None:
        if digest is None:
            report["info"]["digest_check"] = "prefix not completed"
        elif digest != expected:
            problems.append(f"digest {digest} != pinned {expected}")
        else:
            report["info"]["digest_check"] = "ok"
    if not provenance["fastscreen_supported"]:
        report["info"]["flag"] = "certified fast screen unavailable"
    attempted = max(1, report["ops"])
    failed = attempted if problems else min(attempted, report["failed"])
    if trace:
        metrics = dict(report["per_layer"])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "ops_per_s": report["ops"] / report["scaled_busy"],
            "op_p50_ms": report["p50_ms"],
            "op_p75_ms": report["p75_ms"],
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "info": report["info"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    deadline = started + RUN_LIMIT_S * len(names)
    try:
        provenance = run_child(["--role", "prepare"], deadline)
        results = {
            name: run_workload(name, args.seed, seconds, bool(args.trace),
                               provenance, deadline)
            for name in names
        }
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, result in results.items():
        if set(result["metrics"]) != set(units):
            print(f"{name}: metrics differ from BENCHMARK.json",
                  file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, {seconds:g} s, "
              f"trace {args.trace})")
        for metric, value in result["metrics"].items():
            print(f"  {metric:<40} {value:>16.6g} {units[metric]}")
        print(f"  attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for problem in result["problems"]:
            print(f"  CHECK FAILED: {problem}")
        print("  " + json.dumps({"provenance": provenance,
                                 "info": result["info"]}))

    def entry(metrics: Dict[str, float], prefix: str) -> Dict[str, dict]:
        return {prefix + m: {"value": v, "unit": units[m]}
                for m, v in metrics.items()}

    if len(results) == 1:
        (result,) = results.values()
        metrics = entry(result["metrics"], "")
    else:
        metrics = {}
        for name, result in results.items():
            metrics.update(entry(result["metrics"], f"{name}/"))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
