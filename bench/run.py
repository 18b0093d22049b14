"""qmonogamy benchmark: one workload, one closed-loop client, fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

With ``--trace 0`` it starts MEASURE_PROCESSES fresh processes one after
another.  Each sets up, then times its share of the T seconds, continuing
the seed's rounds where the previous one stopped; the end-to-end metrics
pool all of them, which evens out what one process's memory layout or one
burst of load elsewhere on the machine would do to a single process.
Timings are scaled to a nominal speed of the machine, timed in this
process while the worker pauses (see reference.py); the report line also
carries them unscaled.  With ``--trace 1`` it starts one process that runs a fixed call list untraced
and traced and reports the per-layer metrics.  Every process builds its
inputs from the seed and checks each output against the goldens.

Standard output carries a report line (provenance, sizes, every metric with
its sample count, the error rate) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import reference
from _paths import BENCH_DIR, OUT_DIR, ROOT, SRC, source_present
from tracer import PER_LAYER

WORKLOADS = ("grid-sweep", "state-sweep", "roof-oracle", "evaluate-chain")
END_TO_END = (
    ("throughput", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
MEASURE_PROCESSES = 5
# A seed kept out of all tuning; later claims are confirmed on it.
HELD_OUT_SEED = 7919
# The whole run must end within 180 s.
RUN_BUDGET_S = 170.0
# BLAS pools stay at one thread: the matrices are at most 16x16, and a
# single thread per process keeps runs on a shared machine comparable.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def reference_while_stopped(pid: int, workload: str) -> float:
    """Time the reference kernel while every thread of the worker is stopped,
    so nothing the workload process does runs beside it."""
    os.kill(pid, signal.SIGSTOP)
    os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    try:
        return reference.reference_seconds(workload)
    finally:
        os.kill(pid, signal.SIGCONT)


def spawn(mode: str, args, deadline: float, references: list, extra=()) -> tuple[float, dict]:
    """Run one worker to completion; returns (spawn time, its result).

    Each time the worker pauses, the reference time is appended to
    ``references``.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(args.workdir), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted before the next process")
    spawned = time.monotonic()
    last = ""
    with subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=worker_env(), cwd=ROOT,
    ) as proc:
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            for line in iter(proc.stdout.readline, ""):
                if line.startswith('{"pause"'):
                    references.append(reference_while_stopped(proc.pid, args.workload))
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    last = line
        except OSError as exc:
            raise WorkerError(f"{mode} process ended while paused") from exc
        finally:
            watchdog.cancel()
            proc.kill()
        code = proc.wait()
    if time.monotonic() >= deadline:
        raise WorkerError(f"{mode} process exceeded the time budget")
    if code != 0 or not last.strip():
        raise WorkerError(f"{mode} process exited {code}")
    return spawned, json.loads(last)


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pin_to_one_cpu() -> int:
    """Keep this process and the workers it starts on one CPU, so the
    scheduler never migrates a worker mid-run and leaves it to refill its
    caches; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(args, numpy_version: str, cpu: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "worker_pinned_cpu": cpu,
        "blas_threads": THREAD_ENV,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "is_held_out": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
    }


def timing_metrics(latencies, units: int) -> dict:
    return {
        "throughput": units / math.fsum(latencies),
        "call_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "call_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
    }


def run_untraced(args, deadline: float) -> tuple[dict, dict, dict]:
    setups, rss, references = [], [], []
    latencies, units, rounds = [], 0, 0
    outcome = {"attempted": 0, "failed": 0, "failures": []}
    next_round = 0
    for _ in range(MEASURE_PROCESSES):
        extra = ("--first-round", str(next_round), "--seconds", str(args.seconds / MEASURE_PROCESSES))
        spawned, res = spawn("measure", args, deadline, references, extra)
        setups.append(res["ready"] - spawned)
        latencies += res["latencies_s"]
        units += res["units"]
        rounds += res["rounds"]
        rss.append(res["peak_rss_mb"])
        next_round = res["next_round"]
        outcome["attempted"] += res["attempted"]
        outcome["failed"] += res["failed"]
        outcome["failures"] = (outcome["failures"] + res["failures"])[:5]
    # One factor scales every time of the run to the nominal speed.
    factor = reference.scale_factor(args.workload, references)
    metrics = timing_metrics([t * factor for t in latencies], units)
    metrics["peak_rss_mb"] = statistics.median(rss)
    metrics["setup_s"] = statistics.median(setups) * factor
    samples = {
        "calls": len(latencies),
        "rounds": rounds,
        "units": units,
        "busy_s": math.fsum(latencies),
        "processes": MEASURE_PROCESSES,
        "unnormalized": {
            **timing_metrics(latencies, units),
            "setup_s": statistics.median(setups),
        },
        "reference_timings": len(references),
        "reference_factor": factor,
        "setup_samples_s": setups,
        "peak_rss_samples_mb": rss,
    }
    return metrics, samples, {**res, **outcome}


def run_traced(args, deadline: float) -> tuple[dict, dict, dict]:
    spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    _spawned, res = spawn("trace", args, deadline, [], ("--spans", str(spans)))
    samples = {
        "trace_calls": res["trace_calls"],
        "untraced_s": res["untraced_s"],
        "traced_s": res["traced_s"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return res["layers"], samples, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmonogamy benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not source_present():
        print(f"error: no qmonogamy sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    cpu = pin_to_one_cpu()
    args.workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, samples, res = run_traced(args, deadline)
            units = dict(PER_LAYER)
        else:
            metrics, samples, res = run_untraced(args, deadline)
            units = dict(END_TO_END)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    report = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "provenance": provenance(args, res["numpy"], cpu),
        "sizes": res["sizes"],
        "throughput_unit": f"{res['unit']} per second",
        "error_rate": failed / attempted,
        "failures": res["failures"],
        "samples": samples,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
