"""One workload process, started fresh by ``run.py`` for every sample.

    python3 bench/worker.py {measure,trace} --workload W --seed N
        --workdir DIR [--first-round R --seconds T] [--spans FILE]

Both modes build the inputs, make one untimed warm-up call on a fixed input
and report the moment set-up ends.  ``measure`` then runs the closed loop
from round R for T seconds, pausing after the warm-up and then about every
PAUSE_EVERY_S seconds for the parent's reference timing: it prints
``{"pause": true}`` and waits for a line on standard input.  ``trace`` runs a fixed call list untraced and
traced, in alternation, and reports the per-layer metrics of the last
traced pass and the tracer's cost.  Each mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from _paths import use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 5
TRACE_PAIRS = 5
# How often a measuring process pauses so that the parent can time its
# reference kernel on this CPU (see run.py).
PAUSE_EVERY_S = 0.5


class Outcome:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < MAX_FAILURES_SHOWN:
                self.reasons.append(problem)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.reasons}


def checked_call(wl, key, outcome: Outcome):
    """Timed call of one pool entry; returns (seconds, output or None)."""
    arg = wl.prepare(key)
    start = time.perf_counter()
    try:
        out = wl.call(arg)
    except Exception as exc:  # a failing call is counted, not fatal
        elapsed = time.perf_counter() - start
        outcome.record(f"{key}: raised {type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = time.perf_counter() - start
    outcome.record(wl.check(key, out))
    return elapsed, out


def pause():
    """Hand the CPU to the parent between calls and wait until it is done."""
    print(json.dumps({"pause": True}), flush=True)
    sys.stdin.readline()


def measure(wl, seed: int, first_round: int, seconds: float, outcome: Outcome) -> dict:
    """Closed loop over whole rounds, from ``first_round``, for ``seconds``.

    Returns the raw per-call latencies and the units of work done; the
    parent scales and pools them over its processes.  Pauses fall between
    calls, outside every timed region.
    """
    latencies, units, rounds = [], 0, 0
    deadline = time.perf_counter() + seconds
    next_pause = time.perf_counter() + PAUSE_EVERY_S
    for group in itertools.islice(wl.rounds(seed), first_round, None):
        for key in group:
            elapsed, out = checked_call(wl, key, outcome)
            latencies.append(elapsed)
            if out is not None:
                units += wl.units(key, out)
            if time.perf_counter() >= next_pause:
                pause()
                next_pause = time.perf_counter() + PAUSE_EVERY_S
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "latencies_s": latencies,
        "units": units,
        "rounds": rounds,
        "next_round": first_round + rounds,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(wl, seed: int, probe_file: Path, outcome: Outcome, spans_path: Path | None,
          pairs: int = TRACE_PAIRS) -> dict:
    """Alternate untraced and traced passes over a fixed call list.

    Pairs alternate which pass goes first, so a drift in machine speed does
    not favour either.  The tracer's cost is the median over pairs of the
    traced pass minus the untraced pass beside it.
    """
    keys = [key for group in itertools.islice(wl.rounds(seed), wl.trace_rounds) for key in group]

    def one_pass() -> float:
        start = time.perf_counter()
        for key in keys:
            checked_call(wl, key, outcome)
        workloads.layer_probe(probe_file)
        return time.perf_counter() - start

    def traced_pass() -> tuple[float, tracing.Tracer]:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            return one_pass(), tracer
        finally:
            tracer.restore()

    untraced, traced = [], []
    for pair in range(pairs):
        if pair % 2:
            seconds, tracer = traced_pass()
            untraced.append(one_pass())
        else:
            untraced.append(one_pass())
            seconds, tracer = traced_pass()
        traced.append(seconds)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"names": tracer.names, "spans": tracer.spans}))
    return {
        "trace_calls": len(keys),
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": tracing.layer_metrics(
            tracer, statistics.median(t - u for t, u in zip(traced, untraced))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-round", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload)
    wl.load_goldens()
    wl.setup(args.workdir)
    probe_file = workloads.write_probe_state(args.workdir) if args.mode == "trace" else None
    outcome = Outcome()
    checked_call(wl, wl.warmup_key(), outcome)
    # CLOCK_MONOTONIC is shared by all processes, so the parent can subtract
    # its own spawn time from this stamp.
    result = {"ready": time.monotonic(), "numpy": np.__version__,
              "unit": wl.unit, "sizes": wl.sizes()}
    if args.mode == "measure":
        pause()
        result.update(measure(wl, args.seed, args.first_round, args.seconds, outcome))
    else:
        result.update(trace(wl, args.seed, probe_file, outcome, args.spans))
    result.update(outcome.as_dict())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
