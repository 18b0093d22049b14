"""Record the golden output of every pool entry of every workload.

    python3 bench/record_goldens.py [workload ...]

Writes ``bench/goldens/<workload>.json``.  The goldens pin the outputs of
the commit they were recorded at; re-record only when a change has to alter
an output, and say in that change which outputs moved and why.
"""

from __future__ import annotations

import json
import shutil
import sys

from _paths import OUT_DIR, use_checkout_source

use_checkout_source()

import workloads  # noqa: E402


def record(name: str) -> dict:
    wl = workloads.make(name)
    workdir = OUT_DIR / f"record-{name}"
    try:
        wl.setup(workdir)
        goldens = {}
        for group in wl.groups:
            for key in group:
                out = wl.call(wl.prepare(key))
                problem = wl.invariant(key, out)
                if problem is not None:
                    raise SystemExit(f"refusing to record a wrong output: {problem}")
                goldens[key] = wl.summary(key, out)
        return goldens
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write(name: str, goldens: dict):
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in goldens.items()]
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    (workloads.GOLDEN_DIR / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str]) -> int:
    for name in argv or list(workloads.WORKLOADS):
        if name not in workloads.WORKLOADS:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        write(name, record(name))
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
