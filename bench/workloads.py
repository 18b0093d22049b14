"""The benchmark's four workloads: input pools, timed calls and golden checks.

Each workload draws its calls from a fixed pool of inputs whose outputs were
recorded at the seed commit in ``goldens/<workload>.json``.  The run's seed
fixes which pool entries it visits and in which order, so the same seed
gives the same inputs and every output has a golden to be compared with.
Pools are large enough that a run at today's speed does not revisit an
input (``evaluate-chain`` excepted, see its docstring), so caching results
across calls cannot pass for a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from qmonogamy import cli, measures, states, verify

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Floats must match their golden within FLOAT_ATOL + FLOAT_RTOL * |golden|.
# Counts, tags, argmins and exit codes must match exactly.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
EXACT_KEYS = frozenset({"argmin"})


def matches(actual, expected, exact: bool = False) -> bool:
    """Whether ``actual`` equals the golden ``expected`` under the rules above."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(matches(actual[k], expected[k], exact or k in EXACT_KEYS) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(a, e, exact) for a, e in zip(actual, expected))
        )
    if isinstance(expected, float) and not exact:
        return (
            isinstance(actual, float)
            and abs(actual - expected) <= FLOAT_ATOL + FLOAT_RTOL * abs(expected)
        )
    return type(actual) is type(expected) and actual == expected


def sweep_summary(report) -> dict:
    return {
        "points": report.points_checked,
        "violations": len(report.violations),
        "min_margin": report.min_margin,
        "argmin": list(report.argmin),
    }


class Workload:
    """Pool of inputs, grouped into rounds, with a timed call per input."""

    name = ""
    unit = ""
    # Rounds the traced run makes; fixed, so its counts repeat for a seed.
    trace_rounds = 0

    def __init__(self, groups: list[list[str]]):
        self.groups = groups
        self.goldens: dict = {}

    def load_goldens(self):
        self.goldens = json.loads((GOLDEN_DIR / f"{self.name}.json").read_text())

    def setup(self, workdir: Path):
        """Make whatever inputs the calls read."""

    def rounds(self, seed: int):
        """Endless stream of rounds: the seed's permutation of the groups, repeated."""
        order = np.random.default_rng(seed).permutation(len(self.groups))
        for r in itertools.count():
            yield self.groups[order[r % len(order)]]

    def warmup_key(self) -> str:
        return self.groups[0][0]

    def prepare(self, key: str):
        """Arguments of the timed call, built outside the timed region."""
        raise NotImplementedError

    def call(self, arg):
        raise NotImplementedError

    def units(self, key: str, out) -> int:
        return 1

    def summary(self, key: str, out):
        raise NotImplementedError

    def invariant(self, key: str, out) -> str | None:
        return None

    def check(self, key: str, out) -> str | None:
        """None if ``out`` is correct, else a one-line reason."""
        problem = self.invariant(key, out)
        if problem is not None:
            return problem
        if key not in self.goldens:
            return f"{key}: no golden recorded"
        if not matches(self.summary(key, out), self.goldens[key]):
            return f"{key}: output differs from the golden"
        return None

    def sizes(self) -> dict:
        raise NotImplementedError


class GridSweep(Workload):
    """All seven grid families through ``verify.run_sweep``, one call each.

    Grids are GRID_SCALE times denser per axis than the defaults, plus
    GRID_SAMPLES rejection samples drawn with the pool entry's seed.
    """

    name = "grid-sweep"
    unit = "margin points"
    trace_rounds = 20
    GRID_SCALE = 3
    GRID_SAMPLES = 2000
    POOL = 256

    def __init__(self):
        super().__init__(
            [[f"{fam}:{s}" for fam in verify.GRID_FAMILIES] for s in range(self.POOL)]
        )

    def prepare(self, key):
        fam, sample_seed = key.split(":")
        grid = tuple(
            (axis, lo, hi, steps * self.GRID_SCALE)
            for axis, lo, hi, steps in verify.default_spec(fam).grid
        )
        return verify.default_spec(
            fam, grid=grid, random_samples=self.GRID_SAMPLES, seed=int(sample_seed)
        )

    def call(self, spec):
        return verify.run_sweep(spec)

    def units(self, key, report):
        return report.points_checked

    def summary(self, key, report):
        return sweep_summary(report)

    def sizes(self):
        return {
            "families": list(verify.GRID_FAMILIES),
            "grid_scale": self.GRID_SCALE,
            "random_samples": self.GRID_SAMPLES,
            "pool_sample_seeds": self.POOL,
        }


class StateSweep(Workload):
    """The four state families through ``verify.run_state_check``.

    One call per family, as the CLI makes them, so each call builds its own
    state table from N_STATES Haar states of the pool entry's seed.
    """

    name = "state-sweep"
    unit = "states certified"
    trace_rounds = 6
    N_STATES = 400
    POOL = 256

    def __init__(self):
        super().__init__(
            [[f"{fam}:{s}" for fam in verify.STATE_FAMILIES] for s in range(self.POOL)]
        )

    def prepare(self, key):
        fam, state_seed = key.split(":")
        return fam, int(state_seed)

    def call(self, arg):
        fam, state_seed = arg
        return verify.run_state_check(fam, n_states=self.N_STATES, seed=state_seed)

    def units(self, key, report):
        return self.N_STATES

    def summary(self, key, report):
        return sweep_summary(report)

    def sizes(self):
        return {
            "families": list(verify.STATE_FAMILIES),
            "states_per_call": self.N_STATES,
            "pool_state_seeds": self.POOL,
        }


class RoofOracle(Workload):
    """``concurrence_roof_oracle`` at its default 200 restarts.

    The pool extends the mix acceptance criterion 7 uses: rank-2 mixtures
    from the same stream (seed 20250810, oracle seeds 5000 + i) and seeded
    pure two-qubit states.  Each round holds five mixtures and one pure state.
    """

    name = "roof-oracle"
    unit = "oracle calls"
    trace_rounds = 1
    # 24 rounds: a run at today's speed makes 12 to 16 of them, so it never
    # revisits an input.
    MIXED = 120
    PURE = 24
    MIX_STREAM_SEED = 20250810
    MIXED_TOL = 2e-3
    PURE_TOL = 1e-6

    def __init__(self):
        per_round = self.MIXED // self.PURE
        super().__init__([
            [f"mixed:{per_round * g + i}" for i in range(per_round)] + [f"pure:{g}"]
            for g in range(self.PURE)
        ])
        self.inputs: dict[str, tuple[np.ndarray, int, float]] = {}

    def setup(self, workdir):
        rng = np.random.default_rng(self.MIX_STREAM_SEED)
        for i in range(self.MIXED):
            v1 = states.haar_state_vector(4, rng)
            v2 = states.haar_state_vector(4, rng)
            w = rng.random()
            rho = w * np.outer(v1, v1.conj()) + (1 - w) * np.outer(v2, v2.conj())
            self.inputs[f"mixed:{i}"] = (rho, 5000 + i, measures.concurrence_two_qubit(rho))
        for i in range(self.PURE):
            st = states.random_pure_state(2, i)
            self.inputs[f"pure:{i}"] = (states.density(st), i, measures.concurrence_pure(st, {0}))

    def prepare(self, key):
        rho, seed, _closed = self.inputs[key]
        return rho, seed

    def call(self, arg):
        rho, seed = arg
        return measures.concurrence_roof_oracle(rho, seed=seed)

    def summary(self, key, value):
        return {"value": value}

    def invariant(self, key, value):
        closed = self.inputs[key][2]
        tol = self.PURE_TOL if key.startswith("pure") else self.MIXED_TOL
        if not abs(value - closed) <= tol:
            return f"{key}: oracle {value!r} is not within {tol} of the closed form {closed!r}"
        return None

    def sizes(self):
        return {
            "restarts": 200,
            "pool_mixed_rank2": self.MIXED,
            "pool_pure": self.PURE,
        }


class EvaluateChain(Workload):
    """``cli.main(["evaluate", ...])`` in-process, one state file per call.

    The files, written during set-up, hold 3- and 4-qubit states (one in
    the canonical-form format); entries alternate between the two sizes,
    rotate the pivot and cycle through the three regimes.  A call costs
    milliseconds, so a run cycles the pool many times: this workload
    measures per-call overhead, not cache misses.
    """

    name = "evaluate-chain"
    unit = "evaluate calls"
    trace_rounds = 120
    ROUND = 8
    FILES_3 = 24
    FILES_4 = 24
    # (measure, index, exponent): tsallis_q2to3, renyi_ge2 and renyi_window.
    CONFIGS = (
        ("tsallis", 2.0, 1.0),
        ("tsallis", 2.5, 2.0),
        ("tsallis", 3.0, 1.5),
        ("renyi", 2.0, 1.0),
        ("renyi", 3.0, 2.0),
        ("renyi", 2.5, 3.0),
        ("renyi", measures.RENYI_ANALYTIC_MIN, 2.0),
        ("renyi", 1.5, 3.0),
        ("renyi", 1.2, 4.0),
    )

    def __init__(self):
        entries = 2 * (self.FILES_3 + self.FILES_4)
        super().__init__([
            [f"e{j}" for j in range(start, start + self.ROUND)]
            for start in range(0, entries, self.ROUND)
        ])
        self.argv: dict[str, list[str]] = {}

    def setup(self, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        texts = [cli.EXAMPLE_PARAMS.to_json()]
        texts += [states.random_pure_state(3, 300 + i).to_json() for i in range(1, self.FILES_3)]
        texts += [states.random_pure_state(4, 400 + i).to_json() for i in range(self.FILES_4)]
        paths = []
        for i, text in enumerate(texts):
            path = workdir / f"state{i}.json"
            path.write_text(text)
            paths.append(path)
        for key in itertools.chain.from_iterable(self.groups):
            j = int(key[1:])
            f = j // 2 % self.FILES_3 if j % 2 == 0 else self.FILES_3 + j // 2 % self.FILES_4
            n = 3 if f < self.FILES_3 else 4
            measure, index, exponent = self.CONFIGS[j % len(self.CONFIGS)]
            self.argv[key] = [
                "evaluate", "--state", str(paths[f]), "--measure", measure,
                "--index", repr(index), "--exponent", repr(exponent),
                "--pivot", str((j // len(paths) + j) % n),
            ]

    def prepare(self, key):
        return self.argv[key]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def summary(self, key, result):
        code, out, err = result
        try:
            parsed = json.loads(out)
        except json.JSONDecodeError:
            parsed = out
        return {"exit": code, "stdout": parsed, "stderr": err}

    def sizes(self):
        return {
            "files_3_qubit": self.FILES_3,
            "files_4_qubit": self.FILES_4,
            "pool_entries": len(self.groups),
            "regime_configs": len(self.CONFIGS),
        }


WORKLOADS = {w.name: w for w in (GridSweep, StateSweep, RoofOracle, EvaluateChain)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


# A fixed rank-2 two-qubit state for the layer probe: half Bell, half |01>.
_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
_KET01 = np.array([0.0, 1.0, 0.0, 0.0])
PROBE_RHO = 0.5 * np.outer(_BELL, _BELL) + 0.5 * np.outer(_KET01, _KET01)


def write_probe_state(workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "probe_state.json"
    path.write_text(states.random_pure_state(4, 0).to_json())
    return path


def layer_probe(state_file: Path):
    """One small call into every traced layer.

    Traced runs end each pass with it, so every per-layer metric is a
    measured, non-zero value on every workload.  It adds the same small,
    fixed amount to each layer on every run.
    """
    verify.run_sweep(
        verify.default_spec(
            "lemma2",
            grid=(("x", 0.0, 1.0, 5), ("y", 0.0, 1.0, 5)),
            params=(("q", (2.5,)), ("mu", (2.0,))),
            random_samples=0,
        )
    )
    verify.run_state_check("ckw", n_states=2, seed=0)
    measures.concurrence_roof_oracle(PROBE_RHO, restarts=3, seed=0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "evaluate", "--state", str(state_file), "--measure", "tsallis",
            "--index", "2.5", "--exponent", "2.0", "--pivot", "0",
        ])
    if code != 0:
        raise RuntimeError(f"layer probe evaluate exited {code}")
