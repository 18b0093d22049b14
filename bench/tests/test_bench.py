"""Self-tests of the benchmark: tracer arithmetic, restoration, goldens, counts."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qmonogamy import bounds, cli, kernel, measures, states, verify  # noqa: E402

TRACED_MODULES = (bounds, cli, kernel, measures, states, verify)


def test_self_time_of_a_toy_call_tree():
    # a(0..100) calls b(10..60) and c(70..90); b calls c(20..30).
    names = ["a", "b", "c"]
    spans = [(0, 0, 100, -1), (1, 10, 60, 0), (2, 20, 30, 1), (2, 70, 90, 0)]
    times = tracing.aggregate(spans, names)
    assert times["a"] == (1, 30e-9)
    assert times["b"] == (1, 40e-9)
    assert times["c"] == (2, 30e-9)


def test_wrappers_record_parents_and_counts():
    tr = tracing.Tracer()

    def leaf(n):
        return list(range(n))

    leaf_traced = tr.wrap(leaf, "leaf", ("leaf.items", lambda args, result: len(result)))
    outer = tr.wrap(lambda: leaf_traced(3) + leaf_traced(2), "outer")
    assert outer() == [0, 1, 2, 0, 1]
    assert [(tr.names[nid], parent) for nid, _s, _e, parent in tr.spans] == [
        ("outer", -1), ("leaf", 0), ("leaf", 0)
    ]
    assert tr.counts == {"leaf.items": 5}


def _module_state():
    return (
        {mod.__name__: dict(vars(mod)) for mod in TRACED_MODULES},
        dict(verify.FAMILIES),
    )


def _small_trace(name, tmp_path, seed, **overrides):
    wl = workloads.make(name)
    for attr, value in overrides.items():
        setattr(wl, attr, value)
    wl.load_goldens()
    wl.setup(tmp_path)
    outcome = worker.Outcome()
    result = worker.trace(wl, seed, workloads.write_probe_state(tmp_path), outcome, None, pairs=1)
    assert outcome.failed == 0, outcome.reasons
    return result["layers"]


def test_originals_are_restored_after_a_traced_run(tmp_path):
    before_modules, before_families = _module_state()
    layers = _small_trace("evaluate-chain", tmp_path, seed=3, trace_rounds=1)
    assert layers["cli.evaluate.calls"] == 8 + 1  # one round and the probe's call
    after_modules, after_families = _module_state()
    for module, attrs in before_modules.items():
        changed = [k for k, v in attrs.items() if after_modules[module].get(k) is not v]
        assert not changed, (module, changed)
    assert all(after_families[k] is fam for k, fam in before_families.items())


def test_every_per_layer_metric_is_measured_on_every_workload(tmp_path):
    layers = _small_trace("grid-sweep", tmp_path, seed=1, trace_rounds=1)
    assert list(layers) == [name for name, _unit in tracing.PER_LAYER]
    zero = [name for name, value in layers.items() if value == 0 and name != "trace.overhead_s"]
    assert not zero


def test_trace_counts_repeat_for_a_seed(tmp_path):
    runs = []
    for i in range(2):
        sweep = _small_trace("state-sweep", tmp_path / f"s{i}", seed=5, trace_rounds=1)
        oracle = _small_trace("roof-oracle", tmp_path / f"o{i}", seed=5, trace_rounds=1,
                              groups=[["mixed:7"]])
        runs.append({
            "verify.state_table.builds": sweep["verify.state_table.builds"],
            "kernel.partial_trace.calls": sweep["kernel.partial_trace.calls"],
            "measures.oracle.cost_evals": oracle["measures.oracle.cost_evals"],
            "measures.oracle.proposals": oracle["measures.oracle.proposals"],
        })
    assert runs[0] == runs[1]
    assert runs[0]["verify.state_table.builds"] == 4 + 1  # four families and the probe
    assert runs[0]["measures.oracle.proposals"] > 0


def test_corrupted_golden_counts_as_a_failure(tmp_path):
    wl = workloads.make("evaluate-chain")
    wl.load_goldens()
    wl.setup(tmp_path)
    key = wl.warmup_key()
    clean = worker.Outcome()
    worker.checked_call(wl, key, clean)
    assert (clean.attempted, clean.failed) == (1, 0)

    wl.goldens[key]["stdout"]["lhs"] *= 1.0 + 1e-6
    corrupted = worker.Outcome()
    worker.checked_call(wl, key, corrupted)
    assert corrupted.failed / corrupted.attempted > 0
    assert "differs from the golden" in corrupted.reasons[0]


def test_golden_comparison_rules():
    golden = {"points": 10, "min_margin": -1e-15, "argmin": [0.5, 2.0]}
    assert workloads.matches({"points": 10, "min_margin": -2e-15, "argmin": [0.5, 2.0]}, golden)
    assert not workloads.matches({"points": 11, "min_margin": -1e-15, "argmin": [0.5, 2.0]}, golden)
    nudged = [0.5 + 1e-16, 2.0]
    assert not workloads.matches({"points": 10, "min_margin": -1e-15, "argmin": nudged}, golden)
    assert not workloads.matches({"points": 10, "min_margin": float("nan"), "argmin": [0.5, 2.0]},
                                 golden)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS) == sorted(reference.KERNELS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_run_refuses_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "source_present", lambda: False)
    code = run.main(["--workload", "grid-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_depends_only_on_the_seed(name):
    wl = workloads.make(name)
    first = [group for _, group in zip(range(30), wl.rounds(11))]
    again = [group for _, group in zip(range(30), wl.rounds(11))]
    other = [group for _, group in zip(range(30), wl.rounds(12))]
    assert first == again
    assert first != other
