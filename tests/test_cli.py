import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonogamy import bounds, cli, measures, states, verify

WINDOW_ALPHA = measures.RENYI_ANALYTIC_MIN

# sha256 of the figure CSVs; any change to the bound arithmetic shows.
FIGURE_SHA256 = {
    1: "1fd8d42ee854df54efbecb4976e08885c1522f34dd639c19f961471f7ea7b2ab",
    2: "6017ca2038619b5e7489267769499d3b9db297bf354a2187887141bc671667bc",
    3: "8d41dc918bb836b11f17ef00a69f55dc3305133082c35dc28448af790a523e8e",
}

# sha256 of the `evaluate` stdout of one state file over EVALUATE_CONFIGS and
# every pivot, concatenated in that order: "canonical" is the canonical-form
# file, "haar-<n>-<seed>" a seeded Haar state.
EVALUATE_CONFIGS = (
    ("tsallis", "2.5", "2"),
    ("renyi", "3", "2"),
    ("renyi", repr(WINDOW_ALPHA), "3"),
)
EVALUATE_SHA256 = {
    "canonical": "dfe2787241d77562892211571199fbe205d43d2de9e942aef108c2634ef83492",
    "haar-3-11": "6c632c5558138aa077b65873b081acab66f2ea54757e496f759ed5f0c8a826c3",
    "haar-3-12": "fd5d1713eb562608017597584e2f53b87debeae4ad40640a5f5515a90552dcbd",
    "haar-4-21": "8ef0c7a8f6f5935776042d0e8bff469afc107c0da0d74892d2fc0d7a898a274c",
    "haar-4-22": "51ef24b985adf7a0c146fd6b9776829612971765e2b8e32a8c50e613477b6fcd",
}

# sha256 of the stdout of two larger seeded state sweeps: every byte of the
# state table's path shows, not only the minimum.
SWEEP_SHA256 = {
    ("ckw", "5000", "11"): "c02c8a616a67faa949db3d40443c792e3454d3e565ac5f05c95b19acbfefbea4",
    ("remark3", "3000", "7919"): "80d72e3b474b5271b4f04ce7283f343d430b26f8cce3700ee55ed9b6f03a8f8c",
}

# (family, points, min_margin, argmin) of every default `sweep <family>`.
DEFAULT_SWEEPS = [
    ("lemma1", 40500, -3.552713678800501e-15, (1.0, 3.517587939698492)),
    ("gqsuper", 36168, -5.273559366969494e-16, (0.16497611157512027, 0.5398309298185687, 2.0)),
    ("falphaadd", 13152, 0.0, (0.0, 0.0, 2.0)),
    ("falphasqadd", 13152, 0.0, (0.0, 0.0, 0.8228756555322954)),
    ("lemma2", 22980, -4.718447854656915e-16, (0.4915254237288136, 0.3389830508474576, 2.0, 1.0)),
    ("lemma5", 15320, 0.0, (0.0, 0.0, 2.0, 1.0)),
    ("lemma6", 22980, 0.0, (0.0, 0.0, 0.8228756555322954, 2.0)),
    ("ckw", 1000, 0.010071888555994224, (463.0,)),
    ("remark1", 12000, 2.5474920015600602e-05, (310.0, 3.0, 3.0)),
    ("remark2", 8000, 8.678115314057975e-05, (310.0, 3.0, 3.0)),
    ("remark3", 6000, 5.613543014674009e-05, (310.0, 1.5, 4.0)),
]


def strict_json_constant(name):
    raise AssertionError(f"output is not strict JSON: {name}")


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def evaluate_argv(path, measure, index, exponent, pivot):
    return ["evaluate", "--state", str(path), "--measure", measure,
            "--index", index, "--exponent", exponent, "--pivot", str(pivot)]


def write_pinned_state(name, tmp_path):
    if name == "canonical":
        text = cli.EXAMPLE_PARAMS.to_json()
    else:
        _, n_qubits, seed = name.split("-")
        text = states.random_pure_state(int(n_qubits), int(seed)).to_json()
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    return path


class TestExample:
    @pytest.mark.parametrize(
        "which,triple",
        [
            (1, ("0.49383", "0.37037", "0.12346")),
            (2, ("0.98230", "0.66742", "0.19010")),
            (3, ("0.99265", "0.83477", "0.41466")),
        ],
    )
    def test_reproduces_reference_triple(self, which, triple, capsys):
        code, out, _ = run(["example", str(which)], capsys)
        assert code == 0
        assert "PASS" in out
        for value in triple:
            assert value in out

    def test_rejects_unknown_example(self, capsys):
        code, _, _ = run(["example", "4"], capsys)
        assert code == 2


class TestFigure:
    @pytest.mark.parametrize("which,rows", [(1, 101), (2, 151), (3, 201)])
    def test_csv_shape_and_dominance(self, which, rows, tmp_path, capsys):
        out = tmp_path / f"fig{which}.csv"
        code, _, _ = run(["figure", str(which), "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "exponent,lhs,new_bound,prior_bound"
        assert lines[-1] == ""
        body = lines[1:-1]
        assert len(body) == rows
        equality_exponent = 2.0 if which == 3 else 1.0
        for line in body:
            exponent, lhs, new, prior = (float(tok) for tok in line.split(","))
            assert lhs - new >= -1e-12
            assert new - prior >= -1e-12
            if exponent > equality_exponent + 1e-9:
                assert new > prior  # strictly tighter above the collapse point
            if abs(exponent - equality_exponent) < 1e-9:
                assert abs(new - prior) < 1e-9

    def test_fig1_all_three_meet_at_power_one(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        run(["figure", "1", "--out", str(out)], capsys)
        first = out.read_text().split("\n")[1]
        exponent, lhs, new, prior = (float(tok) for tok in first.split(","))
        assert exponent == 1.0
        assert abs(lhs - new) < 1e-9
        assert abs(new - prior) < 1e-9

    def test_fig2_power_one_bounds(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        run(["figure", "2", "--out", str(out)], capsys)
        first = out.read_text().split("\n")[1]
        _, lhs, new, prior = (float(tok) for tok in first.split(","))
        assert lhs == pytest.approx(0.98230, abs=1e-5)
        assert new == pytest.approx(0.85752, abs=1e-5)
        assert prior == pytest.approx(0.85752, abs=1e-5)

    def test_byte_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["figure", "3", "--out", str(a)], capsys)
        run(["figure", "3", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("which", sorted(FIGURE_SHA256))
    def test_csv_bytes_pinned(self, which, tmp_path, capsys):
        out = tmp_path / f"fig{which}.csv"
        code, _, _ = run(["figure", str(which), "--out", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[which]

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        code, _, _ = run(["figure", "1", "--out", "fig.csv"], capsys)
        assert code == 0
        assert (tmp_path / "fig.csv").exists()

    def test_io_failure_is_nonzero(self, tmp_path, capsys):
        code, _, err = run(
            ["figure", "1", "--out", str(tmp_path / "missing" / "fig.csv")], capsys
        )
        assert code == 2
        assert "error" in err


class TestSweep:
    def test_lemma1_passes(self, capsys):
        code, out, _ = run(["sweep", "lemma1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "lemma1"
        assert data["min_margin"] >= -1e-12
        assert data["violations"] == []

    def test_exit_code_reads_the_violation_total(self, monkeypatch, capsys):
        fam = dataclasses.replace(
            verify.family_of("gqsuper"), margin=lambda pts, combo: pts["x"] - 2.0
        )
        monkeypatch.setitem(verify.FAMILIES, "gqsuper", fam)
        code, out, _ = run(["sweep", "gqsuper", "--samples", "0"], capsys)
        assert code == 1
        data = json.loads(out, parse_constant=strict_json_constant)
        assert len(data["violations"]) == verify.MAX_VIOLATIONS
        assert data["violations_total"] == data["points"]
        assert data["violations"][0]["margin"] == -2.0

    @pytest.mark.parametrize("family,points,min_margin,argmin", DEFAULT_SWEEPS)
    def test_default_sweep_pinned(self, family, points, min_margin, argmin, capsys):
        code, out, _ = run(["sweep", family], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["points"] == points
        assert data["min_margin"] == min_margin
        assert tuple(data["argmin"]) == argmin
        assert data["violations"] == []

    @pytest.mark.parametrize("family,count,seed", sorted(SWEEP_SHA256))
    def test_seeded_state_sweep_stdout_pinned(self, family, count, seed, capsys):
        code, out, err = run(["sweep", family, "--states", count, "--seed", seed], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[family, count, seed]

    def test_near_zero_axis_is_valid(self, capsys):
        # g_q of a squared concurrence below 1e-15 computed a hair below 0,
        # which the pair bound rejected as a negative entanglement value.
        code, out, err = run(
            ["sweep", "lemma2", "--y-min", "0", "--y-max", "2e-8", "--y-steps", "60",
             "--samples", "0"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["violations"] == []

    def test_overflowing_margins_are_counted(self, capsys):
        # 2**mu overflows above mu = 1024: those margins are NaN or infinite.
        code, out, err = run(["sweep", "lemma1", "--mu-max", "2000"], capsys)
        assert code == 1
        assert "Traceback" not in err
        data = json.loads(out)
        assert 0 < data["nonfinite"] < data["points"]
        assert math.isfinite(data["min_margin"])
        assert len(data["argmin"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "lemma2", "--mu-values", "2000"],
            ["sweep", "remark1", "--eta-values", "2000", "--states", "20"],
        ],
    )
    def test_overflowing_scalar_powers_are_counted(self, argv, capsys):
        # A scalar power of 2000 overflows 2**mu in the pair tail.
        code, out, err = run(argv, capsys)
        assert code == 1
        assert "Traceback" not in err
        data = json.loads(out, parse_constant=strict_json_constant)
        assert 0 < data["nonfinite"] <= data["points"]
        assert data["violations"] == []

    def test_all_margins_non_finite(self, capsys):
        code, out, err = run(["sweep", "lemma1", "--mu-min", "1500", "--mu-max", "2000"], capsys)
        assert code == 1
        assert "Traceback" not in err
        data = json.loads(out)
        assert data["nonfinite"] == data["points"]
        assert data["min_margin"] is None
        assert data["argmin"] is None
        assert data["violations"] == []

    def test_ckw_with_flags(self, capsys):
        code, out, _ = run(["sweep", "ckw", "--states", "200", "--seed", "7"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["points"] == 200
        assert data["min_margin"] >= -1e-9

    def test_state_family_param_override(self, capsys):
        code, out, _ = run(
            ["sweep", "remark1", "--states", "50", "--q-values", "2,3", "--eta-values", "2"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["points"] == 100

    def test_mu_domain_gate(self, capsys):
        code, _, err = run(["sweep", "lemma1", "--mu-min", "0.5"], capsys)
        assert code == 2
        assert "mu" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(["sweep", "lemma9"], capsys)
        assert code == 2
        assert "unknown family" in err

    def test_flag_for_missing_axis(self, capsys):
        code, _, err = run(["sweep", "lemma1", "--q-values", "2.5"], capsys)
        assert code == 2
        assert "no 'q' parameter" in err

    def test_states_flag_rejected_for_grid_family(self, capsys):
        code, _, _ = run(["sweep", "lemma1", "--states", "10"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "lemma2"],
            ["sweep", "ckw", "--states", "20"],
        ],
    )
    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, argv, tolerance, capsys):
        # A NaN or infinite tolerance would let no margin count as a violation.
        code, out, err = run(argv + ["--tolerance", tolerance], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert f"tolerance must be finite and positive, got {tolerance}" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["sweep", "lemma2", "--mu-values", "nan"], "'mu' values"),
            (["sweep", "lemma6", "--gamma-values", "2,inf"], "'gamma' values"),
            (["sweep", "remark1", "--eta-values", "nan", "--states", "20"], "'eta' values"),
            (["sweep", "gqsuper", "--x-min", "nan"], "axis 'x' bounds"),
            (["sweep", "lemma1", "--mu-max", "inf"], "axis 'mu' bounds"),
            (["sweep", "lemma5", "--y-max=-inf"], "axis 'y' bounds"),
        ],
    )
    def test_non_finite_power_or_axis_is_a_usage_error(self, argv, name, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "Warning" not in err
        assert f"error: {name} must be finite" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "lemma2", "--mu-values", "0.9999999999995"], "power must be >= 1"),
            (["sweep", "remark1", "--eta-values", "0.9999999999995"], "power must be >= 1"),
            (["sweep", "lemma1", "--mu-min", "0.9999999999995"], "power must be >= 1"),
            (["sweep", "lemma6", "--gamma-values", "1.9999999999995"], "power gamma must be >= 2"),
        ],
    )
    def test_power_edges_are_exact(self, argv, message, monkeypatch, capsys):
        # The power gates admit 1e-12 of roundoff, but a power just below
        # its edge is refused when the spec is made: below mu = 1,
        # e1^(mu - 1) is infinite at e1 = 0, so a slack there would turn
        # into non-finite margins.
        def no_points(*args):
            raise AssertionError("points built")

        monkeypatch.setattr(verify, "_grid_points", no_points)
        monkeypatch.setattr(verify, "_state_tables", no_points)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: {message}, got {argv[-1]}"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "lemma2", "--q-values", "2,2", "--mu-values", "1"],
             "parameter 'q' repeats a value, got (2.0, 2.0)"),
            (["sweep", "remark3", "--gamma-values", "2,3,2.0", "--states", "10"],
             "parameter 'gamma' repeats a value, got (2.0, 3.0, 2.0)"),
        ],
    )
    def test_repeated_parameter_value_is_a_usage_error(self, argv, message, monkeypatch, capsys):
        # Each repeat would check, and list, every point once more.
        def no_points(*args):
            raise AssertionError("points built")

        monkeypatch.setattr(verify, "_grid_points", no_points)
        monkeypatch.setattr(verify, "_state_tables", no_points)
        assert run(argv, capsys) == (2, "", f"error: {message}\n")

    def test_violation_cap_keeps_the_earliest_tie(self, capsys):
        # Margin -2.78e-16 ties at the 100th place: the cap keeps the tied
        # point that comes first in the sweep's point order.
        code, out, _ = run(["sweep", "gqsuper", "--tolerance", "1e-18"], capsys)
        assert code == 1
        data = json.loads(out)
        assert data["violations_total"] > verify.MAX_VIOLATIONS
        last = data["violations"][-1]
        assert last["point"] == [0.06779661016949153, 0.5423728813559322, 2.0]
        assert last["margin"] == -2.7755575615628914e-16

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["sweep", "lemma2", "--x-steps", "40000", "--y-steps", "40000"],
             "a 40000 x 40000 mesh (1600000000 points) and 500 samples"),
            (["sweep", "ckw", "--states", "100000000"], "100000000 states"),
        ],
    )
    def test_out_of_memory_is_a_usage_error(self, argv, size, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 11.9 GiB")

        monkeypatch.setattr(verify, "_grid_points", no_memory)
        monkeypatch.setattr(verify, "_state_tables", no_memory)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err == f"error: {size} does not fit in memory: Unable to allocate 11.9 GiB\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "remark3", "--alpha-values", "1.0", "--states", "10"],
            ["sweep", "remark3", "--alpha-values", "1.0", "--states", "1000000"],
            ["sweep", "falphasqadd", "--alpha-values", "1.0"],
        ],
    )
    def test_von_neumann_limit_refused_before_any_point(self, argv, monkeypatch, capsys):
        # The renyi_window row's window holds alpha = 1, which the Renyi
        # index check leaves out.
        def no_points(*args):
            raise AssertionError("points built")

        monkeypatch.setattr(verify, "_grid_points", no_points)
        monkeypatch.setattr(verify, "_state_tables", no_points)
        message = "alpha must be positive and != 1, got 1.0"
        assert run(argv, capsys) == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            bounds.regime_of("renyi", 1.0)

    @pytest.mark.parametrize("steps", [2**61, 2**62, 2**63 - 1, 2**63, 2**64])
    @pytest.mark.parametrize("family,other", [("lemma1", 200), ("lemma2", 60)])
    def test_mesh_past_the_largest_array_is_refused_before_any_allocation(
        self, family, other, steps, monkeypatch, capsys
    ):
        def no_linspace(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(np, "linspace", no_linspace)
        code, out, err = run(["sweep", family, "--x-steps", str(steps)], capsys)
        size = f"a {steps} x {other} mesh ({steps * other} points) and 500 samples"
        assert (code, out) == (2, "")
        assert err == f"error: a sweep of {size} is past the cap of {verify._MAX_POINTS} points\n"

    @pytest.mark.parametrize("family,second", [("lemma1", "--mu-steps"), ("lemma2", "--y-steps")])
    def test_unmappable_mesh_exits_quickly(self, family, second):
        # 10^14 points are past the cap, which is refused when the spec is
        # made: at 10^14 points any per-point pass would run for days.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        argv = ["sweep", family, "--x-steps", "10000000", second, "10000000"]
        done = subprocess.run(
            [sys.executable, "-m", "qmonogamy", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
        )
        assert (done.returncode, done.stdout) == (2, "")
        size = "a 10000000 x 10000000 mesh (100000000000000 points) and 500 samples"
        cap = verify._MAX_POINTS
        assert done.stderr == f"error: a sweep of {size} is past the cap of {cap} points\n"

    @pytest.mark.parametrize(
        "argv,size",
        [
            # Past the largest array size.
            (["sweep", "lemma2", "--samples", str(2**63 - 1)],
             f"a 60 x 60 mesh (3600 points) and {2**63 - 1} samples"),
            (["sweep", "ckw", "--states", str(2**60)], f"{2**60} states"),
            # 10^14 samples need 800 TB a column, more than any 64-bit
            # process can map.
            (["sweep", "lemma2", "--samples", "100000000000000"],
             "a 60 x 60 mesh (3600 points) and 100000000000000 samples"),
            # 10^13 states fit a draw, and a sweep holds one block of them.
            (["sweep", "ckw", "--states", str(10**13)], f"{10**13} states"),
        ],
    )
    def test_huge_counts_exit_quickly(self, argv, size):
        # Each is past the cap, refused by name when the spec is made,
        # before anything is allocated.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "qmonogamy", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
        )
        assert (done.returncode, done.stdout) == (2, "")
        cap = verify._MAX_POINTS
        assert done.stderr == f"error: a sweep of {size} is past the cap of {cap} points\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # Draws nothing, so the sampler never sees the seed.
            ["sweep", "lemma2", "--samples", "0", "--seed", "-1"],
            ["sweep", "ckw", "--states", "20", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_zero_states_is_a_usage_error(self, capsys):
        code, out, err = run(["sweep", "ckw", "--states", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: family 'ckw' needs at least one state, got 0\n"

    def test_grid_override_runs(self, capsys):
        code, out, _ = run(
            ["sweep", "gqsuper", "--x-steps", "20", "--y-steps", "20",
             "--q-values", "2,2.5,3", "--samples", "50"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["violations"] == []


class TestEvaluate:
    def _write_example_params(self, tmp_path):
        path = tmp_path / "state.json"
        params = states.AcinParams(
            (math.sqrt(5.0) / 3.0, 0.0, math.sqrt(3.0) / 3.0, 1.0 / 3.0, 0.0)
        )
        path.write_text(params.to_json())
        return str(path)

    def test_canonical_params_tsallis(self, tmp_path, capsys):
        path = self._write_example_params(tmp_path)
        code, out, _ = run(
            ["evaluate", "--state", path, "--measure", "tsallis",
             "--index", "2", "--exponent", "2", "--pivot", "0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] == pytest.approx((40.0 / 81.0) ** 2, abs=1e-9)
        assert data["lhs"] == pytest.approx(0.24387, abs=1e-5)
        for value in data["margins"].values():
            assert value >= -1e-12
        assert data["ordering"] in ("certified", "violated")
        assert data["regime"] == "tsallis_q2to3"

    def test_product_state_all_zero(self, tmp_path, capsys):
        path = tmp_path / "product.json"
        amps = np.zeros(8)
        amps[0] = 1.0
        path.write_text(states.PureState(3, amps).to_json())
        code, out, _ = run(
            ["evaluate", "--state", str(path), "--measure", "tsallis",
             "--index", "2", "--exponent", "1", "--pivot", "0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert data["new_bound"] == pytest.approx(0.0, abs=1e-12)
        for value in data["margins"].values():
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_near_product_pair_state(self, tmp_path, capsys):
        # cos t|000> + sin t|110>: g_q of the AB pair computed a hair below 0,
        # which the chain bound rejected as a negative entanglement value.
        t = 3.7275937e-09
        amps = np.zeros(8)
        amps[0b000], amps[0b110] = math.cos(t), math.sin(t)
        path = tmp_path / "near-product.json"
        path.write_text(json.dumps({"n_qubits": 3, "amplitudes": [[a, 0.0] for a in amps]}))
        code, out, err = run(evaluate_argv(path, "tsallis", "2.5", "2", 0), capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["lhs"] == 0.0
        assert data["marginals"] == [0.0, 0.0]

    @pytest.mark.parametrize("index", ["2000", "1e308"])
    def test_huge_renyi_index(self, index, tmp_path, capsys):
        # Every power of the cut spectrum underflows to 0: log2 of the sum
        # warned and the values became infinite.
        path = write_pinned_state("haar-4-21", tmp_path)
        code, out, err = run(evaluate_argv(path, "renyi", index, "2", 1), capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert 0.0 < data["lhs"] < 1.0
        assert all(0.0 <= m <= 1.0 for m in data["marginals"])

    def test_renyi_window_regime(self, tmp_path, capsys):
        path = self._write_example_params(tmp_path)
        code, out, _ = run(
            ["evaluate", "--state", path, "--measure", "renyi",
             "--index", str(WINDOW_ALPHA), "--exponent", "3", "--pivot", "0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "renyi_window"
        assert data["exponent"] == 3.0
        assert all(v >= -1e-12 for v in data["margins"].values())

    def test_alpha_below_window_rejected(self, tmp_path, capsys):
        path = self._write_example_params(tmp_path)
        code, _, err = run(
            ["evaluate", "--state", path, "--measure", "renyi",
             "--index", "0.5", "--exponent", "2", "--pivot", "0"],
            capsys,
        )
        assert code == 2
        assert "alpha" in err

    def test_q_outside_bound_window_rejected(self, tmp_path, capsys):
        path = self._write_example_params(tmp_path)
        code, _, _ = run(
            ["evaluate", "--state", path, "--measure", "tsallis",
             "--index", "4", "--exponent", "2", "--pivot", "0"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "measure,index,exponent", [("renyi", "1.5", "2.5"), ("tsallis", "2", "1")]
    )
    @pytest.mark.parametrize("pivot", [2, 3])
    def test_roundoff_negative_full_cut_is_zero(
        self, measure, index, exponent, pivot, tmp_path, capsys
    ):
        # Amplitudes of (|0000> + |1100>)/sqrt(2) rounded up: the product cut
        # of qubit 2 or 3 computes a hair below 0, which a fractional power
        # of the full cut turned into a complex number.
        amps = np.zeros(16)
        amps[0b0000] = amps[0b1100] = 0.7071067811865476
        path = tmp_path / "product-cut.json"
        path.write_text(states.PureState(4, amps).to_json())
        code, out, err = run(evaluate_argv(path, measure, index, exponent, pivot), capsys)
        assert (code, err) == (0, "")
        lhs = json.loads(out)["lhs"]
        assert lhs == 0.0 and math.copysign(1.0, lhs) == 1.0

    def test_four_qubit_chain_path(self, tmp_path, capsys):
        amps = np.zeros(16)
        amps[0b0000] = amps[0b1100] = 1.0 / math.sqrt(2.0)
        path = tmp_path / "four.json"
        path.write_text(states.PureState(4, amps).to_json())
        code, out, _ = run(
            ["evaluate", "--state", str(path), "--measure", "renyi",
             "--index", "2", "--exponent", "2", "--pivot", "0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["marginals"]) == 3
        assert data["ordering"] == "certified"
        assert data["split_index"] == 2
        assert all(v >= -1e-12 for v in data["margins"].values())

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_overflowing_exponent_is_a_usage_error(self, n_qubits, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(states.random_pure_state(n_qubits, 5).to_json())
        code, out, err = run(
            ["evaluate", "--state", str(path), "--measure", "tsallis",
             "--index", "2", "--exponent", "2000", "--pivot", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "overflows" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_qubits": 3, "amplitudes": [[NaN, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0],'
            ' [0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}',
            '{"lambda": [NaN, 0.0, 0.5, 0.5, 0.0], "phi": 0.0}',
        ],
    )
    def test_non_finite_state_file(self, text, tmp_path, capsys):
        # The message names the bad input, not LAPACK's failure on it.
        path = tmp_path / "nan.json"
        path.write_text(text)
        code, out, err = run(
            ["evaluate", "--state", str(path), "--measure", "tsallis",
             "--index", "2", "--exponent", "2", "--pivot", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "finite" in err and "converge" not in err

    @pytest.mark.parametrize("name", sorted(EVALUATE_SHA256))
    def test_stdout_pinned(self, name, tmp_path, capsys):
        path = write_pinned_state(name, tmp_path)
        n_qubits = cli.load_state_file(str(path)).n_qubits
        digest = hashlib.sha256()
        for measure, index, exponent in EVALUATE_CONFIGS:
            for pivot in range(n_qubits):
                code, out, err = run(evaluate_argv(path, measure, index, exponent, pivot), capsys)
                assert (code, err) == (0, "")
                digest.update(out.encode())
        assert digest.hexdigest() == EVALUATE_SHA256[name]

    @pytest.mark.parametrize("name", ["canonical", "haar-4-21"])
    def test_one_stacked_concurrence_call_per_table(self, name, tmp_path, capsys, monkeypatch):
        # The marginals and the ordering certificate share one table of the
        # pivot-partner concurrences, built by one stacked call.
        path = write_pinned_state(name, tmp_path)
        n_qubits = cli.load_state_file(str(path)).n_qubits
        original = measures.concurrence_two_qubit
        shapes = []

        def counted(rho):
            shapes.append(np.shape(rho))
            return original(rho)

        monkeypatch.setattr(measures, "concurrence_two_qubit", counted)
        code, _, _ = run(evaluate_argv(path, "renyi", "2", "2", 1), capsys)
        assert code == 0
        assert shapes == [(n_qubits - 1, 4, 4)]

    def test_zero_pair_values_print_positive_zero_bounds(self, tmp_path, capsys):
        # f_alpha(0) with alpha > 1 divides log2(1) by 1 - alpha; the zero
        # pair values and the chain sum over them both print as 0.0, not -0.0.
        amps = np.zeros(8)
        amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
        path = tmp_path / "ghz.json"
        path.write_text(states.PureState(3, amps).to_json())
        code, out, _ = run(evaluate_argv(path, "renyi", "2", "1", 0), capsys)
        assert code == 0
        data = json.loads(out)
        assert data["marginals"] == [0.0, 0.0]
        assert "-0.0" not in out
        for value in data["marginals"]:
            assert math.copysign(1.0, value) == 1.0
        for key in ("new_bound", "prior_bound", "naive_bound"):
            assert math.copysign(1.0, data[key]) == 1.0, key

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-3])
    def test_three_qubit_split_is_the_branch_used(self, gap, tmp_path, capsys):
        # Partner 1 pairs through the |110> amplitude and partner 2 through
        # |101>; below _CERT_TOL the certificate still holds, but the
        # smaller first value takes the swapped branch, m = 0.
        l2, l3 = 0.5, 0.5 - gap
        params = states.AcinParams((math.sqrt(1.0 - l2 * l2 - l3 * l3), 0.0, l2, l3, 0.0))
        path = tmp_path / "near.json"
        path.write_text(params.to_json())
        code, out, _ = run(evaluate_argv(path, "tsallis", "2.5", "2", 0), capsys)
        assert code == 0
        data = json.loads(out)
        first, second = data["marginals"]
        assert data["split_index"] == (1 if first >= second else 0)
        assert data["split_index"] == (1 if gap == 0.0 else 0)
        assert data["ordering"] == ("certified" if gap < 1e-10 else "violated")

    @pytest.mark.parametrize("measure", ["tsallis", "renyi"])
    @pytest.mark.parametrize("index", ["inf", "nan"])
    def test_non_finite_index_is_a_usage_error(self, measure, index, tmp_path, capsys):
        path = tmp_path / "product.json"
        amps = np.zeros(8)
        amps[0] = 1.0
        path.write_text(states.PureState(3, amps).to_json())
        code, out, err = run(evaluate_argv(path, measure, index, "2", 0), capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        name = "q" if measure == "tsallis" else "alpha"
        assert f"{name} must be finite, got {index}" in err

    @pytest.mark.parametrize(
        "measure,index,name",
        [("tsallis", "2.5", "mu"), ("renyi", "3", "mu"), ("renyi", "1.5", "gamma")],
    )
    @pytest.mark.parametrize("exponent", ["nan", "inf"])
    def test_non_finite_exponent_is_a_usage_error(
        self, measure, index, name, exponent, tmp_path, capsys
    ):
        path = write_pinned_state("haar-3-11", tmp_path)
        code, out, err = run(evaluate_argv(path, measure, index, exponent, 0), capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: power {name} must be finite, got {exponent}\n"

    def test_small_gamma_named_as_typed(self, tmp_path, capsys):
        # The window regime reads --exponent as gamma = 2 mu; the message
        # names that value, not the halved mu.
        path = write_pinned_state("haar-3-11", tmp_path)
        code, out, err = run(evaluate_argv(path, "renyi", "1.5", "1.5", 0), capsys)
        assert (code, out) == (2, "")
        assert err == "error: power gamma must be >= 2, got 1.5\n"

    def test_malformed_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 3}')
        code, _, err = run(
            ["evaluate", "--state", str(path), "--measure", "tsallis",
             "--index", "2", "--exponent", "1", "--pivot", "0"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "n_qubits,message",
        [
            ("1e400", "n_qubits must be an integer, got inf"),
            ("3.7", "n_qubits must be an integer, got 3.7"),
            ("true", "n_qubits must be an integer, got True"),
            ('"3"', "n_qubits must be an integer, got '3'"),
            ("100000", "n_qubits = 100000 needs 2**100000 amplitudes, got 1"),
            (str(10**20), f"n_qubits = {10**20} needs 2**{10**20} amplitudes, got 1"),
            ("3.0", "n_qubits = 3 needs 2**3 amplitudes, got 1"),
            ("0", "n_qubits must be >= 1, got 0"),
        ],
    )
    def test_bad_qubit_count_is_a_usage_error(self, n_qubits, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n_qubits": {n_qubits}, "amplitudes": [[1, 0]]}}')
        code, out, err = run(evaluate_argv(path, "tsallis", "2", "1", 0), capsys)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_qubits": 3, "amplitudes": [[1' + "0" * 400 + ', 0]]}',
            '{"lambda": [1' + "0" * 400 + ', 0, 0, 0, 0]}',
            '{"lambda": [1, 0, 0, 0, 0], "phi": 1' + "0" * 400 + "}",
            '{"n_qubits": ' + "[" * 100000 + "]" * 100000 + "}",
        ],
        ids=["huge-amplitude", "huge-lambda", "huge-phi", "deep-nesting"],
    )
    def test_huge_or_deep_state_file_is_a_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(evaluate_argv(path, "tsallis", "2", "1", 0), capsys)
        assert (code, out) == (2, "")
        assert "Traceback" not in err

    def test_unnormalized_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        pairs = [[1.0, 0.0]] * 8
        path.write_text(json.dumps({"n_qubits": 3, "amplitudes": pairs}))
        code, _, _ = run(
            ["evaluate", "--state", str(path), "--measure", "tsallis",
             "--index", "2", "--exponent", "1", "--pivot", "0"],
            capsys,
        )
        assert code == 2

    def test_two_qubit_state_rejected(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        amps = np.zeros(4)
        amps[0] = 1.0
        path.write_text(states.PureState(2, amps).to_json())
        code, _, _ = run(
            ["evaluate", "--state", str(path), "--measure", "tsallis",
             "--index", "2", "--exponent", "1", "--pivot", "0"],
            capsys,
        )
        assert code == 2


# Index values on either side of the bound-window edges at 2 and 3: inside
# by 5e-13 (within the 1e-12 roundoff a closed edge admits) or outside by
# 2e-12.
EDGE_INDICES = {
    "1.999999999998": False,
    "1.9999999999995": True,
    "3.0000000000005": True,
    "3.000000000002": False,
}


@pytest.mark.parametrize("index,inside", sorted(EDGE_INDICES.items()))
def test_tsallis_window_edge_same_in_sweep_and_evaluate(index, inside, tmp_path, capsys):
    path = write_pinned_state("canonical", tmp_path)
    sweep = ["sweep", "gqsuper", "--q-values", index, "--x-steps", "5", "--y-steps", "5"]
    evaluate = evaluate_argv(path, "tsallis", index, "2", 0)
    codes = [run(argv, capsys)[0] for argv in (sweep, evaluate)]
    assert [code != 2 for code in codes] == [inside, inside]


@pytest.mark.parametrize(
    "index,regime",
    [("1.999999999998", "renyi_window"), ("1.9999999999995", "renyi_ge2"), ("2", "renyi_ge2")],
)
def test_renyi_regime_edge_same_in_sweep_and_evaluate(index, regime, tmp_path, capsys):
    # Exactly one of the two regime gates takes the value, the one whose
    # regime `evaluate` reports.
    path = write_pinned_state("canonical", tmp_path)
    code, out, _ = run(evaluate_argv(path, "renyi", index, "2", 0), capsys)
    assert code == 0 and json.loads(out)["regime"] == regime
    for family, family_regime in (("falphaadd", "renyi_ge2"), ("falphasqadd", "renyi_window")):
        argv = ["sweep", family, "--alpha-values", index, "--x-steps", "5", "--y-steps", "5"]
        assert (run(argv, capsys)[0] != 2) == (regime == family_regime), family


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # One process runs several commands through the same parser; each must
    # print what a fresh `python -m qmonogamy` prints, so no parse leaks
    # into the next.
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = write_pinned_state("haar-4-21", tmp_path)
    for argv in (
        ["example", "4"],
        ["sweep", "lemma2", "--mu-values", "2"],
        ["sweep", "lemma2"],
        evaluate_argv(path, "tsallis", "2.5", "2", 2),
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "qmonogamy", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)


# Flag values for the fuzz tests: non-finite, huge, negative and ordinary.
FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "2000", "-1", "0", "1"]),
    st.floats(min_value=-1.0, max_value=5.0).map(repr),
)


def run_quietly(argv):
    """``cli.main(argv)`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@st.composite
def sweep_argvs(draw):
    """A `sweep` command line for any family.  Step, sample and state counts
    stay small (huge ones are covered by test_out_of_memory_is_a_usage_error),
    so no example allocates more than a small mesh."""
    fam = verify.family_of(draw(st.sampled_from(verify.FAMILY_NAMES)))
    argv = ["sweep", fam.name]
    if fam.kind == "grid":
        argv.append(f"--samples={draw(st.integers(-2, 20))}")
        for axis, *_ in fam.axes:
            argv.append(f"--{axis}-steps={draw(st.integers(-1, 6))}")
            for bound in ("min", "max"):
                if draw(st.booleans()):
                    argv.append(f"--{axis}-{bound}={draw(FUZZ_VALUES)}")
    else:
        argv.append(f"--states={draw(st.integers(-2, 20))}")
    for name, _ in fam.params:
        if draw(st.booleans()):
            values = draw(st.lists(FUZZ_VALUES, min_size=1, max_size=3))
            argv.append(f"--{name}-values={','.join(values)}")
    if draw(st.booleans()):
        argv.append(f"--tolerance={draw(FUZZ_VALUES)}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.sampled_from([-1, 0, 7, 2**64]))}")
    if draw(st.integers(0, 3)) == 0:
        # A flag of another family or of the other kind.
        argv.append(draw(st.sampled_from(["--states=5", "--samples=5", "--q-values=2.5",
                                          "--gamma-values=2", "--y-steps=3", "--mu-min=1"])))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=sweep_argvs())
def test_sweep_fuzz_exits_cleanly(argv):
    code, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv


@pytest.fixture(scope="module")
def fuzz_state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "canonical": cli.EXAMPLE_PARAMS.to_json(),
        "haar-3": states.random_pure_state(3, 11).to_json(),
        "haar-4": states.random_pure_state(4, 21).to_json(),
        "haar-2": states.random_pure_state(2, 5).to_json(),
        "nan": '{"lambda": [NaN, 0.0, 0.5, 0.5, 0.0], "phi": 0.0}',
        "list": "[1, 2]",
        "truncated": '{"n_qubits": 3, "amplitudes": [[1.0',
    }
    paths = []
    for name, text in texts.items():
        path = root / f"{name}.json"
        path.write_text(text)
        paths.append(str(path))
    return paths + [str(root / "missing.json")]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluate_fuzz_exits_cleanly(fuzz_state_files, data):
    argv = [
        "evaluate",
        f"--state={data.draw(st.sampled_from(fuzz_state_files))}",
        f"--measure={data.draw(st.sampled_from(['tsallis', 'renyi', 'other']))}",
        f"--index={data.draw(FUZZ_VALUES)}",
        f"--exponent={data.draw(FUZZ_VALUES)}",
        f"--pivot={data.draw(st.integers(-2, 4))}",
    ]
    code, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv


# JSON values for fuzzed state-file fields: integers up to 10**6, floats
# (fractional, NaN, infinite), a 401-digit integer, bools, strings and null.
JSON_VALUES = st.one_of(
    st.integers(-2, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([3, 4, 3.0, 3.7, 0.5, -0.5, 10**400]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
VALID_AMPLITUDES = [
    json.loads(states.random_pure_state(n, 11).to_json())["amplitudes"] for n in (3, 4)
]


# One-qubit factors and two-qubit entangled factors of near-product states,
# with 1/sqrt(2) written both ways it rounds (0.7071067811865476 and ...75).
HALF_ROOTS = (0.7071067811865476, 0.7071067811865475)


@st.composite
def near_product_amplitudes(draw):
    """Amplitude pairs of a 3- or 4-qubit tensor product of one-qubit states
    and Bell-like pairs, with at most one amplitude nudged by roundoff, or of
    cos t|000> + sin t|110> for t in [1e-9, 1e-7]: some cuts are products or
    nearly so, where the entropy lands a hair off 0."""
    if draw(st.integers(0, 3)) == 0:
        t = draw(st.floats(1e-9, 1e-7))
        amps = np.zeros(8)
        amps[0b000], amps[0b110] = math.cos(t), math.sin(t)
        return 3, [[float(a), 0.0] for a in amps]
    s = draw(st.sampled_from(HALF_ROOTS))
    singles = [(1.0, 0.0), (0.0, 1.0), (s, s), (s, -s), (0.6, 0.8)]
    pairs = [(s, 0.0, 0.0, s), (0.0, s, s, 0.0), (s, 0.0, 0.0, -s)]
    n_qubits = draw(st.sampled_from([3, 4]))
    amps = np.ones(1)
    while amps.size < 2**n_qubits:
        room = 2**n_qubits // amps.size
        factor = draw(st.sampled_from(singles + (pairs if room >= 4 else [])))
        amps = np.kron(amps, factor)
    nudge = draw(st.sampled_from([0.0, 1e-17, -1e-16, 1e-12]))
    amps[draw(st.integers(0, amps.size - 1))] += nudge
    return n_qubits, [[float(a), 0.0] for a in amps]


@st.composite
def state_file_texts(draw):
    """A state file in either format, valid or with any field malformed, or
    a valid near-product state."""
    if draw(st.integers(0, 3)) == 0:
        n_qubits, amplitudes = draw(near_product_amplitudes())
        return json.dumps({"n_qubits": n_qubits, "amplitudes": amplitudes})
    if draw(st.booleans()):
        lambdas = draw(st.one_of(
            st.just(list(cli.EXAMPLE_PARAMS.lambdas)),
            st.lists(JSON_VALUES, max_size=7),
            JSON_VALUES,
        ))
        data = {"lambda": lambdas}
        if draw(st.booleans()):
            data["phi"] = draw(st.one_of(st.floats(-1.0, 4.0), JSON_VALUES))
    else:
        amplitudes = draw(st.one_of(
            st.sampled_from(VALID_AMPLITUDES),
            st.lists(st.lists(JSON_VALUES, max_size=3), max_size=17),
            JSON_VALUES,
        ))
        if isinstance(amplitudes, list) and amplitudes and draw(st.booleans()):
            amplitudes = list(amplitudes)
            amplitudes[draw(st.integers(0, len(amplitudes) - 1))] = draw(JSON_VALUES)
        n_qubits = draw(st.one_of(st.sampled_from([3, 4]), JSON_VALUES))
        data = {"n_qubits": n_qubits, "amplitudes": amplitudes}
    return json.dumps(data)


@pytest.fixture(scope="module")
def fuzz_state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-contents") / "state.json"


@settings(max_examples=200, deadline=None)
@given(text=state_file_texts(), measure=st.sampled_from(["tsallis", "renyi"]),
       exponent=st.sampled_from(["2", "2.5"]), pivot=st.integers(0, 3))
def test_evaluate_state_file_fuzz_exits_cleanly(fuzz_state_path, text, measure, exponent, pivot):
    fuzz_state_path.write_text(text)
    code, err = run_quietly(evaluate_argv(fuzz_state_path, measure, "2.5", exponent, pivot))
    assert code in (0, 1, 2), text
    assert "Traceback" not in err, text


@settings(max_examples=100, deadline=None)
@given(state=near_product_amplitudes(), measure=st.sampled_from(["tsallis", "renyi"]),
       exponent=st.sampled_from(["1", "2", "2.5"]), pivot=st.integers(0, 3))
def test_evaluate_near_product_state_succeeds(fuzz_state_path, state, measure, exponent, pivot):
    n_qubits, amplitudes = state
    fuzz_state_path.write_text(json.dumps({"n_qubits": n_qubits, "amplitudes": amplitudes}))
    argv = evaluate_argv(fuzz_state_path, measure, "2.5", exponent, pivot % n_qubits)
    code, err = run_quietly(argv)
    assert (code, err) == (0, ""), amplitudes
