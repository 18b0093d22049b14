import hashlib
import json
import math

import numpy as np
import pytest

from qmonogamy import cli, measures, states

WINDOW_ALPHA = measures.RENYI_ANALYTIC_MIN

# sha256 of the figure 2 and 3 CSVs; any change to the bound arithmetic shows.
FIGURE_SHA256 = {
    2: "6017ca2038619b5e7489267769499d3b9db297bf354a2187887141bc671667bc",
    3: "8d41dc918bb836b11f17ef00a69f55dc3305133082c35dc28448af790a523e8e",
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
    ("ckw", 1000, 0.010071888555996444, (463.0,)),
    ("remark1", 12000, 2.547492001559996e-05, (310.0, 3.0, 3.0)),
    ("remark2", 8000, 8.678115314057785e-05, (310.0, 3.0, 3.0)),
    ("remark3", 6000, 5.6135430146738206e-05, (310.0, 1.5, 4.0)),
]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("family,points,min_margin,argmin", DEFAULT_SWEEPS)
    def test_default_sweep_pinned(self, family, points, min_margin, argmin, capsys):
        code, out, _ = run(["sweep", family], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["points"] == points
        assert data["min_margin"] == min_margin
        assert tuple(data["argmin"]) == argmin
        assert data["violations"] == []

    def test_overflowing_margins_are_counted(self, capsys):
        # 2**mu overflows above mu = 1024: those margins are NaN or infinite.
        code, out, err = run(["sweep", "lemma1", "--mu-max", "2000"], capsys)
        assert code == 1
        assert "Traceback" not in err
        data = json.loads(out)
        assert 0 < data["nonfinite"] < data["points"]
        assert math.isfinite(data["min_margin"])
        assert len(data["argmin"]) == 2

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
