"""Command-line front end.

Subcommands: ``example`` (reproduce the worked three-qubit regressions),
``figure`` (emit the bound-comparison CSV data), ``sweep`` (run an
inequality family), ``evaluate`` (bound report for a user-supplied state).

Exit codes: 0 success, 1 value-regression failure, sweep violation or
non-finite sweep margin, 2 usage or domain error, or a sweep too large
for memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds, kernel, measures, verify
from .states import AcinParams, PureState, acin_state, density

OUT_DIR_ENV = "QMONOGAMY_OUT_DIR"

# Canonical three-qubit test state: amplitudes (sqrt(5)/3, 0, sqrt(3)/3, 1/3, 0).
# Its full-cut squared concurrence is 80/81 and the pair concurrences are
# 2*sqrt(15)/9 (the |101> coherence) and 2*sqrt(5)/9 (the |110> coherence).
EXAMPLE_PARAMS = AcinParams(
    (math.sqrt(5.0) / 3.0, 0.0, math.sqrt(3.0) / 3.0, 1.0 / 3.0, 0.0)
)

# Published 5-decimal reference values reproduced by `example <n>`:
#   tsallis q=2:  g_2 is linear, so the triple is (40/81, 30/81, 10/81)
#   renyi q=2:    1 - log2(2 - C^2) at C^2 = 80/81, 60/81, 20/81
#   renyi window: f_alpha at alpha = (sqrt(7)-1)/2
EXAMPLE_REFERENCE = {
    1: ("tsallis", 2.0, (0.49383, 0.37037, 0.12346)),
    2: ("renyi", 2.0, (0.98230, 0.66742, 0.19010)),
    3: ("renyi", measures.RENYI_ANALYTIC_MIN, (0.99265, 0.83477, 0.41466)),
}
EXAMPLE_TOL = 1e-5

# Figure id -> exponent grid (start, stop, step); each figure plots its
# example's measure and index.
_FIGURES = {1: (1.0, 3.0, 0.02), 2: (1.0, 4.0, 0.02), 3: (2.0, 6.0, 0.02)}


def _cut_values(state: PureState, pivot: int, measure: str, index):
    """(full cut, concurrences, marginals) of ``pivot``'s cut, partners in
    ascending order; ``index`` is q or alpha.  One stacked call gives the
    concurrences and one more converts them all, with the bits a call per
    partner would give."""
    n = state.n_qubits
    rho = density(state)
    pairs = np.stack([kernel.partial_trace(rho, n, {pivot, b}) for b in range(n) if b != pivot])
    concurrences = measures.concurrence_two_qubit(pairs)
    if measure == "tsallis":
        full = measures.tsallis_pure(state, {pivot}, index)
        marginals = measures.g_q(concurrences * concurrences, index)
    else:
        full = measures.renyi_pure(state, {pivot}, index)
        marginals = measures.f_alpha(concurrences, index)
    return full, concurrences.tolist(), marginals.tolist()


def example_values(measure: str, index: float) -> tuple[float, float, float]:
    """(full cut, AB pair, AC pair) values of the canonical test state."""
    full, _, (ac, ab) = _cut_values(acin_state(EXAMPLE_PARAMS), 0, measure, index)
    # The first pair's coherence sits in the |101> amplitude of the
    # canonical form, so "AB" is partner 2 (qubits {0, 2}) and "AC" partner 1.
    return full, ab, ac


def cmd_example(which: int, out=None) -> int:
    out = out if out is not None else sys.stdout
    measure, index, reference = EXAMPLE_REFERENCE[which]
    computed = example_values(measure, index)
    labels = ("E(A|BC)", "E(AB)", "E(AC)")
    print(f"canonical-state regression {which}: {measure} index {index:.6g}", file=out)
    print(f"  {'quantity':10s} {'computed':>10s} {'reference':>10s} {'|diff|':>9s}", file=out)
    ok = True
    for label, got, want in zip(labels, computed, reference):
        diff = abs(got - want)
        flag = "" if diff <= EXAMPLE_TOL else "  <-- MISMATCH"
        ok = ok and diff <= EXAMPLE_TOL
        print(f"  {label:10s} {got:10.5f} {want:10.5f} {diff:9.1e}{flag}", file=out)
    print("PASS" if ok else "FAIL", file=out)
    return 0 if ok else 1


def figure_rows(which: int):
    """(exponent, lhs, new, prior) rows of one bound-comparison figure."""
    measure, index, _ = EXAMPLE_REFERENCE[which]
    start, stop, step = _FIGURES[which]
    regime = bounds.regime_of(measure, index)
    full, pair_hi, pair_lo = example_values(measure, index)
    e1, e2 = max(pair_hi, pair_lo), min(pair_hi, pair_lo)
    count = int(round((stop - start) / step)) + 1
    rows = []
    for i in range(count):
        exponent = start + i * step
        rep = bounds.compare_chain(full, (e1, e2), 1, regime.power(exponent), regime.name)
        rows.append((exponent, rep.lhs, rep.new_bound, rep.prior_bound))
    return rows


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.dirname(path):
        return os.path.join(base, path)
    return path


def cmd_figure(which: int, out_path: str) -> int:
    rows = figure_rows(which)
    path = _resolve_out(out_path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write("exponent,lhs,new_bound,prior_bound\n")
            for exponent, lhs, new, prior in rows:
                fh.write(f"{exponent:.2f},{lhs:.17g},{new:.17g},{prior:.17g}\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


# Every axis and parameter name of the registry gets its sweep flags.
_AXIS_FLAGS = tuple(
    dict.fromkeys(name for fam in verify.FAMILIES.values() for name, *_ in fam.axes)
)
_PARAM_FLAGS = tuple(
    dict.fromkeys(name for fam in verify.FAMILIES.values() for name, _ in fam.params)
)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value list {text!r}") from exc


def _build_sweep_spec(args) -> verify.SweepSpec:
    fam = verify.family_of(args.family)

    def given(name, suffix, default):
        value = getattr(args, f"{name}_{suffix}", None)
        return default if value is None else value

    grid = tuple(
        (name, float(given(name, "min", lo)), float(given(name, "max", hi)),
         int(given(name, "steps", steps)))
        for name, lo, hi, steps in fam.axes
    )
    params = tuple((name, given(name, "values", defaults)) for name, defaults in fam.params)
    for kind, flags, suffixes, own in (
        ("axis", _AXIS_FLAGS, ("min", "max", "steps"), grid),
        ("parameter", _PARAM_FLAGS, ("values",), params),
    ):
        names = [name for name, *_ in own]
        for flag in flags:
            if flag not in names and any(given(flag, s, None) is not None for s in suffixes):
                raise ValueError(f"family {fam.name!r} has no {flag!r} {kind}")

    overrides = {"grid": grid, "params": params, "seed": args.seed}
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if fam.kind == "grid":
        if args.states is not None:
            raise ValueError("--states applies to state-level families only")
        count = args.samples
    else:
        if args.samples is not None:
            raise ValueError("--samples applies to grid families only")
        count = args.states
    if count is not None:
        overrides["random_samples"] = count
    return verify.default_spec(fam.name, **overrides)


def cmd_sweep(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    spec = _build_sweep_spec(args)
    try:
        report = verify.run_sweep(spec)
    except MemoryError as exc:
        raise MemoryError(f"{spec.size} does not fit in memory: {exc}") from exc
    print(report.to_json(), file=out)
    return 1 if report.violations_total or report.nonfinite else 0


def load_state_file(path: str) -> PureState:
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("state file nests too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    if "lambda" in data:
        return acin_state(AcinParams.from_json(text))
    return PureState.from_json(text)


def _evaluate_report(args) -> dict:
    state = load_state_file(args.state)
    n = state.n_qubits
    if not 3 <= n <= 4:
        raise ValueError(f"evaluate supports 3 or 4 qubits, got {n}")
    pivot = int(args.pivot)
    if not 0 <= pivot < n:
        raise ValueError(f"pivot {pivot} out of range for {n} qubits")
    rest = [q for q in range(n) if q != pivot]

    index = float(args.index)
    regime = bounds.regime_of(args.measure, index)
    power = regime.power(float(args.exponent))

    # The certificate shares the marginals' concurrence table.
    lhs, concurrences, marginals = _cut_values(state, pivot, regime.measure, index)
    positions = bounds.ordering_certificate(state, pivot, rest, concurrences)
    tag, split = bounds.certificate_summary(positions)
    # The chain's tail hypothesis needs a descending pair for the full
    # split and an ascending one otherwise; on an undetermined pattern
    # pick the branch the actual values make evaluable.  With two partners
    # this is the pair relation of the larger and the smaller value.
    if marginals[-2] >= marginals[-1]:
        split = n - 2
    else:
        split = min(split, n - 3)
    report = bounds.compare_chain(lhs, marginals, split, power, regime.name)
    result = report.as_dict()
    result.update(
        {
            "measure": regime.measure,
            "index": index,
            "regime": regime.name,
            "pivot": pivot,
            "partners": rest,
            "marginals": marginals,
            "ordering": tag,
            "ordering_positions": positions,
            "split_index": split,
        }
    )
    return result


def cmd_evaluate(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    result = _evaluate_report(args)
    print(json.dumps(result), file=out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call (building it costs more than a small ``evaluate``)."""
    parser = argparse.ArgumentParser(
        prog="qmonogamy",
        description="Multiqubit entanglement-monogamy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="reproduce a worked regression")
    p_example.add_argument("which", type=int, choices=(1, 2, 3))

    p_figure = sub.add_parser("figure", help="write bound-comparison CSV data")
    p_figure.add_argument("which", type=int, choices=(1, 2, 3))
    p_figure.add_argument("--out", required=True, help="output CSV path")

    p_sweep = sub.add_parser("sweep", help="run an inequality family")
    p_sweep.add_argument("family", help=f"one of: {', '.join(verify.FAMILY_NAMES)}")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--tolerance", type=float, default=None)
    p_sweep.add_argument("--states", type=int, default=None,
                         help="state count for state-level families")
    p_sweep.add_argument("--samples", type=int, default=None,
                         help="random sample count for grid families")
    for flag in _AXIS_FLAGS:
        p_sweep.add_argument(f"--{flag}-min", type=float, default=None)
        p_sweep.add_argument(f"--{flag}-max", type=float, default=None)
        p_sweep.add_argument(f"--{flag}-steps", type=int, default=None)
    for flag in _PARAM_FLAGS:
        p_sweep.add_argument(f"--{flag}-values", type=_float_list, default=None,
                             help=f"comma-separated {flag} list")

    p_eval = sub.add_parser("evaluate", help="bound report for a state file")
    p_eval.add_argument("--state", required=True, help="JSON state file")
    p_eval.add_argument("--measure", required=True, choices=tuple(measures.MEASURES))
    p_eval.add_argument("--index", type=float, required=True,
                        help="entropy index (q or alpha)")
    p_eval.add_argument("--exponent", type=float, required=True,
                        help="power of the relation (mu/eta, or gamma below alpha=2)")
    p_eval.add_argument("--pivot", type=int, default=0, help="pivot qubit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "example":
            return cmd_example(args.which)
        if args.command == "figure":
            return cmd_figure(args.which, args.out)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
