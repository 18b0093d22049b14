import ast
import pathlib

import qmonogamy

# The package's public names; adding or removing one shows here.
PUBLIC_API = [
    "AcinParams",
    "BoundReport",
    "MEASURES",
    "Measure",
    "PureState",
    "SweepReport",
    "SweepSpec",
    "acin_state",
    "chain_bound",
    "compare_chain",
    "concurrence_pure",
    "concurrence_roof_oracle",
    "concurrence_two_qubit",
    "default_spec",
    "density",
    "f_alpha",
    "g_q",
    "hermitian_eigenvalues",
    "ordering_certificate",
    "pair_bound_naive",
    "pair_bound_new",
    "pair_bound_prior",
    "partial_trace",
    "power_chain",
    "random_pure_state",
    "random_pure_states",
    "renyi_pure",
    "renyi_two_qubit",
    "run_state_check",
    "run_sweep",
    "tsallis_pure",
    "tsallis_two_qubit",
]


def test_all_is_the_pinned_list():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert qmonogamy.__all__ == PUBLIC_API


def test_every_name_resolves():
    for name in qmonogamy.__all__:
        assert getattr(qmonogamy, name) is not None, name


def test_no_private_numpy_import():
    # The package runs on numpy's public API only: no import may name a numpy
    # module with a ``_``-prefixed segment, such as ``numpy.linalg._umath_linalg``.
    src = pathlib.Path(qmonogamy.__file__).parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                parts = module.split(".")
                if parts[0] == "numpy" and any(part.startswith("_") for part in parts[1:]):
                    private.append(f"{path.name}:{node.lineno} {module}")
    assert not private, private
