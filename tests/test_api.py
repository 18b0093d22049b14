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
