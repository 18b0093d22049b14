"""Multiqubit entanglement-monogamy toolkit.

Computes concurrence, Tsallis-q and Renyi-alpha entanglement for qubit
states, evaluates tightened powered monogamy lower bounds against earlier
published ones, and numerically certifies the supporting inequalities on
grids and random-state ensembles.
"""

from .bounds import (
    BoundReport,
    PowerParam,
    chain_bound,
    compare_chain,
    ordering_certificate,
    pair_bound_naive,
    pair_bound_new,
    pair_bound_prior,
    power_chain,
)
from .kernel import hermitian_eigenvalues, partial_trace
from .measures import (
    MEASURES,
    Measure,
    concurrence_pure,
    concurrence_roof_oracle,
    concurrence_two_qubit,
    f_alpha,
    g_q,
    renyi_pure,
    renyi_two_qubit,
    tsallis_pure,
    tsallis_two_qubit,
)
from .states import (
    AcinParams,
    PureState,
    acin_state,
    density,
    random_pure_state,
    random_pure_states,
)
from .verify import (
    SweepReport,
    SweepSpec,
    default_spec,
    run_state_check,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AcinParams",
    "BoundReport",
    "MEASURES",
    "Measure",
    "PowerParam",
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
