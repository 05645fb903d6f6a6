"""Decentralized SGD over communication graphs with data-aware mixing.

The package simulates gossip-style SGD where each node averages model
columns with its neighbors through a doubly stochastic mixing matrix,
and provides a solver that periodically re-optimizes that matrix to
cancel gradient heterogeneity using sketched gradients.
"""

from .checks import CheckResult, quadratic_program_oracle, run_checks
from .gme import (
    GmeSolverParams,
    GramMatrix,
    SketchConfig,
    ce_gme,
    center_columns,
    gme_objective,
    gram,
    jl_required_dim,
    project_feasible,
    sketch,
    solve_gme,
)
from .mixing import (
    MixingMatrix,
    Violation,
    compose,
    deviation_operator_norm,
    metropolis_hastings,
    pairing_matrix,
    uniform_clique_averaging,
    validate,
)
from .objectives import (
    Problem,
    full_gradients,
    make_random_quadratics,
    make_replicated,
    make_two_class_ring,
    permute_nodes,
    relative_zeta_sq_at,
    stochastic_gradients,
    zeta_sq_at,
)
from .simulator import (
    ALGORITHMS,
    DivergenceError,
    MetricsLog,
    RunConfig,
    Trace,
    check_update_identity,
    run_dsgd,
    run_hadsgd,
)
from .topology import (
    CliquePartition,
    Topology,
    build_complete,
    build_random_connected,
    build_ring,
    build_torus,
    load_edge_list,
)

__version__ = "0.1.0"
