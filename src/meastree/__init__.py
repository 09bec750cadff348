"""Circuits with general measurements, compiled to measurement trees.

The library models finite-dimensional quantum circuits whose gates
perform general measurements, possibly chosen by classical feedforward
from earlier outcomes, and executed according to a layered schedule. A
constructive reduction turns any such circuit into a measurement tree,
where each root-to-leaf branch composes to a single operator. On top of
that sit the input-independence checks: a branch that computes an
isometry does so with a probability that cannot depend on the input.
"""

from .circuits import (
    Circuit,
    Gate,
    InvalidCircuitError,
    Path,
    Selection,
    Violation,
    embed_principal_ket,
    enumerate_paths,
    flattened_gates,
    full_input,
    is_coherent,
    measurement_gate,
    principal_output,
    sample_run,
    selected_gate,
    simulate_path,
    unitary_gate,
    validate_circuit,
)
from .demos import DEMOS, code_embedding, coin, feedforward_x, measure_discard, teleportation
from .independence import (
    BranchFactorization,
    IndependenceReport,
    IsometryScalingReport,
    SetIndependenceReport,
    check_computes,
    check_independence,
    check_isometry_scaling,
    check_set_independence,
    constant_factor,
    factor_branch,
)
from .linalg import (
    CNOT,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SWAP,
    TOL,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    Tolerances,
    apply_kraus,
    basis_ket,
    configure_tolerances,
    dagger,
    frob_norm,
    haar_ket,
    identity,
    lift_operator,
    measure_z,
    outcome_probability,
    partial_trace,
    partial_trace_matrix,
    projector,
    random_unitary,
    tensor_measurements,
    tensor_product,
)
from .rand import random_circuit, random_density, random_measurement, random_tree
from .reduction import Bijection, linearize, reduce_circuit, tree_from_linear
from .serialize import (
    circuit_from_json,
    circuit_to_json,
    matrix_from_json,
    matrix_to_json,
    measurement_from_json,
    measurement_to_json,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    vector_from_json,
    vector_to_json,
)
from .trees import (
    MeasurementTree,
    TreeNode,
    attainable,
    branch_measurement,
    branch_operator,
    branch_probability,
    build_tree,
    route_label,
    run_tree,
    single_node_tree,
    validate_tree,
)

__version__ = "0.1.0"
