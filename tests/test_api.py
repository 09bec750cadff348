"""The public Python contract in one place: a change to it shows up as a diff of this file."""

import dataclasses
import types

import pytest

import meastree
from meastree import Circuit, HilbertSpec, Ket, MeasurementTree, Path, TreeNode, measure_z

PUBLIC_NAMES = [
    "Bijection", "BranchFactorization", "CNOT", "Circuit", "DEMOS", "DensityOperator", "Gate", "HADAMARD",
    "HilbertSpec", "ID2", "IndependenceReport", "InvalidCircuitError", "IsometryScalingReport", "Ket",
    "Measurement", "MeasurementTree", "PAULI_X", "PAULI_Y", "PAULI_Z", "Path", "SWAP", "Selection",
    "SetIndependenceReport", "TOL", "Tolerances", "TreeNode", "Violation", "apply_kraus", "attainable",
    "basis_ket", "branch_measurement", "branch_operator", "branch_probability", "build_tree", "check_computes",
    "check_independence", "check_isometry_scaling", "check_set_independence", "circuit_from_json",
    "circuit_to_json", "code_embedding", "coin", "configure_tolerances", "constant_factor", "dagger",
    "embed_principal_ket", "enumerate_paths", "factor_branch", "feedforward_x", "flattened_gates", "frob_norm",
    "full_input", "haar_ket", "identity", "is_coherent", "lift_operator", "linearize", "matrix_from_json",
    "matrix_to_json", "measure_discard", "measure_z", "measurement_from_json", "measurement_gate",
    "measurement_to_json", "outcome_probability", "partial_trace", "partial_trace_matrix", "principal_output",
    "projector", "random_circuit", "random_density", "random_measurement", "random_tree", "random_unitary",
    "reduce_circuit", "route_label", "run_tree", "sample_run", "selected_gate", "simulate_path",
    "single_node_tree", "teleportation", "tensor_measurements", "tensor_product", "tree_from_json",
    "tree_from_linear", "tree_to_dot", "tree_to_json", "unitary_gate", "validate_circuit", "validate_tree",
    "vector_from_json", "vector_to_json",
]


def _fields(cls) -> list[tuple[str, bool]]:
    """Each dataclass field's name and whether it is keyword-only."""
    return [(f.name, f.kw_only) for f in dataclasses.fields(cls)]


def test_public_names():
    names = [n for n, v in vars(meastree).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES


def test_tree_fields_and_which_are_keyword_only():
    assert _fields(TreeNode) == [("measurement", False), ("wires", True)]
    assert _fields(MeasurementTree) == [
        ("space", False),
        ("nodes", False),
        ("principal_wires", True),
        ("ancilla_wires", True),
        ("ancilla_init", True),
        ("output_principal_wires", True),
    ]


def test_positional_calls_of_the_old_tree_constructors_raise():
    space = HilbertSpec.of([("q", 2)])
    with pytest.raises(TypeError):
        TreeNode(measure_z(), {"0": ("0",), "1": ("1",)})
    with pytest.raises(TypeError):
        MeasurementTree(space, (), {(): TreeNode(None)})


def test_removed_members_stay_removed():
    removed = ((Ket, "projector"), (Path, "restrict"), (Circuit, "output_ancilla"), (MeasurementTree, "output_ancilla"))
    for cls, name in removed:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_the_cli_imports_no_private_name_of_the_analysis():
    """The verbs are formatters over the public analysis functions: ``cli.py`` takes no
    ``_``-prefixed name from ``meastree.independence``."""
    import ast
    from pathlib import Path

    tree = ast.parse(Path(meastree.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("independence", 1), ("meastree.independence", 0))
        for alias in node.names
    ]
    assert imported, "cli.py no longer imports from meastree.independence"
    assert [name for name in imported if name.startswith("_")] == []
