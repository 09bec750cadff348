import numpy as np
import pytest

from meastree.linalg import (
    HADAMARD,
    PAULI_X,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    apply_kraus,
    basis_ket,
    projector,
    random_unitary,
)
from meastree.rand import random_density, random_measurement, random_tree
from meastree.trees import (
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

Q = HilbertSpec.of([("q", 2)])


def density(matrix, space=Q):
    return DensityOperator.of(matrix, space)


def h_then_z_tree():
    """Root applies H as a unitary, then each child measures in Z."""
    mz = Measurement.of({"0": projector(basis_ket(2, 0)), "1": projector(basis_ket(2, 1))})
    return build_tree(
        Q,
        (
            Measurement.of({"u": HADAMARD}),
            {"u": (mz, {"0": None, "1": None})},
        ),
    )


def z_measurement():
    return Measurement.of({"0": projector(basis_ket(2, 0)), "1": projector(basis_ket(2, 1))})


def test_single_node_identity_tree():
    t = single_node_tree(Q)
    assert validate_tree(t) == []
    branches = t.branches()
    assert branches == [()]
    assert np.allclose(branch_operator(t, ()), np.eye(2))
    rho = density(np.eye(2) / 2)
    out = run_tree(t, rho)
    prob, sigma = out[()]
    assert prob == pytest.approx(1.0)
    assert np.allclose(sigma, rho.matrix)


def test_h_then_z_frozen_halves():
    t = h_then_z_tree()
    assert validate_tree(t) == []
    out = run_tree(t, density(projector(basis_ket(2, 0))))
    assert len(out) == 2
    for branch, (prob, sigma) in out.items():
        assert prob == pytest.approx(0.5, abs=1e-12)
        # post-state is the corresponding computational projector, weight 1/2
        idx = int(branch[-1])
        assert np.allclose(sigma, projector(basis_ket(2, idx)) / 2, atol=1e-12)


def test_branch_operator_composes_deepest_first():
    # X then H differs from H then X, so operator order is observable
    t = build_tree(
        Q,
        (
            Measurement.of({"x": PAULI_X}),
            {"x": (Measurement.of({"h": HADAMARD}), {"h": None})},
        ),
    )
    (branch,) = t.branches()
    assert branch == ("x", "h")
    op = branch_operator(t, branch)
    assert np.allclose(op, HADAMARD @ PAULI_X, atol=1e-12)
    assert not np.allclose(op, PAULI_X @ HADAMARD)


def test_branch_measurement_collects_all_leaf_operators():
    # stacked Z measurements: the four branch operators are P0, 0, 0, P1
    mz = z_measurement()
    t = build_tree(Q, (mz, {"0": (z_measurement(), {"0": None, "1": None}),
                            "1": (z_measurement(), {"0": None, "1": None})}))
    m = branch_measurement(t)
    assert m.completeness_defect() <= 1e-12
    p0 = projector(basis_ket(2, 0))
    p1 = projector(basis_ket(2, 1))
    assert np.allclose(m.operator("0/0"), p0)
    assert np.allclose(m.operator("0/1"), np.zeros((2, 2)))
    assert np.allclose(m.operator("1/0"), np.zeros((2, 2)))
    assert np.allclose(m.operator("1/1"), p1)


def test_route_label():
    assert route_label(("0", "1", "0")) == "0/1/0"
    assert route_label(()) == ""


def test_run_tree_matches_branch_operator_action():
    rng = np.random.default_rng(31)
    space = HilbertSpec.of([("q", 3)])
    for _ in range(20):
        t = random_tree(space, rng, depth=3, max_outcomes=3)
        rho = random_density(space, rng)
        out = run_tree(t, rho)
        for branch, (prob, sigma) in out.items():
            op = branch_operator(t, branch)
            post = apply_kraus(op, rho)
            want = np.zeros_like(rho.matrix) if post is None else post.matrix
            assert np.max(np.abs(sigma - want)) <= 1e-10
            assert prob == pytest.approx(float(np.trace(want).real), abs=1e-10)


def test_run_tree_probabilities_sum_to_one():
    rng = np.random.default_rng(32)
    space = HilbertSpec.of([("q", 2)])
    for _ in range(20):
        t = random_tree(space, rng)
        rho = random_density(space, rng)
        out = run_tree(t, rho)
        assert sum(p for p, _ in out.values()) == pytest.approx(1.0, abs=1e-9)


def test_zero_probability_iff_zero_output():
    # |0> into a Z measurement: the "1" branch has zero probability and
    # identically zero output; the "0" branch has both nonzero.
    t = build_tree(Q, (z_measurement(), {"0": None, "1": None}))
    rho = density(projector(basis_ket(2, 0)))
    out = run_tree(t, rho)
    p0, s0 = out[("0",)]
    p1, s1 = out[("1",)]
    assert p0 == pytest.approx(1.0) and np.max(np.abs(s0)) > 0
    assert p1 == 0.0 and np.max(np.abs(s1)) == 0.0
    assert attainable(t, ("0",), rho)
    assert not attainable(t, ("1",), rho)


def test_attainability_agrees_with_output_norm_on_random_cases():
    rng = np.random.default_rng(33)
    space = HilbertSpec.of([("q", 2)])
    for _ in range(30):
        t = random_tree(space, rng)
        rho = random_density(space, rng)
        out = run_tree(t, rho)
        for branch, (prob, sigma) in out.items():
            by_prob = prob > 1e-12
            by_norm = float(np.max(np.abs(sigma))) > 1e-12
            assert by_prob == by_norm
            assert attainable(t, branch, rho) == by_prob


def test_branch_probability_matches_run_tree():
    rng = np.random.default_rng(34)
    space = HilbertSpec.of([("q", 2)])
    t = random_tree(space, rng)
    rho = random_density(space, rng)
    out = run_tree(t, rho)
    for branch, (prob, _) in out.items():
        assert branch_probability(t, branch, rho) == pytest.approx(prob, abs=1e-12)


def test_completeness_of_branch_measurement_random():
    rng = np.random.default_rng(35)
    for _ in range(20):
        space = HilbertSpec.of([("q", int(rng.integers(2, 4)))])
        t = random_tree(space, rng)
        defect = branch_measurement(t).completeness_defect()
        assert defect <= 1e-9


def test_run_tree_probabilities_do_not_depend_on_the_input_trace():
    from meastree.cli import _tree_input
    from meastree.demos import teleportation
    from meastree.reduction import reduce_circuit

    t, _ = reduce_circuit(teleportation())
    rho = np.array([[0.6, 0.2], [0.2, 0.4]])
    for scale in (1.0, 3e-12, 1.5e-12):
        out = run_tree(t, _tree_input(t, "density", scale * rho))
        assert [out[b][0] for b in t.branches()] == pytest.approx([0.25] * 4, abs=1e-12)

def test_run_tree_rejects_zero_trace_input():
    t = h_then_z_tree()
    zero = DensityOperator(np.zeros((2, 2), dtype=complex), Q)
    with pytest.raises(ValueError):
        run_tree(t, zero)


def test_build_tree_label_mismatch_raises():
    with pytest.raises(ValueError):
        build_tree(Q, (z_measurement(), {"0": None, "nope": None}))
    with pytest.raises(ValueError):
        build_tree(Q, (z_measurement(), {"0": None}))  # missing "1"


def test_validate_tree_reports_dimension_mismatch():
    m3 = random_measurement(3, 2, np.random.default_rng(0))
    t = build_tree(Q, (m3, {lbl: None for lbl in m3.labels}))
    assert any("dim" in p for p in validate_tree(t))


def test_unknown_branch_raises():
    t = h_then_z_tree()
    with pytest.raises(ValueError):
        branch_operator(t, ("u", "2"))
    with pytest.raises(ValueError):
        branch_operator(t, ("zzz",))
    with pytest.raises(ValueError):
        branch_operator(t, ("u",))  # stops at an inner node


def test_branches_enumerated_in_declared_order():
    t = build_tree(
        Q,
        (
            Measurement.of({
                "b": HADAMARD @ np.array([[1, 0], [0, 0]], dtype=complex),
                "a": HADAMARD @ np.array([[0, 0], [0, 1]], dtype=complex),
            }),
            {"b": None, "a": None},
        ),
    )
    assert t.branches() == [("b",), ("a",)]


def test_has_roles():
    t = h_then_z_tree()
    assert not t.has_roles()
    space2 = HilbertSpec.of([("p", 2), ("a", 2)])
    mz = z_measurement()
    lifted = {
        lbl: np.kron(mz.operator(lbl), np.eye(2, dtype=complex)) for lbl in mz.labels
    }
    t2 = build_tree(
        space2,
        (Measurement.of(lifted), {"0": None, "1": None}),
        principal_wires=("p",),
        ancilla_wires=("a",),
        ancilla_init=Ket.of(basis_ket(2, 0)),
    )
    assert t2.has_roles()
    assert validate_tree(t2) == []
    assert t2.output_principal == ("p",)
    assert t2.output_ancilla == ("a",)


def two_wire_tree(ancilla, wires=None, measurement=None):
    """A Z readout of ``p`` next to the ancilla wire ``a``."""
    space = HilbertSpec.of([("p", 2), ("a", 2)])
    m = z_measurement() if measurement is None else measurement
    node = TreeNode(m, {label: (label,) for label in m.labels}, ("p",) if wires is None else wires)
    nodes = {(): node, **{(label,): TreeNode(None, {}) for label in m.labels}}
    return MeasurementTree(
        space, (), nodes, principal_wires=("p",), ancilla_wires=("a",), ancilla_init=Ket.of(ancilla)
    )


def test_validate_tree_checks_the_ancilla_vector():
    assert validate_tree(two_wire_tree(basis_ket(2, 0))) == []
    assert validate_tree(two_wire_tree(2 * basis_ket(2, 0))) == ["ancilla_init norm 2.000000 != 1"]
    assert validate_tree(two_wire_tree(basis_ket(3, 0))) == ["ancilla_init does not live on the ancilla wires"]


def test_validate_tree_checks_local_wires():
    assert validate_tree(two_wire_tree(basis_ket(2, 0), ("a",))) == []
    assert validate_tree(two_wire_tree(basis_ket(2, 0), ("x",))) == ["node (): wires ['x'] are unknown or repeated"]
    assert validate_tree(two_wire_tree(basis_ket(2, 0), ("p", "p"))) == [
        "node (): wires ['p', 'p'] are unknown or repeated"
    ]
    assert validate_tree(two_wire_tree(basis_ket(2, 0), ("p", "a"))) == [
        "node (): measurement dim 2 != dim 4 of its wires"
    ]


def test_local_node_acts_on_its_wires_only():
    t = two_wire_tree(basis_ket(2, 0), ("a",), Measurement.of({"x": PAULI_X}))
    assert np.allclose(branch_operator(t, ("x",)), np.kron(np.eye(2), PAULI_X))
    with pytest.raises(ValueError):
        branch_operator(t, ())
    with pytest.raises(ValueError):
        branch_operator(t, ("x", "x"))
    with pytest.raises(ValueError):
        branch_operator(t, ("y",))


def test_random_unitary_tree_output_is_rotated_input():
    rng = np.random.default_rng(36)
    u = random_unitary(2, rng)
    t = build_tree(Q, (Measurement.of({"u": u}), {"u": None}))
    rho = random_density(Q, rng)
    out = run_tree(t, rho)
    ((prob, sigma),) = out.values()
    assert prob == pytest.approx(float(np.trace(rho.matrix).real), abs=1e-12)
    assert np.allclose(sigma, u @ rho.matrix @ u.conj().T, atol=1e-12)
