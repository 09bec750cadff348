import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meastree import linalg

from meastree.circuits import _simulate, enumerate_paths, simulate_path
from meastree.linalg import (
    HADAMARD,
    PAULI_X,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    apply_kraus,
    basis_ket,
    _resume,
    _walk,
    embed_principal,
    lift_operator,
    projector,
    random_unitary,
)
from meastree.rand import random_circuit, random_density, random_measurement, random_tree
from meastree.reduction import reduce_circuit
from meastree.trees import (
    MeasurementTree,
    TreeNode,
    _route_labels,
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


def test_branch_measurement_labels_colliding_routes_apart():
    """Routes "a/b" and ("a", "b") join to one text: the later one gets the tree JSON's
    node-id suffix, so every branch keeps its operator and the family stays complete."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    inner = Measurement.of({"b": p0, "b#2": p1})
    root = Measurement.of({"a/b": p0, "a": p1})
    t = build_tree(Q, (root, {"a/b": None, "a": (inner, {"b": None, "b#2": None})}))
    assert [route_label(b) for b in t.branches()] == ["a/b", "a/b", "a/b#2"]
    assert _route_labels(t.branches()) == ["a/b", "a/b#2", "a/b#2#2"]
    m = branch_measurement(t)
    assert m.labels == ("a/b", "a/b#2", "a/b#2#2")
    for label, b in zip(m.labels, t.branches()):
        assert np.array_equal(m.operator(label), branch_operator(t, b))
    plain = h_then_z_tree()
    assert _route_labels(plain.branches()) == [route_label(b) for b in plain.branches()] == ["u/0", "u/1"]


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
    with pytest.raises(ValueError):
        branch_operator(t, ("u", "0", "0"))  # runs past a leaf
    del t.nodes[("u", "1")]
    with pytest.raises(ValueError):
        branch_operator(t, ("u", "1"))  # a child missing from a hand-built tree


def test_validate_tree_names_a_node_not_keyed_by_its_route():
    t = h_then_z_tree()
    assert validate_tree(dataclasses.replace(t, nodes={("r",) + key: n for key, n in t.nodes.items()})) == [
        "no root node keyed ()"
    ]
    below_a_leaf = dataclasses.replace(t, nodes={**t.nodes, ("u", "0", "x"): TreeNode(None)})
    assert validate_tree(below_a_leaf) == ["1 nodes unreachable from the root"]
    t.nodes[("w",)] = t.nodes.pop(("u",))
    assert validate_tree(t) == ["node (): missing child ('u',)"]


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


def two_wire_tree(ancilla, wires=None, measurement=None):
    """A Z readout of ``p`` next to the ancilla wire ``a``."""
    space = HilbertSpec.of([("p", 2), ("a", 2)])
    m = z_measurement() if measurement is None else measurement
    node = TreeNode(m, wires=("p",) if wires is None else wires)
    nodes = {(): node, **{(label,): TreeNode(None) for label in m.labels}}
    return MeasurementTree(
        space, nodes, principal_wires=("p",), ancilla_wires=("a",), ancilla_init=Ket.of(ancilla)
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
    incomplete = Measurement({"0": projector(basis_ket(2, 0)), "1": projector(basis_ket(2, 1)) / 2})
    assert validate_tree(two_wire_tree(basis_ket(2, 0), measurement=incomplete)) == [
        "node (): completeness defect 7.500e-01"
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


def _shapes(kernel_calls) -> set[tuple[int, ...]]:
    """The shapes of the blocks handed to the kernel so far."""
    return {shape for _, shape in kernel_calls}


def _reduced(n_wires, seed, **kw):
    t, _ = reduce_circuit(random_circuit(np.random.default_rng(seed), n_wires=n_wires, **kw))
    return t


def _outside_the_range_of_e(t, rng):
    """A unit-trace state whose range is orthogonal to the range of E."""
    e, d = t._isometry, t.space.dim
    q = np.eye(d) - e @ e.conj().T / t.ancilla_init.norm() ** 2
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rest = q @ g @ g.conj().T @ q
    return rest / np.trace(rest).real


@pytest.mark.parametrize("n_wires, seed", [(4, 14), (5, 14), (6, 1), (7, 1), (8, 1)])
def test_narrow_and_two_sided_carries_agree(kernel_calls, n_wires, seed):
    """A principal input carries V = C E; the same input plus a state outside
    the range of E carries D x D states, and the difference of the two
    two-sided runs gives back the principal input's branches."""
    rng = np.random.default_rng(seed)
    t = _reduced(n_wires, seed, max_paths=12)
    d, d_p = t.space.dim, t._isometry.shape[1]
    assert 8 * d_p <= d
    principal = embed_principal(t, random_density(t.space.restrict(t.principal_wires), rng).matrix)
    rest = _outside_the_range_of_e(t, rng)
    narrow = run_tree(t, DensityOperator(principal, t.space))
    assert kernel_calls and _shapes(kernel_calls) == {(d, d_p)}
    kernel_calls.clear()
    mixed = run_tree(t, DensityOperator(principal + rest, t.space))
    alone = run_tree(t, DensityOperator(rest, t.space))
    assert kernel_calls and _shapes(kernel_calls) == {(d, d)}
    t_p = np.trace(principal).real
    for b in t.branches():
        (p, sigma), (p_mixed, s_mixed), (p_rest, s_rest) = narrow[b], mixed[b], alone[b]
        assert np.abs(sigma - (s_mixed - s_rest)).max() <= 1e-12
        assert abs(p * t_p - (p_mixed * (t_p + 1.0) - p_rest)) <= 1e-12


def test_inputs_outside_the_range_of_e_match_the_branch_operators(kernel_calls):
    """A full-rank joint state, and one a hair outside the range of E, take
    the two-sided carry and give C_b sigma_0 C_b^dag."""
    rng = np.random.default_rng(3)
    t = _reduced(6, 1, max_paths=12)
    d = t.space.dim
    near = embed_principal(t, random_density(t.space.restrict(t.principal_wires), rng).matrix)
    near += 1e-9 * _outside_the_range_of_e(t, rng)
    for sigma0 in (random_density(t.space, rng), DensityOperator(near, t.space)):
        kernel_calls.clear()
        out = run_tree(t, sigma0)
        assert kernel_calls and _shapes(kernel_calls) == {(d, d)}
        for b in t.branches():
            c = branch_operator(t, b)
            expected = c @ sigma0.matrix @ c.conj().T
            assert np.abs(out[b][1] - expected).max() <= 1e-12
            assert out[b][0] == pytest.approx(np.trace(expected).real / sigma0.trace(), abs=1e-12)


def test_trees_without_roles_or_ancilla_keep_the_two_sided_carry(kernel_calls):
    t = _reduced(6, 1, max_paths=12)
    rho = random_density(t.space.restrict(t.principal_wires), np.random.default_rng(4))
    sigma0 = DensityOperator(embed_principal(t, rho.matrix), t.space)
    expected = run_tree(t, sigma0)
    bare = MeasurementTree(t.space, t.nodes)
    whole = dataclasses.replace(
        t, principal_wires=t.space.wires, ancilla_wires=(), ancilla_init=Ket.of([1.0], HilbertSpec(()))
    )
    assert not bare.has_roles() and whole.has_roles() and validate_tree(whole) == []
    kernel_calls.clear()
    for tree in (bare, whole):
        out = run_tree(tree, sigma0)
        for b in t.branches():
            assert out[b][0] == pytest.approx(expected[b][0], abs=1e-12)
            assert np.abs(out[b][1] - expected[b][1]).max() <= 1e-12
    assert kernel_calls and _shapes(kernel_calls) == {(t.space.dim, t.space.dim)}


def test_an_ancilla_a_little_off_unit_norm_keeps_the_narrow_carry(kernel_calls):
    """validate_tree allows |a|^2 = 1 +- 1e-9; rho is read with |a|^4."""
    t = _reduced(4, 14, max_paths=12)
    t = dataclasses.replace(t, ancilla_init=Ket.of((1 + 4e-10) * t.ancilla_init.vector, t.ancilla_init.space))
    assert validate_tree(t) == []
    rho = random_density(t.space.restrict(t.principal_wires), np.random.default_rng(5))
    sigma0 = DensityOperator(embed_principal(t, rho.matrix), t.space)
    out = run_tree(t, sigma0)
    assert kernel_calls and _shapes(kernel_calls) == {(t.space.dim, 2)}
    for b in t.branches():
        c = branch_operator(t, b)
        assert np.abs(out[b][1] - c @ sigma0.matrix @ c.conj().T).max() <= 1e-12


def test_a_principal_input_on_a_wide_tree_applies_nothing_to_a_d_by_d_block(kernel_calls):
    c = random_circuit(np.random.default_rng(23), n_wires=8, max_paths=6)
    t, to_branch = reduce_circuit(c)
    assert (t.space.dim, t._isometry.shape[1]) == (256, 2)
    rho = random_density(c.principal_spec, np.random.default_rng(6))
    out = run_tree(t, DensityOperator(embed_principal(t, rho.matrix), t.space))
    inner = [node.measurement for node in t.nodes.values() if not node.is_leaf]
    assert len(kernel_calls) == len(inner)  # one call per inner node, applying each of its edges once
    assert kernel_calls.edges(inner) == kernel_calls.every_edge(inner)
    assert kernel_calls.rows() == len(t.nodes) - 1
    assert _shapes(kernel_calls) == {(256, 2)}
    for p in enumerate_paths(c):
        prob, sigma = simulate_path(c, p, rho)
        assert out[to_branch.forward[p]][0] == pytest.approx(prob, abs=1e-12)
        assert np.abs(out[to_branch.forward[p]][1] - sigma).max() <= 1e-12


def test_a_principal_space_above_an_eighth_keeps_the_two_sided_carry_untested(kernel_calls):
    """With 8 d_P > D the leaf products cost more than the narrow carry
    saves, so run_tree neither builds E nor tests the input against it."""
    t = _reduced(5, 1, max_paths=12)
    assert (t.space.dim, t.space.restrict(t.principal_wires).dim) == (32, 8)
    rho = random_density(t.space.restrict(t.principal_wires), np.random.default_rng(7))
    sigma0 = DensityOperator(embed_principal(t, rho.matrix), t.space)
    out = run_tree(t, sigma0)
    assert kernel_calls and _shapes(kernel_calls) == {(32, 32)}
    assert "_isometry" not in vars(t)
    for b in t.branches():
        c = branch_operator(t, b)
        assert np.abs(out[b][1] - c @ sigma0.matrix @ c.conj().T).max() <= 1e-12


def _reduced_demos_and_randoms():
    from meastree.demos import DEMOS

    circuits = [make() for make in DEMOS.values()] + [random_circuit(np.random.default_rng(s)) for s in range(10)]
    return [reduce_circuit(c)[0] for c in circuits]


def test_branch_isometries_resume_the_same_blocks_in_any_order():
    # V_b taken in reversed branches() order equals V_b of a fresh copy of the tree, and a
    # route that is not a branch raises and leaves the memo of the branches taken as it was
    from meastree.independence import _MEMO, _block

    for t in _reduced_demos_and_randoms():
        for branch in reversed(t.branches()):
            memo = dict(_MEMO[t][0]) if t in _MEMO else {}
            inner = [branch[:-1], branch[:-1] + ("not an outcome",)] if branch else []
            for route in [branch + ("x",), *inner]:
                with pytest.raises(ValueError, match="is not a branch of the tree"):
                    _block(t, route)
            blocks = _MEMO[t][0]
            assert blocks.keys() == memo.keys()
            assert all(blocks[key] is v for key, v in memo.items())
            assert np.array_equal(_block(t, branch)[2], _block(dataclasses.replace(t), branch)[2])


def test_branch_isometries_expand_each_node_once(expand_calls):
    from meastree.independence import _block

    for t in _reduced_demos_and_randoms():
        branches = t.branches()
        expand_calls.clear()
        for branch in branches:
            _block(t, branch)
        assert len(expand_calls) <= len(t.nodes) - 1 + len(branches)
        assert {roles for roles, _ in expand_calls} == {t}


def test_full_space_operators_are_applied_one_by_one_and_never_stacked(kernel_calls):
    """A tree read from JSON holds operators on the whole space; at D = 128 two of them
    outgrow the stacking bound, so each edge is one call and no node copies its operators."""
    t = _reduced(7, 1, max_paths=12)
    lifted = {
        key: TreeNode(None) if node.is_leaf else TreeNode(Measurement(
            {label: lift_operator(op, t.wires_of(node), t.space) for label, op in node.measurement.outcomes.items()}
        ))
        for key, node in t.nodes.items()
    }
    full = dataclasses.replace(t, nodes=lifted)
    rho = random_density(t.space.restrict(t.principal_wires), np.random.default_rng(8))
    sigma0 = DensityOperator(embed_principal(t, rho.matrix), t.space)
    want = run_tree(t, sigma0)
    kernel_calls.clear()
    out = run_tree(full, sigma0)
    assert len(kernel_calls) == len(t.nodes) - 1 and {len(ops) for ops, _ in kernel_calls} == {1}
    assert not any("_stack" in vars(node.measurement) for node in lifted.values() if not node.is_leaf)
    assert max(len(node.measurement.outcomes) for node in lifted.values() if not node.is_leaf) > 1
    for b in t.branches():
        assert out[b][0] == pytest.approx(want[b][0], abs=1e-12)
        assert np.abs(out[b][1] - want[b][1]).max() <= 1e-12


def _carried_blocks(c, t, order, rho, sigma0):
    """Every block the kernel gives for ``c`` and its tree ``t``: a full walk of each, ``_resume``
    over their routes in ``order`` on fresh copies, and ``run_tree`` on a principal and a full input."""
    blocks = [x for *_, x in _walk(c, c._isometry)] + [x for *_, x in _walk(t, t._isometry)]
    for roles in (dataclasses.replace(c), dataclasses.replace(t)):
        routes = [key for key, _, m, _ in _walk(roles) if m is None]
        blocks += [_resume(roles, routes[i % len(routes)]) for i in order]
    for sigma in (sigma0, random_density(t.space, np.random.default_rng(0))):
        blocks += [s for _, s in run_tree(t, sigma).values()]
    return blocks


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_wires=st.sampled_from([3, 4, 6]),
    order=st.lists(st.integers(0, 1000), min_size=1, max_size=12),
)
def test_stacked_and_edge_by_edge_kernel_calls_give_the_same_blocks(seed, n_wires, order):
    """With no fan stacked (bound 0) and every fan stacked (bound inf), the walk, the spine resume
    in any route order and both carries of run_tree give the same blocks bit for bit."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_wires=n_wires, max_paths=12)
    t, _ = reduce_circuit(c)
    rho = random_density(c.principal_spec, rng)
    sigma0 = DensityOperator(embed_principal(c, rho.matrix), c.space)
    runs, stacked, kernel = [], [], linalg._apply_stack
    for bound in (0, math.inf):
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_STACK_BYTES", bound)
            mp.setattr(linalg, "_apply_stack", lambda ops, *a, **kw: rows.append(len(ops)) or kernel(ops, *a, **kw))
            runs.append(_carried_blocks(c, t, order, rho, sigma0))
        stacked.append(max(rows) > 1)
    assert len(runs[0]) == len(runs[1])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
    fans = any(len(m.outcomes) > 1 for g in c.gates.values() for m in g.measurements)
    assert stacked == [False, fans]


def _leaf_results(c, t, rho, sigma0, full):
    """Every path's ``(prefix, probability, trace, output)`` from ``_simulate``, each path's
    ``simulate_path``, and ``run_tree`` on the principal input ``sigma0`` and the full-rank ``full``."""
    sims = [row for chunk in _simulate(c, rho) for row in zip(*chunk)]
    paths = [simulate_path(c, c._path(prefix), rho) for prefix, *_ in sims]
    trees = [list(run_tree(t, sigma).items()) for sigma in (sigma0, full)]
    return sims, paths, trees


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_wires=st.sampled_from([2, 3, 4, 6]))
def test_leaf_outputs_in_chunks_and_one_by_one_are_the_same_bit_for_bit(seed, n_wires):
    """With no chunk stacked (bound 0) and every leaf of a walk in one chunk (bound inf),
    ``_simulate``, ``simulate_path`` and both carries of ``run_tree`` give the same paths and
    branches in the same order, equal probabilities and traces, and outputs equal bit for bit;
    one by one, each output is its block's own ``V rho V^dag``."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_wires=n_wires, max_paths=24)
    t, _ = reduce_circuit(c)
    rho = random_density(c.principal_spec, rng)
    sigma0 = DensityOperator(embed_principal(c, rho.matrix), c.space)
    full = random_density(c.space, rng)
    runs = []
    for bound in (0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_STACK_BYTES", bound)
            runs.append(_leaf_results(dataclasses.replace(c), dataclasses.replace(t), rho, sigma0, full))
    (sims, paths, trees), (sims_inf, paths_inf, trees_inf) = runs
    assert [row[:3] for row in sims] == [row[:3] for row in sims_inf]
    assert all(np.array_equal(a[3], b[3]) for a, b in zip(sims, sims_inf))
    for (p, sigma), (p_inf, sigma_inf), row in zip(paths, paths_inf, sims):
        assert p == p_inf == row[1] and np.array_equal(sigma, sigma_inf) and np.array_equal(sigma, row[3])
    for run, run_inf in zip(trees, trees_inf):
        assert [(key, p) for key, (p, _) in run] == [(key, p) for key, (p, _) in run_inf]
        assert all(np.array_equal(a, b) for (_, (_, a)), (_, (_, b)) in zip(run, run_inf))
    blocks = [v for prefix, g, _, v in _walk(c, c._isometry) if g is None]
    for v, row in zip(blocks, sims, strict=True):
        assert np.array_equal(v @ rho.matrix @ v.conj().T, row[3])


def _chunk_sizes(n_leaves, block, d):
    """The run lengths ``linalg._chunks`` makes of ``n_leaves`` blocks of ``block`` bytes with ``d x d`` outputs."""
    per = max(1, linalg._STACK_BYTES // (block + 16 * d * d))
    return [per] * (n_leaves // per) + [n_leaves % per] * (n_leaves % per > 0)


@pytest.mark.parametrize("n_wires, max_paths", [(3, 216), (8, 6)])
def test_one_output_product_per_chunk_of_leaves(monkeypatch, n_wires, max_paths):
    """A ``paths``-sized circuit (D = 8) makes its outputs in runs of over a hundred
    paths, one stacked product each; at D = 256 an output outgrows the bound and each
    path and branch makes its own. The tree's principal carry chunks the same way."""
    rows, outputs = [], linalg._outputs
    monkeypatch.setattr(linalg, "_outputs", lambda vs, *a: rows.append(len(vs)) or outputs(vs, *a))
    rng = np.random.default_rng(3)
    draws = [random_circuit(rng, n_wires=n_wires, max_paths=max_paths) for _ in range(8)]
    # the most paths, among the draws whose tree carries V if there are any
    c = max(draws, key=lambda c: (8 * c._isometry.shape[1] <= c.space.dim, len(enumerate_paths(c))))
    rho = random_density(c.principal_spec, rng)
    n_paths, d = len(enumerate_paths(c)), c.space.dim
    want = _chunk_sizes(n_paths, c._isometry.nbytes, d)
    assert sum(len(chunk[0]) for chunk in _simulate(c, rho)) == n_paths
    assert rows == want
    if n_wires == 3:
        assert len(want) < n_paths / 100
    else:
        assert want == [1] * n_paths
    t, _ = reduce_circuit(c)
    rows.clear()
    run_tree(t, DensityOperator(embed_principal(c, rho.matrix), c.space))
    assert rows == (want if 8 * c._isometry.shape[1] <= d else [])
