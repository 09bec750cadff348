import json
import re

import numpy as np
import pytest

from meastree.circuits import (
    Circuit,
    InvalidCircuitError,
    Path,
    enumerate_paths,
    measurement_gate,
    principal_output,
    simulate_path,
    unitary_gate,
    validate_circuit,
)
from meastree.demos import DEMOS, feedforward_x, teleportation
from meastree.linalg import (
    CNOT,
    DensityOperator,
    HilbertSpec,
    _walk,
    basis_ket,
    haar_ket,
    measure_z,
    projector,
)
from meastree.rand import random_circuit, random_density
from meastree.reduction import Bijection, linearize, reduce_circuit, tree_from_linear
from meastree.trees import branch_operator, run_tree, validate_tree


def two_qubit_parallel_z():
    space = HilbertSpec.of([("q0", 2), ("q1", 2)])
    return Circuit.build(
        space,
        ["q0", "q1"],
        [
            measurement_gate("m0", ("q0",), measure_z()),
            measurement_gate("m1", ("q1",), measure_z()),
        ],
        gate_order=["m0", "m1"],
        schedule=[["m0", "m1"]],
    )


def test_parallel_z_layer_merges_with_joined_labels():
    c = two_qubit_parallel_z()
    lin, bij = linearize(c)
    assert len(lin.schedule) == 1
    (merged_id,) = lin.schedule[0]
    g = lin.gates[merged_id]
    (m,) = g.measurements
    assert set(m.labels) == {"0|0", "0|1", "1|0", "1|1"}
    p0 = projector(basis_ket(2, 0))
    p1 = projector(basis_ket(2, 1))
    assert np.allclose(m.operator("0|1"), np.kron(p0, p1))
    assert np.allclose(m.operator("1|0"), np.kron(p1, p0))
    # bijection maps the original two-entry path to the merged single entry
    for path in enumerate_paths(c):
        merged = bij.forward[path]
        assert merged[merged_id] == f"{path['m0']}|{path['m1']}"
        assert bij.backward[merged] == path


def test_linearize_preserves_probability_and_output():
    rng = np.random.default_rng(41)
    for _ in range(10):
        c = random_circuit(rng, max_layers=3)
        lin, bij = linearize(c)
        rho = random_density(c.principal_spec, rng)
        for path in enumerate_paths(c):
            p_old, s_old = simulate_path(c, path, rho)
            p_new, s_new = simulate_path(lin, bij.forward[path], rho)
            assert p_new == pytest.approx(p_old, abs=1e-12)
            assert np.max(np.abs(s_new - s_old)) <= 1e-12


def test_linearize_is_identity_shaped_on_singleton_layers():
    space = HilbertSpec.of([("q", 2)])
    c = Circuit.build(
        space,
        ["q"],
        [measurement_gate("m", ("q",), measure_z())],
    )
    lin, bij = linearize(c)
    assert len(lin.schedule) == len(c.schedule)
    for path in enumerate_paths(c):
        assert set(bij.forward[path].values()) == set(path.values())


def test_tree_from_linear_rejects_multi_gate_layers():
    c = two_qubit_parallel_z()
    with pytest.raises(ValueError):
        tree_from_linear(c)


def test_reduced_tree_shape_matches_paths_and_layers():
    c = teleportation()
    t, bij = reduce_circuit(c)
    assert validate_tree(t) == []
    branches = t.branches()
    paths = enumerate_paths(c)
    assert len(branches) == len(paths)
    # teleportation has 7 layers after merging the parallel measurements
    assert all(len(b) == len(t.branches()[0]) for b in branches)
    assert set(bij.forward) == set(paths)
    assert set(bij.forward[p] for p in paths) == set(branches)
    for p in paths:
        assert bij.backward[bij.forward[p]] == p


def test_reduction_lists_paths_in_enumeration_order():
    cases = [make() for _, make in sorted(DEMOS.items())]
    cases += [random_circuit(np.random.default_rng(s)) for s in range(20)]
    for c in cases:
        assert list(reduce_circuit(c)[1].forward) == enumerate_paths(c)


def test_reduction_preserves_dynamics_on_teleportation():
    c = teleportation()
    t, bij = reduce_circuit(c)
    rng = np.random.default_rng(42)
    rho = DensityOperator.of(projector(haar_ket(2, rng)), c.principal_spec)
    full_rho = DensityOperator.of(
        np.kron(rho.matrix, projector(c.ancilla_init.vector)), t.space
    )
    tree_out = run_tree(t, full_rho)
    for path in enumerate_paths(c):
        p_circ, s_circ = simulate_path(c, path, rho)
        p_tree, s_tree = tree_out[bij.forward[path]]
        assert p_tree == pytest.approx(p_circ, abs=1e-12)
        assert np.max(np.abs(s_tree - s_circ)) <= 1e-12


def test_reduction_preserves_dynamics_on_random_circuits():
    rng = np.random.default_rng(43)
    for _ in range(8):
        c = random_circuit(
            rng,
            require_multigate_layer=True,
            require_classical_channel=True,
            max_paths=48,
        )
        t, bij = reduce_circuit(c)
        assert validate_tree(t) == []
        rho = random_density(c.principal_spec, rng)
        if c.ancilla_spec.dim > 1:
            full = np.kron(rho.matrix, projector(c.ancilla_init.vector))
        else:
            full = rho.matrix
        tree_out = run_tree(t, DensityOperator.of(full, t.space))
        for path in enumerate_paths(c):
            p_circ, s_circ = simulate_path(c, path, rho)
            p_tree, s_tree = tree_out[bij.forward[path]]
            assert p_tree == pytest.approx(p_circ, abs=1e-10)
            assert np.max(np.abs(s_tree - s_circ)) <= 1e-10


def test_reduced_tree_carries_roles_from_circuit():
    c = teleportation()
    t, _ = reduce_circuit(c)
    assert t.has_roles()
    assert t.principal_wires == ("q0",)
    # the final swap returns the travelling state to the input wire
    assert t.output_principal == ("q0",)
    assert np.allclose(t.ancilla_init.vector, c.ancilla_init.vector)


def test_branch_operators_partition_feedforward_corrections():
    # the feedforward circuit's two branches apply different corrections,
    # so their composed operators must differ
    c = feedforward_x()
    t, bij = reduce_circuit(c)
    branches = t.branches()
    assert len(branches) == 2
    ops = [branch_operator(t, b) for b in branches]
    assert not np.allclose(ops[0], ops[1])


def test_bijection_from_pairs_round_trip():
    pairs = [(1, "a"), (2, "b")]
    b = Bijection.from_pairs(pairs)
    assert b.forward[1] == "a" and b.backward["b"] == 2
    with pytest.raises(ValueError):
        Bijection.from_pairs([(1, "a"), (1, "b")])


def test_bijection_hashes_each_key_once_and_names_a_collision():
    class Key:
        hashes = 0

        def __init__(self, name):
            self.name = name

        def __hash__(self):
            Key.hashes += 1
            return hash(self.name)

        def __repr__(self):
            return self.name

    a, b, c = Key("a"), Key("b"), Key("c")
    bij = Bijection.from_pairs([(a, b), (b, c), (c, a)])
    assert Key.hashes == 6 and bij.forward == {a: b, b: c, c: a} and bij.backward == {b: a, c: b, a: c}
    for pairs, collides in [([(a, b), (a, c)], "(a, c)"), ([(a, b), (c, b)], "(c, b)"), ([(a, b), (a, b)], "(a, b)")]:
        with pytest.raises(ValueError, match=re.escape(f"not a bijection: {collides} collides")):
            Bijection.from_pairs(pairs)


def test_a_path_hashes_its_items_once(monkeypatch):
    from meastree import circuits

    c = teleportation()
    prefixes = [prefix for prefix, g, _, _ in _walk(c) if g is None]
    paths = [c._path(prefix) for prefix in prefixes] + [Path(dict(zip(c._order, prefixes[0])))]
    assert {hash(p) for p in paths} == {hash(p._items) for p in paths} and len(set(paths)) == len(prefixes)
    monkeypatch.setattr(circuits, "hash", lambda value: pytest.fail("rehashed"), raising=False)
    assert len({p: None for p in paths * 3}) == len(prefixes)


def test_linearize_records_what_validating_the_linear_circuit_finds():
    """linearize checks only the completeness of the merged measurements; validating
    its linear circuit afresh finds exactly the violations it recorded: none."""
    rng = np.random.default_rng(45)
    circuits = [make() for make in DEMOS.values()] + [random_circuit(rng) for _ in range(40)]
    circuits += [random_circuit(rng, require_multigate_layer=True, require_classical_channel=True) for _ in range(10)]
    for c in circuits:
        linear, _ = linearize(c)
        assert "violations" in vars(linear)  # recorded, not computed on first read
        assert validate_circuit(linear) == linear.violations == []


def test_merged_ids_that_collide_get_layer_prefixes_and_keep_every_path():
    """A gate named "a+b" alone in layer 0, then gates "a" and "b" in layer 1: both layers merge
    to the id "a+b", so linearize names them by layer, and the reduction keeps all 8 paths."""
    space = HilbertSpec.of([("p", 2), ("x", 2), ("y", 2)])
    gates = [measurement_gate(gid, (w,), measure_z()) for gid, w in (("a+b", "p"), ("a", "x"), ("b", "y"))]
    ancilla = np.array([1, 2, 3, 4j]) / np.sqrt(30)  # every ancilla outcome has weight
    c = Circuit.build(space, ["p"], gates, schedule=[["a+b"], ["a", "b"]], ancilla_init=ancilla)
    linear, _ = linearize(c)
    assert set(linear.gates) == {"L0:a+b", "L1:a+b"} and validate_circuit(linear) == []
    t, bij = reduce_circuit(c)
    rho = DensityOperator.of(projector(haar_ket(2, np.random.default_rng(5))), c.principal_spec)
    tree_out = run_tree(t, DensityOperator.of(np.kron(rho.matrix, projector(ancilla)), t.space))
    paths = enumerate_paths(c)
    assert len(paths) == len(tree_out) == 8
    for path in paths:
        p_circ, s_circ = simulate_path(c, path, rho)
        p_tree, s_tree = tree_out[bij.forward[path]]
        assert p_circ > 0 and p_tree == pytest.approx(p_circ, abs=1e-12)
        assert np.max(np.abs(s_tree - s_circ)) <= 1e-12


def test_completeness_survives_reduction():
    rng = np.random.default_rng(44)
    for _ in range(5):
        c = random_circuit(rng, max_layers=3)
        t, _ = reduce_circuit(c)
        for key, node in t.nodes.items():
            if node.is_leaf:
                continue
            assert node.measurement.completeness_defect() <= 1e-9


@pytest.mark.parametrize("name", sorted(DEMOS) + [f"random{s}" for s in range(10)])
def test_one_walker_and_one_resolver_serve_a_linear_circuit_and_its_tree(name):
    from meastree.linalg import _edges, _walk

    c = DEMOS[name]() if name in DEMOS else random_circuit(np.random.default_rng(int(name.removeprefix("random"))))
    linear, _ = linearize(c)
    tree, _ = tree_from_linear(linear)
    assert [prefix for prefix, *_ in _walk(linear)] == [prefix for prefix, *_ in _walk(tree)]
    routes = tree.branches()
    assert routes == [prefix for prefix, gate, _, _ in _walk(linear) if gate is None]
    for route in routes:
        # the tree keeps the linear circuit's measurements: both resolve to the same edges
        edges = [[(label, id(m), wires) for label, m, wires in _edges(roles, route)] for roles in (linear, tree)]
        assert edges[0] == edges[1] and [label for label, _, _ in edges[0]] == list(route)
        for roles in (linear, tree):
            assert _edges(roles, route[:-1]) is None and _edges(roles, route + route[-1:]) is None
            for i in range(len(route)):
                assert _edges(roles, route[:i] + ("not an outcome",) + route[i + 1 :]) is None


def _shared_layer(first, second, space):
    """``first`` and ``second`` in one layer of a circuit on ``space`` whose first wire is principal."""
    return Circuit.build(space, space.wires[:1], [first, second], schedule=[[first.gate_id, second.gate_id]])


def _reduce_on_the_cli(c, tmp_path, capsys):
    from meastree.cli import main
    from meastree.serialize import circuit_to_json

    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(circuit_to_json(c)))
    code = main(["reduce", "--circuit", str(circuit)])
    out, err = capsys.readouterr()
    return code, out, err


def test_a_separator_in_a_label_of_a_shared_layer_is_rejected(tmp_path, capsys):
    two = HilbertSpec.of([("q0", 2), ("q1", 2)])
    odd = measurement_gate("odd", ("q0",), {"a|b": projector(basis_ket(2, 0)), "c": projector(basis_ket(2, 1))})
    c = _shared_layer(odd, measurement_gate("z", ("q1",), measure_z()), two)
    assert c.violations == []
    message = "label 'a|b' contains the reserved separator '|'"
    with pytest.raises(ValueError, match=re.escape(message)):
        linearize(c)
    assert _reduce_on_the_cli(c, tmp_path, capsys) == (1, "", f"error: {message}\n")
    # a gate alone in its layer keeps its labels as they are
    alone = Circuit.build(two, ["q0"], [odd, measurement_gate("z", ("q1",), measure_z())])
    assert linearize(alone)[0].gates["odd"].measurements[0].labels == ("a|b", "c")


def test_a_merged_measurement_is_checked_for_completeness(tmp_path, capsys):
    # each factor is complete within 1e-9, their product is not: (1 + e) Id_2 (x) CNOT
    # has defect e sqrt(8), twice the defect e sqrt(2) of the first factor
    three = HilbertSpec.of([("q0", 2), ("q1", 2), ("q2", 2)])
    e = 0.9e-9 / np.sqrt(2)
    scaled = unitary_gate("s", ("q0",), np.sqrt(1 + e) * np.eye(2))
    assert scaled.measurements[0].completeness_defect() == pytest.approx(0.9e-9, rel=1e-6)
    c = _shared_layer(scaled, unitary_gate("u", ("q1", "q2"), CNOT), three)
    assert c.violations == []
    message = "MEASUREMENT_COMPLETENESS [s+u]: measurement 0: ||sum L^dag L - Id||_F = 1.800e-09"
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        linearize(c)
    assert not isinstance(exc.value, InvalidCircuitError)  # the circuit given is valid
    assert _reduce_on_the_cli(c, tmp_path, capsys) == (1, "", f"error: {message}\n")
