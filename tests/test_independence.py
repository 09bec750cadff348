import json

import numpy as np
import pytest

from meastree.demos import DEMOS, code_embedding, coin, feedforward_x, measure_discard, teleportation
from meastree.independence import (
    check_computes,
    check_independence,
    check_isometry_scaling,
    check_set_independence,
    constant_factor,
    factor_branch,
)
from meastree.linalg import (
    ID2,
    PAULI_X,
    HilbertSpec,
    basis_ket,
    dagger,
    embed_principal,
    haar_ket,
    projector,
    random_unitary,
)
from meastree.rand import random_circuit, random_density
from meastree.reduction import reduce_circuit
from meastree.trees import branch_operator, single_node_tree

I2 = np.eye(2, dtype=complex)


def reduced(demo):
    t, _ = reduce_circuit(demo())
    return t


def test_teleportation_branches_factor_as_identity():
    t = reduced(teleportation)
    for branch in t.branches():
        fact = factor_branch(t, branch)
        assert fact is not None
        assert fact.kind == "unitary"
        assert np.max(np.abs(fact.principal_operator - I2)) <= 1e-8
        assert fact.residual <= 1e-8
        assert fact.probability == pytest.approx(0.25, abs=1e-9)
        b = fact.ancilla_vector
        assert float(np.vdot(b, b).real) == pytest.approx(0.25, abs=1e-9)
        # the ancilla lands in a single computational state of weight 1/2
        mags = np.abs(b)
        assert np.count_nonzero(mags > 1e-9) == 1
        assert float(mags.max()) == pytest.approx(0.5, abs=1e-9)


def test_teleportation_factorization_reproduces_mixed_dynamics():
    t = reduced(teleportation)
    rng = np.random.default_rng(51)
    anc = projector(t.ancilla_init.vector)
    p_spec = HilbertSpec.of([("q", 2)])
    facts = {b: factor_branch(t, b) for b in t.branches()}
    for _ in range(30):
        rho = random_density(p_spec, rng).matrix
        joint = np.kron(rho, anc)
        for branch, fact in facts.items():
            c = branch_operator(t, branch)
            got = c @ joint @ dagger(c)
            u, b = fact.principal_operator, fact.ancilla_vector
            want = np.kron(u @ rho @ dagger(u), np.outer(b, b.conj()))
            assert np.max(np.abs(got - want)) <= 1e-8


def test_teleportation_check_independence():
    t = reduced(teleportation)
    for branch in t.branches():
        report = check_independence(t, branch, probes=32, seed=7)
        assert report.verdict == "independent"
        assert report.min_probability == pytest.approx(0.25, abs=1e-9)
        assert report.max_probability == pytest.approx(0.25, abs=1e-9)
        assert report.max_deviation <= 1e-9
        assert report.probe_count >= 32


def test_teleportation_computes_identity_not_x():
    t = reduced(teleportation)
    for branch in t.branches():
        holds, residual = check_computes(t, branch, I2, probes=8, seed=3)
        assert holds and residual <= 1e-9
        holds_x, residual_x = check_computes(t, branch, PAULI_X, probes=8, seed=3)
        assert not holds_x and residual_x > 1e-3


def test_teleportation_set_independence():
    t = reduced(teleportation)
    branches = t.branches()
    full = check_set_independence(t, branches, probes=24, seed=5)
    assert full.verdict == "independent"
    assert full.constant == pytest.approx(1.0, abs=1e-9)
    assert full.max_deviation <= 1e-9
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            pair = check_set_independence(t, [branches[i], branches[j]], probes=16, seed=5)
            assert pair.verdict == "independent"
            assert pair.constant == pytest.approx(0.5, abs=1e-9)
    single = check_set_independence(t, [branches[0]], probes=16, seed=5)
    assert single.constant == pytest.approx(0.25, abs=1e-9)


def test_bare_z_measurement_depends_on_input():
    t = reduced(measure_discard)
    plus = (basis_ket(2, 0) + basis_ket(2, 1)) / np.sqrt(2)
    for branch in t.branches():
        assert factor_branch(t, branch) is None
        report = check_independence(t, branch, probes=16, seed=1, extra_probes=[plus])
        assert report.verdict == "dependent"
        assert report.max_deviation >= 0.3
    group = check_set_independence(t, t.branches()[:1], probes=8, seed=1)
    assert group.verdict == "dependent"


def test_bare_z_measurement_full_set_is_independent():
    # neither branch factors, yet their probabilities sum to 1 on every input
    t = reduced(measure_discard)
    full = check_set_independence(t, t.branches(), probes=8, seed=1)
    assert full.verdict == "independent"
    assert full.constant == pytest.approx(1.0, abs=1e-9)


def test_coin_branches_carry_half_weight():
    t = reduced(coin)
    assert len(t.branches()) == 2
    for branch in t.branches():
        fact = factor_branch(t, branch)
        assert fact is not None
        assert fact.kind == "unitary"
        assert np.max(np.abs(fact.principal_operator - I2)) <= 1e-9
        assert fact.probability == pytest.approx(0.5, abs=1e-9)
    both = check_set_independence(t, t.branches(), probes=16, seed=2)
    assert both.verdict == "independent"
    assert both.constant == pytest.approx(1.0, abs=1e-9)


def test_coin_isometry_scaling_with_scaled_supply():
    t = reduced(coin)
    report = check_isometry_scaling(t, ID2 / np.sqrt(2))
    assert report.verdict == "unitary"
    assert report.t_scale == pytest.approx(np.sqrt(2), abs=1e-9)


def test_teleportation_isometry_scaling_compensates_supplied_scale():
    t = reduced(teleportation)
    report = check_isometry_scaling(t, I2)
    assert report.verdict == "unitary"
    assert report.t_scale == pytest.approx(1.0, abs=1e-9)
    doubled = check_isometry_scaling(t, 2.0 * I2)
    assert doubled.verdict == "unitary"
    assert doubled.t_scale == pytest.approx(0.5, abs=1e-9)


def test_code_embedding_is_isometry_only():
    t = reduced(code_embedding)
    (branch,) = t.branches()
    fact = factor_branch(t, branch)
    assert fact is not None
    assert fact.kind == "isometry-only"
    u = fact.principal_operator
    assert u.shape == (4, 2)
    want = np.zeros((4, 2), dtype=complex)
    want[0, 0] = 1.0
    want[3, 1] = 1.0
    assert np.max(np.abs(u - want)) <= 1e-9
    report = check_isometry_scaling(t, u)
    assert report.verdict == "isometry"
    assert report.t_scale == pytest.approx(1.0, abs=1e-9)


def test_feedforward_branches_disagree_so_scaling_is_inconclusive():
    t = reduced(feedforward_x)
    # each branch factors on its own (to I and X respectively)
    kinds = {tuple(b): factor_branch(t, b).kind for b in t.branches()}
    assert set(kinds.values()) == {"unitary"}
    report = check_isometry_scaling(t, I2)
    assert report.verdict == "inconclusive"
    assert "differ" in report.detail


def test_constant_factor_recovers_planted_vectors():
    rng = np.random.default_rng(52)
    for _ in range(30):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        d3 = int(rng.integers(1, 4))
        base = rng.normal(size=(d2, d1)) + 1j * rng.normal(size=(d2, d1))
        c = rng.normal(size=d3) + 1j * rng.normal(size=d3)
        joint = np.kron(base, c[:, None])
        got = constant_factor(joint, base)
        assert got is not None
        assert np.max(np.abs(got - c)) <= 1e-9


def test_constant_factor_rejects_entangled_joint_map():
    rng = np.random.default_rng(53)
    base = random_unitary(2, rng)
    e = np.eye(2, dtype=complex)
    joint = np.zeros((4, 2), dtype=complex)
    joint[:, 0] = np.kron(base[:, 0], e[:, 0])
    joint[:, 1] = np.kron(base[:, 1], e[:, 1])
    assert constant_factor(joint, base) is None


def test_constant_factor_input_guards():
    with pytest.raises(ValueError):
        constant_factor(np.ones((4, 2)), np.ones((3, 3)))  # shapes incompatible
    with pytest.raises(ValueError):
        constant_factor(np.ones((6, 3)), np.ones((2, 3)))  # base has rank 1


def test_roleless_tree_is_rejected():
    q = HilbertSpec.of([("q", 2)])
    t = single_node_tree(q)
    with pytest.raises(ValueError):
        factor_branch(t, ())
    with pytest.raises(ValueError):
        check_independence(t, ())
    with pytest.raises(ValueError):
        check_isometry_scaling(t, I2)


def test_factor_branch_random_unitary_circuitless_tree():
    # a constructed two-wire tree acting as U on the principal wire and
    # leaving the |0> ancilla alone factors with weight 1
    from meastree.linalg import Ket, Measurement
    from meastree.trees import build_tree

    rng = np.random.default_rng(54)
    space = HilbertSpec.of([("p", 2), ("a", 2)])
    for _ in range(5):
        u = random_unitary(2, rng)
        lifted = np.kron(u, I2)
        t = build_tree(
            space,
            (Measurement.of({"u": lifted}), {"u": None}),
            principal_wires=("p",),
            ancilla_wires=("a",),
            ancilla_init=Ket.of(basis_ket(2, 0)),
        )
        fact = factor_branch(t, ("u",))
        assert fact is not None
        assert fact.kind == "unitary"
        assert fact.probability == pytest.approx(1.0, abs=1e-9)
        # recovered operator equals u up to the canonical phase gauge
        overlap = complex(np.vdot(fact.principal_operator, u))
        aligned = u * (overlap.conjugate() / abs(overlap))
        assert np.max(np.abs(fact.principal_operator - aligned)) <= 1e-8


def test_feedforward_branches_have_constant_probability():
    # even though the two branches apply different corrections, each
    # fires with probability 1/2 on every input
    t = reduced(feedforward_x)
    for branch in t.branches():
        report = check_independence(t, branch, probes=12, seed=9)
        assert report.verdict == "independent"
        assert report.max_deviation <= 1e-9
        assert report.min_probability == pytest.approx(0.5, abs=1e-9)


def test_factor_branch_accepts_complex_ancilla_vector():
    # a one-gate measurement on the ancilla sends e_i -> e_i (x) b with a
    # complex b; U (x) b must reproduce the branch isometry V_b
    from meastree.rand import random_circuit

    rng = np.random.default_rng(7)
    t, _ = reduce_circuit([random_circuit(rng) for _ in range(46)][45])
    assert t.ancilla_wires == ("q1",)
    for branch in t.branches():
        fact = factor_branch(t, branch)
        assert fact is not None
        b = fact.ancilla_vector
        assert np.max(np.abs(b.imag)) > 0.1
        c = branch_operator(t, branch)
        v = np.stack([c @ embed_principal(t, basis_ket(2, i)) for i in range(2)], axis=1)
        assert np.max(np.abs(v - np.kron(fact.principal_operator, b[:, None]))) <= 1e-12
        assert fact.probability == pytest.approx(float(np.vdot(b, b).real), abs=1e-12)


def inner_measurements(t, branch=None):
    """The measurement of every inner node of ``t``, or of the inner nodes along ``branch``."""
    if branch is not None:
        return [t.nodes[tuple(branch[:k])].measurement for k in range(len(branch))]
    return [node.measurement for node in t.nodes.values() if not node.is_leaf]


def test_each_edge_is_applied_once_and_each_branch_decomposed_once(tmp_path, monkeypatch, kernel_calls):
    from meastree.cli import main
    from meastree.linalg import _walk
    from meastree.serialize import circuit_to_json, matrix_to_json


    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(args) or svd(*args, **kwargs))

    # a full per-branch analysis applies each edge of the tree once and decomposes each branch once
    t = reduced(teleportation)
    branches = t.branches()
    assert len(branches) == 4
    for branch in branches:
        factor_branch(t, branch)
        check_independence(t, branch, probes=4, seed=0)
        check_computes(t, branch, I2, probes=4, seed=0)
    check_set_independence(t, branches, probes=4, seed=0)
    check_isometry_scaling(t, I2)
    inner = inner_measurements(t)
    assert kernel_calls.edges(inner) == kernel_calls.every_edge(inner) and len(kernel_calls) == len(inner)
    assert len(svds) == len(branches)

    # a lone branch makes one kernel call per node of its own route, for all of that node's outcomes
    lone = reduced(teleportation)
    kernel_calls.clear()
    factor_branch(lone, branches[-1])
    route = inner_measurements(lone, branches[-1])
    assert kernel_calls.edges(route) == kernel_calls.every_edge(route) and len(kernel_calls) == len(route)

    # check-unitary factors each branch once, for the scaling test and the per-branch test alike,
    # from one walk of the circuit that applies each of its edges once and builds no tree
    circuit = tmp_path / "teleportation.json"
    circuit.write_text(json.dumps(circuit_to_json(teleportation())))
    op = tmp_path / "op.json"
    op.write_text(json.dumps(matrix_to_json(I2)))
    kernel_calls.clear()
    svds.clear()
    argv = ["check-unitary", "--circuit", str(circuit), "--operator", str(op), "--probes", "4", "--seed", "0"]
    assert main(argv) == 0
    assert len(svds) == len(branches)
    assert kernel_calls.rows() == sum(1 for _ in _walk(teleportation())) - 1
    assert len(kernel_calls) == sum(1 for _, _, m, _ in _walk(teleportation()) if m is not None)


def test_tolerances_set_between_calls_apply_to_a_memoised_tree(monkeypatch):
    from meastree.linalg import TOL, configure_tolerances

    monkeypatch.setattr(TOL, "zero", TOL.zero)  # restored after the test
    t = reduced(teleportation)
    branch = t.branches()[0]
    assert factor_branch(t, branch) is not None
    assert check_computes(t, branch, I2)[0]
    configure_tolerances(zero=0.8)  # the top singular value of each branch, 1/sqrt(2), now counts as zero
    fresh = reduced(teleportation)
    for tree in (t, fresh):
        assert factor_branch(tree, branch) is None
        assert check_computes(tree, branch, I2) == (False, float("inf"))
        assert check_isometry_scaling(tree, I2).verdict == "inconclusive"
    configure_tolerances(zero=1e-12)
    assert factor_branch(t, branch) is not None


def test_memoised_analysis_is_read_only_and_unchanged_by_callers():
    from meastree.independence import _branch_svd, _probe_kets

    t = reduced(teleportation)
    branch = t.branches()[1]
    first = factor_branch(t, branch)
    want = factor_branch(reduced(teleportation), branch)
    first.principal_operator[:] = 7.0
    first.ancilla_vector[:] = 7.0
    again = factor_branch(t, branch)
    assert np.array_equal(again.principal_operator, want.principal_operator)
    assert np.array_equal(again.ancilla_vector, want.ancilla_vector)
    assert again.residual == want.residual
    memo = [t._branch_isometry(branch), *_branch_svd(t, branch), *(a for _, block, fan in t._spine for a in [block, *(fan or {}).values()])]
    memo.append(_probe_kets(2, 4, seed=0))
    for a in memo:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
    assert _probe_kets(2, 4, seed=0) is _probe_kets(2, 4, seed=0)
    assert _probe_kets(2, 4, seed=0, extra=[np.ones(2)]).flags.writeable


def test_carried_branch_isometry_equals_the_branch_operator_route():
    # V_b carried down the branch from E equals C_b E / |a| with C_b built in full
    from meastree.independence import _isometries
    from meastree.linalg import _input_isometry
    from meastree.rand import random_circuit

    circuits = [demo() for demo in (teleportation, measure_discard, feedforward_x, coin, code_embedding)]
    circuits += [random_circuit(np.random.default_rng(seed)) for seed in range(20)]
    for c in circuits:
        t, _ = reduce_circuit(c)
        e = _input_isometry(t)
        for branch in t.branches():
            want = branch_operator(t, branch) @ e / t.ancilla_init.norm()
            assert np.max(np.abs(next(_isometries(t, [branch])) - want)) <= 1e-12


def copy_map_tree():
    """Two qubits p, a with a |0> ancilla and outcomes k, j, both CNOT/sqrt(2):
    each branch sends |i> to |i>|i>/sqrt(2)."""
    from meastree.linalg import CNOT, Ket, Measurement
    from meastree.trees import build_tree

    space = HilbertSpec.of([("p", 2), ("a", 2)])
    half = CNOT / np.sqrt(2)
    return build_tree(
        space,
        (Measurement.of({"k": half, "j": half}), {"k": None, "j": None}),
        principal_wires=("p",),
        ancilla_wires=("a",),
        ancilla_init=Ket.of(basis_ket(2, 0)),
    )


def test_copy_map_is_independent_but_computes_no_operator():
    # the converse of the principle fails: constant probability without a U
    t = copy_map_tree()
    report = check_independence(t, ("k",), probes=8, seed=0)
    assert report.verdict == "independent"
    assert report.min_probability == pytest.approx(0.5, abs=1e-12)
    assert report.max_probability == pytest.approx(0.5, abs=1e-12)
    single = check_set_independence(t, [("k",)], probes=8, seed=0)
    assert single.verdict == "independent"
    assert single.constant == pytest.approx(0.5, abs=1e-12)
    full = check_set_independence(t, t.branches(), probes=8, seed=0)
    assert full.verdict == "independent"
    assert full.constant == pytest.approx(1.0, abs=1e-12)
    assert factor_branch(t, ("k",)) is None
    assert check_computes(t, ("k",), I2) == (False, float("inf"))


def test_factoring_branches_have_scalar_gram_on_random_circuits():
    # the paper's principle: a witness V_b = U (x) b forces
    # V_b^dag V_b = |b|^2 I, so the probability is |b|^2 on every input
    from meastree.rand import random_circuit

    witnesses = 0
    for seed in range(60):
        t, _ = reduce_circuit(random_circuit(np.random.default_rng(seed)))
        d = 2 ** len(t.principal_wires)
        e = np.stack([embed_principal(t, basis_ket(d, i)) for i in range(d)], axis=1)
        for branch in t.branches():
            fact = factor_branch(t, branch)
            if fact is None:
                continue
            witnesses += 1
            v = branch_operator(t, branch) @ e
            assert np.max(np.abs(dagger(v) @ v - fact.probability * np.eye(d))) <= 1e-9
            report = check_independence(t, branch, probes=4, seed=seed)
            assert report.verdict == "independent"
            assert report.min_probability == pytest.approx(fact.probability, abs=1e-9)
            assert report.max_probability == pytest.approx(fact.probability, abs=1e-9)
    assert witnesses >= 9


def test_negative_probe_count_is_rejected():
    t = reduced(teleportation)
    b = t.branches()[0]
    discard = reduced(measure_discard)
    for check in (
        lambda: check_independence(t, b, probes=-1),
        lambda: check_set_independence(t, t.branches(), probes=-1),
        lambda: check_computes(t, b, I2, probes=-1),
        lambda: check_computes(t, b, PAULI_X, probes=-1),  # a branch that does not compute X
        lambda: factor_branch(t, b, random_probes=-1),
        lambda: factor_branch(discard, discard.branches()[0], random_probes=-1),  # does not factor
    ):
        with pytest.raises(ValueError, match="probe count"):
            check()


def test_empty_branch_set_is_independent_with_constant_zero():
    t = reduced(teleportation)
    report = check_set_independence(t, [], probes=4, seed=0)
    assert report.branches == ()
    assert report.verdict == "independent"
    assert report.constant == 0.0
    assert report.min_sum == report.max_sum == report.max_deviation == 0.0


@pytest.mark.parametrize("d", [1, 2, 4, 32])
def test_probe_matrix_is_basis_then_extras_then_successive_haar_kets(d):
    from meastree.independence import _probe_kets

    rng = np.random.default_rng(3)
    extras = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2)]
    kets = _probe_kets(d, 5, seed=11, extra=extras)
    haar = np.random.default_rng(11)
    want = [basis_ket(d, i) for i in range(d)] + [x / np.linalg.norm(x) for x in extras]
    want += [haar_ket(d, haar) for _ in range(5)]
    assert kets.shape == (d, d + 7)
    assert np.max(np.abs(kets - np.stack(want, axis=1))) <= 1e-15
    assert _probe_kets(d, 0, seed=11).shape == (d, d)


def test_input_isometry_is_built_once_per_call(monkeypatch):
    """E is built once per tree and shared by every later analysis of it."""
    from meastree import trees

    calls = []
    build = trees._input_isometry

    def counting(t):
        calls.append(t)
        return build(t)

    monkeypatch.setattr(trees, "_input_isometry", counting)
    t = reduced(teleportation)
    assert len(t.branches()) == 4
    check_set_independence(t, t.branches(), probes=4, seed=0)
    assert len(calls) == 1
    check_isometry_scaling(t, I2)
    assert len(calls) == 1
    assert not t._isometry.flags.writeable


def test_probe_cross_checks_match_the_per_ket_loop_and_catch_a_wrong_answer():
    from meastree.independence import _branch_svd, _factor, _isometries, _probe_kets, _range, _witness_miss
    from meastree.linalg import bipartition_ket

    t = reduced(teleportation)
    kets = _probe_kets(2, 8, seed=3)
    for branch, v in zip(t.branches(), _isometries(t, t.branches())):
        u, b = _factor(t, _branch_svd(t, branch))
        images = [v @ psi for psi in kets.T]
        misses = [np.linalg.norm(bipartition_ket(x, t.space, t.output_principal) - np.outer(u @ psi, b))
                  for x, psi in zip(images, kets.T)]
        assert _witness_miss(t, v, kets, u, b) == pytest.approx(max(misses), abs=1e-15)
        lo, hi, _ = _range([v], kets)
        probs = [np.vdot(x, x).real for x in images]
        assert lo - 1e-12 <= min(probs) <= max(probs) <= hi + 1e-12
        with pytest.raises(AssertionError, match="exact range"):
            _range([v], 2 * kets)
        with pytest.raises(AssertionError, match="miss the factorization"):
            _witness_miss(t, v, kets, PAULI_X @ u, b)


@pytest.fixture(scope="module")
def c6():
    """``c_6``: the first 6-wire draw of ``default_rng(11)`` with at least 170 paths."""
    from meastree.circuits import enumerate_paths
    from meastree.rand import random_circuit

    rng = np.random.default_rng(11)
    while True:
        c = random_circuit(
            rng, n_wires=6, max_layers=6, max_paths=512, require_multigate_layer=True, require_classical_channel=True
        )
        if len(enumerate_paths(c)) >= 170:
            return c


def assert_verbs_equal_the_tree_functions(c, tmp_path, capsys, seed, factor_paths=None, operator=None):
    """check-independence, factor and check-unitary on ``c`` report what the tree functions
    report on ``reduce_circuit(c)``: the same keys, row order, labels, verdicts, probe counts
    and exit codes, and floats within 1e-12. check-unitary checks ``operator``, by default
    the first branch factor found or the identity. Returns the two verdict verbs'
    ``(exit code, JSON)``."""
    from meastree.circuits import flattened_gates
    from meastree.cli import main
    from meastree.serialize import circuit_to_json, matrix_from_json, matrix_to_json, vector_from_json
    from meastree.trees import route_label

    t, bij = reduce_circuit(c)
    e, order = t._isometry, flattened_gates(c)
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(circuit_to_json(c)))

    def run(*argv):
        code = main([*argv, "--circuit", str(circuit), "--seed", str(seed)])
        return code, json.loads(capsys.readouterr().out)

    def close(got, want):
        return np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0) <= 1e-12

    independence_code, rows = run("check-independence", "--probes", "4")
    reports = [check_independence(t, branch, probes=4, seed=seed) for branch in bij.forward.values()]
    assert independence_code == (0 if all(rep.verdict == "independent" for rep in reports) else 3)
    assert len(rows) == len(reports)
    for row, (p, branch), rep in zip(rows, bij.forward.items(), reports):
        assert list(row) == ["path", "branch", "probe_count", "min_probability", "max_probability", "max_deviation", "verdict"]
        assert list(row["path"].items()) == [(g, p[g]) for g in order]
        assert (row["branch"], row["probe_count"], row["verdict"]) == (route_label(branch), rep.probe_count, rep.verdict)
        got = [row["min_probability"], row["max_probability"], row["max_deviation"]]
        assert close(got, [rep.min_probability, rep.max_probability, rep.max_deviation])

    paths = list(bij.forward)
    for p in factor_paths(paths) if factor_paths else paths:
        spec = ",".join(f"{g}={p[g]}" for g in order)
        code, doc = run("factor", "--path", spec)
        f = factor_branch(t, bij.forward[p], seed=seed)
        assert (code, doc["path"], doc["branch"], doc["factored"]) == (0 if f else 3, dict(p), route_label(bij.forward[p]), f is not None)
        if f is None:
            assert list(doc) == ["path", "branch", "factored"]
            continue
        assert list(doc) == ["path", "branch", "factored", "kind", "probability", "residual", "U", "b"]
        assert doc["kind"] == f.kind
        assert close([doc["probability"], doc["residual"]], [f.probability, f.residual])
        assert close(matrix_from_json(doc["U"]), f.principal_operator) and close(vector_from_json(doc["b"]), f.ancilla_vector)

    if operator is None:
        factors = [f for f in (factor_branch(t, branch) for branch in t.branches()) if f is not None]
        operator = factors[0].principal_operator if factors else np.eye(t.space.restrict(t.output_principal).dim, e.shape[1])
    u = np.asarray(operator, dtype=complex)
    operator_file = tmp_path / "operator.json"
    operator_file.write_text(json.dumps(matrix_to_json(u)))
    code, unitary = run("check-unitary", "--operator", str(operator_file), "--probes", "4")
    iso = check_isometry_scaling(t, u)
    target = iso.t_scale * u if iso.t_scale is not None else u
    computes = [check_computes(t, branch, target, probes=4, seed=seed) for branch in t.branches()]
    ok = all(holds for holds, _ in computes) and iso.verdict in ("unitary", "isometry")
    assert code == (0 if ok else 3)
    assert list(unitary) == ["branches", "t_scale", "verdict", "detail"]
    assert (unitary["verdict"], unitary["detail"]) == (iso.verdict, iso.detail)
    assert (unitary["t_scale"] is None) == (iso.t_scale is None)
    assert iso.t_scale is None or close(unitary["t_scale"], iso.t_scale)
    assert len(unitary["branches"]) == len(computes)
    for row, branch, (holds, residual) in zip(unitary["branches"], t.branches(), computes):
        assert list(row) == ["branch", "computes", "residual"]
        assert (row["branch"], row["computes"]) == (route_label(branch), holds)
        assert (row["residual"] is None) == (not np.isfinite(residual))
        assert row["residual"] is None or close(row["residual"], residual)
    return (independence_code, rows), (code, unitary)


@pytest.mark.parametrize("name", sorted(DEMOS) + [f"random{s}" for s in range(30)])
def test_analysis_verbs_equal_the_tree_functions(name, tmp_path, capsys):
    from meastree.cli import _branch_walk

    c = DEMOS[name]() if name in DEMOS else random_circuit(np.random.default_rng(int(name.removeprefix("random"))))
    # the verbs stream, per path, its branch of reduce_circuit and V = C E / |a|
    t, bij = reduce_circuit(c)
    streamed = [(c._path(p), branch, v) for p, branch, v in _branch_walk(c, None)]
    assert [(p, branch) for p, branch, _ in streamed] == list(bij.forward.items())
    for _, branch, v in streamed:
        assert np.max(np.abs(v - branch_operator(t, branch) @ t._isometry / t.ancilla_init.norm())) <= 1e-12
    assert_verbs_equal_the_tree_functions(c, tmp_path, capsys, seed=1, factor_paths=lambda ps: ps[:2] + ps[-1:])


def test_c6_verbs_report_the_ranges_and_factors_of_the_branch_operators(c6, tmp_path, capsys):
    from meastree.cli import _branch_walk
    from meastree.linalg import bipartition_ket
    from meastree.trees import route_label

    t, bij = reduce_circuit(c6)
    streamed = {branch: v for _, branch, v in _branch_walk(c6, None)}
    assert list(streamed) == list(bij.forward.values())
    assert (len(bij.forward), t.space.dim, t._isometry.shape[1]) == (1152, 64, 32)
    (independence_code, rows), (unitary_code, unitary) = assert_verbs_equal_the_tree_functions(
        c6, tmp_path, capsys, seed=0, factor_paths=lambda ps: [ps[0], ps[len(ps) // 2], ps[-1]], operator=np.eye(32)
    )
    assert independence_code == unitary_code == 3  # c_6 has dependent paths, and I_32 fails check-unitary
    ranges = {row["branch"]: (row["min_probability"], row["max_probability"]) for row in rows}
    computes = {row["branch"]: row["computes"] for row in unitary["branches"]}
    assert len(ranges) == len(computes) == 1152

    branches = t.branches()
    e, norm = t._isometry, t.ancilla_init.norm()
    for i in np.random.default_rng(0).choice(len(branches), size=20, replace=False):
        branch = branches[i]
        v = branch_operator(t, branch) @ e / norm
        assert np.max(np.abs(streamed[branch] - v)) <= 1e-12
        lam = np.linalg.eigvalsh(dagger(v) @ v)
        assert ranges[route_label(branch)] == pytest.approx((lam[0], lam[-1]), abs=1e-12)
        blocks = bipartition_ket(v, t.space, t.output_principal)  # output principal x ancilla x input
        s = np.linalg.svd(blocks.transpose(1, 0, 2).reshape(blocks.shape[1], -1), compute_uv=False)
        assert s[1] > 1e-3 * s[0]  # V_b has rank 2 across the ancilla cut: it factors through no U
        assert computes[route_label(branch)] is False
        assert factor_branch(t, branch) is None
    assert unitary["verdict"] == "inconclusive" and "does not factor" in unitary["detail"]


def test_chunked_grams_give_the_reports_of_one_batch(c6, monkeypatch):
    """Under a smaller Gram budget the ranges come from several batched eigvalsh calls, bit for bit."""
    from meastree import independence
    from meastree.cli import _branch_walk

    batches, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: batches.append(len(m)) or eigvalsh(m))

    def reports(budget):
        monkeypatch.setattr(independence, "_GRAM_BYTES", budget)
        batches.clear()
        pairs = ((branch, v) for _, branch, v in _branch_walk(c6, None))
        return independence._independence(c6, pairs, 8, 0)

    whole = reports(independence._GRAM_BYTES)
    assert batches == [1152]
    assert reports(500 * 16 * 32 * 32) == whole and batches == [500, 500, 152]
    assert reports(1) == whole and batches == [1] * 1152
