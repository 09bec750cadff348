import dataclasses
import re

import numpy as np
import pytest

from meastree.circuits import (
    Circuit,
    Gate,
    InvalidCircuitError,
    Path,
    Selection,
    _simulate,
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
from meastree.demos import DEMOS, feedforward_x, measure_discard, teleportation
from meastree.independence import check_independence, check_set_independence, factor_branch
from meastree.linalg import (
    CNOT,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    _walk,
    basis_ket,
    haar_ket,
    measure_z,
    projector,
)
from meastree.rand import random_circuit, random_density

I2 = np.eye(2, dtype=complex)
P = [projector(basis_ket(2, 0)), projector(basis_ket(2, 1))]


def codes(c):
    return {v.code for v in validate_circuit(c)}


def two_wire_space():
    return HilbertSpec.of([("q0", 2), ("q1", 2)])


# Independent operator oracle for teleportation: explicit kron chains in
# the fixed wire order (q0, q1, q2), no library lifting involved.
def teleport_branch_operator(a: int, b: int) -> np.ndarray:
    h1 = np.kron(I2, np.kron(HADAMARD, I2))
    cn12 = np.kron(I2, CNOT)
    cn01 = np.kron(CNOT, I2)
    h0 = np.kron(HADAMARD, np.kron(I2, I2))
    pa0 = np.kron(P[a], np.kron(I2, I2))
    pb1 = np.kron(I2, np.kron(P[b], I2))
    xc = np.kron(np.eye(4), np.linalg.matrix_power(PAULI_X, b))
    zc = np.kron(np.eye(4), np.linalg.matrix_power(PAULI_Z, a))
    swap02 = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        q0, q1, q2 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        swap02[(q2 << 2) | (q1 << 1) | q0, i] = 1.0
    return swap02 @ zc @ xc @ pb1 @ pa0 @ h0 @ cn01 @ cn12 @ h1


def test_teleportation_validates_clean():
    assert validate_circuit(teleportation()) == []


def test_teleportation_paths_and_quarter_probabilities():
    c = teleportation()
    paths = enumerate_paths(c)
    assert len(paths) == 4
    assert {(p["mz0"], p["mz1"]) for p in paths} == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
    rng = np.random.default_rng(21)
    for _ in range(10):
        rho = DensityOperator.of(projector(haar_ket(2, rng)), c.principal_spec)
        for p in paths:
            prob, _ = simulate_path(c, p, rho)
            assert prob == pytest.approx(0.25, abs=1e-9)


def test_teleportation_matches_hand_kron_oracle():
    c = teleportation()
    rng = np.random.default_rng(22)
    for p in enumerate_paths(c):
        a, b = int(p["mz0"]), int(p["mz1"])
        oracle_op = teleport_branch_operator(a, b)
        for _ in range(3):
            rho = DensityOperator.of(projector(haar_ket(2, rng)), c.principal_spec)
            sigma0 = full_input(c, rho)
            want = oracle_op @ sigma0 @ oracle_op.conj().T
            _, got = simulate_path(c, p, rho)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_teleportation_principal_output_is_quarter_input():
    c = teleportation()
    rng = np.random.default_rng(23)
    rho = DensityOperator.of(projector(haar_ket(2, rng)), c.principal_spec)
    for p in enumerate_paths(c):
        out = principal_output(c, p, rho)
        assert np.allclose(out, rho.matrix / 4, atol=1e-10)


def test_full_input_and_embed_agree():
    c = teleportation()
    rng = np.random.default_rng(24)
    psi = haar_ket(2, rng)
    rho = DensityOperator.of(projector(psi), c.principal_spec)
    joint = embed_principal_ket(c, psi)
    assert np.allclose(full_input(c, rho), projector(joint), atol=1e-12)


def test_probabilities_sum_to_one():
    for make in (teleportation, measure_discard, feedforward_x):
        c = make()
        rng = np.random.default_rng(25)
        rho = DensityOperator.of(projector(haar_ket(c.principal_spec.dim, rng)), c.principal_spec)
        total = sum(simulate_path(c, p, rho)[0] for p in enumerate_paths(c))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_zero_probability_path_has_zero_output():
    c = measure_discard()
    rho = DensityOperator.of(P[0], c.principal_spec)
    prob, sigma = simulate_path(c, Path({"mz": "1"}), rho)
    assert prob == 0.0
    assert np.max(np.abs(sigma)) == 0.0


def test_incoherent_path_rejected():
    c = feedforward_x()
    # read=0 selects the "keep" measurement, so "flip" is incoherent here
    bad = Path({"spread": "u", "read": "0", "corr": "flip"})
    assert not is_coherent(c, bad)
    rho = DensityOperator.of(np.eye(2) / 2, c.principal_spec)
    with pytest.raises(ValueError):
        simulate_path(c, bad, rho)
    for bad in (
        {"spread": "u", "read": "0"},  # a gate is missing
        {"spread": "u", "read": "0", "corr": "keep", "extra": "0"},  # a key names no gate
        {"spread": "u", "read": "2", "corr": "keep"},  # "2" is no outcome of read
    ):
        assert not is_coherent(c, bad)
        with pytest.raises(ValueError):
            simulate_path(c, bad, rho)


def test_path_mapping_behaves_like_a_dict():
    p = Path({"b": "1", "a": "0"})
    assert p == Path({"a": "0", "b": "1"})
    assert p == {"a": "0", "b": "1"}
    assert dict(p) == {"a": "0", "b": "1"}
    assert len({p, Path({"a": "0", "b": "1"})}) == 1
    assert p.get("c") is None and "c" not in p
    with pytest.raises(KeyError):
        p["c"]
    a = {f"g{i}": str(i % 3) for i in range(200, 0, -1)}
    big = Path(a)
    assert dict(big) == a
    assert list(big) == sorted(a)
    assert hash(big) == hash(tuple(sorted(a.items())))
    assert hash(p) == hash((("a", "0"), ("b", "1")))
    assert repr(p) == "Path(a=0, b=1)"


def test_selection_table_api():
    s = Selection([({"m": "0"}, 0), ({"m": "1"}, 1)])
    assert s.select({"m": "0"}) == 0
    assert s.select({"m": "nope"}) is None
    assert s.indices() == frozenset({0, 1})
    with pytest.raises(ValueError):
        Selection([({"m": "0"}, 0), ({"m": "0"}, 1)])
    assert Selection.constant(2).select({}) == 2


def test_gate_measurement_for():
    g = selected_gate(
        "g",
        ("q0",),
        ["src"],
        [Measurement.of({"a": ID2}), Measurement.of({"b": PAULI_X})],
        [({"src": "0"}, 0), ({"src": "1"}, 1)],
    )
    assert g.measurement_for({"src": "1"}).labels == ("b",)
    assert g.measurement_for({"src": "?"}) is None


# ----------------------------------------------------------- validation


def test_validate_unknown_wire():
    c = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [unitary_gate("g", ("q7",), HADAMARD)],
    )
    assert "UNKNOWN_WIRE" in codes(c)
    with pytest.raises(InvalidCircuitError):
        c.require_valid()


def test_validate_measurement_shape_and_completeness():
    c = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [unitary_gate("g", ("q0", "q1"), HADAMARD)],  # 2x2 op on a 4-dim gate
    )
    assert "MEASUREMENT_DIM" in codes(c)
    bad = Gate(
        gate_id="g",
        wires=("q0",),
        classical_sources=frozenset(),
        measurements=(Measurement({"0": P[0], "1": 0.5 * P[1]}),),
        selection=Selection.constant(0),
    )
    c2 = Circuit.build(two_wire_space(), ["q0", "q1"], [bad])
    assert "MEASUREMENT_COMPLETENESS" in codes(c2)


def test_validate_outcome_labels_disjoint_across_measurements():
    g = Gate(
        gate_id="g",
        wires=("q0",),
        classical_sources=frozenset({"src"}),
        measurements=(Measurement.of({"0": ID2}), Measurement.of({"0": PAULI_X})),
        selection=Selection([({"src": "0"}, 0), ({"src": "1"}, 1)]),
    )
    c = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [measurement_gate("src", ("q1",), measure_z()), g],
        gate_order=["src", "g"],
    )
    assert "DISJOINT_OUTCOMES" in codes(c)


def test_validate_sourceless_gate_needs_single_measurement():
    g = Gate(
        gate_id="g",
        wires=("q0",),
        classical_sources=frozenset(),
        measurements=(Measurement.of({"a": ID2}), Measurement.of({"b": PAULI_X})),
        selection=Selection.constant(0),
    )
    c = Circuit.build(two_wire_space(), ["q0", "q1"], [g])
    assert "SINGLETON_REQUIRED" in codes(c)


def test_validate_selection_keys_range_surjective():
    mz = measurement_gate("src", ("q1",), measure_z())
    g = Gate(
        gate_id="g",
        wires=("q0",),
        classical_sources=frozenset({"src"}),
        measurements=(Measurement.of({"a": ID2}), Measurement.of({"b": PAULI_X})),
        selection=Selection([({"wrong": "0"}, 0), ({"src": "1"}, 7)]),
    )
    c = Circuit.build(two_wire_space(), ["q0", "q1"], [mz, g], gate_order=["src", "g"])
    found = codes(c)
    assert "SELECTION_KEYS" in found
    assert "SELECTION_RANGE" in found
    assert "SELECTION_SURJECTIVE" in found  # measurement 1 never picked


def test_validate_selection_totality():
    # structurally sound selection that misses the src=0 assignment
    mz = measurement_gate("src", ("q1",), measure_z())
    g = Gate(
        gate_id="g",
        wires=("q0",),
        classical_sources=frozenset({"src"}),
        measurements=(Measurement.of({"a": ID2}), Measurement.of({"b": PAULI_X})),
        selection=Selection([({"src": "1"}, 1), ({"src": "oops"}, 0)]),
    )
    c = Circuit.build(two_wire_space(), ["q0", "q1"], [mz, g], gate_order=["src", "g"])
    assert "SELECTION_TOTALITY" in codes(c)


def test_validate_schedule_violations():
    mz = measurement_gate("src", ("q1",), measure_z())
    g = selected_gate(
        "g",
        ("q0",),
        ["src"],
        [Measurement.of({"a": ID2}), Measurement.of({"b": PAULI_X})],
        [({"src": "0"}, 0), ({"src": "1"}, 1)],
    )
    base = dict(space=two_wire_space(), principal=["q0", "q1"], gates=[mz, g])
    c = Circuit.build(base["space"], base["principal"], base["gates"], gate_order=["src", "g"], schedule=[["g"], ["src"]])
    assert "SCHEDULE_PREREQ" in codes(c)
    c = Circuit.build(base["space"], base["principal"], base["gates"], gate_order=["src", "g"], schedule=[["src", "g"]])
    assert "LAYER_CONFLICT" in codes(c)
    c = Circuit.build(base["space"], base["principal"], base["gates"], gate_order=["src", "g"], schedule=[["src"]])
    assert "SCHEDULE_COVER" in codes(c)
    c = Circuit.build(base["space"], base["principal"], base["gates"], gate_order=["src", "g"], schedule=[["src"], ["g"], ["src"]])
    assert "SCHEDULE_DISJOINT" in codes(c)


def test_validate_quantum_prerequisite_between_layers():
    # two gates on the same wire scheduled in the wrong layer order
    a = unitary_gate("a", ("q0",), HADAMARD)
    b = unitary_gate("b", ("q0",), PAULI_X)
    c = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [a, b],
        gate_order=["a", "b"],
        schedule=[["b"], ["a"]],
    )
    assert "SCHEDULE_PREREQ" in codes(c)
    # same order but disjoint wires is fine
    b2 = unitary_gate("b", ("q1",), PAULI_X)
    c2 = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [a, b2],
        gate_order=["a", "b"],
        schedule=[["b"], ["a"]],
    )
    assert validate_circuit(c2) == []


def test_validate_ancilla_init():
    space = two_wire_space()
    anc = HilbertSpec.of([("q1", 2)])
    c = Circuit.build(
        space,
        ["q0"],
        [unitary_gate("g", ("q0",), HADAMARD)],
        ancilla_init=Ket.of([0.5, 0.5], anc),
    )
    assert "ANCILLA_INIT" in codes(c)


def _z_on_q0(**kw):
    """A valid two-wire circuit, principal q0 and ancilla q1, measuring q0 in Z once."""
    return Circuit.build(two_wire_space(), ["q0"], [measurement_gate("m", ("q0",), measure_z())], **kw)


@pytest.mark.parametrize(
    "make, code, message",
    [
        pytest.param(lambda: dataclasses.replace(_z_on_q0(), ancilla_wires=()), "ROLE_PARTITION", "partition the space", id="roles"),
        pytest.param(
            lambda: dataclasses.replace(_z_on_q0(), output_principal_wires=("q9",)), "ROLE_PARTITION", "output principal", id="output-roles"
        ),
        pytest.param(
            lambda: Circuit.build(HilbertSpec.of([("q0", 1), ("q1", 2)]), ["q0"], [measurement_gate("m", ("q1",), measure_z())]),
            "PRINCIPAL_DIM",
            "dimension >= 2",
            id="principal-dim",
        ),
        pytest.param(
            lambda: dataclasses.replace(_z_on_q0(), gates={"x": _z_on_q0().gates["m"]}, gate_order=("x",), schedule=(("x",),)),
            "GATE_ID",
            "different id",
            id="gate-id",
        ),
        pytest.param(
            lambda: Circuit.build(two_wire_space(), ["q0"], [unitary_gate("g", ("q0", "q0"), np.eye(4))]),
            "GATE_WIRE_DUP",
            "repeated wires",
            id="gate-wire-dup",
        ),
        pytest.param(
            lambda: Circuit.build(two_wire_space(), ["q0"], [Gate("g", ("q0",), frozenset(), (), Selection.constant(0))]),
            "MEASUREMENTS_EMPTY",
            "no measurements",
            id="measurements-empty",
        ),
        pytest.param(
            lambda: Circuit.build(two_wire_space(), ["q0"], [selected_gate("g", ("q0",), ["ghost"], [measure_z()], [({"ghost": "0"}, 0)])]),
            "UNKNOWN_SOURCE",
            "'ghost'",
            id="unknown-source",
        ),
        pytest.param(lambda: _z_on_q0(schedule=[["m"], []]), "SCHEDULE_EMPTY", "layer 1 is empty", id="schedule-empty"),
        pytest.param(
            lambda: Circuit.build(
                two_wire_space(), ["q0"], [selected_gate("g", ("q0",), ["g"], [measure_z()], [({"g": "0"}, 0), ({"g": "1"}, 0)])]
            ),
            "PREREQ_CYCLE",
            "cycle",
            id="prereq-cycle",
        ),
        pytest.param(lambda: dataclasses.replace(_z_on_q0(), gate_order=()), "GATE_ORDER", "permutation", id="gate-order"),
        pytest.param(
            lambda: _z_on_q0(ancilla_init=Ket.of([1, 0, 0, 0])), "ANCILLA_INIT", "does not live on the ancilla wires", id="ancilla-space"
        ),
        pytest.param(
            lambda: dataclasses.replace(_z_on_q0(), ancilla_wires=("q1", "q9")), "ANCILLA_INIT", "unknown wires ['q9']", id="ancilla-wires"
        ),
    ],
)
def test_validate_reports_each_code_on_a_minimal_circuit(make, code, message):
    assert validate_circuit(_z_on_q0()) == []
    found = [v for v in validate_circuit(make()) if v.code == code]
    assert found and any(message in v.message for v in found), found


def test_every_violation_code_is_named_in_this_file():
    """A code that ``validate_circuit`` can give is tested here: a new one cannot land untested."""
    import pathlib

    from meastree import circuits

    made = set(re.findall(r'Violation\(\s*"([A-Z_]+)"', pathlib.Path(circuits.__file__).read_text(encoding="utf-8")))
    here = pathlib.Path(__file__).read_text(encoding="utf-8")
    assert len(made) >= 20
    assert sorted(code for code in made if f'"{code}"' not in here) == []


@pytest.mark.parametrize("n_gates, exploded", [(14, False), (15, True)])
def test_validate_path_explosion_counts_prefixes_per_depth(n_gates, exploded):
    # n sequential Z measurements on one wire leave 2^n prefixes after the
    # last gate: 16,384 stays under the 20,000 cap, 32,768 does not, while
    # the 14-gate circuit visits more than 20,000 prefixes in total.
    space = HilbertSpec.of([("q", 2)])
    gates = [measurement_gate(f"m{i}", ("q",), measure_z()) for i in range(n_gates)]
    found = validate_circuit(Circuit.build(space, ["q"], gates))
    if exploded:
        assert [(v.code, v.where) for v in found] == [("PATH_EXPLOSION", f"m{n_gates - 1}")]
    else:
        assert found == []


def test_flattened_gates_order():
    c = teleportation()
    seq = flattened_gates(c)
    assert seq.index("mz0") < seq.index("corr_z")
    assert seq.index("mz1") < seq.index("corr_x")
    assert set(seq) == set(c.gates)


def test_unitary_circuit_has_single_path():
    c = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [unitary_gate("a", ("q0",), HADAMARD), unitary_gate("b", ("q1",), PAULI_X)],
        gate_order=["a", "b"],
    )
    paths = enumerate_paths(c)
    assert len(paths) == 1
    rho = DensityOperator.of(np.eye(4) / 4, c.principal_spec)
    prob, _ = simulate_path(c, paths[0], rho)
    assert prob == pytest.approx(1.0)


# ------------------------------------------------------------- sampling


def test_sample_run_deterministic_circuit():
    c = Circuit.build(
        two_wire_space(),
        ["q0", "q1"],
        [unitary_gate("a", ("q0",), HADAMARD)],
    )
    rho = DensityOperator.of(np.eye(4) / 4, c.principal_spec)
    path, _ = sample_run(c, rho, 0)
    assert dict(path) == {"a": "u"}


def test_sample_run_z_measurement_frequencies():
    c = measure_discard()
    plus = (basis_ket(2, 0) + basis_ket(2, 1)) / np.sqrt(2)
    rho = DensityOperator.of(projector(plus), c.principal_spec)
    rng = np.random.default_rng(1234)
    n = 10_000
    zeros = sum(1 for _ in range(n) if sample_run(c, rho, rng)[0]["mz"] == "0")
    assert abs(zeros / n - 0.5) <= 0.02


def test_sample_run_matches_path_probabilities_chi_square():
    c = teleportation()
    rng = np.random.default_rng(555)
    rho = DensityOperator.of(projector(haar_ket(2, rng)), c.principal_spec)
    n = 2000
    counts: dict = {}
    for _ in range(n):
        path, _ = sample_run(c, rho, rng)
        key = (path["mz0"], path["mz1"])
        counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == n
    expected = n / 4
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    # 3 degrees of freedom, alpha = 0.001
    assert chi2 < 16.27


def test_random_circuit_rejects_draws_over_four_times_max_paths():
    """With 5 or 6 outcomes a gate can take the running count from below
    max_paths to above 4 * max_paths; such draws are rejected and redrawn."""
    for max_outcomes in (5, 6):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c = random_circuit(rng, max_outcomes=max_outcomes, max_paths=10)
            assert len(enumerate_paths(c)) <= 40


def test_sample_run_applies_each_outcome_operator_once(kernel_calls):
    """The Born weights need every outcome's image; the walk takes the chosen one from them.
    One stacked kernel call per gate gives all of its images."""
    c = teleportation()
    rho = DensityOperator.of(projector(haar_ket(2, np.random.default_rng(1))), c.principal_spec)
    path, sigma = sample_run(c, rho, 0)
    fired = [g.measurement_for({s: path[s] for s in g.classical_sources}) for g in c.gates.values()]
    assert kernel_calls.rows() == 11 and len(kernel_calls) == len(c.gates)
    assert kernel_calls.edges(fired) == kernel_calls.every_edge(fired)
    assert np.array_equal(sigma, simulate_path(c, path, rho)[1])


def test_sample_run_is_scale_free():
    """The vanished-trace test is relative to the input's trace, which halves at each measurement."""
    c = teleportation()
    rho = np.array([[0.6, 0.2], [0.2, 0.4]])
    for seed in range(10):
        runs = []
        for t0 in (1.0, 3e-12, 1.5e-12):
            path, sigma = sample_run(c, DensityOperator.of(rho * t0, c.principal_spec), seed)
            runs.append((path, sigma.trace().real / t0))
        assert all(path == runs[0][0] for path, _ in runs)
        assert all(t == pytest.approx(runs[0][1], rel=1e-9) for _, t in runs)


def test_input_isometry_is_built_once_per_circuit(monkeypatch):
    from meastree import linalg

    calls = []
    build = linalg._input_isometry
    monkeypatch.setattr(linalg, "_input_isometry", lambda c: calls.append(c) or build(c))
    c = teleportation()
    rho = DensityOperator.of(projector(haar_ket(2, np.random.default_rng(2))), c.principal_spec)
    paths = enumerate_paths(c)
    assert len(paths) == 4
    for p in paths:
        simulate_path(c, p, rho)
    assert calls == [c]
    for seed in range(3):
        sample_run(c, rho, seed)
    assert calls == [c]
    assert not c._isometry.flags.writeable
    with pytest.raises(ValueError):
        c._isometry[0, 0] = 1.0


def test_circuits_differing_only_in_ancilla_init_keep_their_own_isometry():
    rho = DensityOperator.of(np.eye(2) / 2)
    for k in (0, 1, 0):
        c = Circuit.build(two_wire_space(), ["q0"], [measurement_gate("m", ("q1",), measure_z())], ancilla_init=basis_ket(2, k))
        probs = {p["m"]: simulate_path(c, p, rho)[0] for p in enumerate_paths(c)}
        assert probs == {str(k): 1.0, str(1 - k): 0.0}


def _demo_and_random_circuits():
    return [make() for make in DEMOS.values()] + [random_circuit(np.random.default_rng(s)) for s in range(10)]


def _full_walk(c, rho):
    """Every path's ``(probability, output)`` from one walk of the whole path tree."""
    return {
        c._path(prefix): (p, sigma)
        for prefixes, probs, _, sigmas in _simulate(c, rho)
        for prefix, p, sigma in zip(prefixes, probs, sigmas)
    }


def test_simulate_path_in_any_order_equals_the_full_walk_bit_for_bit():
    circuits = _demo_and_random_circuits()
    inputs = [[random_density(c.principal_spec, np.random.default_rng(k)) for k in (1, 2)] for c in circuits]
    want = [[_full_walk(c, rho) for rho in rhos] for c, rhos in zip(circuits, inputs)]

    def check(i, k, path):
        prob, sigma = simulate_path(circuits[i], path, inputs[i][k])
        w_prob, w_sigma = want[i][k][path]
        assert prob == w_prob and np.array_equal(sigma, w_sigma)

    shuffle = np.random.default_rng(5)
    for i, c in enumerate(circuits):
        paths = enumerate_paths(c)
        for order in (paths, paths[::-1], [paths[j] for j in shuffle.permutation(len(paths))]):
            for k in (0, 1):
                for path in order:
                    check(i, k, path)
    # two circuits and two inputs taking turns: each circuit resumes from its own last path
    for i in range(len(circuits) - 1):
        a, b = enumerate_paths(circuits[i]), enumerate_paths(circuits[i + 1])
        for n in range(max(len(a), len(b))):
            check(i, n % 2, a[n % len(a)])
            check(i + 1, (n + 1) % 2, b[::-1][n % len(b)])


def test_simulate_path_applies_each_prefix_tree_edge_once(kernel_calls):
    """Paths in walk order make one kernel call per inner prefix of their prefix tree, with
    the whole outcome stack of the measurement fired there: each edge is one row of one call."""
    calls = kernel_calls
    for make in (*DEMOS.values(), *(lambda s=s: random_circuit(np.random.default_rng(s)) for s in range(10))):
        c = make()
        rho = random_density(c.principal_spec, np.random.default_rng(3))
        paths, order = enumerate_paths(c), flattened_gates(c)
        prefixes = {tuple(p[g] for g in order[:k]) for p in paths for k in range(1, len(order) + 1)}
        fired = {prefix: m for prefix, _, m, _ in _walk(c) if m is not None}
        calls.clear()
        for path in paths:
            simulate_path(c, path, rho)
        assert calls.rows() == len(prefixes) and len(calls) == len(fired)
        assert sorted(len(ops) for ops, _ in calls) == sorted(len(m.outcomes) for m in fired.values())
        assert calls.edges(fired.values()) == calls.every_edge(fired.values())
        calls.clear()
        simulate_path(c, paths[-1], rho)  # the path walked last: nothing left to apply
        assert calls == []

        # a lone path makes one call per gate, each giving the images of all of the gate's outcomes
        lone = make()
        route = lone._prefix(paths[len(paths) // 2])
        simulate_path(lone, paths[len(paths) // 2], rho)
        along = [lone._expand(route[:k])[1] for k in range(len(route))]
        assert len(calls) == len(lone.gates)
        assert [len(ops) for ops, _ in calls] == [len(m.outcomes) for m in along]


def test_incoherent_paths_raise_and_leave_the_spine_exact(kernel_calls):
    c = feedforward_x()
    rho = DensityOperator.of(np.array([[0.7, 0.1j], [-0.1j, 0.3]]), c.principal_spec)
    want = _full_walk(c, rho)
    first, second = {"spread": "u", "read": "0", "corr": "keep"}, {"spread": "u", "read": "1", "corr": "flip"}
    calls = kernel_calls
    for bad in (
        {"spread": "v", "read": "0", "corr": "keep"},  # incoherent at depth 0
        {"spread": "u", "read": "0", "corr": "flip"},  # read=0 selects "keep": incoherent at depth 2
    ):
        calls.clear()
        assert not is_coherent(c, bad)
        assert calls == []  # the resolver applies no operator
        simulate_path(c, first, rho)
        with pytest.raises(ValueError, match=re.escape(f"not a coherent path: {bad}")):
            simulate_path(c, bad, rho)
        # the analysis of a circuit's paths rejects it alike, and a mapping that misses a gate or names no gate
        for path in (bad, {"spread": "u", "read": "0"}, {**first, "extra": "0"}):
            for analyse in (factor_branch, check_independence, lambda c, p: check_set_independence(c, [first, p])):
                with pytest.raises(ValueError, match=re.escape(f"not a coherent path: {path}")):
                    analyse(c, path)
        for good in (second, first):
            prob, sigma = simulate_path(c, good, rho)
            assert prob == want[Path(good)][0] and np.array_equal(sigma, want[Path(good)][1])


def test_spine_blocks_are_read_only_and_outputs_are_the_callers():
    c = teleportation()
    rho = DensityOperator.of(np.eye(2) / 2, c.principal_spec)
    paths = enumerate_paths(c)
    _, sigma = simulate_path(c, paths[0], rho)
    assert len(c._spine) == len(c.gates) + 1
    fans = [image for _, _, fan in c._spine if fan is not None for image in fan.values()]
    assert fans  # teleportation's measurements keep the images of both outcomes
    for block in [block for _, block, _ in c._spine] + fans:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block.flat[0] = 1.0
    sigma[:] = 0.0  # the output is a fresh array: overwriting it leaves the spine as it was
    assert np.array_equal(simulate_path(c, paths[0], rho)[1], _full_walk(c, rho)[paths[0]][1])


def test_a_path_built_from_a_prefix_is_the_path_of_its_assignment():
    for c in _demo_and_random_circuits():
        for prefix, g, _, _ in _walk(c):
            if g is None:
                got, want = c._path(prefix), Path(dict(zip(c._order, prefix)))
                assert got == want and hash(got) == hash(want)
                assert got._items == want._items and dict(got) == dict(want) and repr(got) == repr(want)


def _incoherent(c, path, rng):
    """``path`` with one outcome changed so that it is no longer coherent, or None."""
    gid = c._order[int(rng.integers(len(c._order)))]
    labels = [label for m in c.gates[gid].measurements for label in m.labels] + ["not an outcome"]
    for label in rng.permutation(labels):
        bad = dict(path, **{gid: str(label)})
        if not is_coherent(c, bad):
            return bad
    return None


def test_simulate_path_resumes_the_same_blocks_in_any_order():
    # each result equals the one from a fresh copy of the circuit, which walks its path alone,
    # with incoherent paths in between that cut the spine back to the prefix they share with it
    rng = np.random.default_rng(8)
    for c in _demo_and_random_circuits():
        rho = random_density(c.principal_spec, rng)
        paths = enumerate_paths(c)
        for j in rng.permutation(len(paths)):
            path = paths[j]
            prob, sigma = simulate_path(c, path, rho)
            w_prob, w_sigma = simulate_path(dataclasses.replace(c), path, rho)
            assert prob == w_prob and np.array_equal(sigma, w_sigma)
            if (bad := _incoherent(c, path, rng)) is not None:
                with pytest.raises(ValueError, match="not a coherent path"):
                    simulate_path(c, bad, rho)


def test_simulate_path_expands_each_prefix_once(expand_calls):
    for c in _demo_and_random_circuits():
        rho = random_density(c.principal_spec, np.random.default_rng(3))
        paths = enumerate_paths(c)
        prefixes = {tuple(p[g] for g in c._order[:k]) for p in paths for k in range(1, len(c._order) + 1)}
        expand_calls.clear()
        for path in paths:
            simulate_path(c, path, rho)
        assert len(expand_calls) <= len(prefixes) + len(paths)
        assert {roles for roles, _ in expand_calls} == {c}


def test_simulate_path_resolves_routes_only_through_edges(monkeypatch, expand_calls):
    from meastree import linalg

    resolved, resolve = [], linalg._edges

    def edges(roles, route, start=0):
        before = len(expand_calls)
        found = resolve(roles, route, start=start)
        resolved.append((start, len(expand_calls) - before))
        return found

    monkeypatch.setattr(linalg, "_edges", edges)
    for c in _demo_and_random_circuits():
        rho = random_density(c.principal_spec, np.random.default_rng(3))
        routes = [c._prefix(p) for p in enumerate_paths(c)]
        resolved.clear()
        expand_calls.clear()
        for route in routes:
            simulate_path(c, dict(zip(c._order, route)), rho)
        # each route resolves once, below the prefix it shares with the route before,
        # and every step read is read by the resolver
        shared = [0]
        for before, route in zip(routes, routes[1:]):
            shared.append(next((i for i, (a, b) in enumerate(zip(before, route)) if a != b), len(route)))
        assert [start for start, _ in resolved] == shared
        assert sum(n for _, n in resolved) == len(expand_calls)
