import numpy as np
import pytest

from meastree.linalg import (
    CNOT,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    SWAP,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    apply_kraus,
    apply_local,
    basis_ket,
    bipartition_ket,
    dagger,
    haar_ket,
    identity,
    lift_operator,
    measure_z,
    outcome_probability,
    partial_trace_matrix,
    permute_ket,
    permute_wires,
    projector,
    random_unitary,
    tensor_measurements,
    tensor_product,
)

# kron(X, Z) written out by hand
X_KRON_Z = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ],
    dtype=complex,
)

# CNOT with control q1, target q0, lifted to the space (q0, q1): the
# basis map is |00> -> |00>, |01> -> |11>, |10> -> |10>, |11> -> |01>.
CNOT_REVERSED = np.zeros((4, 4), dtype=complex)
for src, dst in [(0, 0), (1, 3), (2, 2), (3, 1)]:
    CNOT_REVERSED[dst, src] = 1.0


def test_tensor_product_matches_frozen_kron():
    assert np.array_equal(tensor_product(PAULI_X, PAULI_Z), X_KRON_Z)


def test_tensor_product_is_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        c, d = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_hilbert_spec_basics():
    s = HilbertSpec.of([("a", 2), ("b", 3)])
    assert s.wires == ("a", "b")
    assert s.dim == 6
    assert s.dim_of("b") == 3
    assert s.restrict(["b"]).dim == 3
    assert s.restrict([]).dim == 1


def test_hilbert_spec_rejects_junk():
    with pytest.raises(ValueError):
        HilbertSpec.of([("a", 2), ("a", 2)])
    with pytest.raises(ValueError):
        HilbertSpec.of([("a", 0)])


def test_measurement_completeness_enforced():
    measure_z()  # fine
    with pytest.raises(ValueError):
        Measurement.of({"0": ID2, "1": ID2})
    with pytest.raises(ValueError):
        Measurement.of({})
    # a unitary is a single-outcome measurement
    Measurement.of({"u": HADAMARD})
    with pytest.raises(ValueError):
        Measurement.of({"u": 1.0000005 * HADAMARD})


def test_non_finite_measurement_and_state_rejected():
    with pytest.raises(ValueError):
        Measurement.of({"u": np.array([[np.nan, 0], [0, 1]])})
    with pytest.raises(ValueError):
        DensityOperator.of(np.array([[np.nan, 0], [0, 0]]))


def test_measurement_accepts_zero_operator():
    p0 = projector(basis_ket(2, 0))
    p1 = projector(basis_ket(2, 1))
    m = Measurement.of({"a": p0, "b": np.zeros((2, 2)), "c": p1})
    assert m.labels == ("a", "b", "c")


def test_tensor_measurements_labels_and_operators():
    m = tensor_measurements([measure_z(), measure_z()])
    assert m.labels == ("0|0", "0|1", "1|0", "1|1")
    p1 = projector(basis_ket(2, 1))
    assert np.allclose(m.operator("1|1"), tensor_product(p1, p1))
    assert m.completeness_defect() <= 1e-12


def test_tensor_measurements_rejects_separator_in_labels():
    weird = Measurement.of({"a|b": ID2})
    with pytest.raises(ValueError):
        tensor_measurements([weird, measure_z()])
    # a single measurement passes through untouched
    assert tensor_measurements([weird]).labels == ("a|b",)


def test_density_operator_validation():
    rho = DensityOperator.of(np.diag([0.25, 0.75]))
    assert rho.trace() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityOperator.of(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        DensityOperator.of(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        DensityOperator.of(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DensityOperator.of(np.ones((2, 3)))


def test_density_operator_checks_a_state_whose_norm_overflows():
    # past about 1.3e154 the Frobenius norm, which scales every tolerance, is inf
    with pytest.raises(ValueError, match="matrix is too large: its norm overflows"):
        DensityOperator.of(np.diag([1e160, -5e159]))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        DensityOperator.of(np.diag([1e150, -5e149]))
    assert DensityOperator.of(np.diag([1e150, 5e149])).trace() == pytest.approx(1.5e150)


def test_density_operator_accepts_unnormalized():
    rho = DensityOperator.of(np.diag([2.0, 2.0]))
    assert rho.trace() == pytest.approx(4.0)
    assert rho.normalized().trace() == pytest.approx(1.0)


def test_apply_kraus_and_zero_outcome():
    plus = (basis_ket(2, 0) + basis_ket(2, 1)) / np.sqrt(2)
    rho = DensityOperator.of(projector(plus))
    p0 = projector(basis_ket(2, 0))
    out = apply_kraus(p0, rho)
    assert out is not None
    assert out.trace() == pytest.approx(0.5)
    # annihilating outcome reports None instead of a zero state
    zero_in = DensityOperator.of(projector(basis_ket(2, 1)))
    assert apply_kraus(p0, zero_in) is None


@pytest.mark.parametrize("scale", [1.5e-12, 1.0, 1e6])
def test_apply_kraus_zero_test_is_relative_to_the_input(scale):
    p0 = projector(basis_ket(2, 0))
    rho = DensityOperator.of(np.array([[0.6, 0.2], [0.2, 0.4]]) * scale)
    assert outcome_probability(p0, rho) == pytest.approx(0.6)
    out = apply_kraus(p0, rho)
    assert out is not None and out.trace() == pytest.approx(0.6 * scale)
    assert apply_kraus(p0, DensityOperator.of(projector(basis_ket(2, 1)) * scale)) is None


def test_outcome_probability_on_plus_state():
    plus = (basis_ket(2, 0) + basis_ket(2, 1)) / np.sqrt(2)
    rho = DensityOperator.of(projector(plus))
    m = measure_z()
    assert outcome_probability(m.operator("0"), rho) == pytest.approx(0.5)
    assert outcome_probability(m.operator("1"), rho) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        outcome_probability(ID2, DensityOperator(np.zeros((2, 2)), HilbertSpec.of([("q", 2)])))


def test_partial_trace_of_bell_state():
    bell = (np.kron(basis_ket(2, 0), basis_ket(2, 0)) + np.kron(basis_ket(2, 1), basis_ket(2, 1))) / np.sqrt(2)
    space = HilbertSpec.of([("a", 2), ("b", 2)])
    reduced = partial_trace_matrix(projector(bell), space, ("a",))
    assert np.allclose(reduced, identity(2) / 2, atol=1e-12)


def test_partial_trace_matches_explicit_sum():
    rng = np.random.default_rng(3)
    space = HilbertSpec.of([("a", 2), ("b", 3), ("c", 2)])
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = g @ dagger(g)
    got = partial_trace_matrix(rho, space, ("a", "c"))
    # independent oracle: index arithmetic over the middle factor
    want = np.zeros((4, 4), dtype=complex)
    t = rho.reshape(2, 3, 2, 2, 3, 2)
    for ai in range(2):
        for ci in range(2):
            for aj in range(2):
                for cj in range(2):
                    want[2 * ai + ci, 2 * aj + cj] = sum(t[ai, k, ci, aj, k, cj] for k in range(3))
    assert np.allclose(got, want, atol=1e-10)
    assert got.trace() == pytest.approx(rho.trace())


def test_partial_trace_empty_keep_is_full_trace():
    space = HilbertSpec.of([("a", 2), ("b", 2)])
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    got = partial_trace_matrix(rho, space, ())
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(1.0)


def test_lift_operator_adjacent_and_reversed():
    space = HilbertSpec.of([("q0", 2), ("q1", 2)])
    assert np.allclose(lift_operator(CNOT, ("q0", "q1"), space), CNOT)
    assert np.allclose(lift_operator(CNOT, ("q1", "q0"), space), CNOT_REVERSED)
    with pytest.raises(ValueError):
        lift_operator(CNOT, ("q0", "q0"), space)
    with pytest.raises(ValueError):
        lift_operator(CNOT, ("q0",), space)


def test_apply_local_matches_the_lifted_product():
    """Each (space, wires, ndim) has its own index plan: the two spaces share
    wire names but not dims, and a ket and blocks reuse the wires of each."""
    rng = np.random.default_rng(17)
    cases = [("b",), ("a", "b"), ("b", "a"), ("c", "a"), ("a", "c"), ("c", "b", "a"), ("a", "b", "c"), ("b", "c", "a")]
    for space in (HilbertSpec.of([("a", 2), ("b", 3), ("c", 2)]), HilbertSpec.of([("a", 3), ("b", 2), ("c", 2)])):
        for on in cases:
            d_on = int(np.prod([space.dim_of(w) for w in on]))
            op = rng.normal(size=(d_on, d_on)) + 1j * rng.normal(size=(d_on, d_on))
            lifted = lift_operator(op, on, space)
            ket = haar_ket(space.dim, rng)
            block = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
            for x in (ket, block, identity(space.dim)):
                got = apply_local(op, on, x, space)
                assert got.shape == x.shape
                assert np.max(np.abs(got - lifted @ x)) <= 1e-12
    with pytest.raises(ValueError):
        apply_local(CNOT, ("a",), haar_ket(space.dim, rng), space)


def test_lift_operator_acts_only_on_named_wires():
    rng = np.random.default_rng(4)
    space = HilbertSpec.of([("x", 2), ("y", 2), ("z", 2)])
    u = random_unitary(2, rng)
    lifted = lift_operator(u, ("y",), space)
    assert np.allclose(lifted, np.kron(np.kron(identity(2), u), identity(2)), atol=1e-12)


def test_permute_ket_and_wires_roundtrip():
    rng = np.random.default_rng(5)
    space = HilbertSpec.of([("a", 2), ("b", 3), ("c", 2)])
    v = haar_ket(12, rng)
    w = permute_ket(v, space, ("c", "a", "b"))
    back = permute_ket(w, HilbertSpec.of([("c", 2), ("a", 2), ("b", 3)]), ("a", "b", "c"))
    assert np.allclose(back, v, atol=1e-12)
    m = projector(v)
    m2 = permute_wires(m, space, ("c", "a", "b"))
    assert np.allclose(m2, projector(w), atol=1e-12)


def test_bipartition_ket_of_product_state():
    rng = np.random.default_rng(6)
    space = HilbertSpec.of([("p", 2), ("a", 3)])
    psi, phi = haar_ket(2, rng), haar_ket(3, rng)
    mat = bipartition_ket(np.kron(psi, phi), space, ("p",))
    assert mat.shape == (2, 3)
    assert np.allclose(mat, np.outer(psi, phi), atol=1e-12)


def test_bipartition_ket_of_a_block_stacks_the_columns():
    rng = np.random.default_rng(8)
    space = HilbertSpec.of([("a0", 2), ("p0", 2), ("a1", 3), ("p1", 2)])
    block = rng.normal(size=(space.dim, 5)) + 1j * rng.normal(size=(space.dim, 5))
    got = bipartition_ket(block, space, ("p1", "p0"))
    assert got.shape == (4, 6, 5)
    want = np.stack([bipartition_ket(col, space, ("p1", "p0")) for col in block.T], axis=-1)
    assert np.array_equal(got, want)
    assert bipartition_ket(block, space, ()).shape == (1, space.dim, 5)


def test_haar_ket_and_random_unitary_are_seeded():
    a = haar_ket(4, np.random.default_rng(9))
    b = haar_ket(4, np.random.default_rng(9))
    assert np.array_equal(a, b)
    u = random_unitary(3, np.random.default_rng(10))
    assert np.allclose(dagger(u) @ u, identity(3), atol=1e-12)


def test_ket_dimension_check():
    with pytest.raises(ValueError):
        Ket.of([1, 0, 0], HilbertSpec.of([("q", 2)]))


def test_constants_are_consistent():
    assert np.allclose(HADAMARD @ HADAMARD, ID2, atol=1e-12)
    assert np.allclose(SWAP @ SWAP, identity(4), atol=1e-12)
    assert np.allclose(CNOT @ CNOT, identity(4), atol=1e-12)
    m = measure_z(3)
    assert m.labels == ("0", "1", "2")
    assert m.completeness_defect() <= 1e-12


def test_input_isometry_and_embedding_on_interleaved_wires():
    # principal wires p0, p1 interleaved with ancillas a0 (dim 2) and a1
    # (dim 3) in a complex, non-basis unit ancilla vector; the reference
    # tensors the factors with einsum over the space order (a0, p0, a1, p1)
    from meastree.circuits import Circuit, unitary_gate
    from meastree.linalg import _input_isometry, embed_principal

    rng = np.random.default_rng(41)
    space = HilbertSpec.of([("a0", 2), ("p0", 2), ("a1", 3), ("p1", 2)])
    anc = haar_ket(6, rng)
    c = Circuit.build(space, ["p0", "p1"], [unitary_gate("h", ("p0",), HADAMARD)], ancilla_init=anc)
    assert c.principal_wires == ("p0", "p1") and c.ancilla_wires == ("a0", "a1")
    a = anc.reshape(2, 3)

    psi = haar_ket(4, rng)
    want = np.einsum("xy,pq->xpyq", a, psi.reshape(2, 2)).reshape(-1)
    assert np.max(np.abs(embed_principal(c, psi) - want)) <= 1e-12

    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ dagger(g)
    want = np.einsum("xy,pqPQ,XY->xpyqXPYQ", a, rho.reshape(2, 2, 2, 2), a.conj()).reshape(24, 24)
    assert np.max(np.abs(embed_principal(c, rho) - want)) <= 1e-12

    e = _input_isometry(c)
    assert e.shape == (24, 4)
    for i in range(4):
        want = np.einsum("xy,pq->xpyq", a, basis_ket(4, i).reshape(2, 2)).reshape(-1)
        assert np.max(np.abs(e[:, i] - want)) <= 1e-12


def test_kron_broadcast_is_np_kron_bit_for_bit():
    """Row i * nb + j of the stacked product is np.kron(a[i], b[j]), bit for bit."""
    from meastree.linalg import _kron

    rng = np.random.default_rng(4)
    for _ in range(40):
        a_shape, b_shape = rng.integers(1, 6, size=3), rng.integers(1, 6, size=3)
        a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
        b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        for x in (a, a.real):
            got = _kron(x, b)
            assert got.shape[0] == len(x) * len(b)
            for i, j in np.ndindex(len(x), len(b)):
                assert np.array_equal(got[i * len(b) + j], np.kron(x[i], b[j]))
