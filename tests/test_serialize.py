import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meastree.circuits import enumerate_paths, full_input, simulate_path, validate_circuit
from meastree.demos import DEMOS, teleportation
from meastree.linalg import DensityOperator, HilbertSpec, Measurement, haar_ket, projector
from meastree.rand import random_circuit, random_density, random_measurement, random_tree
from meastree.reduction import reduce_circuit
from meastree.serialize import (
    _json_text,
    circuit_from_json,
    circuit_to_json,
    matrix_from_json,
    matrix_to_json,
    measurement_from_json,
    measurement_to_json,
    state_from_json,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    vector_from_json,
    vector_to_json,
)
from meastree.trees import branch_measurement, branch_operator, build_tree, run_tree, validate_tree


def test_matrix_round_trip_preserves_complex_entries():
    rng = np.random.default_rng(61)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    encoded = matrix_to_json(m)
    assert encoded[0][0] == [pytest.approx(m[0, 0].real), pytest.approx(m[0, 0].imag)]
    back = matrix_from_json(encoded)
    assert np.array_equal(back, m)
    # the encoding is plain JSON
    json.dumps(encoded)


def test_vector_round_trip():
    v = np.array([1.5, -2j, 0.25 + 0.75j])
    assert np.array_equal(vector_from_json(vector_to_json(v)), v)


def _loop_matrix_to_json(m):
    """The reference encoding: one [re, im] pair per entry."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


_ARRAYS = {
    "1x1": np.array([[0.5 - 2j]]),
    "vector": np.array([1.5, -2j, 0.25 + 0.75j]),
    "integers": np.array([[1, 0], [0, -1]]),
    "signed zeros": np.array([[-0.0 + 0j, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1]]),
    "transposed": (np.arange(12) + 1j * np.arange(12, 24)).reshape(3, 4).T / 7,
    "sliced": (np.arange(24) * (0.1 - 0.3j)).reshape(4, 6)[::2, 1::2],
    "sliced vector": (np.arange(8) * (1e16 + 5e-324j))[::3],
    "non-finite": np.array([[np.nan, complex(np.inf, 1)], [complex(0, -np.inf), -0.0]]),
    "no rows": np.zeros((0, 3), dtype=complex),
    "empty rows": np.zeros((2, 0), dtype=complex),
    "empty vector": np.zeros(0, dtype=complex),
}


@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_array_encodings_equal_the_entry_by_entry_loop(name):
    a = _ARRAYS[name]
    if a.ndim == 2:
        assert repr(matrix_to_json(a)) == repr(_loop_matrix_to_json(a))  # repr tells -0.0 from 0.0
    assert repr(vector_to_json(a)) == repr(_loop_matrix_to_json(a.reshape(1, -1))[0])


@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_json_text_writes_an_array_as_its_list_at_every_depth(name):
    a = _ARRAYS[name]
    listed = matrix_to_json(a) if a.ndim == 2 else vector_to_json(a)
    value, reference = a, listed
    for depth in range(4):
        assert _json_text(value) == json.dumps(reference, indent=2), depth
        value, reference = {"k": [1, value]}, {"k": [1, reference]}


_TRICKY_TEXT = ["", '"', "\\", "\x00\x1f\x7f", "tab\tnew\nline", "\u00e9", "\u2028", "\U0001f600", "\ud800"]
_TRICKY_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")]
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from(_TRICKY_FLOATS)
    | st.text()
    | st.sampled_from(_TRICKY_TEXT),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text() | st.sampled_from(_TRICKY_TEXT), children, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_text_equals_the_stdlib_indented_layout(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_matrix_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_json("nope")
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0]]])  # entry is not an [re, im] pair
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])  # ragged rows
    with pytest.raises(ValueError):
        vector_from_json([])


def test_measurement_round_trip():
    rng = np.random.default_rng(62)
    m = random_measurement(3, 2, rng)
    back = measurement_from_json(measurement_to_json(m))
    assert back.labels == m.labels
    for lbl in m.labels:
        assert np.array_equal(back.operator(lbl), m.operator(lbl))


def test_measurement_from_json_requires_outcomes_mapping():
    with pytest.raises(ValueError):
        measurement_from_json({"wrong": {}})
    with pytest.raises(ValueError):
        measurement_from_json({"outcomes": []})
    with pytest.raises(ValueError):
        measurement_from_json({"outcomes": {"0": [[[1.0, 0.0], [0.0, 0.0]]]}})  # not square


def test_state_from_json_sniffs_kets_and_densities():
    kind, arr = state_from_json({"vector": vector_to_json(np.array([1.0, 0.0]))})
    assert kind == "ket" and arr.shape == (2,)
    kind, arr = state_from_json({"matrix": matrix_to_json(np.eye(2) / 2)})
    assert kind == "density" and arr.shape == (2, 2)
    # bare arrays are sniffed by nesting depth
    kind, _ = state_from_json(vector_to_json(np.array([0.0, 1.0])))
    assert kind == "ket"
    kind, _ = state_from_json(matrix_to_json(np.eye(2)))
    assert kind == "density"
    with pytest.raises(ValueError):
        state_from_json({"neither": []})


DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def test_demo_data_files_match_the_demos():
    assert sorted(p.stem for p in DEMO_DATA.glob("*.json")) == sorted(DEMOS)
    for name, make in DEMOS.items():
        assert json.loads((DEMO_DATA / f"{name}.json").read_text()) == circuit_to_json(make())


def test_demo_circuits_round_trip_exactly():
    for name, make in DEMOS.items():
        c = make()
        doc = circuit_to_json(c)
        json.dumps(doc)
        back = circuit_from_json(doc)
        assert validate_circuit(back) == []
        assert circuit_to_json(back) == doc
        # behavior survives the round trip
        rng = np.random.default_rng(63)
        rho = random_density(c.principal_spec, rng)
        for path in enumerate_paths(c):
            p0, s0 = simulate_path(c, path, rho)
            p1, s1 = simulate_path(back, path, rho)
            assert p1 == pytest.approx(p0, abs=1e-12)
            assert np.array_equal(s0, s1)


def test_random_circuits_round_trip():
    rng = np.random.default_rng(64)
    for _ in range(5):
        c = random_circuit(rng)
        doc = circuit_to_json(c)
        back = circuit_from_json(doc)
        assert circuit_to_json(back) == doc


def test_circuit_json_shape():
    doc = circuit_to_json(teleportation())
    assert [w["id"] for w in doc["wires"]] == ["q0", "q1", "q2"]
    roles = {w["id"]: w["role"] for w in doc["wires"]}
    assert roles == {"q0": "principal", "q1": "ancilla", "q2": "ancilla"}
    assert doc["gate_order"][0] == "bell_h"
    assert [sorted(layer) for layer in doc["schedule"]] == [
        sorted(layer) for layer in [["bell_h"], ["bell_cnot"], ["alice_cnot"], ["alice_h"],
                                    ["mz0", "mz1"], ["corr_x"], ["corr_z"], ["unswap"]]
    ]
    corr_x = next(g for g in doc["gates"] if g["id"] == "corr_x")
    assert corr_x["classical_sources"] == ["mz1"]
    assert corr_x["selection"] == [
        {"when": {"mz1": "0"}, "use": 0},
        {"when": {"mz1": "1"}, "use": 1},
    ]


def test_circuit_from_json_rejects_malformed_documents():
    doc = circuit_to_json(teleportation())
    broken = json.loads(json.dumps(doc))
    del broken["wires"]
    with pytest.raises(ValueError):
        circuit_from_json(broken)
    broken = json.loads(json.dumps(doc))
    broken["gates"][0]["wires"] = "q1"
    with pytest.raises(ValueError):
        circuit_from_json(broken)
    broken = json.loads(json.dumps(doc))
    broken["wires"][0]["dim"] = 0
    with pytest.raises(ValueError):
        circuit_from_json(broken)
    with pytest.raises(ValueError):
        circuit_from_json([])


def test_tree_round_trip_for_reduced_demos():
    for make in DEMOS.values():
        t, _ = reduce_circuit(make())
        doc = tree_to_json(t)
        json.dumps(doc)
        back = tree_from_json(doc)
        assert validate_tree(back) == []
        assert tree_to_json(back) == doc
        assert len(back.branches()) == len(t.branches())
        # branch operators are preserved branch by branch
        for b_old, b_new in zip(t.branches(), back.branches()):
            assert np.allclose(
                branch_operator(t, b_old), branch_operator(back, b_new), atol=0
            )
        assert back.has_roles() == t.has_roles()


def test_tree_round_trip_preserves_run_results():
    t, _ = reduce_circuit(teleportation())
    back = tree_from_json(tree_to_json(t))
    rng = np.random.default_rng(65)
    psi = haar_ket(2, rng)
    full = np.kron(projector(psi), projector(t.ancilla_init.vector))
    out_old = run_tree(t, DensityOperator.of(full, t.space))
    out_new = run_tree(back, DensityOperator.of(full, back.space))
    probs_old = sorted(p for p, _ in out_old.values())
    probs_new = sorted(p for p, _ in out_new.values())
    assert probs_old == pytest.approx(probs_new, abs=1e-12)


def test_local_and_full_space_nodes_agree():
    """A reduced tree keeps local measurements and its JSON copy holds them
    lifted to the full space; both must behave and serialize the same."""
    rng = np.random.default_rng(67)
    circuits = [make() for make in DEMOS.values()]
    circuits += [random_circuit(np.random.default_rng(seed)) for seed in range(20)]
    for c in circuits:
        t, _ = reduce_circuit(c)
        doc = tree_to_json(t)
        t2 = tree_from_json(doc)
        assert all(node.wires is not None for node in t.nodes.values() if not node.is_leaf)
        assert all(node.wires is None for node in t2.nodes.values())
        assert tree_to_json(t2) == doc
        assert t2.branches() == t.branches()
        for b in t.branches():
            assert np.max(np.abs(branch_operator(t2, b) - branch_operator(t, b))) <= 1e-12
        m, m2 = branch_measurement(t), branch_measurement(t2)
        assert m2.labels == m.labels
        for label in m.labels:
            assert np.max(np.abs(m2.operator(label) - m.operator(label))) <= 1e-12
        sigma0 = DensityOperator.of(full_input(c, random_density(c.principal_spec, rng)), t.space)
        out, out2 = run_tree(t, sigma0), run_tree(t2, sigma0)
        assert list(out2) == list(out)
        for b, (p, sigma) in out.items():
            assert abs(out2[b][0] - p) <= 1e-12
            assert np.max(np.abs(out2[b][1] - sigma)) <= 1e-12


def test_random_tree_round_trip():
    rng = np.random.default_rng(66)
    space = HilbertSpec.of([("q", 2)])
    for _ in range(5):
        t = random_tree(space, rng)
        doc = tree_to_json(t)
        back = tree_from_json(doc)
        assert tree_to_json(back) == doc


def test_tree_json_node_ids_are_routes():
    t, _ = reduce_circuit(teleportation())
    doc = tree_to_json(t)
    assert doc["root"] == "/"
    assert "/" in doc["nodes"]
    # every non-root id is the route of labels from the root
    for node_id in doc["nodes"]:
        assert node_id == "/" or node_id.startswith("/")


def test_tree_node_ids_that_collide_get_suffixes_and_keep_their_edges():
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    inner = Measurement.of({"b": p0, "b#2": p1})
    root = Measurement.of({"a/b": p0, "a": p1})
    t = build_tree(HilbertSpec.of([("q", 2)]), (root, {"a/b": None, "a": (inner, {"b": None, "b#2": None})}))
    doc = tree_to_json(t)
    assert list(doc["nodes"]) == ["/", "/a/b", "/a", "/a/b#2", "/a/b#2#2"]
    assert doc["nodes"]["/"]["children"] == {"a/b": "/a/b", "a": "/a"}
    assert doc["nodes"]["/a"]["children"] == {"b": "/a/b#2", "b#2": "/a/b#2#2"}
    back = tree_from_json(json.loads(json.dumps(doc)))
    assert back.branches() == t.branches() == [("a/b",), ("a", "b"), ("a", "b#2")]
    for branch in t.branches():
        assert np.array_equal(branch_operator(back, branch), branch_operator(t, branch))
    edges = [line.strip() for line in tree_to_dot(t).splitlines() if "->" in line]
    assert edges == [
        '"/" -> "/a/b" [label="a/b"];',
        '"/" -> "/a" [label="a"];',
        '"/a" -> "/a/b#2" [label="b"];',
        '"/a" -> "/a/b#2#2" [label="b#2"];',
    ]


def test_tree_from_json_rejects_cycles_and_missing_nodes():
    t, _ = reduce_circuit(teleportation())
    doc = json.loads(json.dumps(tree_to_json(t)))
    root = doc["root"]
    first_child = next(iter(doc["nodes"][root]["children"].values()))
    doc["nodes"][first_child]["children"] = {
        lbl: root for lbl in doc["nodes"][first_child]["children"]
    }
    with pytest.raises(ValueError):
        tree_from_json(doc)
    doc2 = json.loads(json.dumps(tree_to_json(t)))
    del doc2["nodes"][first_child]
    with pytest.raises(ValueError):
        tree_from_json(doc2)


LEAF = {"measurement": None, "children": {}}
A_LEAF = "/u/u/u/u/0|0/i/i/u"  # a leaf of teleportation's tree


@pytest.mark.parametrize(
    "children, added, message",
    [
        (("/", {"zzz": "/orphan"}), ["/orphan", "/stray"], "tree.nodes['/'].children: 'zzz' names no outcome"),
        (None, ["/stray"], "tree.nodes['/stray']: no route from the root reaches it"),
        ((A_LEAF, {"a": "/stray"}), ["/stray"], f"tree.nodes['{A_LEAF}']: a leaf has no children, got ['a']"),
    ],
    ids=["unknown-outcome", "unreached-node", "children-on-a-leaf"],
)
def test_tree_from_json_rejects_what_no_route_reads(tmp_path, capsys, children, added, message):
    """A children entry that names no outcome, children on a leaf, and a node no route
    reaches: the loader rejects each, so validate and simulate --tree exit 1."""
    from meastree.cli import main

    t, _ = reduce_circuit(teleportation())
    doc = json.loads(json.dumps(tree_to_json(t)))
    assert tree_from_json(doc).branches() == t.branches() and A_LEAF in doc["nodes"]
    if children is not None:
        doc["nodes"][children[0]]["children"].update(children[1])
    doc["nodes"].update(dict.fromkeys(added, LEAF))
    with pytest.raises(ValueError) as exc:
        tree_from_json(doc)
    assert str(exc.value) == message
    tree, state = tmp_path / "tree.json", tmp_path / "state.json"
    tree.write_text(json.dumps(doc))
    state.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    for argv in (["validate", str(tree)], ["simulate", "--tree", str(tree), "--input", str(state)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_single_leaf_tree_needs_wires_for_dimension():
    doc = {"root": "/", "nodes": {"/": {"measurement": None, "children": {}}}}
    with pytest.raises(ValueError):
        tree_from_json(doc)
    doc["wires"] = [{"id": "q", "dim": 3, "role": "principal"}]
    back = tree_from_json(doc)
    assert back.space.dim == 3


def test_tree_to_dot_output():
    t, _ = reduce_circuit(teleportation())
    dot = tree_to_dot(t)
    assert dot.startswith("digraph meastree {")
    assert dot.rstrip().endswith("}")
    assert "rankdir=TB" in dot
    assert dot.count("->") == len(t.nodes) - 1
    assert "shape=box" in dot and "shape=ellipse" in dot


def test_measurement_labels_preserved_verbatim():
    m = Measurement.of({"0|1": np.eye(2, dtype=complex) / np.sqrt(2),
                        "1|0": np.eye(2, dtype=complex) / np.sqrt(2)})
    back = measurement_from_json(measurement_to_json(m))
    assert back.labels == ("0|1", "1|0")


_POOL = (None, True, 0, -1, 1.5, "", "x", [], {}, [[1, 0]], {"a": 1})


def _fuzz_documents():
    docs = []
    for name in sorted(DEMOS):
        c = DEMOS[name]()
        docs.append(("circuit", circuit_to_json(c)))
        docs.append(("tree", tree_to_json(reduce_circuit(c)[0])))
        d = c.principal_spec.dim
        docs.append(("state", {"vector": vector_to_json(haar_ket(d, np.random.default_rng(d)))}))
        docs.append(("state", {"matrix": matrix_to_json(np.eye(d) / d)}))
    return docs


_FUZZ_DOCS = _fuzz_documents()


def _load(kind, obj):
    if kind == "circuit":
        validate_circuit(circuit_from_json(obj))
    elif kind == "tree":
        validate_tree(tree_from_json(obj))
    else:
        state_from_json(obj)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_json_loaders_raise_only_value_error_on_one_replaced_value(data):
    kind, doc = data.draw(st.sampled_from(_FUZZ_DOCS))
    doc = json.loads(json.dumps(doc))
    parent, node = None, doc
    # descend at least one level, then stop at any depth, so that shallow
    # keys such as a tree's "root" come up as often as deep matrix entries do
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.booleans())):
        parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    parent[key] = data.draw(st.sampled_from(_POOL))
    try:
        _load(kind, doc)
    except ValueError:
        pass
