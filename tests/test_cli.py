import json

import numpy as np
import pytest

from meastree import circuits, linalg
from meastree.circuits import _walk, enumerate_paths, simulate_path
from meastree.cli import _matrix_lines, main, parse_path_spec
from meastree.demos import DEMOS, teleportation
from meastree.linalg import configure_tolerances, partial_trace_matrix
from meastree.rand import random_circuit, random_density
from meastree.serialize import circuit_from_json, circuit_to_json, matrix_to_json, vector_to_json


@pytest.fixture(autouse=True)
def _restore_tolerances():
    yield
    configure_tolerances(1e-9, zero=1e-12)


@pytest.fixture
def demo_files(tmp_path, capsys):
    """Emit the bundled demo circuits into a temp directory."""
    paths = {}
    for name in ("teleportation", "measure_discard", "feedforward_x", "coin"):
        out = tmp_path / f"{name}.json"
        assert main(["demo", name, "--emit", "-o", str(out)]) == 0
        paths[name] = str(out)
    capsys.readouterr()
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_without_name_lists_demos(capsys):
    code, out, _ = run_cli(capsys, ["demo"])
    assert code == 0
    for name in ("teleportation", "measure_discard", "feedforward_x", "coin", "code_embedding"):
        assert name in out


def test_demo_emit_writes_loadable_circuit(tmp_path, capsys):
    out = tmp_path / "tele.json"
    code, _, _ = run_cli(capsys, ["demo", "teleportation", "--emit", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    c = circuit_from_json(doc)
    assert set(c.gates) == set(teleportation().gates)


def test_validate_ok(demo_files, capsys):
    code, out, _ = run_cli(capsys, ["validate", demo_files["teleportation"]])
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_validate_malformed_json_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["validate", str(bad)])
    assert code == 1
    assert err != ""


def test_validate_missing_file_is_exit_1(capsys):
    code, _, err = run_cli(capsys, ["validate", "/nonexistent/circuit.json"])
    assert code == 1
    assert err != ""


def test_validate_schedule_violation_is_exit_2(demo_files, tmp_path, capsys):
    doc = json.loads(open(demo_files["teleportation"]).read())
    doc["schedule"] = list(reversed(doc["schedule"]))
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["validate", str(bad)])
    assert code == 2
    codes = {v["code"] for v in json.loads(out)["violations"]}
    assert "SCHEDULE_PREREQ" in codes


def test_paths_lists_all_outcome_assignments(demo_files, capsys):
    code, out, _ = run_cli(capsys, ["paths", "--circuit", demo_files["teleportation"]])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert {(r["mz0"], r["mz1"]) for r in rows} == {
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")
    }


def test_simulate_circuit_reports_quarter_probabilities(demo_files, tmp_path, capsys):
    rng = np.random.default_rng(71)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(v)}))
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--circuit", demo_files["teleportation"], "--input", str(state)],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for row in rows:
        assert row["probability"] == pytest.approx(0.25, abs=1e-9)


def test_simulate_tree_probabilities_do_not_depend_on_the_input_trace(demo_files, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(["tree", "--circuit", demo_files["teleportation"], "-o", str(tree)]) == 0
    rho = np.array([[0.6, 0.2], [0.2, 0.4]])
    for verb in ("--tree", "--circuit"):
        source = str(tree) if verb == "--tree" else demo_files["teleportation"]
        for scale in (1.0, 3e-12, 1.5e-12):
            state = tmp_path / "state.json"
            state.write_text(json.dumps({"matrix": matrix_to_json(scale * rho)}))
            code, out, _ = run_cli(capsys, ["simulate", verb, source, "--input", str(state)])
            assert code == 0
            probs = [row["probability"] for row in json.loads(out)]
            assert probs == pytest.approx([0.25] * 4, abs=1e-12)

def test_simulate_single_path(demo_files, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--circuit",
            demo_files["teleportation"],
            "--input",
            str(state),
            "--path",
            "mz0=0,mz1=1",
        ],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["path"]["mz0"] == "0" and rows[0]["path"]["mz1"] == "1"


def test_simulate_nan_circuit_is_exit_1(demo_files, tmp_path, capsys):
    doc = json.loads(open(demo_files["teleportation"]).read())
    doc["gates"][0]["measurements"][0]["outcomes"]["u"][0][0][0] = float("nan")
    circuit = tmp_path / "nan.json"
    circuit.write_text(json.dumps(doc))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    code, out, _ = run_cli(capsys, ["simulate", "--circuit", str(circuit), "--input", str(state)])
    assert code == 1
    assert "nan" not in out.lower()


@pytest.mark.parametrize(
    "bad", ["NaN", "Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400")]
)
def test_simulate_non_finite_input_is_exit_1(demo_files, tmp_path, capsys, bad):
    state = tmp_path / "state.json"
    state.write_text('{"vector": [[%s, 0], [0, 0]]}' % bad)
    code, out, _ = run_cli(
        capsys, ["simulate", "--circuit", demo_files["teleportation"], "--input", str(state)]
    )
    assert code == 1
    assert "nan" not in out.lower()


def test_simulate_invalid_circuit_is_exit_2(demo_files, tmp_path, capsys):
    doc = json.loads(open(demo_files["teleportation"]).read())
    doc["schedule"] = list(reversed(doc["schedule"]))
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    code, _, _ = run_cli(
        capsys, ["simulate", "--circuit", str(bad), "--input", str(state)]
    )
    assert code == 2


def test_reduce_and_tree_round_trip(demo_files, tmp_path, capsys):
    reduced = tmp_path / "reduced.json"
    code, _, _ = run_cli(
        capsys,
        ["reduce", "--circuit", demo_files["teleportation"], "-o", str(reduced)],
    )
    assert code == 0
    lin = circuit_from_json(json.loads(reduced.read_text()))
    assert all(len(layer) == 1 for layer in lin.schedule)

    code, out, _ = run_cli(
        capsys, ["tree", "--circuit", demo_files["teleportation"]]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["root"] == "/"

    code, out, _ = run_cli(
        capsys, ["tree", "--circuit", demo_files["teleportation"], "--dot"]
    )
    assert code == 0
    assert out.startswith("digraph meastree {")


def test_tree_with_unnormalized_ancilla_is_exit_2(tmp_path, capsys):
    z = {"0": matrix_to_json(np.diag([1, 0, 1, 0])), "1": matrix_to_json(np.diag([0, 1, 0, 1]))}
    doc = {
        "root": "/",
        "nodes": {"/": {"measurement": {"outcomes": z}, "children": {"0": "/0", "1": "/1"}},
                  "/0": {"measurement": None}, "/1": {"measurement": None}},
        "wires": [{"id": "p", "dim": 2, "role": "principal"}, {"id": "a", "dim": 2, "role": "ancilla"}],
        "ancilla_init": vector_to_json(np.array([2, 0])),
    }
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["validate", str(tree)])
    assert code == 2
    assert json.loads(out) == {"kind": "tree", "valid": False, "problems": ["ancilla_init norm 2.000000 != 1"]}
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    code, _, err = run_cli(capsys, ["simulate", "--tree", str(tree), "--input", str(state)])
    assert code == 2
    assert "ancilla_init norm" in err
    doc["ancilla_init"] = vector_to_json(np.array([1, 0]))
    tree.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, ["validate", str(tree)])
    assert code == 0


def test_check_independence_teleportation(demo_files, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "check-independence",
            "--circuit",
            demo_files["teleportation"],
            "--all-paths",
            "--probes",
            "100",
            "--seed",
            "7",
        ],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for row in rows:
        assert row["verdict"] == "independent"
        assert row["min_probability"] == pytest.approx(0.25, abs=1e-9)
        assert row["max_probability"] == pytest.approx(0.25, abs=1e-9)


def test_check_independence_detects_dependence_exit_3(demo_files, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "check-independence",
            "--circuit",
            demo_files["measure_discard"],
            "--all-paths",
            "--probes",
            "32",
            "--seed",
            "1",
        ],
    )
    assert code == 3
    rows = json.loads(out)
    assert all(r["verdict"] == "dependent" for r in rows)
    assert all(r["max_deviation"] >= 0.3 for r in rows)


def test_factor_emits_witness(demo_files, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "factor",
            "--circuit",
            demo_files["teleportation"],
            "--path",
            "mz0=1,mz1=0",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["factored"] is True
    assert doc["kind"] == "unitary"
    assert doc["probability"] == pytest.approx(0.25, abs=1e-9)
    u = np.array([[complex(re, im) for re, im in row] for row in doc["U"]])
    assert np.allclose(u, np.eye(2), atol=1e-8)
    b = np.array([complex(re, im) for re, im in doc["b"]])
    assert float(np.vdot(b, b).real) == pytest.approx(0.25, abs=1e-9)


def test_factor_unfactorable_path_is_exit_3(demo_files, capsys):
    code, out, _ = run_cli(
        capsys,
        ["factor", "--circuit", demo_files["measure_discard"], "--path", "mz=0"],
    )
    assert code == 3
    assert json.loads(out)["factored"] is False


def test_check_unitary_confirms_identity(demo_files, tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps(matrix_to_json(np.eye(2))))
    code, out, _ = run_cli(
        capsys,
        [
            "check-unitary",
            "--circuit",
            demo_files["teleportation"],
            "--operator",
            str(op),
            "--probes",
            "16",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unitary"
    assert doc["t_scale"] == pytest.approx(1.0, abs=1e-9)
    assert all(row["computes"] for row in doc["branches"])


def test_check_unitary_rejects_wrong_operator(demo_files, tmp_path, capsys):
    op = tmp_path / "op.json"
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    op.write_text(json.dumps(matrix_to_json(x)))
    code, doc_out, _ = run_cli(
        capsys,
        [
            "check-unitary",
            "--circuit",
            demo_files["teleportation"],
            "--operator",
            str(op),
            "--probes",
            "8",
            "--seed",
            "3",
        ],
    )
    assert code == 3
    doc = json.loads(doc_out)
    assert not all(row["computes"] for row in doc["branches"])


def test_check_unitary_coin_scale(demo_files, tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps(matrix_to_json(np.eye(2) / np.sqrt(2))))
    code, out, _ = run_cli(
        capsys,
        [
            "check-unitary",
            "--circuit",
            demo_files["coin"],
            "--operator",
            str(op),
            "--probes",
            "8",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t_scale"] == pytest.approx(np.sqrt(2), abs=1e-9)


def test_output_is_deterministic_for_fixed_seed(demo_files, capsys):
    argv = [
        "check-independence",
        "--circuit",
        demo_files["teleportation"],
        "--all-paths",
        "--probes",
        "25",
        "--seed",
        "11",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_paths_table_format_emits_reusable_path_specs(demo_files, capsys):
    code, out, _ = run_cli(
        capsys,
        ["paths", "--circuit", demo_files["teleportation"], "--format", "table"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("mz0=" in line and "mz1=" in line for line in lines)
    # each line round-trips through the --path parser
    c = teleportation()
    assert {tuple(sorted(parse_path_spec(c, line).items())) for line in lines} == {
        tuple(sorted(p.items())) for p in enumerate_paths(c)
    }
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_check_independence_table_format(demo_files, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "check-independence",
            "--circuit",
            demo_files["teleportation"],
            "--all-paths",
            "--probes",
            "16",
            "--seed",
            "2",
            "--format",
            "table",
        ],
    )
    assert code == 0
    assert "verdict" in out and "independent" in out


def test_tolerance_env_var_malformed_is_exit_1(demo_files, capsys, monkeypatch):
    monkeypatch.setenv("MEASTREE_TOL", "banana")
    code, _, err = run_cli(capsys, ["demo"])
    assert code == 1
    assert "MEASTREE_TOL" in err


def test_tolerance_env_var_applies(demo_files, capsys, monkeypatch):
    monkeypatch.setenv("MEASTREE_TOL", "1e-3")
    code, _, _ = run_cli(capsys, ["validate", demo_files["teleportation"]])
    assert code == 0


def test_tolerance_env_var_is_restored_after_main(demo_files, capsys, monkeypatch):
    before = dict(vars(linalg.TOL))
    monkeypatch.setenv("MEASTREE_TOL", "1e-3")
    code, _, _ = run_cli(capsys, ["validate", demo_files["teleportation"]])
    assert code == 0
    assert vars(linalg.TOL) == before


def test_parse_path_spec_autofills_single_outcome_gates():
    c = teleportation()
    p = parse_path_spec(c, "mz0=1,mz1=0")
    assert p["mz0"] == "1" and p["mz1"] == "0"
    # single-outcome gates and forced selections are filled in
    assert p["bell_h"] == "u"
    assert p["corr_x"] == "i"  # mz1=0 selects the identity correction
    assert p["corr_z"] == "z"  # mz0=1 selects the Z correction


def test_parse_path_spec_errors():
    c = teleportation()
    with pytest.raises(ValueError):
        parse_path_spec(c, "mz0=1")  # mz1 has two outcomes, so it is required
    with pytest.raises(ValueError):
        parse_path_spec(c, "mz0=1,mz0=0,mz1=1")  # duplicate assignment
    with pytest.raises(ValueError):
        parse_path_spec(c, "mz0=2,mz1=0")  # unknown outcome
    with pytest.raises(ValueError):
        parse_path_spec(c, "nope=1,mz0=0,mz1=0")  # unknown gate


def _circuit_and_state(tmp_path, name, c, rng):
    circuit = tmp_path / f"{name}.json"
    circuit.write_text(json.dumps(circuit_to_json(c)))
    rho = random_density(c.principal_spec, rng)
    state = tmp_path / f"{name}_state.json"
    state.write_text(json.dumps({"matrix": matrix_to_json(rho.matrix)}))
    return str(circuit), str(state), rho


def test_simulate_circuit_rows_equal_simulate_path(tmp_path, capsys):
    rng = np.random.default_rng(91)
    cases = [(name, make()) for name, make in sorted(DEMOS.items())]
    cases += [(f"random{s}", random_circuit(np.random.default_rng(s))) for s in range(10)]
    for name, c in cases:
        circuit, state, rho = _circuit_and_state(tmp_path, name, c, rng)
        code, out, _ = run_cli(capsys, ["simulate", "--circuit", circuit, "--input", state])
        assert code == 0
        rows = json.loads(out)
        paths = enumerate_paths(c)
        assert len(rows) == len(paths)
        for row, p in zip(rows, paths):
            prob, sigma = simulate_path(c, p, rho)
            reduced = partial_trace_matrix(sigma, c.space, c.output_principal)
            assert row == {
                "path": dict(p),
                "probability": prob,
                "output_trace": float(sigma.trace().real),
                "principal_output": matrix_to_json(reduced),
            }


def test_simulate_circuit_shares_prefixes(tmp_path, capsys, monkeypatch):
    """One walk serves every path: one gate application per non-root prefix."""
    calls = []
    kernel = circuits.apply_local
    monkeypatch.setattr(circuits, "apply_local", lambda *a: calls.append(1) or kernel(*a))
    rng = np.random.default_rng(92)
    for name, c in [("teleportation", teleportation()), ("random18", random_circuit(np.random.default_rng(18)))]:
        circuit, state, _ = _circuit_and_state(tmp_path, name, c, rng)
        calls.clear()
        code, _, _ = run_cli(capsys, ["simulate", "--circuit", circuit, "--input", state])
        assert code == 0
        assert len(calls) == sum(1 for _ in _walk(c)) - 1


@pytest.mark.parametrize("root", [[[1, 0]], {"a": 1}])
def test_tree_root_that_is_not_a_string_is_exit_1(demo_files, tmp_path, capsys, root):
    tree = tmp_path / "tree.json"
    assert main(["tree", "--circuit", demo_files["coin"], "-o", str(tree)]) == 0
    doc = json.loads(tree.read_text())
    doc["root"] = root
    tree.write_text(json.dumps(doc))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    capsys.readouterr()
    for argv in (
        ["validate", str(tree)],
        ["simulate", "--tree", str(tree), "--input", str(state)],
        ["tree", "--tree", str(tree)],
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_tree_with_shared_node_ids_is_exit_1(tmp_path, capsys):
    """Node i's two outcomes both name node i+1: expanding the shared ids
    would build 2^16 branches from 17 ids."""
    import time

    from meastree.linalg import measure_z
    from meastree.serialize import measurement_to_json

    z = measurement_to_json(measure_z())
    nodes = {f"n{i}": {"measurement": z, "children": {"0": f"n{i + 1}", "1": f"n{i + 1}"}} for i in range(16)}
    nodes["n16"] = {"measurement": None, "children": {}}
    tree = tmp_path / "shared.json"
    tree.write_text(json.dumps({"root": "n0", "nodes": nodes}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    for argv in (
        ["validate", str(tree)],
        ["simulate", "--tree", str(tree), "--input", str(state)],
        ["tree", "--tree", str(tree)],
    ):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err == "error: tree: node 'n16' reached twice\n"


def test_negative_probe_count_is_exit_1(demo_files, tmp_path, capsys):
    identity, x = tmp_path / "i.json", tmp_path / "x.json"
    identity.write_text(json.dumps(matrix_to_json(np.eye(2))))
    x.write_text(json.dumps(matrix_to_json(np.array([[0, 1], [1, 0]]))))
    tele = demo_files["teleportation"]
    for argv in (
        ["check-independence", "--circuit", tele, "--probes", "-3", "--seed", "0"],
        ["check-unitary", "--circuit", tele, "--operator", str(identity), "--probes", "-3", "--seed", "0"],
        ["check-unitary", "--circuit", tele, "--operator", str(x), "--probes", "-3", "--seed", "0"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "probe" in err


def test_matrix_lines_print_no_sign_of_rounding_noise():
    m = np.array([[0.5 + 1e-20j, -1e-20 - 1e-20j], [1e-20 - 1e-20j, 0.5 - 1e-20j]])
    assert _matrix_lines(m) == _matrix_lines(np.diag([0.5, 0.5]).astype(complex))
    assert "-0." not in "\n".join(_matrix_lines(m))


def _deep_inputs(tmp_path, depth):
    """A chain circuit of ``depth`` gates, each on its own dim-1 ancilla wire
    and sourced from the gate before it; a chain tree of ``depth``
    single-outcome identity nodes; and a JSON array nested ``depth`` deep."""
    from meastree.circuits import Circuit, selected_gate, unitary_gate
    from meastree.linalg import HilbertSpec, Measurement
    from meastree.serialize import measurement_to_json

    one = Measurement.of({"u": np.eye(1)})
    gates = [unitary_gate("g0", ("a0",), np.eye(1))]
    for i in range(1, depth):
        gates.append(selected_gate(f"g{i}", (f"a{i}",), [f"g{i - 1}"], [one], [({f"g{i - 1}": "u"}, 0)]))
    space = HilbertSpec.of([("p", 2)] + [(f"a{i}", 1) for i in range(depth)])
    circuit = tmp_path / "chain.json"
    circuit.write_text(json.dumps(circuit_to_json(Circuit.build(space, ["p"], gates))))
    eye = measurement_to_json(Measurement.of({"u": np.eye(2)}))
    nodes = {f"n{i}": {"measurement": eye, "children": {"u": f"n{i + 1}"}} for i in range(depth)}
    nodes[f"n{depth}"] = {"measurement": None, "children": {}}
    tree = tmp_path / "chain_tree.json"
    tree.write_text(json.dumps({"root": "n0", "nodes": nodes}))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * depth + "]" * depth)
    return str(circuit), str(tree), str(nested)


def test_inputs_deeper_than_the_recursion_limit(tmp_path, capsys):
    import sys

    from meastree.serialize import tree_from_json

    depth = sys.getrecursionlimit() + 100
    circuit, tree, nested = _deep_inputs(tmp_path, depth)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    simulate = ["simulate", "--tree", tree, "--input", str(state)]
    for argv in (["validate", circuit], ["validate", tree], simulate):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
    assert json.loads(out)[0]["probability"] == pytest.approx(1.0)

    code, out, _ = run_cli(capsys, ["tree", "--tree", tree])
    assert code == 0
    again = tmp_path / "again.json"
    again.write_text(out)
    assert run_cli(capsys, ["tree", "--tree", str(again)]) == (0, out, "")
    assert tree_from_json(json.loads(out)).branches() == [("u",) * depth]

    for argv in (["validate", nested], ["paths", "--circuit", nested], ["tree", "--tree", nested]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_check_unitary_accepts_an_operator_of_large_scale(demo_files, tmp_path, capsys, scale):
    op = tmp_path / "big.json"
    op.write_text(json.dumps(matrix_to_json(scale * np.eye(2))))
    argv = ["check-unitary", "--circuit", demo_files["teleportation"], "--operator", str(op), "--seed", "0"]
    with np.errstate(over="ignore"):  # the operator's Frobenius norm may overflow to inf
        code, out, err = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unitary"
    assert doc["t_scale"] == pytest.approx(1 / scale, rel=1e-9)
    assert "Traceback" not in err


def test_check_unitary_rejects_a_wrong_operator_at_any_scale(demo_files, tmp_path, capsys):
    theta = 0.3
    rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    docs = []
    for scale in (1.0, 1e100, 1e160):
        op = tmp_path / "rotation.json"
        op.write_text(json.dumps(matrix_to_json(scale * rotation)))
        argv = ["check-unitary", "--circuit", demo_files["teleportation"], "--operator", str(op), "--seed", "0"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 3
        docs.append(json.loads(out))
    assert all(doc["verdict"] == "inconclusive" and doc["t_scale"] is None for doc in docs)
    assert docs[0]["detail"].endswith("does not factor through the supplied operator")
    assert docs[1]["detail"] == docs[0]["detail"] == docs[2]["detail"]
