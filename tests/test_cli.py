import json

import numpy as np
import pytest

from meastree import linalg
from meastree.circuits import enumerate_paths
from meastree.cli import main, parse_path_spec
from meastree.demos import teleportation
from meastree.linalg import configure_tolerances
from meastree.serialize import circuit_from_json, matrix_to_json, vector_to_json


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
