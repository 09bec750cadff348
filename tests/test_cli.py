import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meastree import linalg
from meastree.circuits import enumerate_paths, simulate_path
from meastree.cli import _matrix_lines, main
from meastree.demos import DEMOS, teleportation
from meastree.linalg import HilbertSpec, Measurement, _walk, configure_tolerances, measure_z, partial_trace_matrix
from meastree.rand import random_circuit, random_density
from meastree.serialize import circuit_from_json, circuit_to_json, matrix_to_json, tree_to_json, vector_to_json
from meastree.trees import build_tree


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


def test_paths_table_format_emits_reusable_path_specs(demo_files, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["paths", "--circuit", demo_files["teleportation"], "--format", "table"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("mz0=" in line and "mz1=" in line for line in lines)
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    # each line round-trips through --path: simulate and factor name the path it spells
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    tele, simulated, factored = demo_files["teleportation"], [], []
    for line in lines:
        code, out, _ = run_cli(capsys, ["simulate", "--circuit", tele, "--input", str(state), "--path", line])
        assert code == 0
        (row,) = json.loads(out)
        simulated.append(row["path"])
        code, out, _ = run_cli(capsys, ["factor", "--circuit", tele, "--path", line])
        assert code == 0
        factored.append(json.loads(out)["path"])
    assert [",".join(f"{g}={o}" for g, o in p.items()) for p in simulated] == lines
    assert factored == simulated
    assert simulated == [dict(p) for p in enumerate_paths(teleportation())]


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


def test_tolerance_env_var_out_of_range_is_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("MEASTREE_TOL", "2")
    code, out, err = run_cli(capsys, ["demo"])
    assert (code, out) == (1, "")
    assert "tolerance must be in (0, 1)" in err


def test_validate_a_measurement_file(tmp_path, capsys):
    from meastree.serialize import measurement_to_json

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(measurement_to_json(measure_z())))
    bad.write_text(json.dumps(measurement_to_json(Measurement({"0": np.diag([1, 0]), "1": np.diag([0, 0.5])}))))
    code, out, _ = run_cli(capsys, ["validate", str(good)])
    assert code == 0 and json.loads(out) == {"kind": "measurement", "valid": True, "problems": []}
    code, out, _ = run_cli(capsys, ["validate", str(good), "--format", "table"])
    assert (code, out) == (0, "measurement: OK\n")
    code, out, _ = run_cli(capsys, ["validate", str(bad)])
    assert code == 2 and "completeness defect" in out


def test_tree_verb_on_a_tree_with_an_incomplete_node_is_exit_2(tmp_path, capsys):
    space = HilbertSpec.of([("q", 2)])
    half = Measurement({"0": np.diag([1, 0]), "1": np.diag([0, 0.5])})
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(tree_to_json(build_tree(space, (half, {"0": None, "1": None})))))
    code, out, err = run_cli(capsys, ["tree", "--tree", str(tree)])
    assert (code, out) == (2, "")
    assert "completeness defect" in err


def test_demo_table_lists_the_five_demos_and_an_unknown_demo_is_exit_1(capsys):
    code, out, _ = run_cli(capsys, ["demo", "--format", "table"])
    assert code == 0
    assert out.split() == ["code_embedding", "coin", "feedforward_x", "measure_discard", "teleportation"]
    code, out, err = run_cli(capsys, ["demo", "nope"])
    assert (code, out) == (1, "")
    assert "unknown demo" in err


def test_a_tree_input_of_neither_size_is_exit_1(tmp_path, capsys):
    tree, state = tmp_path / "tree.json", tmp_path / "state.json"
    tree.write_text(json.dumps(tree_to_json(build_tree(HilbertSpec.of([("q", 2)]), (measure_z(), {"0": None, "1": None})))))
    state.write_text(json.dumps({"vector": vector_to_json(np.ones(3) / np.sqrt(3))}))
    code, out, err = run_cli(capsys, ["simulate", "--tree", str(tree), "--input", str(state)])
    assert (code, out) == (1, "")
    assert "matches neither the principal nor the full space" in err


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


def test_path_option_autofills_single_outcome_gates(demo_files, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    tele = demo_files["teleportation"]
    code, out, _ = run_cli(capsys, ["simulate", "--circuit", tele, "--input", str(state), "--path", "mz0=1,mz1=0"])
    assert code == 0
    (row,) = json.loads(out)
    code, out, _ = run_cli(capsys, ["factor", "--circuit", tele, "--path", "mz0=1,mz1=0"])
    assert code == 0
    for p in (row["path"], json.loads(out)["path"]):
        assert p["mz0"] == "1" and p["mz1"] == "0"
        # single-outcome gates and forced selections are filled in
        assert p["bell_h"] == "u"
        assert p["corr_x"] == "i"  # mz1=0 selects the identity correction
        assert p["corr_z"] == "z"  # mz0=1 selects the Z correction


@pytest.mark.parametrize(
    "spec, message",
    [
        ("mz0=1", "gate 'mz1' is ambiguous; pin one of: 0, 1"),  # mz1 has two outcomes, so it is required
        ("mz0=1,mz0=0,mz1=1", "gate 'mz0' pinned twice"),
        ("mz0=2,mz1=0", "gate 'mz0' has no outcome '2' here (options: 0, 1)"),
        ("nope=1,mz0=0,mz1=0", "unknown gate 'nope'"),
        ("mz0", "expected gate=outcome, got 'mz0'"),
    ],
    ids=["ambiguous", "pinned-twice", "unknown-outcome", "unknown-gate", "no-equals-sign"],
)
def test_path_option_errors_are_exit_1(demo_files, tmp_path, capsys, spec, message):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    tele = demo_files["teleportation"]
    for argv in (
        ["simulate", "--circuit", tele, "--input", str(state), "--path", spec],
        ["factor", "--circuit", tele, "--path", spec],
    ):
        assert run_cli(capsys, argv) == (1, "", f"error: path: {message}\n")


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


def test_simulate_prints_the_same_bytes_at_every_chunk_bound(tmp_path, capsys, monkeypatch):
    """``simulate`` on a circuit and on its tree prints the same stdout, in json and table
    format, whether leaves are taken one by one (bound 0), in runs of a few (4 KiB), at the
    default bound or all at once: on the five demos and on random draws, and on the
    circuit of a draw of 324 paths."""
    rng = np.random.default_rng(17)
    cases = [(name, make()) for name, make in sorted(DEMOS.items())]
    cases += [(f"random{s}", random_circuit(np.random.default_rng(s))) for s in range(3)]
    many = random_circuit(np.random.default_rng(9), n_wires=3, max_paths=216)
    bounds = (0, 4096, linalg._STACK_BYTES, math.inf)
    for name, c in cases + [("many", many)]:
        circuit, state, _ = _circuit_and_state(tmp_path, name, c, rng)
        sources = [["--circuit", circuit]]
        if c is not many:
            sources.append(["--tree", tree := str(tmp_path / f"{name}_tree.json")])
            assert run_cli(capsys, ["tree", "--circuit", circuit, "-o", tree])[0] == 0
        for fmt, source in itertools.product(("json", "table"), sources):
            outs = []
            for bound in bounds:
                monkeypatch.setattr(linalg, "_STACK_BYTES", bound)
                outs.append(run_cli(capsys, ["simulate", *source, "--input", state, "--format", fmt]))
            assert outs[0][0] == 0 and all(out == outs[0] for out in outs)
    assert len(enumerate_paths(many)) == 324  # two chunks at the default bound


def test_simulate_tree_gives_colliding_routes_distinct_labels(tmp_path, capsys):
    """Routes whose labels join to the same text get the suffixes of the tree JSON's node ids."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    inner = Measurement.of({"b": p0, "b#2": p1})
    root = Measurement.of({"a/b": p0, "a": p1})
    t = build_tree(HilbertSpec.of([("q", 2)]), (root, {"a/b": None, "a": (inner, {"b": None, "b#2": None})}))
    tree, state = tmp_path / "tree.json", tmp_path / "state.json"
    tree.write_text(json.dumps(tree_to_json(t)))
    state.write_text(json.dumps({"matrix": matrix_to_json(np.eye(2) / 2)}))
    code, out, _ = run_cli(capsys, ["simulate", "--tree", str(tree), "--input", str(state)])
    assert code == 0
    assert [(r["branch"], r["probability"]) for r in json.loads(out)] == [("a/b", 0.5), ("a/b#2", 0.0), ("a/b#2#2", 0.5)]
    code, out, _ = run_cli(capsys, ["simulate", "--tree", str(tree), "--input", str(state), "--format", "table"])
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["a/b", "a/b#2", "a/b#2#2"]


def test_analysis_verbs_label_colliding_branches_as_simulate_tree_does(tmp_path, capsys):
    """Outcome labels "a/b", "a" and then "b", "b/b" join two branches into the text "a/b/b".
    check-independence, factor and check-unitary label each path's branch as simulate --tree
    labels the tree that tree --circuit writes, whether the path is pinned or listed with all."""
    from meastree.circuits import Circuit, measurement_gate

    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    g1 = measurement_gate("g1", ("q",), Measurement.of({"a/b": p0, "a": p1}))
    g2 = measurement_gate("g2", ("q",), Measurement.of({"b": p0, "b/b": p1}))
    circuit, tree, state, op = (str(tmp_path / name) for name in ("c.json", "t.json", "state.json", "op.json"))
    Path(circuit).write_text(json.dumps(circuit_to_json(Circuit.build(HilbertSpec.of([("p", 2), ("q", 2)]), ["p"], [g1, g2]))))
    Path(state).write_text(json.dumps({"matrix": matrix_to_json(np.eye(2) / 2)}))
    Path(op).write_text(json.dumps(matrix_to_json(np.eye(2))))
    assert run_cli(capsys, ["tree", "--circuit", circuit, "-o", tree])[0] == 0
    code, out, _ = run_cli(capsys, ["simulate", "--tree", tree, "--input", state])
    want = ["a/b/b", "a/b/b/b", "a/b", "a/b/b#2"]
    assert code == 0 and [row["branch"] for row in json.loads(out)] == want
    specs = ["g1=a/b,g2=b", "g1=a/b,g2=b/b", "g1=a,g2=b", "g1=a,g2=b/b"]

    def run(*argv):
        """Exit code, JSON document and table lines of one verb."""
        base = [*argv, "--circuit", circuit, "--seed", "0"]
        code, out, _ = run_cli(capsys, base)
        _, table, _ = run_cli(capsys, [*base, "--format", "table"])
        return code, json.loads(out), table.splitlines()

    def first_column(lines, n):
        return [line.split()[0] for line in lines[1 : 1 + n]]

    code, rows, lines = run("check-independence", "--all-paths")
    assert code == 0 and [row["branch"] for row in rows] == first_column(lines, 4) == want
    code, doc, lines = run("check-unitary", "--operator", op)
    assert code == 3 and [row["branch"] for row in doc["branches"]] == first_column(lines, 4) == want
    for spec, label in zip(specs, want):
        code, rows, lines = run("check-independence", "--path", spec)
        assert code == 0 and [row["branch"] for row in rows] == first_column(lines, 1) == [label]
        code, doc, lines = run("factor", "--path", spec)
        assert doc["branch"] == label
        assert (code, lines[0]) == ((0, f"branch:      {label}") if spec == specs[0] else (3, f"{label}: does not factor"))


def test_simulate_circuit_shares_prefixes(tmp_path, capsys, kernel_calls):
    """One walk serves every path: one kernel call per inner prefix, which applies
    every outcome of the gate fired there, so one operator per non-root prefix."""
    calls = kernel_calls
    rng = np.random.default_rng(92)
    for name, c in [("teleportation", teleportation()), ("random18", random_circuit(np.random.default_rng(18)))]:
        circuit, state, _ = _circuit_and_state(tmp_path, name, c, rng)
        calls.clear()
        code, _, _ = run_cli(capsys, ["simulate", "--circuit", circuit, "--input", state])
        assert code == 0
        fired = [m for _, _, m, _ in _walk(c) if m is not None]
        assert calls.rows() == sum(1 for _ in _walk(c)) - 1
        assert sorted(len(ops) for ops, _ in calls) == sorted(len(m.outcomes) for m in fired)


def test_json_output_is_the_stdlib_indented_layout(tmp_path, capsys):
    """Each verb that emits JSON prints ``json.dumps(value, indent=2)`` of its value."""
    rng = np.random.default_rng(93)
    runs = [["demo"]]
    for name, make in sorted(DEMOS.items()):
        c = make()
        circuit, state, _ = _circuit_and_state(tmp_path, name, c, rng)
        spec = ",".join(f"{g}={o}" for g, o in enumerate_paths(c)[0].items())
        operator = tmp_path / f"{name}_operator.json"
        operator.write_text(json.dumps(matrix_to_json(np.eye(c.space.restrict(c.output_principal).dim, c.principal_spec.dim))))
        tree = tmp_path / f"{name}_tree.json"
        assert main(["tree", "--circuit", circuit, "-o", str(tree)]) == 0
        runs += [
            ["demo", name],
            ["validate", circuit],
            ["validate", str(tree)],
            ["paths", "--circuit", circuit],
            ["simulate", "--circuit", circuit, "--input", state],
            ["simulate", "--circuit", circuit, "--input", state, "--path", spec],
            ["simulate", "--tree", str(tree), "--input", state],
            ["check-independence", "--circuit", circuit, "--seed", "0"],
            ["factor", "--circuit", circuit, "--path", spec],
            ["check-unitary", "--circuit", circuit, "--operator", str(operator), "--seed", "0"],
            ["reduce", "--circuit", circuit],
            ["tree", "--circuit", circuit],
        ]
    for s in range(10):
        circuit, state, _ = _circuit_and_state(tmp_path, f"random{s}", random_circuit(np.random.default_rng(s)), rng)
        runs.append(["simulate", "--circuit", circuit, "--input", state])
    for argv in runs:
        code, out, _ = run_cli(capsys, argv)
        assert code in (0, 3), argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_simulate_rejects_a_path_in_tree_mode(demo_files, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    assert main(["tree", "--circuit", demo_files["teleportation"], "-o", str(tree)]) == 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"vector": vector_to_json(np.array([1.0, 0.0]))}))
    capsys.readouterr()
    argv = ["simulate", "--tree", str(tree), "--input", str(state), "--path", "mz0=0,mz1=1"]
    assert run_cli(capsys, argv) == (1, "", "error: --path applies only with --circuit\n")


@pytest.mark.parametrize("text", [b"", b"{not json", b"\xff\xfe"], ids=["empty", "syntax", "not-utf-8"])
def test_a_json_file_that_does_not_parse_is_named(demo_files, tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    code, out, err = run_cli(capsys, ["simulate", "--circuit", demo_files["teleportation"], "--input", str(bad)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ")


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


def test_an_empty_path_pins_nothing(demo_files, capsys):
    tele = demo_files["teleportation"]
    code, out, err = run_cli(capsys, ["factor", "--circuit", tele, "--path", ""])
    assert (code, out, err) == (1, "", "error: path: gate 'mz0' is ambiguous; pin one of: 0, 1\n")
    # check-independence reads an empty --path as every path
    argv = ["check-independence", "--circuit", tele, "--probes", "2", "--seed", "0"]
    assert run_cli(capsys, [*argv, "--path", ""]) == run_cli(capsys, argv)


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


NOT_PSD = np.diag([0.9, -0.3])
NOT_HERMITIAN = np.array([[0.6, 0.2 + 0.3j], [0.2, 0.4]])
VALID = np.array([[0.6, 0.2], [0.2, 0.4]])


@pytest.mark.parametrize("verb", ["--circuit", "--tree"])
@pytest.mark.parametrize("scale", [1.0, 3e-12, 1.5e-12])
def test_state_checks_are_relative_to_the_state_scale(demo_files, tmp_path, capsys, verb, scale):
    if verb == "--circuit":
        source = demo_files["measure_discard"]
    else:
        source = str(tmp_path / "tree.json")
        assert main(["tree", "--circuit", demo_files["teleportation"], "-o", source]) == 0
        capsys.readouterr()
    state = tmp_path / "state.json"
    for matrix, expected in ((NOT_PSD, 1), (NOT_HERMITIAN, 1), (VALID, 0)):
        state.write_text(json.dumps({"matrix": matrix_to_json(scale * matrix)}))
        code, out, err = run_cli(capsys, ["simulate", verb, source, "--input", str(state), "--format", "table"])
        assert (code, bool(out), bool(err)) == (expected, expected == 0, expected == 1)


@pytest.mark.parametrize(
    "state",
    [
        '{"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        '{"vector": [[Infinity, 0], [0, 0]]}',
        json.dumps({"matrix": matrix_to_json(NOT_HERMITIAN)}),
        json.dumps({"matrix": matrix_to_json(NOT_PSD)}),
        json.dumps({"matrix": matrix_to_json(np.zeros((2, 2)))}),
        json.dumps({"vector": vector_to_json(np.zeros(2))}),
    ],
    ids=["nan", "infinite-ket", "not-hermitian", "not-psd", "zero-trace", "zero-ket"],
)
def test_a_malformed_principal_tree_input_is_exit_1(demo_files, tmp_path, capsys, monkeypatch, state):
    tree = tmp_path / "tree.json"
    assert main(["tree", "--circuit", demo_files["teleportation"], "-o", str(tree)]) == 0
    capsys.readouterr()
    path = tmp_path / "state.json"
    path.write_text(state)
    sizes = []

    def eigvalsh(m, *args, **kw):
        sizes.append(m.shape[0])
        return numpy_eigvalsh(m, *args, **kw)

    numpy_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    code, out, err = run_cli(capsys, ["simulate", "--tree", str(tree), "--input", str(path)])
    assert code == 1 and out == "" and err.startswith("error: ")
    assert set(sizes) <= {2}  # checked at d_P = 2, not at D = 8


def _count_eigvalsh(monkeypatch) -> list[int]:
    """The size of each matrix passed to ``np.linalg.eigvalsh`` from now on."""
    sizes = []
    numpy_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(m, *args, **kw):
        sizes.append(m.shape[0])
        return numpy_eigvalsh(m, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return sizes


def test_a_full_size_principal_input_is_validated_at_d_p(monkeypatch):
    from meastree.cli import _tree_input
    from meastree.linalg import embed_principal
    from meastree.reduction import reduce_circuit

    c = random_circuit(np.random.default_rng(23), n_wires=8, max_paths=6)
    t, _ = reduce_circuit(c)
    assert (t.space.dim, t._isometry.shape[1]) == (256, 2)
    rng = np.random.default_rng(4)
    rho = random_density(c.principal_spec, rng).matrix
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    sizes = _count_eigvalsh(monkeypatch)
    for kind, arr, want in (
        ("density", embed_principal(t, rho), [2]),
        ("ket", embed_principal(t, psi), [2]),
        ("density", random_density(t.space, rng).matrix, [256]),  # full rank, outside the range of E
        ("ket", rng.normal(size=256) + 0j, [256]),  # entangled with the ancilla
    ):
        sizes.clear()
        sigma = _tree_input(t, kind, arr)
        assert sizes == want
        assert np.array_equal(sigma.matrix, arr if kind == "density" else np.outer(arr, arr.conj()))
    nan, inf = embed_principal(t, rho), embed_principal(t, rho)
    nan[0, 0], inf[3, 0] = np.nan, np.inf
    for arr, message, want in (
        (nan, "non-finite", []),
        (inf, "non-finite", []),
        (embed_principal(t, NOT_HERMITIAN), "not Hermitian", []),
        (embed_principal(t, NOT_PSD), "not positive semidefinite", [2]),
        (np.zeros((256, 256)), "trace must be strictly positive", [2]),
    ):
        sizes.clear()
        with pytest.raises(ValueError, match=message):
            _tree_input(t, "density", arr)
        assert sizes == want


@pytest.mark.parametrize("matrix, expected", [(VALID, 0), (NOT_PSD, 1), (NOT_HERMITIAN, 1), (np.zeros((2, 2)), 1)])
def test_a_full_size_principal_tree_input_keeps_its_exit_code(tmp_path, capsys, matrix, expected):
    from meastree.linalg import embed_principal
    from meastree.reduction import reduce_circuit

    c = random_circuit(np.random.default_rng(34), n_wires=4, max_paths=4)
    t, _ = reduce_circuit(c)
    assert (t.space.dim, t._isometry.shape[1]) == (16, 2)  # 8 d_P <= D: run_tree carries V = C E
    circuit, tree, state = tmp_path / "c.json", tmp_path / "tree.json", tmp_path / "state.json"
    circuit.write_text(json.dumps(circuit_to_json(c)))
    assert main(["tree", "--circuit", str(circuit), "-o", str(tree)]) == 0
    capsys.readouterr()
    outputs = []
    for arr in (matrix, embed_principal(t, matrix)):
        state.write_text(json.dumps({"matrix": matrix_to_json(arr)}))
        code, out, err = run_cli(capsys, ["simulate", "--tree", str(tree), "--input", str(state)])
        assert (code, bool(out), err.startswith("error: ")) == (expected, expected == 0, expected == 1)
        outputs.append([row["probability"] for row in json.loads(out)] if out else [])
    assert outputs[1] == pytest.approx(outputs[0], abs=1e-12)


def _closed_stdout_run(argv, read_first_line):
    """Run ``python -m meastree`` from this checkout with a reader that
    closes stdout before it starts, or after one line."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cmd = [sys.executable, "-m", "meastree", *argv]
    if not read_first_line:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        return proc.returncode, proc.stderr
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    return proc.returncode, err


@pytest.mark.parametrize("read_first_line", [False, True], ids=["closed-before-start", "closed-after-one-line"])
def test_a_closed_stdout_stops_quietly(tmp_path, read_first_line):
    # the tree of this 4-wire circuit is about 1 MB of JSON, far more than a pipe buffers
    circuit = tmp_path / "c4.json"
    circuit.write_text(json.dumps(circuit_to_json(random_circuit(np.random.default_rng(1), n_wires=4, max_paths=12))))
    code, err = _closed_stdout_run(["tree", "--circuit", str(circuit)], read_first_line)
    assert (code, err) == (141, b"")


@pytest.mark.parametrize(
    "name, operator, expected",
    [("code_embedding", np.eye(2), (4, 2)), ("teleportation", np.eye(3, 2), (2, 2))],
    ids=["code_embedding", "teleportation"],
)
def test_a_wrong_operator_shape_is_named_with_the_shape_expected(tmp_path, capsys, name, operator, expected):
    from meastree.independence import check_computes, check_isometry_scaling
    from meastree.reduction import reduce_circuit

    circuit, op = tmp_path / "circuit.json", tmp_path / "operator.json"
    circuit.write_text(json.dumps(circuit_to_json(DEMOS[name]())))
    op.write_text(json.dumps(matrix_to_json(operator)))
    message = f"shape mismatch: operator of shape {operator.shape}, expected {expected}"
    argv = ["check-unitary", "--circuit", str(circuit), "--operator", str(op), "--seed", "0"]
    assert run_cli(capsys, argv) == (1, "", f"error: {message}\n")
    c = DEMOS[name]()
    t, _ = reduce_circuit(c)
    for call in (
        lambda: check_computes(t, t.branches()[0], operator),
        lambda: check_computes(c, enumerate_paths(c)[0], operator),
        lambda: check_isometry_scaling(t, operator),
        lambda: check_isometry_scaling(c, operator),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 2.91 TiB for an array with shape (100000000000, 2, 2)"),
         "error: Unable to allocate 2.91 TiB for an array with shape (100000000000, 2, 2)\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_running_out_of_memory_is_one_error_line(demo_files, capsys, monkeypatch, exc, line):
    from meastree import independence

    def allocate(*args):  # stands in for the probe draw, which would really allocate 2.91 TiB
        raise exc

    monkeypatch.setattr(independence, "_seeded_probes", allocate)
    argv = ["check-independence", "--circuit", demo_files["teleportation"], "--path", "mz0=1,mz1=0",
            "--probes", "100000000000", "--seed", "0"]
    assert run_cli(capsys, argv) == (1, "", line)


def test_the_parser_is_built_once_and_keeps_no_state(demo_files, tmp_path, capsys):
    from meastree import cli

    tele = demo_files["teleportation"]
    state = tmp_path / "ket.json"
    state.write_text(json.dumps(vector_to_json(np.array([0.6, 0.8j]))))
    sequence = [
        ["check-independence", "--circuit", tele, "--path", "mz0=1,mz1=0", "--probes", "3", "--seed", "0"],
        ["check-independence", "--circuit", tele, "--all-paths", "--seed", "1"],
        ["simulate", "--circuit", tele, "--input", str(state), "--path", "mz0=0,mz1=1"],
        ["check-independence", "--circuit", tele, "--seed"],  # an argparse error
        ["simulate", "--circuit", tele, "--input", str(state)],
        ["factor", "--circuit", tele, "--path", "mz0=1,mz1=1", "--format", "table"],
        ["factor", "--circuit", tele, "--path", "mz0=1,mz1=1"],
        ["paths", "--circuit", tele, "--format", "table"],
        ["paths", "--circuit", tele],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in sequence:
        cli._build_parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(call(argv))
    cli._build_parser.cache_clear()
    assert [call(argv) for argv in sequence] == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_tree_reduce_and_demo_print_the_public_json_values(tmp_path, capsys):
    from meastree.reduction import linearize, reduce_circuit
    from meastree.serialize import tree_to_json

    # 8 wires, D = 256: the tree holds one lifted 256 x 256 operator
    c = random_circuit(np.random.default_rng(1), n_wires=8, max_layers=1, max_paths=1, max_outcomes=1)
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(circuit_to_json(c)))
    runs = [
        (["tree", "--circuit", str(circuit)], tree_to_json(reduce_circuit(c)[0])),
        (["reduce", "--circuit", str(circuit)], circuit_to_json(linearize(c)[0])),
    ]
    runs += [(["demo", name], circuit_to_json(make())) for name, make in sorted(DEMOS.items())]
    for argv, value in runs:
        assert run_cli(capsys, argv) == (0, json.dumps(value, indent=2) + "\n", ""), argv


def _state_file(tmp_path, doc) -> str:
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    return str(state)


def _diag(*entries) -> dict:
    return {"matrix": matrix_to_json(np.diag(entries))}


@pytest.mark.parametrize(
    "demo, verb, state, message",
    [
        ("measure_discard", "--circuit", _diag(1e160, -5e159), "its norm overflows"),
        ("teleportation", "--circuit", _diag(1e308, 1e308), "its norm overflows"),
        ("teleportation", "--tree", _diag(1e308, 1e308), "its norm overflows"),
        ("teleportation", "--circuit", {"vector": vector_to_json(np.array([1e160, 1e160]))}, "non-finite entries"),
        ("teleportation", "--tree", {"vector": vector_to_json(np.array([1e160, 1e160]))}, "non-finite entries"),
        ("measure_discard", "--circuit", _diag(1e150, -5e149), "not positive semidefinite"),
    ],
    ids=["not-psd", "overflowing-trace", "overflowing-trace-tree", "huge-ket", "huge-ket-tree", "not-psd-at-1e150"],
)
def test_a_huge_state_is_one_error_line(demo_files, tmp_path, capsys, demo, verb, state, message):
    source = demo_files[demo]
    if verb == "--tree":
        source = str(tmp_path / "tree.json")
        assert main(["tree", "--circuit", demo_files[demo], "-o", source]) == 0
        capsys.readouterr()
    code, out, err = run_cli(capsys, ["simulate", verb, source, "--input", _state_file(tmp_path, state)])
    assert (code, out) == (1, "")
    (line,) = err.splitlines()  # RuntimeWarnings are errors under pytest: none is raised either
    assert line.startswith("error: ") and message in line


def _one_gate_circuit(tmp_path, labels) -> str:
    from meastree.circuits import Circuit, measurement_gate
    from meastree.linalg import HilbertSpec, basis_ket, projector

    q = HilbertSpec.of([("q", 2)])
    outcomes = {label: projector(basis_ket(2, i)) for i, label in enumerate(labels)}
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(circuit_to_json(Circuit.build(q, ["q"], [measurement_gate("g", ["q"], outcomes)]))))
    return str(circuit)


@pytest.mark.parametrize(
    "labels, unwritable", [(("0", "0 "), "'0 '"), (("a,b", "c"), "'a,b'"), (("x=y", " z"), "' z'")]
)
def test_paths_table_refuses_a_label_that_path_reads_differently(tmp_path, capsys, labels, unwritable):
    circuit = _one_gate_circuit(tmp_path, labels)
    code, out, err = run_cli(capsys, ["paths", "--circuit", circuit, "--format", "table"])
    assert (code, out) == (1, "")
    assert err == f"error: paths: gate 'g' outcome {unwritable} cannot be written as a --path spec\n"
    code, out, _ = run_cli(capsys, ["paths", "--circuit", circuit])
    assert (code, json.loads(out)) == (0, [{"g": label} for label in labels])


def test_paths_table_lines_select_their_own_paths(tmp_path, capsys):
    # "=" after the first one belongs to the label, so this label can be written
    circuit = _one_gate_circuit(tmp_path, ("x=y", "z"))
    code, out, _ = run_cli(capsys, ["paths", "--circuit", circuit, "--format", "table"])
    assert (code, out) == (0, "g=x=y\ng=z\n")
    state = _state_file(tmp_path, {"vector": vector_to_json(np.array([0.0, 1.0]))})
    for line, probability in zip(out.splitlines(), (0.0, 1.0)):
        code, out, _ = run_cli(capsys, ["simulate", "--circuit", circuit, "--input", state, "--path", line])
        assert code == 0
        (row,) = json.loads(out)
        assert (line, row["probability"]) == (f"g={row['path']['g']}", probability)


def test_simulate_table_refuses_two_paths_it_would_print_as_one_route(tmp_path, capsys):
    """Labels "0" and "0 " print as the same route "g=0"; the JSON output keeps both paths."""
    circuit = _one_gate_circuit(tmp_path, ("0", "0 "))
    state = _state_file(tmp_path, {"vector": vector_to_json(np.array([0.6, 0.8]))})
    argv = ["simulate", "--circuit", circuit, "--input", state]
    code, out, err = run_cli(capsys, argv + ["--format", "table"])
    assert (code, out) == (1, "")
    assert err == "error: simulate: gate 'g' outcome '0 ' cannot be written as a --path spec\n"
    code, out, _ = run_cli(capsys, argv)
    rows = json.loads(out)
    assert code == 0 and [r["path"] for r in rows] == [{"g": "0"}, {"g": "0 "}]
    assert [r["probability"] for r in rows] == pytest.approx([0.36, 0.64], abs=1e-12)
