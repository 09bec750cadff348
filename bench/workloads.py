"""The benchmark's three workloads: inputs, one pass of operations, checks.

Each workload builds its inputs from the seed in ``setup`` and then
hands out one pass of operations. An operation is a timed call into
meastree (one circuit's API pipeline, or one in-process CLI call)
together with the check of its output, which runs outside the timed
region.

* ``paths``: 3-wire circuits (D=8) with up to a few hundred paths each.
  Per-path Python walking dominates; the dense kernel does little.
* ``wide``: 8-wire circuits (D=256) with at most 12 paths. Lifted
  256x256 products, tree memory and large JSON output dominate.
* ``certify``: the bundled demos plus two-qubit teleportation followed
  by a seeded Haar unitary, run through the independence analysis.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Callable

import numpy as np

import checks
import reference
from meastree import (
    CNOT,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    SWAP,
    Circuit,
    DensityOperator,
    Gate,
    HilbertSpec,
    Measurement,
    Selection,
    check_computes,
    check_independence,
    check_isometry_scaling,
    check_set_independence,
    circuit_from_json,
    circuit_to_json,
    enumerate_paths,
    factor_branch,
    full_input,
    linearize,
    measure_z,
    measurement_gate,
    reduce_circuit,
    run_tree,
    simulate_path,
    tree_from_linear,
    unitary_gate,
)
from meastree import cli
from meastree.rand import random_circuit, random_density

# Probe count of every independence call, in the pipeline and on the CLI.
PROBES = 4


@dataclass
class Operation:
    kind: str  # "circuit", "cli", or "fault": a call that fails today through a known fault
    label: str  # the circuit it works on
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    verb: str = ""  # the CLI verb of a "cli" operation


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _write_json(path: FilePath, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``meastree`` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _tree_bytes(tree) -> int:
    return sum(
        op.nbytes
        for node in tree.nodes.values()
        if node.measurement is not None
        for op in node.measurement.outcomes.values()
    )


def load_circuit(tracer, doc) -> Circuit:
    """Load a circuit document and validate it (the result is cached on the circuit)."""
    c = tracer.call("serialize.circuit_from_json", circuit_from_json, doc)
    tracer.call("circuits.validate_circuit", c.require_valid)
    return c


def cli_call(tracer, verb: str, argv: list[str]) -> tuple[int, str]:
    code, stdout = tracer.call(f"cli.{verb.replace('-', '_')}", run_cli, [verb] + argv)
    tracer.note("cli.stdout_mb", len(stdout) / 1e6)
    return code, stdout


# ------------------------------------------------------------ paths, wide


def simulation_pipeline(tracer, c: Circuit, rho: DensityOperator, sigma0: DensityOperator) -> dict:
    """Enumerate, linearize, unfold, run the tree, and simulate every path."""
    with tracer.span("bench.circuit"):
        paths = tracer.call("circuits.enumerate_paths", enumerate_paths, c)
        linear, to_linear = tracer.call("reduction.linearize", linearize, c)
        tree, to_branch = tracer.call("reduction.tree_from_linear", tree_from_linear, linear)
        runs = tracer.call("trees.run_tree", run_tree, tree, sigma0)
        sims = []
        for p in paths:
            sims.append(tracer.call("circuits.simulate_path", simulate_path, c, p, rho))
            if tracer.enabled:
                tracer.note("circuits.gate_apply_s", tracer.last_duration() / len(c.gates))
    if tracer.enabled:
        tracer.note("circuits.paths", len(paths))
        tracer.note("trees.nodes", len(tree.nodes))
        tracer.note("trees.operator_mb", _tree_bytes(tree) / 1e6)
    return {
        "paths": paths,
        "sims": sims,
        "branch_of": {checks.path_key(p): to_branch.forward[to_linear.forward[p]] for p in paths},
        "branches": tree.branches(),
        "runs": runs,
    }


class Simulation:
    """``paths`` and ``wide``: seeded random circuits, one slot per circuit.

    A slot is ``(principal wires, paths, gates, layers)``: each a tuple
    of allowed counts, or None for any. ``random_circuit`` is drawn ``draws`` times,
    and more only while a slot is still empty; each draw fills the first
    empty slot it matches. The slots keep the work in a pass nearly the
    same from seed to seed, and the fixed number of draws does the same
    for set-up. The seed picks the operators, feedforward tables and
    states.
    """

    def __init__(self, seed: int, workdir: FilePath, tracer, n_wires: int, slots, draws: int, **random_kw):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.n_wires = n_wires
        self.slots = slots
        self.draws = draws
        self.random_kw = random_kw
        self.refs: dict[int, dict] = {}
        self.probs: dict[int, dict] = {}  # checked pipeline probabilities per circuit

    def _draw(self, rng) -> list[Circuit]:
        chosen: list[Circuit | None] = [None] * len(self.slots)
        n = 0
        while n < self.draws or None in chosen:
            if n == 20 * self.draws:
                raise RuntimeError("random_circuit did not fill every slot")
            n += 1
            c = self.tracer.call(
                "rand.random_circuit", random_circuit, rng, n_wires=self.n_wires, **self.random_kw
            )
            shape = (len(c.principal_wires), len(reference.coherent_paths(c)), len(c.gates), len(c.schedule))
            for i, slot in enumerate(self.slots):
                if chosen[i] is None and all(want is None or got in want for want, got in zip(slot, shape)):
                    chosen[i] = c
                    break
        return chosen

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        self.tracer.circuit = "draws"
        for i, drawn in enumerate(self._draw(rng)):
            self.tracer.circuit = f"c{i}"
            text = json.dumps(self.tracer.call("serialize.circuit_to_json", circuit_to_json, drawn))
            circuit_file = self.workdir / f"circuit{i}.json"
            circuit_file.write_text(text, encoding="utf-8")
            c = load_circuit(self.tracer, json.loads(text))
            rho = random_density(c.principal_spec, rng)
            state_file = _write_json(self.workdir / f"state{i}.json", {"matrix": _matrix_json(rho.matrix)})
            sigma0 = DensityOperator(full_input(c, rho), c.space)
            self.inputs.append((c, rho, sigma0, str(circuit_file), state_file))
        self.refs.clear()
        self.probs.clear()

    def _check_pipeline(self, i: int, result: dict) -> list[str]:
        c, rho = self.inputs[i][:2]
        if i not in self.refs:
            self.refs[i] = checks.reference_outputs(c, rho.matrix)
        problems = checks.check_simulation(result, self.refs[i])
        if not problems:
            self.probs[i] = {checks.path_key(p): prob for p, (prob, _) in zip(result["paths"], result["sims"])}
        return problems

    def _check_cli(self, i: int, out) -> list[str]:
        if i not in self.probs:
            return ["simulate: no checked pipeline result to compare with"]
        return checks.check_cli_simulate(*out, self.probs[i], self.refs[i])

    def operations(self) -> list[Operation]:
        ops = []
        for i, (c, rho, sigma0, circuit_file, state_file) in enumerate(self.inputs):
            ops.append(Operation(
                "circuit", f"c{i}",
                lambda c=c, rho=rho, sigma0=sigma0: simulation_pipeline(self.tracer, c, rho, sigma0),
                lambda result, i=i: self._check_pipeline(i, result),
            ))
            ops.append(Operation(
                "cli", f"c{i}",
                lambda cf=circuit_file, sf=state_file: cli_call(
                    self.tracer, "simulate", ["--circuit", cf, "--input", sf]
                ),
                lambda out, i=i: self._check_cli(i, out),
                "simulate",
            ))
        return ops


# A pass of ``paths``: 12 circuits with fixed path and gate counts, from
# 12 to 216 paths (836 in all). The principal wire count sets the size
# of ``simulate``'s JSON, so the two 54-path circuits have 2 principal
# wires, the five with fewer paths 1 or 2, and the five with more 2 or 3.
# The median circuit and the median CLI call are then those two. A short
# pass gives each operation more passes in a run, and its fastest pass
# is the steadier for it.
PATHS_SLOTS = [
    (principal, (paths,), (gates,), None)
    for principal, paths, gates, copies in [
        ((1, 2), 12, 3, 1), ((1, 2), 18, 3, 1), ((1, 2), 24, 4, 1), ((1, 2), 36, 4, 2),
        ((2,), 54, 4, 2),
        ((2, 3), 72, 5, 2), ((2, 3), 108, 5, 1), ((2, 3), 144, 6, 1), ((2, 3), 216, 6, 1),
    ]
    for _ in range(copies)
]

# A pass of ``wide``: one circuit each with 1, 3, 5 and 7 principal wires,
# so d_P runs from 2 to 128, each with 6 paths and 4 gates in 2 layers.
# d_P = 256 is left out: ``simulate`` then prints about 50 MB of JSON and
# takes seconds, so one call would outweigh the rest of the pass.
WIDE_SLOTS = [((k,), (6,), (4,), (2,)) for k in (1, 3, 5, 7)]


def paths_workload(seed, workdir, tracer, demo_dir) -> Simulation:
    return Simulation(
        seed, workdir, tracer, 3, PATHS_SLOTS, 320,
        require_multigate_layer=True, require_classical_channel=True,
    )


def wide_workload(seed, workdir, tracer, demo_dir) -> Simulation:
    return Simulation(seed, workdir, tracer, 8, WIDE_SLOTS, 900, max_paths=4)


# ----------------------------------------------------------------- certify


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar unitary made here, not by ``meastree.random_unitary``, so that
    the operator the checks expect does not come from the code under test."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _correction(gid: str, wire: str, source: str, fix: np.ndarray, name: str) -> Gate:
    return Gate(
        gate_id=gid,
        wires=(wire,),
        classical_sources=frozenset({source}),
        measurements=(Measurement.of({"i": ID2}), Measurement.of({name: fix})),
        selection=Selection([({source: "0"}, 0), ({source: "1"}, 1)]),
    )


def teleport_two(u: np.ndarray) -> Circuit:
    """Teleport two qubits (p0, p1) onto (b0, b1), apply ``u``, swap back.

    Every one of the 16 branches computes ``u`` with probability 1/16.
    """
    space = HilbertSpec.of([(w, 2) for w in ("p0", "p1", "a0", "b0", "a1", "b1")])
    gates, schedule = [], [[], [], [], [], [], [], [], [], []]
    for k in "01":
        p, a, b = f"p{k}", f"a{k}", f"b{k}"
        layer_gates = [
            unitary_gate(f"bell_h{k}", (a,), HADAMARD),
            unitary_gate(f"bell_cx{k}", (a, b), CNOT),
            unitary_gate(f"alice_cx{k}", (p, a), CNOT),
            unitary_gate(f"alice_h{k}", (p,), HADAMARD),
        ]
        for layer, g in enumerate(layer_gates):
            gates.append(g)
            schedule[layer].append(g.gate_id)
        for g in (measurement_gate(f"mp{k}", (p,), measure_z()), measurement_gate(f"ma{k}", (a,), measure_z())):
            gates.append(g)
            schedule[4].append(g.gate_id)
        gates.append(_correction(f"fx{k}", b, f"ma{k}", PAULI_X, "x"))
        schedule[5].append(f"fx{k}")
        gates.append(_correction(f"fz{k}", b, f"mp{k}", PAULI_Z, "z"))
        schedule[6].append(f"fz{k}")
    gates.append(unitary_gate("u", ("b0", "b1"), u))
    schedule[7].append("u")
    for k in "01":
        gates.append(unitary_gate(f"swap{k}", (f"p{k}", f"b{k}"), SWAP))
        schedule[8].append(f"swap{k}")
    return Circuit.build(space, ["p0", "p1"], gates, gate_order=[g.gate_id for g in gates], schedule=schedule)


EMBED = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)  # |0> -> |00>, |1> -> |11>


def certify_specs(u: np.ndarray) -> dict[str, dict]:
    """Analytic values per circuit; see ``checks.check_certify`` for the keys.

    ``factor_path`` is one path for the ``factor`` verb and ``factor_op``
    the operator that path computes (None: it does not factor).
    """
    same = lambda op: (lambda branch: op)  # noqa: E731
    return {
        "teleportation": dict(
            p=0.25, kind="unitary", operator=same(ID2), scaling=(ID2, 1.0, "unitary"),
            factor_path="mz0=1,mz1=0", factor_op=ID2,
        ),
        "coin": dict(
            p=0.5, kind="unitary", operator=same(ID2), scaling=(ID2 / math.sqrt(2), math.sqrt(2), "unitary"),
            factor_path="flip=tails", factor_op=ID2,
        ),
        "code_embedding": dict(
            p=1.0, kind="isometry-only", operator=same(EMBED), scaling=(EMBED, 1.0, "isometry"),
            factor_path="", factor_op=EMBED,
        ),
        "feedforward_x": dict(
            p=0.5, kind="unitary",
            operator=lambda branch: PAULI_X if "flip" in branch else ID2,
            scaling=None, factor_path="read=1", factor_op=PAULI_X,
        ),
        "measure_discard": dict(
            p=None, range=(0.0, 1.0), operator=None, scaling=None,
            factor_path="mz=0", factor_op=None,
        ),
        "teleport2_u": dict(
            p=1 / 16, kind="unitary", operator=same(u), scaling=(u, 1.0, "unitary"),
            factor_path="mp0=1,ma0=0,mp1=0,ma1=1", factor_op=u,
        ),
    }


# Circuits whose CLI step is ``factor`` alone. On ``teleport2_u``,
# ``check-independence`` and ``check-unitary`` took 0.4 s of a 1.4 s pass
# and set neither ``cli_s.p50`` nor any other end-to-end metric; without
# them a run holds about 1.4 times as many passes, and every operation's
# fastest pass is the steadier for it. The five demos still run both verbs.
NO_VERDICT_CLI = ("teleport2_u",)


def certify_pipeline(tracer, c: Circuit, spec: dict, seed: int) -> dict:
    """Reduce, then factor and check every branch, the branch set and the operator."""
    with tracer.span("bench.circuit"):
        tree, bij = tracer.call("reduction.reduce_circuit", reduce_circuit, c)
        branches = tree.branches()
        facts = [tracer.call("independence.factor_branch", factor_branch, tree, b) for b in branches]
        reports = [
            tracer.call("independence.check_independence", check_independence, tree, b, probes=PROBES, seed=seed)
            for b in branches
        ]
        set_report = tracer.call(
            "independence.check_set_independence", check_set_independence, tree, branches, probes=PROBES, seed=seed
        )
        computes = []
        if spec["operator"] is not None:
            computes = [
                tracer.call(
                    "independence.check_computes", check_computes, tree, b, spec["operator"](b),
                    probes=PROBES, seed=seed,
                )
                for b in branches
            ]
        scaling = None
        if spec["scaling"] is not None:
            scaling = tracer.call(
                "independence.check_isometry_scaling", check_isometry_scaling, tree, spec["scaling"][0]
            )
    if tracer.enabled:
        tracer.note("independence.probes", sum(r.probe_count for r in reports))
        tracer.note("trees.nodes", len(tree.nodes))
        tracer.note("trees.operator_mb", _tree_bytes(tree) / 1e6)
    return {
        "branches": branches,
        "bijection": bij.forward,
        "facts": facts,
        "reports": reports,
        "set_report": set_report,
        "computes": computes,
        "scaling": scaling,
    }


def nan_circuit_doc(demo_dir: FilePath) -> dict:
    """Teleportation with one operator entry set to NaN."""
    doc = json.loads((demo_dir / "teleportation.json").read_text(encoding="utf-8"))
    doc["gates"][0]["measurements"][0]["outcomes"]["u"][0][0][0] = float("nan")
    return doc


class Certify:
    """``certify``: the five demos and two-qubit teleportation with a Haar unitary."""

    def __init__(self, seed: int, workdir: FilePath, tracer, demo_dir: FilePath):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.demo_dir = demo_dir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        u = haar_unitary(4, rng)
        self.specs = certify_specs(u)
        self.inputs = []
        for name, spec in self.specs.items():
            self.tracer.circuit = name
            if name == "teleport2_u":
                doc = self.tracer.call("serialize.circuit_to_json", circuit_to_json, teleport_two(u))
                circuit_file = _write_json(self.workdir / f"{name}.json", doc)
            else:
                circuit_file = str(self.demo_dir / f"{name}.json")
                doc = json.loads(FilePath(circuit_file).read_text(encoding="utf-8"))
            c = load_circuit(self.tracer, doc)
            operator_file = None
            if spec["scaling"] is not None and name not in NO_VERDICT_CLI:
                operator_file = _write_json(self.workdir / f"{name}.op.json", _matrix_json(spec["scaling"][0]))
            self.inputs.append((name, c, len(reference.coherent_paths(c)), circuit_file, operator_file))
        self.nan_file = _write_json(self.workdir / "teleportation_nan.json", nan_circuit_doc(self.demo_dir))
        self.state_file = _write_json(self.workdir / "state0.json", {"vector": [[1.0, 0.0], [0.0, 0.0]]})

    def operations(self) -> list[Operation]:
        ops = []
        seed = str(self.seed)
        for name, c, n_branches, circuit_file, operator_file in self.inputs:
            spec = self.specs[name]
            ops.append(Operation(
                "circuit", name,
                lambda c=c, spec=spec: certify_pipeline(self.tracer, c, spec, self.seed),
                lambda result, spec=spec: checks.check_certify(spec, result),
            ))
            if name not in NO_VERDICT_CLI:
                ops.append(Operation(
                    "cli", name,
                    lambda cf=circuit_file: cli_call(
                        self.tracer, "check-independence",
                        ["--circuit", cf, "--all-paths", "--probes", str(PROBES), "--seed", seed],
                    ),
                    lambda out, spec=spec, n=n_branches: checks.check_cli_independence(spec, *out, n),
                    "check-independence",
                ))
            ops.append(Operation(
                "cli", name,
                lambda cf=circuit_file, path=spec["factor_path"]: cli_call(
                    self.tracer, "factor", ["--circuit", cf, "--path", path, "--seed", seed]
                ),
                lambda out, spec=spec: checks.check_cli_factor(spec, *out),
                "factor",
            ))
            if operator_file is not None:
                ops.append(Operation(
                    "cli", name,
                    lambda cf=circuit_file, of=operator_file: cli_call(
                        self.tracer, "check-unitary",
                        ["--circuit", cf, "--operator", of, "--probes", str(PROBES), "--seed", seed],
                    ),
                    lambda out, spec=spec, n=n_branches: checks.check_cli_unitary(spec, *out, n),
                    "check-unitary",
                ))
        ops.append(Operation(
            "fault", "teleportation_nan",
            lambda: run_cli(["simulate", "--circuit", self.nan_file, "--input", self.state_file]),
            lambda out: checks.check_rejects_non_finite(*out),
        ))
        return ops


def warm_up(tracer, workdir: FilePath, demo_dir: FilePath) -> None:
    """Call every layer once on small inputs before anything is timed.

    First calls pay for lazy initialisation in numpy and LAPACK; doing
    them here keeps that cost in set-up. In a traced run these calls are
    traced too, so every per-layer metric has samples on every workload.
    """
    tracer.circuit = "warm-up"
    rng = np.random.default_rng(0)
    small = tracer.call("rand.random_circuit", random_circuit, rng, n_wires=2)
    tracer.call("serialize.circuit_to_json", circuit_to_json, small)
    doc = json.loads((demo_dir / "teleportation.json").read_text(encoding="utf-8"))
    c = load_circuit(tracer, doc)
    rho = random_density(c.principal_spec, rng)
    simulation_pipeline(tracer, c, rho, DensityOperator(full_input(c, rho), c.space))
    spec = certify_specs(ID2)["teleportation"]
    certify_pipeline(tracer, c, spec, 0)
    circuit_file = str(demo_dir / "teleportation.json")
    op_file = _write_json(workdir / "warm.op.json", _matrix_json(ID2))
    state_file = _write_json(workdir / "warm.state.json", {"matrix": _matrix_json(rho.matrix)})
    cli_call(tracer, "simulate", ["--circuit", circuit_file, "--input", state_file])
    cli_call(tracer, "check-independence", ["--circuit", circuit_file, "--probes", "4", "--seed", "0"])
    cli_call(tracer, "factor", ["--circuit", circuit_file, "--path", spec["factor_path"]])
    cli_call(tracer, "check-unitary", ["--circuit", circuit_file, "--operator", op_file, "--seed", "0"])


WORKLOADS = {"paths": paths_workload, "wide": wide_workload, "certify": Certify}
