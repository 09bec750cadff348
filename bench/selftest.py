"""Self-test of the benchmark's checks.

First the reference simulator is compared with hand-computed values.
Then one pass of each workload runs, every check must accept every real
output, and every check must reject outputs perturbed in a way that a
correct program could not produce: a probability off by 1e-6, two
branches swapped, a wrong exit code, a NaN on stdout. A check that
accepted a perturbed output would pass by construction.

Run it with ``python3 bench/run.py --self-test``; it exits 0 when every
case holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np

import reference
import workloads
from meastree import HADAMARD, Circuit, HilbertSpec, measure_z, measurement_gate, teleportation, unitary_gate
from spans import Tracer

SHIFT = 1e-6


def hand_computed() -> list[str]:
    """The reference simulator on two circuits whose outputs are known exactly."""
    problems = []
    # H|0> then a Z measurement: each outcome with probability 1/2, leaving |k><k| / 2.
    c = Circuit.build(
        HilbertSpec.of([("q", 2)]),
        ["q"],
        [unitary_gate("h", ("q",), HADAMARD), measurement_gate("mz", ("q",), measure_z())],
    )
    zero = np.diag([1.0, 0.0]).astype(complex)
    for k in ("0", "1"):
        p, sigma = reference.simulate(c, zero, {"h": "u", "mz": k})
        want = np.zeros((2, 2), dtype=complex)
        want[int(k), int(k)] = 0.5
        if abs(p - 0.5) > 1e-12 or np.abs(sigma - want).max() > 1e-12:
            problems.append(f"H then Z outcome {k}: p={p}, output {sigma.tolist()}")
    # Teleportation: each of the four branches fires with probability 1/4
    # and leaves rho / 4 on the principal wire.
    t = teleportation()
    rng = np.random.default_rng(1)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    paths = reference.coherent_paths(t)
    if len(paths) != 4:
        problems.append(f"teleportation has {len(paths)} paths, expected 4")
    for path in paths:
        p, sigma = reference.simulate(t, rho, path)
        out = reference.reduce_to(t, sigma, t.principal_wires)
        if abs(p - 0.25) > 1e-12 or np.abs(out - rho / 4).max() > 1e-12:
            problems.append(f"teleportation {path}: p={p}")
    return problems


def _shift_prob(pair):
    return (pair[0] + SHIFT, pair[1])


def _shift_matrix(pair):
    sigma = pair[1].copy()
    sigma.flat[0] += SHIFT
    return (pair[0], sigma)


def simulation_perturbations(result: dict) -> dict:
    """Perturbed copies of one ``paths``/``wide`` pipeline result."""
    def with_sims(fn):
        r = dict(result, sims=list(result["sims"]))
        fn(r["sims"])
        return r

    def swap_first_distinct(sims):
        j = next(j for j in range(1, len(sims)) if abs(sims[j][0] - sims[0][0]) > SHIFT)
        sims[0], sims[j] = sims[j], sims[0]

    branch_of = dict(result["branch_of"])
    keys = list(branch_of)
    branch_of[keys[0]], branch_of[keys[1]] = branch_of[keys[1]], branch_of[keys[0]]
    runs = dict(result["runs"])
    first = result["branches"][0]
    runs[first] = _shift_prob(runs[first])
    return {
        "probability off by 1e-6": with_sims(lambda s: s.__setitem__(0, _shift_prob(s[0]))),
        "output entry off by 1e-6": with_sims(lambda s: s.__setitem__(0, _shift_matrix(s[0]))),
        "two paths' results swapped": with_sims(swap_first_distinct),
        "a path missing": dict(result, paths=result["paths"][1:], sims=result["sims"][1:]),
        "two branches swapped in the bijection": dict(result, branch_of=branch_of),
        "run_tree probability off by 1e-6": dict(result, runs=runs),
    }


def _edit_json(stdout: str, fn) -> str:
    doc = json.loads(stdout)
    fn(doc)
    return json.dumps(doc)


def cli_perturbations(out: tuple[int, str], verb: str) -> dict:
    """Perturbed copies of one CLI result ``(exit code, stdout)``."""
    code, stdout = out
    cases = {
        "wrong exit code": (1 if code != 1 else 0, stdout),
        "NaN on stdout": (code, stdout.replace(":", ": NaN,", 1)),
    }

    def shift(doc, key):
        doc[key] += SHIFT

    if verb == "simulate":
        cases["probability off by 1e-6"] = (code, _edit_json(stdout, lambda d: shift(d[0], "probability")))
        cases["principal output off by 1e-6"] = (
            code, _edit_json(stdout, lambda d: shift(d[0]["principal_output"][0][0], 0))
        )
    elif verb == "check-independence":
        cases["min probability off by 1e-6"] = (code, _edit_json(stdout, lambda d: shift(d[0], "min_probability")))
        cases["a branch missing"] = (code, _edit_json(stdout, lambda d: d.pop()))
    elif verb == "factor" and json.loads(stdout).get("factored"):
        cases["probability off by 1e-6"] = (code, _edit_json(stdout, lambda d: shift(d, "probability")))
    elif verb == "check-unitary":
        cases["t_scale off by 1e-6"] = (code, _edit_json(stdout, lambda d: shift(d, "t_scale")))
    return cases


def certify_perturbations(label: str, result: dict) -> dict:
    """Perturbed copies of one ``certify`` pipeline result."""
    def replace_first(key, **changes):
        items = list(result[key])
        items[0] = dataclasses.replace(items[0], **changes)
        return dict(result, **{key: items})

    rep = result["reports"][0]
    cases = {
        "verdict flipped": replace_first(
            "reports", verdict="independent" if rep.verdict != "independent" else "dependent"
        ),
        "max probability off by 1e-6": replace_first("reports", max_probability=rep.max_probability + SHIFT),
        "set verdict dependent": dict(
            result, set_report=dataclasses.replace(result["set_report"], verdict="dependent")
        ),
    }
    if result["facts"][0] is not None:
        cases["witness weight off by 1e-6"] = replace_first(
            "facts", probability=result["facts"][0].probability + SHIFT
        )
    if label == "feedforward_x":
        cases["two branches' witnesses swapped"] = dict(result, facts=result["facts"][::-1])
    if result["computes"]:
        cases["check_computes fails"] = dict(result, computes=[(False, float("inf"))] + result["computes"][1:])
    if result["scaling"] is not None:
        cases["t_scale off by 1e-6"] = dict(
            result, scaling=dataclasses.replace(result["scaling"], t_scale=result["scaling"].t_scale + SHIFT)
        )
    return cases


def run_workload(name: str, demo_dir, workdir) -> tuple[int, list[str]]:
    """One pass of a workload: real outputs must pass, perturbed ones must fail."""
    tracer = Tracer()
    workload = workloads.WORKLOADS[name](0, workdir, tracer, demo_dir)
    workload.setup()
    cases, problems = 0, []
    for op in workload.operations():
        out = op.run()
        real = op.check(out)
        if op.kind == "fault":
            perturbed = {"exit code 0 with NaN on stdout": (0, '[{"probability": NaN}]')}
            if op.check((1, "")):
                problems.append(f"{name} {op.label}: a clean refusal is rejected")
        else:
            if real:
                problems.append(f"{name} {op.label}: real output rejected: {real}")
            if op.kind == "cli":
                perturbed = cli_perturbations(out, op.verb)
            elif name == "certify":
                perturbed = certify_perturbations(op.label, out)
            else:
                perturbed = simulation_perturbations(out)
        for what, bad in perturbed.items():
            cases += 1
            if not op.check(bad):
                problems.append(f"{name} {op.label} ({op.kind}): check accepts {what}")
    return cases, problems


def main(demo_dir, out_dir) -> int:
    problems = hand_computed()
    print(f"reference simulator: {'ok' if not problems else problems}", file=sys.stderr)
    for name in workloads.WORKLOADS:
        workdir = out_dir / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            cases, found = run_workload(name, demo_dir, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {cases} perturbed outputs, {len(found)} accepted", file=sys.stderr)
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1
