"""Checks of the benchmark's outputs against independent computations.

Every check returns a list of problems; an empty list means the output
is correct. The checks compare with the reference simulator in
``reference.py`` and with values that follow from the circuits'
definitions, never with a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import reference

TOL = 1e-9


def path_key(path) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in dict(path).items()))


def reference_outputs(c, rho: np.ndarray) -> dict:
    """Per coherent path: reference probability, full output and reduced output."""
    out = {}
    for path in reference.coherent_paths(c):
        p, sigma = reference.simulate(c, rho, path)
        out[path_key(path)] = (p, sigma, reference.reduce_to(c, sigma, c.output_principal))
    return out


def _close(a, b, tol: float = TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


def check_simulation(result: dict, ref: dict) -> list[str]:
    """Pipeline outputs of one circuit against the reference and each other.

    ``result`` holds ``paths``, ``sims`` (simulate_path per path), ``branch_of``
    (path key -> branch through both bijections), ``branches`` (the tree's
    branches) and ``runs`` (run_tree per branch).
    """
    problems = []
    keys = [path_key(p) for p in result["paths"]]
    if len(set(keys)) != len(keys) or set(keys) != set(ref):
        return [f"paths: {len(keys)} enumerated, reference has {len(ref)} coherent paths"]
    total = 0.0
    for key, (p, sigma) in zip(keys, result["sims"]):
        p_ref, sigma_ref, _ = ref[key]
        total += p
        if not abs(p - p_ref) <= TOL:
            problems.append(f"simulate_path {key}: probability {p!r} != reference {p_ref!r}")
        if not _close(sigma, sigma_ref):
            problems.append(f"simulate_path {key}: output differs from reference")
    if not abs(total - 1.0) <= TOL:
        problems.append(f"path probabilities sum to {total!r}, not 1")
    branches = [result["branch_of"][key] for key in keys]
    if len(set(branches)) != len(branches) or set(branches) != set(result["branches"]):
        problems.append("bijection: paths do not map one-to-one onto the tree's branches")
        return problems
    for key, branch, (p, sigma) in zip(keys, branches, result["sims"]):
        p_tree, sigma_tree = result["runs"][branch]
        if not abs(p - p_tree) <= TOL or not _close(sigma, sigma_tree):
            problems.append(f"run_tree {branch} disagrees with simulate_path {key}")
    return problems


def _parse(stdout: str) -> tuple[object, list[str]]:
    if "NaN" in stdout or "Infinity" in stdout:
        return None, ["stdout holds a non-finite number"]
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def check_cli_simulate(code: int, stdout: str, probs: dict, ref: dict) -> list[str]:
    """``simulate --circuit`` output against the pipeline's probabilities
    (``probs``: path key -> probability) and the reference's reduced outputs."""
    if code != 0:
        return [f"simulate: exit code {code}, expected 0"]
    rows, problems = _parse(stdout)
    if problems:
        return problems
    if not isinstance(rows, list) or len(rows) != len(probs):
        return [f"simulate: {len(rows) if isinstance(rows, list) else '?'} rows, expected {len(probs)}"]
    for row in rows:
        key = path_key(row["path"])
        if key not in probs:
            problems.append(f"simulate: unknown path {key}")
            continue
        if not abs(row["probability"] - probs[key]) <= TOL:
            problems.append(f"simulate {key}: probability {row['probability']!r} != pipeline {probs[key]!r}")
        got = np.array(row["principal_output"], dtype=float)
        got = got[..., 0] + 1j * got[..., 1]
        if got.shape != ref[key][2].shape or not _close(got, ref[key][2]):
            problems.append(f"simulate {key}: principal output differs from reference")
    return problems


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    overlap = complex(np.vdot(b, a))
    if abs(overlap) == 0.0:
        return False
    return _close(a, b * (overlap / abs(overlap)), tol)


def check_certify(spec: dict, result: dict) -> list[str]:
    """Analysis outputs of one certify circuit against its analytic values.

    ``spec`` keys: ``p`` (per-branch probability, or None when it depends
    on the input), ``range`` (expected [min, max] of a dependent branch),
    ``operator`` (branch -> operator it computes, or None), ``kind``
    (factor kind), ``scaling`` ((operator, t_scale, verdict) or None).
    """
    problems = []
    branches = result["branches"]
    if set(result["bijection"].values()) != set(branches) or len(result["bijection"]) != len(branches):
        problems.append("reduce_circuit: bijection does not cover the branches one-to-one")
    p = spec["p"]
    for b, fact, rep in zip(branches, result["facts"], result["reports"]):
        if p is None:
            lo, hi = spec["range"]
            if fact is not None:
                problems.append(f"factor_branch {b}: factored a dependent branch")
            if rep.verdict != "dependent" or not (
                abs(rep.min_probability - lo) <= TOL and abs(rep.max_probability - hi) <= TOL
            ):
                problems.append(
                    f"check_independence {b}: {rep.verdict} over "
                    f"[{rep.min_probability!r}, {rep.max_probability!r}], expected dependent over [{lo}, {hi}]"
                )
            continue
        if fact is None:
            problems.append(f"factor_branch {b}: no witness")
        else:
            if not abs(fact.probability - p) <= TOL:
                problems.append(f"factor_branch {b}: weight {fact.probability!r} != {p!r}")
            if fact.kind != spec["kind"]:
                problems.append(f"factor_branch {b}: kind {fact.kind}, expected {spec['kind']}")
            if not same_up_to_phase(fact.principal_operator, spec["operator"](b)):
                problems.append(f"factor_branch {b}: U is not the expected operator")
        if rep.verdict != "independent" or not (
            abs(rep.min_probability - p) <= TOL and abs(rep.max_probability - p) <= TOL
        ):
            problems.append(
                f"check_independence {b}: {rep.verdict} over "
                f"[{rep.min_probability!r}, {rep.max_probability!r}], expected independent at {p!r}"
            )
    s = result["set_report"]
    if p is None:
        # The full branch set sums to 1 on every input, so "dependent" is
        # wrong; "inconclusive" is the documented answer when a branch
        # does not factor.
        ok = s.verdict == "inconclusive" and s.failing_branch is not None
        ok = ok or (s.verdict == "independent" and abs(s.constant - 1.0) <= TOL)
    else:
        ok = s.verdict == "independent" and abs(s.constant - 1.0) <= TOL and s.max_deviation <= TOL
    if not ok:
        problems.append(f"check_set_independence: {s.verdict}, constant {s.constant!r}")
    for b, (holds, residual) in zip(branches, result["computes"]):
        if not holds or not residual <= 1e-8:
            problems.append(f"check_computes {b}: holds={holds}, residual {residual!r}")
    if spec["scaling"] is not None:
        _, t_scale, verdict = spec["scaling"]
        iso = result["scaling"]
        if iso.verdict != verdict or iso.t_scale is None or not abs(iso.t_scale - t_scale) <= TOL:
            problems.append(f"check_isometry_scaling: {iso.verdict}, t_scale {iso.t_scale!r}")
    return problems


def check_cli_independence(spec: dict, code: int, stdout: str, n_branches: int) -> list[str]:
    rows, problems = _parse(stdout)
    if problems:
        return problems
    p = spec["p"]
    want_code = 0 if p is not None else 3
    if code != want_code:
        problems.append(f"check-independence: exit code {code}, expected {want_code}")
    if len(rows) != n_branches:
        return problems + [f"check-independence: {len(rows)} rows, expected {n_branches}"]
    lo, hi = (p, p) if p is not None else spec["range"]
    verdict = "independent" if p is not None else "dependent"
    for row in rows:
        if row["verdict"] != verdict or not (
            abs(row["min_probability"] - lo) <= TOL and abs(row["max_probability"] - hi) <= TOL
        ):
            problems.append(f"check-independence {row['branch']}: {row['verdict']} over "
                            f"[{row['min_probability']!r}, {row['max_probability']!r}]")
    return problems


def check_cli_factor(spec: dict, code: int, stdout: str) -> list[str]:
    """``factor`` on ``spec["factor_path"]``, which computes ``spec["factor_op"]`` (None: does not factor)."""
    operator = spec["factor_op"]
    doc, problems = _parse(stdout)
    if problems:
        return problems
    if operator is None:
        if code != 3 or doc.get("factored") is not False:
            problems.append(f"factor: exit code {code}, factored={doc.get('factored')}; expected 3, False")
        return problems
    if code != 0 or doc.get("factored") is not True:
        return [f"factor: exit code {code}, factored={doc.get('factored')}; expected 0, True"]
    u = np.array(doc["U"], dtype=float)
    if not abs(doc["probability"] - spec["p"]) <= TOL:
        problems.append(f"factor: probability {doc['probability']!r} != {spec['p']!r}")
    if doc["kind"] != spec["kind"]:
        problems.append(f"factor: kind {doc['kind']}, expected {spec['kind']}")
    if not same_up_to_phase(u[..., 0] + 1j * u[..., 1], operator):
        problems.append("factor: U is not the expected operator")
    return problems


def check_cli_unitary(spec: dict, code: int, stdout: str, n_branches: int) -> list[str]:
    doc, problems = _parse(stdout)
    if problems:
        return problems
    _, t_scale, verdict = spec["scaling"]
    if code != 0:
        problems.append(f"check-unitary: exit code {code}, expected 0")
    if doc["verdict"] != verdict or doc["t_scale"] is None or not abs(doc["t_scale"] - t_scale) <= TOL:
        problems.append(f"check-unitary: {doc['verdict']}, t_scale {doc['t_scale']!r}")
    rows = doc["branches"]
    if len(rows) != n_branches or not all(r["computes"] for r in rows):
        problems.append("check-unitary: not every branch computes the operator")
    return problems


def check_rejects_non_finite(code: int, stdout: str) -> list[str]:
    """A circuit holding NaN must be refused: exit code 1 and no NaN printed."""
    problems = []
    if code != 1:
        problems.append(f"simulate on a NaN circuit: exit code {code}, expected 1")
    if "NaN" in stdout:
        problems.append("simulate on a NaN circuit: NaN on stdout")
    return problems
