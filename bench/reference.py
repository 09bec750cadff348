"""Reference path simulator for the benchmark's checks.

It reads only circuit data (wires, roles, the ancilla vector, and each
gate's wires, measurements and selection rules) and applies every local
outcome operator to the joint density, reshaped to one axis per wire,
with ``np.einsum``. It shares no code with ``meastree.linalg`` or the
walkers of ``meastree.circuits``, so the pipeline's outputs are checked
against an independent computation.
"""

from __future__ import annotations

import numpy as np


def flattened(c) -> list[str]:
    """Gate ids layer by layer, ordered by ``gate_order`` within a layer."""
    pos = {gid: i for i, gid in enumerate(c.gate_order)}
    return [gid for layer in c.schedule for gid in sorted(layer, key=pos.__getitem__)]


def selected(gate, assignment: dict[str, str]):
    """The measurement the gate's selection rules pick under ``assignment``."""
    for when, use in gate.selection.rules:
        if set(when) == set(gate.classical_sources) and all(
            assignment[k] == v for k, v in when.items()
        ):
            return gate.measurements[use]
    raise ValueError(f"gate {gate.gate_id}: no rule matches {assignment}")


def coherent_paths(c) -> list[dict[str, str]]:
    """Every outcome assignment that follows the selection rules."""
    partials: list[dict[str, str]] = [{}]
    for gid in flattened(c):
        g = c.gates[gid]
        partials = [
            pa | {gid: label}
            for pa in partials
            for label in selected(g, pa).outcomes
        ]
    return partials


def _dims(c) -> list[int]:
    return [d for _, d in c.space.factors]


def joint_input(c, rho: np.ndarray) -> np.ndarray:
    """``rho (x) |a><a|`` as a tensor with axes (rows per wire, cols per wire)."""
    wires = list(c.space.wires)
    dims = _dims(c)
    n = len(wires)
    p_axes = [wires.index(w) for w in c.principal_wires]
    a_axes = [wires.index(w) for w in c.ancilla_wires]
    a = np.asarray(c.ancilla_init.vector, dtype=complex)
    rho_t = np.asarray(rho, dtype=complex).reshape([dims[i] for i in p_axes] * 2)
    anc_t = np.outer(a, a.conj()).reshape([dims[i] for i in a_axes] * 2)
    return np.einsum(
        rho_t, p_axes + [n + i for i in p_axes],
        anc_t, a_axes + [n + i for i in a_axes],
        list(range(2 * n)),
    )


def apply_local(c, tensor: np.ndarray, op: np.ndarray, on) -> np.ndarray:
    """``L T L^dag`` for a local operator ``L`` on the wires ``on``."""
    wires = list(c.space.wires)
    dims = _dims(c)
    n = len(wires)
    axes = [wires.index(w) for w in on]
    k = len(axes)
    local = np.asarray(op, dtype=complex).reshape([dims[i] for i in axes] * 2)
    new = list(range(2 * n, 2 * n + k))
    rows = list(range(2 * n))
    out = list(rows)
    for j, ax in enumerate(axes):
        out[ax] = new[j]
    tensor = np.einsum(local, new + axes, tensor, rows, out)
    cols_in = [n + ax for ax in axes]
    out = list(rows)
    for j, ax in enumerate(axes):
        out[n + ax] = new[j]
    return np.einsum(local.conj(), new + cols_in, tensor, rows, out)


def simulate(c, rho: np.ndarray, path: dict[str, str]) -> tuple[float, np.ndarray]:
    """Probability and unnormalized full-space output of one path."""
    tensor = joint_input(c, rho)
    for gid in flattened(c):
        g = c.gates[gid]
        op = selected(g, path).outcomes[path[gid]]
        tensor = apply_local(c, tensor, op, g.wires)
    d = c.space.dim
    sigma = tensor.reshape(d, d)
    return float(sigma.trace().real / np.trace(rho).real), sigma


def reduce_to(c, sigma: np.ndarray, keep) -> np.ndarray:
    """Partial trace of a full-space matrix onto the wires ``keep``."""
    wires = list(c.space.wires)
    dims = _dims(c)
    n = len(wires)
    kept = [i for i, w in enumerate(wires) if w in set(keep)]
    cols = [n + i if i in kept else i for i in range(n)]
    d_keep = int(np.prod([dims[i] for i in kept])) if kept else 1
    out = np.einsum(sigma.reshape(dims * 2), list(range(n)) + cols, kept + [n + i for i in kept])
    return out.reshape(d_keep, d_keep)
