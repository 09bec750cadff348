"""Seeded random instances: measurements, states, circuits, trees.

The circuit generator deliberately exercises the awkward corners of the
model (multi-gate layers, classical feedforward, forced outcomes) while
guaranteeing by construction that the result validates.
"""

from __future__ import annotations

import itertools

import numpy as np

from .circuits import Circuit, Gate, Selection
from .linalg import (
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    haar_ket,
    random_unitary,
)
from .trees import MeasurementTree, TreeNode

__all__ = [
    "random_measurement",
    "random_density",
    "random_circuit",
    "random_tree",
]


def random_measurement(
    dim: int,
    n_outcomes: int,
    rng: np.random.Generator,
    labels: list[str] | None = None,
) -> Measurement:
    """A Haar-flavored measurement with the requested number of outcomes.

    Slices a Haar-random unitary on ``n_outcomes * dim`` dimensions into
    ``dim``-row blocks; the blocks automatically satisfy completeness.
    """
    if labels is None:
        labels = [str(i) for i in range(n_outcomes)]
    if len(labels) != n_outcomes:
        raise ValueError("label count must match outcome count")
    big = random_unitary(n_outcomes * dim, rng)[:, :dim]
    return Measurement.of(
        {lab: big[i * dim : (i + 1) * dim, :] for i, lab in enumerate(labels)}
    )


def random_density(
    space: HilbertSpec,
    rng: np.random.Generator,
    rank: int | None = None,
) -> DensityOperator:
    """A random mixed state from the Ginibre ensemble (full rank by default)."""
    dim = space.dim
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return DensityOperator.of(m / np.trace(m).real, space)


def random_tree(
    space: HilbertSpec,
    rng: np.random.Generator,
    depth: int = 3,
    max_outcomes: int = 3,
) -> MeasurementTree:
    """A random measurement tree of the given depth on the full space.

    Every internal node gets an independent random measurement; subtree
    depths vary so the tree is generally ragged.
    """
    nodes: dict[tuple[str, ...], TreeNode] = {}

    def grow(segment: tuple[str, ...], remaining: int) -> None:
        if remaining == 0:
            nodes[segment] = TreeNode(None)
            return
        n_out = int(rng.integers(2, max_outcomes + 1))
        m = random_measurement(space.dim, n_out, rng)
        for lab in m.labels:
            grow(segment + (lab,), remaining - 1 if rng.random() > 0.2 else 0)
        nodes[segment] = TreeNode(m)

    grow((), depth)
    return MeasurementTree(space, nodes)


def _random_selection(
    rng: np.random.Generator,
    source_labels: dict[str, list[str]],
    n_measurements: int,
) -> Selection:
    """A total, surjective selection table over the given classical sources."""
    combos = list(itertools.product(*[[(g, l) for l in ls] for g, ls in source_labels.items()]))
    if len(combos) < n_measurements:
        raise ValueError("fewer source assignments than measurements; cannot be surjective")
    indices = [int(rng.integers(0, n_measurements)) for _ in combos]
    # Reserve one distinct slot per measurement index so all are used.
    slots = rng.permutation(len(combos))[:n_measurements]
    for idx, slot in enumerate(slots):
        indices[int(slot)] = idx
    rules = [(dict(combo), idx) for combo, idx in zip(combos, indices)]
    return Selection(rules)


def random_circuit(
    rng: np.random.Generator,
    *,
    n_wires: int | None = None,
    wire_dim: int = 2,
    max_layers: int = 4,
    max_outcomes: int = 3,
    max_paths: int = 96,
    require_multigate_layer: bool = False,
    require_classical_channel: bool = False,
) -> Circuit:
    """A random valid circuit over 2 or 3 qubit-like wires.

    Layers group gates on disjoint wires; later gates may condition on
    measurement outcomes of earlier gates through random selection
    tables. A running path count keeps enumeration tractable by
    forcing single-outcome measurements once ``max_paths`` is reached.
    A draw that misses a required layer or channel, or has more than
    ``4 * max_paths`` paths, is dropped and the next one drawn.
    """
    while True:
        n = int(rng.integers(2, 4)) if n_wires is None else n_wires
        wires = [f"q{i}" for i in range(n)]
        n_principal = int(rng.integers(1, n + 1))
        principal = wires[:n_principal]
        ancilla = wires[n_principal:]
        space = HilbertSpec.of([(w, wire_dim) for w in wires])
        if ancilla:
            anc_spec = HilbertSpec.of([(w, wire_dim) for w in ancilla])
            init = Ket.of(haar_ket(anc_spec.dim, rng), anc_spec)
        else:
            init = None

        gates: dict[str, Gate] = {}
        gate_order: list[str] = []
        schedule: list[list[str]] = []
        # possible outcome labels per gate in strictly earlier layers, for
        # building the feedforward tables of later gates
        finished: dict[str, list[str]] = {}
        path_count = 1
        made_multigate = False
        made_classical = False

        n_layers = int(rng.integers(1, max_layers + 1))
        for li in range(n_layers):
            free = list(wires)
            rng.shuffle(free)
            layer: list[str] = []
            layer_labels: dict[str, list[str]] = {}
            want_two = require_multigate_layer and not made_multigate and li == n_layers - 1
            n_gates = 2 if (want_two and len(free) >= 2) else int(rng.integers(1, 3))
            for gi in range(n_gates):
                if not free:
                    break
                width = 1 if len(free) == 1 else int(rng.integers(1, 3))
                gwires, free = free[:width], free[width:]
                gid = f"g{li}_{gi}"
                dim = wire_dim**width

                sources: frozenset[str] = frozenset()
                pool = [g for g in finished if len(finished[g]) > 1]
                force_channel = (
                    require_classical_channel and not made_classical and li == n_layers - 1 and pool
                )
                if pool and (force_channel or rng.random() < 0.4):
                    k = 1 if force_channel else int(rng.integers(1, min(2, len(pool)) + 1))
                    picked = list(rng.choice(pool, size=k, replace=False))
                    sources = frozenset(picked)
                    made_classical = True

                branching = path_count < max_paths
                n_out = int(rng.integers(2, max_outcomes + 1)) if branching else 1
                if sources:
                    capacity = 1
                    for g in sources:
                        capacity *= len(finished[g])
                    n_meas = min(int(rng.integers(2, 4)), capacity)
                    # outcome labels must be disjoint across a gate's measurements
                    measurements = tuple(
                        random_measurement(
                            dim, n_out, rng, labels=[f"{k}.{i}" for i in range(n_out)]
                        )
                        for k in range(n_meas)
                    )
                    selection = _random_selection(
                        rng, {g: finished[g] for g in sorted(sources)}, n_meas
                    )
                else:
                    measurements = (random_measurement(dim, n_out, rng),)
                    selection = Selection.constant(0)
                gates[gid] = Gate(
                    gate_id=gid,
                    wires=tuple(gwires),
                    classical_sources=sources,
                    measurements=measurements,
                    selection=selection,
                )
                gate_order.append(gid)
                layer.append(gid)
                layer_labels[gid] = [lab for m in measurements for lab in m.labels]
                path_count *= n_out
            if len(layer) >= 2:
                made_multigate = True
            if layer:
                schedule.append(layer)
            finished.update(layer_labels)

        if require_multigate_layer and not made_multigate:
            continue
        if require_classical_channel and not made_classical:
            continue
        # path_count is exact: every measurement of a gate has n_out outcomes and
        # every selection table is total, so each coherent prefix branches n_out
        # ways at each gate.
        if not gates or path_count > 4 * max_paths:
            continue
        c = Circuit.build(
            space,
            principal,
            list(gates.values()),
            gate_order=gate_order,
            schedule=schedule,
            ancilla_init=init,
        )
        c.require_valid()
        return c
