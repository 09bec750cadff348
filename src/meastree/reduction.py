"""Constructive reductions: circuits to linear circuits to measurement trees.

``linearize`` merges each schedule layer into one gate whose measurements
are tensor products of the constituents' measurements, re-keying the
feedforward tables accordingly. ``tree_from_linear`` unfolds a linear
circuit into the tree of coherent outcome prefixes, whose nodes keep the
gates' local measurements. Both return an explicit bijection between
the old paths and the new paths (or branches), and both preserve every
path's probability and output state exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .circuits import (
    Circuit,
    Gate,
    Path,
    Selection,
    _walk,
    enumerate_paths,
    flattened_gates,
)
from .linalg import tensor_measurements
from .trees import Branch, MeasurementTree, TreeNode

__all__ = ["Bijection", "linearize", "tree_from_linear", "reduce_circuit"]


@dataclass(frozen=True)
class Bijection:
    """A bijection recorded as a pair of mutually inverse dicts."""

    forward: dict
    backward: dict

    @classmethod
    def from_pairs(cls, pairs) -> "Bijection":
        fwd, bwd = {}, {}
        for a, b in pairs:
            if a in fwd or b in bwd:
                raise ValueError(f"not a bijection: ({a!r}, {b!r}) collides")
            fwd[a] = b
            bwd[b] = a
        return cls(fwd, bwd)

    def __len__(self) -> int:
        return len(self.forward)


def linearize(c: Circuit) -> tuple[Circuit, Bijection]:
    """Merge each layer into a single gate; one gate per layer afterwards.

    The merged gate's measurements are the tensor products actually
    selected along some path, its outcome labels join the constituent
    labels with "|", and its classical sources are the layers containing
    a source of any constituent. Returns the new circuit and the path
    bijection (old path -> new path).
    """
    c.require_valid()
    flat = iter(flattened_gates(c))
    layers = [tuple(islice(flat, len(layer))) for layer in c.schedule]
    merged_ids = ["+".join(layer) for layer in layers]
    if len(set(merged_ids)) != len(merged_ids):
        merged_ids = [f"L{i}:{mid}" for i, mid in enumerate(merged_ids)]
    layer_of_gate = {gid: i for i, layer in enumerate(layers) for gid in layer}

    source_layers: list[list[int]] = []
    for layer in layers:
        srcs = sorted({layer_of_gate[s] for gid in layer for s in c.gates[gid].classical_sources})
        source_layers.append(srcs)

    paths = enumerate_paths(c)

    def joined(path: Path, layer: tuple[str, ...]) -> str:
        return "|".join(path[gid] for gid in layer)

    # Per layer: which measurement-index choice fires under which merged
    # source assignment, discovered across all coherent paths.
    choice_of: list[dict[tuple[tuple[str, str], ...], tuple[int, ...]]] = [{} for _ in layers]
    for path in paths:
        for n, layer in enumerate(layers):
            when = tuple(
                (merged_ids[i], joined(path, layers[i])) for i in source_layers[n]
            )
            choice = tuple(
                c.gates[gid].selection.select(path.restrict(c.gates[gid].classical_sources))
                for gid in layer
            )
            prev = choice_of[n].setdefault(when, choice)
            assert prev == choice  # selection is a function of its sources
    new_gates: list[Gate] = []
    for n, layer in enumerate(layers):
        choices = sorted(set(choice_of[n].values()))
        index_of = {ch: i for i, ch in enumerate(choices)}
        measurements = tuple(
            tensor_measurements([c.gates[gid].measurements[k] for gid, k in zip(layer, ch)])
            for ch in choices
        )
        rules = [
            (dict(when), index_of[ch])
            for when, ch in sorted(choice_of[n].items())
        ]
        wires = tuple(w for gid in layer for w in c.gates[gid].wires)
        new_gates.append(
            Gate(
                gate_id=merged_ids[n],
                wires=wires,
                classical_sources=frozenset(merged_ids[i] for i in source_layers[n]),
                measurements=measurements,
                selection=Selection(rules),
            )
        )

    linear = Circuit(
        space=c.space,
        principal_wires=c.principal_wires,
        ancilla_wires=c.ancilla_wires,
        ancilla_init=c.ancilla_init,
        gates={g.gate_id: g for g in new_gates},
        gate_order=tuple(merged_ids),
        schedule=tuple((mid,) for mid in merged_ids),
        output_principal_wires=c.output_principal_wires,
    )
    linear.require_valid()

    pairs = []
    for path in paths:
        new_path = Path({merged_ids[n]: joined(path, layers[n]) for n in range(len(layers))})
        pairs.append((path, new_path))
    return linear, Bijection.from_pairs(pairs)


def tree_from_linear(c: Circuit) -> tuple[MeasurementTree, Bijection]:
    """Unfold a linear circuit into its tree of coherent outcome prefixes.

    Node at segment ``(o_1, ..., o_n)`` carries gate n+1's selected
    measurement and, as its ``wires``, the gate's wires; leaves sit at
    depth len(gates). Returns the tree and the bijection from paths to
    branches.
    """
    c.require_valid()
    if any(len(layer) != 1 for layer in c.schedule):
        raise ValueError("not a linear circuit: every layer must hold exactly one gate")

    nodes: dict[Branch, TreeNode] = {}
    pairs: list[tuple[Path, Branch]] = []
    for assignment, g, m in _walk(c):
        segment = tuple(assignment.values())
        if g is None:
            nodes[segment] = TreeNode(None, {})
            pairs.append((Path(assignment), segment))
            continue
        nodes[segment] = TreeNode(m, {label: segment + (label,) for label in m.labels}, g.wires)
    tree = MeasurementTree(
        space=c.space,
        root=(),
        nodes=nodes,
        principal_wires=c.principal_wires,
        ancilla_wires=c.ancilla_wires,
        ancilla_init=c.ancilla_init,
        output_principal_wires=c.output_principal_wires,
    )
    return tree, Bijection.from_pairs(pairs)


def reduce_circuit(c: Circuit) -> tuple[MeasurementTree, Bijection]:
    """Full reduction: linearize, then unfold into a measurement tree.

    The returned bijection maps each original path directly to its branch.
    """
    linear, path_map = linearize(c)
    tree, branch_map = tree_from_linear(linear)
    pairs = [(path, branch_map.forward[path_map.forward[path]]) for path in path_map.forward]
    return tree, Bijection.from_pairs(pairs)
