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

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from .circuits import Circuit, Gate, Path, Selection, _completeness_violations, flattened_gates
from .linalg import _joint, _walk
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
        for n, (a, b) in enumerate(pairs, 1):
            # one hash per key: a key already present leaves its dict one short
            fwd.setdefault(a, b)
            bwd.setdefault(b, a)
            if not len(fwd) == len(bwd) == n:
                raise ValueError(f"not a bijection: ({a!r}, {b!r}) collides")
        return cls(fwd, bwd)

    def __len__(self) -> int:
        return len(self.forward)


def _layer_bounds(c: Circuit) -> list[int]:
    """Where each schedule layer starts in ``flattened_gates(c)``, then where the last one ends."""
    return list(accumulate((len(layer) for layer in c.schedule), initial=0))


def _branch_of(prefix: Sequence[str], bounds: Sequence[int]) -> Branch:
    """The branch of ``reduce_circuit`` that a path takes, or the segment of a prefix that
    ends a layer: each whole layer's outcome labels, in execution order, joined with "|"."""
    return tuple("|".join(prefix[a:b]) for a, b in zip(bounds, bounds[1:]) if b <= len(prefix))


def linearize(c: Circuit) -> tuple[Circuit, Bijection]:
    """Merge each layer into a single gate; one gate per layer afterwards.

    The merged gate's measurements are the tensor products actually
    selected along some path, its outcome labels join the constituent
    labels with "|", and its classical sources are the layers containing
    a source of any constituent. Returns the new circuit and the path
    bijection (old path -> new path). ValueError, naming the violations
    of the new circuit, if a merged measurement is not complete: factors
    complete within tolerance can have a product that is not.
    """
    c.require_valid()
    flat = flattened_gates(c)
    bounds = _layer_bounds(c)
    layers = [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
    merged_ids = ["+".join(layer) for layer in layers]
    if len(set(merged_ids)) != len(merged_ids):
        merged_ids = [f"L{i}:{mid}" for i, mid in enumerate(merged_ids)]
    layer_of_gate = {gid: i for i, layer in enumerate(layers) for gid in layer}
    layer_at = {start: n for n, start in enumerate(bounds)}  # prefix length -> layer it starts

    source_layers: list[list[int]] = []
    for layer in layers:
        srcs = sorted({layer_of_gate[s] for gid in layer for s in c.gates[gid].classical_sources})
        source_layers.append(srcs)

    # Per layer: which measurement-index choice fires under which merged
    # source assignment, read at every coherent prefix that starts the layer.
    # The walk is depth first, so the prefix last seen at the start of layer
    # n - 1 starts the current one: joined[n] extends its merged labels by one.
    choice_of: list[dict[tuple[tuple[str, str], ...], tuple[int, ...]]] = [{} for _ in layers]
    joined: list[Branch] = [()] * len(bounds)
    ends = []
    for prefix, g, _, _ in _walk(c):
        n = layer_at.get(len(prefix))
        if n is None:
            continue
        if n:
            joined[n] = joined[n - 1] + ("|".join(prefix[bounds[n - 1] :]),)
        if g is None:
            ends.append((prefix, joined[n]))
            continue
        when = tuple((merged_ids[i], joined[n][i]) for i in source_layers[n])
        assignment = dict(zip(flat, prefix))
        choice = tuple(
            c.gates[gid].selection.select({s: assignment[s] for s in c.gates[gid].classical_sources})
            for gid in layers[n]
        )
        prev = choice_of[n].setdefault(when, choice)
        assert prev == choice  # selection is a function of its sources
    new_gates: list[Gate] = []
    for n, layer in enumerate(layers):
        choices = sorted(set(choice_of[n].values()))
        index_of = {ch: i for i, ch in enumerate(choices)}
        measurements = tuple(_joint([c.gates[gid].measurements[k] for gid, k in zip(layer, ch)]) for ch in choices)
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
    # Merged from a valid circuit, the linear circuit can fail validation only
    # where a merged measurement is not complete: check that alone, once, and
    # record the result as the linear circuit's violations.
    violations = [x for g in new_gates for x in _completeness_violations(g.gate_id, g.measurements)]
    if violations:
        raise ValueError("; ".join(map(str, violations)))
    linear.violations = violations
    return linear, Bijection.from_pairs((c._path(prefix), linear._path(segment)) for prefix, segment in ends)


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
    for prefix, g, m, _ in _walk(c):
        if g is None:
            nodes[prefix] = TreeNode(None)
            pairs.append((c._path(prefix), prefix))
            continue
        nodes[prefix] = TreeNode(m, wires=g.wires)
    tree = MeasurementTree(
        c.space,
        nodes,
        principal_wires=c.principal_wires,
        ancilla_wires=c.ancilla_wires,
        ancilla_init=c.ancilla_init,
        output_principal_wires=c.output_principal_wires,
    )
    return tree, Bijection.from_pairs(pairs)


def reduce_circuit(c: Circuit) -> tuple[MeasurementTree, Bijection]:
    """Full reduction: linearize, then unfold into a measurement tree.

    The returned bijection maps each original path directly to its branch
    and lists the paths in ``enumerate_paths`` order.
    """
    linear, path_map = linearize(c)
    tree, branch_map = tree_from_linear(linear)
    pairs = [(path, branch_map.forward[path_map.forward[path]]) for path in path_map.forward]
    return tree, Bijection.from_pairs(pairs)
