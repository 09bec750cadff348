"""Measurement trees: rooted trees whose inner nodes carry measurements,
local to the wires each node names, and whose edges are labeled by outcome.

A branch is the label sequence from the root down to a leaf. Following a
branch multiplies the traversed outcome operators into one composed
operator, so the set of all branches behaves like a single measurement
over branch labels. Running a tree carries unnormalized states downward
and never renormalizes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    TOL,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    _clamp_probability,
    _input_isometry,
    apply_local,
    identity,
    outcome_probability,
)

__all__ = [
    "TreeNode",
    "MeasurementTree",
    "build_tree",
    "single_node_tree",
    "validate_tree",
    "run_tree",
    "branch_operator",
    "branch_measurement",
    "branch_probability",
    "attainable",
    "route_label",
]

Branch = tuple[str, ...]


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Inner node (a measurement on ``wires``, None for all, plus one child per outcome) or leaf."""

    measurement: Measurement | None
    children: dict[str, Branch]
    wires: tuple[str, ...] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.measurement is None


@dataclass(eq=False)
class MeasurementTree:
    """Nodes keyed by their branch segment: the labels from the root down.

    The optional wire-role fields record which wires host the variable
    input (and, when the output is split differently, which wires host
    the result); they are required by the independence analysis but not
    by plain execution.
    """

    space: HilbertSpec
    root: Branch
    nodes: dict[Branch, TreeNode]
    principal_wires: tuple[str, ...] | None = None
    ancilla_wires: tuple[str, ...] | None = None
    ancilla_init: Ket | None = None
    output_principal_wires: tuple[str, ...] | None = None

    def wires_of(self, node: TreeNode) -> tuple[str, ...]:
        """The wires a node's measurement acts on, in operator order."""
        return self.space.wires if node.wires is None else node.wires

    def branches(self) -> list[Branch]:
        """All leaf segments, depth first, children in declared outcome order."""
        return [key for key, node, _ in _descend(self) if node.is_leaf]

    @property
    def output_principal(self) -> tuple[str, ...] | None:
        if self.output_principal_wires is not None:
            return self.output_principal_wires
        return self.principal_wires

    @property
    def output_ancilla(self) -> tuple[str, ...] | None:
        out = self.output_principal
        if out is None:
            return None
        return tuple(w for w in self.space.wires if w not in set(out))

    def has_roles(self) -> bool:
        return self.principal_wires is not None and self.ancilla_init is not None

    @cached_property
    def _isometry(self) -> np.ndarray:
        """The input isometry ``E`` of a tree with roles, read-only, built on first use."""
        return _input_isometry(self)


def build_tree(
    space: HilbertSpec,
    structure,
    **roles,
) -> MeasurementTree:
    """Build a tree from nested ``(measurement, {label: substructure})`` pairs.

    ``None`` stands for a leaf. Every outcome label of a node's
    measurement must be mapped to a substructure.
    """
    nodes: dict[Branch, TreeNode] = {}

    def grow(key: Branch, struct) -> None:
        if struct is None:
            nodes[key] = TreeNode(None, {})
            return
        measurement, subs = struct
        if set(subs) != set(measurement.labels):
            raise ValueError(
                f"children {sorted(subs)} do not match outcomes {sorted(measurement.labels)}"
            )
        nodes[key] = TreeNode(measurement, {label: key + (label,) for label in measurement.labels})
        for label in measurement.labels:
            grow(key + (label,), subs[label])

    grow((), structure)
    return MeasurementTree(space=space, root=(), nodes=nodes, **roles)


def single_node_tree(space: HilbertSpec, **roles) -> MeasurementTree:
    """The trivial tree: its one branch applies the identity."""
    return build_tree(space, None, **roles)


def validate_tree(t: MeasurementTree) -> list[str]:
    """Structural problems, as human-readable strings."""
    problems: list[str] = []
    if t.root not in t.nodes:
        return [f"root {t.root!r} is not a node"]
    init, ancilla = t.ancilla_init, t.ancilla_wires or ()
    if init is not None:
        if not set(ancilla) <= set(t.space.wires) or len(init.vector) != t.space.restrict(ancilla).dim:
            problems.append("ancilla_init does not live on the ancilla wires")
        elif not abs(init.norm() - 1.0) <= 1e-9:
            problems.append(f"ancilla_init norm {init.norm():.6f} != 1")
    seen: set[Branch] = set()
    stack: list[tuple[Branch, Branch | None]] = [(t.root, None)]  # (node, its parent), preorder
    while stack:
        key, parent = stack.pop()
        if key not in t.nodes:
            problems.append(f"node {parent!r}: missing child {key!r}")
            continue
        if key in seen:
            problems.append(f"node {key!r} reached twice")
            continue
        seen.add(key)
        node = t.nodes[key]
        if node.is_leaf:
            if node.children:
                problems.append(f"leaf {key!r} has children")
            continue
        m = node.measurement
        if set(node.children) != set(m.labels):
            problems.append(f"node {key!r}: edge labels do not match outcomes")
            continue
        wires = t.wires_of(node)
        if not set(wires) <= set(t.space.wires) or len(set(wires)) != len(wires):
            problems.append(f"node {key!r}: wires {list(wires)} are unknown or repeated")
        elif m.dim != (local := t.space.restrict(wires).dim):
            problems.append(f"node {key!r}: measurement dim {m.dim} != dim {local} of its wires")
        defect = m.completeness_defect()
        if not defect <= TOL.complete:
            problems.append(f"node {key!r}: completeness defect {defect:.3e}")
        stack.extend((child, key) for child in reversed(node.children.values()))

    unreachable = set(t.nodes) - seen
    if unreachable and not problems:
        problems.append(f"{len(unreachable)} nodes unreachable from the root")
    return problems


def _descend(t: MeasurementTree, x=None, step=None, route: Sequence[str] | None = None):
    """Depth first over the nodes of ``t``, carrying ``x`` down each edge.

    Yields ``(key, node, x)`` in preorder, children in declared outcome
    order. The edge of outcome operator L, on ``wires``, turns x into
    ``step(L, wires, x)``, by default ``apply_local(L, wires, x, t.space)``.
    ``route`` walks one branch only and raises ValueError if it is none.
    """
    stack = [(t.root, 0, x, None, None)]
    while stack:
        key, depth, x, op, wires = stack.pop()
        if op is not None and x is not None:
            x = step(op, wires, x) if step else apply_local(op, wires, x, t.space)
        node = t.nodes[key] if route is None else t.nodes.get(key)
        if route is None:
            labels = () if node.is_leaf else node.measurement.labels
        else:
            labels = tuple(route[depth : depth + 1])
            if node is None or node.is_leaf != (not labels) or not set(labels) <= set(node.children):
                raise ValueError(f"{tuple(route)!r} is not a branch of the tree")
        yield key, node, x
        for label in reversed(labels):
            stack.append((node.children[label], depth + 1, x, node.measurement.operator(label), t.wires_of(node)))


def run_tree(
    t: MeasurementTree, sigma0: DensityOperator
) -> dict[Branch, tuple[float, np.ndarray]]:
    """Per-branch probability and unnormalized output state.

    A branch's probability is its output's trace over the input's trace,
    so it does not depend on the input's scale; below a running state
    that hits zero, outputs and probabilities are zero.
    """
    if sigma0.matrix.shape[0] != t.space.dim:
        raise ValueError(f"input dim {sigma0.matrix.shape[0]} != tree space dim {t.space.dim}")
    if (t0 := sigma0.trace()) <= TOL.zero:
        raise ValueError("input state has zero trace")

    def step(op: np.ndarray, wires: tuple[str, ...], sigma: np.ndarray) -> np.ndarray:
        left = apply_local(op, wires, sigma, t.space)
        return apply_local(op.conj(), wires, left.T, t.space).T  # L sigma L^dag

    walk = _descend(t, np.asarray(sigma0.matrix, dtype=complex), step)
    return {key: (_clamp_probability(float(s.trace().real) / t0), s) for key, node, s in walk if node.is_leaf}


def branch_operator(t: MeasurementTree, branch: Sequence[str]) -> np.ndarray:
    """Composition of the branch's outcome operators, deepest applied last.

    The empty branch of a single-node tree gives the identity.
    """
    *_, (_, _, op) = _descend(t, identity(t.space.dim), route=tuple(branch))
    return op


def route_label(branch: Sequence[str]) -> str:
    """Serialize a branch as a single outcome label."""
    return "/".join(branch)


def branch_measurement(t: MeasurementTree) -> Measurement:
    """One measurement holding every branch's composed operator.

    Labels are serialized branch routes. Individual operators may be zero
    (orthogonal compositions); the family as a whole is complete.
    """
    walk = _descend(t, identity(t.space.dim))
    return Measurement.of({route_label(key): op for key, node, op in walk if node.is_leaf})


def branch_probability(t: MeasurementTree, branch: Sequence[str], sigma: DensityOperator) -> float:
    """Closed-form branch probability Tr(C sigma C^dag) / Tr(sigma)."""
    return outcome_probability(branch_operator(t, branch), sigma)


def attainable(t: MeasurementTree, branch: Sequence[str], sigma: DensityOperator) -> bool:
    """Can this branch occur on this input, i.e. is its probability nonzero?"""
    return branch_probability(t, branch, sigma) > TOL.zero
