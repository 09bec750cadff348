"""Measurement trees: rooted trees whose inner nodes carry full-space
measurements and whose edges are labeled by outcome.

A branch is the label sequence from the root down to a leaf. Following a
branch multiplies the traversed outcome operators into one composed
operator, so the set of all branches behaves like a single measurement
over branch labels. Running a tree carries unnormalized states downward
and never renormalizes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    _clamp_probability,
    dagger,
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
    """Inner node (a measurement plus one child per outcome) or leaf (None)."""

    measurement: Measurement | None
    children: dict[str, Branch]

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

    def node(self, key: Branch) -> TreeNode:
        return self.nodes[key]

    def branches(self) -> list[Branch]:
        """All leaf segments, depth first, children in declared outcome order."""
        out: list[Branch] = []

        def walk(key: Branch) -> None:
            node = self.nodes[key]
            if node.is_leaf:
                out.append(key)
                return
            for label in node.measurement.labels:
                walk(node.children[label])

        walk(self.root)
        return out

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
        children = {}
        for label in measurement.labels:
            child = key + (label,)
            children[label] = child
        nodes[key] = TreeNode(measurement, children)
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
    seen: set[Branch] = set()

    def walk(key: Branch) -> None:
        if key in seen:
            problems.append(f"node {key!r} reached twice")
            return
        seen.add(key)
        node = t.nodes[key]
        if node.is_leaf:
            if node.children:
                problems.append(f"leaf {key!r} has children")
            return
        m = node.measurement
        if set(node.children) != set(m.labels):
            problems.append(f"node {key!r}: edge labels do not match outcomes")
            return
        if m.dim != t.space.dim:
            problems.append(f"node {key!r}: measurement dim {m.dim} != space dim {t.space.dim}")
        defect = m.completeness_defect()
        if not defect <= TOL.complete:
            problems.append(f"node {key!r}: completeness defect {defect:.3e}")
        for label, child in node.children.items():
            if child not in t.nodes:
                problems.append(f"node {key!r}: missing child {child!r}")
                continue
            walk(child)

    walk(t.root)
    unreachable = set(t.nodes) - seen
    if unreachable and not problems:
        problems.append(f"{len(unreachable)} nodes unreachable from the root")
    return problems


def _require_branch(t: MeasurementTree, branch: Sequence[str]) -> Branch:
    key = t.root
    for label in branch:
        node = t.nodes.get(key)
        if node is None or node.is_leaf or label not in node.children:
            raise ValueError(f"{tuple(branch)!r} is not a branch of the tree")
        key = node.children[label]
    node = t.nodes.get(key)
    if node is None or not node.is_leaf:
        raise ValueError(f"{tuple(branch)!r} is not a branch of the tree")
    return tuple(branch)


def run_tree(
    t: MeasurementTree, sigma0: DensityOperator
) -> dict[Branch, tuple[float, np.ndarray]]:
    """Per-branch probability and unnormalized output state.

    Probabilities multiply the stepwise trace ratios down each branch;
    once a running state hits zero the rest of that subtree is reported
    with probability zero and zero outputs.
    """
    if sigma0.matrix.shape[0] != t.space.dim:
        raise ValueError(f"input dim {sigma0.matrix.shape[0]} != tree space dim {t.space.dim}")
    if sigma0.trace() <= TOL.zero:
        raise ValueError("input state has zero trace")
    results: dict[Branch, tuple[float, np.ndarray]] = {}

    def walk(key: Branch, sigma: np.ndarray, prob: float) -> None:
        node = t.nodes[key]
        if node.is_leaf:
            results[key] = (_clamp_probability(prob), sigma)
            return
        t_here = float(sigma.trace().real)
        for label in node.measurement.labels:
            op = node.measurement.operator(label)
            child_sigma = op @ sigma @ dagger(op)
            if t_here <= TOL.zero:
                step = 0.0
            else:
                step = max(float(child_sigma.trace().real) / t_here, 0.0)
            walk(node.children[label], child_sigma, prob * step)

    walk(t.root, np.asarray(sigma0.matrix, dtype=complex), 1.0)
    return results


def branch_operator(t: MeasurementTree, branch: Sequence[str]) -> np.ndarray:
    """Composition of the branch's outcome operators, deepest applied last.

    The empty branch of a single-node tree gives the identity.
    """
    _require_branch(t, branch)
    op = identity(t.space.dim)
    key = t.root
    for label in branch:
        node = t.nodes[key]
        op = node.measurement.operator(label) @ op
        key = node.children[label]
    return op


def route_label(branch: Sequence[str]) -> str:
    """Serialize a branch as a single outcome label."""
    return "/".join(branch)


def branch_measurement(t: MeasurementTree) -> Measurement:
    """One measurement holding every branch's composed operator.

    Labels are serialized branch routes. Individual operators may be zero
    (orthogonal compositions); the family as a whole is complete.
    """
    return Measurement.of({route_label(b): branch_operator(t, b) for b in t.branches()})


def branch_probability(t: MeasurementTree, branch: Sequence[str], sigma: DensityOperator) -> float:
    """Closed-form branch probability Tr(C sigma C^dag) / Tr(sigma)."""
    return outcome_probability(branch_operator(t, branch), sigma)


def attainable(t: MeasurementTree, branch: Sequence[str], sigma: DensityOperator) -> bool:
    """Can this branch occur on this input, i.e. is its probability nonzero?"""
    return branch_probability(t, branch, sigma) > TOL.zero
