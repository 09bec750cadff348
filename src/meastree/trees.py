"""Measurement trees: rooted trees whose inner nodes carry measurements,
local to the wires each node names, and whose edges are labeled by outcome.

A branch is the label sequence from the root down to a leaf, and each
node is keyed by its route from the root ``()``: the child of ``key`` on
outcome ``label`` is ``key + (label,)``. The walker and route resolver
that circuits share (``linalg._walk``, ``linalg._edges``) read
``MeasurementTree._expand``. Following a branch multiplies the traversed
outcome operators into one composed operator, so the set of all
branches behaves like a single measurement over branch labels. Running
a tree carries unnormalized states downward and never renormalizes. On
a principal input ``E rho E^dag`` of a tree with a small principal
space it carries ``V = C E`` (``D x d_P``), as the circuit simulator
does, and forms the ``D x D`` output only at the leaves; any other
input carries the ``D x D`` state itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    TOL,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    _branch_output,
    _clamp_probability,
    _edges,
    _input_isometry,
    _resume,
    _sandwich,
    _walk,
    apply_local,
    dagger,
    frob_norm,
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
    """Inner node (a measurement on ``wires``, None for all) or leaf; its children follow from its key."""

    measurement: Measurement | None
    _: KW_ONLY
    wires: tuple[str, ...] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.measurement is None


@dataclass(eq=False)
class MeasurementTree:
    """Nodes keyed by their route: the labels from the root ``()`` down.

    The optional wire-role fields record which wires host the variable
    input (and, when the output is split differently, which wires host
    the result); they are required by the independence analysis but not
    by plain execution.
    """

    space: HilbertSpec
    nodes: dict[Branch, TreeNode]
    _: KW_ONLY
    principal_wires: tuple[str, ...] | None = None
    ancilla_wires: tuple[str, ...] | None = None
    ancilla_init: Ket | None = None
    output_principal_wires: tuple[str, ...] | None = None

    def wires_of(self, node: TreeNode) -> tuple[str, ...]:
        """The wires a node's measurement acts on, in operator order."""
        return self.space.wires if node.wires is None else node.wires

    def branches(self) -> list[Branch]:
        """All leaf segments, depth first, children in declared outcome order."""
        return [key for key, _, m, _ in _walk(self) if m is None]

    def _expand(self, key: Branch) -> tuple[TreeNode, Measurement | None, tuple[str, ...]]:
        """``(node, measurement, wires)`` of the node at ``key``, for ``linalg._walk``:
        its children are keyed ``key + (label,)``. ValueError if there is no node at ``key``."""
        if (node := self.nodes.get(key)) is None:
            raise ValueError(f"the tree has no node at {key!r}")
        return node, node.measurement, self.wires_of(node)

    @property
    def output_principal(self) -> tuple[str, ...] | None:
        if self.output_principal_wires is not None:
            return self.output_principal_wires
        return self.principal_wires

    def has_roles(self) -> bool:
        return self.principal_wires is not None and self.ancilla_init is not None

    @cached_property
    def _isometry(self) -> np.ndarray:
        """The input isometry ``E`` of a tree with roles, read-only, built on first use."""
        return _input_isometry(self)

    @cached_property
    def _ancilla_norm(self) -> float:
        """``|a|`` for the ancilla vector a of a tree with roles."""
        return self.ancilla_init.norm()

    @cached_property
    def _spine(self) -> list[list]:
        """``[label, C E, fan]`` after each edge of the route walked last, from ``[None, E, None]``:
        one block per level, and the images of it under the level's outcomes, if computed."""
        return [[None, self._isometry, None]]

    @cached_property
    def _leaf_isometries(self) -> dict[Branch, np.ndarray]:
        """``V_b`` of each branch analysed so far: one ``D x d_P`` block per leaf."""
        return {}

    @cached_property
    def _branch_svds(self) -> dict[Branch, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per branch, the singular values and leading singular vectors of its reshaped ``V_b``,
        kept by the independence analysis; no tolerance enters them."""
        return {}

    def _branch_isometry(self, branch: Sequence[str]) -> np.ndarray:
        """``V_b = C_b E / |a|`` (D x d_P) of a tree with roles, read-only, computed once per branch.

        The walk resumes from the longest prefix the route shares with the
        route walked last, so a lone branch applies only its own edges and
        the branches taken in ``branches()`` order apply each edge once.
        ValueError if ``branch`` is not a branch of the tree.
        """
        route = tuple(branch)
        if (v := self._leaf_isometries.get(route)) is None:
            block = _route(route, _resume(self, route))
            v = block / self._ancilla_norm  # probabilities per unit input norm
            v.flags.writeable = False
            self._leaf_isometries[route] = v
        return v


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
            nodes[key] = TreeNode(None)
            return
        measurement, subs = struct
        if set(subs) != set(measurement.labels):
            raise ValueError(
                f"children {sorted(subs)} do not match outcomes {sorted(measurement.labels)}"
            )
        nodes[key] = TreeNode(measurement)
        for label in measurement.labels:
            grow(key + (label,), subs[label])

    grow((), structure)
    return MeasurementTree(space, nodes, **roles)


def single_node_tree(space: HilbertSpec, **roles) -> MeasurementTree:
    """The trivial tree: its one branch applies the identity."""
    return build_tree(space, None, **roles)


def validate_tree(t: MeasurementTree) -> list[str]:
    """Structural problems, as human-readable strings."""
    problems: list[str] = []
    if () not in t.nodes:
        return ["no root node keyed ()"]
    init, ancilla = t.ancilla_init, t.ancilla_wires or ()
    if init is not None:
        if not set(ancilla) <= set(t.space.wires) or len(init.vector) != t.space.restrict(ancilla).dim:
            problems.append("ancilla_init does not live on the ancilla wires")
        elif not abs(init.norm() - 1.0) <= 1e-9:
            problems.append(f"ancilla_init norm {init.norm():.6f} != 1")
    seen: set[Branch] = set()
    stack: list[Branch] = [()]  # preorder, each child keyed by its route
    while stack:
        key = stack.pop()
        if key not in t.nodes:
            problems.append(f"node {key[:-1]!r}: missing child {key!r}")
            continue
        seen.add(key)
        node = t.nodes[key]
        if node.is_leaf:
            continue
        m = node.measurement
        wires = t.wires_of(node)
        if not set(wires) <= set(t.space.wires) or len(set(wires)) != len(wires):
            problems.append(f"node {key!r}: wires {list(wires)} are unknown or repeated")
        elif m.dim != (local := t.space.restrict(wires).dim):
            problems.append(f"node {key!r}: measurement dim {m.dim} != dim {local} of its wires")
        defect = m.completeness_defect()
        if not defect <= TOL.complete:
            problems.append(f"node {key!r}: completeness defect {defect:.3e}")
        stack.extend(key + (label,) for label in reversed(m.labels))

    unreachable = set(t.nodes) - seen
    if unreachable and not problems:
        problems.append(f"{len(unreachable)} nodes unreachable from the root")
    return problems


def _route(route: Branch, resolved):
    """``resolved``, what ``linalg._edges`` or ``linalg._resume`` gave for ``route``;
    ValueError if that is None: ``route`` is not a branch, which must end at a leaf."""
    if resolved is None:
        raise ValueError(f"{route!r} is not a branch of the tree")
    return resolved


def run_tree(
    t: MeasurementTree, sigma0: DensityOperator
) -> dict[Branch, tuple[float, np.ndarray]]:
    """Per-branch probability and unnormalized output state.

    A branch's probability is its output's trace over the input's trace,
    so it does not depend on the input's scale; below a running state
    that hits zero, outputs and probabilities are zero.

    A principal input ``sigma0 = E rho E^dag`` on a tree whose principal
    space is at most an eighth of the whole carries the ``D x d_P`` block
    ``V = C E`` down each edge and gives ``V rho V^dag`` at each leaf, as
    the circuit simulator does. Any other input carries the ``D x D``
    state and applies each edge on both sides.
    """
    if sigma0.matrix.shape[0] != t.space.dim:
        raise ValueError(f"input dim {sigma0.matrix.shape[0]} != tree space dim {t.space.dim}")
    if (t0 := sigma0.trace()) <= TOL.zero:
        raise ValueError("input state has zero trace")
    sigma = np.asarray(sigma0.matrix, dtype=complex)
    if (rho := _principal_part(t, sigma)) is not None:
        walk = _walk(t, t._isometry)
        return {key: _branch_output(v, rho, t0) for key, _, m, v in walk if m is None}
    walk = _walk(t, sigma, apply=_sandwich)
    return {key: (_clamp_probability(float(s.trace().real) / t0), s) for key, _, m, s in walk if m is None}


def _principal_part(t: MeasurementTree, sigma: np.ndarray) -> np.ndarray | None:
    """``rho`` with ``sigma = E rho E^dag`` up to rounding, or None.

    Only a tree with roles and ``8 d_P <= D`` is tested: where d_P is
    larger, the leaf products ``V rho V^dag`` cost more than carrying
    ``sigma`` saves. ``E^dag E = |a|^2 Id`` for the ancilla vector a,
    so ``rho = E^dag sigma E / |a|^4``, and sigma is accepted when
    ``E rho E^dag`` gives it back within 64 machine epsilons of its norm.
    """
    if not t.has_roles() or 8 * t.space.restrict(t.principal_wires).dim > t.space.dim:
        return None
    e = t._isometry
    rho = dagger(e) @ sigma @ e / t._ancilla_norm ** 4
    residual = e @ rho @ dagger(e)
    residual -= sigma
    if frob_norm(residual) > 64 * np.finfo(float).eps * frob_norm(sigma):
        return None
    return rho


def branch_operator(t: MeasurementTree, branch: Sequence[str]) -> np.ndarray:
    """Composition of the branch's outcome operators, deepest applied last.

    The empty branch of a single-node tree gives the identity.
    """
    op = identity(t.space.dim)
    route = tuple(branch)
    for label, m, wires in _route(route, _edges(t, route)):
        op = apply_local(m.outcomes[label], wires, op, t.space)
    return op


def route_label(branch: Sequence[str]) -> str:
    """Serialize a branch as a single outcome label."""
    return "/".join(branch)


def branch_measurement(t: MeasurementTree) -> Measurement:
    """One measurement holding every branch's composed operator.

    Labels are serialized branch routes. Individual operators may be zero
    (orthogonal compositions); the family as a whole is complete.
    """
    walk = _walk(t, identity(t.space.dim))
    return Measurement.of({route_label(key): op for key, _, m, op in walk if m is None})


def branch_probability(t: MeasurementTree, branch: Sequence[str], sigma: DensityOperator) -> float:
    """Closed-form branch probability Tr(C sigma C^dag) / Tr(sigma)."""
    return outcome_probability(branch_operator(t, branch), sigma)


def attainable(t: MeasurementTree, branch: Sequence[str], sigma: DensityOperator) -> bool:
    """Can this branch occur on this input, i.e. is its probability nonzero?"""
    return branch_probability(t, branch, sigma) > TOL.zero
