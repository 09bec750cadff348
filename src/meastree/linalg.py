"""Dense complex linear algebra on named tensor factors.

Wires name the factors of a finite-dimensional tensor-product space.
States are density operators: Hermitian, positive semidefinite, with
positive trace. Traces need not equal 1, and nothing in this package
renormalizes a state behind the caller's back. A measurement is a finite
ordered family of operators ``L_i`` with ``sum_i L_i^dag L_i = Id``;
a unitary is the single-outcome special case.

Circuits and trees share one walker, ``_walk``, and one route
resolver, ``_edges``. Both read a prefix, the tuple of outcome labels
from the root, through the circuit's or the tree's ``_expand`` step.
Both inherit their role memos from ``_Roles``: the input isometry
``E``, the ancilla norm ``|a|`` and the spine of the route walked last.
``_walk`` visits every prefix; one route is followed a level at a time
with ``_child``, which gives one outcome's image of a level's block.
``_resume`` carries a block down a route from the route walked last,
stepping ``_child`` along the edges that ``_edges`` resolves below the
prefix the two share.

Outcome operators are applied by one kernel, ``_apply_stack``: it
applies a measurement's read-only outcome stack ``(n, d, d)``
(``Measurement._stack``) to one block in a single ``np.matmul``, in
``O(n * d_local * D * k)``, or row i to block i of a stack of blocks.
``apply_local`` is its one-row case. All outcomes of a measurement act
on the same parent block, so the walk makes one kernel call per inner
prefix, not one per edge, and ``_child`` keeps that fan of sibling
images on its level: a route that parts from the one walked last at a
level reuses a sibling there and applies nothing. The fan is stacked
only while its ``n`` images and ``n`` operators fit in
``_STACK_BYTES`` (``_fans``); above that a stacked product misses cache
and is slower than ``n`` single ones, and edges are applied one by one,
each operator through the same kernel as a one-row stack.

Leaves are finished the same way: ``_chunks`` cuts a walk's leaves into
runs of consecutive blocks that fit in ``_STACK_BYTES`` with their
``D x D`` outputs, ``_outputs`` makes a run's outputs ``V rho V^dag``
in one matmul pair (``_branch_output`` is its single-block case) and
``_probabilities`` their traces in one batched trace, as
``_partial_traces`` reduces a stack of outputs in one einsum
(``partial_trace_matrix`` is its one-row case).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TOL",
    "Tolerances",
    "configure_tolerances",
    "HilbertSpec",
    "Ket",
    "DensityOperator",
    "Measurement",
    "dagger",
    "frob_norm",
    "identity",
    "basis_ket",
    "projector",
    "haar_ket",
    "random_unitary",
    "tensor_product",
    "tensor_measurements",
    "apply_kraus",
    "outcome_probability",
    "partial_trace",
    "partial_trace_matrix",
    "lift_operator",
    "apply_local",
    "permute_wires",
    "permute_ket",
    "embed_principal",
    "bipartition_ket",
    "measure_z",
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "CNOT",
    "SWAP",
]


class _cached_property:
    """``functools.cached_property`` without its per-class lock (as on Python 3.12): the value
    is computed on first read and stored in the instance ``__dict__``, where every later
    read finds it before the descriptor, so it is computed once per instance."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass
class Tolerances:
    """Numerical thresholds used by validation checks.

    ``complete``, ``herm`` and ``psd`` bound, relative to scale, how far a
    measurement may sit from completeness and a state from Hermitian
    positive semidefiniteness. Traces and probabilities at or below
    ``zero`` count as exactly zero.
    """

    complete: float = 1e-9
    herm: float = 1e-9
    psd: float = 1e-9
    zero: float = 1e-12


# Global tolerance pack. `configure_tolerances` adjusts its validation
# entries; the CLI applies the MEASTREE_TOL environment variable through
# it for one invocation and restores the pack when the invocation ends.
TOL = Tolerances()


def configure_tolerances(value: float | None = None, *, zero: float | None = None) -> None:
    """Override the validation tolerances (completeness/hermiticity/psd).

    ``zero`` adjusts the is-it-exactly-zero threshold separately and is
    rarely needed.
    """
    if value is not None:
        v = float(value)
        if not (0 < v < 1):
            raise ValueError(f"tolerance must be in (0, 1), got {value!r}")
        TOL.complete = TOL.herm = TOL.psd = v
    if zero is not None:
        TOL.zero = float(zero)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def frob_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec: Sequence[complex] | np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, np.conj(v))


def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix, phases fixed)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class HilbertSpec:
    """Ordered tensor factors of a composite space, one per named wire.

    The empty spec is legal and describes the one-dimensional space, which
    is what a system with no ancilla wires lives next to.
    """

    factors: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, factors: Iterable[tuple[str, int]]) -> "HilbertSpec":
        fs = tuple((str(w), int(d)) for w, d in factors)
        wires = [w for w, _ in fs]
        if len(set(wires)) != len(wires):
            raise ValueError(f"duplicate wire ids in {wires}")
        for w, d in fs:
            if d < 1:
                raise ValueError(f"wire {w!r} has dimension {d} < 1")
        return cls(fs)

    @_cached_property
    def wires(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.factors)

    def __hash__(self) -> int:
        # computed once: the kernel's plan cache hashes the spec on every call
        return self._hash

    @_cached_property
    def _hash(self) -> int:
        return hash(self.factors)

    @_cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims) if self.factors else 1

    def dim_of(self, wire: str) -> int:
        for w, d in self.factors:
            if w == wire:
                return d
        raise ValueError(f"unknown wire {wire!r}")

    def index(self, wire: str) -> int:
        for i, (w, _) in enumerate(self.factors):
            if w == wire:
                return i
        raise ValueError(f"unknown wire {wire!r}")

    def restrict(self, wires: Iterable[str]) -> "HilbertSpec":
        """Sub-spec of the named wires, kept in this spec's order."""
        keep = set(wires)
        unknown = keep - set(self.wires)
        if unknown:
            raise ValueError(f"unknown wires {sorted(unknown)}")
        return HilbertSpec(tuple((w, d) for w, d in self.factors if w in keep))


@dataclass(frozen=True, eq=False)
class Ket:
    """Column vector together with the wire layout of the space it lives in."""

    vector: np.ndarray
    space: HilbertSpec

    @classmethod
    def of(cls, vector: Sequence[complex] | np.ndarray, space: HilbertSpec | None = None) -> "Ket":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if space is None:
            space = HilbertSpec.of([("q0", len(v))])
        if len(v) != space.dim:
            raise ValueError(f"vector has length {len(v)}, space has dimension {space.dim}")
        return cls(v, space)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unnormalized state: Hermitian, PSD, trace strictly positive.

    The constructor is trusting; ``DensityOperator.of`` validates. The
    zero matrix is never a valid state, so operations that can produce it
    (a probability-zero measurement outcome) signal that case explicitly
    instead of returning an instance.
    """

    matrix: np.ndarray
    space: HilbertSpec

    @classmethod
    def of(
        cls,
        matrix: Sequence[Sequence[complex]] | np.ndarray,
        space: HilbertSpec | None = None,
    ) -> "DensityOperator":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if space is None:
            space = HilbertSpec.of([("q0", m.shape[0])])
        if m.shape[0] != space.dim:
            raise ValueError(f"matrix has dimension {m.shape[0]}, space has {space.dim}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        with np.errstate(over="ignore"):  # a norm that overflows reads as inf, with no RuntimeWarning
            scale = frob_norm(m)
            if not math.isfinite(scale):  # the tolerances scale with this norm: at inf they test nothing
                raise ValueError("matrix is too large: its norm overflows")
            if frob_norm(m - dagger(m)) > TOL.herm * scale:
                raise ValueError("matrix is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if eigs.size and float(eigs[0]) < -TOL.psd * scale:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
        if m.trace().real <= TOL.zero:
            raise ValueError("trace must be strictly positive")
        return cls(m, space)

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def normalized(self) -> "DensityOperator":
        """Explicitly rescale to unit trace."""
        return DensityOperator(self.matrix / self.trace(), self.space)


@dataclass(frozen=True, eq=False)
class Measurement:
    """Ordered family of outcome operators with sum_i L_i^dag L_i = Id.

    Outcome labels are strings, unique within the family. Individual
    operators may be zero; only the completeness sum is constrained.
    The plain constructor trusts its input, ``Measurement.of`` validates.
    """

    outcomes: dict[str, np.ndarray]

    @classmethod
    def of(cls, outcomes: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]]) -> "Measurement":
        items = list(outcomes.items()) if isinstance(outcomes, Mapping) else list(outcomes)
        if not items:
            raise ValueError("a measurement needs at least one outcome")
        labels = [str(l) for l, _ in items]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels in {labels}")
        ops = [np.asarray(op, dtype=complex) for _, op in items]
        d = ops[0].shape[0] if ops[0].ndim == 2 else -1
        for label, op in zip(labels, ops):
            if op.ndim != 2 or op.shape != (d, d):
                raise ValueError(f"outcome {label!r} has shape {op.shape}, expected ({d}, {d})")
        m = cls(dict(zip(labels, ops)))
        defect = m.completeness_defect()
        if not defect <= TOL.complete:
            raise ValueError(f"not complete: ||sum L^dag L - Id||_F = {defect:.3e}")
        return m

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.outcomes)

    @property
    def dim(self) -> int:
        return next(iter(self.outcomes.values())).shape[0]

    def operator(self, label: str) -> np.ndarray:
        return self.outcomes[label]

    def completeness_defect(self) -> float:
        total = sum(dagger(op) @ op for op in self.outcomes.values())
        return frob_norm(total - identity(self.dim))

    @_cached_property
    def _stack(self) -> np.ndarray:
        """The outcome operators in label order as one read-only ``(n, d, d)`` stack, built on first use."""
        stack = np.array(list(self.outcomes.values()))
        stack.flags.writeable = False
        return stack


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first argument's indices are the major ones."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each pair of matrices of two stacks ``(na, m, n)`` and ``(nb, p, q)``, bit
    for bit, as one broadcast product: the ``na * nb`` products, ``a``'s index major."""
    (na, m, n), (nb, p, q) = a.shape, b.shape
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(na * nb, m * p, n * q)


def tensor_measurements(measurements: Sequence[Measurement]) -> Measurement:
    """Tensor a sequence of measurements into one joint measurement.

    Outcome labels are joined with "|" in argument order, so constituent
    labels of a genuine (length >= 2) product must not contain "|". The
    joint family is complete whenever the factors are.
    """
    return Measurement.of(_joint(measurements).outcomes)


def _joint(measurements: Sequence[Measurement]) -> Measurement:
    """``tensor_measurements`` before its completeness check. The joint outcome stack
    is one broadcast product per factor, and each joint operator a read-only row
    of it; a single factor is returned as is."""
    ms = list(measurements)
    if not ms:
        raise ValueError("need at least one measurement")
    if len(ms) == 1:
        return ms[0]
    for m in ms:
        for label in m.labels:
            if "|" in label:
                raise ValueError(f"label {label!r} contains the reserved separator '|'")
    labels = ["|".join(combo) for combo in itertools.product(*(m.labels for m in ms))]
    stack = ms[0]._stack
    for m in ms[1:]:
        stack = _kron(stack, m._stack)
    stack = stack.astype(complex, copy=False)
    stack.flags.writeable = False
    joint = Measurement(dict(zip(labels, stack)))  # each operator a row of the stack
    joint.__dict__["_stack"] = stack
    return joint


def apply_kraus(op: np.ndarray, rho: DensityOperator) -> DensityOperator | None:
    """Unnormalized post-measurement state ``L rho L^dag``.

    Returns None when the result is the zero matrix, i.e. the outcome has
    probability zero on this state.
    """
    out = op @ rho.matrix @ dagger(op)
    if frob_norm(out) <= TOL.zero * frob_norm(rho.matrix):
        return None
    return DensityOperator(out, rho.space)


def outcome_probability(op: np.ndarray, rho: DensityOperator) -> float:
    """Born probability Tr(L rho L^dag) / Tr(rho) of one outcome operator."""
    t = rho.trace()
    if t <= TOL.zero:
        raise ValueError("state has zero trace")
    p = float(np.trace(op @ rho.matrix @ dagger(op)).real) / t
    return _clamp_probability(p)


def _branch_output(v: np.ndarray, rho: np.ndarray, t0: float) -> tuple[float, np.ndarray]:
    """A branch's probability and output from its carried block ``V = C E``:
    the output is ``V rho V^dag`` and the probability its trace over ``t0``.
    The single-block case of ``_outputs``, without a stack around it."""
    sigma = _outputs(v, rho)
    return _clamp_probability(float(sigma.trace().real) / t0), sigma


def _outputs(vs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The output ``V rho V^dag`` of a carried block ``V = C E``, or the ``(m, D, D)``
    stack of outputs of an ``(m, D, k)`` stack of blocks, from one matmul pair. A
    stacked ``np.matmul`` runs each slice's own product, so each output equals
    its block's alone bit for bit."""
    return vs @ rho @ vs.conj().swapaxes(-1, -2)


def _probabilities(sigmas: np.ndarray, t0: float) -> tuple[list[float], list[float]]:
    """The traces of an ``(m, D, D)`` stack of outputs, from one batched trace, and
    each over ``t0`` as a probability."""
    traces = sigmas.trace(axis1=1, axis2=2).real.tolist()
    return [_clamp_probability(t / t0) for t in traces], traces


def _clamp_probability(p: float, slack: float = 1e-9) -> float:
    if -slack <= p <= 0.0:  # also turns -0.0 into 0.0
        return 0.0
    if 1.0 < p <= 1.0 + slack:
        return 1.0
    return p


def permute_ket(vec: np.ndarray, space: HilbertSpec, new_order: Sequence[str]) -> np.ndarray:
    """Reorder the tensor factors of a vector, or of each column of a block, into ``new_order``."""
    wires = space.wires
    if sorted(new_order) != sorted(wires):
        raise ValueError(f"{list(new_order)} is not a permutation of {list(wires)}")
    v = np.asarray(vec, dtype=complex)
    t = v.reshape(space.dims + v.shape[1:])
    axes = [space.index(w) for w in new_order]
    return t.transpose(axes + list(range(len(axes), t.ndim))).reshape(v.shape)


def permute_wires(mat: np.ndarray, space: HilbertSpec, new_order: Sequence[str]) -> np.ndarray:
    """Reorder an operator's tensor factors into ``new_order``: rows, then columns."""
    rows = permute_ket(np.asarray(mat, dtype=complex).reshape(space.dim, space.dim), space, new_order)
    return permute_ket(rows.T, space, new_order).T


def embed_principal(roles, x: np.ndarray) -> np.ndarray:
    """The joint input ``x (x) ancilla`` with its factors in space order.

    ``roles`` is a circuit or a tree with wire roles: its ``space``,
    ``principal_wires``, ``ancilla_wires`` and ``ancilla_init``. ``x`` is
    a principal ket (1-D), tensored with the ancilla vector, or a
    principal operator (2-D), tensored with the ancilla projector: ``E x``
    or ``E x E^dag`` for the input isometry E.
    """
    e = _input_isometry(roles)
    return e @ x if np.ndim(x) == 1 else e @ x @ dagger(e)


def _input_isometry(roles) -> np.ndarray:
    """``E`` (D x d_P), whose column i is ``e_i (x) ancilla`` with its factors
    in space order: the one place a principal input meets the ancilla."""
    space = roles.space
    src = HilbertSpec.of([(w, space.dim_of(w)) for w in roles.principal_wires + roles.ancilla_wires])
    anc = roles.ancilla_init.vector
    e = permute_ket(np.kron(identity(src.dim // len(anc)), anc[:, None]), src, space.wires)
    e.flags.writeable = False  # callers cache E and share it across walks
    return e


class _Roles:
    """The memos of the wire roles that circuits and trees share: ``E``, ``|a|`` and the spine
    that ``_resume`` keeps. A subclass has ``space``, ``principal_wires``, ``ancilla_wires``,
    ``ancilla_init`` and ``output_principal_wires``."""

    @property
    def output_principal(self) -> tuple[str, ...] | None:
        return self.output_principal_wires if self.output_principal_wires is not None else self.principal_wires

    @_cached_property
    def _isometry(self) -> np.ndarray:
        """The input isometry ``E``, read-only, built on first use."""
        return _input_isometry(self)

    @_cached_property
    def _ancilla_norm(self) -> float:
        """``|a|`` for the ancilla vector a."""
        return self.ancilla_init.norm()

    @_cached_property
    def _spine(self) -> list[list]:
        """``[label, C E, fan]`` after each edge of the route walked last, from ``[None, E, None]``:
        one block per level, and the images of it under the level's outcomes, if computed (``_resume``)."""
        return [[None, self._isometry, None]]


def lift_operator(op: np.ndarray, on: Sequence[str], space: HilbertSpec) -> np.ndarray:
    """Embed a local operator into the full space.

    ``op`` acts on the wires listed in ``on`` (in that order) and as the
    identity on every other wire of ``space``. The result's factors are in
    ``space`` order.
    """
    on = [str(w) for w in on]
    if len(set(on)) != len(on):
        raise ValueError(f"repeated wires in {on}")
    d_on = math.prod(space.dim_of(w) for w in on) if on else 1
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_on, d_on):
        raise ValueError(f"operator shape {op.shape} does not match wire dims (local dim {d_on})")
    rest = [w for w in space.wires if w not in set(on)]
    d_rest = math.prod(space.dim_of(w) for w in rest) if rest else 1
    big = np.kron(op, identity(d_rest))
    src = HilbertSpec.of([(w, space.dim_of(w)) for w in on + rest])
    return permute_wires(big, src, space.wires)


# The largest fan of images, in bytes, that one stacked kernel call may
# write, and the largest chunk of leaf blocks, with their outputs, that
# one stacked output product may read and write (``_chunks``). Above it
# the stacked product misses cache and is slower than applying the
# edges one by one. Measured with single-threaded BLAS on a
# 2-core VM: on a 256 x 256 two-sided block, a 4-wire node with 16
# outcomes (a 16 MiB fan) took 24.1 ms stacked against 16.6 ms edge by
# edge; 1-2 MiB fans broke even; a 256 KiB fan (64 x 64, 4 outcomes)
# took 0.73 of the edge-by-edge time. Without the bound, run_tree on the
# d_P = 128 tree of the ``wide`` benchmark took 19.1 ms against 13.8 ms.
# Blocks of the narrow carry and of small spaces stay far below it.
# Chunked leaves, on six random circuits of up to 48 paths per size:
# ``_simulate`` took 0.52, 0.70, 0.72, 0.98 and 0.94 of its one-by-one
# time at D = 8, 16, 32, 64 and 128, and the two-sided carry of
# run_tree 0.41 to 0.99; a 4 MiB bound gained more at D = 16 to 64 but
# took 1.17 and 1.25 of the one-by-one time at D = 128. A D = 256 output
# is 1 MiB, so each is made alone.
_STACK_BYTES = 256 * 1024


@lru_cache(maxsize=1024)
def _local_plan(space: HilbertSpec, on: tuple[str, ...], ndim: int):
    """``_apply_stack``'s index plan for ``on`` and a stack of ``ndim``-D blocks: ``(d_on, lead, perm, inverse)``,
    ``lead`` sizing the factors before ``on`` if they are adjacent, else ``perm`` bringing them to the
    front, behind the stack axis."""
    dims = space.dims
    axes = [space.index(w) for w in on]
    d_on = math.prod(dims[a] for a in axes)
    start = axes[0] if axes else 0
    if axes == list(range(start, start + len(axes))):
        return d_on, math.prod(dims[:start]), None, None
    perm = [0] + [a + 1 for a in axes] + [i for i in range(1, len(dims) + ndim) if i - 1 not in axes]
    return d_on, None, tuple(perm), tuple(np.argsort(perm).tolist())


def _apply_stack(ops: np.ndarray, on: Sequence[str], x: np.ndarray, space: HilbertSpec, pairwise: bool = False) -> np.ndarray:
    """Each row of ``ops``, an ``(n, d, d)`` stack of operators on the wires ``on``, applied
    to a ket or D x k block ``x``: the ``(n,) + x.shape`` stack of images, from one
    ``np.matmul`` in ``O(n * d_local * D * k)``. With ``pairwise``, ``x`` is an
    ``(n,) + block`` stack and row i meets block i. Each image equals the product of
    its row alone bit for bit, so a stack and its rows one by one agree.
    """
    block = x.shape[1:] if pairwise else x.shape
    d_on, lead, perm, inverse = _local_plan(space, tuple(on), len(block))
    n = len(ops)
    if ops.shape != (n, d_on, d_on):
        raise ValueError(f"operator shape {ops.shape[1:]} does not match wire dims (local dim {d_on})")
    m = len(x) if pairwise else 1  # blocks in x
    if perm is None:
        return np.matmul(ops[:, None], x.reshape(m, lead, d_on, -1)).reshape((n,) + block)
    t = x.reshape((m,) + space.dims + block[1:]).transpose(perm)
    t = np.matmul(ops, t.reshape(m, d_on, -1)).reshape((n,) + t.shape[1:])
    return t.transpose(inverse).reshape((n,) + block)


def apply_local(op: np.ndarray, on: Sequence[str], x: np.ndarray, space: HilbertSpec) -> np.ndarray:
    """``lift_operator(op, on, space) @ x`` for a ket or a D x k block ``x``,
    in ``O(d_local * D * k)``, without building the lift.
    """
    return _apply_stack(op[None], on, np.asarray(x, dtype=complex), space)[0]


def _sandwich(ops: np.ndarray, on: Sequence[str], sigma: np.ndarray, space: HilbertSpec) -> np.ndarray:
    """``L sigma L^dag`` for each row L of ``ops``: two kernel calls, the second pairwise."""
    left = _apply_stack(ops, on, sigma, space)
    return _apply_stack(ops.conj(), on, left.transpose(0, 2, 1), space, pairwise=True).transpose(0, 2, 1)


def _fans(m: Measurement, x: np.ndarray) -> bool:
    """Are all of ``m``'s images of ``x`` taken in one stacked call? Only for more than one
    outcome, and only while the images, and the outcome stack they are made from, fit in
    ``_STACK_BYTES``: a tree read from JSON holds full-space operators, which a stack would copy."""
    n = len(m.outcomes)
    return 1 < n and n * (x.nbytes + next(iter(m.outcomes.values())).nbytes) <= _STACK_BYTES


def _chunks(leaves: Iterable[tuple[object, np.ndarray]], outputs: bool = False):
    """Runs of consecutive ``(key, block)`` pairs of ``leaves``, each yielded as ``(keys, blocks)``
    with the blocks stacked ``(m,) + block.shape``. A run grows while its blocks, and with
    ``outputs`` one ``D x D`` output per block of ``D`` rows, fit in ``_STACK_BYTES``; a block
    that does not fit alone is a run of its own, whose stack is a view of it, not a copy."""
    run: list[tuple[object, np.ndarray]] = []
    size = 0

    def stacked():
        keys, blocks = zip(*run)
        return list(keys), blocks[0][None] if len(blocks) == 1 else np.stack(blocks)

    for key, block in leaves:
        row = block.nbytes + (block.shape[0] ** 2 * block.itemsize if outputs else 0)
        if run and size + row > _STACK_BYTES:
            yield stacked()
            run, size = [], 0
        run.append((key, block))
        size += row
    if run:
        yield stacked()


def _leaf_outputs(leaves: Iterable[tuple[object, np.ndarray]], rho: np.ndarray, t0: float):
    """``(keys, probabilities, traces, outputs)`` per run of ``leaves``, consecutive pairs
    ``(key, V)`` of carried blocks ``V = C E`` chunked by ``_chunks``: one ``_outputs``
    product per run, so never more than ``_STACK_BYTES`` of outputs are made at once,
    and a ``D x D`` output above the bound is made alone, as ``_branch_output`` makes it."""
    for keys, vs in _chunks(leaves, outputs=True):
        sigmas = _outputs(vs, rho)
        yield keys, *_probabilities(sigmas, t0), sigmas


def _walk(roles, x=None, apply=None):
    """Depth first over the prefixes of ``roles``, a circuit or a tree, carrying ``x``.

    A prefix is the tuple of outcome labels from the root, ``()``, and
    ``roles._expand(prefix)`` gives ``(at, measurement, wires)``: the
    gate or node there, the measurement it fires on ``wires`` and the
    prefix's children, one per outcome in declared order. The measurement
    is None where the prefix ends: at a leaf, at a complete path (``at``
    None too) or at a selection hole. Yields ``(prefix, at, measurement,
    x)`` at each prefix. A ket or D x k block ``x`` is carried down the
    edges as ``apply(ops, wires, x, space)``, by default ``_apply_stack``,
    for a stack ``ops`` of outcome operators: all of a prefix's children
    in one call when ``_fans`` allows, else each edge lazily, as a
    one-row view of its operator. Consumers must not mutate the yielded
    blocks. One route is followed with ``_child`` instead.
    """
    expand, space, apply = roles._expand, roles.space, apply or _apply_stack
    stack: list[tuple] = [((), x, None, None)]
    while stack:
        prefix, x, ops, on = stack.pop()
        if ops is not None:
            x = apply(ops, on, x, space)[0]
        at, m, wires = expand(prefix)
        yield prefix, at, m, x
        if m is None:
            continue
        if x is not None and _fans(m, x):
            fan = apply(m._stack, wires, x, space)
            stack.extend((prefix + (label,), image, None, None) for label, image in zip(reversed(m.outcomes), fan[::-1]))
            continue
        for label in reversed(m.outcomes):  # a loop: a generator here made a bare walk 25% slower
            stack.append((prefix + (label,), x, None if x is None else m.outcomes[label][None], wires))


def _child(level: list, label: str, m: Measurement, wires: Sequence[str], space: HilbertSpec) -> np.ndarray:
    """The read-only image under outcome ``label`` of ``m`` of the block of ``level``, a
    ``[label, block, fan]`` level of a route: read from the level's ``fan``, which maps every
    outcome of ``m`` to its read-only image of ``block``; else from the fan made in one
    kernel call and kept on the level, where ``_fans`` allows; else from the one edge, its
    operator applied as a one-row view."""
    _, block, fan = level
    if fan is None and _fans(m, block):
        images = _apply_stack(m._stack, wires, block, space)
        images.flags.writeable = False
        fan = level[2] = dict(zip(m.outcomes, images))
    if fan is not None:
        return fan[label]
    image = _apply_stack(m.outcomes[label][None], wires, block, space)[0]
    image.flags.writeable = False
    return image


def _edges(roles, route: Sequence[str], start: int = 0) -> list[tuple[str, Measurement, tuple[str, ...]]] | None:
    """The edges along ``route`` below its first ``start`` labels, as ``(label, measurement, wires)``,
    or None unless ``route`` names an outcome at each prefix and ends where
    ``roles._expand`` fires nothing: a path of a circuit, a branch of a tree.
    The resolution applies no operator and stops at the first label it cannot follow."""
    edges, prefix, expand = [], tuple(route[:start]), roles._expand
    for label in route[start:]:
        _, m, wires = expand(prefix)
        if m is None or label not in m.outcomes:
            return None
        edges.append((label, m, wires))
        prefix += (label,)
    return edges if expand(prefix)[1] is None else None


def _resume(roles, route: Sequence[str]) -> np.ndarray | None:
    """The block at the end of ``route`` on ``roles``, resumed from the route walked last.

    ``roles._spine`` holds ``[label, block, fan]`` per level from ``[None,
    x0, None]``, the root block, along the route walked last (``_child``
    reads and keeps each level's fan). The spine is cut back to the
    longest prefix whose labels match ``route``; ``_edges`` resolves the
    levels below it, and each of their edges takes its block from
    ``_child`` of the level above. Returns None, with the spine left at
    the shared prefix, where ``_edges`` does. So routes taken depth first
    make one kernel call per inner prefix of their prefix tree, and a
    route that parts from the one walked last at some level reuses the
    sibling image kept there.
    """
    spine, space = roles._spine, roles.space
    k = 0
    while k < len(route) and k + 1 < len(spine) and spine[k + 1][0] == route[k]:
        k += 1
    del spine[k + 1 :]
    if (edges := _edges(roles, route, start=k)) is None:
        return None
    for label, m, wires in edges:
        spine.append([label, _child(spine[-1], label, m, wires, space), None])
    return spine[-1][1]


def partial_trace_matrix(mat: np.ndarray, space: HilbertSpec, keep: Iterable[str]) -> np.ndarray:
    """Trace out every wire not named in ``keep`` (raw-matrix version).

    Tracing out everything leaves a 1x1 matrix holding the trace. Kept
    factors stay in ``space`` order. The one-row case of ``_partial_traces``.
    """
    return _partial_traces(np.asarray(mat, dtype=complex)[None], space, keep)[0]


def _partial_traces(mats: np.ndarray, space: HilbertSpec, keep: Iterable[str]) -> np.ndarray:
    """``partial_trace_matrix`` of each matrix of an ``(m, D, D)`` stack, in one einsum
    over a leading stack axis; each equals its matrix's own partial trace bit for bit."""
    sub, d_keep = _trace_plan(space, frozenset(keep))
    if sub is None:
        return mats.reshape(len(mats), 1, 1)
    return np.einsum(sub, mats.reshape((len(mats),) + space.dims * 2)).reshape(len(mats), d_keep, d_keep)


@lru_cache(maxsize=256)
def _trace_plan(space: HilbertSpec, keep: frozenset[str]) -> tuple[str | None, int]:
    """``_partial_traces``' einsum subscripts for ``space`` and the wires in ``keep``, the
    stack axis first (None for a space with no wires), and the kept dimension."""
    unknown = keep - set(space.wires)
    if unknown:
        raise ValueError(f"unknown wires {sorted(unknown)}")
    if not space.wires:
        return None, 1
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    stack = next(letters)
    row, col, out_row, out_col = [], [], [], []
    for w, _ in space.factors:
        if w in keep:
            r, c = next(letters), next(letters)
            out_row.append(r)
            out_col.append(c)
        else:
            r = c = next(letters)
        row.append(r)
        col.append(c)
    sub = stack + "".join(row + col) + "->" + stack + "".join(out_row + out_col)
    return sub, math.prod(d for w, d in space.factors if w in keep)


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every wire of a state not named in ``keep``."""
    reduced = partial_trace_matrix(rho.matrix, rho.space, keep)
    return DensityOperator(reduced, rho.space.restrict(keep))


def bipartition_ket(vec: np.ndarray, space: HilbertSpec, front: Sequence[str]) -> np.ndarray:
    """Reshape a vector into a matrix indexed (front wires) x (the rest).

    The front index runs over the listed wires in the given order, the
    rest index over the remaining wires in ``space`` order. Either side
    may be empty, giving a single row or column. A D x k block of
    columns gives front x rest x k.
    """
    front = [str(w) for w in front]
    v = permute_ket(vec, space, front + [w for w in space.wires if w not in set(front)])
    d_front = math.prod(space.dim_of(w) for w in front)
    return v.reshape((d_front, space.dim // d_front) + v.shape[1:])


def measure_z(dim: int = 2) -> Measurement:
    """Projective measurement in the computational basis, labels "0", "1", ..."""
    return Measurement.of({str(i): projector(basis_ket(dim, i)) for i in range(dim)})


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


ID2 = _const([[1, 0], [0, 1]])
PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
HADAMARD = _const(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
# Control is the first listed wire.
CNOT = _const([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
SWAP = _const([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
