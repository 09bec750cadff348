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
``_resume`` carries a block down a route from the route walked last,
applying the edges that ``_edges`` resolves below the prefix the two
share. Outcome operators are applied by one kernel, ``apply_local``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @cached_property
    def wires(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.factors)

    @cached_property
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


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first argument's indices are the major ones."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, bit for bit, as one broadcast product."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def tensor_measurements(measurements: Sequence[Measurement]) -> Measurement:
    """Tensor a sequence of measurements into one joint measurement.

    Outcome labels are joined with "|" in argument order, so constituent
    labels of a genuine (length >= 2) product must not contain "|". The
    joint family is complete whenever the factors are.
    """
    return Measurement.of(_joint_outcomes(measurements))


def _joint_outcomes(measurements: Sequence[Measurement]) -> dict[str, np.ndarray]:
    """The outcomes of ``tensor_measurements`` before its completeness check."""
    ms = list(measurements)
    if not ms:
        raise ValueError("need at least one measurement")
    if len(ms) > 1:
        for m in ms:
            for label in m.labels:
                if "|" in label:
                    raise ValueError(f"label {label!r} contains the reserved separator '|'")
    joint: dict[str, np.ndarray] = {}
    for combo in itertools.product(*(m.outcomes.items() for m in ms)):
        label = "|".join(l for l, _ in combo)
        op = combo[0][1]
        for _, factor in combo[1:]:
            op = _kron(op, factor)
        joint[label] = np.asarray(op, dtype=complex)
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
    the output is ``V rho V^dag`` and the probability its trace over ``t0``."""
    sigma = v @ rho @ dagger(v)
    return _clamp_probability(float(sigma.trace().real) / t0), sigma


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


@lru_cache(maxsize=1024)
def _local_plan(space: HilbertSpec, on: tuple[str, ...], ndim: int):
    """``apply_local``'s index plan for ``on`` and an ``ndim``-D block: ``(d_on, lead, perm, inverse)``,
    ``lead`` sizing the factors before ``on`` if they are adjacent, else ``perm`` bringing them to the front."""
    dims = space.dims
    axes = [space.index(w) for w in on]
    d_on = math.prod(dims[a] for a in axes)
    start = axes[0] if axes else 0
    if axes == list(range(start, start + len(axes))):
        return d_on, math.prod(dims[:start]), None, None
    perm = axes + [i for i in range(len(dims) + ndim - 1) if i not in axes]
    return d_on, None, tuple(perm), tuple(np.argsort(perm).tolist())


def apply_local(op: np.ndarray, on: Sequence[str], x: np.ndarray, space: HilbertSpec) -> np.ndarray:
    """``lift_operator(op, on, space) @ x`` for a ket or a D x k block ``x``,
    in ``O(d_local * D * k)``, without building the lift.
    """
    x = np.asarray(x, dtype=complex)
    d_on, lead, perm, inverse = _local_plan(space, tuple(on), x.ndim)
    if op.shape != (d_on, d_on):
        raise ValueError(f"operator shape {op.shape} does not match wire dims (local dim {d_on})")
    if perm is None:
        return np.matmul(op, x.reshape(lead, d_on, -1)).reshape(x.shape)
    t = x.reshape(space.dims + x.shape[1:]).transpose(perm)
    t = (op @ t.reshape(d_on, -1)).reshape(t.shape)
    return t.transpose(inverse).reshape(x.shape)


def _walk(roles, x=None, follow=None, apply=None):
    """Depth first over the prefixes of ``roles``, a circuit or a tree, carrying ``x``.

    A prefix is the tuple of outcome labels from the root, ``()``, and
    ``roles._expand(prefix)`` gives ``(at, measurement, wires)``: the
    gate or node there, the measurement it fires on ``wires`` and the
    prefix's children, one per outcome in declared order. The measurement
    is None where the prefix ends: at a leaf, at a complete path (``at``
    None too) or at a selection hole. Yields ``(prefix, at, measurement,
    x)`` at each prefix. A ket or D x k block ``x`` is carried down each
    edge, lazily, as ``apply(L, wires, x, space)``, by default
    ``apply_local``, for the edge's outcome operator L. Once a prefix has
    been yielded, ``follow(at, measurement, x)`` names the outcomes to
    descend into, by default all of them, or maps them to images of x it
    has computed already. Consumers must not mutate the yielded blocks.
    """
    expand, space, apply = roles._expand, roles.space, apply or apply_local
    stack: list[tuple] = [((), x, None, None)]
    while stack:
        prefix, x, op, on = stack.pop()
        if op is not None:
            x = apply(op, on, x, space)
        at, m, wires = expand(prefix)
        yield prefix, at, m, x
        if m is None:
            continue
        ops = m.outcomes
        chosen = ops if follow is None else follow(at, m, x)
        images = chosen if follow is not None and isinstance(chosen, dict) else {}
        for label in reversed(chosen):
            op = None if x is None or label in images else ops[label]
            stack.append((prefix + (label,), images.get(label, x), op, wires))


def _edges(roles, route: Sequence[str], start: int = 0) -> list[tuple[str, np.ndarray, tuple[str, ...]]] | None:
    """The edges along ``route`` below its first ``start`` labels, as ``(label, L, wires)``,
    or None unless ``route`` names an outcome at each prefix and ends where
    ``roles._expand`` fires nothing: a path of a circuit, a branch of a tree.
    The resolution applies no operator and stops at the first label it cannot follow."""
    edges, prefix, expand = [], tuple(route[:start]), roles._expand
    for label in route[start:]:
        _, m, wires = expand(prefix)
        if m is None or label not in m.outcomes:
            return None
        edges.append((label, m.outcomes[label], wires))
        prefix += (label,)
    return edges if expand(prefix)[1] is None else None


def _resume(roles, route: Sequence[str]) -> np.ndarray | None:
    """The block at the end of ``route`` on ``roles``, resumed from the route walked last.

    ``roles._spine`` holds ``(label, block)`` per level from ``(None,
    x0)``, the root block, along the route walked last. The spine is cut
    back to the longest prefix whose labels match ``route``; ``_edges``
    resolves the levels below it, and ``apply_local`` extends the spine
    by each of their edges, each new block read-only. Returns None, with
    the spine left at the shared prefix, where ``_edges`` does. So a lone
    route applies only its own edges, and routes taken depth first
    resolve and apply each edge of their prefix tree once.
    """
    spine = roles._spine
    k = 0
    while k < len(route) and k + 1 < len(spine) and spine[k + 1][0] == route[k]:
        k += 1
    del spine[k + 1 :]
    if (edges := _edges(roles, route, start=k)) is None:
        return None
    for label, op, wires in edges:
        block = apply_local(op, wires, spine[-1][1], roles.space)
        block.flags.writeable = False
        spine.append((label, block))
    return spine[-1][1]


def partial_trace_matrix(mat: np.ndarray, space: HilbertSpec, keep: Iterable[str]) -> np.ndarray:
    """Trace out every wire not named in ``keep`` (raw-matrix version).

    Tracing out everything leaves a 1x1 matrix holding the trace. Kept
    factors stay in ``space`` order.
    """
    keep_set = set(keep)
    unknown = keep_set - set(space.wires)
    if unknown:
        raise ValueError(f"unknown wires {sorted(unknown)}")
    if not space.wires:
        return np.asarray(mat, dtype=complex).reshape(1, 1)
    dims = list(space.dims)
    n = len(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row, col, out_row, out_col = [], [], [], []
    next_letter = 0
    for i, (w, _) in enumerate(space.factors):
        if w in keep_set:
            r, c = letters[next_letter], letters[next_letter + 1]
            next_letter += 2
            out_row.append(r)
            out_col.append(c)
        else:
            r = c = letters[next_letter]
            next_letter += 1
        row.append(r)
        col.append(c)
    sub = "".join(row + col) + "->" + "".join(out_row + out_col)
    d_keep = math.prod(d for w, d in space.factors if w in keep_set) if keep_set else 1
    return np.einsum(sub, t).reshape(d_keep, d_keep)


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
