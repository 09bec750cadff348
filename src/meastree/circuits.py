"""Circuit model: gates carrying measurement families chosen by classical
feedforward, a layered execution schedule, path enumeration, and dense
simulation on the joint principal+ancilla space.

A gate holds one or more measurements; which of them fires is decided by
a finite selection table over the outcomes of the gate's classical
sources. A path assigns one outcome label to every gate, consistently
with those tables. Measurement outcomes are never renormalized: a path's
output is ``C rho C^dag`` for the composed outcome operators.

Walks go over prefixes, the tuples of outcome labels in execution order
from the root, with the walker and route resolver that trees share
(``linalg._walk``, ``linalg._edges``); ``Circuit._expand`` is the
circuit's step. A prefix becomes a ``Path``
only where one is returned.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    TOL,
    DensityOperator,
    HilbertSpec,
    Ket,
    Measurement,
    _branch_output,
    _edges,
    _images,
    _input_isometry,
    _resume,
    _walk,
    basis_ket,
    embed_principal,
    partial_trace_matrix,
)

__all__ = [
    "Selection",
    "Gate",
    "Circuit",
    "Path",
    "Violation",
    "InvalidCircuitError",
    "unitary_gate",
    "measurement_gate",
    "selected_gate",
    "validate_circuit",
    "flattened_gates",
    "enumerate_paths",
    "is_coherent",
    "full_input",
    "embed_principal_ket",
    "simulate_path",
    "principal_output",
    "sample_run",
]


class Selection:
    """Finite feedforward table: source-outcome assignment -> measurement index.

    Keys are assignments over exactly the gate's classical sources. A gate
    without sources uses the constant table ``{{}: 0}``.
    """

    def __init__(self, rules: Iterable[tuple[Mapping[str, str], int]]):
        self._rules: tuple[tuple[dict[str, str], int], ...] = tuple(
            (dict(when), int(use)) for when, use in rules
        )
        lookup: dict[tuple[tuple[str, str], ...], int] = {}
        for when, use in self._rules:
            key = self._key(when)
            if key in lookup and lookup[key] != use:
                raise ValueError(f"contradictory rules for {dict(when)}")
            lookup[key] = use
        self._lookup = lookup

    @staticmethod
    def _key(assignment: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((str(k), str(v)) for k, v in assignment.items()))

    @classmethod
    def constant(cls, index: int = 0) -> "Selection":
        return cls([({}, index)])

    def select(self, assignment: Mapping[str, str]) -> int | None:
        return self._lookup.get(self._key(assignment))

    @property
    def rules(self) -> tuple[tuple[dict[str, str], int], ...]:
        return self._rules

    def indices(self) -> frozenset[int]:
        return frozenset(self._lookup.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Selection) and self._lookup == other._lookup

    def __repr__(self) -> str:
        return f"Selection({list(self._rules)!r})"


@dataclass(frozen=True, eq=False)
class Gate:
    gate_id: str
    wires: tuple[str, ...]
    classical_sources: frozenset[str]
    measurements: tuple[Measurement, ...]
    selection: Selection

    def measurement_for(self, assignment: Mapping[str, str]) -> Measurement | None:
        """The measurement this gate fires under the given source outcomes."""
        idx = self.selection.select(assignment)
        if idx is None or not (0 <= idx < len(self.measurements)):
            return None
        return self.measurements[idx]


def unitary_gate(gate_id: str, wires: Sequence[str], matrix: np.ndarray, label: str = "u") -> Gate:
    """Single-outcome gate; completeness of {matrix} is exactly unitarity."""
    return Gate(
        gate_id=str(gate_id),
        wires=tuple(wires),
        classical_sources=frozenset(),
        measurements=(Measurement.of({label: matrix}),),
        selection=Selection.constant(0),
    )


def measurement_gate(gate_id: str, wires: Sequence[str], measurement: Measurement | Mapping[str, np.ndarray]) -> Gate:
    m = measurement if isinstance(measurement, Measurement) else Measurement.of(measurement)
    return Gate(
        gate_id=str(gate_id),
        wires=tuple(wires),
        classical_sources=frozenset(),
        measurements=(m,),
        selection=Selection.constant(0),
    )


def selected_gate(
    gate_id: str,
    wires: Sequence[str],
    sources: Iterable[str],
    measurements: Sequence[Measurement],
    rules: Iterable[tuple[Mapping[str, str], int]],
) -> Gate:
    """Gate whose measurement is chosen from source outcomes via a rule table."""
    return Gate(
        gate_id=str(gate_id),
        wires=tuple(wires),
        classical_sources=frozenset(str(s) for s in sources),
        measurements=tuple(measurements),
        selection=Selection(rules),
    )


class Path(Mapping):
    """Immutable outcome assignment, one label per gate id."""

    __slots__ = ("_items", "_lookup", "_hash")

    def __init__(self, assignment: Mapping[str, str]):
        self._set(tuple(sorted((str(k), str(v)) for k, v in assignment.items())))

    @classmethod
    def _of_items(cls, items: tuple[tuple[str, str], ...]) -> "Path":
        """The path of ``items``, string pairs already sorted by gate id."""
        path = cls.__new__(cls)
        path._set(items)
        return path

    def _set(self, items: tuple[tuple[str, str], ...]) -> None:
        """Fill the slots once: the items, their lookup, and their hash, which dict operations reread."""
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_lookup", dict(items))
        object.__setattr__(self, "_hash", hash(items))

    def __getitem__(self, key: str) -> str:
        return self._lookup[key]

    def __iter__(self):
        return (k for k, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Path):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._lookup == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"Path({inner})"


@dataclass(frozen=True)
class Violation:
    """One machine-readable validation finding."""

    code: str
    where: str | None
    message: str

    def __str__(self) -> str:
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.code}{loc}: {self.message}"


class InvalidCircuitError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(eq=False)
class Circuit:
    """Gates plus wiring, classical channels, and a layered schedule.

    ``principal_wires`` host the variable input state, ``ancilla_wires``
    start in the fixed unit vector ``ancilla_init``. Wires may optionally
    play a different role on the output side (``output_principal_wires``),
    which is how a branch can embed its input into a larger output space.
    Instances are treated as immutable after construction.
    """

    space: HilbertSpec
    principal_wires: tuple[str, ...]
    ancilla_wires: tuple[str, ...]
    ancilla_init: Ket
    gates: dict[str, Gate]
    gate_order: tuple[str, ...]
    schedule: tuple[tuple[str, ...], ...]
    output_principal_wires: tuple[str, ...] | None = None

    @classmethod
    def build(
        cls,
        space: HilbertSpec,
        principal: Iterable[str],
        gates: Sequence[Gate],
        *,
        ancilla_init: Ket | Sequence[complex] | np.ndarray | None = None,
        gate_order: Sequence[str] | None = None,
        schedule: Sequence[Sequence[str]] | None = None,
        output_principal: Iterable[str] | None = None,
    ) -> "Circuit":
        principal_set = {str(w) for w in principal}
        principal_wires = tuple(w for w in space.wires if w in principal_set)
        ancilla_wires = tuple(w for w in space.wires if w not in principal_set)
        anc_spec = space.restrict(ancilla_wires)
        if ancilla_init is None:
            init = Ket.of(basis_ket(anc_spec.dim, 0), anc_spec)
        elif isinstance(ancilla_init, Ket):
            init = ancilla_init
        else:
            init = Ket.of(ancilla_init, anc_spec)
        gate_map = {g.gate_id: g for g in gates}
        if len(gate_map) != len(gates):
            raise ValueError("duplicate gate ids")
        order = tuple(gate_order) if gate_order is not None else tuple(g.gate_id for g in gates)
        sched = (
            tuple(tuple(layer) for layer in schedule)
            if schedule is not None
            else tuple((gid,) for gid in order)
        )
        out = tuple(w for w in space.wires if w in {str(x) for x in output_principal}) if output_principal is not None else None
        return cls(
            space=space,
            principal_wires=principal_wires,
            ancilla_wires=ancilla_wires,
            ancilla_init=init,
            gates=gate_map,
            gate_order=order,
            schedule=sched,
            output_principal_wires=out,
        )

    @property
    def output_principal(self) -> tuple[str, ...]:
        return self.output_principal_wires if self.output_principal_wires is not None else self.principal_wires

    @property
    def principal_spec(self) -> HilbertSpec:
        return self.space.restrict(self.principal_wires)

    @property
    def ancilla_spec(self) -> HilbertSpec:
        return self.space.restrict(self.ancilla_wires)

    @cached_property
    def violations(self) -> list[Violation]:
        return validate_circuit(self)

    @cached_property
    def _order(self) -> tuple[str, ...]:
        """``flattened_gates``: the gate ids in execution order, the order of a prefix's outcomes."""
        return tuple(flattened_gates(self))

    @cached_property
    def _steps(self) -> list[tuple[Gate, tuple[str, ...], tuple[int, ...], dict]]:
        """Per gate in execution order: the gate, its classical sources, their
        positions in a prefix, and the memo from their outcomes to the
        measurement they select."""
        at = {gid: i for i, gid in enumerate(self._order)}
        steps = []
        for gid in self._order:
            sources = tuple(self.gates[gid].classical_sources)
            steps.append((self.gates[gid], sources, tuple(at[s] for s in sources), {}))
        return steps

    def _expand(self, prefix: tuple[str, ...]) -> tuple[Gate | None, Measurement | None, tuple[str, ...] | None]:
        """``(gate, measurement, wires)`` at an outcome prefix, for ``linalg._walk``:
        the next gate to fire and the measurement its sources select there
        (None at a selection hole), or all None once the prefix is a path."""
        steps = self._steps
        if len(prefix) == len(steps):
            return None, None, None
        g, sources, positions, selected = steps[len(prefix)]
        key = tuple([prefix[i] for i in positions])
        if key not in selected:
            selected[key] = g.measurement_for(dict(zip(sources, key)))
        return g, selected[key], g.wires

    @cached_property
    def _path_order(self) -> tuple[tuple[str, int], ...]:
        """``(gate_id, position in a prefix)`` per gate, sorted by gate id: the order of a ``Path``'s items."""
        return tuple(sorted((gid, i) for i, gid in enumerate(self._order)))

    def _path(self, prefix: tuple[str, ...]) -> Path:
        """The path whose outcomes, in execution order, are ``prefix``."""
        return Path._of_items(tuple([(gid, prefix[i]) for gid, i in self._path_order]))

    def _prefix(self, path: Mapping[str, str]) -> tuple[str, ...]:
        """The outcomes of ``path``, which names every gate, in execution order."""
        return tuple([path[gid] for gid in self._order])

    @cached_property
    def _isometry(self) -> np.ndarray:
        """The input isometry ``E``, read-only, built on first use."""
        return _input_isometry(self)

    @cached_property
    def _spine(self) -> list[list]:
        """``[label, C E, fan]`` after each gate of the path simulated last, from ``[None, E, None]``:
        one block per depth, and the images of it under the next gate's outcomes, if computed."""
        return [[None, self._isometry, None]]

    @cached_property
    def _ancilla_norm2(self) -> float:
        """``|a|^2`` for the ancilla vector a."""
        return self.ancilla_init.norm() ** 2

    def require_valid(self) -> None:
        if self.violations:
            raise InvalidCircuitError(self.violations)


def _prerequisite_edges(c: Circuit) -> set[tuple[str, str]]:
    """Edges F -> G meaning F must fire before G.

    Quantum: F and G share a wire and F precedes G in gate_order.
    Classical: F is a classical source of G.
    """
    edges: set[tuple[str, str]] = set()
    ids = [gid for gid in c.gate_order if gid in c.gates]
    for i, f in enumerate(ids):
        fw = set(c.gates[f].wires)
        for g in ids[i + 1 :]:
            if fw & set(c.gates[g].wires):
                edges.add((f, g))
    for gid, g in c.gates.items():
        for src in g.classical_sources:
            if src in c.gates:
                edges.add((src, gid))
    return edges


def _has_cycle(nodes: Iterable[str], edges: set[tuple[str, str]]) -> bool:
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for f, g in edges:
        if f in adj:
            adj[f].append(g)
    state: dict[str, int] = {}  # 1 while on the depth-first stack, 2 when finished
    for root in adj:
        if state.get(root, 0):
            continue
        state[root] = 1
        stack = [(root, iter(adj[root]))]
        while stack:
            n, succ = stack[-1]
            for m in succ:
                s = state.get(m, 0)
                if s == 1:
                    return True
                if s == 0:
                    state[m] = 1
                    stack.append((m, iter(adj.get(m, ()))))
                    break
            else:
                state[n] = 2
                stack.pop()
    return False


# Violations whose presence makes the selection-totality walk meaningless.
_WALK_BLOCKERS = {
    "UNKNOWN_WIRE",
    "UNKNOWN_SOURCE",
    "GATE_WIRE_DUP",
    "GATE_ORDER",
    "MEASUREMENTS_EMPTY",
    "MEASUREMENT_DIM",
    "SELECTION_RANGE",
    "SELECTION_KEYS",
    "SCHEDULE_COVER",
    "SCHEDULE_DISJOINT",
    "SCHEDULE_PREREQ",
    "LAYER_CONFLICT",
    "PREREQ_CYCLE",
}

_MAX_WALK_STATES = 20_000


def validate_circuit(c: Circuit) -> list[Violation]:
    """All structural violations of the circuit, as data (never raises)."""
    v: list[Violation] = []
    wires = set(c.space.wires)

    principal = tuple(c.principal_wires)
    ancilla = tuple(c.ancilla_wires)
    if set(principal) | set(ancilla) != wires or set(principal) & set(ancilla):
        v.append(Violation("ROLE_PARTITION", None, "principal and ancilla wires must partition the space"))
    if c.output_principal_wires is not None and not set(c.output_principal_wires) <= wires:
        v.append(Violation("ROLE_PARTITION", None, "output principal wires must name wires of the space"))
    for w in principal:
        if w in wires and c.space.dim_of(w) < 2:
            v.append(Violation("PRINCIPAL_DIM", w, "principal wires need dimension >= 2"))

    try:
        anc_spec = c.space.restrict(ancilla)
        if c.ancilla_init.space != anc_spec or len(c.ancilla_init.vector) != anc_spec.dim:
            v.append(Violation("ANCILLA_INIT", None, "ancilla_init does not live on the ancilla wires"))
        elif not abs(c.ancilla_init.norm() - 1.0) <= 1e-9:
            v.append(Violation("ANCILLA_INIT", None, f"ancilla_init norm {c.ancilla_init.norm():.6f} != 1"))
    except ValueError as exc:
        v.append(Violation("ANCILLA_INIT", None, str(exc)))

    for gid, g in c.gates.items():
        if g.gate_id != gid:
            v.append(Violation("GATE_ID", gid, "gate registered under a different id"))
        if len(set(g.wires)) != len(g.wires):
            v.append(Violation("GATE_WIRE_DUP", gid, f"repeated wires in {list(g.wires)}"))
        unknown = [w for w in g.wires if w not in wires]
        if unknown:
            v.append(Violation("UNKNOWN_WIRE", gid, f"unknown wires {unknown}"))
            continue
        local_dim = math.prod(c.space.dim_of(w) for w in g.wires) if g.wires else 1
        if not g.measurements:
            v.append(Violation("MEASUREMENTS_EMPTY", gid, "gate has no measurements"))
            continue
        shapes_ok = True
        for mi, m in enumerate(g.measurements):
            for label, op in m.outcomes.items():
                if op.ndim != 2 or op.shape != (local_dim, local_dim):
                    v.append(
                        Violation(
                            "MEASUREMENT_DIM",
                            gid,
                            f"measurement {mi} outcome {label!r} has shape {op.shape}, local dim is {local_dim}",
                        )
                    )
                    shapes_ok = False
        if shapes_ok:
            v.extend(_completeness_violations(gid, g.measurements))
        seen: dict[str, int] = {}
        for mi, m in enumerate(g.measurements):
            for label in m.labels:
                if label in seen and seen[label] != mi:
                    v.append(
                        Violation(
                            "DISJOINT_OUTCOMES",
                            gid,
                            f"outcome label {label!r} appears in measurements {seen[label]} and {mi}",
                        )
                    )
                seen.setdefault(label, mi)
        bad_sources = [s for s in g.classical_sources if s not in c.gates]
        if bad_sources:
            v.append(Violation("UNKNOWN_SOURCE", gid, f"unknown classical sources {sorted(bad_sources)}"))
        if not g.classical_sources and len(g.measurements) > 1:
            v.append(Violation("SINGLETON_REQUIRED", gid, "gate without classical sources must carry exactly one measurement"))
        for when, use in g.selection.rules:
            if set(when) != set(g.classical_sources):
                v.append(Violation("SELECTION_KEYS", gid, f"rule keys {sorted(when)} != classical sources {sorted(g.classical_sources)}"))
            if not (0 <= use < len(g.measurements)):
                v.append(Violation("SELECTION_RANGE", gid, f"rule selects measurement {use} of {len(g.measurements)}"))
        missing_idx = set(range(len(g.measurements))) - set(g.selection.indices())
        if missing_idx:
            v.append(Violation("SELECTION_SURJECTIVE", gid, f"measurements {sorted(missing_idx)} are never selected"))

    if sorted(c.gate_order) != sorted(c.gates):
        v.append(Violation("GATE_ORDER", None, "gate_order is not a permutation of the gate ids"))

    scheduled: list[str] = [gid for layer in c.schedule for gid in layer]
    if len(set(scheduled)) != len(scheduled):
        v.append(Violation("SCHEDULE_DISJOINT", None, "a gate appears in more than one layer"))
    if set(scheduled) != set(c.gates):
        v.append(Violation("SCHEDULE_COVER", None, "schedule does not cover exactly the circuit's gates"))
    for i, layer in enumerate(c.schedule):
        if not layer:
            v.append(Violation("SCHEDULE_EMPTY", None, f"layer {i} is empty"))

    structural_bad = {x.code for x in v} & {"UNKNOWN_WIRE", "UNKNOWN_SOURCE", "GATE_ORDER", "SCHEDULE_COVER", "SCHEDULE_DISJOINT"}
    if not structural_bad:
        edges = _prerequisite_edges(c)
        layer_of = {gid: i for i, layer in enumerate(c.schedule) for gid in layer}
        for f, g in sorted(edges):
            if f in layer_of and g in layer_of:
                if layer_of[f] == layer_of[g]:
                    v.append(Violation("LAYER_CONFLICT", g, f"{f} and {g} share a layer but {f} is a prerequisite of {g}"))
                elif layer_of[f] > layer_of[g]:
                    v.append(Violation("SCHEDULE_PREREQ", g, f"{g} is scheduled before its prerequisite {f}"))
        if _has_cycle(c.gates, edges):
            v.append(Violation("PREREQ_CYCLE", None, "prerequisite relation contains a cycle"))

    if not ({x.code for x in v} & _WALK_BLOCKERS):
        # The cap bounds the prefixes at each depth, not their total; the
        # walk stops at the first depth it finds over the cap.
        seq = flattened_gates(c)
        counts = [0] * (len(seq) + 1)
        holes: set[str] = set()
        exploded_at = None
        for prefix, g, m, _ in _walk(c):
            depth = len(prefix)
            counts[depth] += 1
            if counts[depth] > _MAX_WALK_STATES:
                exploded_at = seq[depth - 1]
                break
            if g is not None and m is None:
                holes.add(g.gate_id)
        for gid in seq:
            if gid in holes:
                v.append(Violation("SELECTION_TOTALITY", gid, "selection undefined for a coherent source assignment"))
        if exploded_at is not None:
            v.append(Violation("PATH_EXPLOSION", exploded_at, f"more than {_MAX_WALK_STATES} coherent prefixes"))

    return v


def _completeness_violations(gid: str, measurements: Sequence[Measurement]) -> list[Violation]:
    """Gate ``gid``'s measurements whose ``sum L^dag L`` is not the identity within ``TOL.complete``."""
    v = []
    for mi, m in enumerate(measurements):
        defect = m.completeness_defect()
        if not defect <= TOL.complete:
            v.append(Violation("MEASUREMENT_COMPLETENESS", gid, f"measurement {mi}: ||sum L^dag L - Id||_F = {defect:.3e}"))
    return v


def flattened_gates(c: Circuit) -> list[str]:
    """Gate ids in execution order: layer by layer, gate_order within a layer."""
    pos = {gid: i for i, gid in enumerate(c.gate_order)}
    out: list[str] = []
    for layer in c.schedule:
        out.extend(sorted(layer, key=lambda gid: pos.get(gid, len(pos))))
    return out


def enumerate_paths(c: Circuit) -> list[Path]:
    """All coherent paths, in schedule order with declared outcome order."""
    c.require_valid()
    return [c._path(prefix) for prefix, g, _, _ in _walk(c) if g is None]


def is_coherent(c: Circuit, path: Mapping[str, str]) -> bool:
    """Does the assignment pick, gate by gate, an outcome of the selected measurement?"""
    c.require_valid()
    return set(path) == set(c.gates) and _edges(c, c._prefix(path)) is not None


def full_input(c: Circuit, rho: DensityOperator) -> np.ndarray:
    """Materialize the joint input: principal state tensored with the ancilla vector."""
    d = c.principal_spec.dim
    if rho.matrix.shape[0] != d:
        raise ValueError(f"principal input has dimension {rho.matrix.shape[0]}, circuit expects {d}")
    return embed_principal(c, rho.matrix)


def embed_principal_ket(c: Circuit, psi: np.ndarray) -> np.ndarray:
    """Joint input vector ``psi (x) ancilla_init`` in the circuit's wire order."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) != c.principal_spec.dim:
        raise ValueError(f"principal ket has length {len(psi)}, expected {c.principal_spec.dim}")
    return embed_principal(c, psi)


def _input_trace(c: Circuit, rho: DensityOperator) -> float:
    """The trace of the joint input ``rho (x) |a><a|``, over which a path's
    output trace is its probability; ValueError if ``rho`` does not fit ``c``."""
    c.require_valid()
    if rho.matrix.shape[0] != (d := c._isometry.shape[1]):
        raise ValueError(f"principal input has dimension {rho.matrix.shape[0]}, circuit expects {d}")
    return float(rho.matrix.trace().real) * c._ancilla_norm2


def _simulate(c: Circuit, rho: DensityOperator, follow=None):
    """Yield ``(prefix, probability, V rho V^dag)`` at each complete path the walk reaches.

    The walk carries ``V = C E``, so ``V rho V^dag`` is the path's output
    ``C (rho (x) |a><a|) C^dag``: column i of E is ``e_i (x) ancilla``.
    """
    t0 = _input_trace(c, rho)
    for prefix, g, _, v in _walk(c, c._isometry, follow):
        if g is None:
            yield prefix, *_branch_output(v, rho.matrix, t0)


def simulate_path(c: Circuit, path: Mapping[str, str], rho: DensityOperator) -> tuple[float, np.ndarray]:
    """Probability and unnormalized output of one path on a principal input.

    The output matrix lives on the full space and is the zero matrix
    exactly when the path has probability zero; it is never renormalized.
    ``V = C E`` resumes from the longest prefix the path shares with the
    path simulated last on ``c``, whatever its input.
    """
    if set(path) == set(c.gates):
        t0 = _input_trace(c, rho)
        if (v := _resume(c, c._prefix(path))) is not None:
            return _branch_output(v, rho.matrix, t0)
    raise ValueError(f"not a coherent path: {dict(path)}")


def principal_output(c: Circuit, path: Mapping[str, str], rho: DensityOperator) -> np.ndarray:
    """The path's unnormalized output reduced to the output-principal wires."""
    _, sigma = simulate_path(c, path, rho)
    return partial_trace_matrix(sigma, c.space, c.output_principal)


def sample_run(
    c: Circuit,
    rho: DensityOperator,
    rng: np.random.Generator | int,
) -> tuple[Path, np.ndarray]:
    """Run once, sampling each gate's outcome with its Born probability.

    Returns the realized path and the unnormalized post-run state.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    t0 = rho.trace()

    def sample(g: Gate, m: Measurement, v: np.ndarray) -> dict[str, np.ndarray]:
        t = float(np.vdot(v, v @ rho.matrix).real)
        if t <= TOL.zero * t0:
            raise ArithmeticError("state trace vanished mid-run")
        images = _images(m, g.wires, v, c.space)
        probs = np.array([max(float(np.vdot(x, x @ rho.matrix).real) / t, 0.0) for x in images])
        i = int(gen.choice(len(probs), p=probs / probs.sum()))
        return {m.labels[i]: images[i]}

    ((prefix, _, sigma),) = _simulate(c, rho, sample)
    return c._path(prefix), sigma
