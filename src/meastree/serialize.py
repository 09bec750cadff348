"""JSON wire formats and a Graphviz emitter.

Complex matrices serialize as nested arrays of [re, im] pairs. Loaders
only enforce structure (shapes, key presence, types) and raise
ValueError on malformed input; semantic checks such as completeness or
schedule consistency stay with the validators so that a loaded object
can be inspected for violations.
"""

from __future__ import annotations

import cmath
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .circuits import Circuit, Gate, Selection
from .linalg import HilbertSpec, Ket, Measurement, _walk, lift_operator
from .trees import Branch, MeasurementTree, TreeNode

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "measurement_to_json",
    "measurement_from_json",
    "state_from_json",
    "circuit_to_json",
    "circuit_from_json",
    "tree_to_json",
    "tree_from_json",
    "tree_to_dot",
]


def _pairs(a: np.ndarray) -> np.ndarray:
    """A complex array's entries as [re, im] pairs: shape ``a.shape + (2,)``."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(a.shape + (2,))


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return _pairs(m).tolist()


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return _pairs(np.asarray(v).reshape(-1)).tolist()


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _array_text(a: np.ndarray, level: int) -> str:
    """A 2-D complex array as ``matrix_to_json`` writes it, a 1-D one as
    ``vector_to_json`` does, laid out as ``_json_text`` would lay out that
    list at ``level``: one template for the layout, filled in one step."""
    if a.ndim not in (1, 2):
        raise TypeError(f"cannot write a {a.ndim}-D array as JSON")
    pairs = _pairs(a)
    template = "%s"
    for depth in range(pairs.ndim - 1, -1, -1):
        if not pairs.shape[depth]:
            template = "[]"
            continue
        inner = "\n" + "  " * (level + depth + 1)
        items = ("," + inner).join([template] * pairs.shape[depth])
        template = f"[{inner}{items}\n{'  ' * (level + depth)}]"
    floats = pairs.reshape(-1).tolist()
    return template % tuple(map(float.__repr__ if np.isfinite(pairs).all() else _float_text, floats))


def _json_text(x: Any, level: int = 0) -> str:
    """The text that the stdlib ``json.dumps`` writes for a JSON value ``x``
    with ``indent=2``, byte for byte.

    A complex ndarray anywhere in ``x`` is written as its
    ``matrix_to_json`` (2-D) or ``vector_to_json`` (1-D) list would be.
    The stdlib encoder runs in pure Python whenever ``indent`` is set;
    this writer formats each array's floats in one step instead.
    """
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    if isinstance(x, np.ndarray):
        return _array_text(x, level)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        items = ("," + inner).join([_json_text(v, level + 1) for v in x])
        return f"[{inner}{items}\n{'  ' * level}]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        items = ("," + inner).join(
            [f"{encode_basestring_ascii(k)}: {_json_text(v, level + 1)}" for k, v in x.items()]
        )
        return f"{{{inner}{items}\n{'  ' * level}}}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _complex_from_pair(obj: Any, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise ValueError(f"{where}: expected an [re, im] pair, got {obj!r}")
    try:
        z = complex(obj[0], obj[1])
        finite = cmath.isfinite(z)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{where}: expected finite numbers, got {obj!r}")
    return z


def vector_from_json(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty array")
    return np.array([_complex_from_pair(x, where) for x in obj], dtype=complex)


def matrix_from_json(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ValueError(f"{where}: row {i} is not a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{where}: row {i} has length {len(row)}, expected {width}")
        rows.append([_complex_from_pair(x, f"{where}[{i}]") for x in row])
    return np.array(rows, dtype=complex)


def measurement_to_json(m: Measurement) -> dict[str, Any]:
    return _measurement_payload(m, matrix_to_json)


def _measurement_payload(m: Measurement, array) -> dict[str, Any]:
    return {"outcomes": {label: array(m.operator(label)) for label in m.labels}}


def measurement_from_json(obj: Any, where: str = "measurement") -> Measurement:
    if not isinstance(obj, dict) or "outcomes" not in obj:
        raise ValueError(f'{where}: expected an object with an "outcomes" key')
    outcomes = obj["outcomes"]
    if not isinstance(outcomes, dict) or not outcomes:
        raise ValueError(f"{where}: outcomes must be a non-empty object")
    ops = {}
    for label, mat in outcomes.items():
        m = matrix_from_json(mat, f"{where}.outcomes[{label!r}]")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{where}.outcomes[{label!r}]: operator must be square")
        ops[str(label)] = m
    return Measurement(ops)


def state_from_json(obj: Any) -> tuple[str, np.ndarray]:
    """Sniff a ket (array of pairs) or a density matrix (array of rows).

    Returns ("ket", vector) or ("density", matrix).
    """
    if isinstance(obj, dict):
        if "vector" in obj:
            return "ket", vector_from_json(obj["vector"], "state.vector")
        if "matrix" in obj:
            return "density", matrix_from_json(obj["matrix"], "state.matrix")
        raise ValueError('state: expected "vector" or "matrix" key, or a bare array')
    if isinstance(obj, list) and obj and isinstance(obj[0], list) and obj[0]:
        if isinstance(obj[0][0], (int, float)):
            return "ket", vector_from_json(obj, "state")
        return "density", matrix_from_json(obj, "state")
    raise ValueError("state: unrecognized shape")


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ValueError(f"{where}: missing {key!r}")
    return obj[key]


def _wires_to_json(
    space: HilbertSpec,
    principal: tuple[str, ...],
    output_principal: tuple[str, ...] | None,
) -> list[dict[str, Any]]:
    rows = []
    for w in space.wires:
        row: dict[str, Any] = {
            "id": w,
            "dim": space.dim_of(w),
            "role": "principal" if w in principal else "ancilla",
        }
        if output_principal is not None:
            row["output_role"] = "principal" if w in output_principal else "ancilla"
        rows.append(row)
    return rows


def _wires_from_json(obj: Any, where: str) -> tuple[HilbertSpec, list[str], list[str] | None]:
    """Returns (space, principal wires, output-principal wires or None)."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty array of wire objects")
    factors = []
    principal = []
    output_principal = []
    any_output_role = False
    for i, row in enumerate(obj):
        if not isinstance(row, dict):
            raise ValueError(f"{where}[{i}]: expected an object")
        wid = str(_require(row, "id", f"{where}[{i}]"))
        dim = _require(row, "dim", f"{where}[{i}]")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"{where}[{i}]: dim must be a positive integer")
        role = _require(row, "role", f"{where}[{i}]")
        if role not in ("principal", "ancilla"):
            raise ValueError(f"{where}[{i}]: role must be principal or ancilla")
        factors.append((wid, dim))
        if role == "principal":
            principal.append(wid)
        if "output_role" in row:
            any_output_role = True
            if row["output_role"] not in ("principal", "ancilla"):
                raise ValueError(f"{where}[{i}]: output_role must be principal or ancilla")
            if row["output_role"] == "principal":
                output_principal.append(wid)
    space = HilbertSpec.of(factors)
    return space, principal, (output_principal if any_output_role else None)


def _selection_to_json(sel: Selection) -> list[dict[str, Any]]:
    return [{"when": dict(when), "use": use} for when, use in sel.rules]


def _selection_from_json(obj: Any, where: str) -> Selection:
    if not isinstance(obj, list):
        raise ValueError(f"{where}: expected an array of rules")
    rules = []
    for i, rule in enumerate(obj):
        if not isinstance(rule, dict):
            raise ValueError(f"{where}[{i}]: expected an object")
        when = _require(rule, "when", f"{where}[{i}]")
        use = _require(rule, "use", f"{where}[{i}]")
        if not isinstance(when, dict):
            raise ValueError(f"{where}[{i}].when: expected an object")
        if not isinstance(use, int) or isinstance(use, bool):
            raise ValueError(f"{where}[{i}].use: expected an integer")
        rules.append(({str(k): str(v) for k, v in when.items()}, use))
    return Selection(rules)


def circuit_to_json(c: Circuit) -> dict[str, Any]:
    return _circuit_payload(c, matrix_to_json)


def _circuit_payload(c: Circuit, array) -> dict[str, Any]:
    """``circuit_to_json``'s value with ``array`` applied to each complex array in it:
    ``matrix_to_json`` gives the lists, ``np.asarray`` leaves the arrays for ``_json_text``.
    A 1-D array stands for a vector; ``matrix_to_json`` lists it as ``vector_to_json`` does."""
    payload: dict[str, Any] = {
        "wires": _wires_to_json(c.space, c.principal_wires, c.output_principal_wires),
    }
    if c.ancilla_wires:
        payload["ancilla_init"] = array(np.reshape(c.ancilla_init.vector, -1))
    payload["gates"] = [
        {
            "id": g.gate_id,
            "wires": list(g.wires),
            "classical_sources": sorted(g.classical_sources),
            "measurements": [_measurement_payload(m, array) for m in g.measurements],
            "selection": _selection_to_json(g.selection),
        }
        for g in (c.gates[gid] for gid in c.gate_order)
    ]
    payload["gate_order"] = list(c.gate_order)
    payload["schedule"] = [list(layer) for layer in c.schedule]
    return payload


def circuit_from_json(obj: Any) -> Circuit:
    if not isinstance(obj, dict):
        raise ValueError("circuit: expected a JSON object")
    space, principal, output_principal = _wires_from_json(_require(obj, "wires", "circuit"), "circuit.wires")
    ancilla = [w for w in space.wires if w not in set(principal)]
    anc_spec = space.restrict(ancilla)
    if "ancilla_init" in obj:
        init = Ket.of(vector_from_json(obj["ancilla_init"], "circuit.ancilla_init"), anc_spec)
    else:
        init = None

    raw_gates = _require(obj, "gates", "circuit")
    if not isinstance(raw_gates, list):
        raise ValueError("circuit.gates: expected an array")
    gates = []
    for i, g in enumerate(raw_gates):
        where = f"circuit.gates[{i}]"
        if not isinstance(g, dict):
            raise ValueError(f"{where}: expected an object")
        gid = str(_require(g, "id", where))
        wires = _require(g, "wires", where)
        if not isinstance(wires, list) or not all(isinstance(w, str) for w in wires):
            raise ValueError(f"{where}.wires: expected an array of wire ids")
        sources = g.get("classical_sources", [])
        if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
            raise ValueError(f"{where}.classical_sources: expected an array of gate ids")
        raw_ms = _require(g, "measurements", where)
        if not isinstance(raw_ms, list) or not raw_ms:
            raise ValueError(f"{where}.measurements: expected a non-empty array")
        measurements = tuple(
            measurement_from_json(m, f"{where}.measurements[{j}]") for j, m in enumerate(raw_ms)
        )
        if "selection" in g:
            selection = _selection_from_json(g["selection"], f"{where}.selection")
        else:
            selection = Selection.constant(0)
        gates.append(
            Gate(
                gate_id=gid,
                wires=tuple(wires),
                classical_sources=frozenset(sources),
                measurements=measurements,
                selection=selection,
            )
        )

    gate_order = _require(obj, "gate_order", "circuit")
    if not isinstance(gate_order, list) or not all(isinstance(x, str) for x in gate_order):
        raise ValueError("circuit.gate_order: expected an array of gate ids")
    schedule = obj.get("schedule")
    if schedule is not None:
        if not isinstance(schedule, list) or not all(
            isinstance(layer, list) and all(isinstance(x, str) for x in layer) for layer in schedule
        ):
            raise ValueError("circuit.schedule: expected an array of arrays of gate ids")
    return Circuit.build(
        space,
        principal,
        gates,
        ancilla_init=init,
        gate_order=gate_order,
        schedule=schedule,
        output_principal=output_principal,
    )


def _tree_node_ids(t: MeasurementTree) -> dict[Branch, str]:
    """Readable, unique node ids: the route joined with slashes."""
    ids: dict[Branch, str] = {}
    used: set[str] = set()
    for key, _, _, _ in _walk(t):
        base = name = "/" + "/".join(key)
        k = 2
        while name in used:
            name, k = f"{base}#{k}", k + 1
        used.add(name)
        ids[key] = name
    return ids


def tree_to_json(t: MeasurementTree) -> dict[str, Any]:
    return _tree_payload(t, matrix_to_json)


def _tree_payload(t: MeasurementTree, array) -> dict[str, Any]:
    """``tree_to_json``'s value with ``array`` applied to each complex array, as in ``_circuit_payload``."""
    ids = _tree_node_ids(t)
    nodes: dict[str, Any] = {}
    for key, nid in ids.items():
        node = t.nodes[key]
        m = node.measurement
        if node.wires is not None:  # a local measurement: written on the full space
            m = Measurement({label: lift_operator(op, node.wires, t.space) for label, op in m.outcomes.items()})
        nodes[nid] = {
            "measurement": None if node.is_leaf else _measurement_payload(m, array),
            "children": {} if node.is_leaf else {
                label: ids[key + (label,)] for label in node.measurement.labels
            },
        }
    payload: dict[str, Any] = {"root": ids[()], "nodes": nodes}
    if t.principal_wires is not None:
        payload["wires"] = _wires_to_json(t.space, t.principal_wires, t.output_principal_wires)
        if t.ancilla_init is not None:
            payload["ancilla_init"] = array(np.reshape(t.ancilla_init.vector, -1))
    return payload


def tree_from_json(obj: Any) -> MeasurementTree:
    if not isinstance(obj, dict):
        raise ValueError("tree: expected a JSON object")
    root_id = _require(obj, "root", "tree")
    raw_nodes = _require(obj, "nodes", "tree")
    if not isinstance(raw_nodes, dict):
        raise ValueError("tree.nodes: expected an object")
    if not isinstance(root_id, str):
        raise ValueError("tree.root: expected a node id string")
    if root_id not in raw_nodes:
        raise ValueError(f"tree: root {root_id!r} is not a node id")

    nodes: dict[Branch, TreeNode] = {}
    dims: list[int] = []
    seen: set[str] = set()  # tree_to_json writes each id once: meeting one again is a cycle or a shared node
    stack: list[tuple] = [(root_id, (), None)]  # (node id, route, parent id), popped in preorder
    while stack:
        nid, key, parent = stack.pop()
        if nid is None:  # a missing child, reported when the walk reaches it
            raise ValueError(f"tree.nodes[{parent!r}]: no child for outcome {key[-1]!r}")
        if nid in seen:
            raise ValueError(f"tree: node {nid!r} reached twice")
        seen.add(nid)
        raw = raw_nodes.get(nid)
        if not isinstance(raw, dict):
            raise ValueError(f"tree.nodes[{nid!r}]: expected an object")
        raw_m = _require(raw, "measurement", f"tree.nodes[{nid!r}]")
        raw_children = raw.get("children", {})
        if not isinstance(raw_children, dict):
            raise ValueError(f"tree.nodes[{nid!r}].children: expected an object")
        if raw_m is None:
            nodes[key] = TreeNode(None)
            continue
        m = measurement_from_json(raw_m, f"tree.nodes[{nid!r}].measurement")
        dims.append(m.dim)
        nodes[key] = TreeNode(m)
        for label in reversed(m.labels):
            stack.append((str(raw_children[label]) if label in raw_children else None, key + (label,), nid))

    if "wires" in obj:
        space, principal, output_principal = _wires_from_json(obj["wires"], "tree.wires")
        ancilla = [w for w in space.wires if w not in set(principal)]
        anc_spec = space.restrict(ancilla)
        if "ancilla_init" in obj:
            init = Ket.of(vector_from_json(obj["ancilla_init"], "tree.ancilla_init"), anc_spec)
        else:
            init = Ket.of(np.eye(anc_spec.dim, 1).reshape(-1), anc_spec)
        return MeasurementTree(
            space,
            nodes,
            principal_wires=tuple(principal),
            ancilla_wires=tuple(ancilla),
            ancilla_init=init,
            output_principal_wires=tuple(output_principal) if output_principal is not None else None,
        )
    if not dims:
        raise ValueError('tree: a single-leaf tree needs a "wires" section to fix the dimension')
    space = HilbertSpec.of([("k", dims[0])])
    return MeasurementTree(space, nodes)


def tree_to_dot(t: MeasurementTree) -> str:
    """A Graphviz digraph of the tree, edges labeled by outcomes."""
    ids = {key: nid.replace('"', '\\"') for key, nid in _tree_node_ids(t).items()}
    lines = ["digraph meastree {", "  rankdir=TB;"]
    for key, nid in ids.items():
        lines.append(f'  "{nid}" [shape={"box" if t.nodes[key].is_leaf else "ellipse"}];')
    for key, nid in ids.items():
        node = t.nodes[key]
        for label in () if node.is_leaf else node.measurement.labels:
            lab = label.replace('"', '\\"')
            lines.append(f'  "{nid}" -> "{ids[key + (label,)]}" [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
