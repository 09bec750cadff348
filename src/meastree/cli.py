"""Command-line front end.

Verbs: validate, paths, simulate, reduce, tree, check-independence,
check-unitary, factor, demo. Machine output is JSON on stdout
(``--format table`` switches the report verbs to aligned text);
diagnostics go to stderr. Exit codes: 0 success, 1 malformed input,
2 validation violations, 3 a requested check failed. A verb whose
stdout is closed early (piped into ``head``, say) stops quietly with
141, the status of a process ended by SIGPIPE.

The environment variable MEASTREE_TOL, when set to a float, overrides
the validation tolerances (completeness, hermiticity, positivity) for
the whole invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence
from functools import cache
from typing import Any

import numpy as np

from .circuits import (
    Circuit,
    InvalidCircuitError,
    _simulate,
    validate_circuit,
)
from .demos import DEMOS
from .independence import check_computes, check_independence, check_isometry_scaling, factor_branch
from .linalg import (
    TOL,
    DensityOperator,
    _partial_traces,
    _walk,
    configure_tolerances,
    embed_principal,
    frob_norm,
    projector,
)
from .reduction import _branch_of, linearize, reduce_circuit
from .serialize import (
    _circuit_payload,
    _json_text,
    _tree_payload,
    circuit_from_json,
    matrix_from_json,
    measurement_from_json,
    state_from_json,
    tree_from_json,
    tree_to_dot,
)
from .trees import MeasurementTree, _principal_part, _route_labels, _runs, validate_tree

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3
EXIT_PIPE_CLOSED = 128 + 13  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended

__all__ = ["main"]


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # a syntax error, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None


def _print_json(payload: Any) -> None:
    print(_json_text(payload))


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    all_rows = [header] + rows
    widths = [max(len(r[i]) for r in all_rows) for i in range(len(header))]
    lines = []
    for r in all_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return lines


def _matrix_lines(m: np.ndarray, indent: str = "    ") -> list[str]:
    # + 0.0 turns the -0.0 that rounding leaves of tiny noise into 0.0
    text = np.array2string(np.round(m, 9) + 0.0, precision=6, suppress_small=True)
    return [indent + line for line in text.splitlines()]


def _path_route(c: Circuit, text: str) -> tuple[str, ...]:
    """The outcome prefix of the one path that ``text``, "gate=outcome,...", specifies.

    A gate left unmentioned is filled in when the measurement selected for
    it has a single outcome; a gate with a real choice must be pinned. The
    text is read whole before the route is stepped through ``c._expand``.
    """
    given: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"path: expected gate=outcome, got {part!r}")
        gid, label = (s.strip() for s in part.split("=", 1))
        if gid not in c.gates:
            raise ValueError(f"path: unknown gate {gid!r}")
        if gid in given:
            raise ValueError(f"path: gate {gid!r} pinned twice")
        given[gid] = label

    route: tuple[str, ...] = ()
    while (step := c._expand(route))[0] is not None:
        g, m, _ = step
        if g.gate_id in given:
            if given[g.gate_id] not in m.outcomes:
                raise ValueError(
                    f"path: gate {g.gate_id!r} has no outcome {given[g.gate_id]!r} here "
                    f"(options: {', '.join(m.labels)})"
                )
            route += (given[g.gate_id],)
        elif len(m.labels) == 1:
            route += m.labels
        else:
            raise ValueError(
                f"path: gate {g.gate_id!r} is ambiguous; pin one of: {', '.join(m.labels)}"
            )
    return route


def _path_json(order: Sequence[str], prefix: Sequence[str]) -> dict[str, str]:
    """A path's outcomes ``prefix`` by gate, in ``order``, the circuit's ``flattened_gates``."""
    return dict(zip(order, prefix))


def _path_text(order: Sequence[str], prefix: Sequence[str]) -> str:
    """A path as the "gate=outcome,..." text that ``--path`` reads."""
    return ",".join(map("=".join, zip(order, prefix)))


def _require_path_texts(verb: str, order: Sequence[str], prefixes: Sequence[Sequence[str]]) -> None:
    """ValueError naming the first gate and outcome of ``prefixes`` that ``_path_text`` cannot
    write as a ``--path`` spec: such a text could name another path, or two paths alike."""
    for gid, label in dict.fromkeys(pair for p in prefixes for pair in zip(order, p)):
        # --path splits at commas and the first "=", and strips each side
        if "," in gid + label or "=" in gid or gid != gid.strip() or label != label.strip():
            raise ValueError(f"{verb}: gate {gid!r} outcome {label!r} cannot be written as a --path spec")


def _paths(c: Circuit, spec: str | None = None) -> list[tuple[dict[str, str], str]]:
    """``(path, label)`` for each path of ``c`` in walk order, or for the one path that ``spec``
    names, resolved first so that its errors come first: its outcomes by gate, and its branch of
    ``reduce_circuit(c)`` as ``simulate --tree`` labels it on the tree that ``tree --circuit``
    writes, made distinct over every branch (``_route_labels``). A label holds one "/" per layer
    boundary plus those in its outcome labels, so only a path whose outcome labels hold one can
    share its text and needs every path listed. Paths analysed in this order carry ``V = C E``
    down each edge of the circuit once (``_resume``)."""
    named = listed = [_path_route(c, spec)] if spec is not None else []
    if not named or any("/" in label for label in named[0]):
        listed = [p for p, g, _, _ in _walk(c) if g is None]
    labels = dict(zip(listed, _route_labels([_branch_of(p, c._bounds) for p in listed])))
    return [(_path_json(c._order, p), labels[p]) for p in named or listed]


def _load_valid_circuit(path: str) -> Circuit:
    c = circuit_from_json(_load_json(path))
    c.require_valid()
    return c


def _load_valid_tree(path: str) -> MeasurementTree:
    """The tree in ``path``; InvalidCircuitError with its ``validate_tree`` problems, which
    ``main`` reports as it reports a circuit's violations: one a line, exit 2."""
    t = tree_from_json(_load_json(path))
    if problems := validate_tree(t):
        raise InvalidCircuitError(problems)
    return t


def _state_matrix(kind: str, arr: np.ndarray) -> np.ndarray:
    """The matrix of a state file's ket or density matrix. A ket too large to
    square gives entries of inf or NaN, which ``DensityOperator.of`` rejects."""
    if kind != "ket":
        return np.asarray(arr, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return projector(arr)


def _tree_input(t: MeasurementTree, kind: str, arr: np.ndarray) -> DensityOperator:
    """Accept a principal-space state (when the tree has roles) or a full one.

    A principal state is checked at its own size: E is an isometry up to
    ``|a|^2``, so ``E rho E^dag`` is a valid state exactly when rho is.
    So is a full one that ``run_tree`` reads as ``E rho E^dag``.
    """
    n = arr.shape[0]
    if t.has_roles():
        principal = t.space.restrict(t.principal_wires)
        if n == principal.dim != t.space.dim:
            rho = DensityOperator.of(_state_matrix(kind, arr), principal)
            return DensityOperator(embed_principal(t, rho.matrix), t.space)
    if n != t.space.dim:
        raise ValueError(f"input dimension {n} matches neither the principal nor the full space")
    m = _state_matrix(kind, arr)
    with np.errstate(over="ignore"):  # a finite norm first: a NaN or inf residual passes the range test
        finite = math.isfinite(frob_norm(m))
    if m.shape == (n, n) and finite and (rho := _principal_part(t, m)) is not None:
        DensityOperator.of(rho, t.space.restrict(t.principal_wires))
        return DensityOperator(m, t.space)
    return DensityOperator.of(m, t.space)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


# ---------------------------------------------------------------- verbs


def _cmd_validate(args: argparse.Namespace) -> int:
    payload = _load_json(args.file)
    if not isinstance(payload, dict):
        raise ValueError("expected a circuit, tree, or measurement JSON object")
    if "gates" in payload:
        c = circuit_from_json(payload)
        violations = validate_circuit(c)
        out = {
            "kind": "circuit",
            "valid": not violations,
            "violations": [
                {"code": v.code, "where": v.where, "message": v.message} for v in violations
            ],
        }
        lines = ["circuit: OK"] if not violations else [str(v) for v in violations]
    elif "nodes" in payload:
        t = tree_from_json(payload)
        problems = validate_tree(t)
        out = {"kind": "tree", "valid": not problems, "problems": problems}
        lines = ["tree: OK"] if not problems else problems
    elif "outcomes" in payload:
        m = measurement_from_json(payload)
        defect = m.completeness_defect()
        problems = [] if defect <= TOL.complete else [f"completeness defect {defect:.3e}"]
        out = {"kind": "measurement", "valid": not problems, "problems": problems}
        lines = ["measurement: OK"] if not problems else problems
    else:
        raise ValueError("expected a circuit, tree, or measurement JSON object")
    if args.format == "table":
        print("\n".join(lines))
    else:
        _print_json(out)
    return EXIT_OK if out["valid"] else EXIT_INVALID


def _cmd_paths(args: argparse.Namespace) -> int:
    c = _load_valid_circuit(args.circuit)
    paths, order = [p for p, g, _, _ in _walk(c) if g is None], c._order
    if args.format == "table":
        _require_path_texts("paths", order, paths)
        for p in paths:
            print(_path_text(order, p))
    else:
        _print_json([_path_json(order, p) for p in paths])
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.path and not args.circuit:
        raise ValueError("--path applies only with --circuit")
    kind, arr = state_from_json(_load_json(args.input))
    if args.circuit:
        roles = c = _load_valid_circuit(args.circuit)
        rho = DensityOperator.of(_state_matrix(kind, arr), c.principal_spec)
        key, runs = "path", _simulate(c, rho, _path_route(c, args.path) if args.path else None)
    else:
        roles = t = _load_valid_tree(args.tree)
        key, runs = "branch", _runs(t, _tree_input(t, kind, arr))  # in walk order, the order of t.branches()
    routes, rows = [], []
    # each chunk is reduced before the next is made: at most one chunk of outputs is held
    for chunk, probabilities, traces, sigmas in runs:
        routes += chunk
        rows += [{key: None, "probability": prob, "output_trace": trace} for prob, trace in zip(probabilities, traces)]
        reduced = _partial_traces(sigmas, roles.space, roles.output_principal) if roles.has_roles() else ()
        for row, r in zip(rows[-len(chunk) :], reduced):
            row["principal_output"] = r
    if args.circuit:
        order = c._order
        names = [_path_json(order, p) for p in routes]
        if args.format == "table":
            _require_path_texts("simulate", order, routes)
            labels = [_path_text(order, p) for p in routes]
    else:
        names = _route_labels(routes)
        labels = [name or "(root)" for name in names]
    for row, name in zip(rows, names):
        row[key] = name

    if args.format == "table":
        table_rows = [
            [label, f"{r['probability']:.9f}", f"{r['output_trace']:.9f}"] for label, r in zip(labels, rows)
        ]
        print("\n".join(_table(table_rows, ["route", "probability", "output_trace"])))
        for label, r in zip(labels, rows):
            if "principal_output" in r:
                print(f"{label}: principal output")
                print("\n".join(_matrix_lines(r["principal_output"])))
    else:
        _print_json(rows)
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    c = _load_valid_circuit(args.circuit)
    lin, _ = linearize(c)
    _write_or_print(_json_text(_circuit_payload(lin, np.asarray)), args.output)
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    if args.circuit:
        c = _load_valid_circuit(args.circuit)
        t, _ = reduce_circuit(c)
    else:
        t = _load_valid_tree(args.tree)
    if args.dot:
        _write_or_print(tree_to_dot(t), args.output)
    else:
        _write_or_print(_json_text(_tree_payload(t, np.asarray)), args.output)
    return EXIT_OK


def _cmd_check_independence(args: argparse.Namespace) -> int:
    c = _load_valid_circuit(args.circuit)
    paths = _paths(c, args.path or None)  # an empty --path means every path
    reports = [check_independence(c, path, args.probes, args.seed) for path, _ in paths]
    payload = [
        {
            "path": path,
            "branch": label,
            "probe_count": rep.probe_count,
            "min_probability": rep.min_probability,
            "max_probability": rep.max_probability,
            "max_deviation": rep.max_deviation,
            "verdict": rep.verdict,
        }
        for (path, label), rep in zip(paths, reports)
    ]
    if args.format == "table":
        rows = [
            [
                label,
                rep.verdict,
                f"{rep.min_probability:.9f}",
                f"{rep.max_probability:.9f}",
                f"{rep.max_deviation:.3e}",
            ]
            for (_, label), rep in zip(paths, reports)
        ]
        print("\n".join(_table(rows, ["branch", "verdict", "min p", "max p", "spread"])))
    else:
        _print_json(payload)
    ok = all(rep.verdict == "independent" for rep in reports)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_check_unitary(args: argparse.Namespace) -> int:
    c = _load_valid_circuit(args.circuit)
    u = matrix_from_json(_load_json(args.operator), "operator")
    iso = check_isometry_scaling(c, u)
    target = iso.t_scale * u if iso.t_scale is not None else u  # the operator rescaled to an isometry
    # both checks read each path's factor from its one record, so each path is decomposed and factored once
    rows = [(label, *check_computes(c, path, target, args.probes, args.seed)) for path, label in _paths(c)]
    branch_rows = [
        {
            "branch": label,
            "computes": holds,
            "residual": residual if math.isfinite(residual) else None,
        }
        for label, holds, residual in rows
    ]
    payload = {
        "branches": branch_rows,
        "t_scale": iso.t_scale,
        "verdict": iso.verdict,
        "detail": iso.detail,
    }
    if args.format == "table":
        table_rows = [
            [r["branch"], "yes" if r["computes"] else "no",
             "-" if r["residual"] is None else f"{r['residual']:.3e}"]
            for r in branch_rows
        ]
        print("\n".join(_table(table_rows, ["branch", "computes", "residual"])))
        scale = "-" if iso.t_scale is None else f"{iso.t_scale:.9f}"
        line = f"t_scale={scale}  verdict={iso.verdict}"
        print(line if not iso.detail else f"{line}  ({iso.detail})")
    else:
        _print_json(payload)
    ok = all(holds for _, holds, _ in rows) and iso.verdict in ("unitary", "isometry")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_factor(args: argparse.Namespace) -> int:
    c = _load_valid_circuit(args.circuit)
    ((path, label),) = _paths(c, args.path)
    f = factor_branch(c, path, seed=args.seed)
    if f is None:
        if args.format == "table":
            print(f"{label}: does not factor")
        else:
            _print_json({"path": path, "branch": label, "factored": False})
        return EXIT_CHECK_FAILED
    payload = {
        "path": path,
        "branch": label,
        "factored": True,
        "kind": f.kind,
        "probability": f.probability,
        "residual": f.residual,
        "U": f.principal_operator,
        "b": f.ancilla_vector,
    }
    if args.format == "table":
        print(f"branch:      {label}")
        print(f"kind:        {f.kind}")
        print(f"probability: {f.probability:.9f}")
        print(f"residual:    {f.residual:.3e}")
        print("U:")
        print("\n".join(_matrix_lines(f.principal_operator)))
        print("b:")
        print("\n".join(_matrix_lines(f.ancilla_vector.reshape(-1, 1))))
    else:
        _print_json(payload)
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    if not args.name:
        if args.format == "table":
            print("\n".join(sorted(DEMOS)))
        else:
            _print_json(sorted(DEMOS))
        return EXIT_OK
    if args.name not in DEMOS:
        raise ValueError(f"unknown demo {args.name!r} (have: {', '.join(sorted(DEMOS))})")
    text = _json_text(_circuit_payload(DEMOS[args.name](), np.asarray))
    if args.emit or args.output:
        _write_or_print(text, args.output or f"{args.name}.json")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------- parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later ``main`` call.

    ``parse_args`` leaves it as it found it: each call gets a new namespace.
    """
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "table"),
        default="json",
        help="report style on stdout (default json)",
    )

    p = argparse.ArgumentParser(
        prog="meastree",
        description="Circuits with general measurements, their measurement trees, "
        "and input-independence checks.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("validate", parents=[fmt], help="validate a circuit/tree/measurement file")
    sp.add_argument("file")
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("paths", parents=[fmt], help="enumerate the coherent paths of a circuit")
    sp.add_argument("--circuit", required=True)
    sp.set_defaults(handler=_cmd_paths)

    sp = sub.add_parser("simulate", parents=[fmt], help="run a circuit or a tree on an input state")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--circuit")
    grp.add_argument("--tree")
    sp.add_argument("--input", required=True, help="state file: ket or density matrix JSON")
    sp.add_argument("--path", help='circuit mode: one path as "gate=outcome,..."')
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser(
        "reduce", parents=[fmt], help="merge each schedule layer into one gate (linearize)"
    )
    sp.add_argument("--circuit", required=True)
    sp.add_argument("-o", "--output", help="write the linear circuit JSON here instead of stdout")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser(
        "tree", parents=[fmt], help="compile to a measurement tree (from a circuit or a tree file)"
    )
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--circuit")
    grp.add_argument("--tree")
    sp.add_argument("--dot", action="store_true", help="emit Graphviz dot text instead of JSON")
    sp.add_argument("-o", "--output")
    sp.set_defaults(handler=_cmd_tree)

    sp = sub.add_parser(
        "check-independence",
        parents=[fmt],
        help="decide whether path probabilities depend on the input",
    )
    sp.add_argument("--circuit", required=True)
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--path", help='one path as "gate=outcome,..."')
    grp.add_argument("--all-paths", action="store_true", help="check every path (default)")
    sp.add_argument("--probes", type=int, default=32)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(handler=_cmd_check_independence)

    sp = sub.add_parser(
        "check-unitary",
        parents=[fmt],
        help="check that every branch computes the given operator, and its scaling",
    )
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--operator", required=True, help="matrix JSON file")
    sp.add_argument("--probes", type=int, default=16)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(handler=_cmd_check_unitary)

    sp = sub.add_parser(
        "factor", parents=[fmt], help="factor one branch into an isometry and an ancilla vector"
    )
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--path", required=True, help='path as "gate=outcome,..."')
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=_cmd_factor)

    sp = sub.add_parser("demo", parents=[fmt], help="print or emit a bundled demo circuit")
    sp.add_argument("name", nargs="?", help="demo name; omit to list them")
    sp.add_argument("--emit", action="store_true", help="write NAME.json instead of stdout")
    sp.add_argument("-o", "--output", help="write to this file")
    sp.set_defaults(handler=_cmd_demo)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    saved = dict(vars(TOL))
    try:
        raw_tol = os.environ.get("MEASTREE_TOL")
        if raw_tol:
            try:
                configure_tolerances(float(raw_tol))
            except ValueError as exc:
                print(f"error: MEASTREE_TOL: {exc}", file=sys.stderr)
                return EXIT_MALFORMED
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the flush at exit does not fail again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except InvalidCircuitError as exc:
        for v in exc.violations:
            print(str(v), file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_MALFORMED
    finally:
        vars(TOL).update(saved)


if __name__ == "__main__":
    sys.exit(main())
