"""Input-independence analysis of measurement-tree branches.

A branch whose composed operator sends every joint input
``psi (x) ancilla`` to ``U psi (x) b`` for an isometric U and a fixed
vector b has input-independent probability ``|b|^2`` and applies U to
the principal state. ``factor_branch`` searches for that witness,
``check_independence`` measures probability spread over probe states,
and ``check_isometry_scaling`` confirms that a family of branches all
computing the same operator forces that operator to be an isometry up
to one overall scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL,
    DensityOperator,
    basis_ket,
    bipartition_ket,
    dagger,
    embed_principal,
    frob_norm,
    haar_ket,
    identity,
    outcome_probability,
    partial_trace_matrix,
    projector,
    proportional,
)
from .trees import Branch, MeasurementTree, branch_operator

__all__ = [
    "BranchFactorization",
    "IndependenceReport",
    "SetIndependenceReport",
    "IsometryScalingReport",
    "factor_branch",
    "check_independence",
    "check_computes",
    "check_set_independence",
    "constant_factor",
    "check_isometry_scaling",
]

# Rank-1 and factorization-residual thresholds, relative to the largest
# singular value seen on the branch.
EPS_RANK = 1e-8
EPS_FACT = 1e-8


@dataclass(frozen=True, eq=False)
class BranchFactorization:
    """Witness that a branch acts as ``psi (x) a -> U psi (x) b``.

    ``principal_operator`` (U) maps the input principal space into the
    output principal space and is isometric: kind "unitary" when square
    and invertible, "isometry-only" when it embeds into a larger space.
    ``ancilla_vector`` (b) carries the branch weight; its squared norm is
    the branch probability on every input.
    """

    branch: Branch
    principal_operator: np.ndarray
    ancilla_vector: np.ndarray
    residual: float
    probability: float
    kind: str


@dataclass(frozen=True)
class IndependenceReport:
    branch: Branch
    probe_count: int
    min_probability: float
    max_probability: float
    max_deviation: float
    verdict: str


@dataclass(frozen=True)
class SetIndependenceReport:
    branches: tuple[Branch, ...]
    verdict: str
    constant: float | None
    min_sum: float
    max_sum: float
    max_deviation: float
    failing_branch: Branch | None = None


@dataclass(frozen=True)
class IsometryScalingReport:
    t_scale: float | None
    verdict: str
    detail: str = ""


def _require_roles(t: MeasurementTree) -> None:
    if not t.has_roles():
        raise ValueError("tree carries no principal/ancilla wire roles; analysis needs them")


def _joint_state(t: MeasurementTree, psi: np.ndarray) -> DensityOperator:
    k = embed_principal(t, psi)
    return DensityOperator(np.outer(k, k.conj()), t.space)


def _output_matrix(t: MeasurementTree, v: np.ndarray) -> np.ndarray:
    """Reshape a full-space vector into (output principal) x (output ancilla)."""
    return bipartition_ket(v, t.space, t.output_principal)


def _basis_probes(dim: int) -> list[np.ndarray]:
    return [basis_ket(dim, i) for i in range(dim)]


def _pair_probes(dim: int) -> list[np.ndarray]:
    probes = []
    for i in range(dim):
        for j in range(i + 1, dim):
            e_i, e_j = basis_ket(dim, i), basis_ket(dim, j)
            probes.append((e_i + e_j) / np.sqrt(2))
            probes.append((e_i + 1j * e_j) / np.sqrt(2))
    return probes


def factor_branch(
    t: MeasurementTree,
    branch: Sequence[str],
    *,
    random_probes: int = 4,
    seed: int = 0,
) -> BranchFactorization | None:
    """Extract the product-form witness (U, b) of a branch, if one exists.

    Probes the composed operator on principal basis vectors, demands each
    image splits rank-1 across the output principal/ancilla cut with a
    common ancilla factor, normalizes so that U is isometric and b holds
    the branch weight, and verifies the factorization on pairwise
    superpositions and a few seeded random probes. Returns None when any
    step fails, including when no isometric normalization exists.
    """
    _require_roles(t)
    c = branch_operator(t, branch)
    d_in = math.prod(t.space.dim_of(w) for w in t.principal_wires) if t.principal_wires else 1

    images = [c @ embed_principal(t, e) for e in _basis_probes(d_in)]
    mats = [_output_matrix(t, v) for v in images]

    svals = [np.linalg.svd(m, compute_uv=False) for m in mats]
    scale = max(float(s[0]) for s in svals)
    if scale <= TOL.zero:
        return None  # the branch annihilates every joint basis input
    for s in svals:
        if len(s) > 1 and float(s[1]) > EPS_RANK * scale:
            return None  # some basis image does not split across the cut

    first = next(i for i, s in enumerate(svals) if float(s[0]) > EPS_RANK * scale)
    _, _, vh = np.linalg.svd(mats[first])
    b_dir = vh[0].conj()
    # Phase convention: largest entry of the ancilla direction real positive.
    anchor = b_dir[int(np.argmax(np.abs(b_dir)))]
    b_dir = b_dir * (anchor.conjugate() / abs(anchor))

    cols = []
    for m in mats:
        u = m @ b_dir.conj()
        if frob_norm(m - np.outer(u, b_dir)) > EPS_FACT * scale:
            return None  # ancilla factor is not common to all basis images
        cols.append(u)

    weight = math.sqrt(sum(float(np.vdot(u, u).real) for u in cols) / d_in)
    if weight <= TOL.zero:
        return None
    principal = np.stack(cols, axis=1) / weight
    b = weight * b_dir

    gram = dagger(principal) @ principal
    if frob_norm(gram - identity(d_in)) > EPS_FACT:
        return None  # no isometric normalization: column norms or angles disagree
    d_out = principal.shape[0]
    if d_out == d_in and frob_norm(principal @ dagger(principal) - identity(d_out)) <= EPS_FACT:
        kind = "unitary"
    else:
        kind = "isometry-only"

    # Move the global phase onto U's first nonzero column entry.
    flat = principal.T.reshape(-1)
    lead = flat[int(np.argmax(np.abs(flat) > EPS_FACT))]
    phase = lead.conjugate() / abs(lead)
    principal = principal * phase
    b = b * phase.conjugate()

    rng = np.random.default_rng(seed)
    probes = _basis_probes(d_in) + _pair_probes(d_in)
    probes += [haar_ket(d_in, rng) for _ in range(random_probes)]
    residual = 0.0
    for psi in probes:
        got = _output_matrix(t, c @ embed_principal(t, psi))
        want = np.outer(principal @ psi, b)
        residual = max(residual, frob_norm(got - want))
    if residual > EPS_FACT * max(scale, 1.0):
        return None

    return BranchFactorization(
        branch=tuple(branch),
        principal_operator=principal,
        ancilla_vector=b,
        residual=residual,
        probability=float(np.vdot(b, b).real),
        kind=kind,
    )


def _probe_kets(t: MeasurementTree, probes: int, seed: int, extra) -> list[np.ndarray]:
    d_in = math.prod(t.space.dim_of(w) for w in t.principal_wires) if t.principal_wires else 1
    rng = np.random.default_rng(seed)
    kets = _basis_probes(d_in)
    if extra is not None:
        for x in extra:
            x = np.asarray(x, dtype=complex).reshape(-1)
            kets.append(x / np.linalg.norm(x))
    kets += [haar_ket(d_in, rng) for _ in range(probes)]
    return kets


def check_independence(
    t: MeasurementTree,
    branch: Sequence[str],
    probes: int = 32,
    seed: int = 0,
    extra_probes: Sequence[np.ndarray] | None = None,
) -> IndependenceReport:
    """Measure how much a branch's probability varies across pure inputs.

    Probes are all principal basis states, optional caller-supplied kets,
    and seeded Haar-random kets. Verdict "independent" needs the spread
    within 1e-9, "dependent" means above 1e-6, anything between is
    "inconclusive". When the branch factors, the observed probabilities
    are additionally checked against the witness weight |b|^2.
    """
    _require_roles(t)
    c = branch_operator(t, branch)
    values = [
        outcome_probability(c, _joint_state(t, psi))
        for psi in _probe_kets(t, probes, seed, extra_probes)
    ]
    lo, hi = min(values), max(values)
    spread = hi - lo
    if spread <= 1e-9:
        verdict = "independent"
    elif spread > 1e-6:
        verdict = "dependent"
    else:
        verdict = "inconclusive"

    fact = factor_branch(t, branch)
    if fact is not None:
        if spread > 1e-9 or any(abs(p - fact.probability) > 1e-9 for p in values):
            raise AssertionError(
                f"branch {tuple(branch)!r} factors with weight {fact.probability:.12f} "
                f"but probabilities range over [{lo:.12f}, {hi:.12f}]"
            )
    return IndependenceReport(
        branch=tuple(branch),
        probe_count=len(values),
        min_probability=lo,
        max_probability=hi,
        max_deviation=spread,
        verdict=verdict,
    )


def check_computes(
    t: MeasurementTree,
    branch: Sequence[str],
    operator: np.ndarray,
    probes: int = 16,
    seed: int = 0,
) -> tuple[bool, float]:
    """Does the branch map every pure input rho to something proportional
    to ``U rho U^dag`` on the output principal wires, with the
    proportionality constant equal to the branch probability?

    Returns (holds, max residual over probes).
    """
    _require_roles(t)
    u = np.asarray(operator, dtype=complex)
    c = branch_operator(t, branch)
    worst = 0.0
    rng = np.random.default_rng(seed)
    d_in = math.prod(t.space.dim_of(w) for w in t.principal_wires) if t.principal_wires else 1
    kets = _basis_probes(d_in) + _pair_probes(d_in)
    kets += [haar_ket(d_in, rng) for _ in range(probes)]
    for psi in kets:
        joint = _joint_state(t, psi)
        sigma = c @ joint.matrix @ dagger(c)
        reduced = partial_trace_matrix(sigma, t.space, t.output_principal)
        target = u @ projector(psi) @ dagger(u)
        const = proportional(reduced, target, tol=1e-9)
        if const is None:
            return False, float("inf")
        p = outcome_probability(c, joint)
        if abs(const - p) > 1e-9:
            return False, abs(const - p)
        worst = max(worst, frob_norm(reduced - const * target))
    return True, worst


def check_set_independence(
    t: MeasurementTree,
    branches: Sequence[Sequence[str]],
    probes: int = 32,
    seed: int = 0,
) -> SetIndependenceReport:
    """Check that a set of branches has input-independent total probability.

    Every branch must factor; the claimed constant is the sum of the
    witness weights, and the observed per-probe sums must stay within
    1e-9 of it.
    """
    _require_roles(t)
    branch_keys = tuple(tuple(b) for b in branches)
    facts = []
    for b in branch_keys:
        f = factor_branch(t, b)
        if f is None:
            return SetIndependenceReport(
                branches=branch_keys,
                verdict="inconclusive",
                constant=None,
                min_sum=float("nan"),
                max_sum=float("nan"),
                max_deviation=float("nan"),
                failing_branch=b,
            )
        facts.append(f)
    constant = sum(f.probability for f in facts)
    ops = [branch_operator(t, b) for b in branch_keys]
    sums = []
    for psi in _probe_kets(t, probes, seed, None):
        joint = _joint_state(t, psi)
        sums.append(sum(outcome_probability(c, joint) for c in ops))
    lo, hi = min(sums), max(sums)
    spread = max(hi - constant, constant - lo, 0.0)
    verdict = "independent" if spread <= 1e-9 else "dependent"
    return SetIndependenceReport(
        branches=branch_keys,
        verdict=verdict,
        constant=constant,
        min_sum=lo,
        max_sum=hi,
        max_deviation=spread,
    )


def constant_factor(
    joint_map: np.ndarray,
    base_map: np.ndarray,
    *,
    eps: float = 1e-9,
) -> np.ndarray | None:
    """Vector c with ``joint_map = base_map (x) c``, or None.

    ``joint_map`` sends V1 into V2 (x) V3 (rows ordered with the V2 index
    major); ``base_map`` sends V1 into V2 and must have rank >= 2, which
    is what makes the factor unique when it exists. The candidate is read
    off one well-conditioned probe and then verified on a spanning set.
    """
    lam = np.asarray(joint_map, dtype=complex)
    lop = np.asarray(base_map, dtype=complex)
    d2, d1 = lop.shape
    if lam.shape[1] != d1 or lam.shape[0] % d2 != 0:
        raise ValueError(f"shape mismatch: joint {lam.shape}, base {lop.shape}")
    d3 = lam.shape[0] // d2
    svals = np.linalg.svd(lop, compute_uv=False)
    if len(svals) < 2 or svals[1] <= EPS_RANK * max(float(svals[0]), 1.0):
        raise ValueError("base map must have rank >= 2")

    _, _, vh = np.linalg.svd(lop)
    x = vh[0].conj()
    lx = lop @ x
    w = (lam @ x).reshape(d2, d3)
    c = (lx.conj() @ w) / float(np.vdot(lx, lx).real)

    scale = max(frob_norm(lam), 1.0)
    probes = _basis_probes(d1) + _pair_probes(d1) + [x]
    for y in probes:
        want = np.outer(lop @ y, c).reshape(-1)
        if frob_norm(lam @ y - want) > eps * scale:
            return None
    return c


def check_isometry_scaling(
    t: MeasurementTree,
    operator: np.ndarray,
    *,
    eps: float = 1e-9,
) -> IsometryScalingReport:
    """If every branch computes the same given operator, confirm that the
    operator times ``t_scale = sqrt(sum of branch weights)`` is an isometry.

    Each branch must factor on its own and must factor through the
    supplied operator (which may differ from the canonical witness by an
    overall scale); otherwise the report is inconclusive. For square
    operators unitarity of the rescaled operator is checked too.
    """
    _require_roles(t)
    u = np.asarray(operator, dtype=complex)
    branches = t.branches()
    canonical = []
    for b in branches:
        f = factor_branch(t, b)
        if f is None:
            return IsometryScalingReport(None, "inconclusive", f"branch {b!r} does not factor")
        canonical.append(f)
    ref = canonical[0].principal_operator
    for f in canonical[1:]:
        other = f.principal_operator
        overlap = complex(np.vdot(ref, other))
        aligned = other * (overlap.conjugate() / abs(overlap)) if abs(overlap) > 0 else other
        if frob_norm(aligned - ref) > EPS_FACT * max(frob_norm(ref), 1.0):
            return IsometryScalingReport(
                None, "inconclusive", "branches compute differing principal operators"
            )

    weights = []
    for b in branches:
        c = branch_operator(t, b)
        d_in = u.shape[1]
        cols = [_output_matrix(t, c @ embed_principal(t, e)).reshape(-1) for e in _basis_probes(d_in)]
        lam = np.stack(cols, axis=1)
        try:
            bvec = constant_factor(lam, u, eps=max(eps, EPS_FACT))
        except ValueError as exc:
            return IsometryScalingReport(None, "inconclusive", str(exc))
        if bvec is None:
            return IsometryScalingReport(
                None, "inconclusive", f"branch {b!r} does not factor through the supplied operator"
            )
        weights.append(float(np.vdot(bvec, bvec).real))

    t_scale = math.sqrt(sum(weights))
    scaled = t_scale * u
    if frob_norm(dagger(scaled) @ scaled - identity(u.shape[1])) > eps:
        return IsometryScalingReport(t_scale, "failed", "rescaled operator is not an isometry")
    if u.shape[0] == u.shape[1]:
        if frob_norm(scaled @ dagger(scaled) - identity(u.shape[0])) > eps:
            return IsometryScalingReport(t_scale, "failed", "rescaled operator is not unitary")
        return IsometryScalingReport(t_scale, "unitary", "")
    return IsometryScalingReport(t_scale, "isometry", "")
