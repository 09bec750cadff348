"""Input-independence analysis of measurement-tree branches.

Every verdict is exact and read off the branch isometry ``V_b = C_b E``,
where ``C_b`` is the branch's composed operator and the columns of ``E``
are the joint inputs ``e_i (x) ancilla``. A branch fires on a principal
state rho with probability ``Tr(V_b rho V_b^dag)``, so its exact range
over inputs is ``[lambda_min, lambda_max]`` of ``V_b^dag V_b``, and a
set of branches is input-independent iff the sum of those is ``p I``.
The branch computes an isometry U, sending ``psi (x) ancilla`` to
``U psi (x) b``, iff ``V_b`` reshaped to (output ancilla) x (output
principal . input) has rank 1; then ``V_b^dag V_b = |b|^2 I``, which is
the paper's principle. The converse fails: the copy map
``|i> -> |i>|i>/sqrt(2)`` fires with probability 1/2 on every input yet
computes no U. Seeded probe kets only cross-check the exact answers at
the ket level and raise AssertionError on a disagreement.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL,
    _clamp_probability,
    _input_isometry,
    basis_ket,
    bipartition_ket,
    dagger,
    embed_principal,
    frob_norm,
    haar_ket,
    identity,
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

# Rank-1 and factorization-residual thresholds, relative to the scale of
# the matrix being factored.
EPS_RANK = 1e-8
EPS_FACT = 1e-8
# Slack of the probe cross-checks, which catch a wrong exact answer, not rounding.
EPS_CHECK = 1e-7


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


@dataclass(frozen=True)
class IsometryScalingReport:
    t_scale: float | None
    verdict: str
    detail: str = ""


def _principal_dim(t: MeasurementTree) -> int:
    if not t.has_roles():
        raise ValueError("tree carries no principal/ancilla wire roles; analysis needs them")
    if t.ancilla_init.norm() <= TOL.zero:
        raise ValueError("state has zero trace")
    return math.prod(t.space.dim_of(w) for w in t.principal_wires)


def _branch_isometry(t: MeasurementTree, branch: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``C_b`` and ``V_b = C_b E`` (D x d_P), from one ``branch_operator`` call."""
    _principal_dim(t)  # checks the wire roles and the ancilla norm
    c = branch_operator(t, branch) / t.ancilla_init.norm()  # probabilities per unit input norm
    return c, c @ _input_isometry(t)


def _factor(t: MeasurementTree, v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(U, b)`` with ``V = U (x) b`` and ``U^dag U = I``, or None.

    The first nonzero entry of U, in column order, is real and positive.
    """
    blocks = np.stack([bipartition_ket(col, t.space, t.output_principal) for col in v.T])
    d_in, d_out, d_anc = blocks.shape
    m = blocks.transpose(2, 1, 0).reshape(d_anc, d_out * d_in)
    left, s, right = np.linalg.svd(m, full_matrices=False)
    if s[0] <= TOL.zero or frob_norm(s[1:]) > EPS_RANK * s[0]:
        return None  # the branch annihilates every input, or entangles it with the ancilla
    u = right[0].reshape(d_out, d_in) * math.sqrt(d_in)
    if frob_norm(dagger(u) @ u - identity(d_in)) > EPS_FACT:
        return None  # no isometric normalization: column norms or angles disagree
    flat = u.T.reshape(-1)
    lead = flat[int(np.argmax(np.abs(flat) > EPS_FACT))]
    phase = lead.conjugate() / abs(lead)
    # "+ 0.0" turns the -0.0 entries the SVD leaves into 0.0
    return u * phase + 0.0, left[:, 0] * (s[0] / math.sqrt(d_in) / phase) + 0.0


def _probability_range(gram: np.ndarray) -> tuple[float, float]:
    lam = np.linalg.eigvalsh(gram)
    return _clamp_probability(float(lam[0])), _clamp_probability(float(lam[-1]))


def _probe_kets(d_in: int, probes: int, seed: int, extra=None) -> list[np.ndarray]:
    """The basis kets, the caller's kets normalized, then seeded Haar kets."""
    rng = np.random.default_rng(seed)
    kets = [basis_ket(d_in, i) for i in range(d_in)]
    for x in extra if extra is not None else ():
        kets.append(np.asarray(x, dtype=complex).reshape(-1) / np.linalg.norm(x))
    return kets + [haar_ket(d_in, rng) for _ in range(probes)]


def _cross_check(t: MeasurementTree, ops, kets, *, span=None, witness=None) -> float:
    """Test an exact answer on the probe inputs ``psi (x) ancilla``.

    With ``span`` = (lo, hi) the summed ``|C psi_a|^2`` over ``ops`` must
    lie in it; with ``witness`` = (U, b) the one op must send each probe to
    ``U psi (x) b``, and the largest miss is returned. Raises
    AssertionError on a disagreement.
    """
    residual = 0.0
    for psi in kets:
        images = [c @ embed_principal(t, psi) for c in ops]
        p = sum(float(np.vdot(x, x).real) for x in images)
        if span is not None and not span[0] - EPS_CHECK <= p <= span[1] + EPS_CHECK:
            raise AssertionError(f"probe probability {p:.12f} lies outside the exact range {span}")
        if witness is not None:
            got = bipartition_ket(images[0], t.space, t.output_principal)
            residual = max(residual, frob_norm(got - np.outer(witness[0] @ psi, witness[1])))
    if witness is not None and residual > EPS_CHECK * max(frob_norm(witness[0]) * frob_norm(witness[1]), 1.0):
        raise AssertionError(f"probe images miss the factorization by {residual:.3e}")
    return residual


def factor_branch(
    t: MeasurementTree,
    branch: Sequence[str],
    *,
    random_probes: int = 4,
    seed: int = 0,
) -> BranchFactorization | None:
    """Extract the product-form witness (U, b) of a branch, if one exists.

    The branch factors iff its isometry ``V_b``, reshaped to (output
    ancilla) x (output principal . input), has rank 1; U is normalized to
    be isometric and b holds the branch weight. Returns None otherwise,
    including when no isometric normalization exists. ``residual`` is the
    witness's largest miss on the basis kets and ``random_probes`` seeded
    Haar-random kets.
    """
    c, v = _branch_isometry(t, branch)
    fact = _factor(t, v)
    if fact is None:
        return None
    u, b = fact
    residual = _cross_check(t, [c], _probe_kets(u.shape[1], random_probes, seed), witness=fact)
    kind = "unitary" if u.shape[0] == u.shape[1] else "isometry-only"
    return BranchFactorization(tuple(branch), u, b, residual, float(np.vdot(b, b).real), kind)


def check_independence(
    t: MeasurementTree,
    branch: Sequence[str],
    probes: int = 32,
    seed: int = 0,
    extra_probes: Sequence[np.ndarray] | None = None,
) -> IndependenceReport:
    """The exact range of a branch's probability over all inputs.

    The range is ``[lambda_min, lambda_max]`` of ``V_b^dag V_b``. Verdict
    "independent" needs its width within 1e-9, "dependent" means above
    1e-6, anything between is "inconclusive". The probe kets (all
    principal basis states, optional caller-supplied kets and ``probes``
    seeded Haar-random kets) cross-check that range.
    """
    c, v = _branch_isometry(t, branch)
    lo, hi = _probability_range(dagger(v) @ v)
    kets = _probe_kets(v.shape[1], probes, seed, extra_probes)
    _cross_check(t, [c], kets, span=(lo, hi))
    spread = hi - lo
    verdict = "independent" if spread <= 1e-9 else "dependent" if spread > 1e-6 else "inconclusive"
    return IndependenceReport(tuple(branch), len(kets), lo, hi, spread, verdict)


def _aligned(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``a`` times the phase that best aligns it with ``ref``."""
    overlap = complex(np.vdot(a, ref))
    return a * (overlap / abs(overlap)) if abs(overlap) > TOL.zero else a


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

    It does iff the branch factors and the supplied operator is an
    isometry equal to the factor U up to phase. Returns (holds, the
    witness's largest miss on the basis kets and ``probes`` seeded
    Haar-random kets), or ``(False, inf)``.
    """
    u = np.asarray(operator, dtype=complex)
    c, v = _branch_isometry(t, branch)
    d_out = math.prod(t.space.dim_of(w) for w in t.output_principal)
    if u.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ValueError(f"operator of shape {u.shape} does not act on the principal input")
    if u.shape[0] != d_out:
        raise ValueError(f"shape mismatch {(d_out, d_out)} vs {(u.shape[0], u.shape[0])}")
    fact = _factor(t, v)
    if fact is None or frob_norm(_aligned(fact[0], u) - u) > 1e-9 * frob_norm(fact[0]):
        return False, float("inf")
    return True, _cross_check(t, [c], _probe_kets(u.shape[1], probes, seed), witness=fact)


def check_set_independence(
    t: MeasurementTree,
    branches: Sequence[Sequence[str]],
    probes: int = 32,
    seed: int = 0,
) -> SetIndependenceReport:
    """Check that a set of branches has input-independent total probability.

    The exact range of the total is ``[lambda_min, lambda_max]`` of the
    summed ``V_b^dag V_b``; the set is independent, with constant
    ``trace / d_P``, when its width is within 1e-9, and dependent
    otherwise. The branches need not factor. The basis kets and
    ``probes`` seeded Haar-random kets cross-check the range.
    """
    branch_keys = tuple(tuple(b) for b in branches)
    pairs = [_branch_isometry(t, b) for b in branch_keys]
    d_in = _principal_dim(t)
    gram = sum((dagger(v) @ v for _, v in pairs), np.zeros((d_in, d_in), dtype=complex))
    lo, hi = _probability_range(gram)
    _cross_check(t, [c for c, _ in pairs], _probe_kets(d_in, probes, seed), span=(lo, hi))
    if hi - lo > 1e-9:
        return SetIndependenceReport(branch_keys, "dependent", None, lo, hi, hi - lo)
    return SetIndependenceReport(branch_keys, "independent", float(np.trace(gram).real) / d_in, lo, hi, hi - lo)


def _pair_probes(dim: int) -> list[np.ndarray]:
    probes = []
    for i in range(dim):
        for j in range(i + 1, dim):
            e_i, e_j = basis_ket(dim, i), basis_ket(dim, j)
            probes.append((e_i + e_j) / np.sqrt(2))
            probes.append((e_i + 1j * e_j) / np.sqrt(2))
    return probes


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
    probes = list(identity(d1)) + _pair_probes(d1) + [x]
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

    Each branch must factor on its own as ``U (x) b``, and the supplied
    operator must be ``alpha U`` for one scalar alpha, which may differ
    from the canonical witness by an overall scale; otherwise the report
    is inconclusive. The branch weights are ``|b|^2 / |alpha|^2``. A
    square rescaled operator that is an isometry is reported "unitary".
    """
    u = np.asarray(operator, dtype=complex)
    factors = []
    for b in t.branches():
        fact = _factor(t, _branch_isometry(t, b)[1])
        if fact is None:
            return IsometryScalingReport(None, "inconclusive", f"branch {b!r} does not factor")
        factors.append((b, *fact))
    ref = factors[0][1]
    if any(frob_norm(_aligned(w, ref) - ref) > EPS_FACT * max(frob_norm(ref), 1.0) for _, w, _ in factors):
        return IsometryScalingReport(None, "inconclusive", "branches compute differing principal operators")

    weights = []
    for b, w, vec in factors:
        alpha = complex(np.vdot(w, u)) / w.shape[1] if u.shape == w.shape else 0.0
        if abs(alpha) <= TOL.zero or frob_norm(u - alpha * w) > max(eps, EPS_FACT) * max(frob_norm(u), 1.0):
            return IsometryScalingReport(
                None, "inconclusive", f"branch {b!r} does not factor through the supplied operator"
            )
        weights.append(float(np.vdot(vec, vec).real) / abs(alpha) ** 2)

    t_scale = math.sqrt(sum(weights))
    scaled = t_scale * u
    if frob_norm(dagger(scaled) @ scaled - identity(u.shape[1])) > eps:
        return IsometryScalingReport(t_scale, "failed", "rescaled operator is not an isometry")
    # a square isometry is unitary: S^dag S and S S^dag share their spectrum
    return IsometryScalingReport(t_scale, "unitary" if u.shape[0] == u.shape[1] else "isometry", "")
