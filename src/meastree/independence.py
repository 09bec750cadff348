"""Input-independence analysis of the branches of a circuit or a measurement tree.

Every public function takes a ``Circuit`` or a ``MeasurementTree`` with
wire roles. A branch of a tree is its route, the outcome labels from the
root. A branch of a circuit is a path: a ``{gate: outcome}`` mapping, as
``simulate_path`` takes it, such as an item of ``enumerate_paths``; a
report names it by the branch of ``reduce_circuit(c)`` that the path
maps to, so a report on a circuit and the report on its reduced tree
carry the same key.

Every verdict is exact and read off the branch isometry ``V_b = C_b E / |a|``,
where ``C_b`` is the branch's composed operator and the columns of ``E``
are the joint inputs ``e_i (x) ancilla``. The D x d_P matrix ``V_b`` is
built by carrying ``E`` down the branch one outcome operator at a time,
so the D x D operator ``C_b`` is never formed. Each circuit or tree
keeps, read-only, one record per branch analysed on it, which goes with
the object: ``V_b``, and the SVD and the factor U (x) b once factoring
needs them, so each branch is walked, decomposed and factored once. The
factor is kept with the zero threshold ``TOL.zero`` it was made under
and made anew under another; the probe cross-checks still apply on
every call. The seeded probe matrix is kept per ``(d_P, probes,
seed)``. A branch fires on a principal state rho with probability
``Tr(V_b rho V_b^dag)``, so its exact range over inputs is ``[lambda_min, lambda_max]`` of ``V_b^dag V_b``, and a
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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit
from .linalg import (
    TOL,
    _clamp_probability,
    _resume,
    _walk,
    bipartition_ket,
    dagger,
    frob_norm,
    identity,
)
from .reduction import _branch_of
from .trees import Branch, MeasurementTree

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
# The widest probability range that reads as input-independent, for one branch
# or a set, and the narrowest that reads as dependent for one branch.
EPS_FLAT = 1e-9
EPS_DEPENDENT = 1e-6
# How closely a supplied operator must match a branch factor U, relative to its
# scale, and how far from 1 the modulus of the matching scalar may be.
EPS_COMPUTES = 1e-9
# Seeded Haar kets that cross-check a factorization by default.
_WITNESS_PROBES = 4


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


def _principal_dim(roles: Circuit | MeasurementTree) -> int:
    """d_P; InvalidCircuitError for an invalid circuit, ValueError for a tree without wire roles
    or for a zero ancilla vector."""
    if isinstance(roles, Circuit):
        roles.require_valid()
    elif not roles.has_roles():
        raise ValueError("tree carries no principal/ancilla wire roles; analysis needs them")
    if roles._ancilla_norm <= TOL.zero:
        raise ValueError("state has zero trace")
    return roles._isometry.shape[1]


def _block(roles: Circuit | MeasurementTree, key) -> list:
    """The record ``[branch, V, svd, factor]`` of ``key``, a branch of a tree or a path of a
    circuit, after ``_principal_dim``'s checks: ``_known`` at its outcome labels from the root.
    ValueError if ``key`` is not a branch of the tree, or not a coherent path of the circuit."""
    _principal_dim(roles)
    if not (circuit := isinstance(roles, Circuit)):
        route = tuple(key)
    else:
        route = roles._prefix(key) if set(key) == set(roles.gates) else None
    if route is None or (record := _known(roles, route)) is None:
        raise ValueError(f"not a coherent path: {dict(key)}" if circuit else f"{route!r} is not a branch of the tree")
    return record


def _known(roles: Circuit | MeasurementTree, route: Branch) -> list | None:
    """The record ``[branch, V, svd, factor]`` at ``route``, kept in ``roles._analysed``: the
    branch that reports name, ``V = C E / |a|`` (D x d_P), read-only, and the slots that
    ``_factored`` fills; None unless ``route`` ends a path or a branch.

    V is carried down from the blocks that ``route`` shares with the route walked
    last (``linalg._resume``), without forming ``C``, so routes taken in walk
    order apply each edge once.
    """
    if (record := roles._analysed.get(route)) is None:
        if (v := _resume(roles, route)) is None:
            return None
        v = v / roles._ancilla_norm  # probabilities per unit input norm
        v.flags.writeable = False
        branch = _branch_of(route, roles._bounds) if isinstance(roles, Circuit) else route
        record = roles._analysed[route] = [branch, v, None, None]
    return record


def _svd(roles, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The singular values and the leading left and right singular vectors of ``V``
    reshaped to (output ancilla) x (output principal . input), read-only; no
    tolerance enters them. ``roles`` is a circuit or a tree with roles."""
    m = bipartition_ket(v, roles.space, roles.output_principal).transpose(1, 0, 2)
    left, s, right = np.linalg.svd(m.reshape(m.shape[0], -1), full_matrices=False)
    svd = s, left[:, 0].copy(), right[0].copy()  # copies, so that the full factors are freed
    for a in svd:
        a.flags.writeable = False
    return svd


def _factored(roles, record: list) -> tuple[np.ndarray, np.ndarray] | None:
    """``_factor`` of a record's V, read-only, from its ``_svd`` made once; kept in the record with
    the ``TOL.zero`` it was made under, the one threshold it reads that a caller can change, and
    made anew under another."""
    if record[2] is None:
        record[2] = _svd(roles, record[1])
    if record[3] is None or record[3][0] != TOL.zero:
        record[3] = (TOL.zero, _factor(roles, record[2]))
        for a in record[3][1] or ():
            a.flags.writeable = False
    return record[3][1]


def _factor(roles, svd: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """``(U, b)`` with ``V = U (x) b`` and ``U^dag U = I``, or None, from ``_svd(roles, V)``.

    The first nonzero entry of U, in column order, is real and positive.
    """
    s, left, right = svd
    d_in = roles._isometry.shape[1]
    if s[0] <= TOL.zero or frob_norm(s[1:]) > EPS_RANK * s[0]:
        return None  # the branch annihilates every input, or entangles it with the ancilla
    u = right.reshape(-1, d_in) * math.sqrt(d_in)
    if frob_norm(dagger(u) @ u - identity(d_in)) > EPS_FACT:
        return None  # no isometric normalization: column norms or angles disagree
    flat = u.T.reshape(-1)
    lead = flat[int(np.argmax(np.abs(flat) > EPS_FACT))]
    phase = lead.conjugate() / abs(lead)
    # "+ 0.0" turns the -0.0 entries the SVD leaves into 0.0
    return u * phase + 0.0, left * (s[0] / math.sqrt(d_in) / phase) + 0.0


def _scalar(u: np.ndarray, w: np.ndarray, eps: float) -> complex | None:
    """alpha with ``u = alpha w`` for an isometry w, or None. ``u / |alpha|`` must match
    ``(alpha / |alpha|) w`` within ``eps``: a norm at u's own scale overflows past about 1e154."""
    alpha = complex(np.vdot(w, u)) / w.shape[1] if u.shape == w.shape else 0.0
    a = abs(alpha)
    if a <= TOL.zero or frob_norm(u / a - alpha / a * w) > eps * max(frob_norm(u / a), 1 / a):
        return None
    return alpha


def _probe_kets(d_in: int, probes: int, seed: int, extra=None) -> np.ndarray:
    """The d_P x n probe columns: the basis kets, the caller's kets normalized, then seeded
    Haar kets, drawn from the stream that ``probes`` successive ``haar_ket`` calls consume.
    Without ``extra`` the matrix is shared and read-only. ValueError naming the index of a
    caller's ket that has not d_P entries, or a non-finite entry, or no finite nonzero norm."""
    if probes < 0:
        raise ValueError(f"probe count must be >= 0, got {probes}")
    kets = _seeded_probes(d_in, probes, seed)
    if extra is None:
        return kets
    given = []
    for i, x in enumerate(extra):
        x = np.asarray(x, dtype=complex).reshape(-1, 1)
        if len(x) != d_in:
            raise ValueError(f"extra probe {i} has {len(x)} entries, the principal input {d_in}")
        if not np.isfinite(x).all():
            raise ValueError(f"extra probe {i} has a non-finite entry")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(x)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"extra probe {i} has norm {norm}, which cannot be normalized")
        given.append(x / norm)
    return np.hstack([kets[:, :d_in], *given, kets[:, d_in:]])


@lru_cache(maxsize=16)
def _seeded_probes(d_in: int, probes: int, seed: int) -> np.ndarray:
    """``_probe_kets`` without extra kets, built once per ``(d_in, probes, seed)`` and read-only."""
    g = np.random.default_rng(seed).normal(size=(probes, 2, d_in))
    haar = (g[:, 0] + 1j * g[:, 1]).T
    kets = np.hstack([identity(d_in), haar / np.linalg.norm(haar, axis=0)])
    kets.flags.writeable = False
    return kets


def _range(isos, kets: np.ndarray) -> tuple[float, float, np.ndarray]:
    """``lo, hi, gram``: the extreme eigenvalues, from one ``eigvalsh``, of ``gram``, the summed
    ``V_b^dag V_b`` over ``isos``. Each probe column of ``kets`` must have its summed
    ``|V_b psi|^2`` in ``[lo, hi]``, else AssertionError."""
    gram = np.zeros((len(kets), len(kets)), dtype=complex)
    p = np.zeros(kets.shape[1])
    for v in isos:
        gram += dagger(v) @ v
        p += (np.abs(v @ kets) ** 2).sum(axis=0)
    lam, sums = np.linalg.eigvalsh(gram).tolist(), p.tolist()
    lo, hi = _clamp_probability(lam[0]), _clamp_probability(lam[-1])
    p_min, p_max = min(sums), max(sums)
    if p_min < lo - EPS_CHECK or p_max > hi + EPS_CHECK:
        raise AssertionError(f"probe probabilities {p_min:.12f}-{p_max:.12f} leave the exact range {(lo, hi)}")
    return lo, hi, gram


def _witness_miss(roles, v: np.ndarray, kets: np.ndarray, u: np.ndarray, b: np.ndarray) -> float:
    """The largest miss of the probe images ``V_b psi`` against ``U psi (x) b``; AssertionError past the slack."""
    got = bipartition_ket(v @ kets, roles.space, roles.output_principal)
    miss = float(np.max(np.linalg.norm(got - (u @ kets)[:, None, :] * b[None, :, None], axis=(0, 1))))
    if miss > EPS_CHECK * max(frob_norm(u) * frob_norm(b), 1.0):
        raise AssertionError(f"probe images miss the factorization by {miss:.3e}")
    return miss


def _operator(roles, operator: np.ndarray) -> np.ndarray:
    """The operator as a complex array; ValueError unless it maps the principal input
    into the output principal space, of shape ``(d_out, d_P)``."""
    u = np.asarray(operator, dtype=complex)
    d_in = roles._isometry.shape[1]
    d_out = math.prod(roles.space.dim_of(w) for w in roles.output_principal)
    if u.ndim != 2 or u.shape[1] != d_in:
        raise ValueError(f"operator of shape {u.shape} does not act on the principal input")
    if u.shape[0] != d_out:
        raise ValueError(f"shape mismatch: operator of shape {u.shape}, expected {(d_out, d_in)}")
    return u


def _computes(fact: tuple[np.ndarray, np.ndarray] | None, u: np.ndarray) -> bool:
    """Is ``u`` the factor U of ``fact`` up to a phase?"""
    alpha = None if fact is None else _scalar(u, fact[0], EPS_COMPUTES)
    return not (alpha is None or abs(abs(alpha) - 1.0) > EPS_COMPUTES)


def _scaling(factors, u: np.ndarray, eps: float) -> IsometryScalingReport:
    """``check_isometry_scaling`` from ``(branch, _factor(...))`` per branch, read until
    the first branch that does not factor."""
    listed = []
    for b, fact in factors:
        if fact is None:
            return IsometryScalingReport(None, "inconclusive", f"branch {b!r} does not factor")
        listed.append((b, *fact))
    ref = listed[0][1]
    if any(_scalar(w, ref, EPS_FACT) is None for _, w, _ in listed):
        return IsometryScalingReport(None, "inconclusive", "branches compute differing principal operators")

    ratios = []  # |b| / |alpha|, whose squares are the branch weights
    for b, w, vec in listed:
        alpha = _scalar(u, w, max(eps, EPS_FACT))
        if alpha is None:
            detail = f"branch {b!r} does not factor through the supplied operator"
            return IsometryScalingReport(None, "inconclusive", detail)
        ratios.append(frob_norm(vec) / abs(alpha))

    t_scale = math.hypot(*ratios)  # never squares |alpha|, which overflows on a large operator
    scaled = t_scale * u
    if frob_norm(dagger(scaled) @ scaled - identity(u.shape[1])) > eps:
        return IsometryScalingReport(t_scale, "failed", "rescaled operator is not an isometry")
    # a square isometry is unitary: S^dag S and S S^dag share their spectrum
    return IsometryScalingReport(t_scale, "unitary" if u.shape[0] == u.shape[1] else "isometry", "")


def factor_branch(
    roles: Circuit | MeasurementTree,
    branch: Sequence[str] | Mapping[str, str],
    *,
    random_probes: int = _WITNESS_PROBES,
    seed: int = 0,
) -> BranchFactorization | None:
    """Extract the product-form witness (U, b) of a branch, if one exists.

    ``roles`` is a circuit, whose branches are its paths, or a tree with
    wire roles (see the module docstring). The branch factors iff its
    isometry ``V_b``, reshaped to (output ancilla) x (output principal .
    input), has rank 1; U is normalized to be isometric and b holds the
    branch weight. Returns None otherwise, including when no isometric
    normalization exists. ``residual`` is the witness's largest miss on
    the basis kets and ``random_probes`` seeded Haar-random kets.
    """
    record = _block(roles, branch)
    key, v = record[:2]
    kets = _probe_kets(v.shape[1], random_probes, seed)
    if (fact := _factored(roles, record)) is None:
        return None
    u, b = fact
    kind = "unitary" if u.shape[0] == u.shape[1] else "isometry-only"
    miss = _witness_miss(roles, v, kets, u, b)
    return BranchFactorization(key, u.copy(), b.copy(), miss, float(np.vdot(b, b).real), kind)


def check_independence(
    roles: Circuit | MeasurementTree,
    branch: Sequence[str] | Mapping[str, str],
    probes: int = 32,
    seed: int = 0,
    extra_probes: Sequence[np.ndarray] | None = None,
) -> IndependenceReport:
    """The exact range of a branch's probability over all inputs.

    ``roles`` is a circuit, whose branches are its paths, or a tree with
    wire roles. The range is ``[lambda_min, lambda_max]`` of ``V_b^dag
    V_b``. Verdict "independent" needs its width within ``EPS_FLAT``,
    "dependent" means above ``EPS_DEPENDENT``, anything between is
    "inconclusive".
    The probe kets (all principal basis states, optional caller-supplied
    kets and ``probes`` seeded Haar-random kets) cross-check that range.
    """
    key, v, _, _ = _block(roles, branch)
    kets = _probe_kets(v.shape[1], probes, seed, extra_probes)
    lo, hi, _ = _range((v,), kets)
    spread = hi - lo
    verdict = "independent" if spread <= EPS_FLAT else "dependent" if spread > EPS_DEPENDENT else "inconclusive"
    return IndependenceReport(key, kets.shape[1], lo, hi, spread, verdict)


def check_computes(
    roles: Circuit | MeasurementTree,
    branch: Sequence[str] | Mapping[str, str],
    operator: np.ndarray,
    probes: int = 16,
    seed: int = 0,
) -> tuple[bool, float]:
    """Does the branch map every pure input rho to something proportional
    to ``U rho U^dag`` on the output principal wires, with the
    proportionality constant equal to the branch probability?

    ``roles`` is a circuit, whose branches are its paths, or a tree with
    wire roles. It does iff the branch factors and the supplied operator
    is an isometry equal to the factor U up to phase. Returns (holds, the
    witness's largest miss on the basis kets and ``probes`` seeded
    Haar-random kets), or ``(False, inf)``. ValueError unless the
    operator maps the principal input into the output principal space.
    """
    record = _block(roles, branch)
    u = _operator(roles, operator)
    kets = _probe_kets(u.shape[1], probes, seed)
    fact = _factored(roles, record)
    if not _computes(fact, u):
        return False, float("inf")
    return True, _witness_miss(roles, record[1], kets, *fact)


def check_set_independence(
    roles: Circuit | MeasurementTree,
    branches: Sequence[Sequence[str] | Mapping[str, str]],
    probes: int = 32,
    seed: int = 0,
) -> SetIndependenceReport:
    """Check that a set of branches has input-independent total probability.

    ``roles`` is a circuit, whose branches are its paths, or a tree with
    wire roles. The exact range of the total is ``[lambda_min,
    lambda_max]`` of the summed ``V_b^dag V_b``; the set is independent,
    with constant ``trace / d_P``, when its width is within ``EPS_FLAT``, and
    dependent otherwise. The branches need not factor. The basis kets and
    ``probes`` seeded Haar-random kets cross-check the range.
    """
    d_in = _principal_dim(roles)
    kets = _probe_kets(d_in, probes, seed)
    records = [_block(roles, b) for b in branches]
    keys = tuple(key for key, *_ in records)
    lo, hi, gram = _range((v for _, v, *_ in records), kets)
    if hi - lo > EPS_FLAT:
        return SetIndependenceReport(keys, "dependent", None, lo, hi, hi - lo)
    return SetIndependenceReport(keys, "independent", float(np.trace(gram).real) / d_in, lo, hi, hi - lo)


def constant_factor(
    joint_map: np.ndarray,
    base_map: np.ndarray,
    *,
    eps: float = 1e-9,
) -> np.ndarray | None:
    """Vector c with ``joint_map = base_map (x) c``, or None.

    ``joint_map`` sends V1 into V2 (x) V3 (rows ordered with the V2 index
    major); ``base_map`` sends V1 into V2 and must have rank >= 2, which
    is what makes the factor unique when it exists. The candidate is the
    least-squares fit, accepted when the whole map's residual is within
    ``eps`` relative to ``max(|joint_map|_F, 1)``.
    """
    lam = np.asarray(joint_map, dtype=complex)
    lop = np.asarray(base_map, dtype=complex)
    d2, d1 = lop.shape
    if lam.shape[1] != d1 or lam.shape[0] % d2 != 0:
        raise ValueError(f"shape mismatch: joint {lam.shape}, base {lop.shape}")
    svals = np.linalg.svd(lop, compute_uv=False)
    if len(svals) < 2 or svals[1] <= EPS_RANK * max(float(svals[0]), 1.0):
        raise ValueError("base map must have rank >= 2")
    c = np.einsum("ab,acb->c", lop.conj(), lam.reshape(d2, -1, d1)) / frob_norm(lop) ** 2
    if frob_norm(lam - np.kron(lop, c[:, None])) > eps * max(frob_norm(lam), 1.0):
        return None
    return c


def check_isometry_scaling(
    roles: Circuit | MeasurementTree,
    operator: np.ndarray,
    *,
    eps: float = 1e-9,
) -> IsometryScalingReport:
    """If every branch computes the same given operator, confirm that the
    operator times ``t_scale = sqrt(sum of branch weights)`` is an isometry.

    ``roles`` is a circuit, whose branches are its paths, read in
    ``enumerate_paths`` order, or a tree with wire roles, whose branches
    are read in ``branches()`` order. Each branch must factor on its own
    as ``U (x) b``, and the supplied operator must be ``alpha U`` for one
    scalar alpha, which may differ from the canonical witness by an
    overall scale; otherwise the report is inconclusive. The branch
    weights are ``|b|^2 / |alpha|^2``. A square rescaled operator that is
    an isometry is reported "unitary". ValueError unless the operator
    maps the principal input into the output principal space.
    """
    _principal_dim(roles)
    u = _operator(roles, operator)
    routes = (p for p, _, m, _ in _walk(roles) if m is None)  # a valid circuit has no selection hole
    records = (_known(roles, route) for route in routes)
    return _scaling(((record[0], _factored(roles, record)) for record in records), u, eps)
