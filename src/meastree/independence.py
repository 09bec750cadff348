"""Input-independence analysis of measurement-tree branches.

Every verdict is exact and read off the branch isometry ``V_b = C_b E``,
where ``C_b`` is the branch's composed operator and the columns of ``E``
are the joint inputs ``e_i (x) ancilla``. The D x d_P matrix ``V_b`` is
built by carrying ``E`` down the branch one outcome operator at a time,
so the D x D operator ``C_b`` is never formed. Each tree keeps, read-only,
the ``V_b`` of every branch it has analysed (one D x d_P block per leaf,
plus one per level of the route walked last) and the SVD that factoring
needs, so each branch is walked and decomposed once per tree; the
tolerances and the probe cross-checks still apply on every call. The
seeded probe matrix is kept per ``(d_P, probes, seed)``. The public
functions are thin wrappers over internals that read ``(key, V)`` pairs
as a stream, with the wire roles of a tree or of a circuit: the CLI
feeds them every path's ``V = C E`` from one walk of the circuit, with
no tree, and ``check_independence`` keeps only each pair's d_P x d_P
Gram and probe sums, for one batched ``eigvalsh`` per ``_GRAM_BYTES`` of
Grams. A branch fires on a principal
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
from functools import lru_cache
from itertools import islice

import numpy as np

from .linalg import (
    TOL,
    _clamp_probability,
    bipartition_ket,
    dagger,
    frob_norm,
    identity,
)
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
# Seeded Haar kets that cross-check a factorization by default.
_WITNESS_PROBES = 4
# Bytes of stacked d_P x d_P Grams that one batched eigvalsh reads: 64 MB
# holds about 2,000 Grams at d_P = 32, and 16 at d_P = 512.
_GRAM_BYTES = 64 << 20


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


def _isometries(t: MeasurementTree, branches: Sequence[Sequence[str]]):
    """``V_b = C_b E / |a|`` (D x d_P) per branch, from the tree's memo: each is carried
    down its branch from E once per tree, without forming ``C_b``, and is read-only."""
    _principal_dim(t)  # checks the wire roles and the ancilla norm
    return (t._branch_isometry(branch) for branch in branches)


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


def _branch_svd(t: MeasurementTree, branch: Branch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_svd`` of the branch's ``V_b``, computed once per branch and tree."""
    if (svd := t._branch_svds.get(branch)) is None:
        svd = t._branch_svds[branch] = _svd(t, t._branch_isometry(branch))
    return svd


def _factor(roles, svd: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """``(U, b)`` with ``V = U (x) b`` and ``U^dag U = I``, or None, from ``_svd(roles, V)``.

    The first nonzero entry of U, in column order, is real and positive.
    The tolerances apply on every call.
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
    Without ``extra`` the matrix is shared and read-only."""
    if probes < 0:
        raise ValueError(f"probe count must be >= 0, got {probes}")
    kets = _seeded_probes(d_in, probes, seed)
    if extra is None:
        return kets
    given = [np.asarray(x, dtype=complex).reshape(-1, 1) / np.linalg.norm(x) for x in extra]
    return np.hstack([kets[:, :d_in], *given, kets[:, d_in:]])


@lru_cache(maxsize=16)
def _seeded_probes(d_in: int, probes: int, seed: int) -> np.ndarray:
    """``_probe_kets`` without extra kets, built once per ``(d_in, probes, seed)`` and read-only."""
    g = np.random.default_rng(seed).normal(size=(probes, 2, d_in))
    haar = (g[:, 0] + 1j * g[:, 1]).T
    kets = np.hstack([identity(d_in), haar / np.linalg.norm(haar, axis=0)])
    kets.flags.writeable = False
    return kets


def _grams(pairs, kets: np.ndarray):
    """``keys, grams, sums`` per chunk of the ``(key, V)`` pairs: per pair, ``V^dag V`` and each
    probe column psi's ``|V psi|^2``. Only these are kept, never a V, and a chunk's stacked
    Grams take at most ``_GRAM_BYTES``, or one Gram."""
    pairs, size = iter(pairs), max(1, _GRAM_BYTES // (16 * len(kets) ** 2))  # 16 bytes per complex entry
    while chunk := [(key, dagger(v) @ v, (np.abs(v @ kets) ** 2).sum(axis=0)) for key, v in islice(pairs, size)]:
        keys, grams, sums = zip(*chunk)
        yield keys, np.array(grams), np.array(sums)


def _spectral_ranges(grams: np.ndarray, sums: np.ndarray) -> tuple[list[float], list[float]]:
    """``lo, hi``: the extreme eigenvalues of each Gram, from one batched ``eigvalsh``.
    Each probe's ``|V psi|^2`` in ``sums`` must lie in its Gram's ``[lo, hi]``, else AssertionError."""
    lam = np.linalg.eigvalsh(grams)
    lo = [_clamp_probability(x) for x in lam[:, 0].tolist()]
    hi = [_clamp_probability(x) for x in lam[:, -1].tolist()]
    for i, (p_min, p_max) in enumerate(zip(sums.min(axis=1).tolist(), sums.max(axis=1).tolist())):
        if p_min < lo[i] - EPS_CHECK or p_max > hi[i] + EPS_CHECK:
            raise AssertionError(f"probe probabilities {p_min:.12f}-{p_max:.12f} leave the exact range {(lo[i], hi[i])}")
    return lo, hi


def _range(isos, kets: np.ndarray) -> tuple[float, float, np.ndarray]:
    """``lo, hi, gram``: the extreme eigenvalues of ``gram``, the summed ``V_b^dag V_b`` over ``isos``.
    Each probe column psi of ``kets`` must give a summed ``|V_b psi|^2`` in ``[lo, hi]``, else AssertionError."""
    gram = np.zeros((len(kets), len(kets)), dtype=complex)
    p = np.zeros(kets.shape[1])
    for v in isos:
        gram += dagger(v) @ v
        p += np.sum(np.abs(v @ kets) ** 2, axis=0)
    (lo,), (hi,) = _spectral_ranges(gram[None], p[None])
    return lo, hi, gram


def _independence(roles, pairs, probes: int, seed: int, extra=None) -> list[IndependenceReport]:
    """One ``IndependenceReport`` per ``(key, V)`` pair, the key as its branch.

    ``roles`` is a circuit or a tree with roles. The pairs are read once, as a
    stream: only their Grams and probe sums are kept, and one batched
    ``eigvalsh`` per chunk of ``_GRAM_BYTES`` gives their ranges.
    """
    kets = _probe_kets(roles._isometry.shape[1], probes, seed, extra)
    reports = []
    for keys, grams, sums in _grams(pairs, kets):
        for key, lo, hi in zip(keys, *_spectral_ranges(grams, sums)):
            spread = hi - lo
            verdict = "independent" if spread <= 1e-9 else "dependent" if spread > 1e-6 else "inconclusive"
            reports.append(IndependenceReport(tuple(key), kets.shape[1], lo, hi, spread, verdict))
    return reports


def _witness_miss(roles, v: np.ndarray, kets: np.ndarray, u: np.ndarray, b: np.ndarray) -> float:
    """The largest miss of the probe images ``V_b psi`` against ``U psi (x) b``; AssertionError past the slack."""
    got = bipartition_ket(v @ kets, roles.space, roles.output_principal)
    miss = float(np.max(np.linalg.norm(got - (u @ kets)[:, None, :] * b[None, :, None], axis=(0, 1))))
    if miss > EPS_CHECK * max(frob_norm(u) * frob_norm(b), 1.0):
        raise AssertionError(f"probe images miss the factorization by {miss:.3e}")
    return miss


def _factorization(roles, key, v: np.ndarray, svd, random_probes: int, seed: int) -> BranchFactorization | None:
    """``factor_branch`` of the branch ``key`` from its ``V`` and ``_svd(roles, V)``."""
    kets = _probe_kets(v.shape[1], random_probes, seed)
    fact = _factor(roles, svd)
    if fact is None:
        return None
    u, b = fact
    residual = _witness_miss(roles, v, kets, u, b)
    kind = "unitary" if u.shape[0] == u.shape[1] else "isometry-only"
    return BranchFactorization(tuple(key), u, b, residual, float(np.vdot(b, b).real), kind)


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
    alpha = None if fact is None else _scalar(u, fact[0], 1e-9)
    return not (alpha is None or abs(abs(alpha) - 1.0) > 1e-9)


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


def _unitary(
    roles, pairs, operator: np.ndarray, probes: int, seed: int
) -> tuple[list[tuple[Branch, bool, float]], IsometryScalingReport]:
    """``check_isometry_scaling`` and, per ``(branch, V)`` pair, ``check_computes`` of the
    operator that the scaling rescales, with each branch factored once.

    Returns the rows ``(branch, holds, residual)`` and the scaling report.
    The pairs are read once, as a stream, and no V is kept.
    """
    u = _operator(roles, operator)
    kets = _probe_kets(u.shape[1], probes, seed)
    factored = []
    for key, v in pairs:
        fact = _factor(roles, _svd(roles, v))
        factored.append((tuple(key), fact, None if fact is None else _witness_miss(roles, v, kets, *fact)))
    iso = _scaling(((b, fact) for b, fact, _ in factored), u, 1e-9)
    # the supplied operator may carry an overall scale; once the scaling
    # check pins t_scale, the branches are tested against the rescaled
    # (isometric) operator
    target = iso.t_scale * u if iso.t_scale is not None else u
    rows = [(b, True, miss) if _computes(fact, target) else (b, False, float("inf")) for b, fact, miss in factored]
    return rows, iso


def factor_branch(
    t: MeasurementTree,
    branch: Sequence[str],
    *,
    random_probes: int = _WITNESS_PROBES,
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
    (v,) = _isometries(t, [branch])
    return _factorization(t, branch, v, _branch_svd(t, tuple(branch)), random_probes, seed)


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
    (report,) = _independence(t, zip([branch], _isometries(t, [branch])), probes, seed, extra_probes)
    return report


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
    (v,) = _isometries(t, [branch])
    u = _operator(t, operator)
    kets = _probe_kets(u.shape[1], probes, seed)
    fact = _factor(t, _branch_svd(t, tuple(branch)))
    if not _computes(fact, u):
        return False, float("inf")
    return True, _witness_miss(t, v, kets, *fact)


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
    d_in = _principal_dim(t)
    lo, hi, gram = _range(_isometries(t, branch_keys), _probe_kets(d_in, probes, seed))
    if hi - lo > 1e-9:
        return SetIndependenceReport(branch_keys, "dependent", None, lo, hi, hi - lo)
    return SetIndependenceReport(branch_keys, "independent", float(np.trace(gram).real) / d_in, lo, hi, hi - lo)


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
    _principal_dim(t)  # checks the wire roles and the ancilla norm
    return _scaling(((b, _factor(t, _branch_svd(t, b))) for b in t.branches()), u, eps)
