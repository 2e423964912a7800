"""Norm-growth bounds and stability taxonomy for algebraic matrices.

Covers: the three-way equivalence for normaloid matrices, the limit of
||A^n h||^2 for normal contractions (orthogonal projection onto the
unimodular eigenspaces), the explicit polynomial growth bound
||A^n|| <= alpha n^kappa r^n, uniform/strong stability, and the n-th root
limit of orbit norms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import RunConfig
from .criteria import (
    POWER_STEPS,
    as_analysis,
    classify_orbits,
    is_normaloid,
    is_power_bounded,
    orbit_log_norms_batch,
    orbit_norms_batch,
    power_bounded_roots,
    probe_set,
    window_limit,
)
from .errors import InconsistencyError, InvalidInputError, OutOfScopeError
from .linalg import as_matrix, as_vector, operator_norm

# Unused here, but bench/selftest.py checks that the tracer patches this
# binding.
from .structure import minimal_polynomial  # noqa: F401

_NILPOTENT_RADIUS = 1e-12

# Largest log ||A^n h||^2 whose exponential is a finite float.
_LOG_SQ_MAX = np.log(np.finfo(float).max)


@dataclass(frozen=True)
class GrowthBound:
    kappa: int
    alpha: float
    spectral_radius: float
    valid_from: int
    max_violation_ratio: float

    def to_obj(self):
        return asdict(self)


@dataclass(frozen=True)
class StabilityVerdict:
    uniformly_stable: bool
    strongly_stable: bool
    power_bounded: bool
    limit_projection_norm_sq: dict

    def to_obj(self):
        return {
            "uniformly_stable": self.uniformly_stable,
            "strongly_stable": self.strongly_stable,
            "power_bounded": self.power_bounded,
            "limit_projection_norm_sq": {
                k: float(v) for k, v in self.limit_projection_norm_sq.items()
            },
        }


@dataclass(frozen=True)
class NormaloidReport:
    orbits_convergent: bool
    power_bounded: bool
    contraction: bool

    def all_agree(self) -> bool:
        return self.orbits_convergent == self.power_bounded == self.contraction


def normaloid_equivalence(A, config: RunConfig | None = None) -> NormaloidReport:
    """For a normaloid matrix: orbit convergence, power boundedness and
    being a contraction stand or fall together.  Raises InconsistencyError
    if the three evaluated conditions disagree."""
    cfg = config or RunConfig()
    an = as_analysis(A, POWER_STEPS)
    A = an.A
    if not is_normaloid(an):
        raise InvalidInputError("normaloid_equivalence requires a normaloid matrix")
    contraction = an.norm <= 1 + 1e-10
    pb = is_power_bounded(an)
    probes = probe_set(A.shape[0], np.random.default_rng(cfg.seed))
    _, classes = classify_orbits(A, np.column_stack([v for _, v in probes]), an.minpoly.degree, cfg)
    convergent = all(cls.kind == "convergent" for cls in classes)
    rep = NormaloidReport(orbits_convergent=convergent, power_bounded=pb, contraction=contraction)
    if not rep.all_agree():
        raise InconsistencyError(f"normaloid equivalence violated: {rep}")
    return rep


def unimodular_eigenprojection(A) -> np.ndarray:
    """Orthogonal projection onto the span of eigenvectors of a normal
    matrix with |eigenvalue| >= 1 - 1e-8."""
    A = as_matrix(A)
    vals, vecs = np.linalg.eig(A)
    sel = np.abs(vals) >= 1 - 1e-8
    if not np.any(sel):
        return np.zeros_like(A)
    # Orthonormalize within the selected span (eig need not return an
    # orthogonal basis inside degenerate eigenspaces).
    Y, _ = np.linalg.qr(vecs[:, sel])
    return Y @ Y.conj().T


def normal_limit(A, h, n_max: int = 2000) -> float:
    """lim ||A^n h||^2 for a normal contraction: equals <Q h, h> with Q the
    orthogonal projection onto the unimodular eigenspaces.  The identity is
    cross-checked by iterating the orbit."""
    A = as_matrix(A)
    h = as_vector(h, A.shape[0])
    nrm = operator_norm(A)
    if np.linalg.norm(A.conj().T @ A - A @ A.conj().T) > 1e-10 * max(nrm**2, 1e-300):
        raise InvalidInputError("normal_limit requires a normal matrix")
    if nrm > 1 + 1e-10:
        raise InvalidInputError("normal_limit requires a contraction")
    Q = unimodular_eigenprojection(A)
    q = float(np.real(np.vdot(h, Q @ h)))
    norms, _ = orbit_norms_batch(A, h.reshape(-1, 1), n_max)
    sq = norms[:, 0] ** 2
    _, limit = window_limit(sq)
    if abs(limit - q) > 1e-6:
        raise InconsistencyError(
            f"orbit limit {limit} disagrees with projection value {q}"
        )
    return q


def growth_bound(A, n_check: int = 1000) -> GrowthBound:
    """Certified constant for ||A^n|| <= alpha n^kappa r^n.

    Per block: alpha_j = sum_k ||N_j^k|| / (k! |z_j|^k) over k < i_j, with
    N_j the nilpotent part in the block basis; alpha aggregates via
    alpha = sum_j ||P_j|| alpha_j.  Verified empirically up to n_check, so
    an Analysis passed as ``A`` needs a horizon of at least n_check.
    """
    an = as_analysis(A, n_check)
    A = an.A
    mp = an.minpoly
    r = max(abs(z) for z, _ in mp.roots)
    if r > 1 + 1e-12:
        raise OutOfScopeError(f"growth bound requires r(A) <= 1, got {r}")
    kappa = mp.degree - 1
    logs = an.power_logs(n_check)

    if r <= _NILPOTENT_RADIUS:
        # Nilpotent: powers vanish identically from n = deg p on.
        valid_from = mp.degree
        scale = max(1.0, an.norm)
        for n in range(valid_from, n_check + 1):
            if logs[n - 1] > np.log(1e-10 * scale**mp.degree):
                raise InconsistencyError(
                    f"nilpotent matrix has nonzero power at n={n}"
                )
        return GrowthBound(
            kappa=kappa,
            alpha=1.0,
            spectral_radius=0.0,
            valid_from=valid_from,
            max_violation_ratio=0.0,
        )

    alpha = 0.0
    for b in an.decomposition.blocks:
        M = b.basis.conj().T @ A @ b.basis
        N = M - b.z * np.eye(b.dim)
        if abs(b.z) > _NILPOTENT_RADIUS:
            aj = 0.0
            Nk = np.eye(b.dim, dtype=complex)
            fact = 1.0
            for k in range(b.index):
                if k > 0:
                    Nk = Nk @ N
                    fact *= k
                aj += float(np.linalg.norm(Nk, 2)) / (fact * abs(b.z) ** k)
        else:
            # Zero-eigenvalue block inside a matrix with r > 0: the block
            # dies at n >= i_j; cover the finitely many live powers.
            aj = 1.0
            Nk = np.eye(b.dim, dtype=complex)
            for n in range(1, b.index):
                Nk = Nk @ N
                aj = max(aj, float(np.linalg.norm(Nk, 2)) / (n**kappa * r**n))
        alpha += operator_norm(b.projection) * aj

    valid_from = 1
    log_alpha = np.log(alpha)
    worst = -np.inf
    for n in range(valid_from, n_check + 1):
        log_bound = log_alpha + kappa * np.log(n) + n * np.log(r)
        if np.isfinite(logs[n - 1]):
            worst = max(worst, logs[n - 1] - log_bound)
    ratio = float(np.exp(worst)) if np.isfinite(worst) else 0.0
    if ratio > 1 + 1e-8:
        raise InconsistencyError(f"growth bound violated: ratio {ratio}")
    return GrowthBound(
        kappa=kappa,
        alpha=float(alpha),
        spectral_radius=float(r),
        valid_from=valid_from,
        max_violation_ratio=ratio,
    )


def growth_csv_rows(A, gb: GrowthBound, n_check: int = 1000):
    """(n, ||A^n||, bound_n) rows for external plotting."""
    logs = as_analysis(A, n_check).power_logs(n_check)
    rows = []
    for n in range(1, n_check + 1):
        if gb.spectral_radius > 0:
            bound = gb.alpha * n**gb.kappa * gb.spectral_radius**n
        else:
            bound = float(np.exp(logs[n - 1])) if n < gb.valid_from else 0.0
        rows.append((n, float(np.exp(logs[n - 1])), bound))
    return rows


def uniform_stability(A, config: RunConfig | None = None) -> StabilityVerdict:
    """||A^n|| -> 0 iff r(A) < 1; strong stability and power boundedness
    filled via probe orbits and the structural power-bound criterion.

    An Analysis passed as ``A`` needs a horizon of at least ``config.n_max``;
    the probe orbits advance together in one ``orbit_log_norms_batch``.
    """
    cfg = config or RunConfig()
    an = as_analysis(A, cfg.n_max)
    A = an.A
    r = an.spectral_radius
    uniformly = r < 1 - 1e-10
    logs = an.power_logs(cfg.n_max)
    half = len(logs) // 2
    if logs[-1] == -np.inf:
        decaying = True
    else:
        slope = (logs[-1] - logs[half]) / (len(logs) - half)
        decaying = slope < 0
    if uniformly and not decaying:
        raise InconsistencyError("r < 1 but power norms do not decay")

    structural_pb = power_bounded_roots(an.minpoly.roots, r)
    probes = probe_set(A.shape[0], np.random.default_rng(cfg.seed), n_random=10)
    ologs = orbit_log_norms_batch(A, np.column_stack([v for _, v in probes]), cfg.n_max)
    w = cfg.window
    gap = (ologs.shape[0] - w) - half
    strongly = True
    limits = {}
    for j, (label, _) in enumerate(probes):
        olog = ologs[:, j]
        if olog[-1] == -np.inf:
            limits[label] = 0.0
            continue
        # Compare window maxima rather than single samples so that bounded
        # oscillations are not mistaken for decay.
        top = np.max(olog[-w:])
        oslope = (top - np.max(olog[half:half + w])) / gap
        if not (oslope < -1e-12):
            strongly = False
        # The window rule reads only the last w terms; past _LOG_SQ_MAX the
        # squared norms overflow and the window has no finite limit.
        if 2 * top > _LOG_SQ_MAX:
            continue
        ok, L = window_limit(np.exp(2 * olog[-w:]), w, cfg.tol_conv)
        if ok:
            limits[label] = max(L, 0.0)
    return StabilityVerdict(
        uniformly_stable=uniformly,
        strongly_stable=strongly,
        power_bounded=structural_pb,
        limit_projection_norm_sq=limits,
    )


def orbit_root_limit(A, h, n_max: int = 2000) -> float:
    """Empirical limit of ||A^n h||^{1/n}, cross-checked within 1e-3 against
    the structural prediction max{|z_j| : P_j h != 0}.

    The n-th root sequence converges like 1 + O(log n / n), too slowly for
    the plain window rule at desk horizons; the limit is therefore
    extracted by fitting log ||A^n h|| = a + kappa log n + n log rho over
    the tail, which removes the polynomial factor.
    """
    an = as_analysis(A, 0)
    h = as_vector(h, an.A.shape[0])
    if np.linalg.norm(h) == 0:
        raise InvalidInputError("orbit vector must be nonzero")
    logs = orbit_log_norms_batch(an.A, h.reshape(-1, 1), n_max)[:, 0]
    hn = float(np.linalg.norm(h))
    moduli = [
        abs(b.z)
        for b in an.decomposition.blocks
        if np.linalg.norm(b.projection @ h) > 1e-10 * hn
    ]
    mu = max(moduli) if moduli else 0.0

    if logs[-1] == -np.inf:
        empirical = 0.0
    else:
        n0 = max(10, n_max // 4)
        ns = np.arange(n0, n_max + 1, dtype=float)
        ys = logs[n0:]
        X = np.column_stack([np.ones_like(ns), np.log(ns), ns])
        coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
        empirical = float(np.exp(coef[2]))
    if abs(empirical - mu) > 1e-3:
        raise InconsistencyError(
            f"root limit {empirical} disagrees with structural value {mu}"
        )
    return empirical
