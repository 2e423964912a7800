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
    UNIT_TOL,
    _window_rule,
    as_analysis,
    at_most_one,
    block_components,
    frobenius_log_norms,
    is_normaloid,
    is_power_bounded,
    orbit_convergence,
    orbit_log_norms_batch,
    orbit_norms_batch,
    power_bounded_roots,
    unimodular,
    window_limit,
)
from .errors import InconsistencyError, InvalidInputError, OutOfScopeError
from .linalg import as_columns

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
    an = as_analysis(A)
    if not is_normaloid(an):
        raise InvalidInputError("normaloid_equivalence requires a normaloid matrix")
    pb = is_power_bounded(an, cfg)
    convergent = orbit_convergence(an, cfg)[0]
    rep = NormaloidReport(orbits_convergent=convergent, power_bounded=pb, contraction=an.contraction)
    if not rep.all_agree():
        raise InconsistencyError(f"normaloid equivalence violated: {rep}")
    return rep


def normal_limit(A, H):
    """lim ||A^n h||^2 for a normal contraction and each column h of H (a
    1-D H is one column and gives a float): equals <Q h, h> with Q the
    orthogonal projection onto the unimodular eigenspaces, the sum of the
    projections of the unimodular blocks of the decomposition.  Each
    column's identity is cross-checked, to 1e-6 * max(1, ||h||^2), against
    the window limit of its orbit over ``RunConfig.n_max`` steps; the
    columns advance together in one ``orbit_norms_batch``."""
    an = as_analysis(A)
    A = an.A
    single = np.ndim(H) == 1
    H = as_columns(H, A.shape[0])
    # Contraction first: the normality products of a huge matrix overflow.
    if not an.contraction:
        raise InvalidInputError("normal_limit requires a contraction")
    if np.linalg.norm(A.conj().T @ A - A @ A.conj().T) > 1e-10 * max(an.norm**2, 1e-300):
        raise InvalidInputError("normal_limit requires a normal matrix")
    Q = sum((b.projection for b in an.decomposition.blocks if unimodular(b.z)), np.zeros_like(A))
    # Column by column, so that a value does not depend on the other columns.
    q = np.array([np.vdot(h, Q @ h).real for h in H.T.copy()])
    norms, _ = orbit_norms_batch(A, H, RunConfig.n_max)
    for j in range(H.shape[1]):
        _, limit = window_limit(norms[:, j] ** 2)
        if abs(limit - q[j]) > 1e-6 * max(1.0, norms[0, j] ** 2):
            raise InconsistencyError(
                f"orbit limit {limit} disagrees with projection value {q[j]}"
            )
    return float(q[0]) if single else q


def growth_bound(A) -> GrowthBound:
    """Certified constant for ||A^n|| <= alpha n^kappa r^n.

    Per block: alpha_j = sum_k ||N_j^k|| / (k! |z_j|^k) over k < i_j, with
    N_j the nilpotent part in the block basis; alpha aggregates via
    alpha = sum_j ||P_j|| alpha_j.  Verified empirically up to POWER_STEPS.
    """
    an = as_analysis(A)
    A = an.A
    mp = an.minpoly
    r = an.spectral_radius
    if not at_most_one(r):
        raise OutOfScopeError(f"growth bound requires r(A) <= 1, got {r}")
    kappa = mp.degree - 1
    logs = an.power_logs

    if r <= _NILPOTENT_RADIUS:
        # Nilpotent: powers vanish identically from n = deg p on.  The
        # threshold is taken in log space, where ||A||^deg p cannot overflow.
        valid_from = mp.degree
        scale = max(1.0, an.norm)
        live = np.flatnonzero(logs[valid_from - 1 :] > np.log(1e-10) + mp.degree * np.log(scale))
        if live.size:
            raise InconsistencyError(
                f"nilpotent matrix has nonzero power at n={valid_from + live[0]}"
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
        alpha += b.projection_norm * aj

    valid_from = 1
    n = np.arange(valid_from, POWER_STEPS + 1)
    excess = logs - (np.log(alpha) + kappa * np.log(n) + n * np.log(r))
    finite = np.isfinite(logs)
    worst = excess[finite].max() if finite.any() else -np.inf
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


def growth_csv_rows(A, gb: GrowthBound):
    """(n, ||A^n||, bound_n) rows for n = 1..POWER_STEPS, for external
    plotting."""
    logs = as_analysis(A).power_logs
    rows = []
    for n in range(1, POWER_STEPS + 1):
        if gb.spectral_radius > 0:
            bound = gb.alpha * n**gb.kappa * gb.spectral_radius**n
        else:
            bound = float(np.exp(logs[n - 1])) if n < gb.valid_from else 0.0
        rows.append((n, float(np.exp(logs[n - 1])), bound))
    return rows


def uniform_stability(A, config: RunConfig | None = None) -> StabilityVerdict:
    """||A^n|| -> 0 iff r(A) < 1; strong stability and power boundedness
    filled via probe orbits and the structural power-bound criterion.

    The probe orbits are ``Analysis.orbits``, the batch ``theorem_check``
    classifies, read over the full horizon.  r < 1 is cross-checked by
    log ||A^n||_F falling from n = n_max // 2 + 1 to n = n_max, read off
    the batch's basis columns (``frobenius_log_norms``; decay does not
    depend on the norm, and a zero power counts as falling).
    """
    cfg = config or RunConfig()
    an = as_analysis(A)
    uniformly = an.spectral_radius < 1 - UNIT_TOL
    half = cfg.n_max // 2
    probes, ologs = an.orbits(cfg.seed, cfg.n_max)
    if uniformly:
        mid, end = frobenius_log_norms(ologs[[half + 1, cfg.n_max]], an.A.shape[0])
        if end > -np.inf and end >= mid:
            raise InconsistencyError("r < 1 but power norms do not decay")

    structural_pb = power_bounded_roots(an.minpoly.roots)
    w = cfg.window
    gap = (ologs.shape[0] - w) - half
    live = ologs[-1] > -np.inf
    # Compare window maxima rather than single samples so that bounded
    # oscillations are not mistaken for decay.
    top = ologs[-w:].max(axis=0)
    oslope = (top[live] - ologs[half:half + w].max(axis=0)[live]) / gap
    strongly = bool(np.all(oslope < -1e-12))
    # The window rule reads only the last w terms; past _LOG_SQ_MAX the
    # squared norms overflow and the window has no finite limit.
    fits = np.flatnonzero(live & (2 * top <= _LOG_SQ_MAX))
    ok, L = _window_rule(np.exp(2 * np.ascontiguousarray(ologs[-w:, fits].T)), cfg.tol_conv)
    converged = dict(zip(fits[ok].tolist(), L[ok].tolist()))
    limits = {label: max(converged.get(j, 0.0), 0.0)
              for j, (label, _) in enumerate(probes) if j in converged or not live[j]}
    return StabilityVerdict(
        uniformly_stable=uniformly,
        strongly_stable=strongly,
        power_bounded=structural_pb,
        limit_projection_norm_sq=limits,
    )


def orbit_root_limit(A, H):
    """Empirical limit of ||A^n h||^{1/n} over ``RunConfig.n_max`` steps for
    each column h of H (a 1-D H is one column and gives a float),
    cross-checked within 1e-3 against the structural prediction
    max{|z_j| : P_j h != 0}.

    The n-th root sequence converges like 1 + O(log n / n), too slowly for
    the plain window rule at desk horizons; the limit is therefore
    extracted by fitting log ||A^n h|| = a + kappa log n + n log rho over
    the tail, which removes the polynomial factor.  The columns advance
    together in one ``orbit_log_norms_batch`` and share one least-squares
    solve.
    """
    an = as_analysis(A)
    single = np.ndim(H) == 1
    H = as_columns(H, an.A.shape[0])
    n_max = RunConfig.n_max
    logs = orbit_log_norms_batch(an.A, H, n_max)
    # A column that reached zero has root limit 0.
    empirical = np.zeros(H.shape[1])
    live = logs[-1] > -np.inf
    n0 = max(10, n_max // 4)
    ns = np.arange(n0, n_max + 1, dtype=float)
    X = np.column_stack([np.ones_like(ns), np.log(ns), ns])
    coef, *_ = np.linalg.lstsq(X, logs[n0:, live], rcond=None)
    empirical[live] = np.exp(coef[2])
    for e, mu in zip(empirical, block_components(H, an.decomposition)[1]):
        if abs(e - mu) > 1e-3:
            raise InconsistencyError(f"root limit {e} disagrees with structural value {mu}")
    return float(empirical[0]) if single else empirical
