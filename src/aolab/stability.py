"""Norm-growth bounds and stability taxonomy for algebraic matrices.

Covers: the three-way equivalence for normaloid matrices, the limit of
||A^n h||^2 for normal contractions (orthogonal projection onto the
unimodular eigenspaces), the explicit polynomial growth bound
||A^n|| <= alpha n^kappa r^n, uniform/strong stability, and the n-th root
limit of orbit norms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import TOL_CONV, WINDOW, RunConfig
from .criteria import (
    Analysis,
    BLOCK_GROWTH_LOG2,
    POWER_STEPS,
    STACK_ENTRIES,
    _LN2,
    _clamped_exp,
    _envelope_fit,
    _window_rule,
    as_analysis,
    is_normaloid,
    is_power_bounded,
    orbit_convergence,
    orbit_log_norms_batch,
    orbit_norms_batch,
    structural_envelope,
)
from .errors import InconsistencyError, InvalidInputError, OutOfScopeError
from .linalg import as_columns
from .structure import decide

# Unused here, but bench/selftest.py checks that the tracer patches this
# binding.
from .structure import minimal_polynomial  # noqa: F401

# ``growth_bound`` solves no power A^n whose block recursion bound
# (``recursion_log_norms``) on the excess log ||A^n||_2 - log bound_n falls
# more than this below the best exact excess solved (0 on a nilpotent
# matrix, which solves a prefix).  It covers the rounding of log ||A^n||_2
# (``power_log_norms``) against the recursion, which it exceeded by at most
# 4.2e-14 (on z I).
_RECURSION_SLACK = 1e-8

# The growth bound holds when the largest ratio ||A^n|| / bound_n is at most
# 1 + _RATIO_TOL.
_RATIO_TOL = 1e-8

# A power of a nilpotent matrix counts as vanished when its norm is at most
# _VANISHING_LEVEL max(1, ||A||)^deg p.
_VANISHING_LEVEL = 1e-10


class GrowthBound(NamedTuple):
    kappa: int
    alpha: float
    spectral_radius: float
    valid_from: int
    max_violation_ratio: float

    def to_obj(self):
        return self._asdict()


class StabilityVerdict(NamedTuple):
    uniformly_stable: bool
    strongly_stable: bool
    power_bounded: bool
    limit_projection_norm_sq: dict

    def to_obj(self):
        return self._asdict()


class NormaloidReport(NamedTuple):
    orbits_convergent: bool
    power_bounded: bool
    contraction: bool

    def all_agree(self) -> bool:
        return self.orbits_convergent == self.power_bounded == self.contraction


def normaloid_equivalence(A, config: RunConfig | None = None) -> NormaloidReport:
    """For a normaloid matrix: orbit convergence, power boundedness and
    being a contraction stand or fall together.  Raises InconsistencyError
    if the three evaluated conditions disagree."""
    an = as_analysis(A, config)
    if not is_normaloid(an):
        raise InvalidInputError("normaloid_equivalence requires a normaloid matrix")
    pb = is_power_bounded(an)
    convergent = orbit_convergence(an)[0]
    rep = NormaloidReport(orbits_convergent=convergent, power_bounded=pb, contraction=an.contraction)
    if not rep.all_agree():
        raise InconsistencyError(f"normaloid equivalence violated: {rep}")
    return rep


# Times max(||A||^2, _NORM_SQ_FLOOR); unitaries at d4-d64 read ||A^H A - A A^H||_F <= 1e-14 ||A||^2.
_NORMALITY_TOL = 1e-10
# Keeps the normality threshold positive where ||A||^2 underflows (||A|| < 1e-154).
_NORM_SQ_FLOOR = 1e-300


def normal_limit(A, H):
    """lim ||A^n h||^2 for a normal contraction and each column h of H:
    equals <Q h, h> with Q the orthogonal projection onto the unimodular
    eigenspaces: one product of the unimodular blocks' bases side by side
    and their rows of B^{-1}.  Each column's identity is cross-checked, to
    TOL_CONV max(1, ||h||^2) (the window rule's own tolerance, which
    bounds its limit's error), against the window limit of its orbit over
    the ``n_max`` steps of the analysis's config; the columns advance
    together in one ``orbit_norms_batch`` and share one window rule."""
    an = as_analysis(A)
    A = an.A
    H = as_columns(H, A.shape[0])
    # Contraction first: the normality products of a huge matrix overflow.
    if not an.contraction:
        raise InvalidInputError("normal_limit requires a contraction")
    commutator = np.linalg.norm(A.conj().T @ A - A @ A.conj().T)
    if decide(commutator, _NORMALITY_TOL * max(an.norm**2, _NORM_SQ_FLOOR)) == 2:
        raise InvalidInputError("normal_limit requires a normal matrix")
    B, Binv = an.decomposition.factors()
    on = np.repeat(an.grading.circle, an.decomposition.block_dims())
    Q = B[:, on] @ Binv[on]
    # Column by column, so that a value does not depend on the other columns.
    q = np.array([np.vdot(h, Q @ h).real for h in H.T.copy()])
    norms, _ = orbit_norms_batch(A, H, an.config.n_max)
    _, limits = _window_rule(np.ascontiguousarray((norms[-WINDOW:] ** 2).T))
    off = np.flatnonzero(decide(np.abs(limits - q), TOL_CONV * np.maximum(1.0, norms[0] ** 2)) == 2)
    if off.size:
        j = off[0]
        raise InconsistencyError(f"orbit limit {limits[j]} disagrees with projection value {q[j]}")
    return q


def _worst_excess(logs, log_bound):
    """The largest log ||A^n|| - log bound_n, n = 1..len(logs), over a
    finite bound: ``fmax`` skips the nan of an unsolved power, and a zero
    power's -inf, like no power at all, leaves -inf."""
    return np.fmax.reduce(logs - log_bound[: logs.size], initial=-np.inf)


def _reach(upper, floor) -> int:
    """1 + the last n whose upper bound upper[n - 1] on the excess does not
    fall below floor (a NaN bound rules nothing out); 0 if there is none."""
    reach = np.flatnonzero(~(upper < floor))
    return int(reach[-1]) + 1 if reach.size else 0


def recursion_log_norms(an: Analysis, n_max: int) -> np.ndarray:
    """Upper bounds on log ||A^n||, n = 1..n_max, read off the
    decomposition before any power is formed (+inf throughout if rho =
    ||I - sum_j P_j||_F = ||I - B B^{-1}||_F >= 1).

    With D_j = A - z_j I and c_{j,k} = ||D_j^k B_j||_2 ||P_j||, k =
    0..i_j, the recursion x_{j,k}(0) = c_{j,k}, x_{j,k}(n+1) =
    |z_j| x_{j,k}(n) + x_{j,k+1}(n), with x_{j,i_j}(n) = c_{j,i_j} U(n) and
    U(n) = sum_j x_{j,0}(n) / (1 - rho), gives ||D_j^k A^n P_j|| <=
    x_{j,k}(n) and ||A^n|| <= U(n) in exact arithmetic, for any roots z_j
    and any P_j = B_j E_j with ||E_j|| = ||P_j|| and rho < 1:
    D_j^k A^(n+1) P_j = z_j D_j^k A^n P_j + D_j^(k+1) A^n P_j,
    D_j^(i_j) A^n P_j = A^n D_j^(i_j) P_j, and A^n = sum_j A^n P_j +
    A^n (I - sum_j P_j).  A wrong structure only loosens the bound.

    The state runs scaled, x_{j,k}(n) / t^(n+k), as s(n+1) = T s(n) for a
    nonnegative T of order deg p whose largest diagonal entry is |z_j| / t:
    t = r = max |z_j|, or ||A|| on a nilpotent matrix (every root graded 0
    by ``Analysis.grading``; 1 on the zero matrix, whose powers are exactly
    0).  Any t > 0 gives the same bound in exact arithmetic.  The state
    advances in chunks of the stack T^1..T^k (k from STACK_ENTRIES, the
    stack formed by doubling) and is rescaled by a power of two after each
    chunk.  Since ||B_j|| = 1 (orthonormal columns), c_{j,0} = ||P_j||.
    """
    A = an.A
    d = A.shape[0]
    blocks = an.decomposition.blocks
    R = np.eye(d, dtype=complex) - np.matmul(*an.decomposition.factors())
    gap = 1.0 - float(np.sqrt(np.vdot(R, R).real))
    if not gap > 0:
        return np.full(n_max, np.inf)
    t = (an.norm or 1.0) if an.grading.zero.all() else an.spectral_radius
    index = [b.index for b in blocks]
    heads = np.cumsum([0, *index[:-1]])
    deg = sum(index)
    T, s = np.zeros((deg, deg)), np.empty(deg)
    for b, o in zip(blocks, heads.tolist()):
        i = b.index
        # The real view by t: a complex division multiplies by 1 / t, inf for a subnormal t.
        D = ((A - b.z * np.eye(d)).view(float) / t).view(complex)
        M, c = b.basis, b.projection_norm
        for k in range(i):
            s[o + k] = c
            M = D @ M
            c = float(np.linalg.norm(M, 2 if M.shape[1] > 1 else None)) * b.projection_norm
        T[o : o + i, o : o + i] = abs(b.z) / t * np.eye(i) + np.eye(i, k=1)
        T[o + i - 1, heads] += c / gap
    k = max(1, min(n_max, STACK_ENTRIES // deg**2))
    stack = np.empty((k, deg, deg))
    stack[0] = T
    out = np.empty(n_max)
    shed = 0  # the true state is 2^shed s
    # Powers of the blocks below r underflow harmlessly against the top
    # block, whose head never decreases while r > 0; on a nilpotent matrix
    # the state may reach 0 (log -inf).  The stack stops doubling once an
    # entry passes 2^BLOCK_GROWTH_LOG2, so that no chunk overflows unless T
    # itself is that large; an overflowing state is a bound of +inf, which
    # rules no power out.
    with np.errstate(under="ignore", divide="ignore", over="ignore"):
        j = 1
        while j < k and stack[:j].max() <= 2.0**BLOCK_GROWTH_LOG2:
            h = min(j, k - j)
            np.matmul(stack[:h], stack[j - 1], out=stack[j : j + h])
            j += h
        for n in range(0, n_max, j):
            S = stack[: min(j, n_max - n)] @ s
            out[n : n + S.shape[0]] = np.log(S[:, heads].sum(axis=1)) + shed * _LN2
            e = np.frexp(S[-1].max())[1]
            s = np.ldexp(S[-1], -e)
            shed += int(e)
    return out - np.log(gap) + np.arange(1, n_max + 1) * np.log(t)


def growth_bound(A) -> GrowthBound:
    """Certified constant for ||A^n|| <= alpha n^kappa r^n.

    Per block: alpha_j = sum_k ||N_j^k|| / (k! |z_j|^k) over k < i_j, with
    N_j the nilpotent part in the block basis; alpha aggregates via
    alpha = sum_j ||P_j|| alpha_j.  A nilpotent matrix (every root 0 in
    ``Analysis.grading``) is the r = 0 case, bounded by the vanishing level
    from n = deg p on and by +inf before.
    Verified empirically up to POWER_STEPS on exact spectral norms
    (``Analysis.power_logs``), solved only where the block recursion bound
    (``recursion_log_norms``) on log ||A^n|| - log bound_n leaves n in
    play: first the n of the largest recursion bound, whose exact excess,
    or a larger one solved before, is the floor, then every n whose bound
    comes within the slack of the floor; on a nilpotent matrix, every n up
    to the last whose bound comes within the slack of 0.  The largest
    ratio ||A^n|| / bound_n is the maximum over all POWER_STEPS powers bit
    for bit; on a nilpotent matrix the first power past the level is
    named.
    """
    an = as_analysis(A)
    A = an.A
    mp = an.minpoly
    r, zero = an.spectral_radius, an.grading.zero
    if an.grading.past.any():
        raise OutOfScopeError(f"growth bound requires r(A) <= 1, got {r}")
    kappa = mp.degree - 1
    n = np.arange(1, POWER_STEPS + 1)
    nilpotent = bool(zero.all())
    if nilpotent:
        # Powers vanish identically from n = deg p on.  The level is taken in
        # log space, where ||A||^deg p cannot overflow.
        alpha, r, valid_from = 1.0, 0.0, mp.degree
        vanish = np.log(_VANISHING_LEVEL) + mp.degree * np.log(max(1.0, an.norm))
        log_bound = np.where(n < valid_from, np.inf, vanish)
    else:
        alpha = 0.0
        for b, b_zero in zip(an.decomposition.blocks, zero):
            aj = 1.0  # the k = 0 term, ||I||, all an index-1 block has
            if b.index > 1:
                N = b.basis.conj().T @ A @ b.basis - b.z * np.eye(b.dim)
                # A zero-eigenvalue block inside a matrix with r > 0 dies at
                # n >= i_j; its term covers the finitely many live powers.
                Nk = np.eye(b.dim, dtype=complex)
                fact = 1.0
                for k in range(1, b.index):
                    Nk = Nk @ N
                    fact *= k
                    nrm = float(np.linalg.norm(Nk, 2))
                    aj = max(aj, nrm / (k**kappa * r**k)) if b_zero else aj + nrm / (fact * abs(b.z) ** k)
            alpha += b.projection_norm * aj
        valid_from = 1
        log_bound = np.log(alpha) + kappa * np.log(n) + n * np.log(r)

    # No n whose recursion excess falls more than the slack below the floor
    # can hold the maximum (or a power past the level); +inf - +inf before
    # deg p is NaN, which rules nothing out.
    with np.errstate(invalid="ignore"):
        upper = recursion_log_norms(an, POWER_STEPS) - log_bound
    if nilpotent:
        logs = an.power_logs(_reach(upper, -_RECURSION_SLACK))
        live = np.flatnonzero(decide(logs, log_bound[: logs.size]) == 2)
        if live.size:
            raise InconsistencyError(f"nilpotent matrix has nonzero power at n={live[0] + 1}")
        return GrowthBound(kappa, alpha, r, valid_from, 0.0)
    # The floor: the best exact excess among the powers solved so far, after
    # the one with the largest recursion bound (the first NaN, if any).
    floor = _worst_excess(an.power_logs(POWER_STEPS, n == np.argmax(upper) + 1), log_bound)
    worst = _worst_excess(an.power_logs(POWER_STEPS, ~(upper < floor - _RECURSION_SLACK)), log_bound)
    if worst > np.log(np.finfo(float).max):  # the ratio itself overflows
        raise InconsistencyError(f"growth bound violated: log ratio {worst:.2f}")
    ratio = float(np.exp(worst)) if np.isfinite(worst) else 0.0
    if decide(ratio, 1 + _RATIO_TOL) == 2:
        raise InconsistencyError(f"growth bound violated: ratio {ratio}")
    return GrowthBound(kappa, float(alpha), float(r), valid_from, ratio)


def growth_csv_rows(A, gb: GrowthBound):
    """(n, ||A^n||, bound_n) rows for n = 1..POWER_STEPS, for external
    plotting; norms are clamped at 1e308 (``criteria._clamped_exp``), and
    bound_n is ||A^n|| itself before ``valid_from`` (0 from it on at r = 0)."""
    norms = _clamped_exp(np.array(as_analysis(A).power_logs()))
    return [
        (n, nrm, nrm if n < gb.valid_from else gb.alpha * n**gb.kappa * gb.spectral_radius**n)
        for n, nrm in enumerate(map(float, norms), start=1)
    ]


def uniform_stability(A, config: RunConfig | None = None) -> StabilityVerdict:
    """||A^n|| -> 0 iff r(A) < 1, which in finite dimension is also strong
    stability (A^n h -> 0 for every h); power boundedness from the
    structural criterion, and the limits of ||A^n h||^2 from the probes.

    The probe orbits are ``Analysis.orbits``, the batch ``theorem_check``
    classifies, read over the full horizon.  r < 1 is cross-checked by
    log ||A^n R||_F falling from n = n_max // 2 + 1 to n = n_max, R the
    batch's random columns (``Analysis.frobenius_rows``; A^n R
    tends to 0 iff the powers do, for every R off a proper algebraic
    subset, and a zero power counts as falling).
    """
    an = as_analysis(A, config)
    cfg = an.config
    uniformly = bool(an.grading.below.all())
    probes, ologs = an.orbits
    ologs = ologs[: cfg.n_max + 1]
    if uniformly:
        mid, end = an.frobenius_rows([cfg.n_max // 2 + 1, cfg.n_max])
        if end > -np.inf and end >= mid:
            raise InconsistencyError("r < 1 but power norms do not decay")

    # A dead probe's limit is 0.  A window whose squares or their sum
    # overflow has no finite limit: the rule reads it as inf or nan.
    dead = ologs[-1] == -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        ok, L = _window_rule(np.exp(2 * np.ascontiguousarray(ologs[-WINDOW:].T)))
    L[dead] = 0.0
    kept = dead | ok & np.isfinite(L)
    limits = {label: float(L[j]) for j, (label, _) in enumerate(probes) if kept[j]}
    return StabilityVerdict(uniformly_stable=uniformly, strongly_stable=uniformly,
                            power_bounded=an.power_bounded, limit_projection_norm_sq=limits)


# Covers the fit's band on log rho, 1 / 1501 at the default horizon (``criteria._envelope_fit``).
_ROOT_LIMIT_TOL = 1e-3


def orbit_root_limit(A, H):
    """Empirical limit of ||A^n h||^{1/n} over the ``n_max`` steps of the
    analysis's config for each column h of H, cross-checked within
    _ROOT_LIMIT_TOL against mu = max{|z_j| : P_j h != 0} (``structural_envelope``).

    The n-th root sequence converges like 1 + O(log n / n), too slowly for
    the plain window rule at desk horizons; the limit is therefore rho of
    the envelope fit log ||A^n h|| = a + k log n + n log rho
    (``criteria._envelope_fit``, the fit ``classify_orbits`` reads), which
    removes the polynomial factor.  The fit reads the last three quarters
    of the n_max + 1 > 4 WINDOW rows.  The columns advance together in one
    ``orbit_log_norms_batch``.
    """
    an = as_analysis(A)
    H = as_columns(H, an.A.shape[0])
    logs = orbit_log_norms_batch(an.A, H, an.config.n_max)
    # A column that reached zero has root limit 0.
    empirical = np.zeros(H.shape[1])
    live = logs[-1] > -np.inf
    empirical[live] = np.exp(_envelope_fit(logs)[0][live])
    for e, mu in zip(empirical, structural_envelope(an.A, H, an.decomposition)[0]):
        if decide(abs(e - mu), _ROOT_LIMIT_TOL) == 2:
            raise InconsistencyError(f"root limit {e} disagrees with structural value {mu}")
    return empirical
