"""Decision procedures for the unitarity criteria of algebraic matrices.

The four equivalent conditions checked by ``theorem_check`` for a matrix
with unimodular spectrum: unitary, normaloid, contraction, and convergence
of every orbit-norm sequence {||T^n h||}.  Orbits are classified with a
shared finite-horizon window rule; structural predictions (from the
generalized eigenspace decomposition) are cross-checked against empirical
behaviour wherever both are available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import RunConfig
from .errors import InconsistencyError, InvalidInputError
from .linalg import as_matrix, as_vector, operator_norm, spectrum
from .structure import Decomposition, MinimalPoly, decompose, minimal_polynomial

# Raw orbit norms (``orbit_norms_batch``) are cut at the first step where
# some norm passes this; ``overflowed_columns`` says which columns count as
# overflowed (classified exponential without the ladder).
OVERFLOW_LIMIT = 1e300

# The cut step can multiply a norm past the float range; its raw norms are
# clamped here so that they stay finite.
_NORM_CLAMP = 1e308

# Tail log-slope above which a sequence counts as exponentially growing.
EXP_SLOPE_TOL = 1e-3

# Steps per block of the orbit engine between conversions to log sums (and
# overflow checks); at most this many steps run past an overflow cut.
_ORBIT_BLOCK = 64

# Relative threshold deciding whether a block component of a vector is
# numerically nonzero.
COMPONENT_TOL = 1e-10

# Power-norm steps behind the empirical power-bound check.
POWER_STEPS = 1000

# A product A v of a unit vector has norm at most dim * max|a_ij|; past this
# bound its squared entries could overflow, so the orbit engine takes its
# column norms the slower overflow-safe way and ``power_log_norms`` scales A.
_SQUARE_SAFE = 2.0**500


# ---------------------------------------------------------------------------
# Window rule and classification ladder
# ---------------------------------------------------------------------------

def window_limit(
    seq: np.ndarray, window: int = RunConfig.window, tol: float = RunConfig.tol_conv
):
    """Finite-horizon convergence test.

    A sequence converges iff over its final ``window`` terms every value
    lies within max(tol, tol * |L|) of the window mean L.  Returns
    (converged, L).
    """
    s = np.asarray(seq, dtype=float)
    if s.size < window:
        window = s.size
    tail = s[-window:]
    L = float(np.mean(tail))
    ok = bool(np.max(np.abs(tail - L)) <= max(tol, tol * abs(L)))
    return ok, L


@dataclass(frozen=True)
class Classification:
    kind: str  # convergent | bounded-nonconvergent | polynomial-growth | exponential-growth
    limit: float | None = None
    degree: int | None = None
    rate: float | None = None

    def to_obj(self):
        out = {"kind": self.kind}
        if self.limit is not None:
            out["limit"] = float(self.limit)
        if self.degree is not None:
            out["degree"] = int(self.degree)
        if self.rate is not None:
            out["rate"] = float(self.rate)
        return out


def _tail_log_slope(norms: np.ndarray) -> float:
    """Least-squares slope of log s_n over the tail half (positive terms)."""
    n0 = max(1, norms.size // 2)
    idx = np.arange(n0, norms.size)
    vals = norms[n0:]
    mask = np.isfinite(vals) & (vals > 0)
    if mask.sum() < 2:
        return 0.0
    x = idx[mask].astype(float)
    y = np.log(vals[mask])
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x, y - y.mean()) / denom)


def classify_sequence(
    norms: np.ndarray,
    max_poly_degree: int,
    window: int = RunConfig.window,
    tol: float = RunConfig.tol_conv,
    overflowed: bool = False,
) -> Classification:
    """Classification ladder: exponential by tail log-slope, else smallest
    polynomial degree whose normalization stabilizes under the window rule,
    else convergent / bounded-nonconvergent."""
    s = np.asarray(norms, dtype=float)
    if overflowed:
        slope = _tail_log_slope(s)
        return Classification(kind="exponential-growth", rate=float(np.exp(max(slope, 0.0))))
    # A sequence that has (numerically) died is convergent to 0.
    tail = s[-min(window, s.size):]
    if np.all(tail <= tol):
        return Classification(kind="convergent", limit=0.0)
    # Growth verdicts (exponential or polynomial) must be confirmed by
    # actual growth along the orbit: both families at least double from n/4
    # to n at desk horizons, while a bounded slowly-oscillating sequence
    # can fake a positive log-slope or a sub-tol n^d-normalization.
    w = min(window, s.size)
    q = s.size // 4
    grows = np.max(s[-w:]) > 2.0 * np.max(s[q:q + w])
    slope = _tail_log_slope(s)
    if slope > EXP_SLOPE_TOL and grows:
        return Classification(kind="exponential-growth", rate=float(np.exp(slope)))
    ok, L = window_limit(s, window, tol)
    if ok:
        return Classification(kind="convergent", limit=L)
    n = np.arange(s.size, dtype=float)
    n[0] = 1.0
    for d in range(1, max(1, max_poly_degree) + 1):
        ok, L = window_limit(s / n**d, window, tol)
        if ok and L > tol and grows:
            return Classification(kind="polynomial-growth", degree=d, limit=L)
    return Classification(kind="bounded-nonconvergent")


# ---------------------------------------------------------------------------
# Orbit iteration
# ---------------------------------------------------------------------------

def _squares_safe(A: np.ndarray) -> bool:
    """Whether the squared entries of A v, for unit v, stay in float range."""
    return float(np.abs(A).max()) * A.shape[0] <= _SQUARE_SAFE


def orbit_log_norms_batch(
    A: np.ndarray, H: np.ndarray, n_max: int, limit: float = np.inf
) -> np.ndarray:
    """log ||A^n h|| for every column h of H, n = 0..n_max.

    The propagation engine behind every orbit in the package: all columns
    advance together by one ``A @ V`` per step (never by powering A), and
    each column is rescaled to unit norm after every step, so the log-norms
    neither overflow nor underflow.  A column that reaches exactly zero
    reads -inf from then on.  Iteration stops after the first step at which
    some log-norm exceeds ``limit``, so the result has shape (n_steps+1, P)
    with n_steps <= n_max.
    """
    safe = _squares_safe(A)
    V = np.array(H, dtype=complex)
    s = np.linalg.norm(V, axis=0)
    if not np.all(s > 0):
        raise InvalidInputError("orbit vectors must be nonzero")
    out = np.empty((n_max + 1, V.shape[1]))
    np.log(s, out=out[0])
    inv = 1.0 / s
    V *= inv
    # Each step stores its rescaling factors; a block of them is turned into
    # running log sums at once (the same sequential sums as step by step).
    # log(0) = -inf is how a dead column is recorded.
    with np.errstate(divide="ignore"):
        for n0 in range(1, n_max + 1, _ORBIT_BLOCK):
            n1 = min(n0 + _ORBIT_BLOCK, n_max + 1)
            for n in range(n0, n1):
                V = A @ V
                s = out[n]
                if safe:
                    np.sqrt(np.add.reduce((V.conj() * V).real, axis=0), out=s)
                else:
                    # Per column, so that a column far below the largest
                    # entries does not underflow either.
                    np.hypot.reduce(np.abs(V), axis=0, out=s)
                # A dead column is exactly zero and stays zero under any
                # finite factor, so it keeps the previous step's factor.
                np.reciprocal(s, out=inv, where=s > 0)
                V *= inv
            np.log(out[n0:n1], out=out[n0:n1])
            np.cumsum(out[n0 - 1:n1], axis=0, out=out[n0 - 1:n1])
            if limit < np.inf:
                hit = np.flatnonzero(out[n0:n1].max(axis=1) > limit)
                if hit.size:
                    return out[: n0 + hit[0] + 1]
    return out


def orbit_norms_batch(A: np.ndarray, H: np.ndarray, n_max: int):
    """||A^n h|| for every column h of H, n = 0..n_max: the exponential of
    ``orbit_log_norms_batch``, taken in place and cut at OVERFLOW_LIMIT.

    Returns (norms, overflow_step) where norms has shape (n_steps+1, P) and
    overflow_step is the step at which some column exceeded OVERFLOW_LIMIT
    (None if none did; the result ends there, with norms clamped at 1e308).
    """
    log_limit = np.log(OVERFLOW_LIMIT)
    logs = orbit_log_norms_batch(A, H, n_max, limit=log_limit)
    overflow = logs.shape[0] - 1 if logs[-1].max() > log_limit else None
    np.minimum(logs[-1], np.log(_NORM_CLAMP), out=logs[-1])
    return np.exp(logs, out=logs), overflow


def overflowed_columns(norms: np.ndarray, overflow: int | None) -> np.ndarray:
    """The overflow rule: which columns of an ``orbit_norms_batch`` result
    ended within a factor 10 of OVERFLOW_LIMIT at the cut step (all False
    when the cut did not fire).  Such a column is classified exponential
    without the ladder."""
    if overflow is None:
        return np.zeros(norms.shape[1], dtype=bool)
    return norms[-1] > OVERFLOW_LIMIT / 10


def classify_orbits(A: np.ndarray, H: np.ndarray, max_poly_degree: int, cfg: RunConfig):
    """Raw orbit norms of the columns of H over ``cfg.n_max`` steps
    (``orbit_norms_batch``) and each column's classification under the
    overflow rule and the window rule of ``cfg``."""
    norms, overflow = orbit_norms_batch(A, H, cfg.n_max)
    over = overflowed_columns(norms, overflow)
    return norms, [
        classify_sequence(
            norms[:, j], max_poly_degree, cfg.window, cfg.tol_conv, overflowed=bool(over[j])
        )
        for j in range(norms.shape[1])
    ]


def power_log_norms(A: np.ndarray, n_max: int) -> np.ndarray:
    """log ||A^n|| (operator norm) for n = 1..n_max, immune to overflow and
    underflow; -inf from the first power that is exactly zero.

    Each power is rescaled by its Frobenius norm as it is formed; the
    operator norms of the rescaled powers come from one batched SVD per
    chunk of at most about 2^14 / d^2 matrices (256 KiB of stack).  Chunks
    start at fixed steps, so a longer trajectory extends a shorter one bit
    for bit: ``power_log_norms(A, m)`` equals ``power_log_norms(A, n)[:m]``
    for m <= n.  A matrix whose squared entries could overflow is propagated
    scaled by 2^-e, a power of two taken from its largest entry, and
    n e log 2 is added back to log ||A^n||.
    """
    A = as_matrix(A)
    shift = 0.0
    if not _squares_safe(A):
        e = math.frexp(float(np.abs(A).max()))[1]
        A *= 2.0**-e
        shift = e * math.log(2.0)
    d = A.shape[0]
    depth = max(1, 2**14 // d**2)
    stack = np.empty((min(depth, n_max), d, d), dtype=complex)
    log_scale = np.empty(stack.shape[0])
    out = np.empty(n_max)
    M = np.eye(d, dtype=complex)
    acc = 0.0
    for n0 in range(0, n_max, depth):
        k = min(depth, n_max - n0)
        live = k
        for j in range(k):
            np.matmul(A, M, out=stack[j])
            M = stack[j]
            f = math.sqrt(np.vdot(M, M).real)
            if f == 0.0:
                live = j
                break
            acc += math.log(f) + shift
            log_scale[j] = acc
            M *= 1.0 / f
        if live:
            sigma = np.linalg.svd(stack[:live], compute_uv=False)[:, 0]
            out[n0:n0 + live] = log_scale[:live] + np.log(sigma)
        if live < k:
            out[n0 + live:] = -np.inf
            return out
        M = M.copy()  # the next chunk overwrites the stack
    return out


# ---------------------------------------------------------------------------
# Domain records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitRecord:
    h: np.ndarray
    norms: np.ndarray
    structural_exponent: int | None
    classification: Classification

    def to_obj(self):
        return {
            "structural_exponent": self.structural_exponent,
            "classification": self.classification.to_obj(),
            "norm_first": float(self.norms[0]),
            "norm_last": float(self.norms[-1]),
        }


@dataclass(frozen=True)
class ScalarSeqVerdict:
    w: complex
    b: complex
    convergent: bool
    cluster_points: tuple


@dataclass
class CriteriaReport:
    is_algebraic: bool
    minpoly_degree: int
    spectrum_in_circle: bool
    unitary: bool
    normaloid: bool
    contraction: bool
    orbits_convergent: bool
    power_bounded: bool
    witness: np.ndarray | None
    consistent: bool
    probes: list = field(default_factory=list)  # (label, OrbitRecord)

    def to_obj(self):
        out = {
            "is_algebraic": self.is_algebraic,
            "minpoly_degree": self.minpoly_degree,
            "spectrum_in_circle": self.spectrum_in_circle,
            "unitary": self.unitary,
            "normaloid": self.normaloid,
            "contraction": self.contraction,
            "orbits_convergent": self.orbits_convergent,
            "orbits_note": "certified via probes",
            "power_bounded": self.power_bounded,
            "consistent": self.consistent,
            "witness": None
            if self.witness is None
            else [[float(z.real), float(z.imag)] for z in self.witness],
            "probes": [{"label": lab, **rec.to_obj()} for lab, rec in self.probes],
        }
        return out


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------

class Analysis:
    """One matrix and the structure every stage reads off it: ``norm``
    (||A||), ``spectral_radius`` (via ``spectrum``), ``minpoly``,
    ``decomposition`` and the power-norm trajectory
    ``power_log_norms(A, horizon)``, each computed once, on first use.
    Structure that cannot be certified raises on first use.  Every stage
    that reads them takes a matrix or an Analysis (``as_analysis``)."""

    def __init__(self, A, horizon: int):
        self.A = as_matrix(A)
        self.horizon = horizon

    @cached_property
    def norm(self) -> float:
        return operator_norm(self.A)

    @cached_property
    def spectral_radius(self) -> float:
        return spectrum(self.A).spectral_radius

    @cached_property
    def minpoly(self) -> MinimalPoly:
        return minimal_polynomial(self.A)

    @cached_property
    def decomposition(self) -> Decomposition:
        return decompose(self.A, self.minpoly)

    @cached_property
    def _power_logs(self) -> np.ndarray:
        return power_log_norms(self.A, self.horizon)

    def power_logs(self, n: int) -> np.ndarray:
        """log ||A^k|| for k = 1..n: a prefix of the trajectory, bit for bit
        ``power_log_norms(A, n)``.  Raises InvalidInputError past the
        horizon."""
        if n > self.horizon:
            raise InvalidInputError(
                f"a verdict needs {n} power-norm steps; the analysis horizon is {self.horizon}"
            )
        return self._power_logs[:n]


def as_analysis(a, horizon: int) -> Analysis:
    """``a`` itself if it is an Analysis, else an Analysis of the matrix
    ``a`` whose trajectory covers ``horizon`` power steps."""
    return a if isinstance(a, Analysis) else Analysis(a, horizon)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_unitary(A) -> bool:
    A = as_matrix(A)
    d = A.shape[0]
    # A unitary matrix has no entry of modulus above 1; larger entries would
    # only overflow the products below.
    if np.abs(A).max() > 2:
        return False
    I = np.eye(d)
    return bool(
        np.linalg.norm(A.conj().T @ A - I) <= 1e-10 * d
        and np.linalg.norm(A @ A.conj().T - I) <= 1e-10 * d
    )


def is_normaloid(A) -> bool:
    """Spectral radius equals operator norm.

    Cross-checks ||A^n|| = ||A||^n (relative 1e-6, n = 2..10) and warns on
    disagreement between the two tests.
    """
    an = as_analysis(A, 10)
    nrm = an.norm
    structural = abs(an.spectral_radius - nrm) <= 1e-8 * max(1.0, nrm)
    if nrm > 0:
        logs = an.power_logs(10)
        empirical = all(
            abs(logs[n - 1] - n * np.log(nrm)) <= np.log1p(1e-6) * n + 1e-6
            for n in range(2, 11)
        )
    else:
        empirical = True
    if structural != empirical:
        warnings.warn(
            f"normaloid tests disagree: r vs ||A|| says {structural}, "
            f"power norms say {empirical}",
            RuntimeWarning,
            stacklevel=2,
        )
    return structural


def power_bounded_roots(roots, r: float) -> bool:
    """The structural power-bound criterion: spectral radius ``r`` at most 1
    and every root (z, index) of modulus (near) 1 simple."""
    return r <= 1 + 1e-10 and all(i == 1 for z, i in roots if abs(z) >= 1 - 1e-8)


def is_power_bounded(A) -> bool:
    """sup_n ||A^n|| finite, decided structurally: spectral radius at most 1
    and every root of modulus (near) 1 simple in the minimal polynomial.
    Cross-checked against the first POWER_STEPS power norms; disagreement
    raises InconsistencyError.
    """
    an = as_analysis(A, POWER_STEPS)
    p = an.minpoly
    structural = power_bounded_roots(p.roots, max(abs(z) for z, _ in p.roots))
    logs = an.power_logs(POWER_STEPS)
    finite = logs[np.isfinite(logs)]
    if finite.size < 4:
        empirical = True  # nilpotent: powers vanish
    elif np.max(finite) >= 600:
        empirical = False  # powers reached e^600: unbounded
    else:
        cls = classify_sequence(np.exp(finite), max_poly_degree=p.degree)
        empirical = cls.kind in ("convergent", "bounded-nonconvergent")
    if structural != empirical:
        raise InconsistencyError(
            f"power boundedness: structural={structural} empirical={empirical}"
        )
    return structural


# ---------------------------------------------------------------------------
# Orbit analysis
# ---------------------------------------------------------------------------

def structural_exponent(A: np.ndarray, h: np.ndarray, D: Decomposition) -> int | None:
    """Largest k with (A - z_j I)^k P_j h != 0, maximized over the blocks of
    largest modulus among those where h has a component."""
    d = A.shape[0]
    hn = float(np.linalg.norm(h))
    comps = []
    for b in D.blocks:
        ph = b.projection @ h
        if np.linalg.norm(ph) > COMPONENT_TOL * hn:
            comps.append((b, ph))
    if not comps:
        return None
    mu = max(abs(b.z) for b, _ in comps)
    best = 0
    for b, ph in comps:
        if abs(abs(b.z) - mu) > 1e-8:
            continue
        B = A - b.z * np.eye(d)
        v = ph
        k = 0
        for j in range(1, b.index):
            v = B @ v
            if np.linalg.norm(v) > COMPONENT_TOL * hn:
                k = j
        best = max(best, k)
    return best


def orbit_analyze(
    A,
    h,
    n_max: int | None = None,
    config: RunConfig | None = None,
) -> OrbitRecord:
    """Iterate h, A h, A^2 h, ... and classify the norm sequence; attach the
    structural exponent from the eigenspace decomposition.

    The horizon, window and tolerance come from ``config``; ``n_max`` is
    shorthand for ``config=RunConfig(n_max=n_max)`` and cannot be combined
    with it.
    """
    if n_max is not None and config is not None:
        raise InvalidInputError("pass n_max or config, not both")
    cfg = config or (RunConfig() if n_max is None else RunConfig(n_max=n_max))
    an = as_analysis(A, 0)
    A = an.A
    h = as_vector(h, A.shape[0])
    if np.linalg.norm(h) == 0:
        raise InvalidInputError("orbit vector must be nonzero")
    if cfg.n_max < 100:
        raise InvalidInputError("n_max must be at least 100")
    norms, (cls,) = classify_orbits(A, h.reshape(-1, 1), an.minpoly.degree, cfg)
    exponent = structural_exponent(A, h, an.decomposition)
    return OrbitRecord(h=h, norms=norms[:, 0], structural_exponent=exponent, classification=cls)


# ---------------------------------------------------------------------------
# Theorem check
# ---------------------------------------------------------------------------

def probe_set(
    d: int,
    rng: np.random.Generator,
    n_random: int = 20,
    D: Decomposition | None = None,
):
    """(label, vector) probes in C^d: the standard basis, ``n_random``
    random unit vectors, and, given a decomposition with several blocks,
    block-mixing pairs (h_k + h_l and i h_k + h_l)."""
    probes = []
    for i in range(d):
        e = np.zeros(d, dtype=complex)
        e[i] = 1.0
        probes.append((f"e{i}", e))
    for t in range(n_random):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probes.append((f"rand{t}", v / np.linalg.norm(v)))
    if D is not None and D.m > 1:
        for k in range(D.m):
            for l in range(k + 1, D.m):
                hk = D.blocks[k].basis[:, 0]
                hl = D.blocks[l].basis[:, 0]
                probes.append((f"mix{k}+{l}", hk + hl))
                probes.append((f"mix i*{k}+{l}", 1j * hk + hl))
    return probes


def theorem_check(A, config: RunConfig | None = None) -> CriteriaReport:
    """Evaluate the four equivalent unitarity conditions and cross-check
    their agreement under the hypotheses (algebraic, unimodular spectrum).

    ``A`` is a matrix or an Analysis with a horizon of at least
    POWER_STEPS; an inconsistent power-bound verdict raises
    InconsistencyError.
    """
    cfg = config or RunConfig()
    an = as_analysis(A, POWER_STEPS)
    A = an.A
    mp, D = an.minpoly, an.decomposition
    in_circle = all(abs(abs(z) - 1) <= 1e-8 for z, _ in mp.roots)

    unitary = is_unitary(A)
    normaloid = is_normaloid(an)
    contraction = an.norm <= 1 + 1e-10
    pb = is_power_bounded(an)

    probes = probe_set(A.shape[0], np.random.default_rng(cfg.seed), D=D)
    H = np.column_stack([v for _, v in probes])
    norms, classes = classify_orbits(A, H, mp.degree, cfg)
    records = []
    witness = None
    for j, ((label, v), cls) in enumerate(zip(probes, classes)):
        exp = structural_exponent(A, v, D)
        records.append((label, OrbitRecord(h=v, norms=norms[:, j], structural_exponent=exp, classification=cls)))
        if cls.kind != "convergent" and witness is None:
            witness = v
    all_convergent = witness is None

    conditions = [unitary, normaloid, contraction, all_convergent]
    consistent = (not in_circle) or all(c == conditions[0] for c in conditions)
    return CriteriaReport(
        is_algebraic=True,  # the minimal polynomial is certified above
        minpoly_degree=mp.degree,
        spectrum_in_circle=in_circle,
        unitary=unitary,
        normaloid=normaloid,
        contraction=contraction,
        orbits_convergent=all_convergent,
        power_bounded=pb,
        witness=witness,
        consistent=consistent,
        probes=records,
    )


# ---------------------------------------------------------------------------
# Scalar sequence lemma probe
# ---------------------------------------------------------------------------

def scalar_re_sequence(w: complex, b: complex, n_max: int = 100_000) -> ScalarSeqVerdict:
    """Finite probe of the scalar lemma: for |w| = 1, w != +-1, the sequence
    Re(w^n b) converges only if b = 0.

    Cluster points are estimated from the tail half with merge radius 1e-6.
    Raises InconsistencyError if the window rule reports convergence for a
    clearly nonzero b (finite-horizon failure surfaced, not hidden).
    """
    w = complex(w)
    b = complex(b)
    if abs(abs(w) - 1) > 1e-12:
        raise InvalidInputError("w must be unimodular (within 1e-12)")
    if abs(w - 1) <= 1e-12 or abs(w + 1) <= 1e-12:
        raise InvalidInputError("w = +-1 is excluded")
    # w^n b formed in place: these 1e5-term probes set the suites' peak memory.
    seq = np.full(n_max + 1, w)
    seq[0] = 1.0
    np.cumprod(seq, out=seq)
    seq *= b
    seq = seq.real
    convergent, _ = window_limit(seq)
    tail = np.sort(seq[n_max // 2:])
    # A cluster starts wherever the sorted tail jumps by more than 1e-6.
    starts = np.flatnonzero(np.diff(tail, prepend=-np.inf) > 1e-6)
    clusters = np.add.reduceat(tail, starts)
    clusters /= np.diff(starts, append=tail.size)
    if convergent and abs(b) > 1e-6:
        raise InconsistencyError(
            "window rule reports convergence for nonzero b; w is too close "
            "to +-1 for this horizon"
        )
    return ScalarSeqVerdict(w=w, b=b, convergent=convergent, cluster_points=tuple(clusters.tolist()))
