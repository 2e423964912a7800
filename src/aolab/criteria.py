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
from itertools import combinations

import numpy as np

from .config import RunConfig
from .errors import IllConditionedSpectrumError, InconsistencyError, InvalidInputError
from .linalg import as_matrix, as_vector, operator_norm
from .structure import GAP, Decomposition, MinimalPoly, decompose, minimal_polynomial

# Raw orbit norms (``orbit_norms_batch``) are cut at the first step where
# some norm passes this; ``classify_orbits`` holds the rule for which columns
# count as overflowed (classified exponential without the ladder).
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

# Power-norm steps behind the empirical power-bound check and the growth bound.
POWER_STEPS = 1000

# ||A|| <= 1 (a contraction) and r(A) <= 1 both mean x <= 1 + UNIT_TOL
# (``at_most_one``).
UNIT_TOL = 1e-10

# A root is unimodular when its modulus lies within CIRCLE_TOL of 1
# (``unimodular``).
CIRCLE_TOL = 1e-8

# A product A v of a unit vector has norm at most dim * max|a_ij|; past this
# bound its squared entries could overflow, and when every entry of A is
# below its inverse they could underflow to zero.  Either way the orbit
# engine takes its column norms the slower safe way and the power routines
# scale A (``_squares_safe``).
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
    """Whether the squared entries of A v, for unit v, neither overflow nor
    all underflow to zero."""
    big = float(np.abs(A).max())
    return big == 0.0 or (big >= 1.0 / _SQUARE_SAFE and big * A.shape[0] <= _SQUARE_SAFE)


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


def classify_orbits(A: np.ndarray, H: np.ndarray, max_poly_degree: int, cfg: RunConfig):
    """Raw orbit norms of the columns of H over ``cfg.n_max`` steps
    (``orbit_norms_batch``) and each column's classification under the
    overflow rule and the window rule of ``cfg``."""
    norms, overflow = orbit_norms_batch(A, H, cfg.n_max)
    # The overflow rule: once the cut fired, the columns that ended within a
    # factor 10 of OVERFLOW_LIMIT.
    over = (norms[-1] > OVERFLOW_LIMIT / 10) & (overflow is not None)
    classes = [
        classify_sequence(
            norms[:, j], max_poly_degree, cfg.window, cfg.tol_conv, overflowed=bool(over[j])
        )
        for j in range(norms.shape[1])
    ]
    # A clamped cut row would distort the rate.  Clamping needs one step to
    # multiply a norm by more than 1e8, so it is rare: those columns are
    # propagated again up to the cut and fitted to their log-norms, shifted
    # so that the cut row reads 1.
    clamped = np.flatnonzero(norms[-1] >= _NORM_CLAMP)
    if clamped.size:
        logs = orbit_log_norms_batch(A, H[:, clamped], overflow)
        for k, j in enumerate(clamped):
            shifted = np.exp(logs[:, k] - logs[-1, k])
            classes[j] = classify_sequence(shifted, max_poly_degree, overflowed=True)
    return norms, classes


def _prescaled(A: np.ndarray):
    """(A 2^-e, e log 2) for a matrix whose squared entries could overflow
    or underflow, with 2^e a power of two taken from its largest entry;
    else (A, 0)."""
    if _squares_safe(A):
        return A, 0.0
    e = math.frexp(float(np.abs(A).max()))[1]
    return A * 2.0**-e, e * math.log(2.0)


def power_log_norms(A: np.ndarray, n_max: int) -> np.ndarray:
    """log ||A^n|| (operator norm) for n = 1..n_max, immune to overflow and
    underflow; -inf from the first power that is exactly zero.

    Each power is rescaled by its Frobenius norm as it is formed; the
    operator norms of the rescaled powers come from one batched SVD per
    chunk of at most about 2^14 / d^2 matrices (256 KiB of stack).  Chunks
    start at fixed steps, so a longer trajectory extends a shorter one bit
    for bit: ``power_log_norms(A, m)`` equals ``power_log_norms(A, n)[:m]``
    for m <= n.  A is propagated prescaled (``_prescaled``) and n e log 2
    is added back to log ||A^n||.
    """
    A, shift = _prescaled(as_matrix(A))
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


def power_log_norm(A: np.ndarray, n: int) -> float:
    """log ||A^n|| (operator norm) for one n >= 1 by binary powering: about
    log2 n squarings and one product per set bit of n, then one SVD.  A is
    prescaled like in ``power_log_norms``; -inf when a power is exactly
    zero."""
    A, shift = _prescaled(as_matrix(A))
    # square = A^(2^k) / e^square_log and result = A^m / e^result_log, for
    # the bits k of n read so far and m their part of n.  Both are rescaled
    # to Frobenius norm 1 before they are multiplied, so no product
    # overflows.
    square, square_log = A, shift
    result, result_log = None, 0.0
    while True:
        f = math.sqrt(np.vdot(square, square).real)
        if f == 0.0:
            return -np.inf
        square = square * (1.0 / f)
        square_log += math.log(f)
        if n & 1:
            result = square if result is None else result @ square
            f = math.sqrt(np.vdot(result, result).real)
            if f == 0.0:
                return -np.inf
            result = result * (1.0 / f)
            result_log += square_log + math.log(f)
        n >>= 1
        if not n:
            return result_log + math.log(np.linalg.svd(result, compute_uv=False)[0])
        square = square @ square
        square_log *= 2


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
    orbits_margin: float
    power_bounded: bool
    witness: np.ndarray | None
    consistent: bool
    probes: list = field(default_factory=list)  # (label, OrbitRecord)

    def to_obj(self):
        return {
            "is_algebraic": self.is_algebraic,
            "minpoly_degree": self.minpoly_degree,
            "spectrum_in_circle": self.spectrum_in_circle,
            "unitary": self.unitary,
            "normaloid": self.normaloid,
            "contraction": self.contraction,
            "orbits_convergent": self.orbits_convergent,
            "orbits_margin": self.orbits_margin,
            "power_bounded": self.power_bounded,
            "consistent": self.consistent,
            "witness": None
            if self.witness is None
            else [[float(z.real), float(z.imag)] for z in self.witness],
            "probes": [{"label": lab, **rec.to_obj()} for lab, rec in self.probes],
        }


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------

class Analysis:
    """One matrix and the structure every stage reads off it: ``norm``
    (||A||), ``contraction``, ``minpoly``, ``spectral_radius`` (the largest
    modulus among its roots), ``decomposition`` and the power-norm
    trajectory ``power_log_norms(A, POWER_STEPS)``, each computed once, on
    first use.  Structure that cannot be certified raises on first use.
    Every stage that reads them takes a matrix or an Analysis
    (``as_analysis``)."""

    def __init__(self, A):
        self.A = as_matrix(A)

    @cached_property
    def norm(self) -> float:
        return operator_norm(self.A)

    @cached_property
    def contraction(self) -> bool:
        return at_most_one(self.norm)

    @cached_property
    def minpoly(self) -> MinimalPoly:
        return minimal_polynomial(self.A)

    @cached_property
    def spectral_radius(self) -> float:
        return max(abs(z) for z, _ in self.minpoly.roots)

    @cached_property
    def decomposition(self) -> Decomposition:
        return decompose(self.A, self.minpoly)

    @cached_property
    def _power_logs(self) -> np.ndarray:
        return power_log_norms(self.A, POWER_STEPS)

    def power_logs(self, n: int) -> np.ndarray:
        """log ||A^k|| for k = 1..n: a prefix of the trajectory, bit for bit
        ``power_log_norms(A, n)``.  Raises InvalidInputError past
        POWER_STEPS."""
        if n > POWER_STEPS:
            raise InvalidInputError(
                f"a verdict needs {n} power-norm steps; the trajectory has {POWER_STEPS}"
            )
        return self._power_logs[:n]


def as_analysis(a) -> Analysis:
    """``a`` itself if it is an Analysis, else an Analysis of the matrix ``a``."""
    return a if isinstance(a, Analysis) else Analysis(a)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def at_most_one(x: float) -> bool:
    """x <= 1 up to UNIT_TOL: the test behind ||A|| <= 1 and r(A) <= 1."""
    return x <= 1 + UNIT_TOL


def unimodular(z):
    """Whether |z| lies within CIRCLE_TOL of 1 (elementwise for arrays)."""
    return np.abs(np.abs(z) - 1) <= CIRCLE_TOL


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
    disagreement outside ||A|| <= (1 + 1e-6) r, where r^n <= ||A^n|| <=
    ||A||^n leaves the power test no way to fail.
    """
    an = as_analysis(A)
    nrm, r, rel = an.norm, an.spectral_radius, 1e-6
    structural = abs(r - nrm) <= 1e-8 * max(1.0, nrm)
    if nrm > 0:
        # A bare matrix's Analysis is dropped on return: ten steps suffice.
        logs = an.power_logs(10) if an is A else power_log_norms(an.A, 10)
        empirical = all(
            abs(logs[n - 1] - n * np.log(nrm)) <= np.log1p(rel) * n + rel
            for n in range(2, 11)
        )
    else:
        empirical = True
    if structural != empirical and nrm > (1 + rel) * r:
        warnings.warn(
            f"normaloid tests disagree: r vs ||A|| says {structural}, "
            f"power norms say {empirical}",
            RuntimeWarning,
            stacklevel=2,
        )
    return structural


def power_bounded_roots(roots) -> bool:
    """The structural power-bound criterion on the roots (z, index) of a
    minimal polynomial: the largest |z| at most 1 and every unimodular root
    simple."""
    return at_most_one(max(abs(z) for z, _ in roots)) and all(
        i == 1 for z, i in roots if unimodular(z)
    )


def is_power_bounded(A) -> bool:
    """sup_n ||A^n|| finite, decided structurally: spectral radius at most 1
    and every root of modulus (near) 1 simple in the minimal polynomial.
    Cross-checked against the first POWER_STEPS power norms; disagreement
    raises InconsistencyError.
    """
    an = as_analysis(A)
    p = an.minpoly
    structural = power_bounded_roots(p.roots)
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

def block_components(h: np.ndarray, D: Decomposition) -> list:
    """(block, P_j h) for every block of D in which h has a component above
    COMPONENT_TOL * ||h||."""
    hn = float(np.linalg.norm(h))
    parts = [(b, b.projection @ h) for b in D.blocks]
    return [(b, ph) for b, ph in parts if np.linalg.norm(ph) > COMPONENT_TOL * hn]


def structural_exponent(A: np.ndarray, h: np.ndarray, D: Decomposition) -> int | None:
    """Largest k with (A - z_j I)^k P_j h != 0, maximized over the blocks of
    largest modulus among those where h has a component."""
    d = A.shape[0]
    hn = float(np.linalg.norm(h))
    comps = block_components(h, D)
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


def orbit_analyze(A, h, config: RunConfig | None = None) -> OrbitRecord:
    """Iterate h, A h, A^2 h, ... and classify the norm sequence; attach the
    structural exponent from the eigenspace decomposition.  The horizon,
    window and tolerance come from ``config``.
    """
    cfg = config or RunConfig()
    an = as_analysis(A)
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

def probe_set(d: int, rng: np.random.Generator, n_random: int = 20):
    """(label, vector) probes in C^d: the standard basis and ``n_random``
    random unit vectors."""
    probes = []
    for i in range(d):
        e = np.zeros(d, dtype=complex)
        e[i] = 1.0
        probes.append((f"e{i}", e))
    for t in range(n_random):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probes.append((f"rand{t}", v / np.linalg.norm(v)))
    return probes


def _basis_error(an: Analysis, b) -> float:
    """Error bound on the basis of a simple root's block, one of several:
    (d eps max(1, ||A||) + s_0) / s_1 from the singular values of A - zI,
    s_0 the largest counted as zero and s_1 the next."""
    d = an.A.shape[0]
    s = np.linalg.svd(an.A - b.z * np.eye(d), compute_uv=False)
    return (d * np.finfo(float).eps * max(1.0, an.norm) + s[d - b.dim]) / s[d - b.dim - 1]


def orbit_convergence(A, config: RunConfig | None = None):
    """(convergent, margin, probes, norms, classes): whether ||A^n h||
    converges for every h, decided from the decomposition, and the
    ``classify_orbits`` of the (label, vector) probes that cross-check it;
    a disagreement raises InconsistencyError.

    Orbits converge iff ``power_bounded_roots`` holds and the unimodular
    blocks are orthogonal.  Two blocks with cosine c (top singular value of
    basis_a^H basis_b) and basis errors r (``_basis_error``, summed) are
    orthogonal when c <= COMPONENT_TOL + r, oblique past COMPONENT_TOL +
    GAP r, and undecided in between (IllConditionedSpectrumError, if the
    roots are power-bounded).  The margin is the largest cosine among the
    pairs of the worst kind; an oblique pair's top singular vectors add the
    witness x_a + x_b, ``overlap{a}+{b}``, to ``probe_set``.
    """
    cfg = config or RunConfig()
    an = as_analysis(A)
    A = an.A
    blocks = {k: b for k, b in enumerate(an.decomposition.blocks) if unimodular(b.z)}
    err = {k: _basis_error(an, b) for k, b in blocks.items()} if len(blocks) > 1 else {}
    kind, margin, pair = 0, 0.0, None
    for a, b in combinations(blocks, 2):
        c = float(np.linalg.svd(blocks[a].basis.conj().T @ blocks[b].basis, compute_uv=False)[0])
        r = err[a] + err[b]
        k = int(c > COMPONENT_TOL + r) + int(c > COMPONENT_TOL + GAP * r)
        if (k, c) > (kind, margin):
            kind, margin, pair = k, c, (a, b, r)
    roots_ok = power_bounded_roots(an.minpoly.roots)
    if kind == 1 and roots_ok:
        a, b, r = pair
        raise IllConditionedSpectrumError(
            f"orbit convergence: the blocks of roots {blocks[a].z:.6g} and {blocks[b].z:.6g} have "
            f"cosine {margin:.3g}, within {GAP:g} times their basis error {r:.3g} above COMPONENT_TOL"
        )
    probes = probe_set(A.shape[0], np.random.default_rng(cfg.seed))
    if kind == 2:
        a, b, _ = pair
        u, _, vh = np.linalg.svd(blocks[a].basis.conj().T @ blocks[b].basis)
        probes.append((f"overlap{a}+{b}", blocks[a].basis @ u[:, 0] + blocks[b].basis @ vh[0].conj()))
    norms, classes = classify_orbits(A, np.column_stack([v for _, v in probes]), an.minpoly.degree, cfg)
    structural = roots_ok and kind == 0
    empirical = all(cls.kind == "convergent" for cls in classes)
    if structural != empirical:
        raise InconsistencyError(
            f"orbit convergence: structural={structural} empirical={empirical} (margin {margin:.3g})"
        )
    return structural, margin, probes, norms, classes


def theorem_check(A, config: RunConfig | None = None) -> CriteriaReport:
    """Evaluate the four equivalent unitarity conditions and cross-check
    their agreement under the hypotheses (algebraic, unimodular spectrum).

    ``A`` is a matrix or an Analysis; an inconsistent power-bound or
    orbit-convergence verdict raises InconsistencyError.
    """
    cfg = config or RunConfig()
    an = as_analysis(A)
    A = an.A
    mp = an.minpoly
    in_circle = all(unimodular(z) for z, _ in mp.roots)

    unitary = is_unitary(A)
    normaloid = is_normaloid(an)
    pb = is_power_bounded(an)

    convergent, margin, probes, norms, classes = orbit_convergence(an, cfg)
    records = [(label, OrbitRecord(v, norms[:, j], structural_exponent(A, v, an.decomposition), cls))
               for j, ((label, v), cls) in enumerate(zip(probes, classes))]
    witness = next((rec.h for _, rec in records if rec.classification.kind != "convergent"), None)

    conditions = [unitary, normaloid, an.contraction, convergent]
    consistent = (not in_circle) or all(c == conditions[0] for c in conditions)
    return CriteriaReport(
        is_algebraic=True,  # the minimal polynomial is certified above
        minpoly_degree=mp.degree,
        spectrum_in_circle=in_circle,
        unitary=unitary,
        normaloid=normaloid,
        contraction=an.contraction,
        orbits_convergent=convergent,
        orbits_margin=margin,
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
