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

# A batch of orbits is read up to the first step where some norm passes
# this (``_cut_at_overflow``); ``classify_orbits`` holds the rule for which
# columns count as overflowed (classified exponential without the ladder).
OVERFLOW_LIMIT = 1e300

# The cut step can multiply a norm past the float range; its raw norms are
# clamped here so that they stay finite.
_NORM_CLAMP = 1e308

# Tail log-slope above which a sequence counts as exponentially growing.
EXP_SLOPE_TOL = 1e-3

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

# A propagation stack holds at most this many complex entries (256 KiB): k
# steps of the orbit engine's d x P batch, or k powers in ``power_log_norms``.
STACK_ENTRIES = 2**14

# A block of k plain steps grows a prescaled unit vector or power by at most
# d^k (``_prescaled``); blocks keep d^k <= 2^BLOCK_GROWTH_LOG2, so that no
# square of an entry or a norm overflows.
BLOCK_GROWTH_LOG2 = 400

# A live norm below this, or exactly 0, ends a block before its step
# (``_block_norms``): its squares could underflow.
TINY_NORM = 2.0**-500

_LN2 = math.log(2.0)


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
    polynomial degree d whose normalization s_n / n^d stabilizes under the
    window rule, else convergent / bounded-nonconvergent.  Only the last
    ``window`` terms are normalized, since the window rule reads no others."""
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
    # The window rule reads only the last w terms, so only they are
    # normalized (n = 0 counts as 1).
    n = np.maximum(np.arange(s.size - w, s.size, dtype=float), 1.0)
    for d in range(1, max(1, max_poly_degree) + 1):
        ok, L = window_limit(tail / n**d, window, tol)
        if ok and L > tol and grows:
            return Classification(kind="polynomial-growth", degree=d, limit=L)
    return Classification(kind="bounded-nonconvergent")


# ---------------------------------------------------------------------------
# Orbit iteration
# ---------------------------------------------------------------------------

def _prescaled(A: np.ndarray):
    """(A 2^-e, e): A as a complex matrix scaled by an exact power of two,
    with e taken from its largest entry, so that every entry of A 2^-e is
    below 1 and ||A 2^-e v|| < d ||v||.  The zero matrix has e = 0."""
    e = math.frexp(float(np.abs(A).max()))[1]
    B = np.array(A, dtype=complex, order="C")
    np.ldexp(B.view(float), -e, out=B.view(float))
    return B, e


def _block_steps(d: int, width: int) -> int:
    """Steps per block for a stack of d x width steps: at most STACK_ENTRIES
    entries, and d^k <= 2^BLOCK_GROWTH_LOG2; at least 1."""
    k = STACK_ENTRIES // max(1, d * width)
    if d > 1:
        k = min(k, int(BLOCK_GROWTH_LOG2 / math.log2(d)))
    return max(1, k)


def _block_norms(W: np.ndarray, live, limit: int):
    """(norms, limit) for a block W of k plain steps, shape (k, m, P): the
    2-norms of its columns at the steps the block keeps, shape (kept, P),
    and the length of later blocks.

    The block ends before the first step after its first where a live
    column's norm is below TINY_NORM or exactly 0, so that the next block
    retakes that step from a rescaled vector.  If the first step already
    has such a column, the block is that one step and its norms are taken
    with ``hypot``, whose squares do not underflow.  When the offending norm
    is positive, later blocks are no longer than this one; an exact zero (a
    column or power that dies) shortens nothing.  Once blocks are one step
    long, every norm is taken with ``hypot``.
    """
    if limit == 1:
        return np.hypot.reduce(np.abs(W), axis=1), limit
    sq = np.einsum("kmp,kmp->kp", W.real, W.real)
    sq += np.einsum("kmp,kmp->kp", W.imag, W.imag)
    norms = np.sqrt(sq, out=sq)
    tiny = (norms < TINY_NORM) & live
    hit = np.flatnonzero(tiny.any(axis=1))
    if not hit.size:
        return norms, limit
    kept = int(hit[0])
    if kept == 0:
        kept = 1
        norms = np.hypot.reduce(np.abs(W[:1]), axis=1)
        offending = norms[0, tiny[0]]
    else:
        offending = norms[kept, tiny[kept]]
        norms = norms[:kept]
    if np.any(offending > 0):
        limit = min(limit, kept)
    return norms, limit


def _propagate(A: np.ndarray, start: np.ndarray, W: np.ndarray) -> None:
    """W[j] = A^(j+1) start for every step j of the block W: one product
    per step."""
    prev = start
    for step in W:
        np.matmul(A, prev, out=step)
        prev = step


def orbit_log_norms_batch(A: np.ndarray, H: np.ndarray, n_max: int) -> np.ndarray:
    """log ||A^n h|| for every column h of H, n = 0..n_max.

    The propagation engine behind every orbit in the package: all columns
    advance together by one ``A @ V`` per step (never by powering A), with A
    prescaled by a power of two (``_prescaled``).  The steps run in blocks
    of plain products in a preallocated stack (``_block_steps``); the
    column norms of a whole block come from one sum of squares, and the
    block ends with one exact power-of-two rescale per column, so the
    log-norms neither overflow nor underflow.  A block is cut before a
    live column's norm falls below TINY_NORM (``_block_norms``).  A column
    that reaches exactly zero reads -inf from then on.  The engine runs
    the full horizon, and a shorter horizon gives a bit-for-bit prefix of a
    longer one; its readers cut the rows at an overflow
    (``_cut_at_overflow``).
    """
    A, e = _prescaled(A)
    V = np.array(H, dtype=complex, order="C")
    s = np.linalg.norm(V, axis=0)
    if not np.all(s > 0):
        raise InvalidInputError("orbit vectors must be nonzero")
    d, P = V.shape
    out = np.empty((n_max + 1, P))
    np.log(s, out=out[0])
    limit = _block_steps(d, P)
    stack = np.empty((min(limit, n_max), d, P), dtype=complex)
    # Real and imaginary parts side by side, for the exact rescales.
    parts, V_parts = stack.view(float).reshape(-1, d, P, 2), V.view(float).reshape(d, P, 2)
    # A^n h = 2^(shed + n e) times the block's current vector V.
    shed = np.frexp(s)[1].astype(np.int64)
    np.ldexp(V_parts, -shed[:, np.newaxis], out=V_parts)
    ne = e * np.arange(n_max + 1)[:, np.newaxis]
    live = np.ones(P, dtype=bool)
    n = 0
    # log(0) = -inf is how a dead column is recorded.
    with np.errstate(divide="ignore"):
        while n < n_max:
            W = stack[: min(limit, n_max - n)]
            _propagate(A, V, W)
            norms, limit = _block_norms(W, live, limit)
            kept = norms.shape[0]
            rows = out[n + 1 : n + kept + 1]
            np.log(norms, out=rows)
            rows += (shed + ne[n + 1 : n + kept + 1]) * _LN2
            m = np.frexp(norms[-1])[1]
            np.ldexp(parts[kept - 1], -m[:, np.newaxis], out=V_parts)
            shed += m
            live = norms[-1] > 0
            n += kept
    return out


def _cut_at_overflow(logs: np.ndarray):
    """(rows, cut) for a batch of log-norms: the cut is the first row where
    some log-norm passes log OVERFLOW_LIMIT, rows the view of ``logs`` up
    to it; (logs, None) if no row does."""
    hit = np.flatnonzero(logs.max(axis=1) > np.log(OVERFLOW_LIMIT))
    return (logs[: hit[0] + 1], int(hit[0])) if hit.size else (logs, None)


def _clamped_exp(logs: np.ndarray) -> np.ndarray:
    """exp of log-norms that end at a cut, in place: the last row (or
    value) is clamped at log _NORM_CLAMP first, so that it stays finite."""
    np.minimum(logs[-1:], np.log(_NORM_CLAMP), out=logs[-1:])
    return np.exp(logs, out=logs)


def orbit_norms_batch(A: np.ndarray, H: np.ndarray, n_max: int):
    """||A^n h|| for every column h of H, n = 0..n_max: the exponential of
    ``orbit_log_norms_batch`` up to its overflow cut, taken in place.

    Returns (norms, overflow_step) where norms has shape (n_steps+1, P) and
    overflow_step is the step at which some column exceeded OVERFLOW_LIMIT
    (None if none did; the result ends there, with norms clamped at 1e308).
    """
    logs, overflow = _cut_at_overflow(orbit_log_norms_batch(A, H, n_max))
    return _clamped_exp(logs), overflow


def classify_orbits(logs: np.ndarray, max_poly_degree: int, cfg: RunConfig):
    """(rows, classes) for a batch of orbit log-norms: its rows up to the
    overflow cut (``_cut_at_overflow``) and each column's classification
    under the overflow rule and the window rule of ``cfg``.  ``logs`` is
    only read; each column is exponentiated on its own, so no norm copy of
    the whole batch is made."""
    logs, overflow = _cut_at_overflow(logs)
    classes = []
    for j in range(logs.shape[1]):
        norms = _clamped_exp(np.array(logs[:, j]))
        if norms[-1] >= _NORM_CLAMP:
            # A clamped cut row would distort the rate: the column is fitted
            # to its log-norms instead, shifted so that the cut row reads 1.
            cls = classify_sequence(np.exp(logs[:, j] - logs[-1, j]), max_poly_degree, overflowed=True)
        else:
            # The overflow rule: once the cut fired, the columns that ended
            # within a factor 10 of OVERFLOW_LIMIT.
            over = overflow is not None and norms[-1] > OVERFLOW_LIMIT / 10
            cls = classify_sequence(norms, max_poly_degree, cfg.window, cfg.tol_conv, overflowed=over)
        classes.append(cls)
    return logs, classes


def power_log_norms(A: np.ndarray, n_max: int) -> np.ndarray:
    """log ||A^n|| (operator norm) for n = 1..n_max, immune to overflow and
    underflow; -inf from the first power that is exactly zero.

    A is prescaled by 2^-e (``_prescaled``) and n e log 2 is added back.
    The powers are formed in blocks of plain products, like the orbits of
    ``orbit_log_norms_batch``: one product per step into a stack of at most
    STACK_ENTRIES entries, the Frobenius norms of a block from one
    reduction, and the same block cut (``_block_norms``).  Each kept power
    is rescaled by an exact power of two to Frobenius norm in [1/2, 1), and
    its spectral norm is the square root of the top eigenvalue of its Gram
    matrix W^H W (one batched ``eigvalsh`` per block).  Block boundaries do
    not depend on n_max, so ``power_log_norms(A, m)`` equals
    ``power_log_norms(A, n)[:m]`` bit for bit for m <= n.
    """
    A, e = _prescaled(as_matrix(A))
    d = A.shape[0]
    limit = _block_steps(d, d)
    stack = np.empty((min(limit, n_max), d, d), dtype=complex)
    out = np.empty(n_max)
    M = np.eye(d, dtype=complex)
    shed = 0  # A^n = 2^(shed + n e) M
    n = 0
    while n < n_max:
        W = stack[: min(limit, n_max - n)]
        _propagate(A, M, W)
        fro, limit = _block_norms(W.reshape(W.shape[0], d * d, 1), True, limit)
        fro = fro[:, 0]
        if fro[-1] == 0.0:
            out[n:] = -np.inf
            return out
        W = W[: fro.size]
        m = np.frexp(fro)[1]
        np.ldexp(W.view(float), -m[:, np.newaxis, np.newaxis], out=W.view(float))
        rows = out[n : n + fro.size]
        np.log(np.linalg.eigvalsh(np.matmul(W.conj().mT, W))[:, -1], out=rows)
        rows *= 0.5
        rows += (shed + m + e * np.arange(n + 1, n + fro.size + 1)) * _LN2
        np.copyto(M, W[-1])
        shed += int(m[-1])
        n += fro.size
    return out


def power_log_norm(A: np.ndarray, n: int) -> float:
    """log ||A^n|| (operator norm) for one n >= 1 by binary powering: about
    log2 n squarings and one product per set bit of n, then one SVD.  A is
    prescaled like in ``power_log_norms``; -inf when a power is exactly
    zero."""
    A, e = _prescaled(as_matrix(A))
    # square = A^(2^k) / e^square_log and result = A^m / e^result_log, for
    # the bits k of n read so far and m their part of n.  Both are rescaled
    # to Frobenius norm 1 before they are multiplied, so no product
    # overflows.
    square, square_log = A, e * _LN2
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
    log_norms: np.ndarray  # up to the overflow cut, a view into its batch
    structural_exponent: int | None
    classification: Classification

    @property
    def norms(self) -> np.ndarray:
        """||A^n h||, the cut value clamped like in ``orbit_norms_batch``."""
        return _clamped_exp(np.array(self.log_norms))

    def to_obj(self):
        norms = self.norms
        return {
            "structural_exponent": self.structural_exponent,
            "classification": self.classification.to_obj(),
            "norm_first": float(norms[0]),
            "norm_last": float(norms[-1]),
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
    modulus among its roots), ``decomposition``, ``block_overlap``, the
    power-norm trajectory ``power_log_norms(A, POWER_STEPS)`` and the probe
    ``orbits`` (per seed and horizon), each computed once, on first use.
    Structure that cannot be certified raises on first use.  Every stage
    that reads them takes a matrix or an Analysis (``as_analysis``)."""

    def __init__(self, A):
        self.A = as_matrix(A)
        self._orbits = {}

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

    @cached_property
    def block_overlap(self):
        """(kind, margin, pair): kind 0 if the unimodular blocks are
        pairwise orthogonal, 1 if some pair is undecided, 2 if some pair is
        oblique.  Two blocks with cosine c (top singular value of
        basis_a^H basis_b) and basis errors r (``_basis_error``, summed) are
        orthogonal when c <= COMPONENT_TOL + r, oblique past COMPONENT_TOL
        + GAP r.  The margin is the largest cosine among the pairs of the
        worst kind, pair = (a, b, r) its block indices and r."""
        blocks = {k: b for k, b in enumerate(self.decomposition.blocks) if unimodular(b.z)}
        err = {k: _basis_error(self, b) for k, b in blocks.items()} if len(blocks) > 1 else {}
        kind, margin, pair = 0, 0.0, None
        for a, b in combinations(blocks, 2):
            c = float(np.linalg.svd(blocks[a].basis.conj().T @ blocks[b].basis, compute_uv=False)[0])
            r = err[a] + err[b]
            k = int(c > COMPONENT_TOL + r) + int(c > COMPONENT_TOL + GAP * r)
            if (k, c) > (kind, margin):
                kind, margin, pair = k, c, (a, b, r)
        return kind, margin, pair

    def orbits(self, seed: int, n_max: int):
        """(probes, logs): ``probe_set`` for ``seed``, plus the witness
        x_a + x_b of an oblique pair's top singular vectors (label
        ``overlap{a}+{b}``), and their full-horizon
        ``orbit_log_norms_batch``, once per (seed, n_max).  Every reader
        shares the logs, so they are read-only."""
        key = (seed, n_max)
        if key not in self._orbits:
            probes = probe_set(self.A.shape[0], np.random.default_rng(seed))
            kind, _, pair = self.block_overlap
            if kind == 2:
                a, b, _ = pair
                Ba, Bb = (self.decomposition.blocks[k].basis for k in (a, b))
                u, _, vh = np.linalg.svd(Ba.conj().T @ Bb)
                probes.append((f"overlap{a}+{b}", Ba @ u[:, 0] + Bb @ vh[0].conj()))
            logs = orbit_log_norms_batch(self.A, np.column_stack([v for _, v in probes]), n_max)
            logs.flags.writeable = False
            self._orbits[key] = (tuple(probes), logs)
        return self._orbits[key]


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
    logs = orbit_log_norms_batch(A, h.reshape(-1, 1), cfg.n_max)
    logs, (cls,) = classify_orbits(logs, an.minpoly.degree, cfg)
    exponent = structural_exponent(A, h, an.decomposition)
    return OrbitRecord(h=h, log_norms=logs[:, 0], structural_exponent=exponent, classification=cls)


# ---------------------------------------------------------------------------
# Theorem check
# ---------------------------------------------------------------------------

def probe_set(d: int, rng: np.random.Generator):
    """(label, vector) probes in C^d: the standard basis and 20 random unit
    vectors."""
    probes = []
    for i in range(d):
        e = np.zeros(d, dtype=complex)
        e[i] = 1.0
        probes.append((f"e{i}", e))
    for t in range(20):
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
    """(convergent, margin, probes, logs, classes): whether ||A^n h||
    converges for every h, decided from the decomposition, and the
    ``classify_orbits`` of the probe orbits (``Analysis.orbits``) that
    cross-check it; a disagreement raises InconsistencyError.

    Orbits converge iff ``power_bounded_roots`` holds and the unimodular
    blocks are orthogonal (``Analysis.block_overlap``, which gives the
    margin); an undecided pair raises IllConditionedSpectrumError if the
    roots are power-bounded.
    """
    cfg = config or RunConfig()
    an = as_analysis(A)
    kind, margin, pair = an.block_overlap
    roots_ok = power_bounded_roots(an.minpoly.roots)
    if kind == 1 and roots_ok:
        a, b, r = pair
        za, zb = (an.decomposition.blocks[k].z for k in (a, b))
        raise IllConditionedSpectrumError(
            f"orbit convergence: the blocks of roots {za:.6g} and {zb:.6g} have "
            f"cosine {margin:.3g}, within {GAP:g} times their basis error {r:.3g} above COMPONENT_TOL"
        )
    probes, logs = an.orbits(cfg.seed, cfg.n_max)
    logs, classes = classify_orbits(logs, an.minpoly.degree, cfg)
    structural = roots_ok and kind == 0
    empirical = all(cls.kind == "convergent" for cls in classes)
    if structural != empirical:
        raise InconsistencyError(
            f"orbit convergence: structural={structural} empirical={empirical} (margin {margin:.3g})"
        )
    return structural, margin, probes, logs, classes


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

    convergent, margin, probes, logs, classes = orbit_convergence(an, cfg)
    records = [(label, OrbitRecord(v, logs[:, j], structural_exponent(A, v, an.decomposition), cls))
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
