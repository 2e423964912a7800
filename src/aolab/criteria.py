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
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import TOL_CONV, WINDOW, RunConfig
from .errors import IllConditionedSpectrumError, InconsistencyError, InvalidInputError
from .linalg import as_matrix, operator_norm
from .structure import GAP, Decomposition, MinimalPoly, decide, decompose, minimal_polynomial

# ``orbit_norms_batch`` cuts a whole batch at the first step where a norm
# passes this.
OVERFLOW_LIMIT = 1e300

# Log-norms and fitted rates can pass the float range; they are clamped here
# when they are exponentiated, so that they stay finite.
_NORM_CLAMP = 1e308

# Relative threshold deciding whether a block component of a vector is
# numerically nonzero.
COMPONENT_TOL = 1e-10

# Power steps behind the empirical power-bound check and the growth bound;
# probe batches run at least this far (``Analysis.orbits``).
POWER_STEPS = 1000

# ``is_normaloid`` tests ||A^n|| = ||A||^n for n = 2..FIRST_POWERS.
FIRST_POWERS = 10

# ||A|| <= 1 (a contraction) and r(A) <= 1 mean x <= 1 + UNIT_TOL, and r(A) < 1
# means r(A) < 1 - UNIT_TOL (``Analysis.contraction``, ``Analysis.grading``).
UNIT_TOL = 1e-10

# A root is unimodular when ||z| - 1| <= CIRCLE_TOL (``Analysis.grading``).
CIRCLE_TOL = 1e-8

# A root is 0 when |z| <= ZERO_RADIUS min(1, ||A||); none of 1e-13 dft4 or [[1, 1e150], [0, 1]] is.
# Planted nilpotents at d2-d64 (index 2-6, cond cap 1-1e4) read r <= 8.5e-13, r / ||A|| <= 5.4e-16.
ZERO_RADIUS = 1e-12

# A block stack (``_blocks``) holds at most this many complex entries, as 2^15
# reals (256 KiB): k steps of the orbit engine's d x P batch, or k powers.
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
# Window rule and orbit classification
# ---------------------------------------------------------------------------

def _window_rule(T: np.ndarray):
    """(ok, L) of the window rule for every row of T, shape (k, w): L the
    row mean and ok whether every entry lies within TOL_CONV max(1, |L|)
    of it.  T must be C-contiguous, so that each mean is the pairwise sum of
    one contiguous row, the same bits as the mean of that row alone."""
    L = T.mean(axis=1)
    return np.abs(T - L[:, np.newaxis]).max(axis=1) <= np.maximum(TOL_CONV, TOL_CONV * np.abs(L)), L


class Classification(NamedTuple):
    kind: str  # convergent | bounded-nonconvergent | polynomial-growth | exponential-growth
    limit: float | None = None
    degree: int | None = None
    rate: float | None = None

    def to_obj(self):
        return {k: v for k, v in self._asdict().items() if v is not None}


def _envelope_fit(logs: np.ndarray):
    """(log rho, k, band): the least-squares fit of the envelope
    log s_n = a + k log n + n log rho to every column of a log-norm batch,
    shape (rows, P), over the rows n >= n0 = min(max(10, rows // 4),
    rows - 3), at least the last three, and the band 1 / (rows - n0) within
    which log rho cannot be told from 0.

    Two matvecs of the centred n and the centred log n over the
    ``logs[n0:]`` view, and the 2 x 2 normal equations solved in closed
    form (nan for a column with -inf there).  With fewer than four rows
    (log n is -inf at row 0) every fit is 0 and the band is infinite."""
    rows, P = logs.shape
    if rows < 4:
        return np.zeros(P), np.zeros(P), np.inf
    n0 = min(max(10, rows // 4), rows - 3)
    n = np.arange(n0, rows, dtype=float)
    ln = np.log(n)
    n -= n.mean()
    ln -= ln.mean()
    snn, snl, sll = n @ n, n @ ln, ln @ ln
    det = snn * sll - snl * snl
    with np.errstate(invalid="ignore"):
        cn, cl = n @ logs[n0:], ln @ logs[n0:]
        return (sll * cn - snl * cl) / det, (snn * cl - snl * cn) / det, 1.0 / (rows - n0)


def classify_orbits(logs: np.ndarray):
    """The classification of every column of a batch of orbit log-norms,
    shape (rows, P), by the window rule of WINDOW and TOL_CONV.

    Per column, in this order: a column that died (its last WINDOW norms
    at most TOL_CONV, or its last -inf) converges to 0.  Every other
    column is read off its ``_envelope_fit`` over the whole horizon, in log
    space, however far past the float range its norms go; a trend must show
    along the orbit, as the maximum of the last window over the one at row
    rows // 4: above 2 for growth, below 1/2 for decay.  Exponential at
    rate rho, clamped at _NORM_CLAMP, if log rho lies above the band and
    the column grows; convergent to 0 if log rho lies below minus the band
    and the column falls; polynomial of degree round(k), limit the window
    mean of s_n / n^d, if log rho lies within the band, k >= 1/2 and the
    column grows; else convergent or bounded-nonconvergent by the window
    rule.  A window whose limit is not finite keeps no limit, so its column
    is not convergent.  ``logs`` is only read, and only the last window is
    exponentiated.
    """
    rows, P = logs.shape
    w = min(WINDOW, rows)
    with np.errstate(over="ignore"):
        tail = np.exp(logs[-w:])
    dead = np.all(tail <= TOL_CONV, axis=0) | (logs[-1] == -np.inf)
    classes = [Classification(kind="convergent", limit=0.0)] * P
    live = np.flatnonzero(~dead)
    # T: the live columns' last windows as C-contiguous rows (_window_rule).
    T, q = np.ascontiguousarray(tail[:, live].T), rows // 4
    # A bounded slowly-oscillating column can fit a log rho past the band.
    change = logs[-w:, live].max(axis=0) - logs[q : q + w, live].max(axis=0)
    log_rho, k, band = _envelope_fit(logs)
    poly = (np.abs(log_rho[live]) <= band) & (k[live] >= 0.5) & (change > _LN2)
    degree = np.where(poly, k[live] + 0.5, 0).astype(int)
    # A window past the float range reads inf, or nan where inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        ok, limit = _window_rule(T)
        n = np.maximum(np.arange(rows - w, rows, dtype=float), 1.0)
        if poly.any():  # most batches have none, and on none the expression costs about 12 us
            limit[poly] = (T[poly] / n ** degree[poly, np.newaxis]).mean(axis=1)
        rate = np.minimum(np.exp(log_rho), _NORM_CLAMP)
    finite = np.isfinite(limit)
    for i, j in enumerate(live):
        if log_rho[j] > band and change[i] > _LN2:
            classes[j] = Classification(kind="exponential-growth", rate=float(rate[j]))
        elif log_rho[j] < -band and change[i] < -_LN2:
            classes[j] = Classification(kind="convergent", limit=0.0)
        elif ok[i] and finite[i] or degree[i]:
            kind = "polynomial-growth" if degree[i] else "convergent"
            L = float(limit[i]) if finite[i] else None
            classes[j] = Classification(kind=kind, limit=L, degree=int(degree[i]) or None)
        else:
            classes[j] = Classification(kind="bounded-nonconvergent")
    return classes


# ---------------------------------------------------------------------------
# Orbit iteration
# ---------------------------------------------------------------------------

def _exponent(A: np.ndarray) -> int:
    """e with A's largest entry in [2^(e-1), 2^e), so that every entry of
    A 2^-e is below 1; 0 for the zero matrix."""
    return math.frexp(float(np.abs(A).max()))[1]


def _prescaled(A: np.ndarray):
    """(R, e): A 2^-e as its real form R = [[Re, -Im], [Im, Re]], 2d x 2d,
    which maps [Re v; Im v] to [Re; Im] of A 2^-e v, with e = ``_exponent``
    of A, so that ||A 2^-e v|| < d ||v||."""
    e = _exponent(A)
    d = len(A)
    R = np.empty((2 * d, 2 * d))
    R[:d, :d] = R[d:, d:] = np.real(A)
    R[d:, :d] = np.imag(A)
    R[:d, d:] = -R[d:, :d]
    return np.ldexp(R, -e, out=R), e


def _block_steps(d: int, width: int) -> int:
    """Steps per block for a stack of d x width steps: at most STACK_ENTRIES
    entries, and d^k <= 2^BLOCK_GROWTH_LOG2; at least 1."""
    k = STACK_ENTRIES // max(1, d * width)
    if d > 1:
        k = min(k, int(BLOCK_GROWTH_LOG2 / math.log2(d)))
    return max(1, k)


def _block_norms(W: np.ndarray, live, limit: int):
    """(norms, limit) for a real block W of k steps in norm groups, shape
    (k, m, g), m >= 2: the 2-norms of its groups at the steps the block
    keeps, shape (kept, g), and the length of later blocks.

    The block ends before the first step after its first where a live
    group's norm is below TINY_NORM or exactly 0, so that the next block
    retakes that step from a rescaled start.  If the first step already
    has such a group, the block is that one step and its norms are taken
    with ``hypot``, whose squares do not underflow.  A positive offending
    norm caps later blocks at this one's length; an exact zero (a group
    that dies) does not.  Once blocks are one step long, every norm is
    taken with ``hypot``.
    """
    if limit == 1:
        return np.hypot.reduce(W, axis=1), limit
    sq = np.einsum("kmp,kmp->kp", W, W)
    norms = np.sqrt(sq, out=sq)
    if norms.min() >= TINY_NORM:
        return norms, limit
    tiny = (norms < TINY_NORM) & live
    hit = np.flatnonzero(tiny.any(axis=1))
    if not hit.size:
        return norms, limit
    kept = int(hit[0])
    if kept == 0:
        kept = 1
        norms = np.hypot.reduce(W[:1], axis=1)
        offending = norms[0, tiny[0]]
    else:
        offending = norms[kept, tiny[kept]]
        norms = norms[:kept]
    if np.any(offending > 0):
        limit = min(limit, kept)
    return norms, limit


def _stepper(R: np.ndarray, stack: np.ndarray):
    """propagate(start, k), which fills stack[j] = R^(j+1) start for j < k:
    one dgemm per step into step views made once, by ``R.dot`` (``np.dot``
    without its dispatch wrapper), R a real form and at least 2 x 2."""
    product = R.dot
    steps = list(stack)

    def propagate(start: np.ndarray, k: int) -> None:
        for step in steps[:k]:
            start = product(start, out=step)

    return propagate


def _blocks(A: np.ndarray, V: np.ndarray, shed: np.ndarray, n_max: int):
    """The one block loop of the orbit engine and the power loop: yields
    (n, W, norms, exps) per block of k = len(norms) steps, with
    A^(n+1+i) V0 = 2^exps[i] W[i] for i < k and the start V0 = 2^shed V,
    each complex d x P matrix held as its real form [Re; Im], (2d, P).

    A is prescaled by 2^-e and stepped as its real form (``_prescaled``);
    V advances by one real product per step into a preallocated stack
    (``_block_steps``, ``_stepper``).  shed holds one binary exponent, with
    its own 2-norm, per column of V (the engine) or a single one for the
    whole of V (the power loop).  A block is cut before a live group's norm
    falls below TINY_NORM (``_block_norms``).  Before the block is yielded,
    V is carried from its last step by one ``ldexp``, which broadcasts 2^-m
    per group (m the exponent of the group's last norm) and is exact, so W
    may be overwritten; A^n V0 = 2^shed V at each block's start n.  Blocks
    do not depend on n_max: a shorter horizon yields a prefix of a longer
    one."""
    R, e = _prescaled(A)
    g = shed.size
    limit = _block_steps(len(A), V.shape[1])
    stack = np.empty((min(limit, n_max), *V.shape))
    groups = stack.reshape(len(stack), V.size // g, g)
    ek = e * np.arange(1, len(stack) + 1)[:, np.newaxis]  # e j at a block's step j; shed holds e n
    live = np.ones(g, dtype=bool)
    propagate = _stepper(R, stack)
    n = 0
    while n < n_max:
        k = min(limit, n_max - n)
        propagate(V, k)
        norms, limit = _block_norms(groups[:k], live, limit)
        kept = norms.shape[0]
        exps = shed + ek[:kept]
        m = np.frexp(norms[-1])[1]
        np.ldexp(stack[kept - 1], -m, out=V)
        shed += m + e * kept
        live = norms[-1] > 0
        yield n, stack, norms, exps
        n += kept


def orbit_log_norms_batch(A: np.ndarray, H: np.ndarray, n_max: int) -> np.ndarray:
    """log ||A^n h|| for every column h of H, n = 0..n_max: the orbit engine,
    all columns advancing together through ``_blocks``.  A column that
    reaches exactly zero reads -inf from then on.  ``classify_orbits`` reads
    every row, in log space; ``orbit_norms_batch`` cuts the whole batch at
    an overflow.
    """
    s = _column_norms(H)
    if not np.all(s > 0):
        raise InvalidInputError("orbit vectors must be nonzero")
    out = np.empty((n_max + 1, s.size))
    np.log(s, out=out[0])
    shed = np.frexp(s)[1].astype(np.int64)  # each column starts at unit scale
    V = np.ldexp(np.concatenate((np.real(H), np.imag(H))), -shed, order="C", dtype=float)
    with np.errstate(divide="ignore"):  # log(0) = -inf records a dead column
        for n, _, norms, exps in _blocks(A, V, shed, n_max):
            rows = out[n + 1 : n + norms.shape[0] + 1]
            np.log(norms, out=rows)
            rows += exps * _LN2
    return out


def _clamped_exp(logs: np.ndarray) -> np.ndarray:
    """exp of log-norms, in place, each clamped at log _NORM_CLAMP first,
    so that it stays finite."""
    np.minimum(logs, np.log(_NORM_CLAMP), out=logs)
    return np.exp(logs, out=logs)


def orbit_norms_batch(A: np.ndarray, H: np.ndarray, n_max: int):
    """||A^n h|| for every column h of H, n = 0..n_max: the exponential of
    ``orbit_log_norms_batch`` up to its overflow cut, taken in place.

    Returns (norms, overflow_step) where norms has shape (n_steps+1, P) and
    overflow_step is the step at which some column exceeded OVERFLOW_LIMIT
    (None if none did; the result ends there, with norms clamped at 1e308).
    """
    logs = orbit_log_norms_batch(A, H, n_max)
    hit = np.flatnonzero(logs.max(axis=1) > np.log(OVERFLOW_LIMIT))
    return (_clamped_exp(logs[: hit[0] + 1]), int(hit[0])) if hit.size else (_clamped_exp(logs), None)


def power_log_norms(A: np.ndarray, n_max: int, solve=None) -> np.ndarray:
    """log ||A^n|| (operator norm) for n = 1..n_max, immune to overflow and
    underflow; -inf from the first power that is exactly zero.  With
    ``solve``, a boolean mask of length n_max, only the powers it holds are
    solved, each bit for bit as in any longer trajectory, and the others
    read nan.

    The powers W are the blocks of ``_blocks`` from I, with one exponent
    for the whole matrix, each as X = [Re W; Im W].  Each solved one is
    scaled by an exact power of two to Frobenius norm in [1/2, 1); its
    spectral norm is half the log of the top eigenvalue (one batched
    ``eigvalsh`` per block) of W^H W = X^T X + i (T - T^T), T = (Re W)^T Im W.
    """
    A = as_matrix(A)
    d = A.shape[0]
    out = np.full(n_max, -np.inf)
    for n, X, fro, exps in _blocks(A, np.eye(2 * d, d), np.zeros(1, dtype=np.int64), n_max):
        if fro[-1, 0] == 0.0:
            break
        sel = slice(fro.shape[0]) if solve is None else np.flatnonzero(solve[n : n + fro.shape[0]])
        m = np.frexp(fro[sel, 0])[1]
        if not m.size:
            continue
        X = X[sel]
        np.ldexp(X, -m[:, np.newaxis, np.newaxis], out=X)
        G = np.empty((m.size, d, d), dtype=complex)
        G.real = np.matmul(X.mT, X)
        T = np.matmul(X[:, :d].mT, X[:, d:])
        np.subtract(T, T.mT, out=G.imag)
        out[n:][sel] = 0.5 * np.log(np.linalg.eigvalsh(G)[:, -1]) + (exps[sel, 0] + m) * _LN2
    if solve is not None:
        out[~solve] = np.nan
    return out


# ---------------------------------------------------------------------------
# Domain records
# ---------------------------------------------------------------------------

class OrbitRecord(NamedTuple):
    h: np.ndarray
    log_norms: np.ndarray  # the whole column, a view into its batch
    structural_exponent: int | None
    classification: Classification

    def to_obj(self):
        first, last = _clamped_exp(self.log_norms[[0, -1]])
        return {
            "structural_exponent": self.structural_exponent,
            "classification": self.classification.to_obj(),
            "norm_first": float(first),
            "norm_last": float(last),
        }


class ScalarSeqVerdict(NamedTuple):
    """The window rule's verdict on Re(w^n b); no term of the sequence is kept."""

    w: complex
    b: complex
    convergent: bool


class Grading(NamedTuple):
    """The roots of a minimal polynomial against the unit circle, in block
    order: one ``decide`` over their moduli per grade (``Analysis.grading``)."""

    circle: np.ndarray  # ||z| - 1| <= CIRCLE_TOL: unimodular
    past: np.ndarray  # |z| > 1 + UNIT_TOL
    below: np.ndarray  # |z| < 1 - UNIT_TOL, strictly
    zero: np.ndarray  # |z| <= ZERO_RADIUS min(1, ||A||)


class CriteriaReport(NamedTuple):
    is_algebraic: bool
    minpoly_degree: int
    spectrum_in_circle: bool
    unitary: bool
    normaloid: bool
    contraction: bool
    orbits_convergent: bool
    orbits_margin: float
    power_bounded: bool
    consistent: bool
    witness: np.ndarray | None
    probes: list  # (label, OrbitRecord)

    def to_obj(self):
        return {
            **self._asdict(),
            "witness": None if self.witness is None else [[float(z.real), float(z.imag)] for z in self.witness],
            "probes": [{"label": lab, **rec.to_obj()} for lab, rec in self.probes],
        }


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------

class Analysis:
    """One matrix, its run settings ``config`` and, each computed once on
    first use, what every stage reads off them: ``norm`` (||A||),
    ``contraction``, ``minpoly``, ``spectral_radius`` (the largest root
    modulus), ``grading``, ``power_bounded``, ``decomposition``,
    ``block_overlap``, the probe ``orbits`` and the Frobenius norms of the
    powers times the random probes off them (``frobenius_logs``); and the
    spectral norms of the powers (``power_logs``), each solved on first
    request and kept.  Uncertifiable structure raises on first use.
    Every stage takes a matrix or an Analysis (``as_analysis``)."""

    def __init__(self, A, config: RunConfig | None = None):
        self.A = as_matrix(A)
        self.config = config or RunConfig()
        self._power_logs = np.empty(0)

    @cached_property
    def norm(self) -> float:
        return operator_norm(self.A)

    @cached_property
    def contraction(self) -> bool:
        return bool(decide(self.norm, 1 + UNIT_TOL) == 0)

    @cached_property
    def minpoly(self) -> MinimalPoly:
        return minimal_polynomial(self.A, self.norm)

    @cached_property
    def spectral_radius(self) -> float:
        return max(abs(z) for z, _ in self.minpoly.roots)

    @cached_property
    def grading(self) -> Grading:
        """Every verdict that places a root against the unit circle reads this."""
        m = np.array([abs(z) for z, _ in self.minpoly.roots])
        return Grading(
            circle=decide(np.abs(m - 1), CIRCLE_TOL) == 0,
            past=decide(m, 1 + UNIT_TOL) != 0,
            below=decide(1 - UNIT_TOL, m) == 2,  # fails exactly when m < 1 - UNIT_TOL
            zero=decide(m, ZERO_RADIUS * min(1.0, self.norm)) == 0,
        )

    @cached_property
    def power_bounded(self) -> bool:
        """The structural criterion: no root past 1, every unimodular root simple."""
        g = self.grading
        return not g.past.any() and all(i == 1 for (_, i), c in zip(self.minpoly.roots, g.circle) if c)

    @cached_property
    def decomposition(self) -> Decomposition:
        return decompose(self.A, self.minpoly)

    def power_logs(self, n: int = POWER_STEPS, solve=None) -> np.ndarray:
        """log ||A^k|| for k = 1..n (``power_log_norms``) where the mask
        ``solve`` (length n; every k by default) holds, and nan at a k
        neither asked for now nor solved before.  Each power is solved
        once and kept, bit for bit as in a trajectory of any length; one
        request steps once, to its last unsolved power.  Read-only."""
        logs = self._power_logs
        if logs.size < n:
            logs = self._power_logs = np.concatenate((logs, np.full(n - logs.size, np.nan)))
        want = np.isnan(logs[:n])
        if solve is not None:
            want &= solve
        ask = np.flatnonzero(want)
        if ask.size:
            top = int(ask[-1]) + 1
            logs[ask] = power_log_norms(self.A, top, want[:top])[ask]
        view = logs[:n]
        view.flags.writeable = False
        return view

    def frobenius_rows(self, n) -> np.ndarray:
        """log ||A^n R||_F at the batch rows n (indices or a slice), R the
        RANDOM_PROBES random probes, the first columns of the probe batch
        (``frobenius_log_norms``)."""
        return frobenius_log_norms(self.orbits[1][n], RANDOM_PROBES)

    @cached_property
    def frobenius_logs(self) -> np.ndarray:
        """``frobenius_rows`` for n = 1..POWER_STEPS.  Read-only."""
        logs = self.frobenius_rows(slice(1, POWER_STEPS + 1))
        logs.flags.writeable = False
        return logs

    @cached_property
    def block_overlap(self):
        """(kind, margin, pair): kind 0 if the unimodular blocks are
        pairwise orthogonal, 1 if some pair is undecided, 2 if some pair is
        oblique.  A pair's kind is ``decide(c, COMPONENT_TOL, r)`` of its
        cosine c and the sum r of its basis errors (``_basis_error``).  The
        cosines come from one Gram product G = B^H B of the stacked
        unimodular bases: c is |G_ab| for two 1-dim blocks and the top
        singular value of their sub-block of G otherwise (the largest
        principal-angle cosine of basis_a^H basis_b).  The margin is the
        largest cosine among the pairs of the worst kind, pair = (a, b, r)
        its block indices and r, the first such pair in the order of
        ``itertools.combinations``; (0, 0.0, None) when every cosine is 0."""
        uni = np.flatnonzero(self.grading.circle).tolist()
        if len(uni) < 2:
            return 0, 0.0, None
        bases = [self.decomposition.blocks[k].basis for k in uni]
        B = np.hstack(bases)
        G = B.conj().T @ B
        dims = np.array([b.shape[1] for b in bases])
        ends = np.cumsum(dims)
        starts = ends - dims
        ia, ib = np.triu_indices(len(uni), 1)  # the pairs in combinations order
        c = np.abs(G[starts[ia], starts[ib]])
        for i in np.flatnonzero((dims[ia] > 1) | (dims[ib] > 1)):
            sub = G[starts[ia[i]] : ends[ia[i]], starts[ib[i]] : ends[ib[i]]]
            c[i] = np.linalg.svd(sub, compute_uv=False)[0]
        err = np.array([_basis_error(self, k) for k in uni])
        r = err[ia] + err[ib]
        kinds = decide(c, COMPONENT_TOL, r)
        worst = np.flatnonzero(kinds == kinds.max())
        i = worst[np.argmax(c[worst])]
        if (kinds[i], c[i]) <= (0, 0.0):
            return 0, 0.0, None
        return int(kinds[i]), float(c[i]), (uni[ia[i]], uni[ib[i]], r[i])

    @cached_property
    def orbits(self):
        """(probes, logs): ``probe_set`` for the config's seed, plus the
        witness x_a + x_b of an oblique pair's top singular vectors (label
        ``overlap{a}+{b}``), and the read-only rows n = 0..max(n_max,
        POWER_STEPS) of their ``orbit_log_norms_batch``.  Orbit readers take
        rows 0..n_max, bit for bit an n_max-step batch (the engine's prefix
        property); the power-bound check reads the random columns."""
        probes = probe_set(self.A.shape[0], np.random.default_rng(self.config.seed))
        kind, _, pair = self.block_overlap
        if kind == 2:
            a, b, _ = pair
            Ba, Bb = (self.decomposition.blocks[k].basis for k in (a, b))
            u, _, vh = np.linalg.svd(Ba.conj().T @ Bb)
            probes.append((f"overlap{a}+{b}", Ba @ u[:, 0] + Bb @ vh[0].conj()))
        H = np.column_stack([v for _, v in probes])
        logs = orbit_log_norms_batch(self.A, H, max(self.config.n_max, POWER_STEPS))
        logs.flags.writeable = False
        return tuple(probes), logs


def as_analysis(a, config: RunConfig | None = None) -> Analysis:
    """``a`` itself if it is an Analysis, which holds its own config (a
    second one raises InvalidInputError), else ``Analysis(a, config)``."""
    if isinstance(a, Analysis) and config is not None:
        raise InvalidInputError("an Analysis holds its own config; pass the config to Analysis")
    return a if isinstance(a, Analysis) else Analysis(a, config)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

# Times d; Haar and finite-spectrum unitaries at d4-d64 read ||A^H A - I||_F <= 6e-16 d.
UNITARY_TOL = 1e-10
# Times ||A||; unitary and normaloid generators at d4-d64 read |r - ||A||| <= 1e-14.
NORMALOID_TOL = 1e-8
# Relative, the window rule's TOL_CONV; on the same matrices log ||A^n|| is n log ||A|| to 9e-16 n.
POWER_TEST_TOL = 1e-6


def is_unitary(A) -> bool:
    A = as_matrix(A)
    d = A.shape[0]
    # A unitary matrix has no entry of modulus above 1; larger entries would
    # only overflow the products below.
    if np.abs(A).max() > 2:
        return False
    # For square A, ||A^H A - I||_F = ||A A^H - I||_F in exact arithmetic.
    defect = np.linalg.norm(A.conj().T @ A - np.eye(d))
    return bool(decide(defect, UNITARY_TOL * d) == 0)


def is_normaloid(A) -> bool:
    """Spectral radius equals operator norm, within NORMALOID_TOL ||A||.

    Cross-checks ||A^n|| = ||A||^n (relative POWER_TEST_TOL, n =
    2..FIRST_POWERS) and warns on disagreement.  Within ||A|| <= (1 +
    POWER_TEST_TOL) r, r^n <= ||A^n|| <= ||A||^n leaves the power test no
    way to warn, and no power is solved.  Past it, powers 1 and 2 are
    solved in one request (``growth_bound`` reads power 1), and the rest
    only if n = 2 passes.
    """
    an = as_analysis(A)
    nrm, r = an.norm, an.spectral_radius
    structural = bool(decide(abs(r - nrm), NORMALOID_TOL * nrm) == 0)
    if decide(nrm, (1 + POWER_TEST_TOL) * r) != 2:
        return structural
    for last in (2, FIRST_POWERS):
        n = np.arange(2, last + 1)
        excess = np.abs(an.power_logs(last)[1:] - n * np.log(nrm))
        empirical = bool(np.all(decide(excess, np.log1p(POWER_TEST_TOL) * n + POWER_TEST_TOL) == 0))
        if not empirical:
            break
    if structural != empirical:
        warnings.warn(
            f"normaloid tests disagree: r vs ||A|| says {structural}, "
            f"power norms say {empirical}",
            RuntimeWarning,
            stacklevel=2,
        )
    return structural


def frobenius_log_norms(logs: np.ndarray, p: int) -> np.ndarray:
    """log ||A^n R||_F for every row n of a batch's log-norms, R its first p
    columns: ||A^n R||_F^2 = sum_j ||A^n r_j||^2, one exp, sum and log over
    the columns, shifted by each row's largest, on the one temporary
    ``2 logs[:, :p]``.  A row whose p orbits all died reads -inf.

    With R the standard basis this is ||A^n||_F.  With R the random unit
    probes of ``probe_set`` it is not an upper bound on ||A^n||, but it is
    bounded iff the powers are, and tends to 0 iff they do, for every R off
    a proper algebraic subset, which random probes miss."""
    x = 2.0 * logs[:, :p]
    top = x.max(axis=1)
    top[top == -np.inf] = 0.0
    x -= top[:, np.newaxis]
    with np.errstate(divide="ignore"):  # log 0 of a dead row
        return 0.5 * (top + np.log(np.exp(x, out=x).sum(axis=1)))


def is_power_bounded(A, config: RunConfig | None = None) -> bool:
    """sup_n ||A^n|| finite, decided structurally (``Analysis.power_bounded``):
    no root past 1 and every unimodular root simple.
    Cross-checked against ``classify_orbits`` of log ||A^n R||_F for
    n = 1..POWER_STEPS, whatever the horizon n_max, R the random columns
    of the probe batch (``Analysis.frobenius_logs``): the powers are
    bounded iff A^n R is, for every R off a proper algebraic subset.
    Disagreement raises InconsistencyError.
    """
    an = as_analysis(A, config)
    # Powers that vanished exactly end in -inf: a dead column to classify_orbits.
    (cls,) = classify_orbits(an.frobenius_logs[:, np.newaxis])
    empirical = cls.kind in ("convergent", "bounded-nonconvergent")
    if an.power_bounded != empirical:
        raise InconsistencyError(f"power boundedness: structural={an.power_bounded} empirical={empirical}")
    return an.power_bounded


# ---------------------------------------------------------------------------
# Orbit analysis
# ---------------------------------------------------------------------------

def _scaled_columns(V: np.ndarray):
    """(V 2^-m, m): each column of V times the power of two that brings its
    largest entry into [1/2, 1) (m = 0 for a zero column)."""
    m = np.frexp(np.abs(V).max(axis=0))[1]
    W = np.array(V, dtype=complex, order="C")
    np.ldexp(W.view(float), -np.repeat(m, 2), out=W.view(float))
    return W, m


def _unit_columns(V: np.ndarray, t: np.ndarray):
    """(V 2^-m, t 2^-m): ``_scaled_columns``, with the thresholds t."""
    W, m = _scaled_columns(V)
    return W, np.ldexp(t, -m)


def _column_norms(V: np.ndarray) -> np.ndarray:
    """2-norms of the columns of V at unit scale (``_scaled_columns``), scaled
    back: the plain norm's bits where no square over- or underflows."""
    W, m = _scaled_columns(V)
    return np.ldexp(np.linalg.norm(W, axis=0), m)


# Same modulus as mu: over 1e5 steps |z|^n of moduli this close differ by at most e^-1e-3.
SAME_MODULUS_TOL = 1e-8


def structural_envelope(A: np.ndarray, H: np.ndarray, D: Decomposition):
    """(mu, e) of the envelope n^e mu^n of ||A^n h|| for each column h of H,
    from one product B^{-1} H, block j's rows R_j H rescaled once
    (``_unit_columns``): mu the largest |z_j| where ||P_j h|| = ||R_j h|| >
    COMPONENT_TOL ||h|| (else 0), e the largest k with (A - z_j I)^k P_j h
    != 0 over those of modulus mu (else None), P_j h = B_j (R_j h).  The
    chain steps (A - z_j I) 2^-s, s = ``_exponent`` of A, so that the test
    against COMPONENT_TOL ||h|| is the same for A and 2^k A."""
    thr, s = COMPONENT_TOL * _column_norms(H), _exponent(A)
    moduli = np.abs([[b.z] for b in D.blocks])
    X = np.vstack([b.rows for b in D.blocks]) @ H
    present, starts = [], []
    for b, end in zip(D.blocks, accumulate(D.block_dims())):
        V, t = _unit_columns(X[end - b.dim : end], thr)
        present.append(decide(np.linalg.norm(V, axis=0), t) == 2)
        starts.append((V, t) if b.index > 1 else None)  # its chain starts from B_j times the chosen columns
    mu = np.where(present, moduli, 0.0).max(axis=0)
    best = np.where(np.any(present, axis=0), 0, -1)
    chosen = present & (decide(np.abs(moduli - mu), SAME_MODULUS_TOL) == 0)
    for b, start, sel in zip(D.blocks, starts, chosen):
        if start is None or not sel.any():
            continue
        B = np.ldexp((A - b.z * np.eye(A.shape[0])).view(float), -s).view(complex)
        V, t = b.basis @ start[0][:, sel], start[1][sel]
        k = np.zeros(V.shape[1], dtype=int)
        for j in range(1, b.index):
            V, t = _unit_columns(B @ V, t)
            k[decide(np.linalg.norm(V, axis=0), t) == 2] = j
        best[sel] = np.maximum(best[sel], k)
    return mu, [None if k < 0 else int(k) for k in best]


# ---------------------------------------------------------------------------
# Theorem check
# ---------------------------------------------------------------------------

RANDOM_PROBES = 4  # random unit vectors in every probe batch


def probe_set(d: int, rng: np.random.Generator):
    """(label, vector) probes in C^d: RANDOM_PROBES random unit vectors, rand0, ....

    The criteria quantify over every h, but a cross-check needs only a
    generic one: the h whose orbits converge, or stay bounded, form a
    real-algebraic subset of C^d: all of it, or a proper part of measure
    zero, which a random probe misses with probability 1."""
    probes = []
    for t in range(RANDOM_PROBES):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        probes.append((f"rand{t}", v / np.linalg.norm(v)))
    return probes


def _basis_error(an: Analysis, k: int) -> float:
    """Error bound on the basis of block k, that of a root z among several:
    (d eps ||A|| + s_0) / s_1 from the bounds on the singular values of
    A - zI that ``minimal_polynomial`` kept (``MinimalPoly.spectra``): s_0
    at least the largest counted as zero (a certified root's residual
    ||(A - zI) Q||_F) and s_1 at most the next.  It takes no SVD."""
    s_0, s_1 = an.minpoly.spectra[k]
    return (an.A.shape[0] * np.finfo(float).eps * an.norm + s_0) / s_1


def orbit_convergence(A, config: RunConfig | None = None):
    """(convergent, margin, probes, logs, classes): whether ||A^n h||
    converges for every h, decided from the decomposition, and the probe
    orbits (``Analysis.orbits``) with their ``classify_orbits``, which
    cross-check it; a disagreement raises InconsistencyError.

    Orbits converge iff ``Analysis.power_bounded`` holds and the unimodular
    blocks are orthogonal (``Analysis.block_overlap``, which gives the
    margin); an undecided pair raises IllConditionedSpectrumError if the
    roots are power-bounded.
    """
    an = as_analysis(A, config)
    cfg = an.config
    kind, margin, pair = an.block_overlap
    if kind == 1 and an.power_bounded:
        a, b, r = pair
        za, zb = (an.decomposition.blocks[k].z for k in (a, b))
        raise IllConditionedSpectrumError(
            f"orbit convergence: the blocks of roots {za:.6g} and {zb:.6g} have "
            f"cosine {margin:.3g}, within {GAP:g} times their basis error {r:.3g} above COMPONENT_TOL"
        )
    probes, logs = an.orbits
    logs = logs[: cfg.n_max + 1]
    classes = classify_orbits(logs)
    structural = an.power_bounded and kind == 0
    empirical = all(cls.kind == "convergent" for cls in classes)
    if structural != empirical:
        raise InconsistencyError(
            f"orbit convergence: structural={structural} empirical={empirical} (margin {margin:.3g})"
        )
    return structural, margin, probes, logs, classes


def theorem_check(A, config: RunConfig | None = None) -> CriteriaReport:
    """Evaluate the four equivalent unitarity conditions and cross-check
    their agreement under the hypotheses (algebraic, unimodular spectrum).

    ``A`` is a matrix, analysed under ``config``, or an Analysis; an
    inconsistent power-bound or orbit-convergence verdict raises
    InconsistencyError.
    """
    an = as_analysis(A, config)
    A = an.A
    in_circle = bool(an.grading.circle.all())

    unitary = is_unitary(A)
    normaloid = is_normaloid(an)
    pb = is_power_bounded(an)

    convergent, margin, probes, logs, classes = orbit_convergence(an)
    _, exponents = structural_envelope(A, np.column_stack([v for _, v in probes]), an.decomposition)
    records = [(label, OrbitRecord(v, col, k, cls))
               for (label, v), col, k, cls in zip(probes, logs.T, exponents, classes)]
    witness = next((rec.h for _, rec in records if rec.classification.kind != "convergent"), None)

    conditions = [unitary, normaloid, an.contraction, convergent]
    consistent = (not in_circle) or all(c == conditions[0] for c in conditions)
    return CriteriaReport(
        is_algebraic=True,  # the minimal polynomial is certified above
        minpoly_degree=an.minpoly.degree,
        spectrum_in_circle=in_circle,
        unitary=unitary,
        normaloid=normaloid,
        contraction=an.contraction,
        orbits_convergent=convergent,
        orbits_margin=margin,
        power_bounded=pb,
        consistent=consistent,
        witness=witness,
        probes=records,
    )


# ---------------------------------------------------------------------------
# Scalar sequence lemma probe
# ---------------------------------------------------------------------------

# |w| = 1 to this keeps |w^n| within 1e-7 of 1 over 1e5 steps, below TOL_CONV.
SCALAR_W_TOL = 1e-12


def scalar_re_sequence(w: complex, b: complex, n_max: int = 100_000) -> ScalarSeqVerdict:
    """Finite probe of the scalar lemma: for |w| = 1, w != +-1, the sequence
    Re(w^n b) converges only if b = 0.

    Only the last window of terms, all the window rule reads, is formed,
    each as w^n b.  Raises InvalidInputError for n_max < 0, for a non-finite
    w or b and for a b whose terms or their sum overflow, and
    InconsistencyError if the window rule reports convergence for a |b|
    above TOL_CONV, which it cannot tell from 0
    (finite-horizon failure surfaced, not hidden).
    """
    w = complex(w)
    b = complex(b)
    if n_max < 0:
        raise InvalidInputError(f"n_max must be nonnegative, got {n_max}")
    if not (np.isfinite(w) and np.isfinite(b)):
        raise InvalidInputError(f"w and b must be finite, got w = {w}, b = {b}")
    if decide(abs(abs(w) - 1), SCALAR_W_TOL) == 2:
        raise InvalidInputError(f"w must be unimodular (within {SCALAR_W_TOL:g})")
    if decide(min(abs(w - 1), abs(w + 1)), SCALAR_W_TOL) == 0:
        raise InvalidInputError("w = +-1 is excluded")
    try:
        with np.errstate(over="raise"):
            n = np.arange(max(0, n_max + 1 - WINDOW), n_max + 1)
            terms = np.ascontiguousarray((np.power(w, n) * b).real)
            (ok,), _ = _window_rule(terms[np.newaxis])
    except FloatingPointError:
        raise InvalidInputError(f"b = {b} is too large: Re(w^n b) or the sum of terms overflows") from None
    convergent = bool(ok)
    if convergent and decide(abs(b), TOL_CONV) == 2:
        raise InconsistencyError(
            "window rule reports convergence for nonzero b; w is too close "
            "to +-1 for this horizon"
        )
    return ScalarSeqVerdict(w=w, b=b, convergent=convergent)
