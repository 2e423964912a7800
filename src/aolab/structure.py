"""Minimal polynomials and generalized eigenspace decompositions.

A square complex matrix T has a unique monic minimal polynomial
p(x) = (x - z_1)^{i_1} ... (x - z_m)^{i_m} with distinct roots.  The space
then splits as a direct sum of the generalized eigenspaces
H_j = ker (T - z_j I)^{i_j}; the associated (generally oblique) projections
P_j certify a norm inequality ||h_j|| <= c ||h_1 + ... + h_m|| with
c = max_j ||P_j||.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, IllConditionedSpectrumError
from .linalg import as_matrix, cluster_points, operator_norm

# Rank threshold: a singular value of A - zI (or of one of its staircase
# compressions) is zero when it is at most KERNEL_TOL * dim * ||A||.
KERNEL_TOL = 1e-13

# Eigenvalues within CLUSTER_FACTOR ||A|| of each other are one
# root without a rank check (``minimal_polynomial``).
CLUSTER_FACTOR = 1e-8

# A rank decision needs a gap: no singular value may lie above the threshold
# and within GAP times it.
GAP = 1e3


def decide(value, threshold, error=0.0):
    """The grade of every decision, elementwise: 0 (holds) when value <=
    threshold + error, 2 (fails) past threshold + GAP * error, 1 (undecided)
    between or for NaN.  With error 0 it is 0 exactly when value <= threshold."""
    holds = np.less_equal(value, threshold + error)
    # An int dtype: numpy adds bools as a logical or.
    return np.add(~holds, np.greater(value, threshold + GAP * error), dtype=int)


class MinimalPoly(NamedTuple):
    """Monic minimal polynomial given by roots z_j with indices i_j, and the
    evidence of ``minimal_polynomial``, one entry per root in the order of
    the roots: the orthonormal bases of the generalized eigenspaces
    ker (A - z_j I)^{i_j}, and bounds (s_0, s_1) on the m_j-th and next
    smallest singular values of A - z_j I, m_j the root's multiplicity."""

    roots: tuple  # of (complex, int), sorted by (re, im)
    degree: int
    bases: tuple
    spectra: tuple

    # Equal, and hashed alike, on (roots, degree) only: the bases are one
    # choice among many, and the spectra come with them.
    def __eq__(self, other):
        return type(other) is MinimalPoly and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    def to_obj(self):
        return {
            "degree": self.degree,
            "roots": [{"z": [float(z.real), float(z.imag)], "index": i} for z, i in self.roots],
        }


def _kernel(M: np.ndarray, tol: float, z: complex, step: int, vectors: bool = True):
    """(nullity, right singular vectors, singular values) of M: the singular
    values at most ``tol`` are zero.  Without ``vectors`` LAPACK computes
    none and the vectors are None.  Raises IllConditionedSpectrumError
    when one lies in the gap band (tol, GAP * tol]."""
    try:
        out = np.linalg.svd(M, compute_uv=vectors)
        V = out[2].conj().T if vectors else None
    except np.linalg.LinAlgError:
        # The divide-and-conquer SVD can fail to converge on many tiny
        # singular values; the adjoint takes another path through it, and
        # its left singular vectors are the right ones of M.
        out = np.linalg.svd(M.conj().T, compute_uv=vectors)
        V = out[0] if vectors else None
    s = out[1] if vectors else out
    grade = decide(s, 0.0, tol)
    band = s[grade == 1]
    if band.size:
        raise IllConditionedSpectrumError(
            f"root {z:.6g}, staircase step {step}: singular value {band[-1]:.3g} "
            f"lies in the gap band above the threshold {tol:.3g} (up to {GAP:g} times it)"
        )
    return int(np.sum(grade == 0)), V, s


def _staircase(A: np.ndarray, z: complex, tol: float, mult: int, v: np.ndarray | None):
    """(index, basis, (s_0, s_1)): the Kublanovskaya staircase on A - zI,
    and the mult-th and next smallest singular values of A - zI, which its
    first step computes (s_1 inf when mult is the dimension).  Each step
    splits off the kernel of the current matrix and compresses the matrix
    to the kernel's orthogonal complement, so the kernels of the first k
    steps span ker (A - zI)^k.  It stops at the first empty kernel or once
    the kernels reach ``mult``; kernels that do not add up to ``mult``
    raise IllConditionedSpectrumError.  A simple root (``mult`` 1) takes
    its kernel from v, its unit eigenvector, so its one step computes the
    singular values only."""
    d = A.shape[0]
    B = A - z * np.eye(d)
    Q = np.eye(d, dtype=complex)
    kernels = [np.zeros((d, 0), dtype=complex)]
    found = 0
    # Every step before the last adds a kernel vector: at most mult steps.
    for step in range(1, mult + 1):
        nul, V, s = _kernel(B, tol, z, step, vectors=mult > 1)
        if step == 1:
            spectrum = s[d - mult], s[d - mult - 1] if mult < d else np.inf
        if nul == 0:
            break
        n = B.shape[0]
        found = d - n + nul
        kernels.append(Q @ V[:, n - nul :] if mult > 1 else v)
        if found >= mult:
            break
        C = V[:, : n - nul]
        Q, B = Q @ C, C.conj().T @ B @ C
    if found != mult:
        raise IllConditionedSpectrumError(
            f"root {z:.6g}, staircase step {step}: the kernels add up to {found}, "
            f"not the multiplicity {mult}, at the threshold {tol:.3g}"
        )
    # Deepest kernel first: the first column then has the longest chain
    # under A - zI, index - 1 steps to zero.
    return len(kernels) - 1, np.hstack(kernels[::-1]), spectrum


def _certify(A: np.ndarray, w, V, X, kappa, clusters, tol: float) -> list:
    """Per cluster (z, members J), (1, Q, (s_0, s_1)) when the bounds of
    ``minimal_polynomial`` settle index 1, else None."""
    out, nX = [None] * len(clusters), math.sqrt(kappa @ kappa)
    # s_1 > GAP tol needs g > GAP tol nV nX, nV >= 1, and every g is at most 2 max |w|.
    if not 2 * float(np.abs(w).max()) > GAP * float(tol) * nX:
        return out
    # Norms past the float range read inf or NaN and settle nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        nV = float(np.linalg.norm(V))
        dist = np.abs(w - np.array([z for z, _ in clusters])[:, np.newaxis])
        for k, (_, J) in enumerate(clusters):
            dist[k, J] = np.inf
        g = dist.min(axis=1)
        nF = np.linalg.norm(V @ X - np.eye(len(w))) if g.max() > GAP * tol * nV * nX else 1.0
        if not nF < 0.5:
            return out
        E = A @ V - V * w
        low = g * (1 - nF) / (nV * nX) - np.linalg.norm(E) * nX / (1 - nF)
        ks, Qs, high = np.flatnonzero(decide(low, 0.0, tol) == 2), [], []
        residuals = np.linalg.norm(E, axis=0)  # ||E e_j||, a simple root's s_0
        for k in ks:
            z, J = clusters[k]
            Qs.append(V[:, J] if len(J) == 1 else np.linalg.qr(V[:, J])[0])
            high.append(residuals[J[0]] if len(J) == 1 else np.linalg.norm(A @ Qs[-1] - z * Qs[-1]))
        for k, Q, s_0, grade in zip(ks, Qs, high, decide(np.array(high), 0.0, tol)):
            if grade == 0:
                out[k] = 1, Q, (s_0, low[k])
    return out


def minimal_polynomial(A, norm: float | None = None) -> MinimalPoly:
    """Minimal polynomial from condition-clustered eigenvalues, each root
    settled by the one eigendecomposition or by a staircase.

    Eigenvalue j of A = V diag(w) V^{-1} gets a disk of radius
    max(CLUSTER_FACTOR, d eps kappa_j) ||A||, kappa_j the norm of
    row j of V^{-1} (unit eigenvectors).  Two overlapping disks merge only
    if A - mI is singular at their midpoint m under the rank threshold:
    1 / ||(A - mI)^{-1}||_F and sqrt(d) times it bracket its smallest
    singular value, and an SVD without vectors decides a bracket that
    straddles the threshold.  Each pair of clusters is checked once,
    closest first.  A cluster J of m eigenvalues with mean z has index 1
    and basis Q, the unit eigenvector or the Q factor of V[:, J], when
    s_0 = ||(A - zI) Q||_F <= tol and s_1 = g / (||V||_F ||V^-1||') -
    ||E||_F ||V^-1||' > GAP tol: the m-th smallest singular value of
    A - zI is at most s_0, and the next at least s_1 (Bauer and Fike).
    Here E = A V - V diag(w), g = min over k not in J of |w_k - z|, and
    ||V^-1||' = ||X||_F / (1 - ||F||_F) for the computed inverse X and
    F = V X - I, ||F||_F < 1/2; neither product is formed unless some g
    exceeds GAP tol ||V||_F ||X||_F, and none does if V is singular.  Any
    other cluster takes the staircase on A - zI, which gives the index
    (its number of steps), the basis (a simple root's is its column of V)
    and s_0 and s_1 as singular values from its first step.
    ``criteria._basis_error`` reads (s_0, s_1).  Raises
    IllConditionedSpectrumError when a rank decision has no gap or the
    kernels do not add up to the cluster size.  ``norm`` is ||A|| if the
    caller has it already.
    """
    A = as_matrix(A)
    d = A.shape[0]
    scale = operator_norm(A) if norm is None else norm
    tol = KERNEL_TOL * d * scale
    w, V = np.linalg.eig(A)
    # An exactly defective A has a singular V: its kappa overflows to inf,
    # which only makes every link a checked one and certifies no root.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            X = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            X = np.full((d, d), np.inf)
        kappa = np.linalg.norm(X, axis=1)
    kappa[~np.isfinite(kappa)] = np.inf
    radius = np.maximum(CLUSTER_FACTOR, d * np.finfo(float).eps * kappa) * scale
    # The merge bracket reads (M 2^-e)^-1 = M^-1 2^e against tol 2^-e, 2^e
    # the power of two of ||A||: exact scalings, so every decision keeps its
    # bits, and no square of the inverse's norm over- or underflows.
    e = math.frexp(scale)[1]
    unit_tol = KERNEL_TOL * d * math.ldexp(scale, -e)

    def merge(i, j):
        # Within the smallest radius, eigenvalues are one root unchecked;
        # the staircase still checks the cluster.
        if decide(abs(w[i] - w[j]), CLUSTER_FACTOR * scale) == 0:
            return True
        m = (w[i] + w[j]) / 2
        M = A - m * np.eye(d)
        # s_min(M) lies between 1 and sqrt(d) over ||M^-1||_F, so only a
        # bracket that straddles tol takes the SVD.  An M that LAPACK
        # cannot invert is singular.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                f = np.linalg.norm(np.ldexp(np.linalg.inv(M).view(float), e).view(complex))
        except np.linalg.LinAlgError:
            return True
        high, low = decide(np.array([np.sqrt(d), 1.0]) / f, unit_tol)
        if high == 0 or low == 2:
            return high == 0
        return decide(np.linalg.svd(M, compute_uv=False)[-1], tol) == 0

    # Disks of radius r overlap within r_i + r_j: linking distance 2r.
    clusters = cluster_points(w, 2 * radius, merge)
    # A simple root's mean z is its eigenvalue, and V[:, J] its unit eigenvector.
    found = [known or _staircase(A, z, tol, len(J), V[:, J] if len(J) == 1 else None)
             for (z, J), known in zip(clusters, _certify(A, w, V, X, kappa, clusters, tol))]
    indices, bases, spectra = zip(*found)
    roots = tuple(zip([z for z, _ in clusters], indices))
    return MinimalPoly(roots=roots, degree=sum(i for _, i in roots), bases=bases, spectra=spectra)


class Block(NamedTuple):
    """One generalized eigenspace: root, index, orthonormal basis B_j of
    H_j = ker (T - z I)^i, its rows R_j of B^{-1} (B all bases side by
    side) and the norm of the oblique projection P_j = B_j R_j onto H_j."""

    z: complex
    index: int
    basis: np.ndarray  # dim x d_j, orthonormal columns
    rows: np.ndarray  # d_j x dim
    projection_norm: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


class Decomposition(NamedTuple):
    blocks: tuple  # of Block
    constant_c: float

    @property
    def m(self) -> int:
        return len(self.blocks)

    def block_dims(self):
        return [b.dim for b in self.blocks]

    def factors(self):
        """(B, B^{-1}): the bases side by side and the rows stacked."""
        return np.hstack([b.basis for b in self.blocks]), np.vstack([b.rows for b in self.blocks])

    def to_obj(self):
        return {
            "blocks": [{"z": [float(b.z.real), float(b.z.imag)], "index": b.index, "dim": b.dim}
                       for b in self.blocks],
            "constant_c": self.constant_c,
        }


def decompose(A, p: MinimalPoly) -> Decomposition:
    """Generalized eigenspace decomposition for the minimal polynomial p.

    Kernel bases are the bases p carries (``minimal_polynomial``'s
    staircase bases); block j keeps its rows R_j of B^{-1}, B the
    concatenated basis, so that P_j = B E_j B^{-1} = B_j R_j.  Bases that
    do not fill the space, or whose concatenation is singular, raise
    DecompositionError.
    """
    A = as_matrix(A)
    d = A.shape[0]
    dims = [b.shape[1] for b in p.bases]
    if sum(dims) != d:
        raise DecompositionError(
            f"kernel dimensions {dims} do not sum to dim {d}; "
            "polynomial not minimal or tolerances inconsistent"
        )
    try:
        Binv = np.linalg.inv(np.hstack(p.bases))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("concatenated kernel bases are singular") from exc
    blocks = []
    for (z, i), basis, end in zip(p.roots, p.bases, accumulate(dims)):
        rows = Binv[end - basis.shape[1] : end]
        # ||P_j|| = ||R_j||, since the basis columns are orthonormal; for a
        # 1-dim block that is the norm of one row.
        norm = float(np.linalg.norm(rows, 2 if basis.shape[1] > 1 else None))
        blocks.append(Block(z=z, index=i, basis=basis, rows=rows, projection_norm=norm))
    return Decomposition(blocks=tuple(blocks), constant_c=max(b.projection_norm for b in blocks))
