"""Minimal polynomials and generalized eigenspace decompositions.

A square complex matrix T has a unique monic minimal polynomial
p(x) = (x - z_1)^{i_1} ... (x - z_m)^{i_m} with distinct roots.  The space
then splits as a direct sum of the generalized eigenspaces
H_j = ker (T - z_j I)^{i_j}; the associated (generally oblique) projections
P_j certify a norm inequality ||h_j|| <= c ||h_1 + ... + h_m|| with
c = max_j ||P_j||.
"""

from __future__ import annotations

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
    evidence of ``minimal_polynomial``'s staircases, one entry per root in
    the order of the roots: the orthonormal bases of the generalized
    eigenspaces ker (A - z_j I)^{i_j}, and the singular values of A - z_j I,
    descending, from each staircase's first step."""

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
    """(index, basis, spectrum): the Kublanovskaya staircase on A - zI, and
    the singular values of A - zI that its first step computes.  Each step
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
            spectrum = s
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


def minimal_polynomial(A, norm: float | None = None) -> MinimalPoly:
    """Minimal polynomial from condition-clustered eigenvalues and one
    staircase per root.

    Eigenvalue j of A = V diag(w) V^{-1} gets a disk of radius
    max(CLUSTER_FACTOR, d eps kappa_j) ||A||, kappa_j the norm of
    row j of V^{-1} (unit eigenvectors).  Two overlapping disks merge only
    if A - mI is singular at their midpoint m under the rank threshold:
    1 / ||(A - mI)^{-1}||_F and sqrt(d) times it bracket its smallest
    singular value, and an SVD without vectors decides a bracket that
    straddles the threshold.  Each pair of clusters is checked once,
    closest first.  The staircase on A - zI at each cluster mean z then
    gives the index (its number of steps), the generalized eigenspace
    basis (a simple root's is its column of V) and, from its first step,
    the singular values of A - zI, which ``criteria._basis_error`` reads.
    Raises IllConditionedSpectrumError when a rank decision has no gap or
    the kernels do not add up to the cluster size.  ``norm`` is ||A|| if
    the caller has it already.
    """
    A = as_matrix(A)
    d = A.shape[0]
    scale = operator_norm(A) if norm is None else norm
    tol = KERNEL_TOL * d * scale
    w, V = np.linalg.eig(A)
    # An exactly defective A has a singular V: its kappa overflows to inf,
    # which only makes every link a checked one.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            kappa = np.linalg.norm(np.linalg.inv(V), axis=1)
        except np.linalg.LinAlgError:
            kappa = np.full(d, np.inf)
    kappa[~np.isfinite(kappa)] = np.inf
    radius = np.maximum(CLUSTER_FACTOR, d * np.finfo(float).eps * kappa) * scale

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
                f = np.linalg.norm(np.linalg.inv(M))
        except np.linalg.LinAlgError:
            return True
        high, low = decide(np.array([np.sqrt(d), 1.0]) / f, tol)
        if high == 0 or low == 2:
            return high == 0
        return decide(np.linalg.svd(M, compute_uv=False)[-1], tol) == 0

    # Disks of radius r overlap within r_i + r_j: linking distance 2r.
    roots, bases, spectra = [], [], []
    for z, mult in cluster_points(w, 2 * radius, merge):
        # A simple root's mean z is its eigenvalue: V[:, w == z] is its
        # unit eigenvector, as exactly equal eigenvalues always merge.
        index, basis, spectrum = _staircase(A, z, tol, mult, V[:, w == z] if mult == 1 else None)
        roots.append((z, index))
        bases.append(basis)
        spectra.append(spectrum)
    return MinimalPoly(
        roots=tuple(roots), degree=sum(i for _, i in roots), bases=tuple(bases), spectra=tuple(spectra)
    )


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


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def minimal_poly_to_obj(p: MinimalPoly) -> dict:
    return {
        "degree": p.degree,
        "roots": [
            {"z": [float(z.real), float(z.imag)], "index": i} for z, i in p.roots
        ],
    }
