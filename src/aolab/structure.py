"""Minimal polynomials and generalized eigenspace decompositions.

A square complex matrix T has a unique monic minimal polynomial
p(x) = (x - z_1)^{i_1} ... (x - z_m)^{i_m} with distinct roots.  The space
then splits as a direct sum of the generalized eigenspaces
H_j = ker (T - z_j I)^{i_j}; the associated (generally oblique) projections
P_j certify a norm inequality ||h_j|| <= c ||h_1 + ... + h_m|| with
c = max_j ||P_j||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, IllConditionedSpectrumError
from .linalg import CLUSTER_FACTOR, SpectrumInfo, as_matrix, cluster_points, operator_norm, spectrum

# Rank threshold: a singular value of A - zI (or of one of its staircase
# compressions) is zero when it is at most KERNEL_TOL * dim * max(1, ||A||).
KERNEL_TOL = 1e-13

# A rank decision needs a gap: no singular value may lie above the threshold
# and within GAP times it.
GAP = 1e3


@dataclass(frozen=True)
class MinimalPoly:
    """Monic minimal polynomial given by roots z_j with indices i_j."""

    roots: tuple  # of (complex, int), sorted by (re, im)
    degree: int
    # Orthonormal bases of the generalized eigenspaces ker (A - z_j I)^{i_j},
    # same order as roots; populated when the polynomial came out of
    # minimal_polynomial (None for hand-built instances).
    bases: tuple | None = field(default=None, compare=False, repr=False)

    def evaluate(self, A: np.ndarray) -> np.ndarray:
        """p(A) by repeated multiplication."""
        A = as_matrix(A)
        P = np.eye(A.shape[0], dtype=complex)
        for z, i in self.roots:
            B = A - z * np.eye(A.shape[0])
            for _ in range(i):
                P = P @ B
        return P


def _kernel(M: np.ndarray, tol: float, z: complex, step: int):
    """(nullity, right singular vectors) of M: the singular values at most
    ``tol`` are zero.  Raises IllConditionedSpectrumError when one lies in
    the gap band (tol, GAP * tol]."""
    try:
        _, s, vh = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        # The divide-and-conquer SVD can fail to converge on many tiny
        # singular values; the adjoint takes another path through it.
        u, s, _ = np.linalg.svd(M.conj().T)
        vh = u.conj().T
    band = s[(s > tol) & (s <= GAP * tol)]
    if band.size:
        raise IllConditionedSpectrumError(
            f"root {z:.6g}, staircase step {step}: singular value {band[-1]:.3g} "
            f"lies in the gap band above the threshold {tol:.3g} (up to {GAP:g} times it)"
        )
    return int(np.sum(s <= tol)), vh.conj().T


def _staircase(A: np.ndarray, z: complex, tol: float, steps: int, mult: int | None = None):
    """(index, basis): the Kublanovskaya staircase on A - zI.  Each step
    splits off the kernel of the current matrix and compresses the matrix
    to the kernel's orthogonal complement, so the kernels of the first k
    steps span ker (A - zI)^k.  It stops at the first empty kernel, after
    ``steps`` steps, or once the kernels reach ``mult``; given ``mult``,
    kernels that do not add up to it raise IllConditionedSpectrumError."""
    d = A.shape[0]
    B = A - z * np.eye(d)
    Q = np.eye(d, dtype=complex)
    kernels = [np.zeros((d, 0), dtype=complex)]
    for step in range(1, steps + 1):
        nul, V = _kernel(B, tol, z, step)
        if nul == 0:
            break
        n = B.shape[0]
        kernels.append(Q @ V[:, n - nul:])
        if mult is not None and d - n + nul >= mult:
            break
        C = V[:, : n - nul]
        Q, B = Q @ C, C.conj().T @ B @ C
    # Deepest kernel first: the first column then has the longest chain
    # under A - zI, index - 1 steps to zero.
    basis = np.hstack(kernels[::-1])
    if mult is not None and basis.shape[1] != mult:
        raise IllConditionedSpectrumError(
            f"root {z:.6g}, staircase step {step}: the kernels add up to {basis.shape[1]}, "
            f"not the multiplicity {mult}, at the threshold {tol:.3g}"
        )
    return len(kernels) - 1, basis


def minimal_polynomial(A, norm: float | None = None) -> MinimalPoly:
    """Minimal polynomial from condition-clustered eigenvalues and one
    staircase per root.

    Eigenvalue j of A = V diag(w) V^{-1} gets a disk of radius
    max(CLUSTER_FACTOR, d eps kappa_j) max(1, ||A||), kappa_j the norm of
    row j of V^{-1} (unit eigenvectors).  Two overlapping disks merge only
    if A - mI is singular at their midpoint m under the rank threshold;
    each pair of clusters is checked once, closest first.  The staircase
    on A - zI at each cluster mean z then gives the index (its number of
    steps) and the generalized eigenspace basis.  Raises
    IllConditionedSpectrumError when a rank decision has no gap or the
    kernels do not add up to the cluster size.  ``norm`` is ||A|| if the
    caller has it already.
    """
    A = as_matrix(A)
    d = A.shape[0]
    scale = max(1.0, operator_norm(A) if norm is None else norm)
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
        # Within the smallest radius, eigenvalues are one root unchecked,
        # as in ``spectrum``; the staircase still checks the cluster.
        m = (w[i] + w[j]) / 2
        return abs(w[i] - w[j]) <= CLUSTER_FACTOR * scale or (
            np.linalg.svd(A - m * np.eye(d), compute_uv=False)[-1] <= tol
        )

    # Disks of radius r overlap within r_i + r_j: linking distance 2r.
    roots, bases = [], []
    for z, mult in cluster_points(w, 2 * radius, merge):
        index, basis = _staircase(A, z, tol, mult, mult)
        roots.append((z, index))
        bases.append(basis)
    return MinimalPoly(
        roots=tuple(roots), degree=sum(i for _, i in roots), bases=tuple(bases)
    )


@dataclass(frozen=True)
class Block:
    """One generalized eigenspace: root, index, orthonormal basis of
    H_j = ker (T - z I)^i, and the oblique projection onto it with its
    norm."""

    z: complex
    index: int
    basis: np.ndarray  # dim x d_j, orthonormal columns
    projection: np.ndarray  # dim x dim
    projection_norm: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple  # of Block
    constant_c: float

    @property
    def m(self) -> int:
        return len(self.blocks)

    def block_dims(self):
        return [b.dim for b in self.blocks]


def decompose(A, p: MinimalPoly) -> Decomposition:
    """Generalized eigenspace decomposition for the minimal polynomial p.

    Kernel bases are the staircase bases of ``minimal_polynomial`` (for a
    hand-built p, a staircase of i_j steps on A - z_j I); projections come
    from the basis-change formula P_j = B E_j B^{-1} in the concatenated
    basis B.
    """
    A = as_matrix(A)
    d = A.shape[0]
    bases = p.bases
    if bases is None:
        tol = KERNEL_TOL * d * max(1.0, operator_norm(A))
        bases = [_staircase(A, z, tol, i)[1] for z, i in p.roots]
    dims = [b.shape[1] for b in bases]
    if sum(dims) != d:
        raise DecompositionError(
            f"kernel dimensions {dims} do not sum to dim {d}; "
            "polynomial not minimal or tolerances inconsistent"
        )
    B = np.hstack(bases)
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("concatenated kernel bases are singular") from exc
    blocks = []
    offset = 0
    for (z, i), basis in zip(p.roots, bases):
        sel = slice(offset, offset + basis.shape[1])
        P = B[:, sel] @ Binv[sel, :]
        # ||P|| = ||Binv[sel, :]||, since the basis columns are orthonormal.
        norm = float(np.linalg.norm(Binv[sel, :], 2))
        blocks.append(Block(z=z, index=i, basis=basis, projection=P, projection_norm=norm))
        offset += basis.shape[1]
    return Decomposition(blocks=tuple(blocks), constant_c=max(b.projection_norm for b in blocks))


def restriction_spectra(A, D: Decomposition) -> list[SpectrumInfo]:
    """Spectra of the compressions of A to each invariant block."""
    A = as_matrix(A)
    out = []
    for b in D.blocks:
        M = b.basis.conj().T @ A @ b.basis
        out.append(spectrum(M))
    return out


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
