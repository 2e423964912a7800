"""Minimal polynomials and generalized eigenspace decompositions.

A square complex matrix T has a unique monic minimal polynomial
p(x) = (x - z_1)^{i_1} ... (x - z_m)^{i_m} with distinct roots.  The space
then splits as a direct sum of the generalized eigenspaces
H_j = ker (T - z_j I)^{i_j}; the associated (generally oblique) projections
P_j certify a norm inequality ||h_j|| <= c ||h_1 + ... + h_m|| with
c = max_j ||P_j||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, IllConditionedSpectrumError, InvalidInputError
from .linalg import (
    CLUSTER_FACTOR,
    RANK_TOL_FACTOR,
    SpectrumInfo,
    as_matrix,
    cluster_points,
    operator_norm,
    spectrum,
)

# Clustering radii tried in order when recovering roots of the minimal
# polynomial.  Computed eigenvalues of a defective root of index i scatter
# like (backward error)^(1/i), so a single radius cannot serve all indices;
# each candidate clustering is certified by the ||p(T)|| residual below.
_CLUSTER_LADDER = (1.0, 1e2, 1e3, 1e4, 1e5)

# Acceptance threshold on the prescaled residual: with each factor
# (T - z_j I) divided by ||T|| + |z_j| the exact product would vanish, so
# the computed product must stay below an absolute cutoff.
MINPOLY_RESIDUAL = 1e-8


@dataclass(frozen=True)
class MinimalPoly:
    """Monic minimal polynomial given by roots z_j with indices i_j."""

    roots: tuple  # of (complex, int), sorted by (re, im)
    degree: int
    # Algebraic multiplicities per root, same order as roots; populated when
    # the polynomial came out of minimal_polynomial (None for hand-built
    # instances).
    multiplicities: tuple | None = None

    def evaluate(self, A: np.ndarray) -> np.ndarray:
        """p(A) by repeated multiplication."""
        A = as_matrix(A)
        P = np.eye(A.shape[0], dtype=complex)
        for z, i in self.roots:
            B = A - z * np.eye(A.shape[0])
            for _ in range(i):
                P = P @ B
        return P


def _nullity_scaled(P: np.ndarray) -> int:
    """Nullity of a power that was built from a matrix prescaled to norm
    <= 1, so an absolute cutoff separates kernel from non-kernel."""
    s = np.linalg.svd(P, compute_uv=False)
    return int(np.sum(s <= RANK_TOL_FACTOR * P.shape[0]))


def _index_by_nullity(A: np.ndarray, z: complex, mult: int, scale: float) -> int:
    """Smallest k >= 1 at which the kernel of (A - zI)^k reaches the full
    generalized eigenspace, whose dimension is the algebraic multiplicity.

    Equivalent to rank saturation (rank((A-zI)^k) = rank((A-zI)^{k+1})) but
    needs one power less and a single absolute tolerance on the prescaled
    matrix.
    """
    d = A.shape[0]
    c = max(1.0, scale + abs(z))
    B = (A - z * np.eye(d)) / c
    P = np.eye(d, dtype=complex)
    for k in range(1, mult + 1):
        P = P @ B
        if _nullity_scaled(P) >= mult:
            return k
    return mult


def _candidate(A: np.ndarray, clustered, scale: float) -> MinimalPoly:
    roots = []
    mults = []
    for z, mult in clustered:
        roots.append((z, _index_by_nullity(A, z, mult, scale)))
        mults.append(mult)
    degree = sum(i for _, i in roots)
    return MinimalPoly(roots=tuple(roots), degree=degree, multiplicities=tuple(mults))


def _certifies(A: np.ndarray, mp: MinimalPoly, scale: float) -> bool:
    d = A.shape[0]
    if mp.degree > d:
        return False
    P = np.eye(d, dtype=complex)
    for z, i in mp.roots:
        B = (A - z * np.eye(d)) / max(1.0, scale + abs(z))
        for _ in range(i):
            P = P @ B
    return operator_norm(P) <= MINPOLY_RESIDUAL


def minimal_polynomial(A) -> MinimalPoly:
    """Compute the minimal polynomial from clustered eigenvalues and
    kernel-dimension saturation.

    Raises IllConditionedSpectrumError when two clusterings at the base
    radius are equally certified, DecompositionError when no clustering
    certifies.
    """
    A = as_matrix(A)
    scale = operator_norm(A)
    eigs = np.linalg.eigvals(A)
    base_delta = CLUSTER_FACTOR * max(1.0, scale)
    # Every ladder radius yields a clustering; several may certify because a
    # defective eigenvalue cloud also annihilates A when treated as scattered
    # simple roots.  Minimality means the lowest certified degree wins; on an
    # equal-degree tie the clustering with fewer distinct roots is the stable
    # description of the same cloud.
    certified = []
    seen = set()
    for mult in _CLUSTER_LADDER:
        clustered = cluster_points(eigs, base_delta * mult)
        key = tuple(count for _, count in clustered)
        if key in seen:
            continue
        seen.add(key)
        mp = _candidate(A, clustered, scale)
        if _certifies(A, mp, scale):
            certified.append(mp)
    if not certified:
        raise DecompositionError(
            "no certified root clustering found (minimal polynomial residual "
            "never met its threshold)"
        )
    certified.sort(key=lambda m: (m.degree, len(m.roots)))
    best = certified[0]
    rivals = [
        m
        for m in certified[1:]
        if m.degree == best.degree
        and len(m.roots) == len(best.roots)
        and any(abs(z - w) > base_delta for (z, _), (w, _) in zip(m.roots, best.roots))
    ]
    if rivals:
        raise IllConditionedSpectrumError(
            "multiple certified root clusterings of equal degree",
            candidates=[best] + rivals,
        )
    return best


@dataclass(frozen=True)
class Block:
    """One generalized eigenspace: root, index, orthonormal basis of
    H_j = ker (T - z I)^i, and the oblique projection onto it."""

    z: complex
    index: int
    basis: np.ndarray  # dim x d_j, orthonormal columns
    projection: np.ndarray  # dim x dim

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


def _kernel_basis(M: np.ndarray, nullity: int | None) -> np.ndarray:
    """Orthonormal kernel basis of a power prescaled to norm <= 1.

    When the kernel dimension is known in advance (the algebraic
    multiplicity) the corresponding number of trailing right singular
    vectors is taken; otherwise an absolute singular-value cutoff decides.
    """
    d = M.shape[0]
    _, s, vh = np.linalg.svd(M)
    if nullity is None:
        nullity = int(np.sum(s <= RANK_TOL_FACTOR * d))
    if nullity == 0:
        return np.zeros((d, 0), dtype=complex)
    return vh[d - nullity:].conj().T


def decompose(A, p: MinimalPoly) -> Decomposition:
    """Generalized eigenspace decomposition for the minimal polynomial p.

    Kernel bases come from SVDs of (A - z_j I)^{i_j}; projections from the
    basis-change formula P_j = B E_j B^{-1} in the concatenated basis B.
    """
    A = as_matrix(A)
    d = A.shape[0]
    scale = operator_norm(A)
    mults = p.multiplicities if p.multiplicities is not None else [None] * len(p.roots)
    bases = []
    for (z, i), mult in zip(p.roots, mults):
        c = max(1.0, scale + abs(z))
        M = np.linalg.matrix_power((A - z * np.eye(d)) / c, i)
        bases.append(_kernel_basis(M, mult))
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
    norms = []
    for (z, i), basis in zip(p.roots, bases):
        sel = slice(offset, offset + basis.shape[1])
        P = B[:, sel] @ Binv[sel, :]
        blocks.append(Block(z=z, index=i, basis=basis, projection=P))
        norms.append(operator_norm(P))
        offset += basis.shape[1]
    return Decomposition(blocks=tuple(blocks), constant_c=float(max(norms)))


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
