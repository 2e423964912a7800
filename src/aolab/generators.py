"""Seeded constructors for every instance family used by the suites, and
the seeded parameter draws (spectra, planted roots, trial seeds) that the
suites and the experiment scripts share.

Same spec in, bit-identical matrix out.  The named fixtures (the 4x4
unitary DFT matrix, the canonical oblique counterexample built from
S = [[1, 1], [0, 1]], the square-zero N = [[0, 1], [0, 0]], the rotation
angle sqrt(2)) are hard-coded constants, not seeded draws.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import InvalidInputError
from .linalg import MAX_DIM, operator_norm

SQRT2 = math.sqrt(2.0)

# Canonical fixtures.
OBLIQUE_S = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
JORDAN_N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

UNIMODULAR_TOL = 1e-12  # a requested eigenvalue lies this close to the unit circle
DISTINCT_TOL = 1e-8  # gen_oblique's eigenvalues lie further apart than this
NILPOTENT_FLOOR = 1e-8  # gen_jordan_perturbation redraws an N of norm at most this


def dft4() -> np.ndarray:
    """The unitary 4x4 DFT matrix (1/2) [omega^(jk)] with omega = -i."""
    w = -1j
    return np.array([[w ** (j * k) for k in range(4)] for j in range(4)], dtype=complex) / 2


def canonical_oblique() -> np.ndarray:
    """S diag(1, -1) S^{-1} with S = [[1, 1], [0, 1]]: power bounded with
    unimodular spectrum but not unitary."""
    return OBLIQUE_S @ np.diag([1.0, -1.0]).astype(complex) @ np.linalg.inv(OBLIQUE_S)


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / SQRT2


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    Z = _complex_gaussian(rng, dim, dim)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _check_unimodular(values):
    for z in values:
        if abs(abs(complex(z)) - 1) > UNIMODULAR_TOL:
            raise InvalidInputError(f"eigenvalue {z} is not unimodular")


def _check_dim(dim: int, minimum: int = 1):
    if not (minimum <= dim <= MAX_DIM):
        raise InvalidInputError(f"dim must lie in [{minimum}, {MAX_DIM}], got {dim}")


def _similarity(rng, dim: int, cond_cap: float, low: float) -> np.ndarray:
    """S = U diag(linspace(1, c, dim)) V^H, with U and V from the SVD of a
    complex Gaussian and c drawn uniformly from [low, cond_cap], so that
    cond(S) = c; S is unitary at cond_cap 1 or dim 1.  A cap below 1, not
    finite, or of 1 / eps or more is refused: past cond(S) = 1 / eps the
    rounding of S reaches its smallest singular value."""
    if not 1 <= cond_cap < math.inf:  # NaN fails too
        raise InvalidInputError("cond_cap must be finite and >= 1")
    if cond_cap * np.finfo(float).eps >= 1:
        raise InvalidInputError(f"cond_cap {cond_cap:g} leaves S singular in floating point")
    U, _, Vh = np.linalg.svd(_complex_gaussian(rng, dim, dim))
    s = np.linspace(1.0, rng.uniform(low, cond_cap), dim) if cond_cap > 1 and dim > 1 else np.ones(dim)
    return U @ np.diag(s) @ Vh


def gen_unitary_finite_spectrum(dim: int, eigenvalues, seed: int) -> np.ndarray:
    """U D U* with Haar-ish unitary U; every listed unimodular eigenvalue
    appears at least once on D."""
    _check_dim(dim)
    vals = [complex(z) for z in eigenvalues]
    if not vals or len(vals) > dim:
        raise InvalidInputError("need 1 <= len(eigenvalues) <= dim")
    _check_unimodular(vals)
    rng = np.random.default_rng(seed)
    diag = list(vals) + [vals[rng.integers(len(vals))] for _ in range(dim - len(vals))]
    diag = [diag[i] for i in rng.permutation(dim)]
    U = haar_unitary(dim, rng)
    return U @ np.diag(diag) @ U.conj().T


def gen_oblique(dim: int, eigenvalues, cond_cap: float = 50.0, seed: int = 0) -> np.ndarray:
    """S diag(eigenvalues) S^{-1} with cond(S) <= cond_cap.  With
    cond_cap > 1, S is accepted once two of its columns lie within 80
    degrees of each other, so the eigenspaces are genuinely oblique and the
    output, whose eigenvalues are distinct, is not unitary; with
    cond_cap = 1, S is unitary."""
    _check_dim(dim)
    vals = [complex(z) for z in eigenvalues]
    if len(vals) != dim:
        raise InvalidInputError("need exactly dim eigenvalues")
    _check_unimodular(vals)
    if any(abs(vals[i] - vals[j]) <= DISTINCT_TOL for i in range(dim) for j in range(i + 1, dim)):
        raise InvalidInputError("eigenvalues must be distinct")
    rng = np.random.default_rng(seed)
    S = _similarity(rng, dim, cond_cap, min(2.0, cond_cap))  # refuses a bad cap, the fixture's too
    if (dim == 2 and seed == 0 and sorted((v.real, v.imag) for v in vals) == [(-1.0, 0.0), (1.0, 0.0)]
            and cond_cap >= np.linalg.cond(OBLIQUE_S)):
        # Canonical fixture anchoring the counterexample family, where the cap admits its S.
        return canonical_oblique()
    for _ in range(200):
        A = S @ np.diag(vals) @ np.linalg.inv(S)
        if cond_cap == 1:
            return A
        cols = S / np.linalg.norm(S, axis=0)
        if np.abs(cols.conj().T @ cols - np.eye(dim)).max() >= math.cos(math.radians(80.0)):
            return A
        S = _similarity(rng, dim, cond_cap, min(2.0, cond_cap))
    raise InvalidInputError("failed to sample an oblique similarity; relax cond_cap")


def gen_jordan_perturbation(
    dim: int, alpha: complex, nilpotent_scale: float = 1.0, seed: int = 0
) -> np.ndarray:
    """alpha I + N with N^2 = 0, ||N|| = nilpotent_scale, alpha unimodular.
    Minimal polynomial (x - alpha)^2."""
    _check_dim(dim, minimum=2)
    alpha = complex(alpha)
    _check_unimodular([alpha])
    if nilpotent_scale <= 0:
        raise InvalidInputError("nilpotent_scale must be positive")
    if dim == 2 and seed == 0:
        N = JORDAN_N * nilpotent_scale
    else:
        rng = np.random.default_rng(seed)
        k = dim // 2
        while True:
            B = _complex_gaussian(rng, dim, k)
            C0 = _complex_gaussian(rng, k, dim)
            # Force C B = 0: column space of B sits inside ker C.
            C = C0 - (C0 @ B) @ np.linalg.pinv(B)
            N = B @ C
            nrm = operator_norm(N)
            if nrm > NILPOTENT_FLOOR:
                break
        N = N * (nilpotent_scale / nrm)
    return alpha * np.eye(dim) + N


def gen_scalar_rotation(dim: int, theta: float) -> np.ndarray:
    """e^{2 pi i theta} I."""
    _check_dim(dim)
    z = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    return z * np.eye(dim, dtype=complex)


def gen_normaloid_nonnormal(dim: int, seed: int = 0, target_norm: float = 3.0) -> np.ndarray:
    """Block-diagonal N (normal, ||N|| = r(N) = target_norm) plus a 2x2
    square-zero block of norm <= target_norm: normaloid but not normal."""
    _check_dim(dim, minimum=3)
    if not 0 < target_norm < math.inf:  # an infinite norm would make NaNs, with a warning
        raise InvalidInputError("target_norm must be positive and finite")
    rng = np.random.default_rng(seed)
    k = dim - 2
    moduli = rng.uniform(0.2, 0.9, size=k) * target_norm
    moduli[0] = target_norm  # pin r(N) = ||N|| = target_norm
    phases = np.exp(2j * np.pi * rng.uniform(0, 1, size=k))
    U = haar_unitary(k, rng)
    Nblock = U @ np.diag(moduli * phases) @ U.conj().T
    s = rng.uniform(0.3, 1.0) * target_norm
    K = np.array([[0.0, s], [0.0, 0.0]], dtype=complex)
    A = np.zeros((dim, dim), dtype=complex)
    A[:k, :k] = Nblock
    A[k:, k:] = K
    return A


def gen_planted_jordan(
    dim: int, roots, cond_cap: float = 100.0, seed: int = 0
) -> np.ndarray:
    """S J S^{-1} with planted Jordan structure: one block of size i_j per
    root (z_j, i_j), remaining dimensions filled with size-1 blocks of the
    listed roots; cond(S) <= cond_cap."""
    _check_dim(dim)
    roots = [(complex(z), int(i)) for z, i in roots]
    if not roots:
        raise InvalidInputError("need at least one root")
    if any(i < 1 for _, i in roots):
        raise InvalidInputError("indices must be positive")
    total = sum(i for _, i in roots)
    if total > dim:
        raise InvalidInputError(f"sum of indices {total} exceeds dim {dim}")
    rng = np.random.default_rng(seed)
    J = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for z, i in roots:
        J[pos:pos + i, pos:pos + i] = z * np.eye(i) + np.diag(np.ones(i - 1), 1)
        pos += i
    for k in range(pos, dim):
        J[k, k] = roots[rng.integers(len(roots))][0]
    S = _similarity(rng, dim, cond_cap, 1.0)
    return S @ J @ np.linalg.inv(S)


# ---------------------------------------------------------------------------
# Seeded parameter draws shared by the suites and the experiment scripts
# ---------------------------------------------------------------------------

def spread_unimodular(rng: np.random.Generator, k: int):
    """k distinct unimodular values with circular angle gaps >= ~0.25 rad,
    so that mixed-orbit oscillation periods stay well inside the
    convergence window."""
    base = 2 * math.pi / k
    jitter = rng.uniform(-0.3, 0.3, size=k) * base * 0.4
    offset = rng.uniform(0, 2 * math.pi)
    angles = offset + base * np.arange(k) + jitter
    return [complex(math.cos(a), math.sin(a)) for a in angles]


def subseeds(seed: int, n: int):
    """n independent 64-bit trial seeds derived from ``seed``."""
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64).tolist()


def planted_roots(rng: np.random.Generator, dim: int, modulus_grid=None):
    """Random well-separated roots (z_j, i_j), i_j <= 3, with sum of indices
    <= dim; the moduli are drawn from ``modulus_grid`` when given, else
    uniformly from [0.3, 1)."""
    while True:
        m = int(rng.integers(1, min(3, dim) + 1))
        if modulus_grid is not None:
            mods = rng.choice(modulus_grid, size=m, replace=False)
        else:
            mods = rng.uniform(0.3, 1.0, size=m)
        angles = rng.uniform(0, 2 * math.pi, size=m)
        roots = [complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(mods, angles)]
        if all(abs(roots[i] - roots[j]) >= 0.3 for i in range(m) for j in range(i + 1, m)):
            break
    indices = []
    budget = dim
    for j in range(m):
        hi = min(3, budget - (m - 1 - j))
        i = int(rng.integers(1, hi + 1))
        indices.append(i)
        budget -= i
    return list(zip(roots, indices))
