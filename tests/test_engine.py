"""The orbit engine and the power loop against a frozen reference copy of
their block loops: the same block schedule and the same bits.

The reference takes the column norms of a block with two sums of squares
over the strided real and imaginary parts, rescales with ``ldexp`` and
multiplies with ``matmul``; the package's loops cut that bookkeeping down,
and every log-norm they return must keep its bits.
"""

import math

import numpy as np
import pytest

from aolab import criteria
from aolab.criteria import orbit_log_norms_batch, power_log_norms, probe_set
from aolab.generators import (
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_planted_jordan,
    gen_unitary_finite_spectrum,
    spread_unimodular,
)

# The block schedule, frozen with the loops below.
STACK_ENTRIES = 2**14
BLOCK_GROWTH_LOG2 = 400
TINY_NORM = 2.0**-500


def _prescaled(A):
    e = math.frexp(float(np.abs(A).max()))[1]
    B = np.array(A, dtype=complex, order="C")
    np.ldexp(B.view(float), -e, out=B.view(float))
    return B, e


def _block_steps(d, width):
    k = STACK_ENTRIES // max(1, d * width)
    if d > 1:
        k = min(k, int(BLOCK_GROWTH_LOG2 / math.log2(d)))
    return max(1, k)


def _block_norms(W, live, limit):
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


def _propagate(A, start, W):
    prev = start
    for step in W:
        np.matmul(A, prev, out=step)
        prev = step


def reference_orbit_log_norms(A, H, n_max):
    A, e = _prescaled(A)
    V = np.array(H, dtype=complex, order="C")
    s = np.linalg.norm(V, axis=0)
    d, P = V.shape
    out = np.empty((n_max + 1, P))
    np.log(s, out=out[0])
    limit = _block_steps(d, P)
    stack = np.empty((min(limit, n_max), d, P), dtype=complex)
    parts, V_parts = stack.view(float).reshape(-1, d, P, 2), V.view(float).reshape(d, P, 2)
    shed = np.frexp(s)[1].astype(np.int64)
    np.ldexp(V_parts, -shed[:, np.newaxis], out=V_parts)
    ne = e * np.arange(n_max + 1)[:, np.newaxis]
    live = np.ones(P, dtype=bool)
    n = 0
    with np.errstate(divide="ignore"):
        while n < n_max:
            W = stack[: min(limit, n_max - n)]
            _propagate(A, V, W)
            norms, limit = _block_norms(W, live, limit)
            kept = norms.shape[0]
            rows = out[n + 1 : n + kept + 1]
            np.log(norms, out=rows)
            rows += (shed + ne[n + 1 : n + kept + 1]) * np.log(2.0)
            m = np.frexp(norms[-1])[1]
            np.ldexp(parts[kept - 1], -m[:, np.newaxis], out=V_parts)
            shed += m
            live = norms[-1] > 0
            n += kept
    return out


def reference_power_log_norms(A, n_max):
    A, e = _prescaled(np.asarray(A))
    d = A.shape[0]
    out = np.full(n_max, -np.inf)
    limit = _block_steps(d, d)
    stack = np.empty((min(limit, n_max), d, d), dtype=complex)
    M = np.eye(d, dtype=complex)
    shed = 0
    n = 0
    while n < n_max:
        W = stack[: min(limit, n_max - n)]
        _propagate(A, M, W)
        fro, limit = _block_norms(W.reshape(W.shape[0], d * d, 1), True, limit)
        fro = fro[:, 0]
        if fro[-1] == 0.0:
            break
        W = W[: fro.size]
        m = np.frexp(fro)[1]
        np.ldexp(W.view(float), -m[:, np.newaxis, np.newaxis], out=W.view(float))
        np.copyto(M, W[-1])
        p = shed + m + e * np.arange(n + 1, n + fro.size + 1)
        G = np.matmul(np.conjugate(W).mT, W)
        logs = np.log(np.linalg.eigvalsh(G)[:, -1])
        logs *= 0.5
        logs += p * np.log(2.0)
        out[n : n + p.size] = logs
        shed += int(m[-1])
        n += fro.size
    return out


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _check(A, H, n_orbit, n_power):
    """The package's engine and power loop against the reference."""
    assert _same_bits(orbit_log_norms_batch(A, H, n_orbit), reference_orbit_log_norms(A, H, n_orbit))
    assert _same_bits(power_log_norms(A, n_power), reference_power_log_norms(A, n_power))


def _shape_matrix(family, dim, rng):
    """One matrix of an ``analyze`` benchmark family, drawn from rng."""
    seed = int(rng.integers(2**32))
    if family == "unitary":
        return gen_unitary_finite_spectrum(dim, spread_unimodular(rng, max(2, dim // 4)), seed)
    if family == "oblique":
        return gen_oblique(dim, spread_unimodular(rng, dim), 50.0, seed)
    if family == "planted":
        roots = [m * np.exp(2j * np.pi * (k / 3 + rng.uniform(0, 0.1))) for k, m in enumerate((0.9, 0.7, 0.5))]
        return gen_planted_jordan(dim, list(zip(roots, (3, 2, 1) if dim > 4 else (2, 1, 1))), 100.0, seed)
    if family == "jordan":
        return gen_jordan_perturbation(dim, np.exp(2j * np.pi * rng.uniform()), rng.uniform(0.5, 3.0), seed)
    return gen_normaloid_nonnormal(dim, seed, {4: 0.7, 8: 1.0}.get(dim, 3.0))


FAMILIES = ("unitary", "oblique", "planted", "jordan", "normaloid")


@pytest.mark.parametrize("dim", [4, 8, 16])
@pytest.mark.parametrize("seed", range(3))
def test_desk_shapes(dim, seed, monkeypatch):
    # The analyze batch of RANDOM_PROBES random probes, and a batch of 20
    # from the same rng, whose blocks are shorter (51 steps against 100
    # at d16), over the full horizons.
    rng = np.random.default_rng([dim, seed])
    widths = (criteria.RANDOM_PROBES, 20)
    for family in FAMILIES:
        A = _shape_matrix(family, dim, rng)
        for width in widths:
            monkeypatch.setattr(criteria, "RANDOM_PROBES", width)
            H = np.column_stack([v for _, v in probe_set(dim, rng)])
            assert H.shape[1] == width
            _check(A, H, 2000, 1000)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_horizons_at_block_boundaries(dim):
    # The shortest horizons, and horizons that end one step before, at and
    # one step after the end of the first block, k steps long, of the probe
    # batch and of the powers.
    rng = np.random.default_rng([dim, 7])
    for family in FAMILIES:
        A = _shape_matrix(family, dim, rng)
        H = np.column_stack([v for _, v in probe_set(dim, rng)])
        k = criteria._block_steps(dim, H.shape[1])
        for n in (0, 1, k - 1, k, k + 1):
            assert _same_bits(orbit_log_norms_batch(A, H, n), reference_orbit_log_norms(A, H, n))
        k = criteria._block_steps(dim, dim)
        for n in (0, 1, k - 1, k, k + 1):
            assert _same_bits(power_log_norms(A, n), reference_power_log_norms(A, n))


def test_powers_stop_at_the_first_zero(monkeypatch):
    # J_4 vanishes at its fourth power: one block up to it, one for the
    # zero power, and no block after.
    blocks = []
    stepper = criteria._stepper

    def counted(A, stack):
        propagate = stepper(A, stack)
        return lambda start, k: blocks.append(k) or propagate(start, k)

    monkeypatch.setattr(criteria, "_stepper", counted)
    logs = power_log_norms(np.eye(4, k=1), 1000)
    assert len(blocks) <= 2
    assert np.all(np.isfinite(logs[:3])) and np.all(logs[3:] == -np.inf)


@pytest.mark.parametrize(
    "family, dim",
    [("oblique", 32), ("unitary", 64), ("planted", 64), ("jordan", 64), ("normaloid", 32), ("planted", 32)],
)
@pytest.mark.parametrize("seed", range(3))
def test_large_shapes(family, dim, seed):
    # Shorter horizons: the blocks of a shorter run are a prefix of a
    # longer run's, and they hold 3 to 9 steps or 4 to 16 powers here.
    rng = np.random.default_rng([dim, seed, len(family)])
    A = _shape_matrix(family, dim, rng)
    H = np.column_stack([v for _, v in probe_set(dim, rng)])
    _check(A, H, 400, 100)


@pytest.mark.parametrize("dim", [1, 3, 5, 7])
def test_odd_dims(dim):
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A /= np.abs(np.linalg.eigvals(A)).max()
    H = np.column_stack([v for _, v in probe_set(dim, rng)])
    _check(A, H, 2000, 1000)
    _check(2.0 * A, H[:, :2], 500, 300)


@pytest.mark.parametrize("dim", [1, 4, 16, 64])
def test_single_probe(dim):
    rng = np.random.default_rng(dim)
    A = _shape_matrix("jordan", dim, rng) if dim > 1 else np.array([[np.exp(0.3j)]])
    for h in (np.eye(dim)[:, :1], rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))):
        assert _same_bits(orbit_log_norms_batch(A, h, 2000), reference_orbit_log_norms(A, h, 2000))


@pytest.mark.parametrize(
    "A",
    [
        np.diag([1e200, 0.5]),  # one-step blocks with hypot norms
        np.diag([1.0, 2.0**-600]),  # a column far below TINY_NORM at unit scale
        1e-170 * np.eye(2),  # squares underflow unscaled
        1e200 * np.eye(3, k=1),  # nilpotent with huge powers
        1.5 * np.eye(5, k=1),  # basis columns die one by one
        np.array([[0.0, 1.0], [2.0**-1060, 0.0]]),  # subnormal norms at odd steps
    ],
    ids=["diag-1e200", "diag-2^-600", "1e-170", "shift-1e200", "nilpotent", "subnormal"],
)
def test_edge_matrices(A):
    d = A.shape[0]
    rng = np.random.default_rng(d)
    R = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    for H in (np.eye(d), np.column_stack([np.eye(d), R]), R[:, :1]):
        _check(A, H, 2000, 1000)
