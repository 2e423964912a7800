"""The orbit engine and the power loop against a frozen reference copy of
their block loops: the same block schedule and the same bits.

The reference holds each vector v of a batch as the row [Re v, Im v],
steps the rows by the transposed real form [[Re A^T, Im A^T], [-Im A^T,
Re A^T]] of the prescaled matrix with ``matmul``, takes the norms of a
block with one sum of squares per group, rescales with ``ldexp`` and forms
each power's Gram matrix from the real and imaginary halves; the package's
loops cut that bookkeeping down, and every log-norm they return must keep
its bits.
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
    # C-contiguous, as the package holds it: BLAS takes another kernel for an F-ordered operand.
    return np.ascontiguousarray(np.block([[B.real.T, B.imag.T], [-B.imag.T, B.real.T]])), e


def _block_steps(d, width):
    k = STACK_ENTRIES // max(1, d * width)
    if d > 1:
        k = min(k, int(BLOCK_GROWTH_LOG2 / math.log2(d)))
    return max(1, k)


def _block_norms(W, live, limit):
    if limit == 1:
        return np.hypot.reduce(np.abs(W), axis=2), limit
    sq = np.einsum("kpm,kpm->kp", W, W)
    norms = np.sqrt(sq, out=sq)
    tiny = (norms < TINY_NORM) & live
    hit = np.flatnonzero(tiny.any(axis=1))
    if not hit.size:
        return norms, limit
    kept = int(hit[0])
    if kept == 0:
        kept = 1
        norms = np.hypot.reduce(np.abs(W[:1]), axis=2)
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
        np.matmul(prev, A, out=step)
        prev = step


def reference_orbit_log_norms(A, H, n_max):
    A, e = _prescaled(A)
    H = np.array(H, dtype=complex, order="C")
    s = np.linalg.norm(H, axis=0)
    d, P = H.shape
    out = np.empty((n_max + 1, P))
    np.log(s, out=out[0])
    limit = _block_steps(d, P)
    stack = np.empty((min(limit, n_max), P, 2 * d))
    V = np.hstack([H.real.T, H.imag.T])
    shed = np.frexp(s)[1].astype(np.int64)
    np.ldexp(V, -shed[:, np.newaxis], out=V)
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
            np.ldexp(stack[kept - 1], -m[:, np.newaxis], out=V)
            shed += m
            live = norms[-1] > 0
            n += kept
    return out


def reference_power_log_norms(A, n_max):
    d = len(A)
    A, e = _prescaled(np.asarray(A))
    out = np.full(n_max, -np.inf)
    limit = _block_steps(d, d)
    stack = np.empty((min(limit, n_max), d, 2 * d))
    M = np.eye(d, 2 * d)
    shed = 0
    n = 0
    while n < n_max:
        W = stack[: min(limit, n_max - n)]
        _propagate(A, M, W)
        fro, limit = _block_norms(W.reshape(W.shape[0], 1, 2 * d * d), True, limit)
        fro = fro[:, 0]
        if fro[-1] == 0.0:
            break
        W = W[: fro.size]
        m = np.frexp(fro)[1]
        np.ldexp(W, -m[:, np.newaxis, np.newaxis], out=W)
        np.copyto(M, W[-1])
        p = shed + m + e * np.arange(n + 1, n + fro.size + 1)
        T = np.matmul(W[..., :d], W[..., d:].mT)
        G = np.matmul(W, W.mT) + 1j * (T - T.mT)
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
    # The batch is stepped at the width of the random probes and at one
    # more, as an oblique analyze steps them with its overlap witness (a
    # sum of two unit vectors): 51-step blocks against 64 at d64, and
    # another BLAS kernel.
    rng = np.random.default_rng([dim, seed, len(family)])
    A = _shape_matrix(family, dim, rng)
    H = np.column_stack([v for _, v in probe_set(dim, rng)])
    _check(A, H, 400, 100)
    H = np.column_stack([H, H[:, 0] + H[:, 1]])
    assert H.shape[1] == criteria.RANDOM_PROBES + 1
    assert _same_bits(orbit_log_norms_batch(A, H, 400), reference_orbit_log_norms(A, H, 400))


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


def _stepped_log_norms(A, H, n_max, dtype):
    """log ||A^n h|| for every column h of H, n = 0..n_max, from plain
    products in ``dtype`` with no rescale: the complex loop the engine
    stepped before its real form (complex), or a reference (clongdouble)."""
    A, V = np.asarray(A, dtype), np.asarray(H, dtype)
    sq = np.empty((n_max + 1, V.shape[1]), dtype=V.real.dtype)
    for n in range(n_max + 1):
        sq[n] = (V.real**2 + V.imag**2).sum(axis=0)
        V = A @ V
    return 0.5 * np.log(sq).astype(float)


@pytest.mark.parametrize(
    "A",
    [
        gen_oblique(4, spread_unimodular(np.random.default_rng(4), 4), 1e2, seed=4),
        gen_oblique(16, spread_unimodular(np.random.default_rng(16), 16), 1e4, seed=16),
        gen_jordan_perturbation(8, np.exp(0.3j), 1.0, 1),
        np.eye(4) + np.eye(4, k=1),
    ],
    ids=["oblique-d4-cap-1e2", "oblique-d16-cap-1e4", "jordan-d8", "I+J4"],
)
def test_real_form_accuracy(A):
    # Stepping the real form costs no accuracy against stepping A in
    # complex arithmetic: over 2000 steps the engine's error against a
    # long-double loop stays within twice the complex loop's (or 1e-13, the
    # rounding of the logs themselves).  No orbit here leaves the float
    # range, so neither loop needs a rescale.
    d = len(A)
    H = np.column_stack([v for _, v in probe_set(d, np.random.default_rng(d))])
    ref = _stepped_log_norms(A, H, 2000, np.clongdouble)
    complex_err = np.abs(_stepped_log_norms(A, H, 2000, complex) - ref).max()
    real_err = np.abs(orbit_log_norms_batch(A, H, 2000) - ref).max()
    assert real_err <= max(2 * complex_err, 1e-13)
