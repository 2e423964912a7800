"""Minimal polynomials, generalized eigenspace decompositions and the
decision rule."""

import ast
import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import aolab
from aolab import structure
from aolab.errors import DecompositionError, IllConditionedSpectrumError, InvalidInputError
from aolab.generators import canonical_oblique, dft4, gen_oblique, gen_planted_jordan, spread_unimodular
from aolab.linalg import as_matrix, cluster_points, operator_norm
from aolab.structure import (
    CLUSTER_FACTOR,
    GAP,
    KERNEL_TOL,
    MinimalPoly,
    decide,
    decompose,
    minimal_polynomial,
)
from test_engine import FAMILIES, _shape_matrix


def _evaluate(mp, A):
    """p(A) by repeated multiplication."""
    P = np.eye(A.shape[0], dtype=complex)
    for z, i in mp.roots:
        for _ in range(i):
            P = P @ (A - z * np.eye(A.shape[0]))
    return P


def _roots_rounded(mp, digits=8):
    return sorted(
        (round(z.real, digits), round(z.imag, digits), i) for z, i in mp.roots
    )


class TestMinimalPolynomial:
    def test_dft4(self):
        # Degree 3: (x - 1)(x + 1)(x + i); the eigenvalue 1 is double but
        # the matrix is diagonalizable so each root has index 1.
        mp = minimal_polynomial(dft4())
        assert mp.degree == 3
        assert _roots_rounded(mp) == [(-1.0, 0.0, 1), (0.0, -1.0, 1), (1.0, 0.0, 1)]

    def test_identity(self):
        mp = minimal_polynomial(np.eye(6))
        assert mp.degree == 1
        assert _roots_rounded(mp) == [(1.0, 0.0, 1)]

    def test_jordan_block(self):
        A = np.array([[1, 1], [0, 1]], dtype=complex)
        mp = minimal_polynomial(A)
        assert mp.degree == 2
        assert _roots_rounded(mp) == [(1.0, 0.0, 2)]

    def test_nilpotent(self):
        A = np.zeros((3, 3), dtype=complex)
        A[0, 1] = A[1, 2] = 1.0
        mp = minimal_polynomial(A)
        assert _roots_rounded(mp) == [(0.0, 0.0, 3)]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the two computed roots +-7.1e-8 lie 1.45e-7 apart, "
                       "just past the linking distance 1.38e-7 of their disks, so no merge check joins them")
    def test_planted_nilpotent_keeps_its_index(self):
        # The root 0 of index 2 planted under a similarity of condition up to 10.
        mp = minimal_polynomial(gen_planted_jordan(2, [(0, 2)], 10.0, 1))
        assert [i for _, i in mp.roots] == [2]

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-3, 1e6])
    def test_structure_scales_with_the_matrix(self, c):
        # The thresholds are relative to ||A||: at small norms the roots
        # +-c of c [[0, 1], [1, 0]] stay apart and c J_3 keeps its index.
        mp = minimal_polynomial(c * np.array([[0, 1], [1, 0]], dtype=complex))
        assert [(round(z.real / c, 6), i) for z, i in mp.roots] == [(-1.0, 1), (1.0, 1)]
        assert minimal_polynomial(c * np.eye(3, k=1, dtype=complex)).roots == ((0j, 3),)

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
    def test_merge_bracket_at_extreme_scales(self, c):
        # The merge bracket inverts A - mI at the scale of ||A||: no square
        # of its inverse's norm over- or underflows (a RuntimeWarning fails
        # the test), and c (0.5 I_2 + J_2 + 0.25) reads c times the roots of
        # c = 1, with their indices.
        A = np.array([[0.5, 1, 0], [0, 0.5, 0], [0, 0, 0.25]], dtype=complex)
        ref, got = minimal_polynomial(A).roots, minimal_polynomial(c * A).roots
        assert [i for _, i in got] == [i for _, i in ref] == [1, 2]
        np.testing.assert_allclose([z / c for z, _ in got], [z for z, _ in ref], rtol=1e-15)

    def test_canonical_oblique(self):
        mp = minimal_polynomial(canonical_oblique())
        assert mp.degree == 2
        assert _roots_rounded(mp) == [(-1.0, 0.0, 1), (1.0, 0.0, 1)]

    def test_planted_structure_recovered(self):
        roots = [(0.5 + 0.1j, 2), (-0.3j, 1)]
        A = gen_planted_jordan(5, roots, cond_cap=20.0, seed=3)
        mp = minimal_polynomial(A)
        got = {(round(z.real, 6), round(z.imag, 6)): i for z, i in mp.roots}
        assert got == {(0.5, 0.1): 2, (0.0, -0.3): 1}

    def test_residual_small(self):
        A = gen_planted_jordan(6, [(1j, 3), (0.5, 1)], cond_cap=30.0, seed=7)
        mp = minimal_polynomial(A)
        res = operator_norm(_evaluate(mp, A))
        assert res <= 1e-8 * max(1.0, operator_norm(A)) ** mp.degree

    def test_evaluate_monomial(self):
        A = np.diag([2.0, 3.0]).astype(complex)
        mp = MinimalPoly(roots=((2.0 + 0j, 2),), degree=2, bases=(np.eye(2)[:, :1],), spectra=((0.0, 1.0),))
        P = _evaluate(mp, A)
        assert P[0, 0] == pytest.approx(0.0)
        assert P[1, 1] == pytest.approx(1.0)

    def test_norm_past_float_range_raises(self):
        with pytest.raises(InvalidInputError, match="exceeds the float range"):
            minimal_polynomial([[1.5e308, 0], [1.5e308, 0.5]])

    def test_equality_ignores_bases(self):
        # The bases are one choice among many: two polys with the same roots
        # and degree are equal, and hash alike, whatever their bases.
        mp = minimal_polynomial(dft4())
        other = mp._replace(bases=tuple(-b for b in mp.bases))
        assert mp == other and not mp != other and hash(mp) == hash(other)
        assert mp != mp._replace(degree=mp.degree + 1)
        assert mp != tuple(mp)


def _shape_roots(kind, indices):
    """Planted roots of a structure-stress shape: "circle" spreads simple
    roots on the unit circle, "close" puts the first two roots 1e-3 apart,
    "jordan" separates the roots and puts the first and third on the
    circle."""
    m = len(indices)
    if kind == "circle":
        zs = spread_unimodular(np.random.default_rng(m), m)
    elif kind == "close":
        z = np.exp(0.4j)
        zs = [z, z + 1e-3 * np.exp(1.1j), -0.6 + 0.2j]
    else:
        zs = [r * np.exp(2j * np.pi * (j / m + 0.1)) for j, r in enumerate((1.0, 0.7, 1.0, 0.5)[:m])]
    return [(complex(z), i) for z, i in zip(zs, indices)]


def _assert_recovered(A, planted):
    """Every planted (z, index) has its own root within 1e-6 and the same
    index, and the decomposition has one block per root."""
    mp = minimal_polynomial(A)
    assert len(mp.roots) == len(planted)
    free = list(mp.roots)
    for z, i in planted:
        w, j = free.pop(min(range(len(free)), key=lambda k: abs(free[k][0] - z)))
        assert abs(w - z) <= 1e-6 and j == i, (z, i, w, j)
    D = decompose(A, mp)
    assert D.m == len(planted) and sum(D.block_dims()) == A.shape[0]


class TestStressShapes:
    """Shapes of the structure-stress benchmark rebuilt with
    gen_planted_jordan: the recovered ones give the planted roots and
    indices, an unrecoverable one raises."""

    def test_circle_d16_repro(self):
        # The first circle/d16 instance of the benchmark (rng [1, 0, 0]):
        # 12 simple unimodular roots, cond cap 1e4.
        rng = np.random.default_rng([1, 0, 0])
        base = 2 * math.pi / 12
        angles = (rng.uniform(0, 2 * math.pi) + base * np.arange(12)
                  + rng.uniform(-0.12, 0.12, 12) * base)
        planted = [(complex(math.cos(a), math.sin(a)), 1) for a in angles]
        _assert_recovered(gen_planted_jordan(16, planted, 1e4, int(rng.integers(2**31))), planted)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "dim, kind, indices, cap",
        [
            (16, "circle", (1,) * 12, 1e4),
            (32, "close", (2, 1, 3), 1e2),
            (32, "jordan", (5, 3, 1), 1e4),
            (64, "circle", (1,) * 16, 1e6),
        ],
    )
    def test_recovered(self, dim, kind, indices, cap, seed):
        planted = _shape_roots(kind, indices)
        _assert_recovered(gen_planted_jordan(dim, planted, cap, seed), planted)

    def test_unrecoverable_raises(self):
        A = gen_planted_jordan(32, _shape_roots("jordan", (6, 4, 2, 1)), 1e6, 0)
        with pytest.raises(IllConditionedSpectrumError, match="staircase step .* threshold"):
            minimal_polynomial(A)


# ---------------------------------------------------------------------------
# A frozen copy of the minimal polynomial before simple roots read their
# eigenvectors and merge checks their inverse bracket: a full SVD with
# vectors at every staircase step and an SVD without vectors per link.
# ---------------------------------------------------------------------------

def _reference_kernel(M, tol, z, step):
    try:
        _, s, vh = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        u, s, _ = np.linalg.svd(M.conj().T)
        vh = u.conj().T
    grade = decide(s, 0.0, tol)
    band = s[grade == 1]
    if band.size:
        raise IllConditionedSpectrumError(
            f"root {z:.6g}, staircase step {step}: singular value {band[-1]:.3g} "
            f"lies in the gap band above the threshold {tol:.3g} (up to {GAP:g} times it)"
        )
    return int(np.sum(grade == 0)), vh.conj().T, s


def _reference_staircase(A, z, tol, mult):
    d = A.shape[0]
    B = A - z * np.eye(d)
    Q = np.eye(d, dtype=complex)
    kernels = [np.zeros((d, 0), dtype=complex)]
    for step in range(1, mult + 1):
        nul, V, s = _reference_kernel(B, tol, z, step)
        if step == 1:
            spectrum = s
        if nul == 0:
            break
        n = B.shape[0]
        kernels.append(Q @ V[:, n - nul:])
        if d - n + nul >= mult:
            break
        C = V[:, : n - nul]
        Q, B = Q @ C, C.conj().T @ B @ C
    basis = np.hstack(kernels[::-1])
    if basis.shape[1] != mult:
        raise IllConditionedSpectrumError(
            f"root {z:.6g}, staircase step {step}: the kernels add up to {basis.shape[1]}, "
            f"not the multiplicity {mult}, at the threshold {tol:.3g}"
        )
    return len(kernels) - 1, basis, spectrum


def reference_minimal_polynomial(A):
    A = as_matrix(A)
    d = A.shape[0]
    scale = operator_norm(A)
    tol = KERNEL_TOL * d * scale
    w, V = np.linalg.eig(A)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            kappa = np.linalg.norm(np.linalg.inv(V), axis=1)
        except np.linalg.LinAlgError:
            kappa = np.full(d, np.inf)
    kappa[~np.isfinite(kappa)] = np.inf
    radius = np.maximum(CLUSTER_FACTOR, d * np.finfo(float).eps * kappa) * scale

    def merge(i, j):
        m = (w[i] + w[j]) / 2
        return decide(abs(w[i] - w[j]), CLUSTER_FACTOR * scale) == 0 or (
            decide(np.linalg.svd(A - m * np.eye(d), compute_uv=False)[-1], tol) == 0
        )

    roots, bases, spectra = [], [], []
    for z, members in cluster_points(w, 2 * radius, merge):
        index, basis, spectrum = _reference_staircase(A, z, tol, len(members))
        roots.append((z, index))
        bases.append(basis)
        spectra.append(spectrum)
    return MinimalPoly(
        roots=tuple(roots), degree=sum(i for _, i in roots), bases=tuple(bases), spectra=tuple(spectra)
    )


def _outcome(fn, A):
    """(minimal polynomial, None), or (None, message) if it raised."""
    try:
        return fn(A), None
    except IllConditionedSpectrumError as exc:
        return None, str(exc)


def _assert_as_reference(A):
    """The same roots (cluster means, hence the same partition), indices,
    block dims, raises and messages as the reference.  A root of m
    eigenvalues that took the staircase keeps the reference's bits if
    m > 1, and its two singular values to d eps ||A|| if m = 1.  A root
    that the eigendecomposition certified keeps evidence that brackets
    the reference's singular values of A - zI: s_0 >= s_{d-m+1} and
    s_1 <= s_{d-m}, the first to the SVD's own rounding, d eps ||A||, as
    a singular value counted as zero is rounding noise.  Every basis b
    lies within ``criteria._basis_error``'s bound of the reference kernel,
    and ||(A - zI) b|| is at most the bound's numerator d eps ||A|| + s_0,
    so that the bound holds for the basis kept."""
    stairs, staircase = [], structure._staircase
    with mock.patch.object(structure, "_staircase", lambda M, z, *a: stairs.append(z) or staircase(M, z, *a)):
        got, err = _outcome(minimal_polynomial, A)
    ref, ref_err = _outcome(reference_minimal_polynomial, A)
    assert err == ref_err
    if ref is None:
        return
    assert got.roots == ref.roots and got.degree == ref.degree
    assert [b.shape for b in got.bases] == [b.shape for b in ref.bases]
    d = A.shape[0]
    floor = d * np.finfo(float).eps * operator_norm(A)
    for (z, _), b, r, (s_0, s_1), s_ref in zip(got.roots, got.bases, ref.bases, got.spectra, ref.spectra):
        m = b.shape[1]
        ref_0, ref_1 = s_ref[d - m], s_ref[d - m - 1] if m < d else np.inf
        if z not in stairs:
            assert s_0 + floor >= ref_0 and s_1 <= ref_1, (z, s_0, ref_0, s_1, ref_1)
        elif m > 1:
            assert np.array_equal(b, r) and (s_0, s_1) == (ref_0, ref_1)
            continue
        else:
            assert max(abs(s_0 - ref_0), abs(s_1 - ref_1)) <= floor
        residual = np.linalg.norm((A - z * np.eye(d)) @ b, 2)
        assert residual <= floor + s_0, (z, residual, floor + s_0)
        sine = np.linalg.norm(r - b @ (b.conj().T @ r), 2)  # of the largest principal angle
        assert m == d or sine <= (floor + s_0) / s_1, (z, sine, (floor + s_0) / s_1)


class TestAgainstReference:
    """``minimal_polynomial`` against the frozen per-root full-SVD staircase
    and per-link SVD merge check."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_analyze_shapes(self, dim, seed):
        # The desk (d4-d16) and large (d32, d64) shapes of the analyze benchmarks.
        rng = np.random.default_rng([dim, seed])
        for family in FAMILIES:
            _assert_as_reference(_shape_matrix(family, dim, rng))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "dim, kind, indices, cap",
        [
            (16, "circle", (1,) * 12, 1e4),
            (16, "jordan", (6, 3, 1), 1e2),
            (16, "close", (1, 1, 2), 1e4),
            (16, "jordan", (4, 2, 2, 1), 1e6),
            (32, "circle", (1,) * 16, 1e2),
            (32, "jordan", (6, 4, 2, 1), 1e6),
            (32, "close", (2, 1, 3), 1e2),
            (64, "circle", (1,) * 16, 1e6),
            (64, "jordan", (6, 5, 3), 1e4),
            (64, "close", (1, 1, 4), 1e5),
        ],
    )
    def test_stress_shapes(self, dim, kind, indices, cap, seed):
        _assert_as_reference(gen_planted_jordan(dim, _shape_roots(kind, indices), cap, seed))

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("cap", [50.0, 1e3, 1e6])
    def test_obliques(self, dim, cap):
        _assert_as_reference(gen_oblique(dim, spread_unimodular(np.random.default_rng(dim), dim), cap, dim))

    def test_exact_inputs(self):
        for A in (dft4(), np.eye(6), canonical_oblique(), np.diag([1.0, 1.0, 2.0]), np.eye(3, k=1)):
            _assert_as_reference(A)


class _LapackLog:
    """Records every np.linalg.inv and np.linalg.svd call as (kind, matrix):
    kind "inv", "svd" (with vectors) or "s" (singular values only)."""

    def __init__(self, monkeypatch):
        self.calls = []
        inv, svd = np.linalg.inv, np.linalg.svd

        def logged_inv(a):
            self.calls.append(("inv", a))
            return inv(a)

        def logged_svd(a, full_matrices=True, compute_uv=True, hermitian=False):
            self.calls.append(("svd" if compute_uv else "s", a))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)

        monkeypatch.setattr(np.linalg, "inv", logged_inv)
        monkeypatch.setattr(np.linalg, "svd", logged_svd)

    def of(self, kind):
        return [a for k, a in self.calls if k == kind]


class TestLapackCalls:
    def test_simple_roots_take_no_singular_vectors(self, monkeypatch):
        # 32 simple roots under a similarity of condition up to 1e6, too
        # ill-conditioned for the eigendecomposition to certify: 32 SVDs
        # without vectors, none with (the norm's own SVD comes before the log).
        A = gen_planted_jordan(32, [(z, 1) for z in spread_unimodular(np.random.default_rng(32), 32)], 1e6, 0)
        norm = operator_norm(A)
        log = _LapackLog(monkeypatch)
        mp = minimal_polynomial(A, norm)
        assert len(mp.roots) == 32
        assert not log.of("svd")
        assert len(log.of("s")) == 32

    @pytest.mark.parametrize("seed", range(3))
    def test_certified_roots_take_no_svd(self, monkeypatch, seed):
        # The d32 oblique (32 simple roots, cond cap 50) and the d32 circle
        # shape of the structure-stress benchmark (16 roots of index 1, most
        # of multiplicity 2-4, cond cap 1e2): the eigendecomposition
        # certifies every root, so no SVD runs, and each root of m > 1
        # eigenvalues has the orthonormal Q factor of its eigenvectors.
        oblique = gen_oblique(32, spread_unimodular(np.random.default_rng(32 + seed), 32), 50.0, 32 + seed)
        circle = gen_planted_jordan(32, _shape_roots("circle", (1,) * 16), 1e2, seed)
        for A, roots in ((oblique, 32), (circle, 16)):
            norm = operator_norm(A)
            log = _LapackLog(monkeypatch)
            mp = minimal_polynomial(A, norm)
            monkeypatch.undo()
            assert len(mp.roots) == roots and all(i == 1 for _, i in mp.roots)
            assert not log.of("svd") and not log.of("s")
            for b in mp.bases:
                assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) <= 1e-14 * A.shape[0]
        assert max(b.shape[1] for b in mp.bases) > 1

    @pytest.mark.parametrize("dim, indices, seed, straddling", [
        (16, (4, 2, 2, 1), 0, 0),
        (16, (4, 2, 2, 1), 26, 3),
        (32, (6, 4, 2, 1), 14, 3),
    ])
    def test_merge_checks_take_an_svd_only_when_undecided(self, monkeypatch, dim, indices, seed, straddling):
        # Cond cap 1e6: many checked links, of which the last two shapes
        # have a few whose inverse brackets straddle the threshold (they
        # then raise in a staircase, after every merge check).
        A = gen_planted_jordan(dim, _shape_roots("jordan", indices), 1e6, seed)
        norm = operator_norm(A)
        tol = KERNEL_TOL * dim * norm
        log = _LapackLog(monkeypatch)
        got, _ = _outcome(lambda M: minimal_polynomial(M, norm), A)
        monkeypatch.undo()
        links = log.of("inv")[1:]  # the first inverts the eigenvectors
        assert len(links) >= 4
        undecided = []
        for M in links:
            f = np.linalg.norm(np.linalg.inv(M))
            high, low = decide(np.sqrt(dim) / f, tol), decide(1 / f, tol)
            if high == 0 or low == 2:
                # A decided bracket agrees with the SVD.
                assert (high == 0) == (decide(np.linalg.svd(M, compute_uv=False)[-1], tol) == 0)
            else:
                undecided.append(M)
        assert len(undecided) == straddling
        checked = [a for a in log.of("s") if any(a is M for M in links)]
        assert len(checked) == straddling and all(any(a is M for M in undecided) for a in checked)
        if got is not None:
            # The other SVDs without vectors are the simple roots'.
            assert len(log.of("s")) - len(checked) == sum(b.shape[1] == 1 for b in got.bases)


class TestDecompose:
    def test_dft4_blocks(self):
        F = dft4()
        mp = minimal_polynomial(F)
        D = decompose(F, mp)
        assert sorted(D.block_dims()) == [1, 1, 2]
        assert sum(D.block_dims()) == 4
        # Unitary matrix: spectral projections are orthogonal, c = 1.
        assert D.constant_c == pytest.approx(1.0, abs=1e-10)

    def test_projections_resolve_identity(self):
        A = gen_planted_jordan(6, [(0.8j, 2), (-0.5, 2)], cond_cap=40.0, seed=11)
        mp = minimal_polynomial(A)
        D = decompose(A, mp)
        projections = [b.basis @ b.rows for b in D.blocks]
        assert np.linalg.norm(sum(projections) - np.eye(6)) <= 1e-8
        for P in projections:
            assert np.linalg.norm(P @ P - P) <= 1e-8

    def test_projections_commute_with_matrix(self):
        A = gen_planted_jordan(5, [(1.0, 2), (1j, 1)], cond_cap=25.0, seed=5)
        mp = minimal_polynomial(A)
        D = decompose(A, mp)
        for b in D.blocks:
            P = b.basis @ b.rows
            assert np.linalg.norm(A @ P - P @ A) <= 1e-7

    def test_oblique_constant_sqrt2(self):
        T = canonical_oblique()
        D = decompose(T, minimal_polynomial(T))
        assert D.constant_c == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_lobos_inequality_sampled(self):
        A = gen_planted_jordan(6, [(0.9, 2), (-0.7j, 2)], cond_cap=60.0, seed=2)
        D = decompose(A, minimal_polynomial(A))
        rng = np.random.default_rng(0)
        for _ in range(50):
            parts = [
                b.basis
                @ (rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim))
                for b in D.blocks
            ]
            total = np.linalg.norm(sum(parts))
            for p in parts:
                assert np.linalg.norm(p) <= D.constant_c * total * (1 + 1e-8)

    def test_nonminimal_polynomial_rejected(self):
        # Wrong root: the kernels of A - I and A - 3I, span(e0) and {0},
        # cannot fill the space.
        A = np.diag([1.0, 2.0]).astype(complex)
        bases = (np.eye(2)[:, :1], np.zeros((2, 0), dtype=complex))
        spectra = ((0.0, 1.0), (1.0, 2.0))
        bad = MinimalPoly(roots=((1.0 + 0j, 1), (3.0 + 0j, 1)), degree=2, bases=bases, spectra=spectra)
        with pytest.raises(DecompositionError):
            decompose(A, bad)

    def test_restriction_spectra_singletons(self):
        A = gen_planted_jordan(5, [(0.6 + 0.2j, 2), (-0.4, 1)], cond_cap=30.0, seed=9)
        D = decompose(A, minimal_polynomial(A))
        # The compression of A to each block's basis has only its root.
        for b in D.blocks:
            for z in np.linalg.eigvals(b.basis.conj().T @ A @ b.basis):
                assert abs(z - b.z) <= 1e-6


class TestSerialization:
    def test_minimal_poly_obj(self):
        mp = minimal_polynomial(dft4())
        obj = mp.to_obj()
        assert obj["degree"] == 3
        assert len(obj["roots"]) == 3
        assert all(set(r) == {"z", "index"} for r in obj["roots"])


class TestDecide:
    @pytest.mark.parametrize("threshold", [0.0, 1e-10, 1 + 1e-10, -3.5, 1e300])
    def test_error_zero_is_at_most(self, threshold):
        values = np.array([np.nextafter(threshold, -np.inf), threshold, np.nextafter(threshold, np.inf)])
        for v in values:
            assert decide(v, threshold) == (0 if v <= threshold else 2)
            assert decide(float(v), threshold) == (0 if v <= threshold else 2)
        grades = decide(values, threshold)
        assert grades.dtype.kind == "i"
        assert grades.tolist() == [0, 0, 2]

    @pytest.mark.parametrize("threshold, error", [(0.0, 1e-12), (1e-10, 3e-9), (1.0, 0.25), (-2.0, 1e-3)])
    def test_three_grades(self, threshold, error):
        lo, hi = threshold + error, threshold + GAP * error
        values = np.array([lo, np.nextafter(lo, np.inf), (lo + hi) / 2, hi, np.nextafter(hi, np.inf), np.nan])
        want = [0, 1, 1, 1, 2, 1]
        assert decide(values, threshold, error).tolist() == want
        assert [int(decide(float(v), threshold, error)) for v in values] == want


def test_no_unnamed_decision_literals():
    """No float literal with 0 < |x| < 1e-2 inside a function body of the
    modules that decide or check: each threshold is a named constant."""
    src = Path(aolab.__file__).parent
    found = []
    for name in ("criteria.py", "stability.py", "structure.py", "suites.py", "generators.py"):
        tree = ast.parse((src / name).read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}:{node.lineno} {fn.name}: {node.value!r}"
                    for stmt in fn.body
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < 1e-2
                ]
    assert not found, found


def test_unit_circle_thresholds_have_one_reader():
    """No function of the modules that grade roots names UNIT_TOL,
    CIRCLE_TOL or ZERO_RADIUS but ``Analysis.grading``, and UNIT_TOL also the
    contraction test on ||A||; stability.py imports none of them."""
    src = Path(aolab.__file__).parent
    names = {"UNIT_TOL", "CIRCLE_TOL", "ZERO_RADIUS"}
    allowed = {"grading": names, "contraction": {"UNIT_TOL"}}
    found = []
    for name in ("criteria.py", "stability.py"):
        tree = ast.parse((src / name).read_text())
        found += [
            f"{name}:{node.lineno} import {alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in names
        ]
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}:{node.lineno} {fn.name}: {ident}"
                    for stmt in fn.body
                    for node in ast.walk(stmt)
                    for ident in [getattr(node, "id", None) or getattr(node, "attr", None)]
                    if ident in names and ident not in allowed.get(fn.name, ())
                ]
    assert not found, found


def test_runconfig_is_the_only_dataclass():
    """The records are named tuples: a dataclass generates and compiles its
    methods at import, which cost most of the package's import time."""
    found = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(aolab.__path__)
        for name, obj in vars(importlib.import_module(f"aolab.{info.name}")).items()
        if isinstance(obj, type) and obj.__module__ == f"aolab.{info.name}" and dataclasses.is_dataclass(obj)
    ]
    assert found == ["config.RunConfig"]
