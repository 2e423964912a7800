"""Instance generators: fixtures, spectra, determinism, input checks."""

import math

import numpy as np
import pytest

from aolab import criteria
from aolab.criteria import Analysis, is_normaloid, is_unitary
from aolab.errors import InvalidInputError
from aolab.generators import (
    SQRT2,
    canonical_oblique,
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_planted_jordan,
    gen_scalar_rotation,
    gen_unitary_finite_spectrum,
    haar_unitary,
)
from aolab.linalg import operator_norm
from aolab.structure import minimal_polynomial


class TestFixtures:
    def test_dft4_is_unitary_and_order_four(self):
        F = dft4()
        assert is_unitary(F)
        assert np.linalg.norm(np.linalg.matrix_power(F, 4) - np.eye(4)) <= 1e-12
        # F^2 is the frequency-reversal permutation.
        P = np.zeros((4, 4))
        P[0, 0] = P[2, 2] = P[1, 3] = P[3, 1] = 1.0
        assert np.linalg.norm(np.linalg.matrix_power(F, 2) - P) <= 1e-12

    def test_canonical_oblique_involution(self):
        T = canonical_oblique()
        assert np.array_equal(T, np.array([[1, -2], [0, -1]], dtype=complex))
        assert np.linalg.norm(T @ T - np.eye(2)) == 0.0
        assert not is_unitary(T)


class TestHaarUnitary:
    def test_unitary_and_deterministic(self):
        U1 = haar_unitary(6, np.random.default_rng(42))
        U2 = haar_unitary(6, np.random.default_rng(42))
        assert np.array_equal(U1, U2)
        assert is_unitary(U1)


class TestUnitaryFiniteSpectrum:
    def test_listed_eigenvalues_present(self):
        vals = [1.0, -1.0, 1j]
        A = gen_unitary_finite_spectrum(6, vals, seed=9)
        assert is_unitary(A)
        got = np.linalg.eigvals(A)
        for v in vals:
            assert min(abs(z - v) for z in got) <= 1e-10

    def test_rejects_nonunimodular(self):
        with pytest.raises(InvalidInputError):
            gen_unitary_finite_spectrum(3, [0.5], seed=0)

    def test_rejects_too_many_values(self):
        with pytest.raises(InvalidInputError):
            gen_unitary_finite_spectrum(2, [1, -1, 1j], seed=0)


class TestOblique:
    def test_power_bounded_not_unitary(self):
        vals = [np.exp(2j * np.pi * k / 5) for k in range(5)]
        A = gen_oblique(5, vals, cond_cap=50.0, seed=3)
        assert not is_unitary(A)
        for z in np.linalg.eigvals(A):
            assert abs(abs(z) - 1) <= 1e-8

    def test_accepts_on_the_gram_test_alone(self, monkeypatch):
        # S = U diag(linspace(1, cond)) V^H has sigma_min = 1, so an 80
        # degree column pair already rules out a unitary S and a unitary A.
        vals = [np.exp(2j * np.pi * k / 6) for k in range(6)]

        def draws():
            return [gen_oblique(6, vals, cap, seed).tobytes() for cap in (1.5, 50.0, 1e6) for seed in range(3)]

        def refuse(A):
            raise AssertionError("gen_oblique called is_unitary")

        want = draws()
        monkeypatch.setattr(criteria, "is_unitary", refuse)
        assert draws() == want

    def test_fixture_special_case(self):
        assert np.array_equal(gen_oblique(2, [1, -1], seed=0), canonical_oblique())

    def test_fixture_only_within_its_cap(self):
        # The fixture's S has cond 2.618: cap 1 draws a unitary S, hence a
        # unitary output, and a cap below 2.618 draws like any other spec.
        assert is_unitary(gen_oblique(2, [1, -1], 1.0, 0))
        for cap in (1.5, 2.6):
            assert not np.array_equal(gen_oblique(2, [1, -1], cap, 0), canonical_oblique())
        assert np.array_equal(gen_oblique(2, [1, -1], 2.62, 0), canonical_oblique())

    def test_rejects_repeated_eigenvalues(self):
        with pytest.raises(InvalidInputError):
            gen_oblique(2, [1.0, 1.0], seed=0)

    def test_rejects_cond_cap_past_inverse_eps(self):
        # cond(S) = 1e16 puts the rounding of S at its smallest singular value.
        with pytest.raises(InvalidInputError, match="cond_cap 1e\\+16 leaves S singular"):
            gen_oblique(3, [1, 1j, -1], cond_cap=1e16, seed=0)

    def test_rejects_cond_cap_below_one(self):
        with pytest.raises(InvalidInputError):
            gen_oblique(2, [1, -1], cond_cap=0.5, seed=0)


class TestJordanPerturbation:
    def test_square_zero_and_norm(self):
        A = gen_jordan_perturbation(6, 1j, 2.5, seed=4)
        N = A - 1j * np.eye(6)
        assert np.linalg.norm(N @ N) <= 1e-10
        assert operator_norm(N) == pytest.approx(2.5, rel=1e-10)
        mp = minimal_polynomial(A)
        assert mp.degree == 2 and mp.roots[0][1] == 2

    def test_rejects_nonunimodular_alpha(self):
        with pytest.raises(InvalidInputError):
            gen_jordan_perturbation(2, 2.0)


class TestScalarRotation:
    def test_rotation_matrix(self):
        A = gen_scalar_rotation(3, SQRT2)
        z = np.exp(2j * np.pi * SQRT2)
        assert np.linalg.norm(A - z * np.eye(3)) <= 1e-12
        assert is_unitary(A)


class TestNormaloidNonnormal:
    def test_normaloid_not_normal(self):
        A = gen_normaloid_nonnormal(6, seed=2, target_norm=2.0)
        assert is_normaloid(A)
        assert operator_norm(A) == pytest.approx(2.0, rel=1e-8)
        assert Analysis(A).spectral_radius == pytest.approx(2.0, rel=1e-8)
        comm = A @ A.conj().T - A.conj().T @ A
        assert np.linalg.norm(comm) > 1e-6

    def test_min_dim(self):
        with pytest.raises(InvalidInputError):
            gen_normaloid_nonnormal(2)


class TestPlantedJordan:
    def test_structure_recovered(self):
        roots = [(0.4 + 0.5j, 2), (-0.8, 1)]
        A = gen_planted_jordan(5, roots, cond_cap=30.0, seed=12)
        mp = minimal_polynomial(A)
        got = sorted(
            ((round(z.real, 6), round(z.imag, 6)), i) for z, i in mp.roots
        )
        assert got == [((-0.8, 0.0), 1), ((0.4, 0.5), 2)]

    def test_rejects_overfull(self):
        with pytest.raises(InvalidInputError):
            gen_planted_jordan(3, [(1.0, 4)])

    def test_deterministic(self):
        roots = [(0.2j, 2)]
        A = gen_planted_jordan(4, roots, seed=5)
        B = gen_planted_jordan(4, roots, seed=5)
        assert np.array_equal(A, B)

    def test_rejects_cond_cap_past_inverse_eps(self):
        # The refusal gen_oblique makes: at cap 1e16 the output's roots lie
        # far from the planted 0.5 and 0.25 (modulus 2.6e6 at seed 0).
        with pytest.raises(InvalidInputError, match="cond_cap 1e\\+16 leaves S singular"):
            gen_planted_jordan(4, [(0.5, 1), (0.25, 1)], 1e16, 0)


def _frozen_oblique(dim, vals, cond_cap, seed):
    """gen_oblique past its argument checks and fixture, with its own draw of
    S, as it was before the similarity draw was shared."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / SQRT2
        U, _, Vh = np.linalg.svd(Z)
        if cond_cap > 1:
            cond = rng.uniform(min(2.0, cond_cap), cond_cap)
            s = np.linspace(1.0, cond, dim)
        else:
            s = np.ones(dim)
        S = U @ np.diag(s) @ Vh
        A = S @ np.diag(vals) @ np.linalg.inv(S)
        if cond_cap == 1:
            return A
        cols = S / np.linalg.norm(S, axis=0)
        if np.abs(cols.conj().T @ cols - np.eye(dim)).max() >= math.cos(math.radians(80.0)):
            return A
    return None  # gen_oblique raises here


def _frozen_planted(dim, roots, cond_cap, seed):
    """gen_planted_jordan past its argument checks, with its own draw of S."""
    rng = np.random.default_rng(seed)
    J = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for z, i in roots:
        J[pos:pos + i, pos:pos + i] = z * np.eye(i) + np.diag(np.ones(i - 1), 1)
        pos += i
    while pos < dim:
        z, _ = roots[rng.integers(len(roots))]
        J[pos, pos] = z
        pos += 1
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / SQRT2
    U, _, Vh = np.linalg.svd(Z)
    if cond_cap > 1 and dim > 1:
        cond = rng.uniform(1.0, cond_cap)
        s = np.linspace(1.0, cond, dim)
    else:
        s = np.ones(dim)
    S = U @ np.diag(s) @ Vh
    return S @ J @ np.linalg.inv(S)


def test_shared_similarity_draw_keeps_the_bits():
    # Both float generators draw S through one helper; below cap 1 / eps
    # they return the bits of their own former draws, and gen_oblique
    # fails where its former loop found no oblique S.  At dim 1 past cap 1
    # that is every draw, as one column is its own Gram matrix, so the
    # former loop is not rerun there.
    for dim in range(1, 17):
        vals = list(np.exp(2j * np.pi * (np.arange(dim) + 0.5) / dim))
        roots = [(0.5, min(dim, 2))] + ([(0.25j, 1)] if dim >= 3 else [])
        for cap in (1.0, 1.5, 2.0, 50.0, 1e4, 1e8, 1e12):
            for seed in range(6):
                want = None if dim == 1 < cap else _frozen_oblique(dim, vals, cap, seed)
                if want is None:
                    with pytest.raises(InvalidInputError, match="failed to sample an oblique similarity"):
                        gen_oblique(dim, vals, cap, seed)
                else:
                    assert np.array_equal(gen_oblique(dim, vals, cap, seed), want)
                want = _frozen_planted(dim, [(complex(z), i) for z, i in roots], cap, seed)
                assert np.array_equal(gen_planted_jordan(dim, roots, cap, seed), want)
