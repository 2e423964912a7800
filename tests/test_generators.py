"""Instance generators: fixtures, spectra, determinism, input checks."""

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
