"""Minimal polynomials, generalized eigenspace decompositions and the
decision rule."""

import ast
import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import aolab
from aolab.errors import DecompositionError, IllConditionedSpectrumError, InvalidInputError
from aolab.generators import canonical_oblique, dft4, gen_planted_jordan, spread_unimodular
from aolab.linalg import operator_norm
from aolab.structure import (
    GAP,
    MinimalPoly,
    decide,
    decompose,
    minimal_polynomial,
    minimal_poly_to_obj,
)


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
        mp = MinimalPoly(roots=((2.0 + 0j, 2),), degree=2, bases=(np.eye(2)[:, :1],), spectra=(np.array([1.0, 0.0]),))
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
        total = sum(b.projection for b in D.blocks)
        assert np.linalg.norm(total - np.eye(6)) <= 1e-8
        for b in D.blocks:
            assert np.linalg.norm(b.projection @ b.projection - b.projection) <= 1e-8

    def test_projections_commute_with_matrix(self):
        A = gen_planted_jordan(5, [(1.0, 2), (1j, 1)], cond_cap=25.0, seed=5)
        mp = minimal_polynomial(A)
        D = decompose(A, mp)
        for b in D.blocks:
            assert np.linalg.norm(A @ b.projection - b.projection @ A) <= 1e-7

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
        spectra = (np.array([1.0, 0.0]), np.array([2.0, 1.0]))
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
        obj = minimal_poly_to_obj(mp)
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
    modules that decide: each threshold is a named constant."""
    src = Path(aolab.__file__).parent
    found = []
    for name in ("criteria.py", "stability.py", "structure.py"):
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
