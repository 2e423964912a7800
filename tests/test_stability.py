"""Growth bounds, stability taxonomy, normal limits, root limits."""

import numpy as np
import pytest

from aolab import criteria
from aolab.config import RunConfig
from aolab.criteria import POWER_STEPS, Analysis, theorem_check
from aolab.errors import InconsistencyError, InvalidInputError, OutOfScopeError
from aolab.generators import (
    canonical_oblique,
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_planted_jordan,
    gen_unitary_finite_spectrum,
    haar_unitary,
)
from aolab.linalg import operator_norm
from aolab.stability import (
    growth_bound,
    growth_csv_rows,
    normal_limit,
    normaloid_equivalence,
    orbit_root_limit,
    uniform_stability,
)


class TestGrowthBound:
    def test_jordan_block_linear_growth(self):
        A = np.array([[1, 1], [0, 1]], dtype=complex)
        gb = growth_bound(A)
        assert gb.kappa == 1
        assert gb.spectral_radius == pytest.approx(1.0, abs=1e-10)
        assert gb.max_violation_ratio <= 1 + 1e-8
        # The bound must actually dominate: ||A^n|| ~ n but alpha n r^n
        # with alpha >= 2 covers it.
        assert gb.alpha * 1000 >= operator_norm(np.linalg.matrix_power(A, 1000))

    def test_diagonalizable_kappa_from_degree(self):
        # kappa is deg p - 1 even when the matrix is diagonalizable; the
        # bound is then slack but still certified.
        A = dft4()
        gb = growth_bound(A)
        assert gb.kappa == 2
        assert gb.valid_from == 1
        assert gb.max_violation_ratio <= 1 + 1e-8

    def test_nilpotent_valid_from_degree(self):
        A = np.zeros((3, 3), dtype=complex)
        A[0, 1] = A[1, 2] = 2.0
        gb = growth_bound(A)
        assert gb.spectral_radius == pytest.approx(0.0, abs=1e-10)
        assert gb.valid_from == 3
        assert gb.max_violation_ratio == 0.0

    def test_contractive_planted(self):
        A = gen_planted_jordan(5, [(0.6, 3), (0.3j, 1)], cond_cap=40.0, seed=4)
        gb = growth_bound(A)
        assert gb.spectral_radius == pytest.approx(0.6, abs=1e-8)
        assert gb.kappa == 3
        assert gb.max_violation_ratio <= 1 + 1e-8

    def test_expansive_out_of_scope(self):
        with pytest.raises(OutOfScopeError):
            growth_bound(1.5 * np.eye(2))

    def test_projection_norms_from_decomposition(self, monkeypatch):
        # alpha reads each ||P_j|| off its block: growth_bound takes norms
        # of the 2- and 4-dim blocks only, none of a 6 x 6 matrix.
        A = gen_planted_jordan(6, [(0.8j, 2), (-0.5, 2)], cond_cap=40.0, seed=11)
        an = Analysis(A)
        for b in an.decomposition.blocks:
            assert b.projection_norm == pytest.approx(operator_norm(b.projection), rel=1e-12)
        an.power_logs
        norm = np.linalg.norm

        def block_norm(M, *args, **kwargs):
            assert np.shape(M) != (6, 6), "growth_bound took a 6 x 6 norm"
            return norm(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", block_norm)
        assert growth_bound(an).max_violation_ratio <= 1 + 1e-8

    @pytest.mark.parametrize("name", ["jordan2", "planted", "oblique", "dft4", "contraction"])
    def test_violation_ratio_matches_loop(self, name):
        # The per-n reference loop; the vector form does the same
        # arithmetic, so the ratio must match bit for bit.
        A = {
            "jordan2": np.array([[1, 1], [0, 1]], dtype=complex),
            "planted": gen_planted_jordan(6, [(0.8j, 2), (-0.5, 2)], cond_cap=40.0, seed=11),
            "oblique": canonical_oblique(),
            "dft4": dft4(),
            "contraction": 0.5 * dft4(),
        }[name]
        an = Analysis(A)
        gb = growth_bound(an)
        worst = -np.inf
        for n in range(1, POWER_STEPS + 1):
            log_bound = np.log(gb.alpha) + gb.kappa * np.log(n) + n * np.log(gb.spectral_radius)
            if np.isfinite(an.power_logs[n - 1]):
                worst = max(worst, an.power_logs[n - 1] - log_bound)
        assert gb.max_violation_ratio == float(np.exp(worst))

    @pytest.mark.parametrize("big", [1e110, 1e200])
    def test_nilpotent_huge_entries(self, big):
        # ||A||^deg p passes the float range from 1e103 on; the check that
        # the powers vanish must not overflow.
        gb = growth_bound(big * np.eye(3, k=1, dtype=complex))
        assert (gb.valid_from, gb.spectral_radius, gb.max_violation_ratio) == (3, 0.0, 0.0)

    def test_nilpotent_power_names_first_n(self):
        # Powers must vanish from n = deg p = 3 on; the message names the
        # first n at which one does not (n = 1 comes before deg p).
        an = Analysis(np.eye(3, k=1, dtype=complex))
        logs = np.full(POWER_STEPS, -np.inf)
        logs[[0, 4, 6]] = 0.0
        an.power_logs = logs
        with pytest.raises(InconsistencyError, match="nonzero power at n=5$"):
            growth_bound(an)

    def test_csv_rows_shape(self):
        A = canonical_oblique()
        gb = growth_bound(A)
        rows = list(growth_csv_rows(A, gb))
        assert len(rows) == POWER_STEPS
        for n, nrm, bound in rows:
            if n >= gb.valid_from:
                assert nrm <= bound * (1 + 1e-8)


class TestNormalLimit:
    def test_projection_identity(self):
        # Normal contraction: limit ||A^n h||^2 = <Q h, h>.
        rng = np.random.default_rng(3)
        U = haar_unitary(4, rng)
        A = U @ np.diag([1.0, -1.0, 0.5, 0.3]).astype(complex) @ U.conj().T
        Q = U[:, :2] @ U[:, :2].conj().T
        for t in range(5):
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            q = normal_limit(A, h)
            assert q == pytest.approx(float(np.real(np.vdot(h, Q @ h))), abs=1e-9)

    def test_columns_match_single_calls(self):
        # The values come from Q column by column, so they are exact.
        rng = np.random.default_rng(3)
        U = haar_unitary(4, rng)
        normal = U @ np.diag([1.0, -1.0, 0.5, 0.3]).astype(complex) @ U.conj().T
        for A in (normal, 0.5 * np.eye(3, dtype=complex), dft4()):
            d = A.shape[0]
            H = rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))
            H[:, 0] = np.ones(d)
            q = normal_limit(A, H)
            assert q.shape == (5,)
            assert np.array_equal(q, [normal_limit(A, H[:, j]) for j in range(5)])
            H[:, 3] = 0.0
            with pytest.raises(InvalidInputError):
                normal_limit(A, H)

    def test_tolerance_scales_with_norm_squared(self):
        # An absolute 1e-6 cross-check raised on 1e3 h: both sides of it
        # scale with ||h||^2.
        rng = np.random.default_rng(3)
        U = haar_unitary(6, rng)
        A = U @ np.diag([1, 1j, -1, 0.99, 0.5, 0.2]).astype(complex) @ U.conj().T
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        q = normal_limit(A, h)
        for scale in (1e3, 1e6):
            assert normal_limit(A, scale * h) == pytest.approx(scale**2 * q, rel=1e-12)

    def test_strictly_stable_limit_zero(self):
        A = 0.5 * np.eye(3, dtype=complex)
        assert normal_limit(A, np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_limit_full_norm(self):
        A = dft4()
        h = np.array([1.0, 0, 0, 0], dtype=complex)
        assert normal_limit(A, h) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_nonnormal(self):
        J = np.array([[1, 1], [0, 1]], dtype=complex)
        for A in (J, 0.5 * J):  # the second is a contraction
            with pytest.raises(InvalidInputError):
                normal_limit(A, np.ones(2))

    def test_rejects_expansive(self):
        # diag(1e200, 0.5) is rejected before its normality products overflow
        # (a RuntimeWarning fails the test).
        for A in (2 * np.eye(2), np.diag([1e200, 0.5])):
            with pytest.raises(InvalidInputError):
                normal_limit(A, np.ones(2))


class TestNormaloidEquivalence:
    def test_unitary_agrees_true(self):
        rep = normaloid_equivalence(dft4(), RunConfig(seed=0))
        assert rep.all_agree()
        assert rep.orbits_convergent and rep.power_bounded and rep.contraction

    def test_close_unitary_roots_agree_true(self):
        A = gen_unitary_finite_spectrum(4, [1, np.exp(1e-7j)], 0)
        rep = normaloid_equivalence(A, RunConfig(seed=0))
        assert rep.orbits_convergent and rep.power_bounded and rep.contraction

    def test_expansive_normaloid_agrees_false(self):
        A = gen_normaloid_nonnormal(5, seed=1, target_norm=3.0)
        rep = normaloid_equivalence(A, RunConfig(seed=0))
        assert rep.all_agree()
        assert not rep.contraction

    def test_orbit_verdict_is_structural(self, monkeypatch):
        # With a negative margin threshold dft4's orthogonal eigenspaces
        # count as overlapping; every probe still converges.  A verdict
        # taken from the probes alone would pass.
        monkeypatch.setattr(criteria, "COMPONENT_TOL", -1.0)
        with pytest.raises(InconsistencyError, match="orbit convergence"):
            normaloid_equivalence(dft4(), RunConfig(seed=0))

    def test_rejects_nonnormaloid(self):
        with pytest.raises(InvalidInputError):
            normaloid_equivalence(canonical_oblique(), RunConfig(seed=0))


class TestUniformStability:
    def test_long_n_max_needs_no_long_trajectory(self, monkeypatch):
        # The decay cross-check reads log ||A^n||_F at n_max and n_max/2 + 1
        # off the probe batch, not off a trajectory of n_max steps.
        steps = []
        trajectory = criteria.power_log_norms
        monkeypatch.setattr(
            criteria, "power_log_norms", lambda A, n_max: steps.append(n_max) or trajectory(A, n_max)
        )
        cfg = RunConfig(n_max=5000, seed=0)
        v = uniform_stability(Analysis(dft4()), cfg)
        assert v.power_bounded and not v.uniformly_stable
        v = uniform_stability(Analysis(0.5 * dft4()), cfg)
        assert v.uniformly_stable and v.strongly_stable
        assert steps == []

    def test_decay_check_reads_frobenius_norms(self):
        # r < 1 must show as log ||A^n||_F falling from n_max/2 + 1 to
        # n_max: a radius misread below 1 on a unitary raises, and the zero
        # powers of a nilpotent count as falling.
        an = Analysis(dft4())
        an.spectral_radius = 0.5
        with pytest.raises(InconsistencyError, match="do not decay"):
            uniform_stability(an, RunConfig(seed=0))
        assert uniform_stability(np.eye(3, k=1, dtype=complex), RunConfig(seed=0)).uniformly_stable

    def test_strict_contraction(self):
        v = uniform_stability(0.5 * dft4(), RunConfig(seed=0))
        assert v.uniformly_stable and v.strongly_stable and v.power_bounded

    def test_unitary_not_stable_but_bounded(self):
        v = uniform_stability(dft4(), RunConfig(seed=0))
        assert not v.uniformly_stable and not v.strongly_stable
        assert v.power_bounded

    def test_jordan_at_one_unbounded(self):
        A = np.array([[1, 1], [0, 1]], dtype=complex)
        v = uniform_stability(A, RunConfig(seed=0))
        assert not v.uniformly_stable and not v.power_bounded

    @pytest.mark.parametrize(
        "A",
        [dft4(), canonical_oblique(), np.diag([1e200, 0.5]).astype(complex),
         gen_normaloid_nonnormal(8, 0, 3.0)],
        ids=["dft4", "oblique", "diag-1e200", "normaloid-3"],
    )
    def test_shared_probe_orbits_match_fresh_analysis(self, A):
        # theorem_check and uniform_stability read one cached probe batch;
        # a reader that writes into it, or a cache keyed on the wrong thing,
        # makes a later stage or seed differ from a fresh Analysis.
        an = Analysis(A)
        for cfg in (RunConfig(seed=0), RunConfig(seed=7)):
            for stage in (theorem_check, uniform_stability):
                assert stage(an, cfg).to_obj() == stage(Analysis(A), cfg).to_obj(), (stage, cfg.seed)

    def test_mixed_spectrum_power_bounded_not_stable(self):
        A = gen_planted_jordan(4, [(1.0, 1), (0.4, 2)], cond_cap=20.0, seed=6)
        v = uniform_stability(A, RunConfig(seed=0))
        assert not v.uniformly_stable
        assert v.power_bounded and not v.strongly_stable


class TestOrbitRootLimit:
    def test_diagonal_dominant_modulus(self):
        A = np.diag([0.9, 0.5]).astype(complex)
        rho = orbit_root_limit(A, np.array([1.0, 1.0]))
        assert rho == pytest.approx(0.9, abs=1e-3)

    def test_probe_outside_dominant_eigenspace(self):
        A = np.diag([0.9, 0.5]).astype(complex)
        rho = orbit_root_limit(A, np.array([0.0, 1.0]))
        assert rho == pytest.approx(0.5, abs=1e-3)

    def test_unitary_orbit_limit_one(self):
        A = gen_unitary_finite_spectrum(4, [1j, -1], seed=5)
        rng = np.random.default_rng(2)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert orbit_root_limit(A, h) == pytest.approx(1.0, abs=1e-3)

    def test_defective_root_polynomial_factor_removed(self):
        A = gen_planted_jordan(4, [(0.7, 3)], cond_cap=20.0, seed=8)
        h = np.ones(4, dtype=complex)
        assert orbit_root_limit(A, h) == pytest.approx(0.7, abs=1e-3)

    def test_columns_match_single_calls(self):
        # Several columns advance by one matrix product where one column
        # takes a matrix-vector product.  At the index-3 root the two
        # orbits differ by up to 5e-10 in log-norm and the fitted roots by
        # up to 1.3e-12; at the others they agree to 1e-14.
        rng = np.random.default_rng(2)
        for A in (
            np.diag([0.9, 0.5]).astype(complex),
            gen_unitary_finite_spectrum(4, [1j, -1], seed=5),
            gen_planted_jordan(4, [(0.7, 3)], cond_cap=20.0, seed=8),
        ):
            d = A.shape[0]
            H = rng.standard_normal((d, 4)) + 1j * rng.standard_normal((d, 4))
            H[:, 1] = np.eye(d)[:, -1]
            rho = orbit_root_limit(A, H)
            single = [orbit_root_limit(A, H[:, j]) for j in range(4)]
            assert rho.shape == (4,)
            assert np.allclose(rho, single, rtol=0, atol=1e-11)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            orbit_root_limit(np.eye(2), np.zeros(2))
        with pytest.raises(InvalidInputError):
            orbit_root_limit(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]))
