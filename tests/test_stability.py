"""Growth bounds, stability taxonomy, normal limits, root limits."""

import math
import re
import warnings

import numpy as np
import pytest

from aolab import criteria, stability
from aolab.config import RunConfig
from aolab.criteria import POWER_STEPS, Analysis, power_log_norms, theorem_check
from aolab.errors import InconsistencyError, InvalidInputError, OutOfScopeError
from aolab.generators import (
    canonical_oblique,
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
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
from aolab.structure import Block, Decomposition, MinimalPoly


def _jordan_block(z, c, k):
    """z I + c J on dim k, J the shift."""
    return (z * np.eye(k) + c * np.eye(k, k=1)).astype(complex)


# Matrices whose largest growth-bound ratio is checked against the full
# trajectory: (matrix, the n that holds it or None).
_RATIO_CASES = {
    "jordan2": lambda: (np.array([[1, 1], [0, 1]], dtype=complex), None),
    "planted": lambda: (gen_planted_jordan(6, [(0.8j, 2), (-0.5, 2)], cond_cap=40.0, seed=11), None),
    "oblique": lambda: (canonical_oblique(), None),
    "dft4": lambda: (dft4(), None),
    "contraction": lambda: (0.5 * dft4(), None),
    # 0.99 I + 30 J: the ratio rises to the last power.
    "jordan-argmax-1000": lambda: (_jordan_block(0.99, 30, 4), 1000),
    # A 6-block at 0.99 beside the root 0.5, which raises kappa by one: the
    # ratio peaks past the first ten powers.
    "jordan-argmax-13": lambda: (np.pad(_jordan_block(0.99, 10, 6), (0, 1)) + np.diag([0] * 6 + [0.5]), 13),
    "unitary-d8": lambda: (gen_unitary_finite_spectrum(8, [1, 1j, -1, -1j], 3), None),
    "oblique-d8": lambda: (gen_oblique(8, np.exp(2j * np.pi * (np.arange(8) + 0.1) / 8), 50.0, 3), None),
    "planted-d8": lambda: (gen_planted_jordan(8, [(0.9j, 3), (-0.7, 2), (0.5, 1)], 100.0, 3), None),
    "jordan-d8": lambda: (gen_jordan_perturbation(8, np.exp(0.7j), 1.5, 3), None),
    "jordan-d16": lambda: (gen_jordan_perturbation(16, np.exp(2.1j), 2.5, 4), None),
    # At cap 1e6 the ||P_j|| are large and the recursion bound loose: a bare
    # call forms all POWER_STEPS powers.
    "planted-d8-cap1e6": lambda: (
        gen_planted_jordan(8, [(0.95 * np.exp(1j), 2), (np.exp(0.5j), 1), (0.5j, 1)], 1e6, 4), None),
}

# alpha I + N with N^2 = 0, where ||A^n||_F overstates ||A^n||_2 by about
# sqrt(rank N).  The name suffixes record the per-power level of the growth
# check that once ruled out most of their powers: the Frobenius norm of the
# power, or a Schatten norm (q = 0..2).  Both are gone; the block recursion
# rules out every n > 10.
_JORDAN_CASES = {
    "jordan-d16-fro": lambda: gen_jordan_perturbation(16, np.exp(1j), 0.7, 0),
    "jordan-d16-q0": lambda: gen_jordan_perturbation(16, np.exp(1j), 2.9, 0),
    "jordan-d32-q1": lambda: gen_jordan_perturbation(32, np.exp(1j), 2.9, 0),
    "jordan-d64-q2": lambda: gen_jordan_perturbation(64, np.exp(1j), 2.9, 0),
}


def _spy_powers(monkeypatch):
    """The n_max of every ``power_log_norms`` call, as they happen."""
    asked = []
    trajectory = criteria.power_log_norms
    monkeypatch.setattr(criteria, "power_log_norms", lambda A, n_max: asked.append(n_max) or trajectory(A, n_max))
    return asked


def _full_ratio(A, gb):
    """exp of the largest log ||A^n|| - log bound_n over all POWER_STEPS
    powers, as growth_bound rounds it, and the n that holds it."""
    n = np.arange(1, POWER_STEPS + 1)
    log_bound = np.log(gb.alpha) + gb.kappa * np.log(n) + n * np.log(gb.spectral_radius)
    logs = power_log_norms(A, POWER_STEPS)
    return float(np.exp(stability._worst_excess(logs, log_bound))), int(np.argmax(logs - log_bound)) + 1


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
        an = Analysis(A, RunConfig(seed=0))
        for b in an.decomposition.blocks:
            assert b.projection_norm == pytest.approx(operator_norm(b.projection), rel=1e-12)
        an.power_logs()
        norm = np.linalg.norm

        def block_norm(M, *args, **kwargs):
            assert np.shape(M) != (6, 6), "growth_bound took a 6 x 6 norm"
            return norm(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", block_norm)
        assert growth_bound(an).max_violation_ratio <= 1 + 1e-8

    @pytest.mark.parametrize("name", [*_RATIO_CASES, *_JORDAN_CASES])
    def test_violation_ratio_matches_loop(self, name):
        # The per-n reference loop over the full trajectory; growth_bound
        # forms only a prefix of it, so the ratio must match bit for bit.
        A, argmax = (_JORDAN_CASES[name](), None) if name in _JORDAN_CASES else _RATIO_CASES[name]()
        gb = growth_bound(Analysis(A, RunConfig(seed=0)))
        logs = power_log_norms(A, POWER_STEPS)
        worst, at = -np.inf, None
        for n in range(1, POWER_STEPS + 1):
            log_bound = np.log(gb.alpha) + gb.kappa * np.log(n) + n * np.log(gb.spectral_radius)
            if np.isfinite(logs[n - 1]) and logs[n - 1] - log_bound > worst:
                worst, at = logs[n - 1] - log_bound, n
        assert gb.max_violation_ratio == float(np.exp(worst))
        if argmax is not None:
            assert at == argmax

    @pytest.mark.parametrize("name", [*_RATIO_CASES, *_JORDAN_CASES])
    def test_certified_maximum_matches_trajectory(self, name, monkeypatch):
        # With the probe batch propagated, as without, growth_bound reads
        # the powers up to the last n that the recursion leaves in play:
        # first ten, then at most one longer prefix, which holds the argmax
        # of the full trajectory.  The ratio is the full maximum bit for bit.
        A = _JORDAN_CASES[name]() if name in _JORDAN_CASES else _RATIO_CASES[name]()[0]
        want, at = _full_ratio(A, growth_bound(A))
        an = Analysis(A, RunConfig(seed=0))
        an.orbits
        asked = _spy_powers(monkeypatch)
        assert growth_bound(an).max_violation_ratio == want
        assert asked[0] == 10 and len(asked) <= 2 and max(asked) >= at

    @pytest.mark.parametrize("seed", range(3))
    def test_certified_maximum_under_any_bound(self, seed):
        # A bound of log ||A^n|| plus a random offset in [0, 1) on a jordan
        # d16 matrix: the argmax lies anywhere, and the prefix that the
        # recursion leaves in play, as growth_bound cuts it, still holds it.
        A = gen_jordan_perturbation(16, np.exp(1j), 2.9, seed)
        logs = power_log_norms(A, POWER_STEPS)
        log_bound = logs + np.random.default_rng(seed).random(POWER_STEPS)
        want = stability._worst_excess(logs, log_bound)
        upper = stability.recursion_log_norms(Analysis(A), POWER_STEPS) - log_bound
        m = stability._reach(upper, want - stability._RECURSION_SLACK)
        assert stability._worst_excess(logs[:m], log_bound) == want

    @pytest.mark.parametrize("c", 10.0 ** np.arange(-13, 4))
    def test_zero_radius_scales_below_unit_norm(self, c):
        # No root of c dft4 is 0 at any scale: ||A^n|| = c^n never vanishes.
        an = Analysis(c * dft4())
        assert not an.grading.zero.any()
        if c > 1:
            with pytest.raises(OutOfScopeError):
                growth_bound(an)
        else:
            gb = growth_bound(an)
            assert gb.spectral_radius == pytest.approx(c, rel=1e-12) and gb.valid_from == 1

    @pytest.mark.parametrize("c", 10.0 ** np.arange(-12, 7))
    def test_scaled_shift_stays_nilpotent(self, c):
        gb = growth_bound(c * np.eye(3, k=1, dtype=complex))
        assert (gb.spectral_radius, gb.valid_from, gb.max_violation_ratio) == (0.0, 3, 0.0)

    @pytest.mark.parametrize("A, r", [([[1, 1e150], [0, 1]], 1.0), ([[0.5, 1e305], [0, 0.5]], 0.5)])
    def test_zero_radius_absolute_above_unit_norm(self, A, r):
        # A radius of 1e-12 ||A|| would read these exact roots as 0 and the
        # matrices as nilpotent.
        assert growth_bound(np.array(A, dtype=complex)).spectral_radius == r

    @pytest.mark.parametrize("big", [1e110, 1e200])
    def test_nilpotent_huge_entries(self, big):
        # ||A||^deg p passes the float range from 1e103 on; the check that
        # the powers vanish must not overflow.
        gb = growth_bound(big * np.eye(3, k=1, dtype=complex))
        assert (gb.valid_from, gb.spectral_radius, gb.max_violation_ratio) == (3, 0.0, 0.0)

    def test_nilpotent_power_names_first_n(self):
        # Powers must vanish from n = deg p = 3 on; the message names the
        # first n at which one does not.  c J_3 + t e4 e4^H, read as
        # nilpotent of degree 3: from n = 3 on ||A^n|| = t^n, against the
        # threshold 1e-10 c^3 = 1e20.3, so n = 3 and 4 pass and n = 5 does
        # not (n = 1 and 2 come before deg p).
        A = np.zeros((4, 4), dtype=complex)
        A[0, 1] = A[1, 2] = 10**10.1
        A[3, 3] = 1e5
        an = Analysis(A)
        an.minpoly = MinimalPoly(roots=((0j, 3),), degree=3, bases=(np.eye(4)[:, :3],),
                                 spectra=(np.linalg.svd(A, compute_uv=False),))
        # A decomposition with ||I - sum_j P_j||_F = 2: the recursion rules
        # no power out.
        block = Block(z=0j, index=3, basis=np.eye(4)[:, :3], projection=np.zeros((4, 4)), projection_norm=1.0)
        an.decomposition = Decomposition(blocks=(block,), constant_c=1.0)
        with pytest.raises(InconsistencyError, match="nonzero power at n=5$"):
            growth_bound(an)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_planted_nilpotent_forms_at_most_ten_powers(self, dim, monkeypatch):
        # Planted nilpotent matrices (index 1 is the zero matrix), 2 J_3 and
        # J_3 at 1e110 and 1e200: the recursion rules out every n > 10, and
        # the verdict is that of the vanishing check on all POWER_STEPS
        # powers.
        indices = sorted({1, 2, 3, dim // 2, min(dim, 20)}) if dim > 2 else [1, 2]
        cases = [gen_planted_jordan(dim, [(0, i)], 100.0, dim + i) for i in indices]
        cases += [big * np.eye(3, k=1, dtype=complex) for big in (2.0, 1e110, 1e200)] * (dim == 2)
        for A in cases:
            an = Analysis(A)
            asked = _spy_powers(monkeypatch)
            gb = growth_bound(an)
            monkeypatch.undo()
            deg = an.minpoly.degree
            vanish = np.log(stability._VANISHING_LEVEL) + deg * np.log(max(1.0, an.norm))
            assert np.all(power_log_norms(A, POWER_STEPS)[deg - 1 :] <= vanish)
            assert (gb.spectral_radius, gb.valid_from, gb.max_violation_ratio) == (0.0, deg, 0.0)
            assert max(asked, default=0) <= 10

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_rounding_noise_nilpotent_forms_no_spectral_norm(self, dim, monkeypatch):
        # Planted nilpotent matrices have powers of rounding noise from deg p
        # on; their bounds rule every power out, so no eigenproblem is solved.
        eigvalsh = np.linalg.eigvalsh
        for index in range(1, dim + 1):
            an = Analysis(gen_planted_jordan(dim, [(0, index)], 100.0, dim + index))
            an.decomposition
            solved = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: solved.append(len(G)) or eigvalsh(G))
            gb = growth_bound(an)
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert (gb.spectral_radius, gb.valid_from, solved) == (0.0, index, [])

    def test_csv_rows_shape(self):
        A = canonical_oblique()
        gb = growth_bound(A)
        rows = list(growth_csv_rows(A, gb))
        assert len(rows) == POWER_STEPS
        for n, nrm, bound in rows:
            if n >= gb.valid_from:
                assert nrm <= bound * (1 + 1e-8)

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_frobenius_rounding_within_slack(self, dim):
        # log ||A^n||_F, off the basis orbits of an engine batch, bounds the
        # computed log ||A^n||_2 up to 1e-10, a hundredth of the recursion's
        # slack: planted structures at cond caps 1e2-1e6, oblique ones at
        # 1e3 and alpha I + N.
        planted = [(0.95 * np.exp(1j), 2), (0.7j, 1), (-0.5, 1)]
        caps = (1e4,) if dim == 64 else (1e2, 1e4)
        cases = [gen_planted_jordan(dim, planted, cap, dim) for cap in caps]
        cases.append(gen_jordan_perturbation(dim, np.exp(1j), 2.9, dim))
        if dim < 64:
            cases += [gen_planted_jordan(dim, [(np.exp(1j), 1), (-0.6, 2)], 1e6, 0),
                      gen_oblique(dim, np.exp(2j * np.pi * (np.arange(dim) + 0.1) / dim), 1e3, dim)]
        for A in cases:
            spectral = power_log_norms(A, POWER_STEPS)
            basis = criteria.orbit_log_norms_batch(A, np.eye(dim), POWER_STEPS)
            excess = spectral - criteria.frobenius_log_norms(basis, dim)[1:]
            assert np.max(excess[np.isfinite(spectral)]) <= 0.01 * stability._RECURSION_SLACK

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_recursion_rounding_within_slack(self, dim):
        # growth_bound skips n by the block recursion, which must bound the
        # computed log ||A^n||_2 up to far less than the slack, stay finite
        # to n = POWER_STEPS (|z|^1000 underflows at |z| = 0.3), and only
        # loosen when the roots are off by 1e-3.  The cases: planted
        # structures at cond caps 1e2-1e6, oblique at 1e3, alpha I + N at
        # scales 0.5-3, roots of modulus 0.3, a zero root beside r = 0.9,
        # and z I, whose ratios all tie.  At dim 64, where each trajectory
        # takes most of a second, the planted and tie cases and two scales
        # are left out.
        planted = [(0.95 * np.exp(1j), 2), (0.7j, 1), (-0.5, 1)][: 1 if dim == 2 else 3]
        full = dim < 64
        cases = [gen_planted_jordan(dim, planted, cap, dim) for cap in (1e2, 1e4, 1e6) if full]
        cases.append(gen_oblique(dim, np.exp(2j * np.pi * (np.arange(dim) + 0.1) / dim), 1e3, dim))
        scales = (0.5, 1.5, 3.0) if full else (3.0,)
        cases += [gen_jordan_perturbation(dim, np.exp(1j), scale, dim) for scale in scales]
        cases.append(gen_planted_jordan(dim, [(0.3j, 2), (-0.3, 1)][: 1 + (dim > 2)], 1e2, dim))
        cases.append(gen_planted_jordan(dim, [(0, 1 + (dim > 2)), (0.9, 1)], 1e2, dim))
        cases += [np.exp(0.5j) * np.eye(dim, dtype=complex)] * full
        for A in cases:
            an = Analysis(A)
            spectral = power_log_norms(A, POWER_STEPS)
            finite = np.isfinite(spectral)
            bound = stability.recursion_log_norms(an, POWER_STEPS)
            assert np.all(np.isfinite(bound))
            assert np.max(spectral[finite] - bound[finite]) <= 0.01 * stability._RECURSION_SLACK
            shifted = Analysis(A)
            blocks = tuple(b._replace(z=b.z + 1e-3) for b in an.decomposition.blocks)
            shifted.decomposition = an.decomposition._replace(blocks=blocks)
            assert np.all(stability.recursion_log_norms(shifted, POWER_STEPS) >= bound)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_recursion_is_infinite_without_warning(self):
        # [[1, 1e200], [0, 0]]: the recursion state overflows, which reads
        # as a bound of +inf for those n and rules none of them out.  The
        # wrong structure of this matrix still fails the growth check.
        an = Analysis(np.array([[1, 1e200], [0, 0]], dtype=complex))
        bound = stability.recursion_log_norms(an, POWER_STEPS)
        assert np.isposinf(bound).any() and not np.isnan(bound).any()
        with pytest.raises(InconsistencyError, match="growth bound violated"):
            growth_bound(an)

    @pytest.mark.parametrize("name", _JORDAN_CASES)
    def test_recursion_forms_no_power_past_ten(self, name, monkeypatch):
        # The recursion rules out every n > 10 on alpha I + N, with or
        # without the probe batch; the ratio keeps the bits of the maximum
        # over the full trajectory.
        A = _JORDAN_CASES[name]()
        logs = power_log_norms(A, POWER_STEPS)
        asked = _spy_powers(monkeypatch)
        cfg = RunConfig(seed=0)
        bare = growth_bound(Analysis(A, cfg))
        an = Analysis(A, cfg)
        an.orbits
        assert growth_bound(an) == bare
        assert asked == [10, 10]
        n = np.arange(1, POWER_STEPS + 1)
        log_bound = np.log(bare.alpha) + bare.kappa * np.log(n) + n * np.log(bare.spectral_radius)
        assert bare.max_violation_ratio == float(np.exp(stability._worst_excess(logs, log_bound)))

    def test_loose_recursion_leaves_every_power(self, monkeypatch):
        # At cap 1e6 the recursion bound is finite but loose and keeps the
        # last n in play: a bare call reads all POWER_STEPS powers, and the
        # ratio keeps the bits of the full maximum.
        A = _RATIO_CASES["planted-d8-cap1e6"]()[0]
        asked = _spy_powers(monkeypatch)
        gb = growth_bound(Analysis(A, RunConfig(seed=0)))
        assert asked == [10, POWER_STEPS]
        monkeypatch.undo()
        assert gb.max_violation_ratio == _full_ratio(A, gb)[0]

    def test_shares_the_probe_batch(self, monkeypatch):
        # growth_bound propagates no probe batch; theorem_check and
        # uniform_stability after it propagate one and share it.
        horizons = []
        batch = criteria.orbit_log_norms_batch
        monkeypatch.setattr(
            criteria, "orbit_log_norms_batch", lambda A, H, n_max: horizons.append(n_max) or batch(A, H, n_max)
        )
        for cfg in (RunConfig(seed=0), RunConfig(n_max=500, seed=0)):
            horizons.clear()
            an = Analysis(canonical_oblique(), cfg)
            growth_bound(an)
            theorem_check(an)
            uniform_stability(an)
            assert horizons == [max(cfg.n_max, POWER_STEPS)]

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_bare_call_propagates_no_probes(self, dim, monkeypatch):
        # Without a probe batch on the analysis, the recursion alone cuts
        # the powers; every field keeps the bits of a call that reads the
        # batch.  The ratio cases add maxima at n = 13
        # and n = 1000.
        horizons = []
        batch = criteria.orbit_log_norms_batch
        monkeypatch.setattr(
            criteria, "orbit_log_norms_batch", lambda A, H, n_max: horizons.append(n_max) or batch(A, H, n_max)
        )
        rng = np.random.default_rng(dim)
        roots = [(0.95 * np.exp(2j * np.pi * rng.random()), 2), (0.5j, 1)]
        cases = [gen_planted_jordan(dim, roots[: 1 + (dim > 2)], 100.0, dim),
                 gen_planted_jordan(dim, [(0, dim)], 100.0, dim),
                 gen_jordan_perturbation(dim, np.exp(1j), 2.9, dim)]
        cases.append(_RATIO_CASES[{2: "jordan2", 4: "jordan-argmax-1000", 8: "jordan-argmax-13"}.get(dim, "jordan-d16")]()[0])
        cfg = RunConfig(seed=0)
        for A in cases:
            bare = growth_bound(Analysis(A, cfg))
            assert horizons == []
            an = Analysis(A, cfg)
            an.orbits  # the batch theorem_check propagates
            assert horizons == [max(cfg.n_max, POWER_STEPS)]
            horizons.clear()
            assert growth_bound(an) == bare and horizons == []

    def test_csv_rows_clamp_huge_powers(self):
        # ||A^2|| = 1e400 for 1e200 times the dim-3 shift: its row is
        # clamped at 1e308, without an overflow warning.
        A = 1e200 * np.eye(3, k=1, dtype=complex)
        rows = growth_csv_rows(A, growth_bound(A))
        assert rows[0] == (1, pytest.approx(1e200, rel=1e-12), pytest.approx(1e200, rel=1e-12))
        assert rows[1] == (2, pytest.approx(1e308, rel=1e-12), pytest.approx(1e308, rel=1e-12))
        assert all(np.isfinite(rows[1][1:]))
        assert rows[2:] == [(n, 0.0, 0.0) for n in range(3, POWER_STEPS + 1)]


class TestNormalLimit:
    def test_projection_identity(self):
        # Normal contraction: limit ||A^n h||^2 = <Q h, h>.
        rng = np.random.default_rng(3)
        U = haar_unitary(4, rng)
        A = U @ np.diag([1.0, -1.0, 0.5, 0.3]).astype(complex) @ U.conj().T
        Q = U[:, :2] @ U[:, :2].conj().T
        for t in range(5):
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            q = normal_limit(A, h[:, None])[0]
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
            assert np.array_equal(q, [normal_limit(A, H[:, j, None])[0] for j in range(5)])
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
        q = normal_limit(A, h[:, None])[0]
        for scale in (1e3, 1e6):
            assert normal_limit(A, scale * h[:, None])[0] == pytest.approx(scale**2 * q, rel=1e-12)

    def test_disagreement_names_first_column(self, monkeypatch):
        # The columns share one window rule; a limit off by 1 from the third
        # column on is reported at the third column, h = 3 e_2.
        rule = stability._window_rule

        def shifted(T, tol):
            ok, L = rule(T, tol)
            L[2:] += 1.0
            return ok, L

        monkeypatch.setattr(stability, "_window_rule", shifted)
        with pytest.raises(InconsistencyError) as exc:
            normal_limit(dft4(), np.diag([1.0, 2.0, 3.0, 4.0]))
        limit, q = (float(x) for x in re.fullmatch(
            r"orbit limit (\S+) disagrees with projection value (\S+)", str(exc.value)).groups())
        assert limit == pytest.approx(10.0, rel=1e-12) and q == pytest.approx(9.0, rel=1e-12)

    def test_strictly_stable_limit_zero(self):
        A = 0.5 * np.eye(3, dtype=complex)
        assert normal_limit(A, np.ones((3, 1)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_unitary_limit_full_norm(self):
        A = dft4()
        h = np.array([1.0, 0, 0, 0], dtype=complex)
        assert normal_limit(A, h[:, None])[0] == pytest.approx(1.0, rel=1e-10)

    def test_rejects_nonnormal(self):
        J = np.array([[1, 1], [0, 1]], dtype=complex)
        for A in (J, 0.5 * J):  # the second is a contraction
            with pytest.raises(InvalidInputError):
                normal_limit(A, np.ones((2, 1)))

    def test_rejects_expansive(self):
        # diag(1e200, 0.5) is rejected before its normality products overflow
        # (a RuntimeWarning fails the test).
        for A in (2 * np.eye(2), np.diag([1e200, 0.5])):
            with pytest.raises(InvalidInputError):
                normal_limit(A, np.ones((2, 1)))


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


class TestOneGrading:
    """Every root verdict reads ``Analysis.grading``: a grading assigned to a
    fresh analysis before first use decides each of them."""

    @staticmethod
    def _graded(A, circle=False, past=False, below=False, zero=False):
        an = Analysis(A, RunConfig(seed=0))
        m = len(an.minpoly.roots)
        an.grading = criteria.Grading(*(np.full(m, g) for g in (circle, past, below, zero)))
        return an

    def test_spectrum_in_circle(self):
        assert not theorem_check(self._graded(dft4())).spectrum_in_circle
        assert theorem_check(self._graded(0.5 * dft4(), circle=True)).spectrum_in_circle

    def test_unimodular_blocks(self):
        assert self._graded(canonical_oblique()).block_overlap == (0, 0.0, None)
        assert self._graded(canonical_oblique(), circle=True).block_overlap[0] == 2

    def test_power_bounded(self):
        an = self._graded(dft4(), past=True)
        assert not uniform_stability(an).power_bounded
        with pytest.raises(InconsistencyError, match="structural=False empirical=True"):
            criteria.is_power_bounded(an)
        # I + J_2 is unbounded only while its root 1 is on the circle.
        A = _jordan_block(1, 1, 2)
        assert self._graded(A).power_bounded and not self._graded(A, circle=True).power_bounded

    def test_uniformly_stable(self):
        assert not uniform_stability(self._graded(0.5 * dft4())).uniformly_stable
        assert uniform_stability(self._graded(0.5 * dft4(), below=True)).uniformly_stable

    def test_growth_bound_scope_and_zero(self):
        with pytest.raises(OutOfScopeError, match="r\\(A\\) <= 1, got 0.5"):
            growth_bound(self._graded(0.5 * dft4(), past=True))
        # Read as nilpotent of degree 3, its powers 0.5^n do not vanish.
        with pytest.raises(InconsistencyError, match="nonzero power at n=3$"):
            growth_bound(self._graded(0.5 * dft4(), zero=True))

    def test_normal_limit_projection(self):
        with pytest.raises(InconsistencyError, match="projection value 0.0$"):
            normal_limit(self._graded(dft4()), np.eye(4))


class TestUniformStability:
    def test_long_n_max_needs_no_long_trajectory(self, monkeypatch):
        # The decay cross-check reads log ||A^n R||_F at n_max and
        # n_max/2 + 1 off the probe batch, not off a trajectory of n_max
        # steps.
        steps = []
        trajectory = criteria.power_log_norms
        monkeypatch.setattr(
            criteria, "power_log_norms", lambda A, n_max: steps.append(n_max) or trajectory(A, n_max)
        )
        cfg = RunConfig(n_max=5000, seed=0)
        v = uniform_stability(Analysis(dft4(), cfg))
        assert v.power_bounded and not v.uniformly_stable
        v = uniform_stability(Analysis(0.5 * dft4(), cfg))
        assert v.uniformly_stable and v.strongly_stable
        assert steps == []

    def test_decay_check_reads_frobenius_norms(self):
        # r < 1 must show as log ||A^n R||_F falling from n_max/2 + 1 to
        # n_max: a radius misread below 1 on a unitary raises, and the zero
        # powers of a nilpotent count as falling.
        an = Analysis(dft4(), RunConfig(seed=0))
        an.grading = an.grading._replace(below=np.ones_like(an.grading.below))
        with pytest.raises(InconsistencyError, match="do not decay"):
            uniform_stability(an)
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
        # a reader that writes into it, or a cache that ignores the config,
        # makes a later stage differ from a fresh Analysis.
        for cfg in (RunConfig(seed=0), RunConfig(seed=7)):
            an = Analysis(A, cfg)
            for stage in (theorem_check, uniform_stability):
                assert stage(an).to_obj() == stage(Analysis(A, cfg)).to_obj(), (stage, cfg.seed)

    @pytest.mark.parametrize(
        "A, kept",
        [(np.array([[1, 1e150], [0, 1]], dtype=complex), {"e0": 1.0}),
         (np.diag([np.exp(709.5 / 4000), 0.5]).astype(complex), {"e1": 0.0})],
        ids=["jordan-1e150", "window-square-overflow"],
    )
    def test_window_whose_squares_overflow(self, A, kept):
        # Every squared norm of the last window is finite, but for some
        # probes the sum their mean is taken from is not: those have no
        # finite limit and are left out, as are the other growing probes,
        # which fail the rule.  Every random probe grows; a batch of the
        # basis, set on the analysis, has one probe that does not, and it
        # is kept.
        cfg = RunConfig(seed=0)
        basis = Analysis(A, cfg)
        H = np.eye(2, dtype=complex)
        basis.orbits = (("e0", H[:, 0]), ("e1", H[:, 1])), criteria.orbit_log_norms_batch(A, H, 2000)
        for an, want in ((Analysis(A, cfg), {}), (basis, kept)):
            probes, logs = an.orbits
            window = logs[cfg.n_max + 1 - cfg.window : cfg.n_max + 1]
            assert 2 * window.max() < np.log(np.finfo(float).max)
            sum_sq = np.logaddexp.reduce(2 * window, axis=0)
            overflow = {label for (label, _), m in zip(probes, sum_sq) if m > np.log(np.finfo(float).max)}
            limits = uniform_stability(an).limit_projection_norm_sq
            assert overflow and not overflow & set(limits)
            assert limits == pytest.approx(want, abs=1e-12)

    def test_mixed_spectrum_power_bounded_not_stable(self):
        A = gen_planted_jordan(4, [(1.0, 1), (0.4, 2)], cond_cap=20.0, seed=6)
        v = uniform_stability(A, RunConfig(seed=0))
        assert not v.uniformly_stable
        assert v.power_bounded and not v.strongly_stable


class TestOrbitRootLimit:
    def test_diagonal_dominant_modulus(self):
        A = np.diag([0.9, 0.5]).astype(complex)
        rho = orbit_root_limit(A, np.array([[1.0], [1.0]]))[0]
        assert rho == pytest.approx(0.9, abs=1e-3)

    def test_probe_outside_dominant_eigenspace(self):
        A = np.diag([0.9, 0.5]).astype(complex)
        rho = orbit_root_limit(A, np.array([[0.0], [1.0]]))[0]
        assert rho == pytest.approx(0.5, abs=1e-3)

    def test_unitary_orbit_limit_one(self):
        A = gen_unitary_finite_spectrum(4, [1j, -1], seed=5)
        rng = np.random.default_rng(2)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert orbit_root_limit(A, h[:, None])[0] == pytest.approx(1.0, abs=1e-3)

    def test_defective_root_polynomial_factor_removed(self):
        A = gen_planted_jordan(4, [(0.7, 3)], cond_cap=20.0, seed=8)
        h = np.ones(4, dtype=complex)
        assert orbit_root_limit(A, h[:, None])[0] == pytest.approx(0.7, abs=1e-3)

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
            single = [orbit_root_limit(A, H[:, j, None])[0] for j in range(4)]
            assert rho.shape == (4,)
            assert np.allclose(rho, single, rtol=0, atol=1e-11)

    def test_stages_take_the_horizon_of_their_analysis(self, monkeypatch):
        # normal_limit and orbit_root_limit propagate the n_max of the
        # analysis they are given, not the default.
        steps = []
        for name in ("orbit_norms_batch", "orbit_log_norms_batch"):
            engine = getattr(stability, name)
            monkeypatch.setattr(stability, name, lambda A, H, n, _engine=engine: steps.append(n) or _engine(A, H, n))
        an = Analysis(np.diag([1.0, -1.0, 0.5]).astype(complex), RunConfig(n_max=300))
        assert normal_limit(an, np.ones((3, 1)))[0] == pytest.approx(2.0, rel=1e-12)
        assert orbit_root_limit(an, np.ones((3, 1)))[0] == pytest.approx(1.0, abs=1e-3)
        assert steps == [300, 300]

    def test_shortest_horizon(self):
        # Two steps leave three rows, which give the envelope fit nothing
        # to fit (every live column read 1 and raised): the config refuses
        # them, and three steps read both roots.
        A, H = np.diag([0.5, 0.25]), np.eye(2)
        with pytest.raises(InvalidInputError, match=r"require n_max >= 3, got n_max 2"):
            orbit_root_limit(Analysis(A, RunConfig(n_max=2, window=1)), H)
        assert orbit_root_limit(Analysis(A, RunConfig(n_max=3, window=1)), H) == pytest.approx([0.5, 0.25], abs=1e-3)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_probe_entries_past_the_square_range(self, scale):
        # The squares of these entries under- or overflow; both norms of a
        # probe, the engine's and the envelope's threshold, are taken at
        # unit scale, so no warning is raised and row 0 is log ||h||.
        A, H = np.diag([0.5, 0.25]), np.full((2, 1), scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert orbit_root_limit(A, H) == pytest.approx([0.5], abs=1e-3)
            logs = criteria.orbit_log_norms_batch(A, H, 10)
        assert logs[0, 0] == pytest.approx(math.log(math.hypot(scale, scale)), rel=1e-15)
        assert np.all(np.isfinite(logs))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            orbit_root_limit(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(InvalidInputError):
            orbit_root_limit(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]))
