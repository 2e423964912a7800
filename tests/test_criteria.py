"""Window rule, orbit classification, and the equivalence checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aolab.config import RunConfig
from aolab.criteria import (
    Analysis,
    classify_sequence,
    is_normaloid,
    is_power_bounded,
    is_unitary,
    orbit_analyze,
    orbit_log_norms_batch,
    orbit_norms_batch,
    power_log_norms,
    scalar_re_sequence,
    theorem_check,
    window_limit,
)
from aolab.errors import InconsistencyError, InvalidInputError
from aolab.generators import (
    canonical_oblique,
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_unitary_finite_spectrum,
    haar_unitary,
)


def _reference_orbit_log_norms(A, h, n_max):
    """Per-column reference loop: log ||A^n h||, rescaled every step."""
    v = h.astype(complex)
    out = np.empty(n_max + 1)
    s = float(np.linalg.norm(v))
    acc = np.log(s)
    out[0] = acc
    v = v / s
    for n in range(1, n_max + 1):
        v = A @ v
        s = float(np.linalg.norm(v))
        if s == 0.0:
            out[n:] = -np.inf
            return out
        acc += np.log(s)
        out[n] = acc
        v = v / s
    return out


def _reference_power_log_norms(A, n_max):
    """Per-step reference: log ||A^n|| with one 2-norm (SVD) per step."""
    M = np.eye(A.shape[0], dtype=complex)
    acc = 0.0
    out = np.empty(n_max)
    for n in range(n_max):
        M = A @ M
        s = float(np.linalg.norm(M, 2))
        if s == 0.0:
            out[n:] = -np.inf
            return out
        acc += np.log(s)
        out[n] = acc
        M = M / s
    return out


def _engine_instances(dim):
    """Unitary, Jordan-perturbation, nilpotent shift and norm-3 normaloid."""
    return {
        "unitary": gen_unitary_finite_spectrum(dim, [1, -1, 1j, np.exp(0.3j)], seed=dim),
        "jordan": gen_jordan_perturbation(dim, np.exp(0.7j), 2.0, seed=dim),
        "nilpotent": 1.5 * np.eye(dim, k=1, dtype=complex),
        "normaloid3": gen_normaloid_nonnormal(dim, seed=dim, target_norm=3.0),
    }


class TestWindowLimit:
    def test_constant_converges(self):
        ok, L = window_limit(np.full(500, 2.5))
        assert ok and L == pytest.approx(2.5)

    def test_oscillation_rejected(self):
        seq = 1.0 + 0.5 * np.cos(np.arange(2000) * 0.7)
        ok, _ = window_limit(seq, window=50, tol=1e-6)
        assert not ok

    def test_decaying_tail_converges(self):
        seq = 3.0 + 0.9 ** np.arange(2000)
        ok, L = window_limit(seq, window=50, tol=1e-6)
        assert ok and L == pytest.approx(3.0, abs=1e-4)

    @given(st.floats(0.1, 10.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_eventually_constant(self, c, burn):
        seq = np.concatenate([np.linspace(0, c, burn), np.full(300, c)])
        ok, L = window_limit(seq, window=50, tol=1e-6)
        assert ok and L == pytest.approx(c)


class TestClassifySequence:
    # Long horizons here: the window deviation of s_n / n^d scales like
    # window / n^2, so short sequences blur neighboring degrees.
    N = 20000

    def test_convergent(self):
        n = np.arange(self.N, dtype=float)
        c = classify_sequence(2.0 + 1.0 / (n + 1), max_poly_degree=3)
        assert c.kind == "convergent" and c.limit == pytest.approx(2.0, abs=1e-3)

    def test_polynomial_degrees(self):
        n = np.arange(self.N, dtype=float)
        for d in (1, 2, 3):
            c = classify_sequence(0.5 * n**d + n ** (d - 1), max_poly_degree=4)
            assert (c.kind, c.degree) == ("polynomial-growth", d)

    def test_exponential(self):
        s = np.exp(0.01 * np.arange(3000))
        c = classify_sequence(s, max_poly_degree=3)
        assert c.kind == "exponential-growth"
        assert c.rate == pytest.approx(np.exp(0.01), rel=1e-3)

    def test_bounded_nonconvergent(self):
        s = 1.0 + 0.5 * np.cos(np.arange(self.N) * 0.3)
        c = classify_sequence(s, max_poly_degree=3)
        assert c.kind == "bounded-nonconvergent"

    def test_slow_oscillation_not_polynomial(self):
        # Bounded but slowly oscillating: n^d-normalization drifts below
        # tol yet the sequence does not grow.  Must not report growth.
        s = 2.0 + np.sin(np.arange(2000) * 0.004)
        c = classify_sequence(s, max_poly_degree=3)
        assert c.kind in ("bounded-nonconvergent", "convergent")

    def test_dead_sequence_converges_to_zero(self):
        s = np.concatenate([np.ones(100), np.zeros(400)])
        c = classify_sequence(s, max_poly_degree=3)
        assert c.kind == "convergent" and c.limit == 0.0

    def test_overflowed_is_exponential(self):
        s = np.exp(np.minimum(0.8 * np.arange(900), 700.0))
        c = classify_sequence(s, max_poly_degree=3, overflowed=True)
        assert c.kind == "exponential-growth" and c.rate > 1.5


class TestOrbitIteration:
    def test_matches_direct_powers(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A /= np.linalg.norm(A, 2)
        H = np.eye(4, dtype=complex)
        norms, overflow = orbit_norms_batch(A, H, 30)
        assert overflow is None
        P = np.eye(4, dtype=complex)
        for n in range(31):
            for j in range(4):
                assert norms[n, j] == pytest.approx(
                    np.linalg.norm(P[:, j]), rel=1e-10
                )
            P = A @ P

    def test_overflow_stops_early(self):
        A = np.array([[200.0]], dtype=complex)
        norms, overflow = orbit_norms_batch(A, np.ones((1, 1), dtype=complex), 1000)
        assert overflow is not None and overflow < 200

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_engine_matches_per_column_loop(self, dim):
        rng = np.random.default_rng(dim)
        R = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        H = np.column_stack([np.eye(dim, dtype=complex)[:, [0, dim // 2, dim - 1]], R])
        for name, A in _engine_instances(dim).items():
            logs = orbit_log_norms_batch(A, H, 300)
            assert logs.shape == (301, H.shape[1])
            for j in range(H.shape[1]):
                ref = _reference_orbit_log_norms(A, H[:, j], 300)
                dead = np.isneginf(ref)
                assert np.array_equal(np.isneginf(logs[:, j]), dead), (name, j)
                assert np.max(np.abs(logs[~dead, j] - ref[~dead])) <= 1e-10, (name, j)
            if name == "nilpotent":
                # e_0 dies after one step, e_{d-1} after d steps
                assert np.isneginf(logs[1, 0]) and np.isfinite(logs[1, 1])
                assert np.isneginf(logs[dim, 2]) and np.isfinite(logs[dim - 1, 2])

    def test_engine_stops_after_limit(self):
        A = np.diag([3.0, 0.5]).astype(complex)
        logs = orbit_log_norms_batch(A, np.eye(2, dtype=complex), 1000, limit=np.log(1e300))
        n = logs.shape[0] - 1
        assert logs[n, 0] > np.log(1e300) >= logs[n - 1, 0]
        assert logs[n, 1] == pytest.approx(n * np.log(0.5), rel=1e-12)

    def test_norms_stay_finite_past_raw_overflow(self):
        # Raw vectors of this orbit pass 1e154, where a sum of squares
        # overflows, long before the 1e300 cut.
        A = gen_normaloid_nonnormal(16, seed=0, target_norm=3.0)
        rng = np.random.default_rng(0)
        H = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        norms, overflow = orbit_norms_batch(A, H, 2000)
        assert overflow is not None and np.all(np.isfinite(norms))
        assert np.max(norms[-1]) > 1e300

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_power_log_norms_matches_per_step_svd(self, dim):
        for name, A in _engine_instances(dim).items():
            logs = power_log_norms(A, 300)
            ref = _reference_power_log_norms(A, 300)
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(logs), dead), name
            assert np.max(np.abs(logs[~dead] - ref[~dead])) <= 1e-10, name

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_power_log_norms_prefix_bit_identical(self, dim):
        # A trajectory computed once at the longest horizon is reused at
        # shorter ones; the reuse must not change a single bit.  The SVD
        # chunks hold 1024, 256 and 64 powers at these dims, so 1000 and 10
        # end inside a chunk that the longer run fills.
        A = _engine_instances(dim)["jordan"]
        assert np.array_equal(power_log_norms(A, 1000), power_log_norms(A, 2000)[:1000])
        assert np.array_equal(power_log_norms(A, 10), power_log_norms(A, 2000)[:10])

    def test_power_log_norms_scalar(self):
        A = np.array([[0.5]], dtype=complex)
        logs = power_log_norms(A, 400)
        assert logs[-1] == pytest.approx(400 * np.log(0.5), rel=1e-10)

    def test_power_log_norms_no_overflow_huge_growth(self):
        A = np.array([[3000.0]], dtype=complex)
        logs = power_log_norms(A, 500)
        assert np.isfinite(logs[-1])
        assert logs[-1] == pytest.approx(500 * np.log(3000.0), rel=1e-10)


class TestPredicates:
    def test_unitary_true(self):
        assert is_unitary(dft4())
        assert is_unitary(haar_unitary(5, np.random.default_rng(1)))

    def test_unitary_false(self):
        assert not is_unitary(canonical_oblique())
        assert not is_unitary(2 * np.eye(3))

    def test_unitary_returns_plain_bool(self):
        assert isinstance(is_unitary(np.eye(2)), bool)

    def test_normaloid_cases(self):
        assert is_normaloid(dft4())
        assert is_normaloid(gen_normaloid_nonnormal(5, seed=0, target_norm=2.0))
        assert not is_normaloid(np.array([[1, 1], [0, 1]], dtype=complex))
        assert not is_normaloid(canonical_oblique())

    def test_power_bounded(self):
        assert is_power_bounded(dft4())
        assert is_power_bounded(canonical_oblique())
        assert not is_power_bounded(np.array([[1, 1], [0, 1]], dtype=complex))
        assert not is_power_bounded(1.2 * np.eye(2))


class TestTheoremCheck:
    def test_unitary_instance_all_conditions(self):
        A = gen_unitary_finite_spectrum(4, [1, -1, 1j], seed=0)
        rep = theorem_check(A, RunConfig(seed=0))
        assert rep.is_algebraic and rep.spectrum_in_circle
        assert rep.unitary and rep.normaloid and rep.contraction
        assert rep.orbits_convergent and rep.power_bounded
        assert rep.consistent and rep.witness is None

    def test_oblique_instance_witness(self):
        rep = theorem_check(canonical_oblique(), RunConfig(seed=0))
        assert rep.power_bounded and not rep.unitary
        assert not rep.orbits_convergent
        assert rep.witness is not None
        assert rep.consistent

    def test_report_serializes(self):
        from aolab import jsonout

        rep = theorem_check(dft4(), RunConfig(seed=0))
        text = jsonout.dumps(rep.to_obj())
        assert '"orbits_note": "certified via probes"' in text

    def test_inconsistent_power_bound_raises(self):
        # Eigenvalues 3e-5 apart: the minimal polynomial merges them into
        # one unimodular root of index 2, while the powers stay bounded.
        z = np.exp(0.7j)
        A = gen_oblique(3, [z, z * np.exp(3e-5j), -1], cond_cap=10, seed=1)
        with pytest.raises(InconsistencyError, match="power boundedness"):
            theorem_check(A, RunConfig(seed=0))


class TestAnalysis:
    def test_analysis_matches_matrix(self):
        A = canonical_oblique()
        an = Analysis(A, 2000)
        assert theorem_check(an, RunConfig(seed=0)).to_obj() == theorem_check(A, RunConfig(seed=0)).to_obj()
        assert np.array_equal(an.power_logs(10), power_log_norms(A, 10))
        assert is_normaloid(an) is is_normaloid(A)

    def test_short_horizon_rejected(self):
        an = Analysis(dft4(), 999)
        with pytest.raises(InvalidInputError, match="999"):
            theorem_check(an, RunConfig(seed=0))
        with pytest.raises(InvalidInputError):
            an.power_logs(1000)
        assert is_normaloid(an)


class TestScalarSequence:
    def test_b_zero_convergent(self):
        v = scalar_re_sequence(np.exp(0.7j), 0.0, n_max=20000)
        assert v.convergent

    def test_nonzero_b_nonconvergent(self):
        v = scalar_re_sequence(np.exp(0.7j), 0.3 + 0.4j, n_max=20000)
        assert not v.convergent
        assert len(v.cluster_points) >= 2

    def test_w_plus_minus_one_rejected(self):
        with pytest.raises(InvalidInputError):
            scalar_re_sequence(1.0, 1.0)
        with pytest.raises(InvalidInputError):
            scalar_re_sequence(-1.0, 1.0)

    def test_nonunimodular_rejected(self):
        with pytest.raises(InvalidInputError):
            scalar_re_sequence(0.9, 1.0)

    @given(
        st.floats(0.02, 0.48),
        st.floats(0.1, 2.0),
        st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_nonconvergent_for_nonzero_b(self, theta, mag, phase):
        w = np.exp(2j * np.pi * theta)
        b = mag * np.exp(1j * phase)
        v = scalar_re_sequence(w, b, n_max=20000)
        assert not v.convergent


class TestOrbitAnalyze:
    def test_jordan_probe_grows_linearly(self):
        A = gen_jordan_perturbation(2, 1.0, 1.0, seed=0)
        h = np.array([0.0, 1.0], dtype=complex)
        rec = orbit_analyze(A, h, n_max=20000)
        assert rec.classification.kind == "polynomial-growth"
        assert rec.classification.degree == 1

    def test_kernel_probe_stays_flat(self):
        A = gen_jordan_perturbation(2, 1.0, 1.0, seed=0)
        h = np.array([1.0, 0.0], dtype=complex)
        rec = orbit_analyze(A, h)
        assert rec.classification.kind == "convergent"
        assert rec.classification.limit == pytest.approx(1.0, abs=1e-6)

    def test_horizon_from_config(self):
        A = gen_jordan_perturbation(2, 1.0, 1.0, seed=0)
        h = np.array([0.0, 1.0], dtype=complex)
        rec = orbit_analyze(A, h, config=RunConfig(n_max=500))
        assert rec.norms.shape == (501,)
        with pytest.raises(InvalidInputError):
            orbit_analyze(A, h, n_max=500, config=RunConfig(n_max=500))
