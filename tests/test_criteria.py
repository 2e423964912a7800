"""Window rule, orbit classification, and the equivalence checks."""

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aolab.criteria as criteria
from aolab.config import RunConfig
from aolab.criteria import (
    CIRCLE_TOL,
    COMPONENT_TOL,
    POWER_STEPS,
    RANDOM_PROBES,
    Analysis,
    Classification,
    CriteriaReport,
    classify_orbits,
    frobenius_log_norms,
    is_normaloid,
    is_power_bounded,
    is_unitary,
    orbit_log_norms_batch,
    orbit_norms_batch,
    power_log_norms,
    scalar_re_sequence,
    structural_envelope,
    theorem_check,
)
from aolab.errors import IllConditionedSpectrumError, InconsistencyError, InvalidInputError
from aolab.generators import (
    canonical_oblique,
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_planted_jordan,
    gen_unitary_finite_spectrum,
    haar_unitary,
    spread_unimodular,
)
from aolab.stability import growth_bound, normaloid_equivalence, orbit_root_limit, uniform_stability
from aolab.structure import decide, minimal_polynomial
from test_engine import FAMILIES, _shape_matrix


def _near_unitary(eps):
    """S U S^-1 with U Haar unitary of dim 4 and S = I + eps G, G Gaussian."""
    U = haar_unitary(4, np.random.default_rng(0))
    S = np.eye(4) + eps * np.random.default_rng(1).standard_normal((4, 4))
    return S @ U @ np.linalg.inv(S)


def _with_unimodular_index_2(A, *args):
    """The minimal polynomial of A with its first root given index 2: wrong
    when A is power-bounded and that root unimodular."""
    mp = minimal_polynomial(A, *args)
    (z, _), *rest = mp.roots
    return mp._replace(roots=((z, 2), *rest), degree=mp.degree + 1)


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


def _reference_power_log_norms(A, n_max, ord=2):
    """Per-step reference: log ||A^n|| with one norm of order ``ord`` per
    step (2, an SVD, by default; "fro" for the Frobenius norm)."""
    M = np.eye(A.shape[0], dtype=complex)
    acc = 0.0
    out = np.empty(n_max)
    for n in range(n_max):
        M = A @ M
        s = float(np.linalg.norm(M, ord))
        if s == 0.0:
            out[n:] = -np.inf
            return out
        acc += np.log(s)
        out[n] = acc
        M = M / s
    return out


def _reference_window_limit(s, window, tol):
    """The window rule on one sequence, kept as the reference."""
    tail = s[-min(window, s.size):]
    L = float(np.mean(tail))
    return bool(np.max(np.abs(tail - L)) <= max(tol, tol * abs(L))), L


def _reference_classify(y, window=RunConfig.window, tol=RunConfig.tol_conv):
    """The rules on one column of log-norms, kept as the reference for the
    batch classifier: dead tail, then the envelope fit (one ``lstsq``)
    confirmed by the window maxima at rows n/4 and n, then the window rule."""
    s = np.exp(y)
    w, q = min(window, s.size), s.size // 4
    tail = s[-w:]
    if np.all(tail <= tol):
        return Classification(kind="convergent", limit=0.0)
    change = np.max(y[-w:]) - np.max(y[q:q + w])
    n0 = max(10, s.size // 4)
    ns = np.arange(n0, s.size, dtype=float)
    X = np.column_stack([np.ones_like(ns), np.log(ns), ns])
    (_, k, log_rho), *_ = np.linalg.lstsq(X, y[n0:], rcond=None)
    band = 1.0 / (s.size - n0)
    if log_rho > band and change > np.log(2):
        return Classification(kind="exponential-growth", rate=float(np.exp(log_rho)))
    if log_rho < -band and change < -np.log(2):
        return Classification(kind="convergent", limit=0.0)
    if abs(log_rho) <= band and k >= 0.5 and change > np.log(2):
        d = int(k + 0.5)
        n = np.maximum(np.arange(s.size - w, s.size, dtype=float), 1.0)
        return Classification(kind="polynomial-growth", degree=d, limit=float(np.mean(tail / n**d)))
    ok, L = _reference_window_limit(s, window, tol)
    if ok:
        return Classification(kind="convergent", limit=L)
    return Classification(kind="bounded-nonconvergent")


def _assert_same_classes(got, want, where):
    """kind, degree and limit equal bit for bit; rate within 1e-12."""
    assert len(got) == len(want), where
    for j, (g, r) in enumerate(zip(got, want)):
        assert (g.kind, g.degree, g.limit) == (r.kind, r.degree, r.limit), (where, j, g, r)
        if r.rate is not None:
            assert g.rate == pytest.approx(r.rate, rel=1e-12), (where, j)


def _reference_exponent(A, h, D):
    """Per-probe structural exponent, kept as the reference."""
    hn = float(np.linalg.norm(h))
    comps = [(b, b.basis @ b.rows @ h) for b in D.blocks]
    comps = [(b, ph) for b, ph in comps if np.linalg.norm(ph) > COMPONENT_TOL * hn]
    if not comps:
        return None
    mu = max(abs(b.z) for b, _ in comps)
    best = 0
    for b, v in comps:
        if abs(abs(b.z) - mu) <= 1e-8:
            for j in range(1, b.index):
                v = (A - b.z * np.eye(A.shape[0])) @ v
                if np.linalg.norm(v) > COMPONENT_TOL * hn:
                    best = max(best, j)
    return best


def _reference_stability_limits(probes, ologs, cfg):
    """uniform_stability's per-probe loop for the limits of ||A^n h||^2."""
    w, limits = cfg.window, {}
    for j, (label, _) in enumerate(probes):
        olog = ologs[:, j]
        if olog[-1] == -np.inf:
            limits[label] = 0.0
            continue
        if 2 * np.max(olog[-w:]) > np.log(np.finfo(float).max):
            continue
        ok, L = _reference_window_limit(np.exp(2 * olog[-w:]), w, cfg.tol_conv)
        if ok:
            limits[label] = max(L, 0.0)
    return limits


def _sequence_logs(rng, family, n=2001):
    """log s_n for n = 0..2000 of one random sequence of a family."""
    k = np.arange(n, dtype=float)
    if family == "convergent":
        s = rng.uniform(1.1, 5) + rng.uniform(-1, 1) * rng.uniform(0.9, 0.999) ** k
    elif family == "polynomial":
        d = rng.integers(1, 4)
        s = rng.uniform(0.1, 2) * np.maximum(k, 1) ** d + rng.choice([0.0, 1e-6, 1.0]) * k ** (d - 1)
    elif family == "exponential":
        s = np.exp(rng.uniform(-0.02, 0.03) * k + rng.uniform(-1, 1))
    elif family == "oscillating":
        s = rng.uniform(1, 3) + rng.uniform(0, 0.9) * np.cos(rng.uniform(0.001, 1) * k)
    else:  # mixed: a decaying, a bounded and a growing part
        s = np.abs(rng.uniform(0, 1) * 0.5**k + rng.uniform(0, 1) * np.cos(0.3 * k)
                   + rng.choice([0.0, 1e-9, 1e-3]) * k)
    return np.log(s)


def _engine_instances(dim):
    """Unitary, Jordan-perturbation, nilpotent shift and norm-3 normaloid."""
    return {
        "unitary": gen_unitary_finite_spectrum(dim, [1, -1, 1j, np.exp(0.3j)], seed=dim),
        "jordan": gen_jordan_perturbation(dim, np.exp(0.7j), 2.0, seed=dim),
        "nilpotent": 1.5 * np.eye(dim, k=1, dtype=complex),
        "normaloid3": gen_normaloid_nonnormal(dim, seed=dim, target_norm=3.0),
    }


class TestWindowLimit:
    # The window rule on the last 50 terms of one sequence at tol 1e-6, the RunConfig defaults.
    def test_constant_converges(self):
        (ok,), (L,) = criteria._window_rule(np.full(500, 2.5)[np.newaxis, -50:], 1e-6)
        assert ok and L == pytest.approx(2.5)

    def test_oscillation_rejected(self):
        seq = 1.0 + 0.5 * np.cos(np.arange(2000) * 0.7)
        (ok,), _ = criteria._window_rule(seq[np.newaxis, -50:], 1e-6)
        assert not ok

    def test_decaying_tail_converges(self):
        seq = 3.0 + 0.9 ** np.arange(2000)
        (ok,), (L,) = criteria._window_rule(seq[np.newaxis, -50:], 1e-6)
        assert ok and L == pytest.approx(3.0, abs=1e-4)

    @given(st.floats(0.1, 10.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_eventually_constant(self, c, burn):
        seq = np.concatenate([np.linspace(0, c, burn), np.full(300, c)])
        (ok,), (L,) = criteria._window_rule(seq[np.newaxis, -50:], 1e-6)
        assert ok and L == pytest.approx(c)


def classify_one(s):
    """The classification of one norm sequence: ``classify_orbits`` of its logs as one column."""
    with np.errstate(divide="ignore"):
        return classify_orbits(np.log(s)[:, np.newaxis])[0]


class TestClassifySequence:
    # Long horizons here: the window deviation of s_n / n^d scales like
    # window / n^2, so short sequences blur neighboring degrees.
    N = 20000

    def test_convergent(self):
        n = np.arange(self.N, dtype=float)
        c = classify_one(2.0 + 1.0 / (n + 1))
        assert c.kind == "convergent" and c.limit == pytest.approx(2.0, abs=1e-3)

    def test_polynomial_degrees(self):
        n = np.arange(self.N, dtype=float)
        for d in (1, 2, 3):
            c = classify_one(0.5 * n**d + n ** (d - 1))
            assert (c.kind, c.degree) == ("polynomial-growth", d)

    def test_exponential(self):
        s = np.exp(0.01 * np.arange(3000))
        c = classify_one(s)
        assert c.kind == "exponential-growth"
        assert c.rate == pytest.approx(np.exp(0.01), rel=1e-3)

    def test_bounded_nonconvergent(self):
        s = 1.0 + 0.5 * np.cos(np.arange(self.N) * 0.3)
        c = classify_one(s)
        assert c.kind == "bounded-nonconvergent"

    def test_slow_oscillation_not_polynomial(self):
        # Bounded but slowly oscillating: n^d-normalization drifts below
        # tol yet the sequence does not grow.  Must not report growth.
        s = 2.0 + np.sin(np.arange(2000) * 0.004)
        c = classify_one(s)
        assert c.kind in ("bounded-nonconvergent", "convergent")

    def test_dead_sequence_converges_to_zero(self):
        s = np.concatenate([np.ones(100), np.zeros(400)])
        c = classify_one(s)
        assert c.kind == "convergent" and c.limit == 0.0

    def test_overflowed_is_exponential(self):
        # A column past the float range (0.8 n passes log 1e308 at n = 887)
        # is fitted over the whole horizon in log space, like the decaying
        # and the slowly growing column beside it.
        n = np.arange(2001.0)
        logs = np.column_stack([0.8 * n, n * np.log(0.5), 0.01 * n])
        classes = classify_orbits(logs)
        assert classes[0].kind == "exponential-growth"
        assert classes[0].rate == pytest.approx(np.exp(0.8), rel=1e-12)
        assert classes[1] == Classification(kind="convergent", limit=0.0)
        assert classes[2].kind == "exponential-growth"
        assert classes[2].rate == pytest.approx(np.exp(0.01), rel=1e-12)


class TestBatchClassifier:
    @pytest.mark.parametrize("window", [50, 200])
    def test_matches_reference_ladder(self, window):
        # 400 seeded sequences per window, 80 per family, in one batch,
        # against the per-column rules with one lstsq fit each.
        rng = np.random.default_rng(window)
        families = ("convergent", "polynomial", "exponential", "oscillating", "mixed")
        logs = np.column_stack([_sequence_logs(rng, f) for f in families for _ in range(80)])
        classes = classify_orbits(logs, window)
        want = [_reference_classify(logs[:, j], window) for j in range(logs.shape[1])]
        _assert_same_classes(classes, want, window)
        kinds = {c.kind for c in classes}
        assert kinds == {"convergent", "polynomial-growth", "exponential-growth", "bounded-nonconvergent"}

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_matches_reference_on_probe_batches(self, dim):
        # The probe batches of analyze: classes, structural exponents and the stability fields equal the
        # per-probe reference loops, and every growing probe's degree is its
        # structural exponent.
        z = spread_unimodular(np.random.default_rng(dim), dim)
        cfg = RunConfig(seed=0)
        for name, A in {
            "unitary": gen_unitary_finite_spectrum(dim, z[:3], seed=dim),
            "oblique": gen_oblique(dim, z, 50.0, seed=dim),
            "jordan": gen_jordan_perturbation(dim, z[0], 1.0, seed=dim),
            "normaloid": gen_normaloid_nonnormal(dim, seed=dim, target_norm=1.0),
        }.items():
            an = Analysis(A, cfg)
            probes, logs = an.orbits
            classes = classify_orbits(logs)
            want = [_reference_classify(logs[:, j]) for j in range(len(probes))]
            _assert_same_classes(classes, want, name)
            H = np.column_stack([v for _, v in probes])
            _, exponents = criteria.structural_envelope(A, H, an.decomposition)
            assert exponents == [_reference_exponent(A, v, an.decomposition) for _, v in probes], name
            assert all(c.degree == k for c, k in zip(classes, exponents) if c.kind == "polynomial-growth"), name
            verdict = uniform_stability(an)
            assert verdict.strongly_stable is verdict.uniformly_stable, name
            limits = _reference_stability_limits(probes, logs, cfg)
            assert list(verdict.limit_projection_norm_sq.items()) == list(limits.items()), name

    @pytest.mark.parametrize("top, want", [
        (693.1, Classification(kind="convergent", limit=pytest.approx(np.exp(693.1), rel=1e-15))),
        (709.0, Classification(kind="bounded-nonconvergent")),
        (713.6, Classification(kind="bounded-nonconvergent")),
    ], ids=["693.1", "709.0", "713.6"])
    def test_cut_at_step_one(self, top, want):
        # A column that jumps past log 1e300 at row 1 and stays there is a
        # bounded orbit: the fit over the whole horizon reads no trend, and
        # the window rule decides.  At 693.1 the window converges to
        # e^693.1.  At 709.0 its norms are finite but their sum is not, and
        # at 713.6 the norms pass the float range: neither window has a
        # finite limit, so neither converges.
        logs = np.full((2001, 1), top)
        logs[0] = 0.0
        assert classify_orbits(logs) == [want]

    def test_polynomial_past_float_range_keeps_no_limit(self):
        # s_n = e^705 n passes the float range at n = 2: it grows like n,
        # but its window mean of s_n / n is not finite, so it has no limit.
        logs = 705.0 + np.log(np.maximum(np.arange(2001.0), 1.0))[:, np.newaxis]
        assert classify_orbits(logs) == [Classification(kind="polynomial-growth", degree=1)]

    def test_short_batch_fits_no_trend(self):
        # 12 rows: the envelope fit reads the last three (n0 = 9, band 1/3)
        # and recovers each straight column's slope, but the window of 12
        # rows covers the batch, so no column's window maxima change and no
        # column reads a trend: each is convergent or bounded-nonconvergent
        # by the window rule alone.  Fewer than four rows fit nothing.
        n = np.arange(12.0)[:, np.newaxis]
        logs = np.hstack([np.full_like(n, np.log(2.0)), 0.5 * n, -np.log(2) * n, np.log1p(n)])
        log_rho, k, band = criteria._envelope_fit(logs)
        assert band == 1 / 3
        assert log_rho[:3] == pytest.approx([0.0, 0.5, -np.log(2)], abs=1e-12)
        assert k[:3] == pytest.approx([0.0] * 3, abs=1e-10)
        log_rho, k, band = criteria._envelope_fit(logs[:3])
        assert not log_rho.any() and not k.any() and band == np.inf
        classes = classify_orbits(logs)
        assert classes[0] == Classification(kind="convergent", limit=pytest.approx(2.0, rel=1e-15))
        assert classes[1:] == [Classification(kind="bounded-nonconvergent")] * 3

    def test_working_set(self):
        # Classifying a d64 batch (RANDOM_PROBES columns, 2001 rows; 63 KiB
        # at 4) exponentiates only the windows the rules read: no copy of
        # the batch.
        import tracemalloc

        A = gen_jordan_perturbation(64, np.exp(0.7j), 1.0, seed=0)
        an = Analysis(A, RunConfig(seed=0))
        _, logs = an.orbits
        assert logs.shape == (2001, RANDOM_PROBES)
        tracemalloc.start()
        try:
            classify_orbits(logs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * logs.nbytes

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1e110, 1e200])
    def test_structural_exponents_huge_entries(self, big):
        # (A - zI)^k P_j h reaches big^2: its norms are taken from columns
        # rescaled by powers of two, so nothing overflows (a RuntimeWarning
        # fails the test), and the exponents are those of the plain shift:
        # 2 for the random probes, k for the basis vector e_k.
        an = Analysis(big * np.eye(3, k=1), RunConfig(seed=0))
        rep = theorem_check(an)
        exponents = [r.structural_exponent for _, r in rep.probes]
        assert exponents == [r.structural_exponent for _, r in theorem_check(np.eye(3, k=1), RunConfig(seed=0)).probes]
        assert exponents == [2] * RANDOM_PROBES
        assert rep.orbits_convergent and all(r.classification.kind == "convergent" for _, r in rep.probes)
        assert structural_envelope(an.A, np.eye(3), an.decomposition)[1] == [0, 1, 2]

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e9])
    def test_structural_exponents_do_not_depend_on_scale(self, c):
        # The chain steps A - zI at the scale of A's largest entry, so the
        # index-3 root of c (0.5 I_3 + J_3) gives every probe the exponent 2
        # at every c, as at c = 1.
        rep = theorem_check(c * (0.5 * np.eye(3) + np.eye(3, k=1)), RunConfig(seed=0))
        assert [r.structural_exponent for _, r in rep.probes] == [2] * RANDOM_PROBES


def _slow_decay_instances():
    """r < 1 with a large transient: the norms at n = 2000 are still large
    and falling, far from 0."""
    J4, J6 = np.eye(4, k=1), np.eye(6, k=1)
    tail = np.zeros((7, 7))
    tail[:6, :6] = 0.99 * np.eye(6) + 10 * J6
    tail[6, 6] = 0.5
    return {"0.99I4+30J4": 0.99 * np.eye(4) + 30 * J4, "0.99I6+10J6,0.5": tail}


def _assert_classes_match_exponents(rep, where):
    """A probe of structural exponent k >= 1 grows like n^k; one of
    exponent 0 is bounded."""
    for label, rec in rep.probes:
        c, k = rec.classification, rec.structural_exponent
        if k:
            assert (c.kind, c.degree) == ("polynomial-growth", k), (where, label, c, k)
        else:
            assert c.kind in ("convergent", "bounded-nonconvergent"), (where, label, c)


class TestEnvelopeClasses:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_identity_plus_shift_is_polynomial(self, k):
        # I + J_k: every random probe grows like n^(k-1), not
        # exponentially at a rate near 1.
        rep = theorem_check(np.eye(k) + np.eye(k, k=1), RunConfig(seed=0))
        assert not rep.power_bounded and not rep.orbits_convergent
        _assert_classes_match_exponents(rep, k)
        assert [r.classification.degree for _, r in rep.probes] == [k - 1] * RANDOM_PROBES

    @pytest.mark.parametrize("name", list(_slow_decay_instances()))
    def test_slow_decay_converges(self, name):
        an = Analysis(_slow_decay_instances()[name], RunConfig(seed=0))
        rep = theorem_check(an)
        assert rep.orbits_convergent and rep.power_bounded and rep.consistent
        assert all(r.classification == Classification(kind="convergent", limit=0.0) for _, r in rep.probes)
        verdict = uniform_stability(an)
        assert verdict.uniformly_stable and verdict.strongly_stable

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_jordan_perturbation_degrees(self, dim):
        A = gen_jordan_perturbation(dim, np.exp(0.7j), 1.0, seed=dim)
        rep = theorem_check(A, RunConfig(seed=0))
        _assert_classes_match_exponents(rep, dim)
        assert any(r.classification.kind == "polynomial-growth" for _, r in rep.probes)


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

    def test_reader_cuts_after_limit(self):
        # The engine runs the full horizon, and the classifier reads all of
        # it; orbit_norms_batch cuts the whole batch at the first row past
        # log OVERFLOW_LIMIT.
        A = np.diag([3.0, 0.5]).astype(complex)
        full = orbit_log_norms_batch(A, np.eye(2, dtype=complex), 1000)
        assert full.shape == (1001, 2)
        classes = classify_orbits(full)
        assert classes[0].kind == "exponential-growth" and classes[0].rate == pytest.approx(3.0)
        # 0.5^n dies, so the e1 column converges.
        assert classes[1] == Classification(kind="convergent", limit=0.0)
        norms, overflow = orbit_norms_batch(A, np.eye(2, dtype=complex), 1000)
        n = overflow
        assert full[n, 0] > np.log(1e300) >= full[n - 1, 0]
        assert norms.shape == (n + 1, 2)
        assert norms[n, 1] == pytest.approx(0.5**n, rel=1e-12)

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

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_power_log_norms_prefix_bit_identical(self, dim):
        # A trajectory computed once at the longest horizon is reused at
        # shorter ones; the reuse must not change a single bit.  Blocks hold
        # 200, 133, 64, 16 and 4 powers at these dims, so 10 ends inside a
        # block that the longer run fills, and so does 1000 at dims 8-32.
        A = _engine_instances(dim)["jordan"]
        full = power_log_norms(A, 2000)
        assert np.array_equal(power_log_norms(A, 1000), full[:1000])
        assert np.array_equal(power_log_norms(A, 10), full[:10])

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_engine_prefix_bit_identical(self, dim):
        # Block boundaries do not depend on the horizon: a shorter orbit is
        # a prefix of a longer one, bit for bit.
        rng = np.random.default_rng(dim)
        H = rng.standard_normal((dim, dim + 20)) + 1j * rng.standard_normal((dim, dim + 20))
        for name, A in _engine_instances(dim).items():
            full = orbit_log_norms_batch(A, H, 2000)
            assert np.array_equal(orbit_log_norms_batch(A, H, 300), full[:301]), name

    def test_block_cut_matches_reference_loops(self):
        # Largest entry 12.7, so A is prescaled by 2^-4, and unimodular
        # spectrum: the prescaled norms shrink by about 2^-4 per step and
        # pass TINY_NORM inside every block (about 125 steps in), where the
        # block is cut and the next one retakes the step.
        A = gen_oblique(4, np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j), 50, seed=2)
        assert criteria._prescaled(A)[1] == 4
        rng = np.random.default_rng(0)
        H = rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24))
        logs = orbit_log_norms_batch(A, H, 2000)
        for j in range(H.shape[1]):
            ref = _reference_orbit_log_norms(A, H[:, j], 2000)
            assert np.max(np.abs(logs[:, j] - ref)) <= 1e-10, j
        # The rescales work on real views; the memory order of the inputs
        # does not matter.
        F = np.asfortranarray
        assert np.array_equal(orbit_log_norms_batch(F(A), F(H), 2000), logs)
        ref = _reference_power_log_norms(A, 1000)
        assert np.max(np.abs(power_log_norms(A, 1000) - ref)) <= 1e-10

    def test_huge_entry_keeps_small_column(self):
        # Prescaled, e1's first step of every block is 2^-666: the blocks are
        # one step long and their norms are taken with hypot.
        logs = orbit_log_norms_batch(np.diag([1e200, 0.5]), np.eye(2), 2000)
        assert logs[2000, 1] == pytest.approx(2000 * np.log(0.5), rel=1e-12)
        assert logs[2000, 0] == pytest.approx(2000 * np.log(1e200), rel=1e-12)

    def test_tiny_column_at_unit_scale(self):
        # The largest entry is 1, yet the squares of e1's column (2^-600)
        # underflow: its steps are one-step blocks with hypot norms, so the
        # column reads n log 2^-600 and not -inf.
        A = np.diag([1.0, 2.0**-600])
        logs = orbit_log_norms_batch(A, np.eye(2), 2000)
        n = np.array([1, 2, 3, 2000])
        assert logs[n, 1] == pytest.approx(n * np.log(2.0**-600), rel=1e-12)
        assert orbit_root_limit(A, np.eye(2))[1] == pytest.approx(2.0**-600, rel=1e-6)

    def test_power_log_norms_scalar(self):
        A = np.array([[0.5]], dtype=complex)
        logs = power_log_norms(A, 400)
        assert logs[-1] == pytest.approx(400 * np.log(0.5), rel=1e-10)

    def test_power_log_norms_no_overflow_huge_growth(self):
        A = np.array([[3000.0]], dtype=complex)
        logs = power_log_norms(A, 500)
        assert np.isfinite(logs[-1])
        assert logs[-1] == pytest.approx(500 * np.log(3000.0), rel=1e-10)

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_frobenius_logs_match_reference(self, dim):
        # Off the basis orbits, the log-sum of the power-bound and decay
        # checks is log ||A^n||_F; the nilpotent shift reads -inf on every
        # row from n = dim.
        for name, A in _engine_instances(dim).items():
            fro = frobenius_log_norms(orbit_log_norms_batch(A, np.eye(dim), 300), dim)
            assert fro[0] == pytest.approx(0.5 * np.log(dim), rel=1e-15), name
            ref = _reference_power_log_norms(A, 300, "fro")
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(fro[1:]), dead), name
            err = np.abs(fro[1:][~dead] - ref[~dead]) / np.maximum(1.0, np.abs(ref[~dead]))
            assert np.max(err) <= 1e-12, name
            if name == "nilpotent":
                assert np.all(np.isneginf(fro[dim:])) and np.isfinite(fro[dim - 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1e150, 1e200])
    def test_frobenius_logs_huge_entries(self, big):
        # The squares of 1e150 overflow: the Frobenius norms are taken in
        # log space (a RuntimeWarning fails the test), off the basis orbits
        # and off the random probes of the analysis.
        A = np.diag([big, 0.5])
        fro = frobenius_log_norms(orbit_log_norms_batch(A, np.eye(2), 2000), 2)
        assert fro[2000] == pytest.approx(2000 * np.log(big), rel=1e-12)
        _, logs = Analysis(A, RunConfig(seed=0)).orbits
        for fro in (fro, frobenius_log_norms(logs, RANDOM_PROBES)):
            assert np.diff(fro[1:]) == pytest.approx(np.full(1999, np.log(big)), rel=1e-9)

    def test_tiny_entries(self):
        # The squares of 1e-170 underflow to zero: unscaled, every power
        # and every orbit step read -inf.
        A = 1e-170 * np.eye(2)
        want = np.arange(1, 4) * np.log(1e-170)
        assert power_log_norms(A, 3) == pytest.approx(want, rel=1e-12)
        logs = orbit_log_norms_batch(A, np.eye(2), 3)
        assert logs[1:] == pytest.approx(np.column_stack([want, want]), rel=1e-12)
        assert frobenius_log_norms(logs, 2)[1:] == pytest.approx(want + 0.5 * np.log(2), rel=1e-12)


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

    @pytest.mark.parametrize(
        "A",
        [dft4(), np.eye(3, k=1, dtype=complex), gen_normaloid_nonnormal(5, seed=0, target_norm=2.0)],
        ids=["unitary", "J3", "normaloid-nonnormal"],
    )
    def test_normaloid_scale_invariant(self, A):
        # r and ||A|| scale together, and so does the tolerance between
        # them: 1e-9 J_3 (r = 0 < ||A||) is not normaloid.
        want = is_normaloid(A)
        assert [is_normaloid(c * A) for c in 10.0 ** np.arange(-12, 7)] == [want] * 19

    @pytest.mark.parametrize("eps", [1e-7, 1e-8])
    def test_normaloid_no_warning_in_power_band(self, eps):
        # ||A|| <= (1 + 1e-6) r: the power test cannot fail, so "r vs ||A||
        # says False, power norms say True" is no conflict (and a warning
        # is an error here).
        assert not is_normaloid(_near_unitary(eps))

    def test_normaloid_warns_on_conflict(self):
        # The shift has r = 0 but ||A^n|| = 1 for n <= 10.
        with pytest.warns(RuntimeWarning, match="normaloid tests disagree"):
            assert not is_normaloid(np.diag(np.ones(11), 1))

    def test_power_bounded(self):
        assert is_power_bounded(dft4())
        assert is_power_bounded(canonical_oblique())
        assert not is_power_bounded(np.array([[1, 1], [0, 1]], dtype=complex))
        assert not is_power_bounded(1.2 * np.eye(2))

    def test_power_bound_reads_run_config(self, monkeypatch):
        # The Frobenius column is classified under the analysis's window
        # and tol_conv, as every other orbit reader is.
        seen, classify = [], criteria.classify_orbits

        def recorder(logs, *args):
            seen.append(args)
            return classify(logs, *args)

        monkeypatch.setattr(criteria, "classify_orbits", recorder)
        assert is_power_bounded(Analysis(dft4(), RunConfig(window=40, tol_conv=1e-5)))
        assert seen == [(40, 1e-5)]

    @pytest.mark.parametrize("scale, k", [(1e100, 5), (1e60, 6), (1e110, 3), (1.0, 5), (1e30, 8)])
    def test_vanishing_powers_are_bounded(self, scale, k):
        # c J_k R has finite Frobenius norms up to n = k - 1, the largest past
        # e^600 for the first two, and exactly zero powers after.
        an = Analysis(scale * np.eye(k, k=1))
        logs = an.frobenius_logs
        assert np.isfinite(logs).sum() == k - 1 and logs[-1] == -np.inf
        assert is_power_bounded(an)

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_frobenius_power_bound_agrees_with_structure(self, dim):
        # is_power_bounded raises when the Frobenius norms of the powers
        # times the random probes and the roots disagree.  The cond caps stay below 1e4,
        # where the fixed UNIT_TOL starts to misread computed roots.
        cfg = RunConfig(n_max=POWER_STEPS, seed=0)
        for seed in range(3):
            z = spread_unimodular(np.random.default_rng(seed), dim)
            for cap in (2.0, 50.0, 1e3):
                assert is_power_bounded(gen_oblique(dim, z, cap, seed), cfg), (cap, seed)
            assert is_power_bounded(gen_unitary_finite_spectrum(dim, z[:3], seed), cfg), seed
            assert not is_power_bounded(gen_jordan_perturbation(dim, z[0], 1.0, seed), cfg), seed


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
        assert f'"orbits_margin": {jsonout.dumps(rep.orbits_margin)[:-1]}' in text
        assert "orbits_note" not in text

    def test_one_product_per_block(self, monkeypatch):
        # Each block's rows R_j H of the one product B^-1 H are rescaled
        # once, and the chain of the index-2 root -0.7, of largest modulus,
        # starts from B_j times its columns: two blocks and one chain step.
        an = Analysis(gen_planted_jordan(6, [(0.4j, 3), (-0.7, 2)], 50.0, 2), RunConfig(seed=0))
        assert [b.index for b in an.decomposition.blocks] == [2, 3]
        unit_columns, calls = criteria._unit_columns, []
        monkeypatch.setattr(criteria, "_unit_columns", lambda V, t: calls.append(V.shape) or unit_columns(V, t))
        rep = theorem_check(an)
        assert calls == [(b.dim, RANDOM_PROBES) for b in an.decomposition.blocks] + [(6, RANDOM_PROBES)]
        assert [r.structural_exponent for _, r in rep.probes] == [1] * RANDOM_PROBES

    def test_report_keys_are_record_fields(self):
        # A record's JSON keys are its fields, in order; a Classification
        # leaves out the fields it does not set.
        an = Analysis(gen_jordan_perturbation(4, np.exp(0.7j), 1.0, seed=4), RunConfig(seed=0))
        rep = theorem_check(an)
        assert rep.witness is not None
        assert list(rep.to_obj()) == list(CriteriaReport._fields)
        for record in (uniform_stability(an), growth_bound(an)):
            assert list(record.to_obj()) == list(record._fields)
        classes = [rec.classification for _, rec in rep.probes] + [
            Classification(kind="convergent", limit=0.5),
            Classification(kind="polynomial-growth", limit=0.5, degree=2),
            Classification(kind="exponential-growth", rate=2.0),
            Classification(kind="bounded-nonconvergent"),
        ]
        for cls in classes:
            assert list(cls.to_obj()) == [f for f in cls._fields if getattr(cls, f) is not None]

    def test_orthogonal_blocks_get_no_overlap_probe(self):
        rep = theorem_check(dft4(), RunConfig(seed=0))
        assert rep.orbits_convergent and rep.orbits_margin <= COMPONENT_TOL
        labels = [label for label, _ in rep.probes]
        assert labels == [f"rand{t}" for t in range(RANDOM_PROBES)]

    def test_oblique_overlap_probe_last(self):
        rep = theorem_check(canonical_oblique(), RunConfig(seed=0))
        assert rep.orbits_margin == pytest.approx(np.sqrt(0.5), rel=1e-12)
        overlaps = [label for label, _ in rep.probes if label.startswith("overlap")]
        assert overlaps == ["overlap0+1"] and rep.probes[-1][0] == "overlap0+1"
        assert rep.probes[-1][1].classification.kind == "bounded-nonconvergent"

    def test_near_unitary_margin_raises(self):
        # Eigenspaces 1.4e-7 off orthogonal: the orbits oscillate far below
        # the window tolerance, so every probe reads convergent.
        with pytest.raises(InconsistencyError, match=r"orbit convergence.*margin 1\.4\de-07"):
            theorem_check(_near_unitary(1e-7), RunConfig(seed=0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_close_unitary_roots_converge(self, seed):
        # Eigenvalues 1e-7 apart: the computed eigenvectors are a few 1e-9
        # off orthogonal, above COMPONENT_TOL but within their basis errors.
        A = gen_unitary_finite_spectrum(4, [1, np.exp(1e-7j)], seed)
        rep = theorem_check(A, RunConfig(seed=0))
        assert rep.unitary and rep.orbits_convergent and rep.consistent
        assert COMPONENT_TOL < rep.orbits_margin < 1e-7
        assert not any(label.startswith("overlap") for label, _ in rep.probes)

    def test_unresolved_margin_raises(self):
        # Eigenvalues 1e-6 apart, eigenspaces 2e-7 off orthogonal: the
        # cosine lies within GAP times the basis errors (2e-9 together).
        U = gen_unitary_finite_spectrum(4, [1, np.exp(1e-6j)], 0)
        S = np.eye(4) + 1e-7 * np.random.default_rng(1).standard_normal((4, 4))
        with pytest.raises(IllConditionedSpectrumError, match=r"orbit convergence.*cosine 2\.\d+e-07"):
            theorem_check(S @ U @ np.linalg.inv(S), RunConfig(seed=0))

    @pytest.mark.parametrize(
        "A, kind",
        [(dft4(), "bounded-nonconvergent"), (canonical_oblique(), "convergent")],
        ids=["dft4", "oblique"],
    )
    def test_probe_disagreement_raises(self, A, kind, monkeypatch):
        # Every probe reads the opposite of the structural verdict.
        classify = criteria.classify_orbits

        def flipped(*args):
            return [Classification(kind=kind)] * len(classify(*args))

        monkeypatch.setattr(criteria, "classify_orbits", flipped)
        with pytest.raises(InconsistencyError, match="orbit convergence"):
            theorem_check(A, RunConfig(seed=0))

    def test_close_unimodular_roots_stay_simple(self):
        # Eigenvalues 3e-5 apart are two simple roots, not one of index 2.
        z = np.exp(0.7j)
        A = gen_oblique(3, [z, z * np.exp(3e-5j), -1], cond_cap=10, seed=1)
        roots = sorted(minimal_polynomial(A).roots, key=lambda zi: np.angle(zi[0]))
        assert [i for _, i in roots] == [1, 1, 1]
        assert roots[0][0] == pytest.approx(z, abs=1e-9)
        assert roots[1][0] == pytest.approx(z * np.exp(3e-5j), abs=1e-9)

    def test_inconsistent_power_bound_raises(self, monkeypatch):
        # A minimal polynomial that gives a unimodular root index 2 while
        # the powers stay bounded.
        monkeypatch.setattr(criteria, "minimal_polynomial", _with_unimodular_index_2)
        with pytest.raises(InconsistencyError, match="power boundedness"):
            theorem_check(canonical_oblique(), RunConfig(seed=0))


class TestAnalysis:
    def test_analysis_matches_matrix(self):
        A = canonical_oblique()
        an = Analysis(A, RunConfig(seed=0))
        assert theorem_check(an).to_obj() == theorem_check(A, RunConfig(seed=0)).to_obj()
        assert np.array_equal(an.power_logs(10), power_log_norms(A, 10))
        assert is_normaloid(an) is is_normaloid(A)

    @pytest.mark.parametrize("stage", [
        theorem_check, is_power_bounded, criteria.orbit_convergence,
        normaloid_equivalence, uniform_stability,
    ])
    def test_analysis_with_config_rejected(self, stage):
        # An Analysis holds one config: a second one is refused, not
        # ignored, and nothing is propagated for it.
        an = Analysis(dft4(), RunConfig(seed=0))
        with pytest.raises(InvalidInputError, match="holds its own config"):
            stage(an, RunConfig(seed=7))
        assert "orbits" not in an.__dict__
        assert criteria.as_analysis(an) is an

    def test_bare_is_normaloid_reads_ten_steps(self, monkeypatch):
        import aolab.criteria as criteria

        steps = []

        def spy(A, n_max):
            steps.append(n_max)
            return power_log_norms(A, n_max)

        monkeypatch.setattr(criteria, "power_log_norms", spy)
        assert is_normaloid(dft4())
        assert steps == [10]

    def test_power_logs_stop_at_power_steps(self, monkeypatch):
        # The trajectory stops at POWER_STEPS by default; a shorter one is
        # the prefix of the longest formed so far, which is formed again
        # only when a longer one is asked for.
        steps = []
        monkeypatch.setattr(
            criteria, "power_log_norms", lambda A, n_max: steps.append(n_max) or power_log_norms(A, n_max)
        )
        an = Analysis(canonical_oblique())
        head = an.power_logs(10)
        full = an.power_logs()
        assert full.shape == (POWER_STEPS,) and steps == [10, POWER_STEPS]
        assert np.array_equal(head, full[:10])
        assert np.shares_memory(an.power_logs(10), full) and an.power_logs(500).shape == (500,)
        assert steps == [10, POWER_STEPS]
        assert not full.flags.writeable

    def test_checks_read_no_power_trajectory(self, monkeypatch):
        # The power-bound and decay checks read the probe batch; only
        # is_normaloid's ten steps form powers, once on the analysis.
        steps, horizons = [], []
        trajectory, batch = criteria.power_log_norms, criteria.orbit_log_norms_batch
        monkeypatch.setattr(
            criteria, "power_log_norms", lambda A, n_max: steps.append(n_max) or trajectory(A, n_max)
        )
        monkeypatch.setattr(
            criteria, "orbit_log_norms_batch", lambda A, H, n_max: horizons.append(n_max) or batch(A, H, n_max)
        )
        cfg = RunConfig(seed=0)
        an = Analysis(dft4(), cfg)
        theorem_check(an)
        normaloid_equivalence(an)
        uniform_stability(an)
        assert steps == [10] and horizons == [cfg.n_max]
        # Below POWER_STEPS the batch still runs POWER_STEPS steps, once, and
        # the probes read its prefix: bit for bit the longer run's rows.
        horizons.clear()
        short = theorem_check(Analysis(canonical_oblique(), RunConfig(n_max=500, seed=0)))
        assert horizons == [POWER_STEPS]
        full = theorem_check(Analysis(canonical_oblique(), RunConfig(seed=0)))
        assert [lab for lab, _ in short.probes] == [lab for lab, _ in full.probes]
        for (_, s), (_, f) in zip(short.probes, full.probes):
            assert np.array_equal(s.log_norms, f.log_norms[:501])


def _reference_block_overlap(an):
    """``Analysis.block_overlap`` as one SVD per pair: the loop that the
    Gram product replaced, kept as the reference.  Each basis error is
    ``_basis_error``'s, from the rank evidence that the minimal polynomial
    kept, and must be at least s_{d-m+1} / s_{d-m} from an SVD of A - zI
    (m < d the block's dim), the bound that evidence brackets."""
    blocks = {k: b for k, b in enumerate(an.decomposition.blocks) if abs(abs(b.z) - 1) <= CIRCLE_TOL}
    d = an.A.shape[0]
    err = {}
    for k, b in blocks.items():
        err[k] = criteria._basis_error(an, k)
        if b.dim < d:
            s = np.linalg.svd(an.A - b.z * np.eye(d), compute_uv=False)
            assert err[k] >= s[d - b.dim] / s[d - b.dim - 1], (b.z, err[k], s[d - b.dim] / s[d - b.dim - 1])
    kind, margin, pair = 0, 0.0, None
    for a, b in combinations(blocks, 2):
        c = float(np.linalg.svd(blocks[a].basis.conj().T @ blocks[b].basis, compute_uv=False)[0])
        r = err[a] + err[b]
        k = int(decide(c, COMPONENT_TOL, r))
        if (k, c) > (kind, margin):
            kind, margin, pair = k, c, (a, b, r)
    return kind, margin, pair


def _unresolved():
    """Eigenvalues 1e-6 apart, eigenspaces 2e-7 off orthogonal: a cosine
    within GAP times its basis errors (kind 1)."""
    U = gen_unitary_finite_spectrum(4, [1, np.exp(1e-6j)], 0)
    S = np.eye(4) + 1e-7 * np.random.default_rng(1).standard_normal((4, 4))
    return S @ U @ np.linalg.inv(S)


def _tie():
    """canonical_oblique beside i times itself: the pairs (-1, 1) and
    (-i, i) are oblique with the same cosine, bit for bit."""
    O, Z = canonical_oblique(), np.zeros((2, 2))
    return np.block([[O, Z], [Z, 1j * O]])


def _overlap_instances():
    """(name, matrix): the five desk families at d4-d16, unitaries with
    repeated roots (blocks of mixed dims), the near- and close-unitary
    digest inputs, an undecided pair, and two oblique pairs that tie."""
    out = []
    for dim in (4, 8, 16):
        for seed in range(3):
            rng = np.random.default_rng([dim, seed])
            out += [(f"{family}-d{dim}-s{seed}", _shape_matrix(family, dim, rng)) for family in FAMILIES]
            out.append((f"repeated-d{dim}-s{seed}", gen_unitary_finite_spectrum(dim, [1, 1j, -1], seed)))
    return out + [
        ("near-unitary-1e-7", _near_unitary(1e-7)),
        ("close-unitary-1e-7", gen_unitary_finite_spectrum(4, [1, 0.999999999999995 + 1e-7j], 0)),
        ("unresolved", _unresolved()),
        ("tie", _tie()),
    ]


class TestBlockOverlap:
    @pytest.mark.parametrize("A", [pytest.param(A, id=name) for name, A in _overlap_instances()])
    def test_matches_per_pair_svds(self, A):
        # The same kind and pair as one SVD per pair; cosines of orthogonal
        # pairs are rounding noise, so the margins agree to 1e-14 absolute.
        an = Analysis(A)
        kind, margin, pair = an.block_overlap
        ref_kind, ref_margin, ref_pair = _reference_block_overlap(an)
        assert kind == ref_kind
        assert (pair is None) == (ref_pair is None)
        if pair is not None:
            assert pair[:2] == ref_pair[:2]
            assert pair[2] == pytest.approx(ref_pair[2], rel=1e-3)
        assert abs(margin - ref_margin) <= 1e-14

    def test_tie_keeps_the_first_pair(self):
        # Two oblique pairs with the same cosine, bit for bit: the first in
        # combinations order wins, as in the loop.
        an = Analysis(_tie())
        blocks = an.decomposition.blocks
        cosines = {(a, b): np.linalg.svd(blocks[a].basis.conj().T @ blocks[b].basis, compute_uv=False)[0]
                   for a, b in combinations(range(len(blocks)), 2)}
        top = [p for p, c in cosines.items() if c == max(cosines.values())]
        assert len(top) == 2
        assert an.block_overlap[2][:2] == _reference_block_overlap(an)[2][:2] == top[0]

    def test_undecided_message_names_the_reference_pair(self):
        an = Analysis(_unresolved(), RunConfig(seed=0))
        kind, margin, (a, b, r) = _reference_block_overlap(an)
        assert kind == 1
        za, zb = (an.decomposition.blocks[k].z for k in (a, b))
        with pytest.raises(IllConditionedSpectrumError) as exc:
            criteria.orbit_convergence(an)
        assert f"roots {za:.6g} and {zb:.6g} have cosine {margin:.3g}" in str(exc.value)
        assert f"basis error {r:.3g} above" in str(exc.value)

    def test_svd_calls(self, monkeypatch):
        # On a cached decomposition of a d32 oblique with 32 simple
        # unimodular roots (496 pairs), block_overlap takes no SVD, and
        # the probe batch takes only the witness pair's.  On unitaries
        # with blocks of mixed dims, the basis errors take none either,
        # and every pair with a block of dim > 1 takes one without vectors.
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k))
        an = Analysis(gen_oblique(32, np.exp(2j * np.pi * np.arange(32) / 32), 50.0, seed=32), RunConfig(seed=0))
        an.decomposition
        calls.clear()
        assert an.block_overlap[0] == 2 and calls == []
        an.orbits
        assert calls == [{}]
        mixed = Analysis(gen_unitary_finite_spectrum(32, [1, 1j, -1, np.exp(0.3j)], 0))
        dims = mixed.decomposition.block_dims()
        assert len(dims) == 4 and max(dims) > 1
        calls.clear()
        errors = [criteria._basis_error(mixed, k) for k in range(4)]
        assert calls == [] and all(e > 0 for e in errors)
        assert mixed.block_overlap[0] == 0
        assert calls == [{"compute_uv": False}] * 6


def _reference_scalar_re_sequence(w, b, n_max):
    """The full-horizon probe ``scalar_re_sequence`` replaced: all n_max + 1
    terms of one cumprod through the window rule, with the same overflow
    and nonzero-b errors."""
    seq = np.full(n_max + 1, complex(w))
    seq[0] = 1.0
    try:
        with np.errstate(over="raise"):
            np.cumprod(seq, out=seq)
            seq *= complex(b)
            convergent, _ = _reference_window_limit(seq.real, RunConfig.window, RunConfig.tol_conv)
    except FloatingPointError:
        raise InvalidInputError("b is too large") from None
    if convergent and decide(abs(b), RunConfig.tol_conv) == 2:
        raise InconsistencyError("window rule reports convergence for nonzero b")
    return convergent


def _outcome(probe, *args):
    """probe(*args)'s verdict, or the class of the error it raised."""
    try:
        return probe(*args)
    except (InvalidInputError, InconsistencyError) as exc:
        return type(exc)


class TestScalarSequence:
    @pytest.mark.parametrize("n_max", [
        7, 60, 101, criteria.STACK_ENTRIES - 1, criteria.STACK_ENTRIES, criteria.STACK_ENTRIES + 1,
        2 * criteria.STACK_ENTRIES - 1, 20000, 100_000,
    ])
    @pytest.mark.parametrize("b", [0.0, 0.3 + 0.4j, -1.7 + 0.05j, 1e-7, 1e-6j, -1e-5 + 1e-6j])
    def test_same_as_full_horizon(self, n_max, b):
        # Horizons around the window and the old chunk edges, and near-edge
        # inputs: |b| about the window tolerance, w within 0.001 turns of +-1.
        for w in (np.exp(0.7j), np.exp(2.9j), np.exp(-1.3j),
                  np.exp(2e-3j * np.pi), np.exp(-2e-4j * np.pi), -np.exp(1e-3j * np.pi)):
            v = _outcome(lambda: scalar_re_sequence(w, b, n_max).convergent)
            assert v == _outcome(_reference_scalar_re_sequence, w, b, n_max)

    def test_b_zero_convergent(self):
        v = scalar_re_sequence(np.exp(0.7j), 0.0, n_max=20000)
        assert v.convergent

    def test_nonzero_b_nonconvergent(self):
        v = scalar_re_sequence(np.exp(0.7j), 0.3 + 0.4j, n_max=20000)
        assert not v.convergent

    def test_w_plus_minus_one_rejected(self):
        with pytest.raises(InvalidInputError):
            scalar_re_sequence(1.0, 1.0)
        with pytest.raises(InvalidInputError):
            scalar_re_sequence(-1.0, 1.0)

    def test_nonunimodular_rejected(self):
        with pytest.raises(InvalidInputError):
            scalar_re_sequence(0.9, 1.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(InvalidInputError, match="n_max must be nonnegative, got -1"):
            scalar_re_sequence(np.exp(0.7j), 1.0, -1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w, b", [
        (np.exp(0.7j), np.inf), (np.exp(0.7j), complex(0, np.nan)),
        (complex(np.nan, 0), 1.0), (complex(np.inf, 1), 1.0),
    ])
    def test_non_finite_rejected(self, w, b):
        message = f"w and b must be finite, got w = {complex(w)}, b = {complex(b)}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            scalar_re_sequence(w, b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1e308 + 1e308j, 5e307, -1e308])
    def test_overflowing_b_rejected(self, b):
        # At 1e308 + 1e308i the product w^n b overflows; at 5e307 the sum
        # of the window's terms does.
        with pytest.raises(InvalidInputError, match=re.escape(f"b = {complex(b)} is too large")):
            scalar_re_sequence(np.exp(0.7j), b)

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
    """One probe's orbit: ``classify_orbits`` of a one-column batch and its
    structural exponent (``structural_envelope``)."""

    @staticmethod
    def analyze(A, h, n_max=RunConfig.n_max):
        H = h.reshape(-1, 1)
        (cls,) = classify_orbits(orbit_log_norms_batch(A, H, n_max))
        (exponent,) = structural_envelope(A, H, Analysis(A).decomposition)[1]
        return cls, exponent

    def test_jordan_probe_grows_linearly(self):
        A = gen_jordan_perturbation(2, 1.0, 1.0, seed=0)
        cls, exponent = self.analyze(A, np.array([0.0, 1.0], dtype=complex), n_max=20000)
        assert cls.kind == "polynomial-growth"
        assert cls.degree == 1
        assert exponent == 1

    def test_kernel_probe_stays_flat(self):
        A = gen_jordan_perturbation(2, 1.0, 1.0, seed=0)
        cls, exponent = self.analyze(A, np.array([1.0, 0.0], dtype=complex))
        assert cls.kind == "convergent"
        assert cls.limit == pytest.approx(1.0, abs=1e-6)
        assert exponent == 0

    def test_horizon_from_config(self):
        A = gen_jordan_perturbation(2, 1.0, 1.0, seed=0)
        rep = theorem_check(A, RunConfig(n_max=500))
        rec = dict(rep.probes)["rand0"]
        assert rec.log_norms.shape == (501,)
