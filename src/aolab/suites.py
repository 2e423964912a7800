"""Seeded property suites over generated instance families.

Each suite returns a SuiteResult with per-trial pass counts; the CLI
``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .criteria import Analysis, orbit_norms_batch, scalar_re_sequence, theorem_check
from .errors import AolabError
from .generators import (
    SQRT2,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_planted_jordan,
    gen_scalar_rotation,
    gen_unitary_finite_spectrum,
    haar_unitary,
    planted_roots,
    spread_unimodular,
    subseeds,
)
from .stability import (
    growth_bound,
    normal_limit,
    normaloid_equivalence,
    orbit_root_limit,
    uniform_stability,
)
from .structure import decompose, minimal_polynomial, restriction_spectra


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    total: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def record(self, label: str, good: bool, detail: str = ""):
        self.total += 1
        if good:
            self.passed += 1
        else:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {self.passed}/{self.total} {status}"


# ---------------------------------------------------------------------------
# Theorem / decomposition suites
# ---------------------------------------------------------------------------

def suite_theorem_unitary(trials: int, seed: int, n_max: int = 2000) -> SuiteResult:
    """Unitary instances with finite planted spectrum satisfy all four
    conditions consistently."""
    res = SuiteResult("theorem-unitary")
    rng = np.random.default_rng(seed)
    for t, sub in enumerate(subseeds(seed, trials)):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, dim + 1))
        A = gen_unitary_finite_spectrum(dim, spread_unimodular(rng, k), sub)
        try:
            rep = theorem_check(A, RunConfig(n_max=n_max, seed=sub))
            good = (
                rep.unitary
                and rep.normaloid
                and rep.contraction
                and rep.orbits_convergent
                and rep.power_bounded
                and rep.consistent
            )
            res.record(f"trial{t}", good, "" if good else repr(rep.to_obj()))
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


def suite_theorem_oblique(trials: int, seed: int, n_max: int = 2000) -> SuiteResult:
    """Oblique diagonalizable instances: power bounded, not unitary, with a
    concrete non-convergent (bounded) witness orbit."""
    res = SuiteResult("theorem-oblique")
    rng = np.random.default_rng(seed + 1)
    for t, sub in enumerate(subseeds(seed + 1, trials)):
        dim = int(rng.integers(2, 7))
        A = gen_oblique(dim, spread_unimodular(rng, dim), 50.0, sub)
        try:
            rep = theorem_check(A, RunConfig(n_max=n_max, seed=sub))
            witness_rec = None
            for _, rec in rep.probes:
                if rec.classification.kind != "convergent":
                    witness_rec = rec
                    break
            good = (
                rep.power_bounded
                and not rep.unitary
                and not rep.orbits_convergent
                and rep.witness is not None
                and rep.consistent
                and witness_rec is not None
                and witness_rec.classification.kind == "bounded-nonconvergent"
            )
            res.record(f"trial{t}", good, "" if good else repr(rep.to_obj()))
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


def suite_decomposition(trials: int, seed: int) -> SuiteResult:
    """Planted Jordan structure is recovered exactly; kernels fill the
    space; the certified constant satisfies the projection inequality;
    restriction spectra sit at the planted roots."""
    res = SuiteResult("decomposition")
    rng = np.random.default_rng(seed + 2)
    for t, sub in enumerate(subseeds(seed + 2, trials)):
        dim = int(rng.integers(3, 9))
        planted = planted_roots(rng, dim)
        A = gen_planted_jordan(dim, planted, cond_cap=100.0, seed=sub)
        try:
            mp = minimal_polynomial(A)
            want = sorted(planted, key=lambda zi: (zi[0].real, zi[0].imag))
            got = list(mp.roots)
            roots_ok = len(want) == len(got) and all(
                abs(w[0] - g[0]) <= 1e-6 and w[1] == g[1] for w, g in zip(want, got)
            )
            D = decompose(A, mp)
            dims_ok = sum(D.block_dims()) == dim
            # Sampled projection inequality ||h_j|| <= c ||sum h_k||.
            sub_rng = np.random.default_rng(sub)
            lobos_ok = True
            for _ in range(20):
                parts = [
                    b.basis @ (sub_rng.standard_normal(b.dim) + 1j * sub_rng.standard_normal(b.dim))
                    for b in D.blocks
                ]
                total = np.linalg.norm(sum(parts))
                if any(
                    np.linalg.norm(p) > D.constant_c * total * (1 + 1e-8) for p in parts
                ):
                    lobos_ok = False
                    break
            spectra = restriction_spectra(A, D)
            restr_ok = all(
                all(abs(z - b.z) <= 1e-4 for z, _ in spec.eigenvalues)
                for b, spec in zip(D.blocks, spectra)
            )
            good = roots_ok and dims_ok and lobos_ok and restr_ok
            res.record(
                f"trial{t}",
                good,
                "" if good else f"roots={roots_ok} dims={dims_ok} lobos={lobos_ok} restr={restr_ok}",
            )
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


# ---------------------------------------------------------------------------
# Orbit formula and growth suites
# ---------------------------------------------------------------------------

def suite_jadro(trials: int, probes: int, seed: int) -> SuiteResult:
    """Exact orbit-norm formula for alpha I + N with N^2 = 0:
    ||T^n h||^2 = ||h||^2 + 2 n Re(alpha <h, N h>) + n^2 ||N h||^2,
    checked over 100 steps, and divergence exactly off the kernel of N."""
    n_terms = 100
    res = SuiteResult("jadro-formula")
    rng = np.random.default_rng(seed + 3)
    for t, sub in enumerate(subseeds(seed + 3, trials)):
        dim = int(rng.integers(2, 9))
        phi = rng.uniform(0, 2 * math.pi)
        alpha = complex(math.cos(phi), math.sin(phi))
        scale = rng.uniform(0.5, 3.0)
        A = gen_jordan_perturbation(dim, alpha, scale, sub)
        N = A - alpha * np.eye(dim)
        sub_rng = np.random.default_rng(sub)
        good = True
        detail = ""
        # Kernel probe: orbit must stay bounded.
        u, s, vh = np.linalg.svd(N)
        kdim = int(np.sum(s <= 1e-10 * max(1.0, s[0])))
        kb = vh[dim - kdim:].conj().T
        for p in range(probes):
            if p == probes - 1 and kdim > 0:
                c = sub_rng.standard_normal(kdim) + 1j * sub_rng.standard_normal(kdim)
                h = kb @ c
            else:
                h = sub_rng.standard_normal(dim) + 1j * sub_rng.standard_normal(dim)
            Nh = N @ h
            ns = np.arange(n_terms + 1, dtype=float)
            predicted = (
                np.linalg.norm(h) ** 2
                + 2 * ns * np.real(alpha * np.vdot(Nh, h))
                + ns**2 * np.linalg.norm(Nh) ** 2
            )
            norms, _ = orbit_norms_batch(A, h.reshape(-1, 1), n_terms)
            actual = norms[:, 0] ** 2
            rel = np.max(np.abs(actual - predicted) / np.maximum(predicted, 1e-300))
            if rel > 1e-10:
                good, detail = False, f"probe{p} rel err {rel:g}"
                break
            diverges_pred = np.linalg.norm(Nh) > 1e-10 * np.linalg.norm(h)
            diverges_emp = actual[-1] > actual[0] + 0.5 * n_terms**2 * np.linalg.norm(Nh) ** 2
            if diverges_pred:
                if not diverges_emp:
                    good, detail = False, f"probe{p} expected divergence"
                    break
            else:
                if np.max(actual) > actual[0] * (1 + 1e-8):
                    good, detail = False, f"probe{p} kernel orbit grew"
                    break
        res.record(f"trial{t}", good, detail)
    return res


def suite_growth(trials: int, seed: int, nilpotent_fraction: float = 0.1) -> SuiteResult:
    """The certified bound ||A^n|| <= alpha n^kappa r^n holds up to
    POWER_STEPS; nilpotent instances vanish from n = deg p on."""
    res = SuiteResult("growth-bound")
    rng = np.random.default_rng(seed + 4)
    n_nil = max(1, int(round(trials * nilpotent_fraction)))
    for t, sub in enumerate(subseeds(seed + 4, trials)):
        dim = int(rng.integers(2, 9))
        try:
            if t < trials - n_nil:
                planted = planted_roots(rng, dim)
                A = gen_planted_jordan(dim, planted, cond_cap=100.0, seed=sub)
                gb = growth_bound(A)
                good = gb.max_violation_ratio <= 1 + 1e-8 and gb.valid_from == 1
                detail = "" if good else f"ratio {gb.max_violation_ratio}"
            else:
                i = int(rng.integers(2, min(4, dim + 1)))
                A = gen_planted_jordan(dim, [(0.0, i)], cond_cap=100.0, seed=sub)
                gb = growth_bound(A)
                good = gb.valid_from == i and gb.max_violation_ratio == 0.0
                detail = "" if good else f"valid_from {gb.valid_from}"
            res.record(f"trial{t}", good, detail)
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


# ---------------------------------------------------------------------------
# Scalar lemma suite
# ---------------------------------------------------------------------------

def suite_scalar(trials: int, seed: int, n_max: int = 100_000) -> SuiteResult:
    """Re(w^n b) never converges for |w| = 1, w != +-1, |b| >= 0.1; and
    always converges for b = 0."""
    res = SuiteResult("scalar-lemma")
    rng = np.random.default_rng(seed + 5)
    for t in range(trials):
        while True:
            theta = rng.uniform(0.02, 2 * math.pi - 0.02)
            if abs(theta - math.pi) >= 0.02:
                break
        w = complex(math.cos(theta), math.sin(theta))
        b = rng.uniform(0.1, 2.0) * np.exp(2j * math.pi * rng.uniform())
        try:
            v = scalar_re_sequence(w, b, n_max)
            v0 = scalar_re_sequence(w, 0.0, n_max)
            good = (not v.convergent) and v0.convergent
            res.record(f"trial{t}", good, "" if good else f"w={w} b={b}")
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


# ---------------------------------------------------------------------------
# Stability suites
# ---------------------------------------------------------------------------

def _random_normal_contraction(rng: np.random.Generator, dim: int, sub: int):
    """(A, Q): a normal contraction with eigenvalue moduli either exactly 1
    or at most 0.99 (keeps geometric decay resolvable at horizon 2000), and
    the orthogonal projection onto its unimodular eigenvectors."""
    sub_rng = np.random.default_rng(sub)
    mods = np.where(
        sub_rng.uniform(size=dim) < 0.4, 1.0, sub_rng.uniform(0.0, 0.99, size=dim)
    )
    phases = np.exp(2j * math.pi * sub_rng.uniform(size=dim))
    U = haar_unitary(dim, sub_rng)
    W = U[:, mods == 1.0]
    return U @ np.diag(mods * phases) @ U.conj().T, W @ W.conj().T


def suite_normal_limit(trials: int, probes: int, seed: int) -> SuiteResult:
    """lim ||A^n h||^2 = <Q h, h> for normal contractions; strong stability
    exactly when Q = 0."""
    res = SuiteResult("normal-limit")
    rng = np.random.default_rng(seed + 6)
    for t, sub in enumerate(subseeds(seed + 6, trials)):
        dim = int(rng.integers(2, 9))
        A, Q = _random_normal_contraction(rng, dim, sub)
        sub_rng = np.random.default_rng(sub + 1)
        try:
            q_zero = bool(np.linalg.norm(Q) <= 1e-10)
            good = True
            detail = ""
            H = np.column_stack([
                sub_rng.standard_normal(dim) + 1j * sub_rng.standard_normal(dim)
                for _ in range(probes)
            ])
            # Raises where a limit and its projection value disagree.
            for p, q in enumerate(normal_limit(A, H)):
                if q_zero and q > 1e-10:
                    good, detail = False, f"probe{p} limit {q} with Q=0"
                    break
                if not q_zero and p == 0:
                    # generic probe must see the unimodular part
                    if q <= 1e-10 and np.linalg.norm(Q @ H[:, 0]) > 1e-6:
                        good, detail = False, "projection value lost"
                        break
            res.record(f"trial{t}", good, detail)
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


def suite_normaloid(trials: int, seed: int) -> SuiteResult:
    """The three normaloid conditions agree on every instance (normal
    matrices and non-normal normaloid constructions)."""
    res = SuiteResult("normaloid-equivalence")
    rng = np.random.default_rng(seed + 7)
    targets = [0.7, 1.0, 3.0]
    for t, sub in enumerate(subseeds(seed + 7, trials)):
        dim = int(rng.integers(3, 9))
        if t % 2 == 0:
            sub_rng = np.random.default_rng(sub)
            expansive = sub_rng.uniform() < 0.5
            mods = sub_rng.uniform(0.2, 0.99, size=dim)
            if expansive:
                mods[0] = sub_rng.uniform(1.5, 3.0)
            elif sub_rng.uniform() < 0.5:
                mods[0] = 1.0
            phases = np.exp(2j * math.pi * sub_rng.uniform(size=dim))
            U = haar_unitary(dim, sub_rng)
            A = U @ np.diag(mods * phases) @ U.conj().T
        else:
            A = gen_normaloid_nonnormal(dim, sub, target_norm=targets[t % len(targets)])
        try:
            rep = normaloid_equivalence(A, RunConfig(seed=sub))
            res.record(f"trial{t}", rep.all_agree(), "")
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


def suite_root_limit(trials: int, seed: int) -> SuiteResult:
    """||A^n h||^(1/n) tends to the largest root modulus seen by h, within
    1e-3; equals r(A) for generic probes."""
    res = SuiteResult("root-limit")
    rng = np.random.default_rng(seed + 8)
    grid = np.array([0.3, 0.45, 0.6, 0.75, 0.9, 1.0])
    for t, sub in enumerate(subseeds(seed + 8, trials)):
        dim = int(rng.integers(2, 9))
        family = t % 3
        if family == 0:
            planted = planted_roots(rng, dim, modulus_grid=grid)
            A = gen_planted_jordan(dim, planted, cond_cap=100.0, seed=sub)
        elif family == 1:
            k = int(rng.integers(1, dim + 1))
            A = gen_unitary_finite_spectrum(dim, spread_unimodular(rng, k), sub)
        else:
            A = gen_oblique(dim, spread_unimodular(rng, dim), 50.0, sub)
        sub_rng = np.random.default_rng(sub + 2)
        try:
            an = Analysis(A)
            r = an.spectral_radius
            good = True
            detail = ""
            H = np.column_stack([
                sub_rng.standard_normal(dim) + 1j * sub_rng.standard_normal(dim)
                for _ in range(3)
            ])
            for p, rho in enumerate(orbit_root_limit(an, H)):
                if rho > r + 1e-3:
                    good, detail = False, f"probe{p} rho {rho} exceeds r {r}"
                    break
                if abs(rho - r) > 1e-3:  # generic h sees the full radius
                    good, detail = False, f"probe{p} rho {rho} != r {r}"
                    break
            res.record(f"trial{t}", good, detail)
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


def suite_taxonomy(trials: int, seed: int) -> SuiteResult:
    """uniformly stable => strongly stable => power bounded on mixed
    instances."""
    res = SuiteResult("stability-taxonomy")
    rng = np.random.default_rng(seed + 9)
    for t, sub in enumerate(subseeds(seed + 9, trials)):
        dim = int(rng.integers(2, 7))
        family = t % 3
        if family == 0:
            grid = np.array([0.3, 0.45, 0.6, 0.75, 0.9])
            planted = planted_roots(rng, dim, modulus_grid=grid)
            A = gen_planted_jordan(dim, planted, cond_cap=50.0, seed=sub)
        elif family == 1:
            k = int(rng.integers(1, dim + 1))
            A = gen_unitary_finite_spectrum(dim, spread_unimodular(rng, k), sub)
        else:
            phi = rng.uniform(0, 2 * math.pi)
            A = gen_jordan_perturbation(dim, complex(math.cos(phi), math.sin(phi)), 1.0, sub)
        try:
            v = uniform_stability(A, RunConfig(seed=sub))
            good = (not v.uniformly_stable or v.strongly_stable) and (
                not v.strongly_stable or v.power_bounded
            )
            res.record(f"trial{t}", good, "" if good else repr(v.to_obj()))
        except AolabError as exc:
            res.record(f"trial{t}", False, str(exc))
    return res


def suite_density(
    n_targets: int = 100, n_max: int = 100_000, tol: float = 1e-2
) -> SuiteResult:
    """The orbit of e1 under e^{2 pi i sqrt(2)} I visits every point of the
    unit circle within tol by step n_max."""
    res = SuiteResult("rotation-density")
    A = gen_scalar_rotation(1, SQRT2)
    z = A[0, 0]
    angles = (np.arange(n_max + 1) * (2 * math.pi * SQRT2)) % (2 * math.pi)
    pts = np.exp(1j * angles)
    targets = np.exp(2j * math.pi * np.arange(n_targets) / n_targets)
    for k, tgt in enumerate(targets):
        dist = float(np.min(np.abs(pts - tgt)))
        res.record(f"target{k}", dist <= tol, f"min distance {dist:g}")
    # sanity: the generator really is the scalar rotation
    res.record("fixture", abs(z - np.exp(2j * math.pi * SQRT2)) < 1e-12)
    return res


# ---------------------------------------------------------------------------
# CLI entry
# ---------------------------------------------------------------------------

def run_suites(name: str, config: RunConfig) -> list[SuiteResult]:
    tr, seed = config.trials, config.seed
    groups = {
        "theorem": lambda: [
            suite_theorem_unitary(tr, seed, config.n_max),
            suite_theorem_oblique(tr, seed, config.n_max),
            suite_decomposition(tr, seed),
        ],
        "growth": lambda: [suite_growth(tr, seed)],
        "stability": lambda: [
            suite_jadro(max(1, tr // 2), 20, seed),
            suite_normal_limit(tr, 10, seed),
            suite_normaloid(tr, seed),
            suite_root_limit(tr, seed),
            suite_taxonomy(tr, seed),
            suite_density(),
        ],
        "scalar": lambda: [suite_scalar(tr, seed)],
    }
    if name == "all":
        out = []
        for g in groups.values():
            out.extend(g())
        return out
    if name not in groups:
        raise ValueError(f"unknown suite {name!r}")
    return groups[name]()
