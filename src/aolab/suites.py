"""Seeded property suites over generated instance families.

Each suite returns a SuiteResult with per-trial pass counts; the CLI
``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .criteria import STACK_ENTRIES, orbit_norms_batch, scalar_re_sequence, theorem_check
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
from .structure import decompose, minimal_polynomial

ROOT_MATCH_TOL = 1e-6  # a recovered root lies this close to its planted one
RESTRICTION_TOL = 1e-4  # A compressed to a block has eigenvalues this close to the block's root
REL_SLACK = 1e-8  # relative slack of a checked inequality: the projection bound, a kernel orbit, a growth ratio
FORMULA_TOL = 1e-10  # relative: the orbit formula's error, and a zero singular value or N h of alpha I + N
LIMIT_ZERO = 1e-10  # a projection Q, an orbit limit or (relative) a nilpotent's power this small is zero
SEEN_TOL = 1e-6  # a probe h with ||Q h|| above this sees the unimodular part
TINY = 1e-300  # floor of a relative error's divisor
RADIUS_TOL = 1e-3  # an orbit's root limit lies this close to the largest planted root modulus
FIXTURE_TOL = 1e-12  # the scalar-rotation fixture against e^{2 pi i sqrt 2}


class SuiteResult:
    def __init__(self, name: str):
        self.name, self.passed, self.total, self.failures = name, 0, 0, []

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


def _trials(name: str, offset: int, trials: int, seed: int, trial) -> SuiteResult:
    """The harness of the trial suites: ``trial(t, rng, sub)`` returns
    (good, detail) for t = 0..trials-1, with ``rng`` one generator of
    ``seed + offset`` shared by the trials and ``sub`` the trial's own
    seed.  A trial that raises an AolabError fails with its message."""
    res = SuiteResult(name)
    rng = np.random.default_rng(seed + offset)
    for t, sub in enumerate(subseeds(seed + offset, trials)):
        try:
            good, detail = trial(t, rng, sub)
        except AolabError as exc:
            good, detail = False, str(exc)
        res.record(f"trial{t}", good, detail)
    return res


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A complex Gaussian vector of length ``dim``: real part, then imaginary."""
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


# ---------------------------------------------------------------------------
# Theorem / decomposition suites
# ---------------------------------------------------------------------------

def suite_theorem_unitary(trials: int, seed: int) -> SuiteResult:
    """Unitary instances with finite planted spectrum satisfy all four
    conditions consistently, at the default horizon ``RunConfig.n_max``."""

    def trial(t, rng, sub):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, dim + 1))
        A = gen_unitary_finite_spectrum(dim, spread_unimodular(rng, k), sub)
        rep = theorem_check(A, RunConfig(seed=sub))
        good = all((rep.unitary, rep.normaloid, rep.contraction, rep.orbits_convergent,
                    rep.power_bounded, rep.consistent))
        return good, "" if good else repr(rep.to_obj())

    return _trials("theorem-unitary", 0, trials, seed, trial)


def suite_theorem_oblique(trials: int, seed: int) -> SuiteResult:
    """Oblique diagonalizable instances at the default horizon: power
    bounded, not unitary, with a concrete bounded non-convergent witness orbit."""

    def trial(t, rng, sub):
        dim = int(rng.integers(2, 7))
        A = gen_oblique(dim, spread_unimodular(rng, dim), 50.0, sub)
        rep = theorem_check(A, RunConfig(seed=sub))
        kinds = (rec.classification.kind for _, rec in rep.probes)
        witness = next((kind for kind in kinds if kind != "convergent"), None)
        good = (
            rep.power_bounded and rep.consistent and rep.witness is not None
            and not rep.unitary and not rep.orbits_convergent
            and witness == "bounded-nonconvergent"
        )
        return good, "" if good else repr(rep.to_obj())

    return _trials("theorem-oblique", 1, trials, seed, trial)


def suite_decomposition(trials: int, seed: int) -> SuiteResult:
    """Planted Jordan structure is recovered exactly; kernels fill the
    space; the certified constant satisfies the projection inequality;
    restriction spectra sit at the planted roots."""

    def trial(t, rng, sub):
        dim = int(rng.integers(3, 9))
        planted = planted_roots(rng, dim)
        A = gen_planted_jordan(dim, planted, cond_cap=100.0, seed=sub)
        mp = minimal_polynomial(A)
        want = sorted(planted, key=lambda zi: (zi[0].real, zi[0].imag))
        roots_ok = len(want) == len(mp.roots) and all(
            abs(w[0] - g[0]) <= ROOT_MATCH_TOL and w[1] == g[1] for w, g in zip(want, mp.roots)
        )
        D = decompose(A, mp)
        dims_ok = sum(D.block_dims()) == dim
        # Sampled projection inequality ||h_j|| <= c ||sum h_k||.
        sub_rng = np.random.default_rng(sub)

        def violated():
            parts = [b.basis @ _gaussian(sub_rng, b.dim) for b in D.blocks]
            total = np.linalg.norm(sum(parts))
            return any(np.linalg.norm(p) > D.constant_c * total * (1 + REL_SLACK) for p in parts)

        lobos_ok = not any(violated() for _ in range(20))
        # The compression of A to each block has only the block's root.
        restr_ok = all(
            np.all(np.abs(np.linalg.eigvals(b.basis.conj().T @ A @ b.basis) - b.z) <= RESTRICTION_TOL)
            for b in D.blocks
        )
        good = roots_ok and dims_ok and lobos_ok and restr_ok
        return good, f"roots={roots_ok} dims={dims_ok} lobos={lobos_ok} restr={restr_ok}"

    return _trials("decomposition", 2, trials, seed, trial)


# ---------------------------------------------------------------------------
# Orbit formula and growth suites
# ---------------------------------------------------------------------------

def suite_jadro(trials: int, probes: int, seed: int) -> SuiteResult:
    """Exact orbit-norm formula for alpha I + N with N^2 = 0:
    ||T^n h||^2 = ||h||^2 + 2 n Re(alpha <h, N h>) + n^2 ||N h||^2,
    checked over 100 steps, and divergence exactly off the kernel of N."""
    n_terms = 100
    ns = np.arange(n_terms + 1, dtype=float)

    def trial(t, rng, sub):
        dim = int(rng.integers(2, 9))
        phi = rng.uniform(0, 2 * math.pi)
        alpha = complex(math.cos(phi), math.sin(phi))
        scale = rng.uniform(0.5, 3.0)
        A = gen_jordan_perturbation(dim, alpha, scale, sub)
        N = A - alpha * np.eye(dim)
        sub_rng = np.random.default_rng(sub)
        # Kernel probe: orbit must stay bounded.
        _, s, vh = np.linalg.svd(N)
        kdim = int(np.sum(s <= FORMULA_TOL * max(1.0, s[0])))
        kb = vh[dim - kdim:].conj().T
        # The probes, drawn in order, propagate as one batch (rows here).
        hs = np.array([
            kb @ _gaussian(sub_rng, kdim) if p == probes - 1 and kdim > 0 else _gaussian(sub_rng, dim)
            for p in range(probes)
        ])
        norms, _ = orbit_norms_batch(A, hs.T, n_terms)
        for p, h in enumerate(hs):
            Nh = N @ h
            predicted = (
                np.linalg.norm(h) ** 2
                + 2 * ns * np.real(alpha * np.vdot(Nh, h))
                + ns**2 * np.linalg.norm(Nh) ** 2
            )
            actual = norms[:, p] ** 2
            rel = np.max(np.abs(actual - predicted) / np.maximum(predicted, TINY))
            if rel > FORMULA_TOL:
                return False, f"probe{p} rel err {rel:g}"
            diverges_pred = np.linalg.norm(Nh) > FORMULA_TOL * np.linalg.norm(h)
            diverges_emp = actual[-1] > actual[0] + 0.5 * n_terms**2 * np.linalg.norm(Nh) ** 2
            if diverges_pred and not diverges_emp:
                return False, f"probe{p} expected divergence"
            if not diverges_pred and np.max(actual) > actual[0] * (1 + REL_SLACK):
                return False, f"probe{p} kernel orbit grew"
        return True, ""

    return _trials("jadro-formula", 3, trials, seed, trial)


def suite_growth(trials: int, seed: int, nilpotent_fraction: float = 0.1) -> SuiteResult:
    """The certified bound ||A^n|| <= alpha n^kappa r^n holds on plain numpy
    powers, n = 1..10 (``growth_bound`` raises where it fails up to POWER_STEPS);
    nilpotent instances vanish from n = deg p on, to LIMIT_ZERO max(1, ||A||)^(deg p)."""
    n_nil = max(1, int(round(trials * nilpotent_fraction)))
    n = np.arange(1, 11)

    def trial(t, rng, sub):
        dim = int(rng.integers(2, 9))
        if t < trials - n_nil:
            A = gen_planted_jordan(dim, planted_roots(rng, dim), cond_cap=100.0, seed=sub)
            gb = growth_bound(A)
            norms = [np.linalg.norm(np.linalg.matrix_power(A, k), 2) for k in n]
            ratio = float(np.max(norms / (gb.alpha * n**gb.kappa * gb.spectral_radius**n)))
            return ratio <= 1 + REL_SLACK, f"ratio {ratio}"
        i = int(rng.integers(2, min(4, dim + 1)))
        A = gen_planted_jordan(dim, [(0.0, i)], cond_cap=100.0, seed=sub)
        level = np.linalg.norm(np.linalg.matrix_power(A, i), 2) / max(1.0, np.linalg.norm(A, 2)) ** i
        valid_from = growth_bound(A).valid_from
        return valid_from == i and level <= LIMIT_ZERO, f"valid_from {valid_from}, level {level:.3g}"

    return _trials("growth-bound", 4, trials, seed, trial)


# ---------------------------------------------------------------------------
# Scalar lemma suite
# ---------------------------------------------------------------------------

def suite_scalar(trials: int, seed: int) -> SuiteResult:
    """Re(w^n b) never converges for |w| = 1, w != +-1, |b| >= 0.1, and
    always does for b = 0, at ``scalar_re_sequence``'s default horizon."""

    def trial(t, rng, sub):
        theta = math.pi
        while abs(theta - math.pi) < 0.02:
            theta = rng.uniform(0.02, 2 * math.pi - 0.02)
        w = complex(math.cos(theta), math.sin(theta))
        b = rng.uniform(0.1, 2.0) * np.exp(2j * math.pi * rng.uniform())
        v = scalar_re_sequence(w, b)
        v0 = scalar_re_sequence(w, 0.0)
        return (not v.convergent) and v0.convergent, f"w={w} b={b}"

    return _trials("scalar-lemma", 5, trials, seed, trial)


# ---------------------------------------------------------------------------
# Stability suites
# ---------------------------------------------------------------------------

def _random_normal_contraction(dim: int, sub: int):
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

    def trial(t, rng, sub):
        dim = int(rng.integers(2, 9))
        A, Q = _random_normal_contraction(dim, sub)
        sub_rng = np.random.default_rng(sub + 1)
        H = np.column_stack([_gaussian(sub_rng, dim) for _ in range(probes)])
        # Raises where a limit and its projection value disagree.
        limits = normal_limit(A, H)
        if np.linalg.norm(Q) > LIMIT_ZERO:
            # A generic probe must see the unimodular part.
            lost = limits[0] <= LIMIT_ZERO and np.linalg.norm(Q @ H[:, 0]) > SEEN_TOL
            return not lost, "projection value lost"
        for p, q in enumerate(limits):
            if q > LIMIT_ZERO:
                return False, f"probe{p} limit {q} with Q=0"
        return True, ""

    return _trials("normal-limit", 6, trials, seed, trial)


def suite_normaloid(trials: int, seed: int) -> SuiteResult:
    """All three normaloid conditions read the planted answer, largest root
    modulus at most 1, on normal and on non-normal normaloid matrices."""
    targets = [0.7, 1.0, 3.0]

    def trial(t, rng, sub):
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
            bounded = not expansive
        else:
            target = targets[t % len(targets)]
            A = gen_normaloid_nonnormal(dim, sub, target_norm=target)
            bounded = target <= 1
        return tuple(normaloid_equivalence(A, RunConfig(seed=sub))) == (bounded,) * 3, ""

    return _trials("normaloid-equivalence", 7, trials, seed, trial)


def suite_root_limit(trials: int, seed: int) -> SuiteResult:
    """||A^n h||^(1/n) of a generic probe h tends to the largest planted
    root modulus, within RADIUS_TOL."""
    grid = np.array([0.3, 0.45, 0.6, 0.75, 0.9, 1.0])

    def trial(t, rng, sub):
        dim = int(rng.integers(2, 9))
        family = t % 3
        radius = 1.0
        if family == 0:
            planted = planted_roots(rng, dim, modulus_grid=grid)
            A = gen_planted_jordan(dim, planted, cond_cap=100.0, seed=sub)
            radius = max(abs(z) for z, _ in planted)
        elif family == 1:
            k = int(rng.integers(1, dim + 1))
            A = gen_unitary_finite_spectrum(dim, spread_unimodular(rng, k), sub)
        else:
            A = gen_oblique(dim, spread_unimodular(rng, dim), 50.0, sub)
        sub_rng = np.random.default_rng(sub + 2)
        H = np.column_stack([_gaussian(sub_rng, dim) for _ in range(3)])
        for p, rho in enumerate(orbit_root_limit(A, H)):
            if abs(rho - radius) > RADIUS_TOL:  # generic h sees the full radius
                return False, f"probe{p} rho {rho} != radius {radius}"
        return True, ""

    return _trials("root-limit", 8, trials, seed, trial)


def suite_taxonomy(trials: int, seed: int) -> SuiteResult:
    """uniformly stable => strongly stable => power bounded on mixed
    instances, and a strongly stable matrix sends every probe orbit to 0:
    each kept limit of ||A^n h||^2 is at most LIMIT_ZERO."""

    def trial(t, rng, sub):
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
        v = uniform_stability(A, RunConfig(seed=sub))
        limits = v.limit_projection_norm_sq.values()
        good = (not v.uniformly_stable or v.strongly_stable) and (
            not v.strongly_stable or v.power_bounded and all(q <= LIMIT_ZERO for q in limits)
        )
        return good, "" if good else repr(v.to_obj())

    return _trials("stability-taxonomy", 9, trials, seed, trial)


def suite_density(
    n_targets: int = 100, n_max: int = 100_000, tol: float = 1e-2
) -> SuiteResult:
    """The orbit of e1 under e^{2 pi i sqrt(2)} I visits every point of the
    unit circle within tol by step n_max.  The orbit's angles are formed,
    sorted and searched one chunk of STACK_ENTRIES steps at a time."""
    res = SuiteResult("rotation-density")
    A = gen_scalar_rotation(1, SQRT2)
    z = A[0, 0]
    target_angles = 2 * math.pi * np.arange(n_targets) / n_targets
    targets = np.exp(2j * math.pi * np.arange(n_targets) / n_targets)[:, np.newaxis]
    dist = np.full(n_targets, np.inf)
    for lo in range(0, n_max + 1, STACK_ENTRIES):
        angles = np.arange(lo, min(lo + STACK_ENTRIES, n_max + 1), dtype=float)
        angles *= 2 * math.pi * SQRT2
        np.remainder(angles, 2 * math.pi, out=angles)
        angles.sort()
        # The nearest orbit point lies next to the target's angle among the
        # sorted angles of its chunk (around the circle); two neighbours on
        # each side cover the rounding of the distances.  Only those
        # neighbours are exponentiated.
        at = np.searchsorted(angles, target_angles)
        near = np.exp(1j * angles[(at[:, np.newaxis] + np.arange(-2, 3)) % angles.size])
        np.minimum(dist, np.abs(near - targets).min(axis=1), out=dist)
    for k, d in enumerate(dist.tolist()):
        res.record(f"target{k}", d <= tol, f"min distance {d:g}")
    # sanity: the generator really is the scalar rotation
    res.record("fixture", abs(z - np.exp(2j * math.pi * SQRT2)) < FIXTURE_TOL)
    return res


# ---------------------------------------------------------------------------
# CLI entry
# ---------------------------------------------------------------------------

def run_suites(name: str, config: RunConfig) -> list[SuiteResult]:
    """The suites of group ``name`` ("all": every group, in order) at the
    config's trials and seed; each suite runs at its own horizon."""
    tr, seed = config.trials, config.seed
    groups = {
        "theorem": lambda: [
            suite_theorem_unitary(tr, seed),
            suite_theorem_oblique(tr, seed),
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
