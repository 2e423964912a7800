"""Exact known answers and exact symmetries.

Every matrix of the exact families is A = S J S^-1 in Gaussian integers,
every entry below 2^53, so the matrix handed to the code is the matrix
whose answer is known.  S is a product of unit integer shears
I + c e_i e_j^T (c in {-2, -1, 1, 2}), so det S = 1 and S^-1 is exact; the
shears go on until cond(S) reaches a target or one more shear would put an
entry of S or A past 2^53.  J sets the answer:

- ``shift``: the cyclic shift of order d.  Simple roots of unity:
  power-bounded, not uniformly stable; unitary, normaloid, a contraction
  and with convergent orbit norms exactly when A^T A = I, an integer check.
- ``jordan``: z I + (J_k + 0), z in {1, -1, i, -i}, k = 2-6.  The root z has
  index k: not power-bounded, so neither a contraction nor normaloid.
- ``nilpotent``: J_k + 0.  Power-bounded, uniformly stable, orbits
  converge to 0; not normaloid, as ||A|| > 0 = r(A).
- ``sum``: a shift, a jordan and a nilpotent block (each with its own S)
  side by side.  Its verdicts are the blocks' conjunctions.

The minimal polynomial's degree is the sum over the distinct roots of
their largest index, and the growth bound's kappa is that degree less one.

P A P^T, D A D^-1 (D diagonal with entries in {1, i, -1, -i}) and i A are
exact in floating point and keep every verdict, so an outcome that moves
under one of them is the code's doing.  They are measured on every exact
case and on a subset of the unit-circle sweep of obliques (``_obliques``).

Each count is held under a ratchet equal to its value when the ratchet was
set; a change that lowers a count lowers its ratchet with it.
"""

import functools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from aolab import criteria
from aolab.cli import broken_implication
from aolab.config import RunConfig
from aolab.criteria import Analysis, theorem_check
from aolab.errors import AolabError, InconsistencyError, OutOfScopeError
from aolab.generators import gen_oblique
from aolab.stability import growth_bound, uniform_stability

LIMIT = 2**53
UNITS = (1, 1j, -1, -1j)
DIMS = (4, 8, 16, 32)
TARGETS = (1e2, 1e4, 1e6, 1e8, np.inf)  # cond(S) to reach; inf shears up to the 2^53 limit
BANDS = (1e2, 1e4, 1e6, 1e8, 1e12)  # lower edges of the cond(S) bands
FAMILIES = ("shift", "jordan", "nilpotent", "sum")

# Ratchets, each the count when it was set.  (family, band) -> exact cases
# that exit nonzero: an error, an InconsistencyError or a broken implication.
NONZERO_EXITS = {
    ("shift", "1e+06"): 4, ("shift", "1e+08"): 3, ("shift", "1e+12"): 4,
    ("jordan", "1e+06"): 2, ("jordan", "1e+08"): 3, ("jordan", "1e+12"): 3,
    ("nilpotent", "1e+06"): 1, ("nilpotent", "1e+08"): 3, ("nilpotent", "1e+12"): 4,
    ("sum", "1e+02"): 1, ("sum", "1e+06"): 4, ("sum", "1e+08"): 3, ("sum", "1e+12"): 4,
}
# (family, band) -> exact cases with a wrong answer and exit 0: a d4 sum
# whose index-2 root 1 reads r past 1, so that the growth bound is skipped
# as out of scope, and a d32 jordan block read as off the circle.
WRONG_EXIT_0 = {("sum", "1e+04"): 1, ("jordan", "1e+12"): 1}
BROKEN_IMPLICATIONS = 0  # reports, exact or oblique, that cli.broken_implication turns into exit 2
WARNED = 0  # runs, exact or oblique, that print a RuntimeWarning, which the CLI prints without an exit code
EXACT_CHANGED = {"P": 3, "D": 1, "iA": 0}  # exact cases whose outcome moves under each symmetry
OBLIQUE_CHANGED = {"P": 0, "D": 1, "iA": 2}  # the same on the obliques


def _shift(m):
    return [[int(i == (j + 1) % m) for j in range(m)] for i in range(m)]


def _nilpotent(d, k):
    return [[int(i == j + 1 < k) for j in range(d)] for i in range(d)]


def _sheared(N, target, rng):
    """(S N S^-1, S) in plain ints, shearing until cond S reaches target or
    the next shear would put an entry of S or A past 2^53."""
    d = len(N)
    A, S = [row[:] for row in N], [[int(i == j) for j in range(d)] for i in range(d)]
    while np.linalg.cond(np.array(S, dtype=float)) < target:
        i, j = (int(x) for x in rng.choice(d, 2, replace=False))
        c = int(rng.choice([-2, -1, 1, 2]))
        # (I + c e_i e_j^T) A (I - c e_i e_j^T): row i gains c row j, then
        # column j loses c column i.  Only row i and column j change.
        Si, Ai = ([a + c * b for a, b in zip(M[i], M[j])] for M in (S, A))
        Aj = [(Ai if r == i else row)[j] - c * (Ai if r == i else row)[i] for r, row in enumerate(A)]
        if max(map(abs, Si + Ai[:j] + Ai[j + 1 :] + Aj)) >= LIMIT:
            break
        S[i], A[i] = Si, Ai
        for row, x in zip(A, Aj):
            row[j] = x
    return A, S


def _block(kind, d, k, z, target, rng):
    """(A, S, known answers, {root: index}) of one block, each root
    e^(2 pi i q) given as q."""
    if kind == "shift":
        A, S = _sheared(_shift(d), target, rng)
        # A is unitary exactly when A^T A = I.
        unitary = all(sum(A[r][i] * A[r][j] for r in range(d)) == (i == j) for i in range(d) for j in range(d))
        known = dict(spectrum_in_circle=True, unitary=unitary, normaloid=unitary, contraction=unitary,
                     orbits_convergent=unitary, power_bounded=True, uniformly_stable=False)
        return np.array(A, dtype=complex), S, known, {Fraction(j, d): 1 for j in range(d)}
    A, S = _sheared(_nilpotent(d, k), target, rng)
    if kind == "nilpotent":
        known = dict(spectrum_in_circle=False, unitary=False, normaloid=False, contraction=None,
                     orbits_convergent=True, power_bounded=True, uniformly_stable=True)
        return np.array(A, dtype=complex), S, known, {"zero": k}
    known = dict(spectrum_in_circle=True, unitary=False, normaloid=False, contraction=False,
                 orbits_convergent=False, power_bounded=False, uniformly_stable=False)
    return np.array(A, dtype=complex) + z * np.eye(d), S, known, {Fraction(UNITS.index(z), 4): k}


def _exact_case(family, d, n, target):
    """(A, cond S, known answers) of the n-th case: the family at dimension
    d, each block shearing towards cond target."""
    rng = np.random.default_rng(n)
    z, k = UNITS[n % 4], 2 + n % 5
    if family == "sum":
        a, b = d // 2, max(2, d // 4)
        specs = [("shift", a, None, None), ("jordan", b, min(k, b), z)] + (
            [("nilpotent", d - a - b, min(k, d - a - b), None)] if d > a + b else [])
    else:
        specs = [(family, d, min(k, d), z)]
    blocks = [_block(kind, m, kk, zz, target, rng) for kind, m, kk, zz in specs]
    A, S = np.zeros((d, d), dtype=complex), np.zeros((d, d))
    at = 0
    for B, SB, _, _ in blocks:
        m = len(B)
        A[at : at + m, at : at + m], S[at : at + m, at : at + m] = B, SB
        at += m
    # Every sum holds a jordan block, whose norm above 1 = r(A) makes the
    # sum neither normaloid nor a contraction: each verdict is the blocks'
    # conjunction.
    known = {key: all(kn[key] for _, _, kn, _ in blocks) if len(blocks) > 1 else value
             for key, value in blocks[0][2].items()}
    roots = {}
    for *_, rs in blocks:
        for q, idx in rs.items():
            roots[q] = max(roots.get(q, 0), idx)
    degree = sum(roots.values())
    known.update(minpoly_degree=degree, kappa=degree - 1, consistent=True,
                 stability_power_bounded=known["power_bounded"])
    return A, float(np.linalg.cond(S)), known


def _analyze(A):
    """(exit code, outcome, verdicts) of the stages of ``aolab analyze`` on
    A, in its order: the outcome is the verdicts, or the class of the error
    that ended the run; verdicts is None when an error ended it.  A broken
    implication exits 2, as in the CLI."""
    an = Analysis(A, RunConfig())
    try:
        crit = theorem_check(an)
        try:
            kappa = growth_bound(an).kappa
        except OutOfScopeError:
            kappa = None
        stab = uniform_stability(an)
        report = {"criteria": crit.to_obj(), "stability": stab.to_obj()}
        broken = broken_implication(report)
    except InconsistencyError as exc:
        return 2, type(exc).__name__, None
    except AolabError as exc:
        return 1, type(exc).__name__, None
    verdicts = {
        key: getattr(crit, key)
        for key in ("minpoly_degree", "spectrum_in_circle", "unitary", "normaloid", "contraction",
                    "orbits_convergent", "power_bounded", "consistent")
    }
    verdicts.update(kappa=kappa, uniformly_stable=stab.uniformly_stable,
                    stability_power_bounded=stab.power_bounded, broken=broken)
    return (2 if broken else 0), tuple(verdicts.values()), verdicts


def _symmetric(A, s):
    """P A P^T, D A D^-1 and i A, with P and D drawn from seed s."""
    d = A.shape[0]
    p = np.random.default_rng(s).permutation(d)
    D = np.array(UNITS)[np.random.default_rng(s + 99).integers(0, 4, d)]
    return {"P": A[np.ix_(p, p)], "D": D[:, np.newaxis] * A * D.conj(), "iA": 1j * A}


def _warned(A):
    """_analyze(A), and whether the run printed a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = _analyze(A)
    return out, bool(caught)


def _run(A, s):
    """_analyze of A, whether each of its three symmetric images moves the
    outcome, and how many of the four runs printed a RuntimeWarning."""
    out, warned = _warned(A)
    moved = {}
    for name, B in _symmetric(A, s).items():
        (_, outcome, _), w = _warned(B)
        moved[name], warned = outcome != out[1], warned + w
    return out, moved, warned


def _band(cond):
    return f"{max(b for b in BANDS if b <= cond):.0e}"


@functools.cache
def _exact_runs():
    runs, n = [], 0
    for d in DIMS:
        for family in FAMILIES:
            for target in TARGETS if d < 32 else TARGETS[::2]:  # three at d32, for time
                A, cond, known = _exact_case(family, d, n, target)
                runs.append((family, _band(cond), A, known, *_run(A, n)))
                n += 1
    return runs


def _sweep(caps, keep=lambda d, s: True):
    """(cap, d, s, A) of the unit-circle sweep's obliques A = gen_oblique(d,
    e^(2 pi i u), cap, seed=s) that keep(d, s) picks: u from a fresh
    default_rng(0) per cap, d draws per instance, d = 4, 8, 16 outer and
    s = 0..39 inner, as the full sweep draws them."""
    for cap in caps:
        rng = np.random.default_rng(0)
        for d in (4, 8, 16):
            for s in range(40):
                u = rng.random(d)
                if keep(d, s):
                    yield cap, d, s, gen_oblique(d, np.exp(2j * np.pi * u), cap, seed=s)


@functools.cache
def _obliques():
    """The sweep's obliques at caps 1e3-1e5, d = 4 and 8 and seeds 0-4."""
    return [_run(A, s) for _, _, s, A in _sweep((1e3, 1e4, 1e5), lambda d, s: d <= 8 and s < 5)]


def _wrong(known, verdicts):
    return sorted(key for key, value in known.items() if value is not None and verdicts[key] != value)


def test_exact_builder():
    # The families hold their answers exactly: A^d = I for the shift,
    # (A - z)^k = 0 for the jordan block and A^k = 0 for the nilpotent one,
    # each with its predecessor power nonzero; every entry below 2^53.
    for family, d, k, z in (("shift", 6, 6, None), ("jordan", 5, 4, 1j), ("nilpotent", 5, 3, None)):
        A, S, _, _ = _block(family, d, k, z, np.inf, np.random.default_rng(0))
        assert np.linalg.cond(np.array(S, dtype=float)) > 1e12 and np.abs(A).max() < LIMIT
        N = [[int((A[i, j] - (z or 0) * (i == j)).real) for j in range(d)] for i in range(d)]
        assert all((A[i, j] - (z or 0) * (i == j)).imag == 0 for i in range(d) for j in range(d))
        P = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(k - 1):
            P = [[sum(P[i][m] * N[m][j] for m in range(d)) for j in range(d)] for i in range(d)]
        assert P != [[0] * d for _ in range(d)]
        P = [[sum(P[i][m] * N[m][j] for m in range(d)) for j in range(d)] for i in range(d)]
        want = [[int(i == j) for j in range(d)] for i in range(d)] if family == "shift" else [[0] * d] * d
        assert P == want, family


def test_exact_cases_span_the_bands():
    bands = {(family, band) for family, band, *_ in _exact_runs()}
    assert {band for _, band in bands} == {_band(b) for b in BANDS}
    assert {family for family, _ in bands} == set(FAMILIES)


def _within(counts, ratchet):
    return all(n <= ratchet.get(key, 0) for key, n in counts.items())


def test_no_silent_wrong_verdict():
    # A verdict against the known answer should not exit 0.
    wrong = {}
    for family, band, _, known, (code, _, verdicts), _, _ in _exact_runs():
        if code == 0 and _wrong(known, verdicts):
            wrong[family, band] = wrong.get((family, band), 0) + 1
    assert _within(wrong, WRONG_EXIT_0), wrong


def test_nonzero_exits_per_family_and_band():
    counts = {}
    for family, band, _, _, (code, _, _), _, _ in _exact_runs():
        if code:
            counts[family, band] = counts.get((family, band), 0) + 1
    assert _within(counts, NONZERO_EXITS), counts


def test_broken_implications():
    # cli.broken_implication over every report with both sections, exact or oblique.
    outs = [run[-3] for run in _exact_runs() + _obliques()]
    broken = [v["broken"] for _, _, v in outs if v and v["broken"]]
    assert len(broken) <= BROKEN_IMPLICATIONS, broken


def test_warnings():
    warned = sum(w for *_, w in _exact_runs()) + sum(w for *_, w in _obliques())
    assert warned <= WARNED


@pytest.mark.parametrize("cases, ratchet", [(_exact_runs, EXACT_CHANGED), (_obliques, OBLIQUE_CHANGED)],
                         ids=["exact", "obliques"])
def test_symmetries(cases, ratchet):
    changed = {name: sum(run[-2][name] for run in cases()) for name in ratchet}
    assert _within(changed, ratchet), changed


def test_default_probes_read_what_twenty_read(monkeypatch):
    # The exit code and verdicts of the default probe batch are those of
    # twenty random probes, on the exact cases and on d4 sweep obliques at
    # caps 1e3 and 1e4; probe records may differ.  scripts/probe_outcomes.py
    # measures the same on 1,152 inputs.
    obliques = [A for *_, A in _sweep((1e3, 1e4), lambda d, s: d == 4 and s < 3)]
    default = [run[-3][:2] for run in _exact_runs()] + [_analyze(A)[:2] for A in obliques]
    monkeypatch.setattr(criteria, "RANDOM_PROBES", 20)
    assert [_analyze(A)[:2] for A in [run[2] for run in _exact_runs()] + obliques] == default
