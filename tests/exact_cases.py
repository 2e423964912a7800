"""Exact known-answer cases, the unit-circle sweep of obliques, and the
outcome of ``aolab analyze`` on a matrix, shared by
``tests/test_known_answers.py`` and ``scripts/probe_outcomes.py``.

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

The input sets: ``exact_set`` (72 cases, the known-answer ratchets'),
``wide_set`` (600 more) and ``sweep`` (the 480 obliques of the unit-circle
sweep at caps 1e3-1e6).
"""

from fractions import Fraction

import numpy as np

from aolab.cli import _report
from aolab.config import RunConfig
from aolab.criteria import Analysis
from aolab.errors import AolabError
from aolab.generators import gen_oblique

LIMIT = 2**53
UNITS = (1, 1j, -1, -1j)
DIMS = (4, 8, 16, 32)
TARGETS = (1e2, 1e4, 1e6, 1e8, np.inf)  # cond(S) to reach; inf shears up to the 2^53 limit
FAMILIES = ("shift", "jordan", "nilpotent", "sum")
CAPS = (1e3, 1e4, 1e5, 1e6)  # the sweep's cond caps
VERDICTS = ("minpoly_degree", "spectrum_in_circle", "unitary", "normaloid", "contraction",
            "orbits_convergent", "power_bounded", "consistent")  # read off the criteria section


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


def exact_block(kind, d, k, z, target, rng):
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


def exact_case(family, d, n, target):
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
    blocks = [exact_block(kind, m, kk, zz, target, rng) for kind, m, kk, zz in specs]
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


def exact_set():
    """(n, family, A, cond S, known answers) of the 72 exact cases: d = 4,
    8, 16, 32 outer, then family, then cond target (three targets at d32,
    for time), n counting from 0."""
    shapes = [(d, family, target) for d in DIMS for family in FAMILIES
              for target in (TARGETS if d < 32 else TARGETS[::2])]
    for n, (d, family, target) in enumerate(shapes):
        yield n, family, *exact_case(family, d, n, target)


def wide_set():
    """The same for n = 1000..1599: d 4, 8, 12 or 16 by n mod 4, the family
    by (n // 4) mod 4 and the target 10^(2 + 6 frac(0.618 n))."""
    for n in range(1000, 1600):
        family = FAMILIES[(n // 4) % 4]
        yield n, family, *exact_case(family, (4, 8, 12, 16)[n % 4], n, 10 ** (2 + 6 * ((0.618 * n) % 1)))


def sweep(caps=CAPS, keep=lambda d, s: True):
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


def analyze(A):
    """(exit code, outcome, verdicts) of ``aolab analyze`` on A, read off
    the report of its stages (``cli._report``) at the default settings: the
    outcome is the verdicts, or the class of the error that ended the run;
    verdicts is None when an error ended it.  A broken implication exits 2,
    as in the CLI."""
    try:
        report, _ = _report(Analysis(A, RunConfig()))
    except AolabError as exc:
        return 1, type(exc).__name__, None
    if "stability" not in report:  # an InconsistencyError ended the stages
        return 2, "InconsistencyError", None
    verdicts = {key: report["criteria"][key] for key in VERDICTS}
    stab = report["stability"]
    verdicts.update(kappa=report["growth_bound"].get("kappa"), uniformly_stable=stab["uniformly_stable"],
                    stability_power_bounded=stab["power_bounded"], broken=report.get("inconsistency"))
    return (2 if verdicts["broken"] else 0), tuple(verdicts.values()), verdicts
