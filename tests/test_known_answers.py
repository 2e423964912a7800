"""Exact known answers and exact symmetries.

The exact families, their known answers and the unit-circle sweep are
built in ``exact_cases.py``; every outcome here is read off the report of
the stages of ``aolab analyze`` (``exact_cases.analyze``).

P A P^T, D A D^-1 (D diagonal with entries in {1, i, -1, -i}) and i A are
exact in floating point and keep every verdict, so an outcome that moves
under one of them is the code's doing.  They are measured on every exact
case and on a subset of the unit-circle sweep of obliques (``_obliques``).

Each count is held under a ratchet equal to its value when the ratchet was
set; a change that lowers a count lowers its ratchet with it.
"""

import functools
import warnings

import numpy as np
import pytest

from aolab import criteria
from exact_cases import FAMILIES, LIMIT, UNITS, analyze, exact_block, exact_set, sweep

BANDS = (1e2, 1e4, 1e6, 1e8, 1e12)  # lower edges of the cond(S) bands

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


def _symmetric(A, s):
    """P A P^T, D A D^-1 and i A, with P and D drawn from seed s."""
    d = A.shape[0]
    p = np.random.default_rng(s).permutation(d)
    D = np.array(UNITS)[np.random.default_rng(s + 99).integers(0, 4, d)]
    return {"P": A[np.ix_(p, p)], "D": D[:, np.newaxis] * A * D.conj(), "iA": 1j * A}


def _warned(A):
    """analyze(A), and whether the run printed a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = analyze(A)
    return out, bool(caught)


def _run(A, s):
    """analyze of A, whether each of its three symmetric images moves the
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
    return [(family, _band(cond), A, known, *_run(A, n)) for n, family, A, cond, known in exact_set()]


@functools.cache
def _obliques():
    """The sweep's obliques at caps 1e3-1e5, d = 4 and 8 and seeds 0-4."""
    return [_run(A, s) for _, _, s, A in sweep((1e3, 1e4, 1e5), lambda d, s: d <= 8 and s < 5)]


def _wrong(known, verdicts):
    return sorted(key for key, value in known.items() if value is not None and verdicts[key] != value)


def test_exact_builder():
    # The families hold their answers exactly: A^d = I for the shift,
    # (A - z)^k = 0 for the jordan block and A^k = 0 for the nilpotent one,
    # each with its predecessor power nonzero; every entry below 2^53.
    for family, d, k, z in (("shift", 6, 6, None), ("jordan", 5, 4, 1j), ("nilpotent", 5, 3, None)):
        A, S, _, _ = exact_block(family, d, k, z, np.inf, np.random.default_rng(0))
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
    obliques = [A for *_, A in sweep((1e3, 1e4), lambda d, s: d == 4 and s < 3)]
    default = [run[-3][:2] for run in _exact_runs()] + [analyze(A)[:2] for A in obliques]
    monkeypatch.setattr(criteria, "RANDOM_PROBES", 20)
    assert [analyze(A)[:2] for A in [run[2] for run in _exact_runs()] + obliques] == default
