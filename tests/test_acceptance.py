"""Acceptance gate: ten property-based criteria at full scale.

Each test prints a single pass/fail line.  Counts, tolerances and runtime
budgets are fixed; the seeds are fixed so the run is reproducible.
"""

import math
import time

import numpy as np
import pytest

from aolab import jsonout
from aolab.cli import main
from aolab.generators import dft4
from aolab.linalg import matrix_to_obj
from aolab.suites import (
    suite_decomposition,
    suite_density,
    suite_growth,
    suite_jadro,
    suite_normal_limit,
    suite_normaloid,
    suite_root_limit,
    suite_scalar,
    suite_theorem_oblique,
    suite_theorem_unitary,
)

SEED = 0


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{label}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _all_pass(result):
    return result.passed == result.total, f"{result.passed}/{result.total}"


def test_criterion_01_theorem_equivalence():
    t0 = time.time()
    r1 = suite_theorem_unitary(200, SEED)
    r2 = suite_theorem_oblique(200, SEED)
    elapsed = time.time() - t0
    ok1, d1 = _all_pass(r1)
    ok2, d2 = _all_pass(r2)
    _report(
        1,
        "theorem equivalence",
        ok1 and ok2 and elapsed < 60,
        f"unitary {d1}, oblique {d2}, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_exact_orbit_formula():
    r = suite_jadro(50, 20, SEED)
    ok, d = _all_pass(r)
    _report(2, "exact orbit-norm formula", ok, d)


def test_criterion_03_growth_bound():
    t0 = time.time()
    r = suite_growth(100, SEED)
    elapsed = time.time() - t0
    ok, d = _all_pass(r)
    _report(3, "polynomial growth bound", ok and elapsed < 120, f"{d}, {elapsed:.1f}s < 120s")


def test_criterion_04_scalar_sequence():
    r = suite_scalar(100, SEED, n_max=100_000)
    ok, d = _all_pass(r)
    _report(4, "scalar nonconvergence probe", ok, d)


def test_criterion_05_decomposition():
    r = suite_decomposition(100, SEED)
    ok, d = _all_pass(r)
    _report(5, "decomposition certification", ok, d)


def test_criterion_06_normal_limit():
    r = suite_normal_limit(100, 10, SEED)
    ok, d = _all_pass(r)
    _report(6, "normal-limit projection identity", ok, d)


def test_criterion_07_normaloid_equivalence():
    r = suite_normaloid(100, SEED)
    ok, d = _all_pass(r)
    _report(7, "normaloid equivalence", ok, d)


def test_criterion_08_root_limit():
    r = suite_root_limit(100, SEED)
    ok, d = _all_pass(r)
    _report(8, "orbit root limit", ok, d)


def test_criterion_09_rotation_density():
    r = suite_density(n_targets=100, n_max=100_000, tol=1e-2)
    ok, d = _all_pass(r)
    _report(9, "irrational rotation density", ok, d)


@pytest.mark.parametrize("n_targets, n_max", [(100, 100_000), (7, 10), (360, 2_000)])
def test_rotation_density_nearest_points(n_targets, n_max):
    # At a negative tol every target fails and names its distance; the
    # neighbours of its angle in the sorted orbit give the distance of a
    # scan of the whole orbit.
    angles = (np.arange(n_max + 1) * (2 * math.pi * math.sqrt(2))) % (2 * math.pi)
    pts = np.exp(1j * angles)
    targets = np.exp(2j * math.pi * np.arange(n_targets) / n_targets)
    want = [f"target{k}: min distance {float(np.min(np.abs(pts - t))):g}" for k, t in enumerate(targets)]
    assert suite_density(n_targets, n_max, tol=-1.0).failures == want


def test_criterion_10_determinism(tmp_path, capsys):
    fixtures = {
        "dft4": dft4(),
        "jordan": np.array([[1, 1], [0, 1]], dtype=complex),
    }
    ok = True
    for name, A in fixtures.items():
        inp = tmp_path / f"{name}.json"
        inp.write_text(jsonout.dumps(matrix_to_obj(A)))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.json"
            rc = main(
                ["analyze", "--input", str(inp), "--out", str(out), "--seed", "0"]
            )
            ok = ok and rc in (0, 2)
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    with capsys.disabled():
        _report(10, "byte-identical reports", ok)
