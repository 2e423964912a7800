"""The failure path of the property suites' trial runner: an oracle that
raises or disagrees fails its trial with a ``trial{t}: detail`` entry; and
the 1e5-step probes against their full-horizon forms."""

import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import aolab.suites as suites
from aolab.config import RunConfig
from aolab.criteria import STACK_ENTRIES, scalar_re_sequence
from aolab.errors import InconsistencyError
from aolab.generators import SQRT2
from aolab.stability import NormaloidReport


def _raise_boom(*args, **kwargs):
    raise InconsistencyError("boom")


def test_error_fails_each_trial(monkeypatch):
    monkeypatch.setattr(suites, "theorem_check", _raise_boom)
    res = suites.suite_theorem_unitary(2, 0)
    assert (res.passed, res.total) == (0, 2)
    assert res.failures == ["trial0: boom", "trial1: boom"]
    assert res.summary() == "theorem-unitary: 0/2 FAIL"


def test_detail_follows_the_label(monkeypatch):
    bound = SimpleNamespace(alpha=0.5, kappa=0, spectral_radius=0.5, valid_from=1)
    monkeypatch.setattr(suites, "growth_bound", lambda A: bound)
    # Two trials: one planted, whose roots of modulus at least 0.3 put
    # ||A^n|| past 0.5^(n+1) (the ratio fails it), then one nilpotent of
    # index at least 2 (valid_from 1 fails it).
    res = suites.suite_growth(2, 0)
    ratio = re.fullmatch(r"trial0: ratio (\S+)", res.failures[0])
    assert float(ratio.group(1)) > 1 and res.failures[1].startswith("trial1: valid_from 1, level ")


def _contradict_normaloid(monkeypatch):
    # Each report is consistent with itself (its three verdicts agree) but
    # contradicts the planted answer.
    real = suites.normaloid_equivalence
    monkeypatch.setattr(suites, "normaloid_equivalence",
                        lambda A, config: NormaloidReport(*(not v for v in real(A, config))))


def test_empty_detail_is_a_bare_label(monkeypatch):
    _contradict_normaloid(monkeypatch)
    res = suites.suite_normaloid(1, 0)
    assert res.failures == ["trial0"]


def test_normaloid_reads_the_planted_answer(monkeypatch):
    # Six trials: three normal, then non-normal at target norms 1.0, 0.7
    # and 3.0.  Agreement alone does not pass a trial.
    assert suites.suite_normaloid(6, 0).ok
    _contradict_normaloid(monkeypatch)
    res = suites.suite_normaloid(6, 0)
    assert (res.passed, res.total) == (0, 6)


def test_jadro_records_an_error(monkeypatch):
    monkeypatch.setattr(suites, "orbit_norms_batch", _raise_boom)
    res = suites.suite_jadro(1, 2, 0)
    assert (res.passed, res.total, res.failures) == (0, 1, ["trial0: boom"])


def test_taxonomy_trials_pass():
    # One trial of each family: planted roots inside the circle, a unitary, a Jordan perturbation.
    res = suites.suite_taxonomy(3, 0)
    assert (res.passed, res.total) == (3, 3), res.failures


def test_taxonomy_fails_a_strongly_stable_orbit_that_keeps_its_norm(monkeypatch):
    # Trial 0 plants roots inside the circle, so its matrix is strongly stable.
    stability = suites.uniform_stability
    monkeypatch.setattr(suites, "uniform_stability", lambda A, config: stability(A, config)._replace(
        limit_projection_norm_sq={"rand0": 0.0, "rand1": 1.0}))
    res = suites.suite_taxonomy(1, 0)
    assert (res.passed, res.total) == (0, 1)
    assert res.failures[0].startswith("trial0: {'uniformly_stable': True, 'strongly_stable': True")


def test_run_suites_all_in_verify_order():
    names = [r.name for r in suites.run_suites("all", RunConfig(trials=1))]
    assert names == ["theorem-unitary", "theorem-oblique", "decomposition", "growth-bound", "jadro-formula",
                     "normal-limit", "normaloid-equivalence", "root-limit", "stability-taxonomy",
                     "rotation-density", "scalar-lemma"]


def test_run_suites_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'theorems'"):
        suites.run_suites("theorems", RunConfig(trials=1))



def _reference_density_failures(n_targets, n_max):
    """The failures of the full-orbit ``suite_density`` at tol = -1 (every
    target fails): the whole orbit exponentiated, and sorted by a copy."""
    angles = (np.arange(n_max + 1) * (2 * math.pi * SQRT2)) % (2 * math.pi)
    pts = np.exp(1j * angles)
    targets = np.exp(2j * math.pi * np.arange(n_targets) / n_targets)
    order = np.argsort(angles)
    at = np.searchsorted(angles[order], 2 * math.pi * np.arange(n_targets) / n_targets)
    near = order[(at[:, np.newaxis] + np.arange(-2, 3)) % order.size]
    return [f"target{k}: min distance {float(np.min(np.abs(pts[near[k]] - t))):g}"
            for k, t in enumerate(targets)]


# Chunks of STACK_ENTRIES angles: the last one holds all of them, then one
# and two angles at the three edge cases.
@pytest.mark.parametrize("n_targets, n_max", [
    (100, 100_000), (37, 12345), (100, STACK_ENTRIES - 1), (100, STACK_ENTRIES), (100, STACK_ENTRIES + 1),
])
def test_density_same_as_full_orbit(n_targets, n_max):
    res = suites.suite_density(n_targets, n_max, tol=-1.0)
    assert res.failures == _reference_density_failures(n_targets, n_max)
    assert (res.passed, res.total) == (1, n_targets + 1)


def _traced_peak_kib(fn):
    """The tracemalloc peak of fn(), in KiB, after one untraced warm call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


# The 1e5-step probes keep neither their orbit nor a tail of it: the scalar
# lemma forms only its window of terms and peaks below 64 KiB, and the
# density suite keeps one chunk and peaks below 512 KiB, against 4,295 KiB
# for the full-horizon scalar lemma and 3,912 KiB for the full density orbit.
@pytest.mark.parametrize("probe, bound_kib", [
    pytest.param(lambda: scalar_re_sequence(np.exp(0.7j), 0.3 + 0.4j), 64, id="scalar"),
    pytest.param(suites.suite_density, 512, id="density"),
])
def test_probe_heap_peak_below_512_kib(probe, bound_kib):
    assert _traced_peak_kib(probe) < bound_kib
