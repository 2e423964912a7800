"""The failure path of the property suites' trial runner: an oracle that
raises or disagrees fails its trial with a ``trial{t}: detail`` entry."""

from types import SimpleNamespace

import aolab.suites as suites
from aolab.errors import InconsistencyError


def _raise_boom(*args, **kwargs):
    raise InconsistencyError("boom")


def test_error_fails_each_trial(monkeypatch):
    monkeypatch.setattr(suites, "theorem_check", _raise_boom)
    res = suites.suite_theorem_unitary(2, 0)
    assert (res.passed, res.total) == (0, 2)
    assert res.failures == ["trial0: boom", "trial1: boom"]
    assert res.summary() == "theorem-unitary: 0/2 FAIL"


def test_detail_follows_the_label(monkeypatch):
    bound = SimpleNamespace(max_violation_ratio=2.0, valid_from=1)
    monkeypatch.setattr(suites, "growth_bound", lambda A: bound)
    # Two trials: one planted (ratio 2 fails it), then one nilpotent of
    # index at least 2 (valid_from 1 fails it).
    res = suites.suite_growth(2, 0)
    assert res.failures == ["trial0: ratio 2.0", "trial1: valid_from 1"]


def test_empty_detail_is_a_bare_label(monkeypatch):
    report = SimpleNamespace(all_agree=lambda: False)
    monkeypatch.setattr(suites, "normaloid_equivalence", lambda A, config: report)
    res = suites.suite_normaloid(1, 0)
    assert res.failures == ["trial0"]


def test_jadro_records_an_error(monkeypatch):
    monkeypatch.setattr(suites, "orbit_norms_batch", _raise_boom)
    res = suites.suite_jadro(1, 2, 0)
    assert (res.passed, res.total, res.failures) == (0, 1, ["trial0: boom"])

