"""Smoke runs of the experiment scripts on two trials each."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_growth_experiment(tmp_path, capsys):
    out, trace = tmp_path / "constants.csv", tmp_path / "trace.csv"
    rc = _load("growth_experiment").main(
        ["--trials", "2", "--out", str(out), "--trace", str(trace)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3
    assert trace.read_text().splitlines()[0] == "n,power_norm,bound"
    assert "worst bound ratio" in capsys.readouterr().out


def test_orbit_survey(capsys):
    assert _load("orbit_survey").main(["--trials", "2"]) == 0
    text = capsys.readouterr().out
    for family in ("unitary", "oblique", "jordan", "planted"):
        assert f"family {family} (2 instances)" in text
