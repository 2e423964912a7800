"""Smoke runs of the scripts on small inputs."""

import importlib.util
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

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


def test_report_digests(monkeypatch, capsys):
    module = _load("report_digests")
    keep = ("oblique-d4-s0", "dft4", "diag-1e12")
    picked = [inst for inst in module.instances() if inst[0] in keep]
    monkeypatch.setattr(module, "instances", lambda: picked)
    assert module.main() == 0
    first = capsys.readouterr().out
    assert module.main() == 0
    assert capsys.readouterr().out == first
    rows = [line.split() for line in first.splitlines()]
    assert [row[:2] for row in rows] == [[name, "0"] for name in keep]
    assert all(len(row[2]) == 64 for row in rows)


def test_report_digests_compare(tmp_path, monkeypatch, capsys):
    module = _load("report_digests")
    picked = [inst for inst in module.instances() if inst[0] == "dft4"]
    monkeypatch.setattr(module, "instances", lambda: picked)
    kept = tmp_path / "kept"
    assert module.main(["--keep", str(kept)]) == 0
    assert sorted(p.name for p in kept.iterdir()) == [
        "dft4.csv", "dft4.exit", "dft4.out.json", "dft4.stderr"]
    capsys.readouterr()
    assert module.main(["--against", str(kept)]) == 0
    out = capsys.readouterr().out
    assert "0 non-float differences, 1 of 1 instances identical" in out
    assert "largest relative" not in out

    report = kept / "dft4.out.json"
    obj = json.loads(report.read_text())
    obj["criteria"]["probes"][0]["norm_last"] *= 1 + 1e-6
    report.write_text(json.dumps(obj))
    assert module.main(["--against", str(kept)]) == 0
    out = capsys.readouterr().out
    assert "0 non-float differences, 0 of 1 instances identical" in out
    assert "criteria.probes.norm_last 1e-06 (dft4 criteria.probes[0].norm_last)" in out

    obj["criteria"]["probes"][0]["classification"]["kind"] = "bounded-nonconvergent"
    report.write_text(json.dumps(obj))
    (kept / "dft4.exit").write_text("2")
    assert module.main(["--against", str(kept)]) == 1
    out = capsys.readouterr().out
    assert "dft4: exit code 2 -> 0" in out
    assert "dft4: criteria.probes[0].classification.kind: 'bounded-nonconvergent' -> 'convergent'" in out


def test_report_digests_hide_package_path(monkeypatch):
    # A warning names the file it comes from; the digest must not depend
    # on where the checkout lies.
    module = _load("report_digests")
    source = Path(module.PACKAGE_DIR) / "stability.py"

    def warn(argv):
        print(f"{source}:7: RuntimeWarning: overflow encountered in exp", file=sys.stderr)
        return 0

    monkeypatch.setattr(module, "aolab_main", warn)
    rc, _, err = module._run([])
    assert rc == 0
    assert err == "<aolab>/stability.py:7: RuntimeWarning: overflow encountered in exp\n"


def test_report_digests_capture_warnings(monkeypatch):
    # pytest records warnings; _run must still write them to its stderr,
    # as a fresh process would.
    module = _load("report_digests")

    def warn(argv):
        warnings.warn("overflow encountered in exp", RuntimeWarning)
        return 0

    monkeypatch.setattr(module, "aolab_main", warn)
    rc, _, err = module._run([])
    assert rc == 0
    assert err.startswith(f"{__file__}:") and "RuntimeWarning: overflow encountered in exp\n" in err


def test_report_digests_relative_nonfinite():
    # inf against the 1e308 clamp is a difference, not a nan that no
    # threshold catches.
    relative = _load("report_digests")._relative
    assert relative(math.inf, 1e308) == relative(math.nan, 1.0) == math.inf
    assert relative(math.inf, math.inf) == 0.0 and relative(2.0, 1.0) == 0.5


def test_bench_pairs_dry_run(capsys):
    rc = _load("bench_pairs").main(["--workload", "structure-stress", "--dry-run"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    assert lines[:4] == [
        "structure-stress seed 1 parent HEAD~1",
        "structure-stress seed 1 change HEAD",
        "structure-stress seed 2 change HEAD",
        "structure-stress seed 2 parent HEAD~1",
    ]


def test_bench_pairs_summary():
    spec = {"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    ]}

    def result(ops, ms):
        return {"correct": True, "attempted": 6, "failed": 0, "metrics": {
            "ops_per_s": {"value": ops}, "op_p50_ms": {"value": ms}}}

    runs = {
        "parent": [result(10 + i % 3, 50 + i % 2) for i in range(10)],
        "change": [result(13 + i % 3, 70 - i % 2) if i else result(9, 40) for i in range(10)],
    }
    summary = _load("bench_pairs").summarize(runs, spec)
    ops, ms = summary["metrics"]["ops_per_s"], summary["metrics"]["op_p50_ms"]
    assert (ops["change_wins"], ops["gain"], ops["within_bound"]) == (9, True, True)
    assert (ms["change_wins"], ms["gain"], ms["within_bound"]) == (1, False, False)
    assert ops["parent"]["median"] == 11 and ms["ratio"] == pytest.approx(69 / 50.5)
    assert summary["failed"] == {"parent": [0] * 10, "change": [0] * 10}


def test_layer_times(tmp_path, capsys):
    out = tmp_path / "layers.json"
    assert _load("layer_times").main(["--runs", "1", "--dims", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["steps"], report["dims"], report["blas_threads"]) == (2000, [4], "1")
    side = report["sides"]["change"]
    assert side["numpy"] and list(report["sides"]) == ["change"]
    for key in ("analyze_ms", "engine_ms", "power_ms", "floor_ms", "minpoly_ms", "decompose_ms", "frobenius_ms",
                "overlap_ms", "growth_jordan_ms", "serialize_ms", "parse_ms"):
        assert side[key]["4"]["median"] > 0
    assert side["engine_over_floor"]["4"] > 0
    assert len(side["one_step_ms"]["values"]) == 3
    assert side["growth_bare_ms"]["median"] > 0 and side["growth_nilpotent_ms"]["median"] > 0
    for key in ("scalar_ms", "density_ms", "scalar_peak_kib", "density_peak_kib"):
        assert side[key]["median"] > 0
    assert side["verify_ms"]["median"] > 0 and side["import_ms"]["median"] > 0
    assert "change d4" in capsys.readouterr().out


def test_alternating_run():
    # One process times every row of the two trees in turn; here both are
    # this checkout.
    module = _load("layer_times")
    src = SCRIPTS.parent / "src"
    report = module.summarize([module.one_run({"parent": src, "change": src}, [4])])
    rows = {*module.KEYS, "one_step_ms", "growth_bare_ms", "growth_nilpotent_ms", "scalar_ms", "density_ms",
            "scalar_peak_kib", "density_peak_kib", "verify_ms", "import_ms"}
    for side in ("parent", "change"):
        assert set(report["sides"][side]) == {*rows, "engine_over_floor", "numpy"}
        assert report["sides"][side]["import_ms"]["median"] > 0
        assert len(report["sides"][side]["engine_ms"]["4"]["values"]) == module.REPS
    assert set(report["change_wins"]) == rows
    assert 0 <= report["change_wins"]["engine_ms"]["4"] <= module.REPS


def test_layer_times_outside_a_checkout(tmp_path, monkeypatch):
    # Git cannot answer here, as in a ``git archive`` export: the run
    # records no revision instead of failing.
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-repo"))
    out = tmp_path / "layers.json"
    assert _load("layer_times").main(["--runs", "1", "--dims", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["change"] is None


def test_bench_selftest_wrapping():
    # The benchmark's tracer patches functions by module and name; a
    # refactor that drops a binding it wraps fails here.
    bench = SCRIPTS.parent / "bench"
    proc = subprocess.run([sys.executable, "selftest.py", "Wrapping"], cwd=bench,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
