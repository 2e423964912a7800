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
        "dft4.csv", "dft4.exit", "dft4.in.json", "dft4.out.json", "dft4.stderr"]
    assert json.loads((kept / "dft4.in.json").read_text())["dim"] == 4
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

    # The input matrix JSON is compared byte for byte: one float written
    # otherwise, the same number, is a difference.
    (kept / "dft4.exit").write_text("0")
    obj["criteria"]["probes"][0]["classification"]["kind"] = "convergent"
    report.write_text(json.dumps(obj))
    matrix = kept / "dft4.in.json"
    text = matrix.read_text()
    matrix.write_text(text.replace("0.0", "0.00", 1))
    assert json.loads(matrix.read_text()) == json.loads(text)
    assert module.main(["--against", str(kept)]) == 1
    out = capsys.readouterr().out
    assert "1 non-float differences" in out and "dft4: input JSON differs" in out


def test_report_digests_csv_float_columns():
    # %.17g writes a float between 1e16 and 1e17 with neither a point nor
    # an exponent: a bound column that holds one is still a float column,
    # and only the all-integer n column compares exactly.
    walk = _load("report_digests")._walk_csv
    old = b"n,power_norm,bound\n1,1.5,2.5\n2,3.0,37059152259838824\n"
    diffs, floats = [], []
    walk(old.replace(b"838824", b"838992"), old, diffs, floats)
    assert diffs == [] and [(f, p) for f, _, p in floats] == [("csv.bound", "csv row 2 bound")]
    diffs, floats = [], []
    walk(old.replace(b"\n2,", b"\n3,"), old, diffs, floats)
    assert diffs == ["csv row 2 n: '2' -> '3'"] and floats == []


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
                "overlap_ms", "minpoly_oblique_ms", "decompose_oblique_ms", "minpoly_circle_ms", "minpoly_planted_ms",
                "growth_jordan_ms",
                "serialize_ms", "report_ms", "parse_ms"):
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


def test_layer_times_rows_read_the_tree_batch(tmp_path, monkeypatch):
    # A tree's engine, floor and Frobenius rows time its own probe batch: a
    # tree with two random probes steps and sums two columns, although the
    # inputs were made with four.  Engine and floor step the same operand,
    # the transposed real form of the d4 matrix, on the batch as rows.
    import aolab
    from aolab import cli, criteria, generators, jsonout, suites  # noqa: F401 (the rows read them off aolab)

    module = _load("layer_times")
    inputs = module._inputs(aolab, [4], tmp_path)
    widths, operands, stepper, frobenius = [], set(), criteria._stepper, criteria.frobenius_log_norms

    def counted_stepper(A, stack):
        propagate = stepper(A, stack)

        def counted(start, k):
            widths.append(start.shape[0])
            operands.add((A.shape, A.dtype.kind, start.shape, start.dtype.kind))
            propagate(start, k)

        return counted

    def counted_frobenius(logs, k):
        widths.append(k)
        return frobenius(logs, k)

    monkeypatch.setattr(criteria, "_stepper", counted_stepper)
    monkeypatch.setattr(criteria, "frobenius_log_norms", counted_frobenius)
    monkeypatch.setattr(criteria, "RANDOM_PROBES", 2)
    rows = module._rows(aolab, SCRIPTS.parent / "src", inputs, tmp_path)
    widths.clear()
    operands.clear()
    for key in ("engine_ms", "floor_ms", "frobenius_ms"):
        assert rows[key]["4"]() > 0
    assert widths and set(widths) == {2}
    assert operands == {((8, 8), "f", (2, 8), "f")}


def test_layer_times_reference(tmp_path, monkeypatch, capsys):
    # A pinned reference tree, here an export of this checkout's package,
    # is timed in the same alternation: every row reports change /
    # reference over its pairs, and the run its host factor.
    import shutil

    module = _load("layer_times")
    pinned = "0" * 40
    monkeypatch.setattr(module, "git", lambda *args: "" if args[0] == "status" else pinned)
    monkeypatch.setattr(module, "export", lambda commit, dest: shutil.copytree(SCRIPTS.parent / "src", dest / "src"))
    out = tmp_path / "layers.json"
    assert module.main(["--runs", "1", "--dims", "4", "--reference", "pinned", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["reference"] == pinned and list(report["sides"]) == ["change", "reference"]
    ratios = report["over_reference"]
    assert set(ratios) == set(report["sides"]["change"]) - {"engine_over_floor", "numpy"}
    for key in module.KEYS:
        assert ratios[key]["4"]["ratio"] > 0 and ratios[key]["4"]["pairs"] == module.REPS
    assert ratios["verify_ms"]["ratio"] > 0 and ratios["verify_ms"]["pairs"] == module.REPS_OTHER
    assert ratios["density_peak_kib"]["ratio"] == 1.0
    assert len(report["host"]["factors"]) == 1 and report["host"]["factors"][0] > 0
    assert report["host"]["samples"][0] >= 1
    text = capsys.readouterr().out
    assert "change/reference minpoly_circle_ms d4 " in text and "host factor per run: " in text


def test_layer_times_outside_a_checkout(tmp_path, monkeypatch):
    # Git cannot answer here, as in a ``git archive`` export: the run
    # records no revision instead of failing.
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-repo"))
    out = tmp_path / "layers.json"
    assert _load("layer_times").main(["--runs", "1", "--dims", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["change"] is None


def test_acceptance_walls(tmp_path, capsys):
    # One cheap criterion and a one-trial verify, in one fresh process.
    out = tmp_path / "walls.json"
    rc = _load("acceptance_walls").main(["-k", "test_criterion_04", "--trials", "1", "--runs", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["verify_argv"] == ["verify", "--suite", "all", "--trials", "1"]
    assert (report["runs"], report["blas_threads"]) == (1, "1") and report["numpy"]
    assert list(report["walls"]) == ["verify_s", "test_criterion_04_scalar_sequence"]
    assert all(len(row["values"]) == 1 and row["median"] > 0 for row in report["walls"].values())
    assert "test_criterion_04_scalar_sequence" in capsys.readouterr().out


def test_bench_selftest_wrapping():
    # The benchmark's tracer patches functions by module and name; a
    # refactor that drops a binding it wraps fails here.
    bench = SCRIPTS.parent / "bench"
    proc = subprocess.run([sys.executable, "selftest.py", "Wrapping"], cwd=bench,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_probe_outcomes(tmp_path, capsys):
    from aolab import criteria

    default, out = criteria.RANDOM_PROBES, tmp_path / "probes.json"
    assert _load("probe_outcomes").main(["--probes", "4", "20", "--limit", "3", "--out", str(out)]) == 0
    assert criteria.RANDOM_PROBES == default
    report = json.loads(out.read_text())
    assert report["cases"] == {"exact": 3, "wide": 3, "sweep": 3}
    assert report["moved"] == {"4": {"exact": [], "wide": [], "sweep": []}}
    assert report["sweep_power_bound_raises"] == {"4": {"1e+03": 0}, "20": {"1e+03": 0}}
    assert "4 probes against 20: exact 0 moved, wide 0 moved, sweep 0 moved" in capsys.readouterr().out


def test_probe_outcomes_against_a_kept_run(tmp_path, capsys):
    # One tree's outcomes kept and compared with a second run: nothing
    # moves; an outcome or a raise count altered in the kept run does.
    module, kept, out = _load("probe_outcomes"), tmp_path / "kept", tmp_path / "probes.json"
    argv = ["--probes", "4", "--limit", "2", "--out", str(out)]
    assert module.main([*argv, "--keep", str(kept)]) == 0
    assert module.main([*argv, "--against", str(kept)]) == 0
    report = json.loads(out.read_text())
    assert report["against"]["moved"] == {"4": {"exact": [], "wide": [], "sweep": []}}
    assert report["against"]["kept_sweep_power_bound_raises"] == {"4": {"1e+03": 0}}
    capsys.readouterr()

    path = kept / module.KEPT
    run = json.loads(path.read_text())
    run["outcomes"]["4"]["wide"][1] = [1, "DecompositionError"]
    run["sweep_power_bound_raises"]["4"]["1e+03"] = 1
    path.write_text(json.dumps(run))
    assert module.main([*argv, "--against", str(kept)]) == 1
    (moved,) = json.loads(out.read_text())["against"]["moved"]["4"]["wide"]
    assert moved["case"] == 1001 and moved["reference"] == [1, "DecompositionError"]
    assert "wide 1 moved, sweep 0 moved, sweep power-bound raises moved" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        module.main(["--probes", "4", "--limit", "1", "--out", str(out), "--against", str(kept)])
