"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import importlib.util
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aolab
import aolab.criteria as criteria
from aolab import jsonout
from aolab.cli import (
    EXIT_INCONSISTENT,
    EXIT_INPUT,
    EXIT_OK,
    broken_implication,
    main,
)
from aolab.config import default_seed
from aolab.criteria import POWER_STEPS
from aolab.generators import (
    canonical_oblique,
    dft4,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_unitary_finite_spectrum,
    haar_unitary,
    spread_unimodular,
)
from aolab.linalg import matrix_from_obj, matrix_to_obj
from aolab.structure import minimal_polynomial


def _write_matrix(path, A):
    path.write_text(jsonout.dumps(matrix_to_obj(A)))
    return str(path)


def _warm_analyze_peak_kib(inp):
    """The tracemalloc peak, in KiB, of one ``analyze`` of ``inp`` after a
    first, warming one."""
    assert main(["analyze", "--input", inp]) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(["analyze", "--input", inp]) == EXIT_OK
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def _finite_report(text):
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"report holds {c}"))


def _record_calls(monkeypatch, names):
    """Wrap the named functions in every aolab namespace that binds them;
    returns {name: [positional args of each call]}."""
    calls = {name: [] for name in names}
    for modname, mod in list(sys.modules.items()):
        if modname != "aolab" and not modname.startswith("aolab."):
            continue
        for name in names:
            fn = vars(mod).get(name)
            if fn is None:
                continue

            def recorded(*args, _fn=fn, _name=name, **kwargs):
                calls[_name].append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, recorded)
    return calls


class TestAnalyze:
    def test_dft4_report(self, tmp_path, capsys):
        inp = _write_matrix(tmp_path / "f.json", dft4())
        assert main(["analyze", "--input", inp]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["dim"] == 4
        assert report["minimal_polynomial"]["degree"] == 3
        assert report["criteria"]["unitary"] is True
        assert report["criteria"]["consistent"] is True
        assert report["stability"]["power_bounded"] is True

    def test_parser_built_once_and_dispatch_at_call_time(self, tmp_path, monkeypatch):
        # One parser serves every main call of a process, and the command
        # is looked up when called, so a wrapper on cmd_analyze sees it.
        import aolab.cli as cli

        inp = _write_matrix(tmp_path / "f.json", canonical_oblique())
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["analyze", "--input", inp, "--out", str(out), "--seed", "3"]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.input) or 7)
        assert main(["analyze", "--input", inp]) == 7 and seen == [inp]

    def test_out_and_csv_files(self, tmp_path):
        inp = _write_matrix(tmp_path / "f.json", dft4())
        out = tmp_path / "report.json"
        csv = tmp_path / "growth.csv"
        rc = main(["analyze", "--input", inp, "--out", str(out), "--csv", str(csv)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["input"]["dim"] == 4
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,power_norm,bound"
        assert len(lines) > 100

    def test_missing_file(self, capsys):
        assert main(["analyze", "--input", "/nonexistent.json"]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["analyze", "--input", str(p)]) == EXIT_INPUT

    def test_bad_matrix_object(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2, "entries": [[1, 0]]}')
        assert main(["analyze", "--input", str(p)]) == EXIT_INPUT
        assert "entries" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("[" + "9" * 400 + ", 0]", "field 'entries[0]' holds a number outside the float range"),
        ("[true, 0]", "field 'entries[0]' holds non-numeric data"),
        ('["0.5", "0"]', "field 'entries[0]' holds non-numeric data"),
    ], ids=["integer-400-digits", "bool", "strings"])
    def test_entry_not_a_float_pair(self, entry, message, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 1, "entries": [' + entry + "]}")
        assert main(["analyze", "--input", str(p)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_tolerance_must_be_finite(self, tol, tmp_path, capsys):
        # NaN fails `tol_conv <= 0`; with only that check, [[1.0]] read as
        # empirically non-convergent under a NaN tolerance (exit 2).
        inp = _write_matrix(tmp_path / "one.json", np.array([[1.0]]))
        assert main(["analyze", "--input", inp, f"--tol-conv={tol}"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: tolerances must be positive and finite\n")

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_path(self, flag, tmp_path, capsys):
        inp = _write_matrix(tmp_path / "f.json", dft4())
        target = tmp_path / "missing" / "x.json"
        assert main(["analyze", "--input", inp, flag, str(target)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and "No such file" in err
        assert not target.parent.exists()

    def test_huge_entry_report_is_finite(self, tmp_path, capsys):
        # Each step multiplies the e0 orbit by 1e12, carrying it far past
        # the float range by the horizon.
        inp = _write_matrix(tmp_path / "m.json", np.diag([1e12, 0.5]).astype(complex))
        assert main(["analyze", "--input", inp]) == EXIT_OK
        report = _finite_report(capsys.readouterr().out)
        assert report["criteria"]["probes"][0]["classification"]["kind"] == "exponential-growth"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1e12, 1e150, 1e160, 1e200, 1e301])
    def test_entries_whose_squares_overflow(self, big, tmp_path, capsys):
        # Squares of the entries from 1e150 on pass the float range: in
        # norms, in is_unitary's products, and, past 1e154, in the orbit
        # engines.  At every size each probe's rate is fitted over the whole
        # horizon in log space, unbiased by the probe's own component
        # (1e301 passes the float range at step 2), and its last norm is
        # clamped at 1e308.
        A = np.diag([big, 0.5]).astype(complex)
        inp = _write_matrix(tmp_path / "m.json", A)
        assert main(["analyze", "--input", inp]) == EXIT_OK
        crit = _finite_report(capsys.readouterr().out)["criteria"]
        assert crit["normaloid"] is True and crit["power_bounded"] is False
        for probe in crit["probes"]:
            assert probe["classification"]["rate"] == pytest.approx(big, rel=1e-9)
            assert probe["norm_last"] == pytest.approx(1e308, rel=1e-12)
        # In a batch of the basis, the e1 orbit beside the overflowing e0
        # dies and converges; 0.5^2000 underflows in its record.
        logs = criteria.orbit_log_norms_batch(A, np.eye(2), 2000)
        classes = criteria.classify_orbits(logs)
        e0, e1 = (criteria.OrbitRecord(None, logs[:, j], None, classes[j]).to_obj() for j in (0, 1))
        assert e0["classification"]["rate"] == pytest.approx(big, rel=1e-9)
        assert e0["norm_last"] == pytest.approx(1e308, rel=1e-12)
        assert e1["classification"] == {"kind": "convergent", "limit": 0.0}
        assert e1["norm_last"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "A",
        [[[1, 1e150], [0, 1]], np.diag([np.exp(709.5 / 4000), 0.5])],
        ids=["jordan-1e150", "window-square-overflow"],
    )
    def test_window_whose_squares_overflow(self, A, tmp_path, capsys):
        # Some probes' last windows hold finite squared norms whose sum
        # overflows (``TestUniformStability`` names them, and keeps the
        # basis probe that does not grow): the report leaves them out of
        # the limits, with the other growing probes, and stays finite.
        inp = _write_matrix(tmp_path / "m.json", np.array(A, dtype=complex))
        assert main(["analyze", "--input", inp, "--seed", "0"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert _finite_report(out)["stability"]["limit_projection_norm_sq"] == {}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bounded_orbits_past_overflow_limit(self, tmp_path, capsys):
        # The orbits and the powers of [[0.5, 1e305], [0, 0.5]] pass 1e300
        # at the first steps, then decay like n 0.5^n: read over the whole
        # horizon they converge to 0, and the powers are bounded, as the
        # roots say.
        inp = _write_matrix(tmp_path / "m.json", np.array([[0.5, 1e305], [0, 0.5]], dtype=complex))
        assert main(["analyze", "--input", inp]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        crit = _finite_report(out)["criteria"]
        assert crit["power_bounded"] is True and crit["orbits_convergent"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [1e110, 1e200])
    def test_nilpotent_huge_entries_converge(self, big, tmp_path, capsys):
        # The orbits of big * shift pass 1e300 one step before they die (at
        # 1e200): a column that died converges, however large its norms
        # before, so every probe converges, as the structure says, and so
        # does every basis orbit, e0 at once and e1 a step later.
        A = big * np.eye(3, k=1, dtype=complex)
        inp = _write_matrix(tmp_path / "m.json", A)
        assert main(["analyze", "--input", inp]) == EXIT_OK
        crit = _finite_report(capsys.readouterr().out)["criteria"]
        assert crit["orbits_convergent"] is True
        assert all(p["classification"] == {"kind": "convergent", "limit": 0.0} for p in crit["probes"])
        assert [p["structural_exponent"] for p in crit["probes"]] == [2] * criteria.RANDOM_PROBES
        classes = criteria.classify_orbits(criteria.orbit_log_norms_batch(A, np.eye(3), 2000))
        assert classes == [criteria.Classification(kind="convergent", limit=0.0)] * 3

    def test_analyze_computes_structure_once(self, tmp_path, monkeypatch, capsys):
        calls = _record_calls(
            monkeypatch,
            ["minimal_polynomial", "decompose", "power_log_norms", "orbit_log_norms_batch", "operator_norm"],
        )
        inp = _write_matrix(tmp_path / "m.json", canonical_oblique())
        rc = main(["analyze", "--input", inp, "--csv", str(tmp_path / "g.csv")])
        assert rc == EXIT_OK
        # The spectral radius is read off the minimal polynomial's roots;
        # theorem_check, growth_bound and uniform_stability share one
        # probe-orbit batch.  Powers are formed for the first ten steps,
        # which is_normaloid and growth_bound share, and for the growth
        # CSV's full trajectory.  ||A|| is taken once, and the minimal
        # polynomial reads it.
        assert {name: len(args) for name, args in calls.items()} == {
            "minimal_polynomial": 1, "decompose": 1, "power_log_norms": 2,
            "orbit_log_norms_batch": 1, "operator_norm": 1,
        }
        assert [args[1] for args in calls["power_log_norms"]] == [10, POWER_STEPS]

    def test_analyze_without_csv_forms_ten_powers(self, tmp_path, monkeypatch, capsys):
        # The growth bound of canonical_oblique peaks within the first ten
        # powers, and its block recursion rules out every later one.
        calls = _record_calls(monkeypatch, ["power_log_norms", "orbit_log_norms_batch"])
        inp = _write_matrix(tmp_path / "m.json", canonical_oblique())
        assert main(["analyze", "--input", inp]) == EXIT_OK
        assert [args[1] for args in calls["power_log_norms"]] == [10]
        assert len(calls["orbit_log_norms_batch"]) == 1

    def test_jordan_analyze_solves_few_eigenproblems(self, tmp_path, monkeypatch, capsys):
        # alpha I + N with N^2 = 0 at d32: ||A^n||_F overstates ||A^n||_2 at
        # every n, but the block recursion on the decomposition rules out
        # every n > 10, so only the ten shared powers are formed; the growth
        # CSV still reads the full trajectory.
        inp = _write_matrix(tmp_path / "m.json", gen_jordan_perturbation(32, np.exp(0.3j), 2.9, 0))
        eigvalsh = np.linalg.eigvalsh
        solved = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: solved.append(len(G)) or eigvalsh(G))
        calls = _record_calls(monkeypatch, ["power_log_norms"])
        assert main(["analyze", "--input", inp]) == EXIT_OK
        assert sum(solved) == 10 and [args[1] for args in calls["power_log_norms"]] == [10]
        solved.clear()
        assert main(["analyze", "--input", inp, "--csv", str(tmp_path / "g.csv")]) == EXIT_OK
        assert sum(solved) >= 10 + POWER_STEPS

    def test_inconsistent_power_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # A minimal polynomial that gives the unimodular root -1 of the
        # power-bounded canonical oblique matrix index 2.
        def index_2(A, *args):
            mp = minimal_polynomial(A, *args)
            (z, _), *rest = mp.roots
            return mp._replace(roots=((z, 2), *rest), degree=mp.degree + 1)

        monkeypatch.setattr(criteria, "minimal_polynomial", index_2)
        inp = _write_matrix(tmp_path / "m.json", canonical_oblique())
        assert main(["analyze", "--input", inp]) == EXIT_INCONSISTENT
        report = json.loads(capsys.readouterr().out)
        assert report["inconsistency"].startswith("power boundedness")
        assert "criteria" not in report

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_past_float_range_exits_1(self, tmp_path, capsys):
        # ||A|| = 2.1e308 overflows; read as inf, it made the matrix
        # normaloid (inf <= inf) and its root 1.5e308 a root 7.5e307.
        inp = _write_matrix(tmp_path / "m.json", np.array([[1.5e308, 0], [1.5e308, 0.5]]))
        assert main(["analyze", "--input", inp]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: ||A|| exceeds the float range\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_within_float_range(self, tmp_path, capsys):
        # The same shape at 1.5e300 keeps its report: not normaloid, since
        # ||A e0|| = sqrt(2) r, and both roots certified.
        inp = _write_matrix(tmp_path / "m.json", np.array([[1.5e300, 0], [1.5e300, 0.5]]))
        assert main(["analyze", "--input", inp]) == EXIT_OK
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == ""
        assert [r["z"] for r in report["minimal_polynomial"]["roots"]] == [[0.5, 0.0], [1.5e300, 0.0]]
        assert report["decomposition"]["constant_c"] == pytest.approx(np.sqrt(2), rel=1e-12)
        crit = report["criteria"]
        assert (crit["normaloid"], crit["unitary"], crit["power_bounded"], crit["consistent"]) == (
            False, False, False, True)
        assert report["growth_bound"] == {"skipped": "growth bound requires r(A) <= 1, got 1.5e+300"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_unitary_exits_2(self, tmp_path, capsys):
        # Eigenspaces 1.4e-7 off orthogonal: not every orbit converges, but
        # no probe resolves the oscillation.  ||A|| is within 1e-6 of r, so
        # is_normaloid does not warn.
        U = haar_unitary(4, np.random.default_rng(0))
        S = np.eye(4) + 1e-7 * np.random.default_rng(1).standard_normal((4, 4))
        inp = _write_matrix(tmp_path / "m.json", S @ U @ np.linalg.inv(S))
        assert main(["analyze", "--input", inp]) == EXIT_INCONSISTENT
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["inconsistency"].startswith("orbit convergence: structural=False empirical=True")
        assert "margin 1.4" in report["inconsistency"] and "criteria" not in report
        assert err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_expansive_analyze_without_overflow_warnings(self, tmp_path, capsys):
        # Norm 3: the stability probes pass e^355 by step 2000, where their
        # squared norms overflow.
        inp = _write_matrix(tmp_path / "m.json", gen_normaloid_nonnormal(8, seed=1, target_norm=3.0))
        assert main(["analyze", "--input", inp]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["stability"]["power_bounded"] is False


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_norm_without_overflow_warnings(self, tmp_path, capsys):
        # The block recursion scales by t = r = 1e-320, subnormal: a complex
        # division by t would multiply by 1 / t, which overflows.
        inp = _write_matrix(tmp_path / "m.json", np.array([[1e-320]], dtype=complex))
        assert main(["analyze", "--input", inp]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["growth_bound"]["spectral_radius"] == 1e-320

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_normaloid_without_overflow_warnings(self, tmp_path, capsys):
        # Its Jordan chain steps A - zI at the scale of A's largest entry,
        # not at 1e-320, where the rescaled thresholds overflowed.
        assert main(["generate", "--kind", "normaloid", "--dim", "3", "--scale", "1e-320", "--seed", "0"]) == EXIT_OK
        inp = tmp_path / "m.json"
        inp.write_text(capsys.readouterr().out)
        assert main(["analyze", "--input", str(inp)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_d64_heap_peak(self, tmp_path, capsys):
        # The parsed JSON lists are dropped once the matrix is built: one
        # d64 analyze peaks near 1,684 KiB with its 4-column probe batch, as
        # with 20 columns (the peak lies outside the batch), against
        # 3,010 KiB while the lists were kept, with d + 20 columns.
        U = gen_unitary_finite_spectrum(64, spread_unimodular(np.random.default_rng(1), 4), 1)
        assert _warm_analyze_peak_kib(_write_matrix(tmp_path / "m.json", U)) < 2750

    def test_d64_many_blocks_heap_peak(self, tmp_path, capsys):
        # 64 blocks, each kept as its basis and its rows of B^-1: one d64
        # analyze peaks near 1,574 KiB, against 5,606 KiB while every block
        # held its dense 64 x 64 projection.
        A = gen_oblique(64, np.exp(2j * np.pi * np.arange(64) / 64), 50.0, 1)
        assert _warm_analyze_peak_kib(_write_matrix(tmp_path / "m.json", A)) < 2750

    def test_broken_implication_exits_2(self, tmp_path, capsys):
        # S C S^-1 with C the cyclic shift of order 4 and S a product of unit
        # integer shears, exact in floating point: every root lies on the
        # circle, yet the stability section reads r < 1.
        A = np.array([[-5768, -2669, 1441, -236], [8311, 3844, -2079, 340],
                      [-5573, -2577, 1395, -228], [12913, 6006, -3178, 529]], dtype=complex)
        inp = _write_matrix(tmp_path / "m.json", A)
        assert main(["analyze", "--input", inp]) == EXIT_INCONSISTENT
        report = json.loads(capsys.readouterr().out)
        assert report["inconsistency"] == "stability.uniformly_stable implies not criteria.spectrum_in_circle"
        assert report["criteria"]["consistent"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_growth_ratio_past_float_range_exits_2(self, tmp_path, capsys):
        # i I + S J_4 S^-1 with S a product of unit integer shears (cond
        # 1.2e12): the worst excess of the growth check lies past the float
        # range, so the message names its finite log, not an infinite ratio.
        S_J_Sinv = np.array([[-102442652613, 4893455425, -38284862493, 12622026105],
                             [4207995446, -201005706, 1572611806, -518469341],
                             [276106792392, -13189001615, 103186615255, -34019298332],
                             [4406730531, -210500802, 1646883122, -542956936]], dtype=complex)
        inp = _write_matrix(tmp_path / "m.json", S_J_Sinv + 1j * np.eye(4))
        assert main(["analyze", "--input", inp]) == EXIT_INCONSISTENT
        out, err = capsys.readouterr()
        message = json.loads(out)["inconsistency"]
        assert message.startswith("growth bound violated: log ratio ") and err == ""
        assert 709.8 < float(message.rsplit(" ", 1)[1]) < float("inf")

    def test_digest_reports_break_no_implication(self, tmp_path):
        path = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"
        spec = importlib.util.spec_from_file_location("report_digests", path)
        digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digests)
        without_both = []
        for name, source in digests.instances():
            report = json.loads(digests.run_instance(name, source, tmp_path)["out.json"] or "{}")
            if "criteria" in report and "stability" in report:
                assert broken_implication(report) is None, name
            else:
                without_both.append(name)
        # An input error, an orbit-convergence inconsistency and a cap that generate refuses.
        assert without_both == ["no-gap-d32", "near-unitary-1e-7", "planted-cap-1e16"]


class TestGenerate:
    def test_unitary_roundtrip(self, tmp_path, capsys):
        rc = main(
            [
                "generate",
                "--kind",
                "unitary",
                "--dim",
                "4",
                "--eigenvalues",
                "1,-1,i",
                "--seed",
                "7",
            ]
        )
        assert rc == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["dim"] == 4 and len(obj["entries"]) == 16

    def test_deterministic_output(self, capsys):
        args = ["generate", "--kind", "rotation", "--dim", "2", "--theta", "0.25"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_generate_then_analyze(self, tmp_path, capsys):
        main(["generate", "--kind", "oblique", "--dim", "3",
              "--eigenvalues", "1,-1,i", "--seed", "2"])
        obj = capsys.readouterr().out
        p = tmp_path / "m.json"
        p.write_text(obj)
        assert main(["analyze", "--input", str(p)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["criteria"]["power_bounded"] is True
        assert report["criteria"]["unitary"] is False

    def test_short_horizon_reads_no_trend(self, tmp_path, capsys):
        # --nmax 11 leaves 12 rows, whose last three the envelope fit reads,
        # but these bounded orbits' window maxima do not change along the
        # orbit: no trend is read, and the window rule finds no probe
        # convergent.
        main(["generate", "--kind", "oblique", "--dim", "4",
              "--eigenvalues", "1,i,-1,-i", "--seed", "1"])
        p = tmp_path / "m.json"
        p.write_text(capsys.readouterr().out)
        assert main(["analyze", "--input", str(p), "--nmax", "11", "--window", "5"]) == EXIT_OK
        probes = _finite_report(capsys.readouterr().out)["criteria"]["probes"]
        assert {q["classification"]["kind"] for q in probes} == {"bounded-nonconvergent"}

    def test_short_horizon_reads_decay(self, tmp_path, capsys):
        # --nmax 11: the envelope fit over the last three of 12 rows reads
        # log rho near log 0.5, and the window maxima fall along the orbit,
        # so every probe converges to 0, as the structure says.
        inp = _write_matrix(tmp_path / "m.json", np.diag([0.5, 0.25]).astype(complex))
        assert main(["analyze", "--input", inp, "--nmax", "11", "--window", "5"]) == EXIT_OK
        crit = _finite_report(capsys.readouterr().out)["criteria"]
        assert crit["orbits_convergent"] is True
        assert all(p["classification"] == {"kind": "convergent", "limit": 0.0} for p in crit["probes"])

    def test_two_step_horizon_is_an_input_error(self, tmp_path, capsys):
        # At --nmax 2 the r < 1 cross-check compared row n_max // 2 + 1 = 2
        # with itself, which never falls, and exited 2: the config refuses
        # n_max < 3, and --nmax 3 reads the decay.
        inp = _write_matrix(tmp_path / "m.json", np.diag([0.5, 0.25]).astype(complex))
        assert main(["analyze", "--input", inp, "--nmax", "2", "--window", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: require n_max >= 3, got n_max 2\n"
        assert main(["analyze", "--input", inp, "--nmax", "3", "--window", "1"]) == EXIT_OK

    def test_close_unitary_roots_analyze(self, tmp_path, capsys):
        # Eigenvalues 1e-7 apart: eigenvectors computed a few 1e-9 off
        # orthogonal still read as orthogonal blocks.
        main(["generate", "--kind", "unitary", "--dim", "4",
              "--eigenvalues", "1,0.999999999999995+1e-7j", "--seed", "0"])
        p = tmp_path / "m.json"
        p.write_text(capsys.readouterr().out)
        assert main(["analyze", "--input", str(p)]) == EXIT_OK
        crit = json.loads(capsys.readouterr().out)["criteria"]
        assert crit["unitary"] and crit["orbits_convergent"] and crit["consistent"]

    def test_expansive_normaloid_analyze(self, tmp_path, capsys):
        # Norm 3 at dim 16: raw probe vectors pass 1e154 long before the
        # horizon, so norms taken from the raw vectors overflowed to inf.
        main(["generate", "--kind", "normaloid", "--dim", "16",
              "--scale", "3", "--seed", "0"])
        p = tmp_path / "m.json"
        p.write_text(capsys.readouterr().out)
        assert main(["analyze", "--input", str(p)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["criteria"]["normaloid"] is True

    def test_unknown_kind(self, capsys):
        assert main(["generate", "--kind", "zebra", "--dim", "2"]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--kind", "jordan", "--dim", "3", "--scale", "nan"], "matrix entries must be finite"),
            (["--kind", "planted", "--dim", "3", "--eigenvalues", "nan"], "matrix entries must be finite"),
            (["--kind", "rotation", "--dim", "2", "--theta", "nan"], "matrix entries must be finite"),
            (["--kind", "normaloid", "--dim", "4", "--scale", "inf"], "target_norm must be positive and finite"),
            (["--kind", "planted", "--dim", "3", "--eigenvalues", "1", "--cond-cap", "inf"],
             "cond_cap must be finite and >= 1"),
            (["--kind", "oblique", "--dim", "2", "--eigenvalues", "1,-1", "--cond-cap", "nan"],
             "cond_cap must be finite and >= 1"),
        ],
        ids=["jordan-scale-nan", "planted-eigenvalue-nan", "rotation-theta-nan", "normaloid-scale-inf",
             "planted-cond-cap-inf", "oblique-cond-cap-nan"],
    )
    def test_non_finite_parameter(self, args, message, capsys):
        assert main(["generate", *args]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("token", ["inf", "-inf", "infinity", "nan"])
    def test_non_finite_eigenvalue_token(self, token, capsys):
        # "inf" keeps its i.
        assert main(["generate", "--kind", "planted", "--dim", "3", f"--eigenvalues={token}"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: matrix entries must be finite\n")

    @pytest.mark.parametrize("token, value", [("i", 1j), ("2i", 2j), ("1+2i", 1 + 2j)])
    def test_imaginary_unit_token(self, token, value, capsys):
        assert main(["generate", "--kind", "planted", "--dim", "3", "--eigenvalues", token]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        eig = np.linalg.eigvals(matrix_from_obj(json.loads(out)))
        assert np.allclose(eig, value, atol=1e-8)

    @pytest.mark.parametrize("values", ["-1,1", "-0.5i,0.5i", "-1-1i,1", ".5,-.5"])
    def test_signed_eigenvalue_list_either_form(self, values, capsys):
        # argparse reads a value that starts with "-" as an option unless it
        # is a plain negative number; "--eigenvalues -1,1" and
        # "--eigenvalues=-1,1" must give the same bytes.
        args = ["generate", "--kind", "planted", "--dim", "2", "--seed", "3"]
        assert main([*args, "--eigenvalues", values]) == EXIT_OK
        spaced = capsys.readouterr()
        assert main([*args, f"--eigenvalues={values}"]) == EXIT_OK
        assert capsys.readouterr() == spaced and spaced.err == ""

    def test_bad_token_named_as_written(self, capsys):
        assert main(["generate", "--kind", "planted", "--dim", "3", "--eigenvalues", "1,pi"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: cannot parse eigenvalue 'pi'\n")

    def test_bad_index_named_as_written(self, capsys):
        args = ["generate", "--kind", "planted", "--dim", "4", "--eigenvalues", "0.5", "--indices", "x"]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: cannot parse index 'x'\n")

    def test_singular_similarity_names_cond_cap(self, capsys):
        args = ["generate", "--kind", "oblique", "--dim", "3", "--eigenvalues", "1,i,-1", "--cond-cap", "1e300"]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: cond_cap 1e+300 leaves S singular in floating point\n")

    def test_oblique_fixture_keeps_cap_one_unitary(self, capsys):
        # The canonical oblique fixture's S has cond 2.618, past cap 1.
        args = ["generate", "--kind", "oblique", "--dim", "2", "--eigenvalues", "1,-1", "--cond-cap", "1"]
        assert main(args) == EXIT_OK
        assert criteria.is_unitary(matrix_from_obj(json.loads(capsys.readouterr().out)))

    def test_planted_refuses_the_oblique_cap(self, capsys):
        # The planted kind draws S as the oblique one does and refuses the same caps.
        args = ["generate", "--kind", "planted", "--dim", "4", "--eigenvalues", "0.5,0.25", "--cond-cap", "1e16"]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: cond_cap 1e+16 leaves S singular in floating point\n")

    def test_missing_eigenvalues(self, capsys):
        assert main(["generate", "--kind", "unitary", "--dim", "2"]) == EXIT_INPUT

    def test_bad_eigenvalue_token(self, capsys):
        rc = main(
            ["generate", "--kind", "unitary", "--dim", "2", "--eigenvalues", "xyz"]
        )
        assert rc == EXIT_INPUT


class TestVerify:
    def test_small_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "growth", "--trials", "5", "--seed", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "growth-bound: 5/5 PASS" in out

    def test_horizon_below_window_gives_both(self, capsys):
        assert main(["verify", "--suite", "scalar", "--trials", "1", "--nmax", "1"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: require 1 <= window < n_max, got window 50 and n_max 1\n")

    def test_window_flags_belong_to_analyze(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "scalar", "--window", "10"])
        assert exc.value.code == 2
        inp = _write_matrix(tmp_path / "f.json", dft4())
        assert main(["analyze", "--input", inp, "--window", "40", "--tol-conv", "1e-5"]) == EXIT_OK


class TestSeedEnv:
    def test_aolab_seed_env(self, monkeypatch):
        monkeypatch.setenv("AOLAB_SEED", "12345")
        assert default_seed() == 12345
        monkeypatch.delenv("AOLAB_SEED")
        assert default_seed() == 0

    def test_bad_env_seed_needs_no_seed_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("AOLAB_SEED", "abc")
        assert main(["verify", "--suite", "scalar", "--trials", "1", "--seed", "5"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--suite", "scalar", "--trials", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: AOLAB_SEED must be an integer, got 'abc'\n"

    def test_bad_env_seed_leaves_library_calls(self, monkeypatch):
        # Only the CLI reads AOLAB_SEED; RunConfig's seed defaults to 0.
        monkeypatch.setenv("AOLAB_SEED", "abc")
        assert aolab.growth_bound([[0.5]]).spectral_radius == 0.5
        assert aolab.theorem_check([[1.0]]).unitary

    def test_env_seed_changes_generate(self, monkeypatch, capsys):
        args = ["generate", "--kind", "normaloid", "--dim", "4"]
        monkeypatch.setenv("AOLAB_SEED", "1")
        main(args)
        one = capsys.readouterr().out
        monkeypatch.setenv("AOLAB_SEED", "2")
        main(args)
        two = capsys.readouterr().out
        assert one != two


class TestJsonDeterminism:
    def test_float_formatting_stable(self):
        text = jsonout.dumps({"x": 1.0, "y": 0.1 + 0.2})
        assert text == jsonout.dumps({"x": 1.0, "y": 0.1 + 0.2})
        assert "0.30000000000000004" in text

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            jsonout.dumps({"x": float("nan")})
