"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from aolab import jsonout
from aolab.cli import (
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from aolab.config import default_seed
from aolab.generators import dft4
from aolab.linalg import matrix_to_obj


def _write_matrix(path, A):
    path.write_text(jsonout.dumps(matrix_to_obj(A)))
    return str(path)


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

    def test_expansive_normaloid_analyze(self, tmp_path, capsys):
        # Norm 3 at dim 16: raw probe vectors pass 1e154 long before the
        # 1e300 cut, so norms taken from the raw vectors overflowed to inf.
        main(["generate", "--kind", "normaloid", "--dim", "16",
              "--scale", "3", "--seed", "0"])
        p = tmp_path / "m.json"
        p.write_text(capsys.readouterr().out)
        assert main(["analyze", "--input", str(p)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["criteria"]["normaloid"] is True

    def test_unknown_kind(self, capsys):
        assert main(["generate", "--kind", "zebra", "--dim", "2"]) == EXIT_INPUT

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


class TestSeedEnv:
    def test_aolab_seed_env(self, monkeypatch):
        monkeypatch.setenv("AOLAB_SEED", "12345")
        assert default_seed() == 12345
        monkeypatch.delenv("AOLAB_SEED")
        assert default_seed() == 0

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
