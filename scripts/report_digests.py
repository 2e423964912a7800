#!/usr/bin/env python3
"""Print one line per fixed instance: its name, the exit code of
``aolab analyze`` on it, and the SHA-256 of the report, the growth CSV and
stderr together.

Two checkouts that print the same lines give byte-identical ``analyze``
output on the set, so a change meant to keep behaviour is checked by
running the script at both commits and diffing the output:

    PYTHONPATH=src python scripts/report_digests.py > digests.txt

The set: every ``generate`` kind at dims 4, 8 and 16 and seeds 0-2, jordan
with alpha i and scale 0.5, normaloid with scale 3, dft4, diag(big, 0.5)
for big = 1e12, 1e160 and 1e200, and three planted structures: the first
circle/d16 instance of the structure-stress benchmark (12 simple unimodular
roots, cond cap 1e4), roots of index 4 and 2 at dim 8, and a dim-32 shape
with indices 6, 4, 2, 1 and cond cap 1e6 whose minimal polynomial has no
singular-value gap (exit 1).
"""

import contextlib
import hashlib
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from aolab import jsonout
from aolab.cli import main as aolab_main
from aolab.generators import dft4, gen_planted_jordan
from aolab.linalg import matrix_to_obj


def _roots_of_unity(dim):
    zs = np.exp(2j * np.pi * np.arange(dim) / dim)
    return ",".join(f"{float(z.real)!r}{float(z.imag):+}i" for z in zs)


def _kind_args(kind, dim):
    if kind == "unitary":
        return ["--eigenvalues", "1,-1,i"]
    if kind == "oblique":
        return ["--eigenvalues", _roots_of_unity(dim)]
    if kind == "planted":
        return ["--eigenvalues", "0.5,0.2i", "--indices", "2,1"]
    return []


def _stress_circle_d16():
    """The first circle/d16 instance of the structure-stress benchmark
    (rng [1, 0, 0]): 12 simple unimodular roots, cond cap 1e4."""
    rng = np.random.default_rng([1, 0, 0])
    base = 2 * math.pi / 12
    angles = rng.uniform(0, 2 * math.pi) + base * np.arange(12) + rng.uniform(-0.12, 0.12, 12) * base
    roots = [(complex(math.cos(a), math.sin(a)), 1) for a in angles]
    return gen_planted_jordan(16, roots, 1e4, int(rng.integers(2**31)))


def _no_gap_d32():
    """Separated roots of indices 6, 4, 2, 1 (the first and third
    unimodular) under a similarity of condition up to 1e6."""
    roots = [(r * np.exp(2j * np.pi * (j / 4 + 0.1)), i)
             for j, (r, i) in enumerate(zip((1.0, 0.7, 1.0, 0.5), (6, 4, 2, 1)))]
    return gen_planted_jordan(32, roots, 1e6, 0)


def instances():
    """(name, generate arguments or a matrix) for every instance of the set."""
    out = []
    for kind in ("unitary", "oblique", "jordan", "rotation", "normaloid", "planted"):
        for dim in (4, 8, 16):
            for seed in range(3):
                args = ["--kind", kind, "--dim", str(dim), "--seed", str(seed)]
                out.append((f"{kind}-d{dim}-s{seed}", args + _kind_args(kind, dim)))
    out.append(("jordan-alpha-i-scale-0.5",
                ["--kind", "jordan", "--dim", "4", "--eigenvalues", "i", "--scale", "0.5"]))
    out.append(("normaloid-scale-3", ["--kind", "normaloid", "--dim", "8", "--scale", "3"]))
    out.append(("dft4", dft4()))
    for big in ("1e12", "1e160", "1e200"):
        out.append((f"diag-{big}", np.diag([float(big), 0.5]).astype(complex)))
    out.append(("stress-circle-d16", _stress_circle_d16()))
    out.append(("planted-index-4", ["--kind", "planted", "--dim", "8", "--eigenvalues", "0.5,-0.6i",
                                    "--indices", "4,2", "--seed", "0"]))
    out.append(("no-gap-d32", _no_gap_d32()))
    return out


def _run(argv):
    """aolab's exit code, stdout and stderr on ``argv``, warnings shown as a
    fresh process would show them."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        rc = aolab_main(argv)
    return rc, out.getvalue(), err.getvalue()


def digest(name, source, work: Path) -> str:
    """``name exit_code sha256`` for one instance."""
    inp, report, csv = work / f"{name}.json", work / f"{name}.out.json", work / f"{name}.csv"
    if isinstance(source, list):
        rc, text, err = _run(["generate", *source])
        if rc != 0:
            raise RuntimeError(f"generate failed for {name}: {err}")
    else:
        text = jsonout.dumps(matrix_to_obj(source))
    inp.write_text(text)
    rc, _, err = _run(["analyze", "--input", str(inp), "--out", str(report), "--csv", str(csv)])
    h = hashlib.sha256()
    for part in (report, csv):
        h.update(part.read_bytes() if part.exists() else b"")
        h.update(b"\0")
    h.update(err.encode())
    return f"{name} {rc} {h.hexdigest()}"


def main(argv=None) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in instances():
            print(digest(name, source, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
