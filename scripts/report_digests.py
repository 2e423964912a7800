#!/usr/bin/env python3
"""Print one line per fixed instance: its name, the exit code of
``aolab analyze`` on it, and the SHA-256 of the report, the growth CSV and
stderr together.

Two checkouts that print the same lines give byte-identical ``analyze``
output on the set, so a change meant to keep behaviour is checked by
running the script at both commits and diffing the output:

    PYTHONPATH=src python scripts/report_digests.py > digests.txt

The set: every ``generate`` kind at dims 4, 8 and 16 and seeds 0-2, jordan
with alpha i and scale 0.5, normaloid with scale 3, dft4, and diag(big, 0.5)
for big = 1e12, 1e160 and 1e200.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from aolab import jsonout
from aolab.cli import main as aolab_main
from aolab.generators import dft4
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
