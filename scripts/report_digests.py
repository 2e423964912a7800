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
for big = 1e12, 1e160, 1e200 and 1e301 (diag-1e301, whose growing orbits
pass the float range at step 2), nilpotent-1e200 (1e200 times the dim-3
shift, whose orbits pass 1e300 one step before they die), nilpotent-1e-9
(1e-9 times that shift, not normaloid although ||A|| < 1e-8), and three
planted structures: the first
circle/d16 instance of the structure-stress benchmark (12 simple unimodular
roots, cond cap 1e4), roots of index 4 and 2 at dim 8, and a dim-32 shape
with indices 6, 4, 2, 1 and cond cap 1e6 whose minimal polynomial has no
singular-value gap (exit 1); near-unitary-1e-7, a dim-4 Haar unitary
under the similarity I + 1e-7 G, whose eigenspaces are 1.4e-7 off
orthogonal, so that not every orbit converges but no probe resolves the
oscillation (exit 2); close-unitary-1e-7, a dim-4 unitary with
eigenvalues 1 and e^{1e-7 i}, whose computed eigenvectors are a few 1e-9
off orthogonal, within the error of their bases (exit 0); slow-decay,
0.99 I_4 + 30 J_4, whose orbits all converge to 0 while their norms at the
horizon are still large (exit 0); poly-IJ4, I + J_4, whose probes grow
like n^k for their structural exponents k (exit 0); and jordan-d64,
e^{0.3i} I + N at dim 64 with ||N|| = 2.9, like the analyze-large jordan
op, whose block recursion rules out every power of the growth check past
n = 10, where ||A^n||_F would rule out none (exit 0); and planted-nilpotent-d8,
the root 0 of index 3 at dim 8, the shape of the growth suite's nilpotent
trials, whose powers from n = 3 on are rounding noise (exit 0); and two
whose last windows hold finite squared norms with a sum past the float
range, jordan-1e150, [[1, 1e150], [0, 1]], and window-square-overflow,
diag(e^(709.5/4000), 0.5) (exit 0); and oblique-d32, the first oblique/d32
instance of the analyze-large benchmark, 32 simple unimodular roots whose
496 pairs of blocks the principal-angle decision reads (exit 0); and
overflow-then-decay, [[0.5, 1e305], [0, 0.5]], whose orbits and powers
pass 1e300 at the first steps and then decay (exit 0); and normaloid-d32,
the first normaloid/d32 instance of analyze-large, whose exact 2x2 Jordan
block leaves its eigenvector matrix near singular, so that 30 pairs of
eigenvalues take a merge check and each is refused (exit 0); and
dft4-1e-13, 1e-13 dft4, whose powers 1e-13^n never vanish, so that no root
is 0 on the scale of ||A|| (exit 0); and subnormal-1e-320, the dim-1 matrix
[[1e-320]], whose block recursion scales by the subnormal r (exit 0); and
planted-cap-1e16, a planted structure at cond cap 1e16, which ``generate``
refuses (exit 1, no report); and oblique-d64, the 64th roots of unity
under an oblique similarity (seed 1, cond cap 50), whose 64 blocks each
give their component of every probe from one product B^-1 H (exit 0).
The three benchmark instances are built by ``bench/workloads.py`` itself, imported
read-only.

A change that moves trailing digits changes most digests, so two runs can
also be compared field by field:

    PYTHONPATH=src python scripts/report_digests.py --keep /tmp/before
    (check out the other commit)
    PYTHONPATH=src python scripts/report_digests.py --against /tmp/before

Warnings in stderr name the ``aolab`` package directory as ``<aolab>``, so
the digests do not depend on where the checkout lies.

``--keep DIR`` writes each instance's exit code, input matrix JSON (the
``generate`` stdout, or the file the script writes itself), report, growth
CSV and stderr to DIR (``NAME.exit``, ``NAME.in.json``, ``NAME.out.json``,
``NAME.csv``, ``NAME.stderr``).  The input is not in the digest, so that
the printed lines stay comparable with runs that did not keep it.
``--against DIR`` compares this run with one kept in DIR: it lists every
exit-code, stderr, input or non-float difference (the input compared byte
for byte), then the largest relative float difference per field name (JSON
path without list indices, or ``csv.COLUMN``) and where it occurs.  The
script exits 1 on any non-float difference.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import aolab
from aolab import generators, jsonout
from aolab.cli import main as aolab_main
from aolab.generators import dft4, gen_jordan_perturbation, gen_planted_jordan, haar_unitary
from aolab.linalg import matrix_to_obj

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import LARGE_SHAPES, analyze_instance, stress_roots  # noqa: E402


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
    roots = [(z, 1) for z in stress_roots(rng, "circle", 12)]
    return gen_planted_jordan(16, roots, 1e4, int(rng.integers(2**31)))


def _analyze_large(s):
    """The first instance of shape s of the analyze-large benchmark (rng
    [1, 0, s])."""
    family, dim, params = LARGE_SHAPES[s]
    return analyze_instance(generators, family, dim, params, np.random.default_rng([1, 0, s]))[0]


def _no_gap_d32():
    """Separated roots of indices 6, 4, 2, 1 (the first and third
    unimodular) under a similarity of condition up to 1e6."""
    roots = [(r * np.exp(2j * np.pi * (j / 4 + 0.1)), i)
             for j, (r, i) in enumerate(zip((1.0, 0.7, 1.0, 0.5), (6, 4, 2, 1)))]
    return gen_planted_jordan(32, roots, 1e6, 0)


def _near_unitary():
    """S U S^-1: U Haar unitary of dim 4, S = I + 1e-7 G with G Gaussian."""
    U = haar_unitary(4, np.random.default_rng(0))
    S = np.eye(4) + 1e-7 * np.random.default_rng(1).standard_normal((4, 4))
    return S @ U @ np.linalg.inv(S)


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
    for big in ("1e12", "1e160", "1e200", "1e301"):
        out.append((f"diag-{big}", np.diag([float(big), 0.5]).astype(complex)))
    out.append(("nilpotent-1e200", 1e200 * np.eye(3, k=1, dtype=complex)))
    out.append(("nilpotent-1e-9", 1e-9 * np.eye(3, k=1, dtype=complex)))
    out.append(("stress-circle-d16", _stress_circle_d16()))
    out.append(("planted-index-4", ["--kind", "planted", "--dim", "8", "--eigenvalues", "0.5,-0.6i",
                                    "--indices", "4,2", "--seed", "0"]))
    out.append(("no-gap-d32", _no_gap_d32()))
    out.append(("near-unitary-1e-7", _near_unitary()))
    out.append(("close-unitary-1e-7", ["--kind", "unitary", "--dim", "4", "--eigenvalues",
                                       "1,0.999999999999995+1e-7j", "--seed", "0"]))
    shift = np.eye(4, k=1, dtype=complex)
    out.append(("slow-decay", 0.99 * np.eye(4) + 30 * shift))
    out.append(("poly-IJ4", np.eye(4) + shift))
    out.append(("jordan-d64", gen_jordan_perturbation(64, np.exp(0.3j), 2.9, 0)))
    out.append(("planted-nilpotent-d8", ["--kind", "planted", "--dim", "8", "--eigenvalues", "0",
                                         "--indices", "3", "--seed", "0"]))
    out.append(("jordan-1e150", np.array([[1, 1e150], [0, 1]], dtype=complex)))
    out.append(("window-square-overflow", np.diag([math.exp(709.5 / 4000), 0.5]).astype(complex)))
    out.append(("oblique-d32", _analyze_large(0)))
    out.append(("overflow-then-decay", np.array([[0.5, 1e305], [0, 0.5]], dtype=complex)))
    out.append(("normaloid-d32", _analyze_large(4)))
    out.append(("dft4-1e-13", 1e-13 * dft4()))
    out.append(("subnormal-1e-320", np.array([[1e-320]], dtype=complex)))
    out.append(("planted-cap-1e16", ["--kind", "planted", "--dim", "4", "--eigenvalues", "0.5,0.25",
                                     "--cond-cap", "1e16"]))
    out.append(("oblique-d64", ["--kind", "oblique", "--dim", "64", "--eigenvalues", _roots_of_unity(64),
                                "--seed", "1"]))
    return out


# Warnings name the file they come from; stderr carries the package's
# directory as this placeholder, so that two checkouts of the same code
# digest alike.
PACKAGE_DIR = str(Path(aolab.__file__).parent)
PACKAGE_PLACEHOLDER = "<aolab>"


def _run(argv):
    """aolab's exit code, stdout and stderr on ``argv``, warnings shown as a
    fresh process would show them, the package directory in stderr replaced
    by ``PACKAGE_PLACEHOLDER``."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        # Also under an outer catch_warnings(record=True), as in pytest,
        # whose recorder would otherwise take the warning.
        warnings.showwarning = show
        rc = aolab_main(argv)
    return rc, out.getvalue(), err.getvalue().replace(PACKAGE_DIR, PACKAGE_PLACEHOLDER)


def run_instance(name, source, work: Path) -> dict:
    """``analyze`` on one instance: its exit code, input matrix JSON,
    report, growth CSV (empty if not written) and stderr, each as bytes;
    or, where ``generate`` refuses the instance, its exit code, stdout and
    stderr."""
    inp, report, csv_path = work / f"{name}.json", work / f"{name}.out.json", work / f"{name}.csv"
    if isinstance(source, list):
        rc, text, err = _run(["generate", *source])
        if rc != 0:
            return {"exit": str(rc).encode(), "in.json": text.encode(), "out.json": b"", "csv": b"",
                    "stderr": err.encode()}
    else:
        text = jsonout.dumps(matrix_to_obj(source))
    inp.write_text(text)
    rc, _, err = _run(["analyze", "--input", str(inp), "--out", str(report), "--csv", str(csv_path)])
    parts = {suffix: path.read_bytes() if path.exists() else b""
             for suffix, path in (("out.json", report), ("csv", csv_path))}
    return {"exit": str(rc).encode(), "in.json": text.encode(), **parts, "stderr": err.encode()}


def digest(name, result) -> str:
    """``name exit_code sha256`` for one instance; the input is left out."""
    h = hashlib.sha256()
    for part in ("out.json", "csv"):
        h.update(result[part])
        h.update(b"\0")
    h.update(result["stderr"])
    return f"{name} {result['exit'].decode()} {h.hexdigest()}"


PARTS = ("exit", "in.json", "out.json", "csv", "stderr")


def keep(name, result, dest: Path) -> None:
    for part in PARTS:
        (dest / f"{name}.{part}").write_bytes(result[part])


def load(name, src: Path):
    """The result kept for ``name`` in ``src``, or None if it is missing."""
    paths = {part: src / f"{name}.{part}" for part in PARTS}
    if not all(p.exists() for p in paths.values()):
        return None
    return {part: p.read_bytes() for part, p in paths.items()}


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); inf when a and b differ and one is not
    finite (inf against a finite value, or nan)."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _walk(a, b, path, diffs, floats):
    """Compare two parsed reports: non-float differences go to ``diffs``,
    (field, relative difference, path) of every float pair to ``floats``."""
    if isinstance(a, float) and isinstance(b, float):
        floats.append((re.sub(r"\[\d+\]", "", path), _relative(a, b), path))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            diffs.append(f"{path}: keys {list(b)} -> {list(a)}")
        for k in a:
            if k in b:
                _walk(a[k], b[k], f"{path}.{k}" if path else k, diffs, floats)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(b)} -> {len(a)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", diffs, floats)
    elif type(a) is not type(b) or a != b:
        diffs.append(f"{path}: {b!r} -> {a!r}")


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _walk_csv(new: bytes, old: bytes, diffs, floats):
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    if len(rows_new) != len(rows_old) or rows_new[:1] != rows_old[:1]:
        diffs.append(f"csv: {len(rows_old)} rows -> {len(rows_new)}, or another header")
        return
    header = rows_new[0] if rows_new else []
    # An integer column holds integers only, on both sides: a float that
    # %.17g writes between 1e16 and 1e17 has neither a point nor an exponent.
    ints = [all(_is_int(r[c]) for r in rows_new[1:] + rows_old[1:]) for c in range(len(header))]
    for i, (row, was) in enumerate(zip(rows_new[1:], rows_old[1:]), start=1):
        for col, is_int, x, y in zip(header, ints, row, was):
            if x == y:
                continue
            try:
                a, b = float(x), float(y)
            except ValueError:
                a = b = None
            if a is None or is_int:
                diffs.append(f"csv row {i} {col}: {y!r} -> {x!r}")
            else:
                floats.append((f"csv.{col}", _relative(a, b), f"csv row {i} {col}"))


def compare(name, new, old):
    """(diffs, floats) between this run's result for ``name`` and a kept
    one: every non-float difference as a line, and (field, relative
    difference, path) for every float pair."""
    if old is None:
        return [f"{name}: nothing kept"], []
    diffs, floats = [], []
    if new["exit"] != old["exit"]:
        diffs.append(f"exit code {old['exit'].decode()} -> {new['exit'].decode()}")
    if new["stderr"] != old["stderr"]:
        diffs.append("stderr differs")
    if new["in.json"] != old["in.json"]:
        diffs.append("input JSON differs")
    if bool(new["out.json"]) != bool(old["out.json"]):
        diffs.append("report written on one side only")
    elif new["out.json"]:
        _walk(json.loads(new["out.json"]), json.loads(old["out.json"]), "", diffs, floats)
    _walk_csv(new["csv"], old["csv"], diffs, floats)
    return [f"{name}: {d}" for d in diffs], floats


def main(argv=()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--keep", type=Path, help="write each instance's outputs to this directory")
    ap.add_argument("--against", type=Path, help="compare with the outputs kept in this directory")
    args = ap.parse_args(list(argv))
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
    diffs, worst, identical, total = [], {}, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in instances():
            result = run_instance(name, source, Path(tmp))
            print(digest(name, result), flush=True)
            total += 1
            if args.keep:
                keep(name, result, args.keep)
            if args.against:
                lines, floats = compare(name, result, load(name, args.against))
                moved = [f for f in floats if f[1] > 0]
                diffs += lines
                identical += not lines and not moved
                for field, rel, path in moved:
                    if rel > worst.get(field, (0.0,))[0]:
                        worst[field] = (rel, f"{name} {path}")
    if not args.against:
        return 0
    print(f"against {args.against}: {len(diffs)} non-float differences, "
          f"{identical} of {total} instances identical")
    for line in diffs:
        print(f"  {line}")
    if worst:
        print("largest relative float difference per field:")
    for field, (rel, where) in sorted(worst.items(), key=lambda kv: -kv[1][0]):
        print(f"  {field} {rel:.3g} ({where})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
