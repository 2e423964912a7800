#!/usr/bin/env python3
"""Time ``aolab analyze`` and its layers, the trees taking turns in one
process per run, and write the medians and pair counts as JSON.

    python scripts/layer_times.py --out BENCH_layers.json
    python scripts/layer_times.py --parent HEAD~1 --reference 491ed93 --runs 5 --out BENCH_layers.json

Rows.  For each dimension (4, 8, 16, 32 and 64 by default) eighteen rows
are timed, most of them on one seeded unitary with four distinct
eigenvalues:
- ``analyze_ms``: one ``aolab analyze`` of its matrix JSON file, report
  written to a file, as the CLI runs it;
- ``engine_ms``: ``orbit_log_norms_batch`` of the tree's own analyze probe
  batch (its ``criteria.probe_set``: its ``criteria.RANDOM_PROBES`` random
  probes, drawn from the same generator state on every tree), over 2000
  steps;
- ``power_ms``: ``power_log_norms`` over POWER_STEPS powers, the power
  loop alone;
- ``floor_ms``: the same 2000 products in blocks of the engine's length,
  through the engine's own stepper (``criteria._stepper``) on the
  engine's own operand (the real form of A on [Re H; Im H], or the complex
  A on H on a tree whose ``criteria._prescaled`` returns it), with no norms
  and no rescales, the floor the engine's bookkeeping sits on;
- ``minpoly_ms``: ``minimal_polynomial`` of the unitary given its norm, as
  an ``Analysis`` calls it; ``decompose_ms``: ``decompose`` of the unitary
  on that minimal polynomial; ``frobenius_ms``: ``frobenius_log_norms`` of
  the tree's first ``criteria.RANDOM_PROBES`` columns of its engine batch
  over POWER_STEPS steps, as ``Analysis.frobenius_logs`` reads the random
  probes: the three layers that ``analyze`` runs once per matrix;
- ``overlap_ms``: ``Analysis.block_overlap`` of gen_oblique(d, the d-th
  roots of unity, 50, seed=d), the principal-angle decision on all pairs
  of its d unimodular blocks, on its cached decomposition, the cached
  decision dropped before each call; ``minpoly_oblique_ms``:
  ``minimal_polynomial`` of that oblique given its norm, one staircase for
  each of its d roots; ``decompose_oblique_ms``: ``decompose`` of that
  oblique on its cached minimal polynomial, d blocks of one dimension
  each, where the unitary has four; ``minpoly_circle_ms``:
  ``minimal_polynomial``, given its norm, of a circle shape of the
  structure-stress benchmark, gen_planted_jordan(d, d/2 simple roots
  spread on the unit circle, 1e2, seed=d), whose remaining d/2 dimensions
  repeat those roots, so that most roots have index 1 and multiplicity
  2 or more; ``minpoly_planted_ms``: ``minimal_polynomial``, given
  its norm, of gen_planted_jordan(d, roots e^{0.3i}, 0.7 e^{2.4i} and 0.5i
  of indices 4, 3 and 1 (3 and 1 at d4), 1e4, seed=d), whose Jordan blocks
  split into eigenvalues that only a merge check joins;
- ``classify_ms``: ``orbit_convergence`` on an ``Analysis`` whose structure
  and probe batch are already computed, so that the call is the
  classification of the batch and the structural verdict;
- ``classify_jordan_ms``: the same on gen_jordan_perturbation(d, e^{0.7i},
  1.0, seed=d), whose probes grow polynomially, and ``growth_jordan_ms``
  ``growth_bound`` on that ``Analysis``, its first ten powers solved;
- ``serialize_ms``: ``jsonout.dumps(matrix_to_obj(A))`` of the unitary, and
  ``parse_ms`` ``matrix_from_obj(json.loads(text))`` of that text: the
  write and the read of a matrix JSON file without the file;
- ``report_ms``: ``jsonout.dumps`` of the unitary's ``analyze`` report, the
  document that ``aolab analyze`` writes, built once with the change tree.
The rows without a dimension: ``one_step_ms`` times the engine on
diag(1e200, 0.5), whose blocks are one step long.  ``growth_bare_ms``
times ``growth_bound``, each call on a fresh ``Analysis`` (made untimed)
of the dim-8 planted structure with roots 0.95 e^{i} (index 2), e^{0.5i}
and 0.5i at cond cap 1e6 (seed 4), its structure and first ten powers
computed and no probe batch: a bare call whose loose recursion bound
leaves all POWER_STEPS spectral norms to be formed.
``growth_nilpotent_ms`` times ``growth_bound`` on the matrix of
gen_planted_jordan(8, [(0, 3)], 100.0, seed=8), the nilpotent shape of
the growth suite, which makes its own ``Analysis`` as the suite does.
``scalar_ms`` times ``scalar_re_sequence(e^{0.7i}, 0.3 + 0.4i)`` at its
1e5-step default and ``density_ms`` one ``suite_density()``;
``scalar_peak_kib`` and ``density_peak_kib`` are their ``tracemalloc``
heap peaks, in KiB.  ``verify_ms`` times one ``aolab verify --suite all
--trials 10 --seed 0``, its stdout captured.  ``import_ms`` times one
import of the package and its ten modules after every ``aolab`` module is
dropped from ``sys.modules``, as the benchmark's set-up re-imports it.

Runs.  The checkout this script lies in is the ``change`` tree; with
``--parent COMMIT`` the commit is exported with ``git archive`` as the
``parent`` tree, and with ``--reference COMMIT`` as the ``reference``
tree, a commit pinned for a span of changes.  Each run is one fresh
process with BLAS pinned to one thread and ``PYTHONDONTWRITEBYTECODE=1``.  It points ``sys.pycache_prefix``
at an empty directory, so that every ``aolab`` import compiles from source
and no tree reads cached bytecode, as on a host that writes none (numpy
keeps its cache).  It imports
each tree's package once and keeps its module objects, makes the inputs
once with the change tree's generators, builds each tree's rows on them
(each tree drawing its own probe batch with its own ``probe_set``) and
warms each tree up with one untimed ``analyze`` at the first dimension.
Then it times the rows one after another: each row with a dimension
REPS times per tree and each row without one REPS_OTHER times
(``verify_ms`` alone costs as much as all the others at d4).  The trees
take turns at every repetition, the order of the trees reversing from
one repetition to the next and from one run to the next, so that each
call but a row's first follows a call of the same row.  Before each
repetition, once per ``hostspeed.EVERY_S`` elapsed, the run times the
kernel of ``bench/hostspeed.py`` (imported read-only from ``bench/``),
whose mean over the run divided by its nominal time is the run's host
factor.  Before every call the tree's modules are put into
``sys.modules``, so that an import made at call time resolves to the
same tree.  Separate processes of one tree differ by up to a fifth on a
2-core host, while the trees of one process share its state.

Output.  Each side reports the median, quartiles and best of every row's
measurements over all runs (``values``), and ``engine_over_floor``, the
ratio of the engine and floor medians.  With ``--parent``,
``change_wins`` gives per row the pairs, one per measurement, in which
the change read lower (``bench_pairs.change_wins``; ties count for
neither).  With ``--reference``, ``over_reference`` gives per row the
median over the pairs of change / reference, each pair two calls of one
repetition, so that the host's speed divides out, and the pair count:
ratios that can be compared across runs and hosts where raw medians
cannot.  ``host`` records each run's host factor and kernel samples.
The parent and the reference must build an ``Analysis`` with its config
(``Analysis(A, config)``), take ``growth_bound`` without one and have the
engine's helpers in ``criteria`` and cache ``block_overlap`` on the
``Analysis``, as every commit from the one block loop on does; older
commits cannot be timed.  The JSON records the numpy and Python
versions, the BLAS thread count, the host's core count and the checkout's
revision (null outside a git checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
sys.path.insert(0, str(SCRIPTS))
sys.path.append(str(ROOT / "bench"))
from bench_pairs import change_wins, export, git, spread  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

STEPS = 2000
REPS = 9  # per tree and run, of each row with a dimension
REPS_OTHER = 3  # of each row without one, as verify_ms alone costs as much as all the others at d4
DIMS = (4, 8, 16, 32, 64)
BLAS_THREADS = "1"
HOST_DIM = 8  # of the host-speed kernel
MODULES = ("config", "errors", "linalg", "structure", "criteria", "stability", "generators", "suites",
           "jsonout", "cli")
KEYS = ("analyze_ms", "engine_ms", "power_ms", "floor_ms", "minpoly_ms", "decompose_ms", "frobenius_ms", "overlap_ms",
        "minpoly_oblique_ms", "decompose_oblique_ms", "minpoly_circle_ms", "minpoly_planted_ms", "classify_ms",
        "classify_jordan_ms", "growth_jordan_ms", "serialize_ms", "report_ms", "parse_ms")
VERIFY = ["verify", "--suite", "all", "--trials", "10", "--seed", "0"]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _peak_kib(fn) -> float:
    """The ``tracemalloc`` heap peak of one call of fn, in KiB."""
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()
    return peak


def _ours(name: str) -> bool:
    return name == "aolab" or name.startswith("aolab.")


def _import(src) -> dict:
    """The package and its modules, imported afresh from ``src``, by name."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        for name in ("aolab", *(f"aolab.{m}" for m in MODULES)):
            importlib.import_module(name)
    finally:
        del sys.path[0]
    return {name: module for name, module in sys.modules.items() if _ours(name)}


def _floor(propagate, V, k) -> None:
    for n in range(0, STEPS, k):
        propagate(V, min(k, STEPS - n))


def _inputs(t, dims, tmp: Path):
    """The matrices every tree's rows read, made by the package ``t``: per
    dimension the unitary, its JSON text (also written to ``tmp``), its
    ``analyze`` report as the document handed to ``jsonout.dumps``, the
    generator that draws its probe batch, in the state after the unitary's
    draws, the jordan matrix, the oblique one, the circle one and the
    planted one; then the bare and nilpotent growth shapes."""
    g, per_dim = t.generators, {}
    for d in dims:
        rng = np.random.default_rng(d)
        A = g.gen_unitary_finite_spectrum(d, g.spread_unimodular(rng, 4), d)
        text = t.jsonout.dumps(t.linalg.matrix_to_obj(A))
        (tmp / f"d{d}.json").write_text(text, encoding="utf-8")
        argv = ["analyze", "--input", str(tmp / f"d{d}.json"), "--out", str(tmp / f"d{d}.out.json"), "--seed", "1"]
        with mock.patch.object(t.jsonout, "dumps", wraps=t.jsonout.dumps) as spy:
            t.cli.main(argv)
        report = spy.call_args.args[0]
        J = g.gen_jordan_perturbation(d, np.exp(0.7j), 1.0, seed=d)
        O = g.gen_oblique(d, np.exp(2j * np.pi * np.arange(d) / d), 50.0, seed=d)
        C = g.gen_planted_jordan(d, [(z, 1) for z in g.spread_unimodular(np.random.default_rng([d, 1]), d // 2)],
                                 1e2, seed=d)
        roots = zip((np.exp(0.3j), 0.7 * np.exp(2.4j), 0.5j), (3, 1) if d == 4 else (4, 3, 1))
        per_dim[d] = (A, text, report, rng, J, O, C, g.gen_planted_jordan(d, list(roots), 1e4, seed=d))
    bare = g.gen_planted_jordan(8, [(0.95 * np.exp(1j), 2), (np.exp(0.5j), 1), (0.5j, 1)], 1e6, 4)
    return per_dim, bare, g.gen_planted_jordan(8, [(0, 3)], 100.0, 8)


def _rows(t, src, inputs, tmp: Path) -> dict:
    """The rows of the package ``t`` (imported from ``src``) on the inputs:
    {row: {dimension, or "" for a row without one: a call that returns one
    measurement}}.  The probe batch is the tree's own, so that a change of
    its width shows in ``engine_ms``, ``floor_ms`` and ``frobenius_ms``."""
    c, cfg = t.criteria, t.config.RunConfig(seed=1)
    per_dim, planted, nilpotent = inputs

    def warmed(A):
        """An Analysis of A with its structure and probe batch computed."""
        an = c.Analysis(A, cfg)
        c.orbit_convergence(an)
        return an

    def overlap(an):
        """``an.block_overlap`` decided afresh on its cached decomposition."""
        vars(an).pop("block_overlap", None)
        return an.block_overlap

    def at(d) -> dict:
        A, text, report, rng, J, O, C, P = per_dim[d]
        H = np.column_stack([v for _, v in c.probe_set(d, copy.deepcopy(rng))])
        argv = ["analyze", "--input", str(tmp / f"d{d}.json"), "--out", str(tmp / f"d{d}.out.json"), "--seed", "1"]
        k = c._block_steps(d, H.shape[1])
        R = c._prescaled(A)[0]  # a real form on a tree whose engine steps one
        start = np.concatenate((H.real, H.imag)) if R.dtype.kind == "f" else H.astype(complex)
        stack = np.empty((min(k, STEPS), *start.shape), dtype=start.dtype)
        jordan = warmed(J)
        jordan.power_logs(10)
        norm = t.linalg.operator_norm(A)
        oblique = c.Analysis(O, cfg)
        oblique.decomposition
        logs = c.orbit_log_norms_batch(A, H, STEPS)[1 : c.POWER_STEPS + 1]
        return {
            "analyze_ms": partial(t.cli.main, argv),
            "engine_ms": partial(c.orbit_log_norms_batch, A, H, STEPS),
            "power_ms": partial(c.power_log_norms, A, c.POWER_STEPS),
            "floor_ms": partial(_floor, c._stepper(R, stack), start, k),
            "minpoly_ms": partial(t.structure.minimal_polynomial, A, norm),
            "decompose_ms": partial(t.structure.decompose, A, t.structure.minimal_polynomial(A, norm)),
            "frobenius_ms": partial(c.frobenius_log_norms, logs, c.RANDOM_PROBES),
            "overlap_ms": partial(overlap, oblique),
            "minpoly_oblique_ms": partial(t.structure.minimal_polynomial, O, oblique.norm),
            "decompose_oblique_ms": partial(t.structure.decompose, O, oblique.minpoly),
            "minpoly_circle_ms": partial(t.structure.minimal_polynomial, C, t.linalg.operator_norm(C)),
            "minpoly_planted_ms": partial(t.structure.minimal_polynomial, P, t.linalg.operator_norm(P)),
            "classify_ms": partial(c.orbit_convergence, warmed(A)),
            "classify_jordan_ms": partial(c.orbit_convergence, jordan),
            "growth_jordan_ms": partial(t.stability.growth_bound, jordan),
            "serialize_ms": lambda: t.jsonout.dumps(t.linalg.matrix_to_obj(A)),
            "report_ms": partial(t.jsonout.dumps, report),
            "parse_ms": lambda: t.linalg.matrix_from_obj(json.loads(text)),
        }

    def bare():
        an = c.Analysis(planted, cfg)
        an.decomposition
        an.power_logs(10)
        return an

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            t.cli.main(VERIFY)

    rows = {}
    for d in per_dim:
        for key, fn in at(d).items():
            rows.setdefault(key, {})[str(d)] = partial(_timed, fn)
    scalar = partial(c.scalar_re_sequence, np.exp(0.7j), 0.3 + 0.4j)
    one_step = partial(c.orbit_log_norms_batch, np.diag([1e200, 0.5]), np.eye(2), STEPS)
    rows.update({key: {"": fn} for key, fn in {
        "one_step_ms": partial(_timed, one_step),
        "growth_bare_ms": lambda: _timed(partial(t.stability.growth_bound, bare())),
        "growth_nilpotent_ms": partial(_timed, partial(t.stability.growth_bound, nilpotent)),
        "scalar_ms": partial(_timed, scalar),
        "density_ms": partial(_timed, t.suites.suite_density),
        "scalar_peak_kib": partial(_peak_kib, scalar),
        "density_peak_kib": partial(_peak_kib, t.suites.suite_density),
        "verify_ms": partial(_timed, verify),
        "import_ms": partial(_timed, partial(_import, src)),
    }.items()})
    return rows


def alternate(trees: dict, dims) -> dict:
    """One run in this process: the rows of every tree (side -> src), the
    trees taking turns from the first one given, and the host-speed kernel
    between repetitions; {"times": {side: {row: {dimension or "":
    [measurements]}}}, "host_factor": factor, "host_samples": count}."""
    out, host = {side: {} for side in trees}, HostSpeed(HOST_DIM)
    with tempfile.TemporaryDirectory(prefix="layer-times-") as tmp:
        sys.pycache_prefix = tmp  # no bytecode there: every aolab import compiles from source
        mods = {side: _import(src) for side, src in trees.items()}
        sys.modules.update(mods["change"])
        inputs = _inputs(mods["change"]["aolab"], dims, Path(tmp))
        rows = {}
        for side, src in trees.items():
            sys.modules.update(mods[side])
            rows[side] = _rows(mods[side]["aolab"], src, inputs, Path(tmp))
            rows[side]["analyze_ms"][str(dims[0])]()  # warms the tree up; the time is dropped
        host.sample()
        for key, cells in rows["change"].items():
            for cell in cells:
                for rep in range(REPS if cell else REPS_OTHER):
                    host.keep_up()
                    for side in list(trees)[::-1 if rep % 2 else 1]:
                        sys.modules.update(mods[side])
                        out[side].setdefault(key, {}).setdefault(cell, []).append(rows[side][key][cell]())
    return {"times": out, "host_factor": host.factor(), "host_samples": len(host.samples)}


def one_run(trees: dict, dims) -> dict:
    """``alternate(trees, dims)`` in a fresh process with BLAS at
    BLAS_THREADS that writes no bytecode."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, __file__, "--dims", ",".join(map(str, dims)),
           "--measure", *(f"{side}={src}" for side, src in trees.items())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _flat(table: dict) -> dict:
    """The table with each row without a dimension holding its one cell."""
    return {key: row.get("", row) for key, row in table.items()}


def summarize(runs) -> dict:
    """Each side's median, quartiles and best of every row over all the
    runs' repetitions, with a parent the pairs the change won, with a
    reference the median change / reference ratio over the pairs, and each
    run's host factor."""
    sides, wins, ratios = {side: {} for side in runs[0]["times"]}, {}, {}
    for key, cells in runs[0]["times"]["change"].items():
        for cell in cells:
            got = {side: [v for run in runs for v in run["times"][side][key][cell]] for side in sides}
            for side, values in got.items():
                sides[side].setdefault(key, {})[cell] = {**spread(values), "best": min(values)}
            if "parent" in got:
                wins.setdefault(key, {})[cell] = change_wins(got["parent"], got["change"], higher=False)
            if "reference" in got:
                pairs = [c / r for c, r in zip(got["change"], got["reference"])]
                ratios.setdefault(key, {})[cell] = {"ratio": statistics.median(pairs), "pairs": len(pairs)}
    sides, wins, ratios = {side: _flat(table) for side, table in sides.items()}, _flat(wins), _flat(ratios)
    for side in sides.values():
        side["engine_over_floor"] = {
            d: side["engine_ms"][d]["median"] / side["floor_ms"][d]["median"] for d in side["engine_ms"]
        }
        side["numpy"] = np.__version__
    host = {"factors": [run["host_factor"] for run in runs], "samples": [run["host_samples"] for run in runs]}
    return {"sides": sides, "host": host, **({"change_wins": wins} if wins else {}),
            **({"over_reference": ratios} if ratios else {})}


def _revision() -> str | None:
    """HEAD, marked when the working tree differs from it; None where git
    cannot answer (outside a checkout, such as a ``git archive`` export)."""
    try:
        return git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default=None, help="commit to time beside this checkout")
    p.add_argument("--reference", default=None, help="pinned commit to time beside this checkout, "
                   "reported as change / reference ratios")
    p.add_argument("--runs", type=int, default=5, help="processes, each timing both trees in turn")
    p.add_argument("--dims", default=",".join(map(str, DIMS)))
    p.add_argument("--out", default=str(ROOT / ".bench_out" / "layers.json"))
    p.add_argument("--measure", nargs="+", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    dims = [int(d) for d in args.dims.split(",")]
    if args.measure:
        print(json.dumps(alternate(dict(tree.split("=", 1) for tree in args.measure), dims)))
        return 0

    with tempfile.TemporaryDirectory(prefix="layer-times-") as tmp:
        trees = {"change": ROOT / "src"}
        for side in ("parent", "reference"):
            if getattr(args, side):
                export(git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}"), Path(tmp) / side)
                trees[side] = Path(tmp) / side / "src"
        runs = [one_run(dict(list(trees.items())[::-1 if r % 2 else 1]), dims) for r in range(args.runs)]
    report = {"steps": STEPS, "reps": REPS, "runs": args.runs, "dims": dims, "python": platform.python_version(),
              "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count(), "change": _revision(), **summarize(runs)}
    for side in ("parent", "reference"):
        if getattr(args, side):
            report[side] = git("rev-parse", getattr(args, side))
    for side, s in report["sides"].items():
        for d in map(str, dims):
            print(f"{side:6s} d{d:<3s} " + "  ".join(f"{key} {s[key][d]['median']:.2f}" for key in KEYS)
                  + f"  engine/floor {s['engine_over_floor'][d]:.3f}")
        print(f"{side:6s} " + "  ".join(f"{key} {row['median']:.2f}" for key, row in s.items()
                                        if key not in (*KEYS, "engine_over_floor", "numpy")))
    for key, row in report.get("over_reference", {}).items():
        cells = {"": row} if "ratio" in row else row
        text = "  ".join(f"d{d} {c['ratio']:.3f}" if d else f"{c['ratio']:.3f}" for d, c in cells.items())
        print(f"change/reference {key} {text}  ({next(iter(cells.values()))['pairs']} pairs each)")
    print(f"host factor per run: {', '.join(f'{f:.3f}' for f in report['host']['factors'])}")
    if "change_wins" in report:
        print(f"pairs the change won, of {args.runs * REPS} per row with a dimension and {args.runs * REPS_OTHER} "
              f"per other row: {json.dumps(report['change_wins'])}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
