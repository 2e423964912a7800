#!/usr/bin/env python3
"""Time ``aolab analyze`` and the orbit engine at each dimension, and
write the medians as JSON.

    python scripts/layer_times.py --out BENCH_layers.json
    python scripts/layer_times.py --parent HEAD~1 --runs 5 --out BENCH_layers.json

For each dimension (4, 8, 16, 32 and 64 by default) one seeded unitary
with four distinct eigenvalues is timed four ways:
- ``analyze_ms``: one ``aolab analyze`` of its matrix JSON file, report
  written to a file, as the CLI runs it;
- ``engine_ms``: ``orbit_log_norms_batch`` of the analyze probe batch (the
  basis and 20 random probes) over 2000 steps;
- ``floor_ms``: the same 2000 products in blocks of the engine's length,
  through the engine's own stepper (``criteria._stepper``), with no norms
  and no rescales, the floor the engine's bookkeeping sits on;
- ``classify_ms``: ``orbit_convergence`` on an ``Analysis`` whose structure
  and probe batch are already computed, so that the call is the
  classification of the batch and the structural verdict, best of five.
``classify_jordan_ms`` times the same on gen_jordan_perturbation(d,
e^{0.7i}, 1.0, seed=d), whose probes grow polynomially, and
``growth_jordan_ms`` times ``growth_bound`` on that ``Analysis``, with its
ten shared powers also computed, best of five.
``serialize_ms`` times ``jsonout.dumps(matrix_to_obj(A))`` of the unitary,
best of five, and ``parse_ms`` times ``matrix_from_obj(json.loads(text))``
of that text, best of five: the write and the read of a matrix JSON file
without the file.
``one_step_ms`` times the engine on diag(1e200, 0.5), whose blocks are one
step long, three times per run.  ``growth_bare_ms`` times ``growth_bound``,
best of five, each call on a fresh ``Analysis`` of the dim-8 planted
structure with roots 0.95 e^{i} (index 2), e^{0.5i} and 0.5i at cond cap
1e6 (seed 4), its structure and ten shared powers computed and no probe
batch: a bare call whose loose recursion bound leaves all POWER_STEPS
spectral norms to be formed (a second call on the same ``Analysis`` would
read them from its cache).  ``growth_nilpotent_ms`` times ``growth_bound``,
best of five, on the matrix of gen_planted_jordan(8, [(0, 3)], 100.0,
seed=8), the nilpotent shape of the growth suite, each call on a fresh
``Analysis`` as the suite makes it.  ``scalar_ms`` times
``scalar_re_sequence(e^{0.7i}, 0.3 + 0.4i)`` at its 1e5-step default and
``density_ms`` one ``suite_density()``, best of five each;
``scalar_peak_kib`` and ``density_peak_kib`` are their ``tracemalloc``
heap peaks, in KiB, taken on a further call.  ``verify_ms`` times one
``aolab verify --suite all --trials 10 --seed 0``, its stdout captured.
``import_ms`` is the median of five imports of the package and its ten
modules, each after every ``aolab`` module is dropped from
``sys.modules``, as the benchmark's set-up re-imports it; the run has
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPYCACHEPREFIX`` at an empty
directory, so that every import compiles from source on both sides, the
checkout's cached bytecode unread.

Every run is a fresh process with BLAS pinned to one thread.  The checkout
this script lies in is the ``change`` side.  With ``--parent COMMIT`` the
commit is exported with ``git archive`` and timed as the ``parent`` side,
the two sides alternating which runs first.  The parent must build an
``Analysis`` with its config (``Analysis(A, config)``) and take
``growth_bound`` without one, as every commit from the one-config
``Analysis`` on does; older commits cannot be timed.  Each side reports the median
and quartiles of every timing, and the JSON records the numpy and Python
versions, the BLAS thread count, the host's core count and the checkout's
revision (null outside a git checkout).
"""

from __future__ import annotations

import argparse
import contextlib
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

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
sys.path.insert(0, str(SCRIPTS))
from bench_pairs import export, git, spread  # noqa: E402

STEPS = 2000
DIMS = (4, 8, 16, 32, 64)
BLAS_THREADS = "1"
MODULES = ("config", "errors", "linalg", "structure", "criteria", "stability", "generators", "suites",
           "jsonout", "cli")
KEYS = ("analyze_ms", "engine_ms", "floor_ms", "classify_ms", "classify_jordan_ms", "growth_jordan_ms",
        "serialize_ms", "parse_ms")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def measure(src: str, dims) -> dict:
    """One run of every timing, with the ``aolab`` package under ``src``."""
    sys.path.insert(0, src)
    import numpy as np

    def reimport():
        for name in [n for n in sys.modules if n == "aolab" or n.startswith("aolab.")]:
            del sys.modules[name]
        for name in ("aolab", *(f"aolab.{m}" for m in MODULES)):
            importlib.import_module(name)

    import_ms = statistics.median(_timed(reimport) for _ in range(5))

    from aolab import cli, criteria, jsonout, stability, suites
    from aolab.config import RunConfig
    from aolab.generators import (
        gen_jordan_perturbation,
        gen_planted_jordan,
        gen_unitary_finite_spectrum,
        spread_unimodular,
    )
    from aolab.linalg import matrix_from_obj, matrix_to_obj

    out = {key: {} for key in KEYS}
    out["numpy"] = np.__version__
    out["import_ms"] = import_ms
    cfg = RunConfig(seed=1)

    def best_of_five(fn) -> float:
        return min(_timed(fn) for _ in range(5))

    def warmed(A):
        """An Analysis of A with its structure and probe batch computed."""
        an = criteria.Analysis(A, cfg)
        criteria.orbit_convergence(an)
        return an

    with tempfile.TemporaryDirectory(prefix="layer-times-") as tmp:
        for i, d in enumerate([dims[0], *dims]):
            rng = np.random.default_rng(d)
            A = gen_unitary_finite_spectrum(d, spread_unimodular(rng, 4), d)
            inp, report = Path(tmp) / f"d{d}.json", Path(tmp) / f"d{d}.out.json"
            text = jsonout.dumps(matrix_to_obj(A))
            inp.write_text(text, encoding="utf-8")
            argv = ["analyze", "--input", str(inp), "--out", str(report), "--seed", "1"]
            t = _timed(lambda: cli.main(argv))
            if i == 0:
                continue  # the first analyze warms the imports up
            H = np.column_stack([v for _, v in criteria.probe_set(d, rng)])
            B, _ = criteria._prescaled(A)
            V = H.astype(complex)
            k = criteria._block_steps(d, H.shape[1])
            stack = np.empty((min(k, STEPS), d, H.shape[1]), dtype=complex)
            propagate = criteria._stepper(B, stack)

            def floor():
                for n in range(0, STEPS, k):
                    propagate(V, min(k, STEPS - n))

            out["analyze_ms"][d] = t
            out["serialize_ms"][d] = best_of_five(lambda: jsonout.dumps(matrix_to_obj(A)))
            out["parse_ms"][d] = best_of_five(lambda: matrix_from_obj(json.loads(text)))
            out["engine_ms"][d] = _timed(lambda: criteria.orbit_log_norms_batch(A, H, STEPS))
            out["floor_ms"][d] = _timed(floor)
            an = warmed(A)
            out["classify_ms"][d] = best_of_five(lambda: criteria.orbit_convergence(an))
            an = warmed(gen_jordan_perturbation(d, np.exp(0.7j), 1.0, seed=d))
            out["classify_jordan_ms"][d] = best_of_five(lambda: criteria.orbit_convergence(an))
            an.power_logs(10)
            out["growth_jordan_ms"][d] = best_of_five(lambda: stability.growth_bound(an))
    one = (np.diag([1e200, 0.5]), np.eye(2))
    out["one_step_ms"] = [_timed(lambda: criteria.orbit_log_norms_batch(*one, STEPS)) for _ in range(3)]
    A = gen_planted_jordan(8, [(0.95 * np.exp(1j), 2), (np.exp(0.5j), 1), (0.5j, 1)], 1e6, 4)

    def bare():
        an = criteria.Analysis(A, cfg)
        an.decomposition
        an.power_logs(10)
        return an

    out["growth_bare_ms"] = min(_timed(partial(stability.growth_bound, bare())) for _ in range(5))
    nilpotent = gen_planted_jordan(8, [(0, 3)], 100.0, 8)
    out["growth_nilpotent_ms"] = best_of_five(lambda: stability.growth_bound(nilpotent))
    probes = {"scalar": lambda: criteria.scalar_re_sequence(np.exp(0.7j), 0.3 + 0.4j),
              "density": suites.suite_density}
    for name, probe in probes.items():
        out[f"{name}_ms"] = best_of_five(probe)
        tracemalloc.start()
        probe()
        out[f"{name}_peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
    verify = ["verify", "--suite", "all", "--trials", "10", "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        out["verify_ms"] = _timed(lambda: cli.main(verify))
    return out


def _run(src: Path, dims) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, __file__, "--measure", str(src), "--dims", ",".join(map(str, dims))]
    with tempfile.TemporaryDirectory(prefix="layer-times-pyc-") as pyc:
        env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pyc)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=src.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _side(runs, dims) -> dict:
    """Medians and quartiles of one side's runs, per timing and dimension."""
    side = {key: {d: spread([r[key][str(d)] for r in runs]) for d in dims}
            for key in KEYS}
    side["engine_over_floor"] = {
        d: side["engine_ms"][d]["median"] / side["floor_ms"][d]["median"] for d in dims
    }
    one = [t for r in runs for t in r["one_step_ms"]]
    side["one_step_ms"] = {**spread(one), "best": min(one)}
    for key in ("growth_bare_ms", "growth_nilpotent_ms", "scalar_ms", "density_ms", "scalar_peak_kib",
                "density_peak_kib", "verify_ms", "import_ms"):
        side[key] = spread([r[key] for r in runs])
    side["numpy"] = runs[0]["numpy"]
    return side


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
    p.add_argument("--runs", type=int, default=5, help="runs per side, at least 3 for a median")
    p.add_argument("--dims", default=",".join(map(str, DIMS)))
    p.add_argument("--out", default=str(ROOT / ".bench_out" / "layers.json"))
    p.add_argument("--measure", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    dims = [int(d) for d in args.dims.split(",")]
    if args.measure:
        print(json.dumps(measure(args.measure, dims)))
        return 0

    runs = {"change": []}
    with tempfile.TemporaryDirectory(prefix="layer-times-") as tmp:
        trees = {"change": ROOT / "src"}
        if args.parent:
            runs["parent"] = []
            export(git("rev-parse", "--verify", f"{args.parent}^{{commit}}"), Path(tmp))
            trees["parent"] = Path(tmp) / "src"
        for r in range(args.runs):
            for side in sorted(runs, reverse=bool(r % 2)):
                runs[side].append(_run(trees[side], dims))
    report = {
        "steps": STEPS,
        "runs": args.runs,
        "dims": dims,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "change": _revision(),
        "sides": {side: _side(side_runs, dims) for side, side_runs in runs.items()},
    }
    if args.parent:
        report["parent"] = git("rev-parse", args.parent)
    for side, s in report["sides"].items():
        for d in dims:
            print(f"{side:6s} d{d:<3d} analyze {s['analyze_ms'][d]['median']:9.2f} ms  "
                  f"engine {s['engine_ms'][d]['median']:8.2f} ms  floor {s['floor_ms'][d]['median']:8.2f} ms  "
                  f"engine/floor {s['engine_over_floor'][d]:.3f}  classify {s['classify_ms'][d]['median']:.2f} ms  "
                  f"jordan {s['classify_jordan_ms'][d]['median']:.2f} ms  "
                  f"growth jordan {s['growth_jordan_ms'][d]['median']:.2f} ms  "
                  f"serialize {s['serialize_ms'][d]['median']:.2f} ms  parse {s['parse_ms'][d]['median']:.2f} ms")
        print(f"{side:6s} one-step engine best {s['one_step_ms']['best']:.2f} ms, "
              f"median {s['one_step_ms']['median']:.2f} ms")
        print(f"{side:6s} bare growth d8 cap 1e6 {s['growth_bare_ms']['median']:.2f} ms, "
              f"nilpotent d8 {s['growth_nilpotent_ms']['median']:.2f} ms")
        print(f"{side:6s} scalar lemma {s['scalar_ms']['median']:.2f} ms, {s['scalar_peak_kib']['median']:.0f} KiB; "
              f"density {s['density_ms']['median']:.2f} ms, {s['density_peak_kib']['median']:.0f} KiB")
        print(f"{side:6s} verify --suite all --trials 10 {s['verify_ms']['median']:.1f} ms")
        print(f"{side:6s} import, from source {s['import_ms']['median']:.1f} ms")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
