#!/usr/bin/env python3
"""Time the acceptance gate end to end and write the wall times as JSON.

    python scripts/acceptance_walls.py --out BENCH_acceptance.json
    python scripts/acceptance_walls.py -k test_criterion_04 --trials 1 --runs 1

Rows.  ``verify_s`` is the wall time of one ``aolab verify --suite all``
in-process, its stdout captured, at verify's own default trials and seed
unless ``--trials`` is given.  Each test of ``tests/test_acceptance.py``
that ``-k`` selects (by default every ``test_criterion_*``) has a row of
its name: the wall time of its call as pytest reports it, set-up and
teardown left out.  The gate itself (60 s for criterion 1, 120 s for
criterion 3) is the tests' own; a failing criterion stops the script.

Runs.  Each run is one fresh process with BLAS pinned to one thread, the
package taken from this checkout's ``src``: it times the verify call, then
runs the selected tests under pytest with the repository's settings.  The
JSON gives per row the median, quartiles and every run's value
(``bench_pairs.spread``), with the Python and numpy versions, the BLAS
thread count, the host's core count and the checkout's revision.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
sys.path.insert(0, str(SCRIPTS))
from bench_pairs import spread  # noqa: E402
from layer_times import BLAS_THREADS, _revision  # noqa: E402


def _verify_argv(trials):
    return ["verify", "--suite", "all", *(["--trials", str(trials)] if trials else [])]


def measure(select: str, trials) -> dict:
    """One run in this process: the numpy version and {row: wall time in
    s}.  The package is imported here, from the path ``one_run`` sets."""
    from aolab.cli import main

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(_verify_argv(trials))
    walls = {"verify_s": time.perf_counter() - t0}
    if rc != 0:
        raise SystemExit(f"aolab verify exited {rc}")

    class Walls:
        def pytest_runtest_logreport(self, report):
            if report.when == "call":
                walls[report.nodeid.split("::")[-1]] = report.duration

    with contextlib.redirect_stdout(sys.stderr):
        rc = pytest.main([str(ACCEPTANCE), "-q", "-p", "no:cacheprovider", "-k", select], plugins=[Walls()])
    if rc != 0:
        raise SystemExit(f"pytest exited {rc} on {ACCEPTANCE.name} -k {select!r}")
    return {"numpy": np.__version__, "walls": walls}


def one_run(select: str, trials) -> dict:
    """``measure`` in a fresh process with BLAS at BLAS_THREADS."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, __file__, "-k", select, "--measure", *(["--trials", str(trials)] if trials else [])]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-k", dest="select", default="test_criterion_", help="pytest -k expression of the tests timed")
    p.add_argument("--trials", type=int, default=None, help="verify's --trials (default: its own)")
    p.add_argument("--runs", type=int, default=3, help="fresh processes, each timing every row once")
    p.add_argument("--out", default=str(ROOT / ".bench_out" / "acceptance.json"))
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.select, args.trials)))
        return 0

    runs = [one_run(args.select, args.trials) for _ in range(args.runs)]
    walls = {row: spread([run["walls"][row] for run in runs]) for row in runs[0]["walls"]}
    report = {"runs": args.runs, "verify_argv": _verify_argv(args.trials), "select": args.select,
              "python": platform.python_version(), "numpy": runs[0]["numpy"], "blas_threads": BLAS_THREADS,
              "cpu_count": os.cpu_count(), "change": _revision(), "walls": walls}
    for row, s in walls.items():
        print(f"{row:45s} median {s['median']:.3f} s  q1 {s['q1']:.3f}  q3 {s['q3']:.3f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
