#!/usr/bin/env python3
"""Compare the outcomes of ``aolab analyze`` at several probe counts.

    PYTHONPATH=src python scripts/probe_outcomes.py --probes 4 20 --out BENCH_pr42_probes.json

For each count k of ``--probes`` the script sets ``criteria.RANDOM_PROBES``
to k in its own process (the batch is then the first k of the same rng
draws) and runs every input through the stages of ``analyze``
(``analyze`` of ``tests/exact_cases.py``, which reads the CLI's own
report).  An input's outcome is its exit code and its verdict tuple, or
the class of the error that ended the run.  The last count given is the
reference: for every other count the JSON lists each input whose outcome
differs from the reference's.

The three sets are those of ``tests/exact_cases.py``: ``exact``, the 72
exact cases of the known-answer ratchets (``exact_set``); ``wide``, 600
more (``wide_set``); and ``sweep``, the 480 obliques of the unit-circle
sweep at caps 1e3-1e6 (``sweep``).  For the sweep the JSON also counts,
per cap and probe count, the instances on which ``theorem_check`` alone
raises the power-bound InconsistencyError.

``--limit N`` runs only the first N inputs of each set, and the sweep at
its first cap only (a smoke run).  Warnings are silenced.

Two trees are compared as ``report_digests.py`` compares their digests:

    PYTHONPATH=src python scripts/probe_outcomes.py --keep /tmp/before
    (check out the other commit)
    PYTHONPATH=src python scripts/probe_outcomes.py --against /tmp/before

``--keep DIR`` writes every outcome and the sweep's power-bound raises to
DIR/outcomes.json.  ``--against DIR`` compares this run with the one kept
in DIR, which must hold the same inputs: for every probe count both runs
made, the JSON lists under ``against`` each input whose outcome differs
from the kept one, and both runs' power-bound raises.  The script exits 1
when any outcome or raise count moved.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(SCRIPTS))
from exact_cases import CAPS, analyze, exact_set, sweep, wide_set  # noqa: E402
from layer_times import _revision  # noqa: E402

from aolab import criteria  # noqa: E402
from aolab.config import RunConfig  # noqa: E402
from aolab.errors import AolabError, InconsistencyError  # noqa: E402

KEPT = "outcomes.json"


def power_bound_raises(A) -> bool:
    try:
        criteria.theorem_check(criteria.Analysis(A, RunConfig()))
    except AolabError as exc:
        return isinstance(exc, InconsistencyError) and str(exc).startswith("power boundedness")
    return False


def outcomes(sets, counts):
    """{count: {set: [[exit code, outcome], ...]}} and, per count, the sweep's
    power-bound raises per cap."""
    default = criteria.RANDOM_PROBES
    out, raises = {}, {}
    try:
        for k in counts:
            criteria.RANDOM_PROBES = k
            out[k] = {name: [list(analyze(A)[:2]) for _, A in inputs] for name, inputs in sets.items()}
            per_cap = raises[k] = {}
            for label, A in sets["sweep"]:
                cap = label.split("/")[0]
                per_cap[cap] = per_cap.get(cap, 0) + power_bound_raises(A)
    finally:
        criteria.RANDOM_PROBES = default
    return out, raises


def _moved(labels, runs, ref):
    """{set: [{case, reference, outcome}, ...]}: each input whose outcome
    in ``runs`` differs from the one in ``ref``."""
    return {name: [{"case": case, "reference": ref[name][i], "outcome": runs[name][i]}
                   for i, case in enumerate(cases) if runs[name][i] != ref[name][i]]
            for name, cases in labels.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probes", type=int, nargs="+", default=[4, 20], help="probe counts; the last is the reference")
    p.add_argument("--limit", type=int, default=None, help="run only the first N inputs of each set")
    p.add_argument("--keep", type=Path, help=f"write this run's outcomes to DIR/{KEPT}")
    p.add_argument("--against", type=Path, help=f"compare this run with the outcomes kept in DIR/{KEPT}")
    p.add_argument("--out", default=str(ROOT / ".bench_out" / "probe_outcomes.json"))
    args = p.parse_args(argv)
    if min(args.probes) < 1:
        p.error("probe counts must be positive")

    caps = CAPS[:1] if args.limit else CAPS
    inputs = {"exact": ((n, A) for n, _, A, *_ in exact_set()), "wide": ((n, A) for n, _, A, *_ in wide_set()),
              "sweep": ((f"{cap:.0e}/d{d}/s{s}", A) for cap, d, s, A in sweep(caps))}
    sets = {name: list(islice(cases, args.limit)) for name, cases in inputs.items()}
    labels = {name: [case for case, _ in inputs] for name, inputs in sets.items()}
    kept = json.loads((args.against / KEPT).read_text(encoding="utf-8")) if args.against else None
    if kept and kept["labels"] != labels:
        p.error(f"{args.against / KEPT} holds other inputs")
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runs, raises = outcomes(sets, args.probes)
    # As JSON writes them, so that a kept run compares equal.
    runs, raises = json.loads(json.dumps({str(k): v for k, v in runs.items()})), {str(k): v for k, v in raises.items()}
    ref = str(args.probes[-1])
    moved = {k: _moved(labels, runs[k], runs[ref]) for k in runs if k != ref}
    report = {"probes": args.probes, "reference": args.probes[-1], "cases": {name: len(v) for name, v in sets.items()},
              "moved": moved, "sweep_power_bound_raises": raises,
              "exit_codes": {k: {name: np.bincount([code for code, _ in rows], minlength=3).tolist()
                                 for name, rows in per_set.items()} for k, per_set in runs.items()},
              "seconds": round(time.perf_counter() - t0, 1), "python": platform.python_version(),
              "numpy": np.__version__, "change": _revision()}
    for k, per_set in moved.items():
        print(f"{k} probes against {ref}: " + ", ".join(f"{name} {len(m)} moved" for name, m in per_set.items()))
    for k, per_cap in raises.items():
        print(f"{k} probes: sweep power-bound raises " + ", ".join(f"{cap} {n}" for cap, n in per_cap.items()))
    failed = any(m for per_set in moved.values() for m in per_set.values())
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        kept_run = {"labels": labels, "outcomes": runs, "sweep_power_bound_raises": raises, "change": _revision()}
        (args.keep / KEPT).write_text(json.dumps(kept_run) + "\n", encoding="utf-8")
    if kept:
        shared = [k for k in runs if k in kept["outcomes"]]
        against = {k: _moved(labels, runs[k], kept["outcomes"][k]) for k in shared}
        report["against"] = {"kept_change": kept["change"], "moved": against,
                             "kept_sweep_power_bound_raises": {k: kept["sweep_power_bound_raises"][k] for k in shared}}
        for k in shared:
            print(f"{k} probes against {args.against}: "
                  + ", ".join(f"{name} {len(m)} moved" for name, m in against[k].items())
                  + ("" if raises[k] == kept["sweep_power_bound_raises"][k] else ", sweep power-bound raises moved"))
        failed |= any(m for per_set in against.values() for m in per_set.values())
        failed |= any(raises[k] != kept["sweep_power_bound_raises"][k] for k in shared)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
