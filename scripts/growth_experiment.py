#!/usr/bin/env python3
"""Sweep planted-Jordan instances, certify the polynomial growth bound for
each, and write a CSV of per-instance constants plus one n-resolved trace.

Usage:
    python scripts/growth_experiment.py --trials 50 --seed 0 \
        --out growth_constants.csv --trace growth_trace.csv
"""

import argparse
import csv
import sys

import numpy as np

from aolab.generators import gen_planted_jordan, planted_roots, subseeds
from aolab.linalg import operator_norm
from aolab.stability import growth_bound, growth_csv_rows
from aolab.structure import minimal_polynomial


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dim-max", type=int, default=8)
    ap.add_argument("--out", default="growth_constants.csv")
    ap.add_argument("--trace", default=None,
                    help="optional CSV of n, ||A^n||, bound for the first instance")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    rows = []
    trace_rows = None
    for t, sub in enumerate(subseeds(args.seed, args.trials)):
        dim = int(rng.integers(3, args.dim_max + 1))
        planted = planted_roots(rng, dim)
        A = gen_planted_jordan(dim, planted, cond_cap=100.0, seed=sub)
        mp = minimal_polynomial(A)
        gb = growth_bound(A)
        rows.append(
            {
                "trial": t,
                "dim": dim,
                "degree": mp.degree,
                "kappa": gb.kappa,
                "alpha": gb.alpha,
                "spectral_radius": gb.spectral_radius,
                "norm": operator_norm(A),
                "valid_from": gb.valid_from,
                "max_violation_ratio": gb.max_violation_ratio,
            }
        )
        if t == 0 and args.trace:
            trace_rows = list(growth_csv_rows(A, gb))

    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {len(rows)} instances to {args.out}")

    if trace_rows is not None:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "power_norm", "bound"])
            w.writerows(trace_rows)
        print(f"wrote {len(trace_rows)} trace rows to {args.trace}")

    worst = max(r["max_violation_ratio"] for r in rows)
    print(f"worst bound ratio: {worst:.3e} (must stay <= 1 + 1e-8)")
    return 0 if worst <= 1 + 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
