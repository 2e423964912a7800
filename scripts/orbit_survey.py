#!/usr/bin/env python3
"""Survey the orbit taxonomy across the generator families.

For each instance the script records the four equivalence conditions, the
stability verdict, and the classification of every probe orbit, then prints
a compact frequency table.  Handy for eyeballing how the families populate
the taxonomy (unitary / oblique power-bounded / polynomially growing /
strictly stable).

Usage:
    python scripts/orbit_survey.py --trials 25 --seed 0
"""

import argparse
import sys
from collections import Counter

import numpy as np

from aolab.config import RunConfig
from aolab.criteria import Analysis, theorem_check
from aolab.generators import (
    gen_jordan_perturbation,
    gen_oblique,
    gen_planted_jordan,
    gen_unitary_finite_spectrum,
    planted_roots,
    spread_unimodular,
    subseeds,
)
from aolab.stability import uniform_stability


def _instances(family, rng, trials, seed):
    for t, sub in enumerate(subseeds(seed, trials)):
        dim = int(rng.integers(2, 7))
        if family == "unitary":
            k = int(rng.integers(1, dim + 1))
            yield gen_unitary_finite_spectrum(dim, spread_unimodular(rng, k), sub)
        elif family == "oblique":
            yield gen_oblique(dim, spread_unimodular(rng, dim), 50.0, sub)
        elif family == "jordan":
            yield gen_jordan_perturbation(max(dim, 2), 1j, 1.0, sub)
        else:
            yield gen_planted_jordan(dim, planted_roots(rng, dim), 100.0, sub)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    cfg = RunConfig(seed=args.seed)
    for family in ("unitary", "oblique", "jordan", "planted"):
        rng = np.random.default_rng(args.seed)
        conds = Counter()
        kinds = Counter()
        stab = Counter()
        for A in _instances(family, rng, args.trials, args.seed):
            # Both stages read the structure and probe orbits of one analysis.
            an = Analysis(A)
            rep = theorem_check(an, cfg)
            key = (rep.unitary, rep.contraction, rep.orbits_convergent, rep.power_bounded)
            conds[key] += 1
            for _, rec in rep.probes:
                kinds[rec.classification.kind] += 1
            v = uniform_stability(an, cfg)
            stab[(v.uniformly_stable, v.strongly_stable, v.power_bounded)] += 1
        print(f"family {family} ({args.trials} instances)")
        print("  (unitary, contraction, orbits_conv, power_bdd):")
        for key, cnt in sorted(conds.items()):
            print(f"    {key}: {cnt}")
        print("  probe classifications:")
        for kind, cnt in kinds.most_common():
            print(f"    {kind}: {cnt}")
        print("  (uniform, strong, power_bdd):")
        for key, cnt in sorted(stab.items()):
            print(f"    {key}: {cnt}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
