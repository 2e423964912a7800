"""Command-line front end.

Subcommands:
  analyze   read a matrix JSON file, emit a full criteria/growth/stability report
  generate  emit a deterministic instance as matrix JSON
  verify    run the seeded property suites

Exit codes: 0 ok, 1 input error, 2 internal inconsistency, 3 suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonout
from .config import RunConfig, default_seed
from .criteria import power_log_norms, theorem_check
from .errors import AolabError, InconsistencyError, InvalidInputError, OutOfScopeError
from .generators import (
    SQRT2,
    gen_jordan_perturbation,
    gen_normaloid_nonnormal,
    gen_oblique,
    gen_planted_jordan,
    gen_scalar_rotation,
    gen_unitary_finite_spectrum,
)
from .linalg import matrix_from_obj, matrix_to_obj
from .stability import growth_bound, growth_csv_rows, uniform_stability
from .structure import decompose, minimal_polynomial, minimal_poly_to_obj
from .suites import run_suites

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_SUITE = 3


def _parse_complex_list(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip().replace("i", "j")
        if not tok:
            continue
        try:
            out.append(complex(tok))
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse eigenvalue {tok!r}") from exc
    if not out:
        raise InvalidInputError("empty eigenvalue list")
    return out


def _config_from(args) -> RunConfig:
    return RunConfig(
        n_max=args.nmax,
        window=args.window,
        tol_conv=args.tol_conv,
        tol_rank=args.tol_rank,
        seed=args.seed,
        trials=getattr(args, "trials", 100),
    )


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--nmax", type=int, default=2000)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--tol-conv", dest="tol_conv", type=float, default=1e-6)
    p.add_argument("--tol-rank", dest="tol_rank", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=default_seed())


def _criteria(A, cfg, mp, D, logs):
    """theorem_check's report object and consistency bit.  The report, and
    with it the probe-norm matrix it holds, is dropped on return, before
    the stability orbits are allocated."""
    crit = theorem_check(A, cfg, minpoly=mp, decomposition=D, power_logs=logs)
    return crit.to_obj(), crit.consistent


def cmd_analyze(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        A = matrix_from_obj(obj)
        cfg = _config_from(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {"input": {"dim": int(A.shape[0])}}
    inconsistent = False
    gb = None
    try:
        # Computed once and passed to every stage below.
        mp = minimal_polynomial(A)
        report["minimal_polynomial"] = minimal_poly_to_obj(mp)
        D = decompose(A, mp)
        report["decomposition"] = {
            "blocks": [
                {"z": [b.z.real, b.z.imag], "index": b.index, "dim": b.dim}
                for b in D.blocks
            ],
            "constant_c": D.constant_c,
        }
        logs = power_log_norms(A, max(cfg.n_max, 1000))
        report["criteria"], consistent = _criteria(A, cfg, mp, D, logs)
        if not consistent:
            inconsistent = True
        try:
            gb = growth_bound(A, minpoly=mp, decomposition=D, power_logs=logs)
            report["growth_bound"] = gb.to_obj()
        except OutOfScopeError as exc:
            report["growth_bound"] = {"skipped": str(exc)}
        verdict = uniform_stability(A, cfg, minpoly=mp, power_logs=logs)
        report["stability"] = verdict.to_obj()
    except InconsistencyError as exc:
        report["inconsistency"] = str(exc)
        inconsistent = True
        gb = None
    except AolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    text = jsonout.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("n,power_norm,bound\n")
            if gb is not None:
                for n, nrm, bound in growth_csv_rows(A, gb, power_logs=logs):
                    fh.write(f"{n},{nrm:.17g},{bound:.17g}\n")
    return EXIT_INCONSISTENT if inconsistent else EXIT_OK


def cmd_generate(args) -> int:
    try:
        kind = args.kind
        if kind == "unitary":
            if not args.eigenvalues:
                raise InvalidInputError("--eigenvalues required for kind 'unitary'")
            A = gen_unitary_finite_spectrum(
                args.dim, _parse_complex_list(args.eigenvalues), args.seed
            )
        elif kind == "oblique":
            if not args.eigenvalues:
                raise InvalidInputError("--eigenvalues required for kind 'oblique'")
            A = gen_oblique(
                args.dim, _parse_complex_list(args.eigenvalues), args.cond_cap, args.seed
            )
        elif kind == "jordan":
            alpha = (
                _parse_complex_list(args.eigenvalues)[0] if args.eigenvalues else 1.0
            )
            A = gen_jordan_perturbation(args.dim, alpha, args.scale, args.seed)
        elif kind == "rotation":
            A = gen_scalar_rotation(args.dim, args.theta, args.seed)
        elif kind == "normaloid":
            A = gen_normaloid_nonnormal(args.dim, args.seed, args.scale)
        elif kind == "planted":
            if not args.eigenvalues:
                raise InvalidInputError("--eigenvalues required for kind 'planted'")
            vals = _parse_complex_list(args.eigenvalues)
            if args.indices:
                idx = [int(s) for s in args.indices.split(",")]
            else:
                idx = [1] * len(vals)
            if len(idx) != len(vals):
                raise InvalidInputError("--indices must match --eigenvalues in length")
            A = gen_planted_jordan(args.dim, list(zip(vals, idx)), args.cond_cap, args.seed)
        else:
            print(f"error: unknown kind {kind!r}", file=sys.stderr)
            return EXIT_INPUT
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(jsonout.dumps(matrix_to_obj(A)))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cfg = _config_from(args)
        results = run_suites(args.suite, cfg)
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    all_ok = True
    for r in results:
        print(r.summary())
        for f in r.failures[:5]:
            print(f"  failure: {f}")
        all_ok = all_ok and r.ok
    return EXIT_OK if all_ok else EXIT_SUITE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aolab",
        description="Analyze, generate and verify algebraic matrices against the unitarity criteria.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a matrix JSON file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--out", default=None)
    pa.add_argument("--csv", default=None)
    _add_config_flags(pa)
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="emit an instance as matrix JSON")
    pg.add_argument("--kind", required=True)
    pg.add_argument("--dim", type=int, required=True)
    pg.add_argument("--eigenvalues", default=None)
    pg.add_argument("--indices", default=None)
    pg.add_argument("--theta", type=float, default=SQRT2)
    pg.add_argument("--cond-cap", dest="cond_cap", type=float, default=50.0)
    pg.add_argument("--scale", type=float, default=1.0)
    pg.add_argument("--seed", type=int, default=default_seed())
    pg.set_defaults(func=cmd_generate)

    pv = sub.add_parser("verify", help="run property suites")
    pv.add_argument(
        "--suite", choices=["theorem", "growth", "stability", "scalar", "all"], required=True
    )
    pv.add_argument("--trials", type=int, default=100)
    _add_config_flags(pv)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
