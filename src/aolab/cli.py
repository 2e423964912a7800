"""Command-line front end.

Subcommands:
  analyze   read a matrix JSON file, emit a full criteria/growth/stability report
  generate  emit a deterministic instance as matrix JSON
  verify    run the seeded property suites

Exit codes: 0 ok, 1 input or usage error, 2 internal inconsistency, 3 suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import jsonout
from .config import RunConfig
from .criteria import Analysis, theorem_check
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
# Unused here, but bench/selftest.py checks that the tracer patches this
# binding.
from .structure import minimal_polynomial  # noqa: F401
from .suites import run_suites

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_SUITE = 3


def _parse_complex_list(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:  # a trailing i is the imaginary unit; "inf" keeps its i
            out.append(complex(tok[:-1] + "j" if tok.endswith("i") else tok))
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse eigenvalue {tok!r}") from exc
    if not out:
        raise InvalidInputError("empty eigenvalue list")
    return out


def _parse_indices(text: str):
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok))
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse index {tok!r}") from exc
    return out


def _required_eigenvalues(args):
    if not args.eigenvalues:
        raise InvalidInputError(f"--eigenvalues required for kind {args.kind!r}")
    return _parse_complex_list(args.eigenvalues)


def cmd_analyze(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, RecursionError) as exc:  # ValueError holds JSONDecodeError and UnicodeDecodeError
        print(f"error: malformed JSON in {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        an = Analysis(matrix_from_obj(obj), RunConfig(n_max=args.nmax, seed=args.seed))
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    del obj  # the parsed lists are much larger than A; only A is read on
    try:
        report, gb = _report(an)
    except AolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    text = jsonout.dumps(report)
    if args.out:
        if not _write_file(args.out, text):
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    if args.csv:
        lines = ["n,power_norm,bound\n"]
        if gb is not None:
            lines += [f"{n},{nrm:.17g},{bound:.17g}\n" for n, nrm, bound in growth_csv_rows(an, gb)]
        if not _write_file(args.csv, "".join(lines), newline=""):
            return EXIT_INPUT
    return EXIT_INCONSISTENT if "inconsistency" in report else EXIT_OK


def _report(an: Analysis):
    """(report, growth bound or None): the stages of ``analyze`` on one
    analysis, in order, each adding its section to the report.  An
    InconsistencyError ends them, its message under ``inconsistency``, and
    so does a broken implication (``broken_implication``) after the last;
    any other AolabError propagates."""
    report = {"input": {"dim": int(an.A.shape[0])}}
    try:
        report["minimal_polynomial"] = an.minpoly.to_obj()
        report["decomposition"] = an.decomposition.to_obj()
        # The criteria and stability sections read one probe-orbit batch,
        # propagated once and kept on the analysis.
        report["criteria"] = theorem_check(an).to_obj()
        try:
            gb = growth_bound(an)
            report["growth_bound"] = gb.to_obj()
        except OutOfScopeError as exc:
            gb, report["growth_bound"] = None, {"skipped": str(exc)}
        report["stability"] = uniform_stability(an).to_obj()
    except InconsistencyError as exc:
        report["inconsistency"] = str(exc)
        return report, None
    if broken := broken_implication(report):
        report["inconsistency"] = broken
    return report, gb


def broken_implication(report: dict) -> str | None:
    """The first implication between the verdicts of an analyze report's
    ``criteria`` and ``stability`` sections that they break, named by its
    fields; None if they hold every one.

    r < 1 puts every root inside the circle and sends every orbit to 0.  A
    unitary is a contraction, normaloid and power-bounded, with convergent
    orbit norms and its roots on the circle.  A contraction is
    power-bounded, and so is a matrix whose orbit norms all converge
    (uniform boundedness).  The two sections decide power-boundedness
    alike.  With the spectrum on the circle, the four conditions of the
    theorem agree (the report's ``consistent``).
    """
    verdict = {f"{section}.{field}": value
               for section in ("criteria", "stability") for field, value in report[section].items()}
    rules = [
        (("stability.uniformly_stable",), "criteria.spectrum_in_circle", False),
        (("stability.uniformly_stable",), "stability.power_bounded", True),
        (("stability.uniformly_stable",), "criteria.orbits_convergent", True),
        *((("criteria.unitary",), f"criteria.{field}", True)
          for field in ("contraction", "normaloid", "power_bounded", "orbits_convergent", "spectrum_in_circle")),
        (("criteria.contraction",), "criteria.power_bounded", True),
        (("criteria.orbits_convergent",), "criteria.power_bounded", True),
        (("criteria.power_bounded",), "stability.power_bounded", True),
        (("stability.power_bounded",), "criteria.power_bounded", True),
        *((("criteria.spectrum_in_circle", f"criteria.{field}"), "criteria.unitary", True)
          for field in ("normaloid", "contraction", "orbits_convergent")),
    ]
    for premises, conclusion, value in rules:
        if all(verdict[p] for p in premises) and verdict[conclusion] != value:
            return f"{' and '.join(premises)} implies {'' if value else 'not '}{conclusion}"
    return None


def _write_file(path: str, text: str, newline: str | None = None) -> bool:
    """Write text to path; on failure print the error and return False."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


# A non-finite parameter fails at the matrix check, without numpy's warnings
# (inf * 0) in the generator on the way.
@np.errstate(all="ignore")
def cmd_generate(args) -> int:
    try:
        kind = args.kind
        if kind == "unitary":
            A = gen_unitary_finite_spectrum(args.dim, _required_eigenvalues(args), args.seed)
        elif kind == "oblique":
            A = gen_oblique(args.dim, _required_eigenvalues(args), args.cond_cap, args.seed)
        elif kind == "jordan":
            alpha = (
                _parse_complex_list(args.eigenvalues)[0] if args.eigenvalues else 1.0
            )
            A = gen_jordan_perturbation(args.dim, alpha, args.scale, args.seed)
        elif kind == "rotation":
            A = gen_scalar_rotation(args.dim, args.theta)
        elif kind == "normaloid":
            A = gen_normaloid_nonnormal(args.dim, args.seed, args.scale)
        elif kind == "planted":
            vals = _required_eigenvalues(args)
            idx = _parse_indices(args.indices) if args.indices else [1] * len(vals)
            if len(idx) != len(vals):
                raise InvalidInputError("--indices must match --eigenvalues in length")
            A = gen_planted_jordan(args.dim, list(zip(vals, idx)), args.cond_cap, args.seed)
        else:
            print(f"error: unknown kind {kind!r}", file=sys.stderr)
            return EXIT_INPUT
        sys.stdout.write(jsonout.dumps(matrix_to_obj(A)))  # non-finite parameters fail here
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cfg = RunConfig(seed=args.seed, trials=args.trials)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, EXIT_INCONSISTENT; the subparsers are _Parsers too
        self.exit(EXIT_INPUT, f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache  # one parser serves every main call of a process
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="aolab",
        description="Analyze, generate and verify algebraic matrices against the unitarity criteria.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a matrix JSON file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--out", default=None)
    pa.add_argument("--csv", default=None)
    pa.add_argument("--nmax", type=int, default=RunConfig.n_max)

    pg = sub.add_parser("generate", help="emit an instance as matrix JSON")
    pg.add_argument("--kind", required=True)
    pg.add_argument("--dim", type=int, required=True)
    pg.add_argument("--eigenvalues", default=None)
    pg.add_argument("--indices", default=None)
    pg.add_argument("--theta", type=float, default=SQRT2)
    pg.add_argument("--cond-cap", dest="cond_cap", type=float, default=50.0)
    pg.add_argument("--scale", type=float, default=1.0)

    pv = sub.add_parser("verify", help="run property suites")
    pv.add_argument(
        "--suite", choices=["theorem", "growth", "stability", "scalar", "all"], required=True
    )
    pv.add_argument("--trials", type=int, default=RunConfig.trials)
    for q in (pa, pg, pv):
        q.add_argument("--seed", type=int, default=RunConfig.seed)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a signed eigenvalue list (-1,1) for an option unless
    # it is joined to its flag.
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] == "--eigenvalues" and argv[k].startswith("-") and not argv[k].startswith("--"):
            argv[k - 1 : k + 1] = [f"--eigenvalues={argv[k]}"]
    args = build_parser().parse_args(argv)
    # Looked up at call time, so that a wrapper on cmd_<command> sees it.
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
