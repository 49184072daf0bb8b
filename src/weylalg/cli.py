"""Command-line front end.

Data goes to stdout (or --out as a record file); human summaries go to
stderr, so piping stdout always yields clean machine-readable output.

`apply` assumes its record is an automorphism and does not check this
(`factor` does); on other images its output is not meaningful.

Exit codes:

    0   success
    1   internal error
    2   expression or JSON syntax error
    3   bad record shape, schema, context parameters or negative counts,
        or a result coefficient past Python's 4,300-digit printing limit
    10  generator image outside the positive-grade ideal
    11  linear part not invertible
    12  linear part (or supplied matrix) not symplectic
    13  hbar scale factor is not 1
    14  a grade of the inner generator fails the integrability
        (closedness) check; the message names the grade and variable
    15  recomposed factorization does not match the input

The default truncation order is 8, overridable by the WEYL_MAX_GRADE
environment variable and per-invocation by --max-grade.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from functools import partial

from .elements import Context
from .errors import ContextError, WeylError
from .exprio import (
    automorphism_record,
    dumps_record,
    element_record,
    factorization_record,
    format_element,
    load_record,
    automorphism_from_record,
    parse_element,
    save_record,
)
from .factorization import FactorizationResult, factor, verify_factorization
from .sampling import random_instance
from .star import moyal, poisson, scaled_bracket

DEFAULT_MAX_GRADE = 8
ENV_MAX_GRADE = "WEYL_MAX_GRADE"


def _default_max_grade():
    raw = os.environ.get(ENV_MAX_GRADE)
    if raw is None:
        return DEFAULT_MAX_GRADE
    try:
        return int(raw)
    except ValueError:
        raise ContextError(
            f"{ENV_MAX_GRADE} must be an integer, got {raw!r}") from None


def _build_parser(max_grade_default):
    top = argparse.ArgumentParser(
        prog="weyl",
        description="Exact star products, brackets and automorphism "
                    "factorization for the truncated semi-classical Weyl algebra.")
    sub = top.add_subparsers(dest="command", required=True)

    ctx_flags = argparse.ArgumentParser(add_help=False)
    ctx_flags.add_argument("--dim", type=int, default=1,
                           help="number of (x, p) pairs (default 1)")
    ctx_flags.add_argument("--max-grade", type=int, default=max_grade_default,
                           help=f"truncation order (default {max_grade_default})")

    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", metavar="PATH",
                          help="also write the result as a record file")

    for name, op, helptext in (
            ("star", moyal, "star product of two expressions"),
            ("poisson", poisson, "Poisson bracket of two expressions"),
            ("bracket", scaled_bracket, "scaled commutator (i/hbar)[a, b]")):
        p = sub.add_parser(name, parents=[ctx_flags, out_flag], help=helptext)
        p.add_argument("lhs")
        p.add_argument("rhs")
        p.set_defaults(func=partial(_cmd_binary, op=op))

    p = sub.add_parser("apply", parents=[out_flag],
                       help="apply an automorphism record to an expression")
    p.add_argument("automorphism", metavar="RECORD")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("factor", parents=[out_flag],
                       help="factor an automorphism record into linear x inner parts")
    p.add_argument("automorphism", metavar="RECORD")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("random-instance", parents=[ctx_flags],
                       help="generate a random factorization problem with its answer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=8,
                   help="random symplectic factors (default 8)")
    p.add_argument("--terms", type=int, default=6,
                   help="max terms in the inner generator (default 6)")
    p.add_argument("--complex", action="store_true",
                   help="allow Gaussian-rational coefficients")
    p.add_argument("--out", metavar="PATH", required=True,
                   help="automorphism record path; the answer goes to PATH.answer.json")
    p.set_defaults(func=_cmd_random_instance)

    p = sub.add_parser("selftest", parents=[ctx_flags],
                       help="factor random known-answer instances and report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=5)
    p.set_defaults(func=_cmd_selftest)

    return top


def _emit(args, record, text):
    """Text to stdout; optionally the record to --out with a stderr note.

    The record is saved first, so a path that cannot be written fails
    before anything reaches stdout.
    """
    if getattr(args, "out", None):
        save_record(record, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    sys.stdout.write(text + "\n")


def _cmd_binary(args, op):
    ctx = Context(args.dim, args.max_grade)
    a = parse_element(args.lhs, ctx)
    b = parse_element(args.rhs, ctx)
    r = op(a, b)
    _emit(args, element_record(r), format_element(r))
    return 0


def _cmd_apply(args):
    phi = automorphism_from_record(load_record(args.automorphism))
    a = parse_element(args.expr, phi.ctx)
    r = phi.apply(a)
    _emit(args, element_record(r), format_element(r))
    return 0


def _cmd_factor(args):
    phi = automorphism_from_record(load_record(args.automorphism))
    res = factor(phi)
    rec = factorization_record(res)
    if args.out:
        save_record(rec, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(dumps_record(rec))
    terms = len(res.generator)
    # factor raises ResidualMismatchError rather than return a failed report
    print(f"factored: symplectic linear part, generator with {terms} term(s), "
          "residual check passed", file=sys.stderr)
    return 0


def _require_counts(args, *flags):
    for flag in flags:
        value = getattr(args, flag)
        if value < 0:
            raise ContextError(f"--{flag} must not be negative, got {value}")


def _cmd_random_instance(args):
    _require_counts(args, "steps", "terms")
    ctx = Context(args.dim, args.max_grade)
    rng = random.Random(args.seed)
    phi, m, s = random_instance(rng, ctx, steps=args.steps,
                                generator_terms=args.terms,
                                complex_scalars=args.complex)
    save_record(automorphism_record(phi), args.out)
    answer = FactorizationResult(
        matrix=m, generator=s, report=verify_factorization(phi, m, s))
    answer_path = args.out + ".answer.json"
    save_record(factorization_record(answer), answer_path)
    print(f"wrote {args.out} (dim {ctx.dim}, max grade {ctx.trunc}, "
          f"seed {args.seed})", file=sys.stderr)
    print(f"wrote {answer_path}", file=sys.stderr)
    return 0


def _cmd_selftest(args):
    _require_counts(args, "cases")
    ctx = Context(args.dim, args.max_grade)
    rng = random.Random(args.seed)
    ok = 0
    for case in range(args.cases):
        phi, m, s = random_instance(rng, ctx)
        res = factor(phi)
        good = res.matrix == m and res.generator == s and res.report.passed
        if good:
            ok += 1
        else:
            print(f"case {case}: MISMATCH", file=sys.stderr)
    print(f"{ok}/{args.cases} round-trips exact")
    return 0 if ok == args.cases else 1


def _run(argv):
    max_grade_default = _default_max_grade()
    args = _build_parser(max_grade_default).parse_args(argv)
    return args.func(args)


def main(argv=None):
    try:
        return _run(argv)
    except WeylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
