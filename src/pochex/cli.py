"""Command-line front-end.

Subcommands: poch, recip, quotient, pf, expand, tables, verify.  All numeric
output uses the exact `p/q` rational format.  Exit status: 0 on success, 1 on
parse/domain errors (including bad flags), 2 on verification failure.  Errors
go to stderr only.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .errors import ParseError, PochexError
from .pochhammer import (
    LinearParam,
    PochMethod,
    RecipMethod,
    poch_deriv,
    recip_poch_deriv,
    recip_poch_laurent,
)
from .series import parse_rational

# `hyper_expand`, `partial_fractions`, `specfile` and `verify` are imported by
# the commands that use them, so that `poch` and `recip` start without them.


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on exit status 1 instead of 2.

    A token such as `-1/2` is read as a negative rational value, not as a
    flag, so `--num -1/2 1` works; argparse's own matcher accepts only
    negative integers and decimals before Python 3.13.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _k_range(text: str):
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a range like 0..3, got {text!r}"
        ) from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad order range {text!r}")
    return lo, hi


def _build_parser() -> _Parser:
    parser = _Parser(prog="pochex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "poch", help="k-th derivative coefficient of a rising factorial"
    )
    p.add_argument("--alpha", type=_rational, required=True, help="argument (p/q)")
    p.add_argument("-m", type=int, required=True, help="length of the rising factorial")
    p.add_argument("-k", type=int, required=True, help="derivative order")
    p.add_argument(
        "--method",
        default="stirling_sum",
        choices=[m.value for m in PochMethod],
    )
    p.set_defaults(run=_cmd_poch)

    r = sub.add_parser(
        "recip",
        help="k-th derivative coefficient of a reciprocal rising factorial, "
        "or its Laurent expansion at a nonpositive integer argument",
    )
    r.add_argument("--beta", type=_rational, help="argument (p/q)")
    r.add_argument("-m", type=int, required=True, help="length of the rising factorial")
    r.add_argument("-k", type=int, help="derivative order")
    # No default here, so that --laurent can refuse an explicit --method.
    r.add_argument("--method", choices=[m.value for m in RecipMethod])
    r.add_argument(
        "--laurent",
        action="store_true",
        help="expand 1/(-n + b*eps)_m as a Laurent series in eps",
    )
    r.add_argument("-n", type=int, help="the argument is -n (laurent mode)")
    r.add_argument("-b", type=_rational, help="slope of the argument (laurent mode)")
    r.add_argument("--order", type=int, help="truncation order (laurent mode)")
    r.set_defaults(run=_cmd_recip)

    q = sub.add_parser(
        "quotient",
        help="k-th eps-derivative coefficient of a quotient of rising factorials",
    )
    q.add_argument(
        "--num",
        nargs=2,
        type=_rational,
        required=True,
        metavar=("A", "a"),
        help="numerator argument A + a*eps",
    )
    q.add_argument("-m", type=int, required=True, help="numerator length")
    q.add_argument(
        "--den",
        nargs=2,
        type=_rational,
        required=True,
        metavar=("B", "b"),
        help="denominator argument B + b*eps",
    )
    q.add_argument("-n", type=int, required=True, help="denominator length")
    q.add_argument("-k", type=int, required=True, help="derivative order")
    q.add_argument("--at", type=_rational, default=Fraction(0), help="evaluation point")
    q.set_defaults(run=_cmd_quotient)

    f = sub.add_parser(
        "pf", help="partial-fraction decomposition of a rising-factorial quotient"
    )
    f.add_argument("--spec", required=True, help="quotient description file")
    f.set_defaults(run=_cmd_pf)

    e = sub.add_parser("expand", help="exact eps-expansion coefficient table")
    src = e.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="series description file")
    src.add_argument("--closed", help="built-in example, closed form")
    e.add_argument("--eps-order", type=int, help="highest eps power (default 3)")
    e.add_argument("--degree-bound", type=int, help="highest m1+m2 (default 5)")
    e.add_argument("--regroup", choices=("lattice", "total"), help="table keying")
    e.add_argument("--format", default="csv", choices=("csv", "aligned"))
    e.add_argument("--delta", type=_rational, help="extra parameter for F6/F6_alt/F7")
    e.set_defaults(run=_cmd_expand)

    t = sub.add_parser(
        "tables", help="coefficient tables of the built-in F5 expansion"
    )
    t.add_argument(
        "--k",
        type=_k_range,
        default=(0, 3),
        help="eps order or range a..b (default 0..3)",
    )
    t.add_argument("--max-m", type=int, default=5, help="highest total degree")
    t.set_defaults(run=_cmd_tables)

    v = sub.add_parser("verify", help="check registered identities exactly")
    v.add_argument(
        "--id",
        action="append",
        dest="ids",
        metavar="ID",
        help="relation id (repeatable)",
    )
    v.add_argument("--all", action="store_true", help="check every relation")
    v.set_defaults(run=_cmd_verify)
    # Each command reports its usage errors through its own parser, as argparse does.
    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def _cmd_poch(args, parser) -> int:
    print(poch_deriv(args.alpha, args.m, args.k, PochMethod(args.method)))
    return 0


def _cmd_recip(args, parser) -> int:
    if args.laurent:
        if args.n is None or args.b is None or args.order is None:
            parser.error("--laurent needs -n, -b, -m and --order")
        if args.beta is not None or args.k is not None or args.method is not None:
            parser.error("--laurent does not take --beta, -k or --method")
        series = recip_poch_laurent(args.n, args.b, args.m, args.order)
        for e in range(series.min_exponent, series.max_exponent + 1):
            print(f"{e},{series.coefficient(e)}")
        return 0
    if args.n is not None or args.b is not None or args.order is not None:
        parser.error("-n, -b and --order need --laurent")
    if args.beta is None or args.k is None:
        parser.error("recip needs --beta and -k (or --laurent)")
    method = RecipMethod(args.method or RecipMethod.CLOSED_SUM)
    print(recip_poch_deriv(args.beta, args.m, args.k, method))
    return 0


def _cmd_quotient(args, parser) -> int:
    from .partial_fractions import quotient_deriv

    value = quotient_deriv(
        LinearParam(*args.num), args.m, LinearParam(*args.den), args.n, args.k, args.at
    )
    print(value)
    return 0


def _read_spec(path: str) -> str:
    """The text of a spec file; bytes that are not UTF-8 raise ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _cmd_pf(args, parser) -> int:
    from .partial_fractions import PochProductQuotient, decompose_multi
    from .specfile import parse_quotient_text

    numer, denom = parse_quotient_text(_read_spec(args.spec))
    print(str(decompose_multi(PochProductQuotient(numer, denom))))
    return 0


def _cmd_expand(args, parser) -> int:
    from .hyper_expand import emit_table, expand_closed, expand_general, regroup_total_degree

    eps_order, degree_bound, regroup = args.eps_order, args.degree_bound, args.regroup
    if args.spec is not None:
        if args.delta is not None:
            raise PochexError("--delta is for --closed; a spec carries delta in its own constants")
        from .specfile import parse_spec_text

        spec, options = parse_spec_text(_read_spec(args.spec))
        if eps_order is None:
            eps_order = options.eps_order
        if degree_bound is None:
            degree_bound = options.degree_bound
        if regroup is None:
            regroup = options.regroup
    eps_order = 3 if eps_order is None else eps_order
    degree_bound = 5 if degree_bound is None else degree_bound
    if args.spec is not None:
        table = expand_general(spec, eps_order, degree_bound)
    else:
        extra = {} if args.delta is None else {"delta": args.delta}
        table = expand_closed(args.closed, eps_order, degree_bound, extra)
    if regroup == "total":
        table = regroup_total_degree(table)
    print(emit_table(table, args.format))
    return 0


def _cmd_tables(args, parser) -> int:
    from .hyper_expand import ExpansionTable, emit_table, expand_closed, regroup_total_degree

    k_lo, k_hi = args.k
    if args.max_m < 0:
        raise PochexError("--max-m must be >= 0")
    table = expand_closed("F5", k_hi, args.max_m)
    kept = {key: v for key, v in table.entries.items() if key[0] >= k_lo}
    filtered = ExpansionTable(kept, k_hi, args.max_m, "lattice")
    print(emit_table(regroup_total_degree(filtered), "csv"))
    return 0


def _cmd_verify(args, parser) -> int:
    from .verify import verify_all, verify_ids

    if args.ids and args.all:
        parser.error("--id and --all are mutually exclusive")
    summaries = verify_ids(args.ids) if args.ids else verify_all()
    failed = False
    for summary in summaries:
        unit = "points" if summary.points != 1 else "point"
        if summary.passed:
            print(f"{summary.identity}: PASS ({summary.points} {unit})")
            continue
        failed = True
        print(
            f"{summary.identity}: FAIL "
            f"({len(summary.failures)}/{summary.points} {unit})"
        )
        for failure in summary.failures:
            shown = {key: str(value) for key, value in failure.params.items()}
            if hasattr(failure, "lhs"):
                print(f"  params {shown}: lhs {failure.lhs} rhs {failure.rhs}")
            else:
                print(
                    f"  params {shown}: first discrepancy at exponent "
                    f"{failure.first_discrepancy} (order {failure.order})"
                )
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # An exact result may have more digits than Python's int<->str limit lets
    # `print` write: lift the limit while the command runs, and give the
    # caller's limit back after.  Arguments were parsed under the caller's
    # limit, and `parse_rational` keeps its own bound.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.run(args, args.parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (PochexError, OSError) as exc:
        print(f"pochex: error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
