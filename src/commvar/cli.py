"""Command-line front end.

Subcommands: poincare, char, series, count, verify.  Output is
deterministic and diff-friendly: polynomials print in ascending degree
with explicit signs, series tables print one t-power per line, and the
verify subcommand exits nonzero on any failed check.
"""

from __future__ import annotations

import argparse
import sys

from .arith import Poly, RatFunc
from .charmodel import (
    DescriptorError,
    enhanced_character,
    flag_character,
    graded_trace_product,
    poincare,
)
from .oracle import DEFAULT_BUDGET, BudgetExceededError, count_points
from .partitions import Partition
from .series import (
    betti_zeta,
    coh_series,
    groupoid_series,
    stable_betti_verified,
    weil_zeta_from_eigendata,
)
from .varieties import BUILTIN_NAMES, family_for, is_curve_name, resolve_variety
from .verify import SUITES, run_suite


def _parse_avoid(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _add_variety_args(sub, required: bool = True):
    sub.add_argument(
        "--variety",
        required=required,
        help=f"builtin name {BUILTIN_NAMES} or path to a JSON descriptor file",
    )
    sub.add_argument("--dim", type=int, default=1, help="dimension for affine/torus builtins")
    sub.add_argument(
        "--avoid",
        type=_parse_avoid,
        default=(0, 1),
        help="comma-separated values avoided by the punctured builtin (default 0,1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commvar",
        description="Exact invariants of commuting-matrix moduli spaces from graded Betti/Frobenius data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poincare", help="signed Poincare polynomial of a moduli space")
    p.add_argument("--space", choices=("cn", "sn", "coh", "flag", "bgln"), default="cn")
    _add_variety_args(p, required=False)
    p.add_argument("-n", type=int, required=True, help="rank (matrix size)")
    p.add_argument(
        "--absolute",
        action="store_true",
        help="display-only: print absolute values of the coefficients",
    )

    c = subs.add_parser("char", help="graded character in Schur and power-sum expansions")
    c.add_argument("--flag", type=int, help="rank of the complete flag variety")
    _add_variety_args(c, required=False)
    c.add_argument("-n", type=int, help="tensor power for a variety character")
    c.add_argument("-q", type=int, help="resolve q^k eigenvalue tokens at this prime power")
    c.add_argument(
        "--cycle-type",
        help="also print the graded trace at this cycle type, e.g. '(2,1)' or '1^1 2^1'",
    )

    s = subs.add_parser("series", help="zeta-type generating series and product formulas")
    s.add_argument(
        "kind",
        choices=("betti", "coh", "groupoid", "zeta", "stable"),
        help="which series or report to compute",
    )
    _add_variety_args(s)
    s.add_argument("--t-order", type=int, default=5)
    s.add_argument("--u-order", type=int, default=None)
    s.add_argument("-q", type=int, help="prime power for groupoid/zeta")

    k = subs.add_parser("count", help="brute-force point count over a prime field")
    k.add_argument("--family", choices=("affine", "torus", "punctured"), required=True)
    k.add_argument("--dim", type=int, default=1)
    k.add_argument("--n", "-n", type=int, required=True, dest="n")
    k.add_argument("--q", "-q", type=int, required=True, dest="q")
    k.add_argument("--avoid", type=_parse_avoid, default=(0, 1))
    k.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"candidate limit (default {DEFAULT_BUDGET}, env COMMVAR_BUDGET)",
    )

    v = subs.add_parser("verify", help="run the exact cross-check suites")
    v.add_argument("--suite", default="all", help=f"one of 'all' or {sorted(SUITES)}")
    v.add_argument("-q", type=int, help="restrict point-count checks to this field size")

    return parser


def _render_value(value: RatFunc, absolute: bool) -> str:
    if not absolute:
        return value.render()
    poly = value.as_poly()
    print(
        "warning: --absolute drops the signs of the graded convention",
        file=sys.stderr,
    )
    return Poly([abs(c) for c in poly.coeffs]).render()


def _cmd_poincare(args) -> int:
    space = None
    if args.space in ("cn", "sn", "coh"):
        if not args.variety:
            raise ValueError("poincare: --variety is required for cn/sn/coh")
        space = resolve_variety(args.variety, dim=args.dim, avoided=args.avoid)
    value = poincare(space, args.n, args.space)
    print(_render_value(value, args.absolute))
    return 0


def _cmd_char(args) -> int:
    if args.flag is not None:
        ch = flag_character(args.flag)
    else:
        if not args.variety or args.n is None:
            raise ValueError("char: need either --flag N or --variety ... -n N")
        space = resolve_variety(args.variety, dim=args.dim, avoided=args.avoid)
        if args.q is not None:
            space = space.resolve(args.q)
        elif space.has_symbolic_eigenvalues():
            space = space.with_unit_eigenvalues()
        if args.cycle_type:
            try:
                lam = Partition.parse(args.cycle_type)
            except ValueError:
                raise ValueError(
                    f"--cycle-type must be a partition such as '(2,1)' or "
                    f"'1^1 2^1', got {args.cycle_type!r}"
                ) from None
            if lam.n != args.n:
                raise ValueError(
                    f"--cycle-type {lam} is not a partition of {args.n}"
                )
            print(f"trace {lam}: {graded_trace_product(space, lam).render()}")
        ch = enhanced_character(space, args.n)
    print(f"schur: {ch.render_schur()}")
    print(f"p: {ch.render()}")
    return 0


def _print_report(report) -> int:
    rows = list(report.rows())
    lhs_w = max(len(r[1]) for r in rows)
    for n, lhs, rhs in rows:
        print(f"t^{n}: {lhs.ljust(lhs_w)} | {rhs}")
    print(f"verdict: {report.verdict()}")
    return 0 if report.equal else 1


def _cmd_series(args) -> int:
    space = resolve_variety(args.variety, dim=args.dim, avoided=args.avoid)
    if args.kind == "betti":
        series = betti_zeta(space, args.t_order)
        print(series.render())
        return 0
    if args.kind == "coh":
        u_order = 20 if args.u_order is None else args.u_order
        return _print_report(coh_series(space, args.t_order, u_order))
    if args.kind == "stable":
        u_order = 10 if args.u_order is None else args.u_order
        report = stable_betti_verified(space, u_order)
        print(f"stable: {report.stable.render()}")
        print(f"rank {report.n}: {report.at_n.render()}")
        print(f"rank {report.n + 1}: {report.at_next.render()}")
        print(f"verdict: {'equal' if report.ok else 'mismatch'}")
        return 0 if report.ok else 1
    if args.q is None:
        raise ValueError(f"series {args.kind}: -q is required")
    if args.kind == "zeta":
        print(weil_zeta_from_eigendata(space, args.q).render("t"))
        return 0
    if args.variety in BUILTIN_NAMES and not is_curve_name(args.variety, args.dim):
        print(
            "warning: input is not a smooth curve; coefficients are formula "
            "values, not certified point counts",
            file=sys.stderr,
        )
    elif args.variety not in BUILTIN_NAMES:
        print(
            "warning: descriptor input; the point-count reading assumes "
            "smooth-curve data",
            file=sys.stderr,
        )
    return _print_report(groupoid_series(space, args.q, args.t_order))


def _cmd_count(args) -> int:
    if args.budget is not None and args.budget < 1:
        raise ValueError(f"--budget must be a positive integer, got {args.budget}")
    family = family_for(args.family, dim=args.dim, avoided=args.avoid)
    print(count_points(family, args.n, args.q, budget=args.budget))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, q=args.q)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "poincare": _cmd_poincare,
        "char": _cmd_char,
        "series": _cmd_series,
        "count": _cmd_count,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DescriptorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
