"""Command-line front end.

Subcommands: poincare, char, series, count, verify.  Output is
deterministic and diff-friendly: polynomials print in ascending degree
with explicit signs, series tables print one t-power per line, and the
verify subcommand exits nonzero on any failed check.  Exit status: 0
success, 1 a failed check, 2 bad input, 3 an exceeded budget, and 141,
the shell's status for SIGPIPE, when the reader of stdout closed it
before the output was written.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .arith import Poly, RatFunc, is_prime, prime_power_root
from .charmodel import (
    SPACES,
    character_digits,
    enhanced_character,
    flag_character,
    flag_schur_coefficient,
    graded_trace_product,
    poincare,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    count_points,
    family_for,
)
from .partitions import Partition, partitions_of
from .series import (
    betti_zeta,
    coh_series,
    groupoid_digits,
    groupoid_series,
    stable_betti_verified,
    weil_zeta_digits,
    weil_zeta_from_eigendata,
)
from .symfunc import render_basis
from .varieties import BUILTIN_NAMES, is_curve_name, resolve_variety
from .verify import POINT_COUNT_FIELDS, SUITES, run_suite


def _int(text: str) -> int:
    """A decimal int with an optional '-'; unlike int(), no '_', '+' or blanks."""
    if not text.removeprefix("-").isdecimal():
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_avoid(text: str) -> tuple[int, ...]:
    """Comma-separated decimal ints, each with an optional '-' (used modulo p)."""
    if not text.strip():
        return ()
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tok.removeprefix("-").isdecimal() for tok in tokens):
        import argparse

        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return tuple(int(tok) for tok in tokens)


def _check_q(args, q: int) -> None:
    """Reject a q that is not a prime power, naming -q, and --avoid
    values that collide modulo its prime p."""
    base = prime_power_root(q)
    if base is None:
        raise ValueError(f"-q must be a prime power, got {q}")
    _check_avoid(args, base[0])


def _check_avoid(args, p: int | None = None) -> None:
    """Reject repeated --avoid values or, given a prime p, values that
    collide modulo p, naming the option."""
    if args.avoid is None:
        return
    given = ",".join(map(str, args.avoid))
    if len(set(args.avoid)) < len(args.avoid):
        raise ValueError(f"--avoid values must be distinct, got {given}")
    if p is not None and len({a % p for a in args.avoid}) < len(args.avoid):
        raise ValueError(f"--avoid values {given} collide modulo {p}")


def _dim(args) -> int:
    return 1 if args.dim is None else args.dim


def _avoided(args) -> tuple[int, ...]:
    return (0, 1) if args.avoid is None else args.avoid


def _reject(args, options, where: str) -> None:
    """Raise for the first of ``options`` that was given: it does not apply ``where``."""
    for option in options:
        if getattr(args, option.lstrip("-").replace("-", "_")) is not None:
            raise ValueError(f"{option} does not apply {where}")


def _at_least(option: str, value, low: int) -> None:
    """Reject a given ``value`` of ``option`` below ``low``, naming the option."""
    if value is not None and value < low:
        raise ValueError(f"{option} must be >= {low}, got {value}")


def _check_variety_options(args, option: str = "--variety") -> None:
    """Reject --dim unless the variety (or ``count``'s family) named by
    ``option`` is affine/torus, and --avoid unless it is punctured; a
    descriptor file takes neither.  Then reject a --dim below 1 and
    repeated --avoid values."""
    name = getattr(args, option.lstrip("-"))
    where = f"without {option}" if name is None else f"to {option} {name}"
    owners = (("--dim", ("affine", "torus")), ("--avoid", ("punctured",)))
    _reject(args, [o for o, names in owners if name not in names], where)
    _at_least("--dim", args.dim, 1)
    _check_avoid(args)


def _resolve_space(args):
    return resolve_variety(args.variety, dim=_dim(args), avoided=_avoided(args))


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser, which ``main`` uses only where ``_fast_parse``
    declines: help, usage and error text come only from it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="commvar",
        description="Exact invariants of commuting-matrix moduli spaces from graded Betti/Frobenius data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for names, keywords in arguments:
            sub.add_argument(*names, **keywords)
    return parser


def _fast_parse(argv):
    """``argv`` parsed as argparse parses it, without argparse, or None.

    The command's entries in ``COMMANDS`` are read as argparse reads
    them: the destination is the ``dest`` keyword or the first long
    option string, an entry with ``action="store_true"`` is a flag, and
    any other takes one value through its ``type`` (``str`` if none),
    its ``choices``, ``default`` and ``required``.  Only a command
    followed by exact option strings, each with one value that does not
    start with ``-``, flags and the one positional is accepted, each
    destination at most once, with values that pass ``type`` and
    ``choices`` and every required destination given.  Anything else
    (help, ``--``, abbreviations, ``--opt=value``, ``-n3``, repeats,
    values starting with ``-``, bad values, missing options) returns
    None: help, usage and error text come only from argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    values, by_flag, positional, required = {}, {}, None, set()
    for names, keywords in COMMANDS[argv[0]][1]:
        flag = keywords.get("action") == "store_true"
        long = [n for n in names if n.startswith("--")]
        dest = keywords.get("dest") or (long or names)[0].lstrip("-").replace("-", "_")
        argument = (dest, None if flag else keywords.get("type", str), keywords.get("choices"))
        if names[0].startswith("-"):
            by_flag.update(dict.fromkeys(names, argument))
        else:
            positional = argument
            required.add(dest)
        if keywords.get("required"):
            required.add(dest)
        values[dest] = False if flag else keywords.get("default")
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            if token not in by_flag:
                return None
            dest, convert, choices = by_flag[token]
            value = True if convert is None else next(tokens, "-")
        elif positional is not None:
            (dest, convert, choices), positional = positional, None
            value = token
        else:
            return None
        if dest in seen:
            return None
        seen.add(dest)
        if convert is not None:
            if value.startswith("-"):
                return None
            try:
                value = convert(value)
            except Exception:  # argparse converts it again, then reports or re-raises
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
    if not required <= seen:
        return None
    return SimpleNamespace(command=argv[0], **values)


def _render_value(value: RatFunc, absolute: bool) -> str:
    if not absolute:
        return value.render()
    try:
        poly = value.as_poly()
    except ValueError as exc:
        raise ValueError(f"--absolute: {exc}") from None
    print(
        "warning: --absolute drops the signs of the graded convention",
        file=sys.stderr,
    )
    return Poly.from_ints([abs(c) for c in poly.num], poly.den).render()


def _cmd_poincare(args) -> int:
    if args.space in ("flag", "bgln"):
        _reject(args, ("--variety",), f"to --space {args.space}")
    _check_variety_options(args)
    _at_least("-n", args.n, 1 if args.space in ("flag", "bgln") else 0)
    space = None
    if args.space in ("cn", "sn", "coh"):
        if not args.variety:
            raise ValueError("poincare: --variety is required for cn/sn/coh")
        space = _resolve_space(args)
    value = poincare(space, args.n, args.space)
    print(_render_value(value, args.absolute))
    return 0


def _cmd_char(args) -> int:
    if args.flag is not None:
        options = ("--variety", "-n", "-q", "--cycle-type", "--dim", "--avoid")
        _reject(args, options, "to char --flag")
        _at_least("--flag", args.flag, 1)
        n = args.flag
        ch = flag_character(n)
        schur = {lam: flag_schur_coefficient(n, lam).subst_power(2) for lam in partitions_of(n)}
        print(f"schur: {render_basis(schur, n, 's')}")
    else:
        if not args.variety or args.n is None:
            raise ValueError("char: need either --flag N or --variety ... -n N")
        _check_variety_options(args)
        _at_least("-n", args.n, 0)
        space = _resolve_space(args)
        if args.q is not None:
            _check_q(args, args.q)
        # without -q a q^k token reads as 1 and a rational eigenvalue is kept
        space = space.resolve(1 if args.q is None else args.q)
        options = [f"-n {args.n}", _variety_option(args)]
        if args.q is not None:
            options.insert(0, f"-q {args.q}")
        _check_digits("char", character_digits(space, args.n), options)
        if args.cycle_type is not None:
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


def _check_digits(command: str, digits: int, options: list[str]) -> None:
    """Reject, before it is built, output whose ints the estimate
    ``digits`` puts past Python's int-to-str digit limit (0: no limit),
    which ``render`` could not print; ``options``, two or more, name
    what set them."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        given = f"{', '.join(options[:-1])} and {options[-1]}"
        raise ValueError(
            f"{command}: {given} give numbers of up to {digits} digits; "
            f"at most {limit} can be printed"
        )


def _variety_option(args) -> str:
    return f"--dim {args.dim}" if args.dim is not None else f"--variety {args.variety}"


def _cmd_series(args) -> int:
    ignored = (
        ("--t-order", ("zeta", "stable")),
        ("--u-order", ("betti", "groupoid", "zeta")),
        ("-q", ("betti", "coh", "stable")),
    )
    _reject(args, [o for o, kinds in ignored if args.kind in kinds], f"to series {args.kind}")
    _check_variety_options(args)
    _at_least("--t-order", args.t_order, 0)
    _at_least("--u-order", args.u_order, 0)
    space = _resolve_space(args)
    t_order = 5 if args.t_order is None else args.t_order
    # every row is rendered before any is printed, so a row that cannot
    # be printed leaves stdout empty
    if args.kind == "betti":
        rows = [f"t^{n}: {coeff.render()}" for n, coeff in enumerate(betti_zeta(space, t_order))]
        print("\n".join(rows))
        return 0
    if args.kind == "coh":
        u_order = 20 if args.u_order is None else args.u_order
        return _print_report(coh_series(space, t_order, u_order))
    if args.kind == "stable":
        u_order = 10 if args.u_order is None else args.u_order
        report = stable_betti_verified(space, u_order)
        print(
            f"stable: {report.stable.render()}\n"
            f"rank {report.n}: {report.at_n.render()}\n"
            f"rank {report.n + 1}: {report.at_next.render()}\n"
            f"verdict: {'equal' if report.ok else 'mismatch'}"
        )
        return 0 if report.ok else 1
    if args.q is None:
        raise ValueError(f"series {args.kind}: -q is required")
    _check_q(args, args.q)
    if args.kind == "zeta":
        options = [f"-q {args.q}", _variety_option(args)]
        _check_digits("series zeta", weil_zeta_digits(space, args.q), options)
        print(weil_zeta_from_eigendata(space, args.q).render("t"))
        return 0
    options = [f"-q {args.q}", f"--t-order {t_order}", _variety_option(args)]
    _check_digits("series groupoid", groupoid_digits(space, args.q, t_order), options)
    if args.variety in BUILTIN_NAMES and not is_curve_name(args.variety, _dim(args)):
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
    return _print_report(groupoid_series(space, args.q, t_order))


def _cmd_count(args) -> int:
    if args.budget is not None and args.budget < 1:
        raise ValueError(f"--budget must be a positive integer, got {args.budget}")
    _at_least("--n", args.n, 1)
    _check_variety_options(args, "--family")
    if not is_prime(args.q):
        raise ValueError(f"--q must be a prime, got {args.q}")
    _check_avoid(args, args.q)
    family = family_for(args.family, dim=_dim(args), avoided=_avoided(args))
    print(count_points(family, args.n, args.q, budget=args.budget))
    return 0


def _cmd_verify(args) -> int:
    if args.q is not None:
        if args.suite not in ("pointcounts", "all"):
            raise ValueError(f"-q applies only to --suite pointcounts or all, not {args.suite}")
        if args.q not in POINT_COUNT_FIELDS:
            raise ValueError(
                f"-q {args.q} is not a field size of the point-count grid {POINT_COUNT_FIELDS}"
            )
    results = run_suite(args.suite, q=args.q)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    return 0


def _variety(required: bool = False) -> tuple:
    """The --variety, --dim and --avoid entries of poincare, char and series."""
    variety = f"builtin name {BUILTIN_NAMES} or path to a JSON descriptor file"
    avoid = "comma-separated values avoided by the punctured builtin only (default 0,1)"
    return (
        (("--variety",), dict(required=required, help=variety)),
        (("--dim",), dict(type=_int, default=None, help="affine/torus builtins only (default 1)")),
        (("--avoid",), dict(type=_parse_avoid, default=None, help=avoid)),
    )


# name -> (help line, arguments, handler), in help order.  An argument is
# (option strings or positional name, ``add_argument`` keywords): both
# ``build_parser`` and ``_fast_parse`` read it.
COMMANDS = {
    "poincare": ("signed Poincare polynomial of a moduli space", (
        (("--space",), dict(choices=SPACES, default="cn")),
        *_variety(),
        (("-n",), dict(type=_int, required=True, help="rank (matrix size)")),
        (("--absolute",), dict(
            action="store_true", help="display-only: print absolute values of the coefficients")),
    ), _cmd_poincare),
    "char": ("graded character in Schur and power-sum expansions", (
        (("--flag",), dict(type=_int, help="rank of the complete flag variety")),
        *_variety(),
        (("-n",), dict(type=_int, help="tensor power for a variety character")),
        (("-q",), dict(type=_int, help="resolve q^k eigenvalue tokens at this prime power")),
        (("--cycle-type",), dict(
            help="also print the graded trace at this cycle type, e.g. '(2,1)' or '1^1 2^1'")),
    ), _cmd_char),
    "series": ("zeta-type generating series and product formulas", (
        (("kind",), dict(
            choices=("betti", "coh", "groupoid", "zeta", "stable"),
            help="which series or report to compute")),
        *_variety(required=True),
        (("--t-order",), dict(type=_int, default=None)),
        (("--u-order",), dict(type=_int, default=None)),
        (("-q",), dict(type=_int, help="prime power for groupoid/zeta")),
    ), _cmd_series),
    "count": ("brute-force point count over a prime field", (
        (("--family",), dict(choices=("affine", "torus", "punctured"), required=True)),
        (("--dim",), dict(type=_int, default=None, help="affine/torus only (default 1)")),
        (("--n", "-n"), dict(type=_int, required=True, dest="n")),
        (("--q", "-q"), dict(type=_int, required=True, dest="q")),
        (("--avoid",), dict(type=_parse_avoid, default=None, help="punctured only (default 0,1)")),
        (("--budget",), dict(
            type=_int, default=None,
            help=f"candidate limit (default {DEFAULT_BUDGET}, env COMMVAR_BUDGET)")),
    ), _cmd_count),
    "verify": ("run the exact cross-check suites", (
        (("--suite",), dict(default="all", help=f"one of 'all' or {sorted(SUITES)}")),
        (("-q",), dict(type=_int, help="restrict point-count checks to this field size")),
    ), _cmd_verify),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        status = COMMANDS[args.command][2](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout now writes to the null device, so the interpreter's flush
        # of what is still buffered at exit prints nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # the shell's status for SIGPIPE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a DescriptorError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
