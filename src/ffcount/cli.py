"""Command-line front end: counts, approximations, series, censuses, families.

All numeric output is emitted as decimal strings (symbolic values in the
canonical ``(numerator)/(denominator)`` form) so nothing ever overflows a
JSON number.  Exit codes: 0 success/verified, 1 verification mismatch,
2 usage error, 3 enumeration budget exceeded, 141 output pipe closed by
its reader (the shell's code for SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from . import mv_counts, oracle, uv_counts, uv_families
from .classes import CLASSES, _oracle, count_report, exact_count
from .ff import BudgetExceeded, FieldCtx, FqElem, UniPoly, check_budget, field_from_q
from .qrat import QPoly
from .series import factor_prime_power

SCHEMA_VERSION = "1"


def _sym_str(count: QPoly) -> str:
    """An exact count as its integer coefficients over its one denominator."""
    return f"({count * count.den})/({count.den})"


def _int_str(val: Fraction) -> str:
    assert val.denominator == 1
    return str(val)


# -- element / polynomial text forms --------------------------------------


def parse_element(ctx: FieldCtx, text: str) -> FqElem:
    """An element literal: an integer, or a coordinate tuple like (1,0)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        coords = [int(t) for t in text[1:-1].split(",") if t.strip()]
        return ctx.elem(tuple(coords))
    return ctx.elem(int(text))


def parse_upoly(ctx: FieldCtx, text: str) -> UniPoly:
    """A univariate polynomial literal, e.g. ``x^3+2x+1`` or, over an
    extension field, ``(1,1)x^2+(0,1)``."""
    text = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms: list[str] = []
    depth = 0
    cur = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and text[i - 1] != "^":
            terms.append(cur)
            cur = ch if ch == "-" else ""
            continue
        cur += ch
    terms.append(cur)
    # the code sum of each exponent's terms, so the polynomial is built once
    codes: dict[int, int] = {}
    for term in terms:
        if not term or term == "-":
            raise ValueError(f"bad polynomial text {text!r}")
        negate = term.startswith("-")
        if negate:
            term = term[1:]
        if "x" in term:
            coef_txt, _, exp_txt = term.partition("x")
            if exp_txt and not (exp_txt[0] == "^" and exp_txt[1:].isdecimal()):
                raise ValueError(f"bad term {term!r} in {text!r}: "
                                 "write a power of x as x^k with k a nonnegative integer")
            exp = int(exp_txt[1:]) if exp_txt else 1
            check_budget(exp + 1, f"the term x^{exp}")
            coef = parse_element(ctx, coef_txt) if coef_txt else ctx.one
        else:
            coef = parse_element(ctx, term)
            exp = 0
        if negate:
            coef = -coef
        codes[exp] = ctx.add(codes.get(exp, 0), coef.code)
    dense = [0] * (max(codes) + 1)
    for exp, code in codes.items():
        dense[exp] = code
    return UniPoly.from_codes(ctx, dense)


# -- output ---------------------------------------------------------------


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        record = {"schema_version": SCHEMA_VERSION, **record}
        out.write(json.dumps(record, indent=2) + "\n")  # one write, not one per encoder chunk
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["r", "n", "q", "s", "class", "exact", "main_term", "bound", "oracle"])
        writer.writerow(record["csv_row"])
        return
    for line in record.get("plain", []):
        out.write(line + "\n")


# the commands whose records carry a csv_row
_CSV_COMMANDS = ("count", "approx", "verify")


def _csv_row(args, exact="", main="", bound="", oracle_val="") -> list[str]:
    return [
        str(getattr(args, "r", "") or ""),
        str(args.n),
        str(getattr(args, "q", "") or ""),
        str(getattr(args, "s", "") or ""),
        getattr(args, "cls", ""),
        exact,
        main,
        bound,
        oracle_val,
    ]


# -- subcommand implementations -------------------------------------------


def _cmd_count(args, out) -> int:
    exact = exact_count(args.cls, args.r, args.n, args.s, args.q)
    value = _sym_str(exact) if args.symbolic else str(exact)
    record = {
        "command": "count",
        "query": {"class": args.cls, "r": str(args.r), "n": str(args.n),
                  "s": str(args.s) if args.s else None,
                  "q": str(args.q) if args.q else None},
        "exact": value,
        "plain": [value],
        "csv_row": _csv_row(args, exact=value),
    }
    _emit(record, args.format, out)
    return 0


def _cmd_approx(args, out) -> int:
    rep = count_report(args.cls, args.r, args.n, args.s)
    if args.symbolic:
        exact = _sym_str(rep.exact) if rep.exact is not None else None
        main = str(rep.main_term)
        bound = str(rep.rel_bound) if rep.rel_bound is not None else None
        bound_sq = str(rep.rel_bound_sq) if rep.rel_bound_sq is not None else None
    else:
        q = args.q
        exact = _int_str(rep.exact.evaluate(q)) if rep.exact is not None else None
        main = str(rep.main_term.evaluate(q))
        bound = str(rep.rel_bound.evaluate(q)) if rep.rel_bound is not None else None
        bound_sq = str(rep.rel_bound_sq.evaluate(q)) if rep.rel_bound_sq is not None else None
    # a bound with a half-integer power of q is given only as its square
    bound_txt = f"{bound_sq} (squared)" if bound is None and bound_sq is not None else bound
    record = {
        "command": "approx",
        "query": {"class": args.cls, "r": str(args.r), "n": str(args.n),
                  "s": str(args.s) if args.s else None,
                  "q": str(args.q) if args.q else None},
        "exact": exact,
        "main_term": main,
        "gap_exponent": str(rep.gap_exponent) if rep.gap_exponent is not None else None,
        "rel_error_bound": bound,
        "rel_error_bound_squared": bound_sq,
        "case": rep.case,
        "plain": [
            f"case: {rep.case}",
            f"exact: {exact}",
            f"main_term: {main}",
            f"gap_exponent: {rep.gap_exponent}",
            f"rel_error_bound: {bound_txt}",
        ],
        "csv_row": _csv_row(args, exact=exact or "", main=main,
                            bound=bound or bound_sq or ""),
    }
    _emit(record, args.format, out)
    return 0


def _cmd_series(args, out) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    s = 2 if args.s is None and CLASSES[args.cls].needs_s else args.s
    # the largest n first: its budget checks size the query before any other
    # work, and the others read their rows off the table it grew
    last = exact_count(args.cls, args.r, args.max_n, s, args.q)
    coeffs = [exact_count(args.cls, args.r, n, s, args.q) for n in range(args.max_n)] + [last]
    values = [str(c) for c in coeffs] if args.q else [_sym_str(c) for c in coeffs]
    record = {
        "command": "series",
        "query": {"class": args.cls, "r": str(args.r), "max_n": str(args.max_n),
                  "s": str(args.s) if args.s else None,
                  "q": str(args.q) if args.q else None},
        "coefficients": values,
        "plain": [f"[z^{i}] {v}" for i, v in enumerate(values)],
    }
    _emit(record, args.format, out)
    return 0


def _cmd_decomp(args, out) -> int:
    p, d = factor_prime_power(args.q)
    bracket = uv_counts.d_n_bracket(args.n, args.q)
    lines = [
        f"case: {bracket.case_label}",
        f"lower: {bracket.lower}",
        f"upper: {bracket.upper}",
        f"exact: {bracket.exact}",
    ]
    inters = []
    n = args.n
    for ell in range(2, n):
        if n % ell:
            continue
        m = n // ell
        if not m > ell >= 2:
            continue
        if (ell * m) % p:
            val = uv_counts.tame_intersection(ell, m, args.q)
            inters.append({"l": str(ell), "m": str(m), "kind": "tame",
                           "exact": str(val)})
            lines.append(f"splits ({ell},{m}): tame intersection {val}")
        else:
            wb = uv_counts.wild_intersection_bounds(ell, m, args.q)
            inters.append({"l": str(ell), "m": str(m), "kind": "wild",
                           "lower": str(wb.lower), "upper": str(wb.upper),
                           "case": wb.case_label})
            lines.append(
                f"splits ({ell},{m}): wild bounds [{wb.lower}, {wb.upper}] ({wb.case_label})"
            )
    record = {
        "command": "decomp",
        "query": {"n": str(args.n), "q": str(args.q)},
        "bracket": {"lower": str(bracket.lower), "upper": str(bracket.upper),
                    "case": bracket.case_label,
                    "exact": str(bracket.exact) if bracket.exact is not None else None},
        "intersections": inters,
        "plain": lines,
    }
    _emit(record, args.format, out)
    return 0


# each family's constructor in uv_families and the flags it takes, in
# argument order (argparse destinations; "ctx" is the field itself); the
# flags in _FAMILY_PARSERS are field elements or polynomials
_FAMILIES = {
    "ritt1": ("ritt_family_first", ("l", "k", "w", "a")),
    "ritt2": ("ritt_family_second", ("l", "m", "z", "a")),
    "frobenius": ("frobenius_family", ("h",)),
    "S": ("s_family", ("ctx", "u", "s_elem", "eps", "m", "r_power")),
    "M": ("m_family", ("ctx", "a", "b", "m", "r_power")),
}
_FAMILY_PARSERS = {"w": parse_upoly, "h": parse_upoly, "a": parse_element, "b": parse_element,
                   "z": parse_element, "u": parse_element, "s_elem": parse_element}


def _build_family(args, ctx: FieldCtx) -> uv_families.CollisionFamily:
    name, flags = _FAMILIES[args.family]
    given = {**vars(args), "ctx": ctx}
    missing = [f"--{f.replace('_', '-')}" for f in flags if given[f] is None]
    if missing:
        raise ValueError(f"--family {args.family} needs {', '.join(missing)}")
    parse = _FAMILY_PARSERS
    values = [parse[f](ctx, given[f]) if f in parse else given[f] for f in flags]
    return getattr(uv_families, name)(*values)


def _cmd_families(args, out) -> int:
    ctx = field_from_q(args.q)
    family = _build_family(args, ctx)
    ok = family.verify()
    decs = [{"g": str(d.g), "h": str(d.h)} for d in family.decompositions]
    record = {
        "command": "families",
        "query": {"family": args.family, "q": str(args.q)},
        "f": str(family.f),
        "label": family.label,
        "decompositions": decs,
        "verified": ok,
        "plain": [f"f = {family.f}", f"label = {family.label}"]
        + [f"  g = {d['g']}   h = {d['h']}" for d in decs]
        + [f"verified: {ok}"],
    }
    _emit(record, args.format, out)
    return 0 if ok else 1


def _cmd_census(args, out) -> int:
    # the census bound, before the field is built
    oracle.check_census_q(args.q)
    rep = oracle.oracle_decomp_census(args.n, field_from_q(args.q))
    record = {
        "command": "census",
        "query": {"n": str(args.n), "q": str(args.q)},
        "total": str(rep.total),
        "per_split": {str(e): str(v) for e, v in rep.per_split.items()},
        "pair_intersections": {f"{a},{b}": str(v) for (a, b), v in rep.pair_intersections.items()},
        "pair_intersections_nonfrobenius": {
            f"{a},{b}": str(v) for (a, b), v in rep.pair_intersections_nonfrobenius.items()
        },
        "collision_histogram": {str(k): str(v) for k, v in rep.collision_histogram.items()},
        "frobenius_members": str(rep.frobenius_members),
        "frobenius_collisions": str(rep.frobenius_collisions),
        "plain": [
            f"total decomposable: {rep.total}",
            f"per split: {rep.per_split}",
            f"pair intersections: {rep.pair_intersections}",
            f"collision histogram: {rep.collision_histogram}",
            f"frobenius members/collisions: {rep.frobenius_members}/{rep.frobenius_collisions}",
        ],
    }
    _emit(record, args.format, out)
    return 0


def _cmd_verify(args, out) -> int:
    # a main term first, so a query outside its theory (decomposable_mv at
    # r = 1) exits 2 before the oracle sizes anything, and the query checked
    # before the field is built; an exact count last: the oracle refuses a
    # query over its budget at once, where the formula can take seconds
    # (O(n^3) at a fixed q)
    approximate = CLASSES[args.cls].exact is None
    if approximate:
        rep = count_report(args.cls, args.r, args.n, args.s)
        alpha = rep.main_term.evaluate(args.q)
        bsq = rep.rel_bound_sq.evaluate(args.q)
        formula_txt = f"{alpha} (main term, rel bound squared {bsq})"
    enumerate_class = _oracle(args.cls, args.r, args.n, args.s)
    oracle_val = enumerate_class(args.r, args.n, field_from_q(args.q), args.s)
    if not approximate:
        formula = exact_count(args.cls, args.r, args.n, args.s, args.q)
        formula_txt = str(formula)
    ok = (oracle_val - alpha) ** 2 <= alpha * alpha * bsq if approximate else formula == oracle_val
    record = {
        "command": "verify",
        "query": {"class": args.cls, "r": str(args.r), "n": str(args.n),
                  "s": str(args.s) if args.s else None, "q": str(args.q)},
        "formula": formula_txt,
        "oracle": str(oracle_val),
        "verified": ok,
        "plain": [f"formula: {formula_txt}", f"oracle:  {oracle_val}",
                  f"verified: {ok}"],
        "csv_row": _csv_row(args, exact=formula_txt, oracle_val=str(oracle_val)),
    }
    _emit(record, args.format, out)
    return 0 if ok else 1


def _cmd_oeis_check(args, out) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    expected = []
    with open(args.file, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                idx, val = map(int, line.split())
            except ValueError:
                raise ValueError(f"{args.file} line {number}: expected two integers, got {line!r}") from None
            expected.append((idx, val))
    mismatches = []
    checked = 0
    for n, val in sorted(expected):
        if n > args.max_n:
            continue
        ours = mv_counts.irr_exact(args.r, n, q=args.q)
        checked += 1
        if ours != val:
            mismatches.append((n, val, ours))
    lines = [f"checked {checked} entries (r={args.r}, q={args.q})"]
    for n, theirs, ours in mismatches:
        lines.append(f"mismatch at n={n}: table {theirs}, computed {ours}")
    if not mismatches:
        lines.append("all entries match")
    record = {
        "command": "oeis-check",
        "query": {"file": args.file, "r": str(args.r), "q": str(args.q),
                  "max_n": str(args.max_n)},
        "checked": str(checked),
        "mismatches": [
            {"n": str(n), "table": str(t), "computed": str(o)} for n, t, o in mismatches
        ],
        "plain": lines,
    }
    _emit(record, args.format, out)
    return 0 if not mismatches else 1


# -- argument parsing ------------------------------------------------------


def prime_power(text: str) -> int:
    """The argparse type of every ``--q``: the size of a finite field."""
    q = int(text)
    try:
        factor_prime_power(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return q


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    formats = ("plain", "json", "csv")
    # --format goes before or after the subcommand; the subcommand's copy
    # sets nothing unless given, so it does not reset the top-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="ffcount",
        description="Exact counts and certified approximations for special "
        "polynomial classes over finite fields.",
    )
    parser.add_argument("--format", choices=formats, default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_flags(sp, has, degree="--n"):
        # the classes whose CLASSES entry has the function the command calls
        choices = [c for c, entry in CLASSES.items() if getattr(entry, has) is not None]
        sp.add_argument("--class", dest="cls", required=True, choices=choices)
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument(degree, type=int, required=True)
        sp.add_argument("--s", type=int, default=None)

    def add_q_or_symbolic(sp):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--q", type=prime_power, default=None)
        group.add_argument("--symbolic", action="store_true")

    sp = sub.add_parser("count", parents=[common], help="exact count of a class")
    add_class_flags(sp, "exact")
    add_q_or_symbolic(sp)
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("approx", parents=[common], help="main term and certified error bound")
    add_class_flags(sp, "report")
    add_q_or_symbolic(sp)
    sp.set_defaults(fn=_cmd_approx)

    sp = sub.add_parser("series", parents=[common], help="generating-series coefficients 0..N")
    add_class_flags(sp, "exact", degree="--max-n")
    sp.add_argument("--q", type=prime_power, default=None)
    sp.set_defaults(fn=_cmd_series)

    sp = sub.add_parser("decomp", parents=[common], help="decomposable-count bracket and intersections")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=prime_power, required=True)
    sp.set_defaults(fn=_cmd_decomp)

    sp = sub.add_parser("families", parents=[common], help="build and verify a collision family")
    sp.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    sp.add_argument("--q", type=prime_power, required=True)
    sp.add_argument("--l", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--w")
    sp.add_argument("--h")
    sp.add_argument("--z")
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.add_argument("--u")
    sp.add_argument("--s-elem")
    sp.add_argument("--eps", type=int, choices=(0, 1))
    sp.add_argument("--r-power", type=int)
    sp.set_defaults(fn=_cmd_families)

    sp = sub.add_parser("census", parents=[common], help="brute-force decomposition census")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=prime_power, required=True)
    sp.set_defaults(fn=_cmd_census)

    sp = sub.add_parser("verify", parents=[common], help="formula against the enumeration oracle")
    add_class_flags(sp, "oracle")
    sp.add_argument("--q", type=prime_power, required=True)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("oeis-check", parents=[common], help="compare irreducible counts to a local table")
    sp.add_argument("--file", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--q", type=prime_power, required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.set_defaults(fn=_cmd_oeis_check)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # exact answers may run past CPython's 4300-digit int-to-str limit; it
    # is lifted for this command only
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise ValueError(f"csv output is only available for {'/'.join(_CSV_COMMANDS)}")
        if digits is not None:
            sys.set_int_max_str_digits(0)
        code = args.fn(args, out)
        out.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader went away: no usage text, and the shell's code for a
        # SIGPIPE exit (128 + 13); stdout goes to devnull, so flushing it
        # at exit raises nothing more (the Python docs' SIGPIPE note)
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ZeroDivisionError, OSError) as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
