"""Batch command-line front end.

Exit codes: 0 success/equal, 1 unequal/refuted, 2 usage or parse error,
3 internal error (a defect) or exhausted recursion or memory.  Output
is deterministic for a given argv and stdin.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import axioms, congruence, nandform, normalform, translate
from .congruence import FREE, MEM, Mode
from .errors import InvariantError, SclError
from .normalform import render
from .syntax import ATOM_RE, dual, parse, print_term


def _normalizing_command(sub, name: str, summary: str, run, *exprs: str):
    """A subcommand that normalizes: --mem/--free and --json."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    for expr in exprs:
        p.add_argument(expr)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mem", action="store_true", help="memorising congruence (default)")
    mode.add_argument("--free", action="store_true", help="free congruence")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="JSON output")
    return out


def _printing_command(sub, name: str, summary: str, run, primes: bool = True) -> None:
    """A subcommand that prints one term: --json or, if primes, --primes."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    p.add_argument("expr")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="JSON output")
    if primes:
        out.add_argument("--primes", action="store_true", help="abbreviate x ~& T as x'")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sclc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    out = _normalizing_command(sub, "norm", "print the normal form of an expression",
                               _cmd_norm, "expr")
    out.add_argument("--dot", action="store_true", help="Graphviz output")
    _normalizing_command(sub, "eq", "decide equivalence of two expressions",
                         _cmd_eq, "expr", "expr2")
    _printing_command(sub, "dual", "print the dual of an expression",
                      partial(_cmd_transform, dual))

    p = sub.add_parser("eval", help="evaluate under a valuation")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("expr")
    p.add_argument("--val", default="", metavar="a=0,b=1",
                   help="comma-separated atom assignments")

    _printing_command(sub, "to-nand", "encode !,&&,|| into the NAND signature",
                      partial(_cmd_transform, translate.encode_nand))
    _printing_command(sub, "from-nand", "decode a NAND term into !,&&",
                      partial(_cmd_transform, translate.decode_nand), primes=False)
    _printing_command(sub, "munbf", "NAND-signature normal form", _cmd_munbf)

    p = sub.add_parser("axioms", help="list or check the builtin axiom tables")
    p.set_defaults(run=_cmd_axioms)
    p.add_argument("action", choices=["list", "check"])
    p.add_argument("table", nargs="?")
    p.add_argument("--exhaustive", type=int, metavar="K", default=None,
                   help="also sweep mem-basic forms over K shared atoms")
    p.add_argument("--budget", type=int, help="instantiation cap for the exhaustive sweep")
    p.add_argument("--three-valued", action="store_true",
                   help="admit U in axiom tables and enumerations")
    return top


def _mode(args: argparse.Namespace) -> Mode:
    return FREE if args.free else MEM


def _read_expr(text: str) -> str:
    return sys.stdin.read() if text == "-" else text


def _style(args: argparse.Namespace) -> str:
    return "json" if args.json else "unicode"


def _emit_tree(tree, args) -> None:
    if getattr(args, "dot", False):
        print(congruence.to_dot(tree))
    elif args.json:
        print(normalform.to_json(tree))
    else:
        print(print_term(render(tree), "unicode"))


def _cmd_norm(args) -> int:
    term = parse(_read_expr(args.expr))
    tree = congruence.normal_form(term, _mode(args))
    _emit_tree(tree, args)
    return 0


def _cmd_eq(args) -> int:
    if args.expr == args.expr2 == "-":  # the second read would be empty
        raise SclError("eq reads at most one expression from stdin ('-')")
    mode = _mode(args)
    forest = congruence.forest_for(mode)
    left = congruence.normal_form(parse(_read_expr(args.expr)), mode, forest)
    right = congruence.normal_form(parse(_read_expr(args.expr2)), mode, forest)
    _emit_tree(left, args)
    if left is right:  # one forest: equal forms are one object
        return 0
    _emit_tree(right, args)
    return 1


def _cmd_eval(args) -> int:
    term = parse(_read_expr(args.expr))
    valuation: dict[str, bool] = {}
    if args.val:
        for item in args.val.split(","):
            name, _, bit = map(str.strip, item.partition("="))
            if bit not in ("0", "1") or not ATOM_RE.match(name):
                raise SclError(f"bad valuation entry {item!r}; use atom=0|1")
            if name in valuation:
                raise SclError(f"atom {name!r} is bound twice in --val")
            valuation[name] = bit == "1"
    print(congruence.evaluate(term, valuation).value)
    return 0


def _cmd_transform(transform, args) -> int:
    term = transform(parse(_read_expr(args.expr)))
    print(print_term(term, _style(args), primes=getattr(args, "primes", False)))
    return 0


def _cmd_munbf(args) -> int:
    form = nandform.check_munbf(nandform.nand_nf(parse(_read_expr(args.expr))))
    if args.json:
        print(nandform.to_json(form))
    else:
        print(print_term(nandform.render_nand(form), "unicode",
                         primes=args.primes))
    return 0


def _cmd_axioms(args) -> int:
    if args.action == "list":
        if args.table or args.three_valued or (args.exhaustive, args.budget) != (None, None):
            raise SclError("axioms list takes no table and no options")
        for table in axioms.builtin_tables():
            kind = "refutable" if table.expect_refuted else "valid"
            mode = table.mode.congruence + ("+U" if table.mode.three_valued else "")
            print(f"{table.name}: {len(table.schemas)} schemas, {mode}, {kind}")
        return 0
    if not args.table:
        raise SclError("axioms check requires a table name")
    if args.exhaustive is None and args.budget is not None:
        raise SclError("--budget applies only with --exhaustive")
    table = axioms.table_by_name(args.table)
    if args.exhaustive is not None and table.expect_refuted:
        raise SclError(f"{table.name} is refutable: it has no exhaustive sweep")
    budget = axioms.DEFAULT_BUDGET if args.budget is None else args.budget
    if args.exhaustive is not None:
        axioms.check_sweep_args(args.exhaustive, budget,
                                args.three_valued or table.mode.three_valued)
    want = "refuted" if table.expect_refuted else "passed"
    ok = True

    def report(results, label: str) -> None:
        nonlocal ok
        good = sum(1 for _, r in results if r.refuted == table.expect_refuted)
        note = ""
        if any(r.budget_exceeded for _, r in results):
            note = ", budget exceeded"
        print(f"{good}/{len(results)} {want} ({label}{note})")
        for schema, r in results:
            if r.refuted != table.expect_refuted:
                ok = False
                print(f"  {schema.name}: {r.verdict.value}")

    report(axioms.check_table(table, "fresh_atoms", three_valued=args.three_valued),
           "fresh-atoms")
    if args.exhaustive is not None:
        report(axioms.check_table(table, "exhaustive", k=args.exhaustive,
                                  budget=budget, three_valued=args.three_valued),
               f"exhaustive k={args.exhaustive}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except InvariantError as exc:
        print(f"sclc: internal error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        # Never let a crash look like exit 1, which eq uses for "unequal".
        print(f"sclc: input too large for this process "
              f"({type(exc).__name__})", file=sys.stderr)
        return 3
    except SclError as exc:
        print(f"sclc: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: never exit 1 or print a traceback
        print(f"sclc: internal error ({type(exc).__name__})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
