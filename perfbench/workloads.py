"""The three workloads: seeded inputs, the operations run on them, and the
oracle and exact-repeat counts attached to each operation.

A workload is a fixed list of operations.  One pass runs the list once, in
order; the worker repeats passes.  Every operation is tagged "free" or
"mem" by the congruence it uses ("munbf" and "eval" count as mem), or
"parse" in chains: parsing there is checked and counts to wall_s, but it
belongs to neither congruence and is not a latency sample or a completed
operation in ops_per_s.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from sclc import axioms, cli
from sclc.congruence import FREE, MEM, eval_tree, normal_form
from sclc.errors import SclError
from sclc.nandform import nand_nf
from sclc.normalform import mbf, render
from sclc.syntax import (
    FF, TT, UU, And, Atom, Cond, Const, Iff, Nand, Nor, Not, Or, Xor, parse,
    print_term,
)

import oracles

WORKLOADS = ("query", "chains", "sweep")

# The paper's axiom tables, in builtin order; the consequence tables and
# the negative table are left out.
SWEEP_TABLES = ("CP", "CPmem", "EqFSCL", "EqMSCL", "EqMSCL-lI", "EqMSCL-lN", "U")
SWEEP_K = 2
SWEEP_BUDGET = 10 ** 6

# Parsing and normalizing are specified up to this nesting depth; the deep
# probes sit on it and one above it.
DEPTH_LIMIT = 10_000


@dataclass
class Op:
    key: str                       # latency sample this operation adds to
    tag: str                       # "free", "mem" or "parse"
    span: str                      # span name in the traced run
    run: Callable[[], object]
    check: Callable[[object], str | None]
    count: Callable[[object], dict] = lambda out: {}
    units: Callable[[object], int] = lambda out: 1
    attrs: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    max_passes: int | None = None
    probes: Callable[[], list[dict]] | None = None


def build(name: str, seed: int, smoke: bool, tables) -> Workload:
    if name == "query":
        return _query(seed, smoke)
    if name == "chains":
        return _chains(seed, smoke)
    return _sweep(smoke, tables)


# -- random terms ---------------------------------------------------------------

ATOMS = ("a", "b", "c", "d")
FULL_BINARY = (And, Or, Iff, Xor, Nand, Nor)
DEPTH = {"full": 5, "scl": 8, "nand": 6}


def random_term(rng: random.Random, atoms, depth: int, kind: str, undef: bool):
    leaves = [Atom(a) for a in atoms] + [TT, FF] + ([UU] if undef else [])
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(leaves)

    def sub():
        return random_term(rng, atoms, depth - 1, kind, undef)

    if kind == "nand":
        return Nand(sub(), sub())
    if kind == "scl":
        if rng.random() < 0.3:
            return Not(sub())
        return rng.choice((And, Or))(sub(), sub())
    roll = rng.random()
    if roll < 0.2:
        return Not(sub())
    if roll < 0.35:
        return Cond(sub(), sub(), sub())
    return rng.choice(FULL_BINARY)(sub(), sub())


def _compose(op, x, y):
    """Counts of the basic form of op(x, y) from those of x and y: each
    connective is a conditional on x, by translate.to_core's table."""
    ny = (y[0], y[2], y[1], y[3])  # the tree of !y
    then, orelse = {
        And: (y, (0, 0, 1, 0)), Or: ((0, 1, 0, 0), y), Iff: (y, ny),
        Xor: (ny, y), Nand: (ny, (0, 1, 0, 0)), Nor: ((0, 0, 1, 0), ny),
    }[op]
    return _cond(x, then, orelse)


def _cond(c, x, y):
    return (c[0] + c[1] * x[0] + c[2] * y[0], c[1] * x[1] + c[2] * y[1],
            c[1] * x[2] + c[2] * y[2], c[3] + c[1] * x[3] + c[2] * y[3])


def basic_counts(t) -> tuple[int, int, int, int]:
    """(internal nodes, T, F, U leaves) of the free basic form, computed
    without building the tree."""
    if isinstance(t, Const):
        return (0, t.value == "T", t.value == "F", t.value == "U")
    if isinstance(t, Atom):
        return (1, 1, 1, 0)
    if isinstance(t, Cond):
        return _cond(basic_counts(t.cond), basic_counts(t.then), basic_counts(t.orelse))
    if isinstance(t, Not):
        i, tt, ff, uu = basic_counts(t.arg)
        return (i, ff, tt, uu)
    return _compose(type(t), basic_counts(t.left), basic_counts(t.right))


def free_size(t) -> int:
    """Node count of the free basic form."""
    return sum(basic_counts(t))


# -- query ----------------------------------------------------------------------

QUERY_CMDS = ("eq-mem", "eq-free", "norm-mem", "norm-free-json", "munbf", "eval")
QUERY_OPS = 1200
# Free basic-form sizes of query terms.  One request in five is large; the
# tail percentile then falls among the large requests, whose sizes are
# bounded on both sides, and not on whichever few outliers a seed draws.
TYPICAL_SIZES = (1, 1000)
LARGE_SIZES = (1001, 2000)
LARGE_EVERY = 5


def _draw(rng: random.Random, kind: str, sizes):
    while True:
        atoms = ATOMS[:rng.choice((3, 4))]
        t = random_term(rng, atoms, DEPTH[kind], kind, undef=rng.random() < 0.2)
        if sizes[0] <= free_size(t) <= sizes[1]:
            return t, atoms


PARTNERS = 5


def _equal_partner(p, mode, how: int):
    """A term equal to p by construction under mode, of kind how."""
    if how == 0:
        tree = eval_tree(p) if mode is FREE else mbf(p).tree
        return render(tree)
    return (Not(Not(p)), Cond(TT, p, FF), And(TT, p), And(p, TT))[how - 1]


def _cli(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()
    return run


def _query_plan(rng: random.Random, n: int):
    """(command, term kind, large?, equal pair?, partner kind) per request.
    Each command gets the same number of requests, each with fixed shares
    of term kinds, large terms, equal pairs and, per size, partner kinds, in
    seeded order: seeds change the terms but hardly the mix, and so hardly
    the cost.  (An equal pair whose partner is the printed normal form of a
    large term is among the slowest requests.)"""
    plan = []
    for cmd in QUERY_CMDS:
        turn = {True: 0, False: 0}  # next partner kind, per size class
        for j in range(n // len(QUERY_CMDS)):
            kind = "nand" if cmd == "munbf" else ("full", "scl", "nand")[j % 3]
            large, equal = j % LARGE_EVERY == 0, (j // 15) % 2 == 0
            how = turn[large]
            if equal:
                turn[large] = (how + 1) % PARTNERS
            plan.append((cmd, kind, large, equal, how))
    rng.shuffle(plan)
    return plan


def _query(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"query/{seed}")
    ops = []
    for i, (cmd, kind, large, equal, how) in enumerate(
            _query_plan(rng, 12 if smoke else QUERY_OPS)):
        sizes = LARGE_SIZES if large else TYPICAL_SIZES
        p, atoms = _draw(rng, kind, sizes)
        ps = print_term(p)
        key = f"{i}:{cmd}"
        if cmd.startswith("eq"):
            mode = MEM if cmd == "eq-mem" else FREE
            q = _equal_partner(p, mode, how) if equal else _draw(rng, kind, sizes)[0]
            flag = "--mem" if mode is MEM else "--free"
            ops.append(Op(key, mode.congruence, "cli.main",
                          _cli(["eq", flag, ps, print_term(q)]),
                          lambda out, p=p, q=q, m=mode: oracles.check_eq(out, p, q, m),
                          count=lambda out, c=cmd: {f"{c}.exit{out[0]}": 1},
                          attrs={"eq": True}))
        elif cmd == "norm-mem":
            ops.append(Op(key, "mem", "cli.main", _cli(["norm", "--mem", ps]),
                          lambda out, p=p: oracles.check_norm_mem(out, p),
                          count=lambda out: {"norm-mem.exit0": out[0] == 0}))
        elif cmd == "norm-free-json":
            ops.append(Op(key, "free", "cli.main",
                          _cli(["norm", "--free", "--json", ps]),
                          lambda out, p=p: oracles.check_norm_free_json(out, p),
                          count=lambda out: {"norm-free-json.exit0": out[0] == 0}))
        elif cmd == "munbf":
            ops.append(Op(key, "mem", "cli.main", _cli(["munbf", ps]),
                          lambda out, p=p: oracles.check_munbf(out, p),
                          count=lambda out: {"munbf.exit0": out[0] == 0}))
        else:
            val = {a: rng.random() < 0.5 for a in atoms}
            arg = ",".join(f"{a}={int(b)}" for a, b in val.items())
            ops.append(Op(key, "mem", "cli.main",
                          _cli(["eval", ps, "--val", arg]),
                          lambda out, p=p, v=val: oracles.check_eval(out, p, v),
                          count=lambda out: {f"eval.{out[1].strip()}": 1}))
    return Workload("query", ops)


# -- chains ---------------------------------------------------------------------

def _left_chain(op, atoms, n):
    """Left-nested a1 op a2 op ... op an, cycling through atoms."""
    t = Atom(atoms[0])
    for i in range(1, n):
        t = op(t, Atom(atoms[i % len(atoms)]))
    return t


def _families(rng: random.Random, smoke: bool):
    """(name, count key, term, distinct atoms?, in the NAND signature?) per
    instance; the random NAND terms share one count key."""
    many = [f"x{i}" for i in range(1000)]
    n_iff, n_xor, n_two, n_and, nands = (6, 6, 6, 20, 2) if smoke else (16, 14, 16, 500, 256)
    fixed = [
        (f"iff-distinct-{n_iff}", _left_chain(Iff, many, n_iff), True),
        (f"xor-distinct-{n_xor}", _left_chain(Xor, many, n_xor), True),
        (f"iff-two-{n_two}", _left_chain(Iff, ("a", "b"), n_two), False),
        (f"xor-two-{n_two}", _left_chain(Xor, ("a", "b"), n_two), False),
        (f"and-{n_and}", _left_chain(And, many, n_and), True),
        (f"or-{n_and}", _left_chain(Or, many, n_and), True),
    ]
    out = [(name, name, term, distinct, False) for name, term, distinct in fixed]
    # Many cheap random NAND terms over two atoms, each with a free tree of
    # at least 2^12 nodes (2^5 in smoke mode) and a mem form of at most 7.
    # Each is held to a narrow band of substitution work, so that seeds
    # change the terms but hardly what they cost.
    size_min, work = (2 ** 5, (2 ** 5, 2 ** 9)) if smoke else (2 ** 12, (2 ** 10, 2 ** 11))
    while nands:
        t = random_term(rng, ("a", "b"), 8, "nand", undef=False)
        size, cost = nand_work(t)
        if size >= size_min and work[0] <= cost <= work[1]:
            nands -= 1
            out.append((f"nand-{nands}", "nand", t, False, True))
    return out


def nand_work(t) -> tuple[int, int]:
    """Free basic-form size of a NAND term, and the tree nodes bf's
    substitutions walk for it: x ~& y lowers to (F <| y |> T) <| x |> T,
    which walks the free trees of x and y."""
    def go(t):
        if not isinstance(t, Nand):
            return basic_counts(t), 0
        (cx, wx), (cy, wy) = go(t.left), go(t.right)
        return _compose(Nand, cx, cy), wx + wy + sum(cx) + sum(cy)

    counts, work = go(t)
    return sum(counts), work


def _probe_texts(depth: int):
    yield "bang", "!" * depth + "a"
    yield "paren", "(" * depth + "a" + ")" * depth
    yield "cond", "a <| b |> (" * depth + "F" + ")" * depth


def deep_probes() -> list[dict]:
    """Deep inputs at the depth limit and one above it.  At the limit the
    answer must be right; above it the error must be a typed SclError."""
    results = []
    for depth in (DEPTH_LIMIT, DEPTH_LIMIT + 1):
        for name, text in _probe_texts(depth):
            if name == "cond":
                want_free, want_mem = oracles.cond_chain_trees(depth)
            else:
                want_free = want_mem = oracles.bang_tree(depth if name == "bang" else 0)
            try:
                t = parse(text)
                free, mem = normal_form(t, FREE), normal_form(t, MEM)
                right = (oracles.trees_equal(free, want_free)
                         and oracles.trees_equal(mem, want_mem))
                outcome = "answer" if right else "wrong answer"
            except SclError as exc:
                outcome = f"typed {type(exc).__name__}"
            except Exception as exc:  # a crash is the finding being recorded
                outcome = f"untyped {type(exc).__name__}"
            want = "answer" if depth <= DEPTH_LIMIT else "typed"
            results.append({"input": f"{name}-{depth}", "outcome": outcome,
                            "ok": outcome.startswith(want)})
    return results


def _chains(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"chains/{seed}")
    ops = []
    for name, group, term, distinct, in_nand in _families(rng, smoke):
        text = print_term(term)
        ops.append(Op(f"{name}:parse", "parse", "syntax.parse",
                      lambda s=text: parse(s),
                      lambda out, t=term: None if out == t else "parse changed the term",
                      units=lambda out: 0, attrs={"chars": len(text)}))
        ops.append(Op(f"{name}:free", "free", "congruence.normal_form",
                      lambda t=term: normal_form(t, FREE),
                      lambda out, t=term: oracles.check_free(out, t),
                      count=lambda out, g=group: {f"{g}.bf_nodes": oracles.expanded_size(out)}))
        ops.append(Op(f"{name}:mem", "mem", "congruence.normal_form",
                      lambda t=term: normal_form(t, MEM),
                      lambda out, t=term, d=distinct: oracles.check_mem(out, t, d),
                      count=lambda out, g=group: {f"{g}.mbf_nodes": oracles.expanded_size(out)}))
        if in_nand:
            ops.append(Op(f"{name}:nand", "mem", "nandform.nand_nf",
                          lambda t=term: nand_nf(t),
                          lambda out, t=term: oracles.check_nand(out, t),
                          count=lambda out, g=group: {f"{g}.munbf_nodes": oracles.expanded_size(out)}))
    return Workload("chains", ops, probes=deep_probes)


# -- sweep ----------------------------------------------------------------------

def _sweep(smoke: bool, tables) -> Workload:
    budget = 2000 if smoke else SWEEP_BUDGET
    ops = []
    for table in tables:
        if table.name not in SWEEP_TABLES:
            continue
        # check_table's loop, one schema at a time: fresh atoms over the
        # table, then the exhaustive sweep over the table.
        for strategy in ("fresh_atoms", "exhaustive"):
            for schema in table.schemas:
                mode = table.mode_for(schema)
                nvars = len(schema.variables)
                # A table's check, as a user waits for it, is one latency
                # sample: the schema checks are the steps it takes.
                ops.append(Op(
                    table.name, mode.congruence,
                    "axioms.fresh" if strategy == "fresh_atoms" else "axioms.sweep",
                    lambda s=schema, m=mode, st=strategy: axioms.check_schema(
                        s, m, st, SWEEP_K, budget),
                    lambda out, st=strategy, n=nvars, m=mode: oracles.check_sweep(
                        out, st, n, m.three_valued, SWEEP_K, budget),
                    count=lambda out, st=strategy: (
                        {"instantiations": out.count,
                         "budget_capped": int(out.budget_exceeded),
                         f"verdict.{out.verdict.name}": 1}
                        if st == "exhaustive" else {f"verdict.{out.verdict.name}": 1}),
                    units=lambda out: out.count,
                    attrs={"table": table.name, "schema": schema.name}))
    return Workload("sweep", ops, max_passes=1)

