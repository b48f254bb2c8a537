"""Shared random generators and a hypothesis strategy for terms, random
decision trees, forest probes and a fresh-interpreter runner."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import sclc
from sclc.normalform import LEAF_F, LEAF_T, LEAF_U, BasicForm, Node
from sclc.syntax import (
    FF, TT, UU, And, Atom, Cond, Iff, Nand, Nor, Not, Or, Term, Var, Xor,
)

FULL_BINARY = (And, Or, Iff, Xor, Nand, Nor)
SCL_BINARY = (And, Or)


def random_term(rng: random.Random, atoms=("a", "b", "c"), max_depth: int = 5,
                connectives: str = "full", undef: bool = False) -> Term:
    """Random closed term.

    connectives: "full" (everything incl. the conditional), "scl"
    ({not, and, or}), or "nand" ({nand} only).
    """
    leaves: list[Term] = [Atom(a) for a in atoms] + [TT, FF]
    if undef:
        leaves.append(UU)
    if max_depth <= 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    d = max_depth - 1
    if connectives == "nand":
        return Nand(random_term(rng, atoms, d, connectives, undef),
                    random_term(rng, atoms, d, connectives, undef))
    if connectives == "scl":
        if rng.random() < 0.3:
            return Not(random_term(rng, atoms, d, connectives, undef))
        op = rng.choice(SCL_BINARY)
        return op(random_term(rng, atoms, d, connectives, undef),
                  random_term(rng, atoms, d, connectives, undef))
    roll = rng.random()
    if roll < 0.2:
        return Not(random_term(rng, atoms, d, connectives, undef))
    if roll < 0.35:
        return Cond(random_term(rng, atoms, d, connectives, undef),
                    random_term(rng, atoms, d, connectives, undef),
                    random_term(rng, atoms, d, connectives, undef))
    op = rng.choice(FULL_BINARY)
    return op(random_term(rng, atoms, d, connectives, undef),
              random_term(rng, atoms, d, connectives, undef))


def terms(with_vars=True):
    """Hypothesis strategy: terms over every connective, T/F/U, atoms a, b,
    c and, with_vars, variables X and Y."""
    leaves = [st.just(TT), st.just(FF), st.just(UU),
              st.sampled_from([Atom("a"), Atom("b"), Atom("c")])]
    if with_vars:
        leaves.append(st.sampled_from([Var("X"), Var("Y")]))
    return st.recursive(
        st.one_of(*leaves),
        lambda ch: st.one_of(
            st.builds(Not, ch),
            st.builds(And, ch, ch), st.builds(Or, ch, ch),
            st.builds(Iff, ch, ch), st.builds(Xor, ch, ch),
            st.builds(Nand, ch, ch), st.builds(Nor, ch, ch),
            st.builds(Cond, ch, ch, ch),
        ),
        max_leaves=20,
    )


def random_basic_form(rng: random.Random, atoms=("a", "b", "c", "d"),
                      max_depth: int = 6, undef: bool = False) -> BasicForm:
    leaves = [LEAF_T, LEAF_F] + ([LEAF_U] if undef else [])
    if max_depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    return Node(rng.choice(atoms),
                random_basic_form(rng, atoms, max_depth - 1, undef),
                random_basic_form(rng, atoms, max_depth - 1, undef))


def all_valuations(names: list[str]) -> list[dict[str, bool]]:
    out = []
    for bits in range(1 << len(names)):
        out.append({n: bool(bits >> i & 1) for i, n in enumerate(names)})
    return out


def stored_slots(forest) -> int:
    """Entries a forest's subst memo and rows hold: a row's unfilled (-1)
    slots are not entries."""
    return len(forest._subst) + sum(len(row) - row.count(-1)
                                    for row in forest._rows.values())


def allocated_slots(forest) -> int:
    """Slots a forest's subst memo, rows and reduce lists take, a row's
    unfilled ones included, which CACHE_MAX bounds together."""
    return len(forest._subst) + sum(map(len, forest._rows.values())) + sum(
        map(len, getattr(forest, "_reduced", {}).values()))


def stored_substs(forest):
    """Every stored result of subst, as ((p, q, r), value): the subst memo's
    entries, then each filled row slot, subst(p, x, r) at x in the row of
    (p, r)."""
    yield from forest._subst.items()
    for (p, r), row in forest._rows.items():
        for x, value in enumerate(row):
            if value >= 0:
                yield (p, x, r), value


def fresh_python(*args):
    """Run a fresh interpreter (recursion limit 1,000) with sclc importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(sclc.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
