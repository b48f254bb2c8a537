"""Equivalence decision and evaluation semantics.

Two closed terms are equivalent iff their normal forms coincide: basic
forms under free congruence, mem-basic forms under memorising congruence.
trace_eval is the independent oracle: it interprets terms directly with a
memo table and records the order in which atoms are first inspected.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import count

from .errors import OpenTermError, UnboundAtomError
from .normalform import LEAF_T, LEAF_F, LEAF_U, BasicForm, Forest, Leaf, MemForest, Node, bf, mbf
from .syntax import (
    And, Atom, Cond, Const, Iff, Nand, Nor, Not, Or, Term, Var, Xor, emit,
)


@dataclass(frozen=True, slots=True)
class Mode:
    congruence: str  # "free" or "mem"
    three_valued: bool = False

    def __post_init__(self):
        if self.congruence not in ("free", "mem"):
            raise ValueError(f"bad congruence {self.congruence!r}")


FREE = Mode("free")
MEM = Mode("mem")
FREE3 = Mode("free", three_valued=True)
MEM3 = Mode("mem", three_valued=True)


class TruthValue3(enum.Enum):
    TRUE = "T"
    FALSE = "F"
    UNDEF = "U"


def normal_form(term: Term, mode: Mode, forest: Forest | None = None) -> BasicForm:
    """The mode's canonical tree for a closed term; forest as in bf()."""
    if mode.congruence == "free":
        return bf(term, forest=forest)
    return mbf(term, forest=forest).tree


def forest_for(mode: Mode) -> Forest:
    """A new forest of the mode's congruence: MemForest or Forest."""
    return MemForest() if mode.congruence == "mem" else Forest()


def equiv(p: Term, q: Term, mode: Mode) -> bool:
    """Decide derivability of p = q in the mode's axiom system."""
    forest = forest_for(mode)
    return normal_form(p, mode, forest) is normal_form(q, mode, forest)


def evaluate(term: Term, valuation: Mapping[str, bool]) -> TruthValue3:
    """Walk the mem-basic form of the term under the valuation.

    Memorising semantics is automatic: each path inspects an atom at most
    once.  Atoms missing from the valuation are an error, not undefined;
    U enters only through the constant.
    """
    tree = mbf(term).tree
    while isinstance(tree, Node):
        if tree.atom not in valuation:
            raise UnboundAtomError(tree.atom)
        tree = tree.on_true if valuation[tree.atom] else tree.on_false
    return TruthValue3(tree.value)


def trace_eval(term: Term,
               valuation: Mapping[str, bool]) -> tuple[TruthValue3, list[str]]:
    """Short-circuit left-to-right interpreter with a memo table.

    No normalization: this is the oracle the normal-form route is checked
    against.  Returns the result and the first-inspection order of atoms;
    memoized re-inspections do not re-append.
    """
    memo: dict[str, bool] = {}
    order: list[str] = []

    T, F, U = TruthValue3.TRUE, TruthValue3.FALSE, TruthValue3.UNDEF

    def flip(v: TruthValue3) -> TruthValue3:
        if v is T:
            return F
        if v is F:
            return T
        return U

    def ev(t: Term) -> TruthValue3:
        match t:
            case Const(c):
                return TruthValue3(c)
            case Atom(name):
                if name not in memo:
                    if name not in valuation:
                        raise UnboundAtomError(name)
                    memo[name] = valuation[name]
                    order.append(name)
                return T if memo[name] else F
            case Var():
                raise OpenTermError("trace_eval requires a closed term")
            case Cond(then, cond, orelse):
                c = ev(cond)
                if c is U:
                    return U
                return ev(then) if c is T else ev(orelse)
            case Not(x):
                return flip(ev(x))
            case And(x, y):
                l = ev(x)
                return ev(y) if l is T else l
            case Or(x, y):
                l = ev(x)
                return ev(y) if l is F else l
            case Iff(x, y):
                l = ev(x)
                if l is U:
                    return U
                r = ev(y)
                return r if l is T else flip(r)
            case Xor(x, y):
                l = ev(x)
                if l is U:
                    return U
                r = ev(y)
                return flip(r) if l is T else r
            case Nand(x, y):
                l = ev(x)
                if l is U:
                    return U
                return flip(ev(y)) if l is T else T
            case Nor(x, y):
                l = ev(x)
                if l is U:
                    return U
                return F if l is T else flip(ev(y))
        raise AssertionError(f"unhandled term {t!r}")

    return ev(term), order


def eval_tree(term: Term) -> BasicForm:
    """Continuation-style construction of the free evaluation tree.

    Independent re-implementation of the basic form function: instead of
    substituting into already-built trees it threads the pending true/false
    continuations downward.  Agrees with bf() node for node.
    """

    def go(t: Term, k_true: BasicForm, k_false: BasicForm) -> BasicForm:
        match t:
            case Const("T"):
                return k_true
            case Const("F"):
                return k_false
            case Const("U"):
                return LEAF_U
            case Atom(name):
                return Node(name, k_true, k_false)
            case Var():
                raise OpenTermError("eval_tree requires a closed term")
            case Cond(then, cond, orelse):
                return go(cond, go(then, k_true, k_false), go(orelse, k_true, k_false))
            case Not(x):
                return go(x, k_false, k_true)
            case And(x, y):
                return go(x, go(y, k_true, k_false), k_false)
            case Or(x, y):
                return go(x, k_true, go(y, k_true, k_false))
            case Iff(x, y):
                return go(x, go(y, k_true, k_false), go(y, k_false, k_true))
            case Xor(x, y):
                return go(x, go(y, k_false, k_true), go(y, k_true, k_false))
            case Nand(x, y):
                return go(x, go(y, k_false, k_true), k_true)
            case Nor(x, y):
                return go(x, k_false, go(y, k_false, k_true))
        raise AssertionError(f"unhandled term {t!r}")

    return go(term, LEAF_T, LEAF_F)


def to_dot(p: BasicForm) -> str:
    """Graphviz rendering of a decision tree's DAG.

    One circle per Node object, however many parents it has, and one box
    per leaf occurrence, named by preorder index; true-edges are labelled T
    and false-edges F.  One emit, so deep trees need no recursion.
    """
    names: dict[int, int] = {}  # id() of a drawn Node -> its index
    index = count()

    def draw(item: tuple) -> tuple:  # a subtree, and the line into it
        t, into = item  # "{}" in the line stands for t's index
        if id(t) in names:
            return (into.format(names[id(t)]),)
        me = next(index)
        if isinstance(t, Leaf):
            return f'  n{me} [label="{t.value}", shape=box];\n', into.format(me)
        names[id(t)] = me
        return (f'  n{me} [label="{t.atom}", shape=circle];\n',
                (t.on_true, f'  n{me} -> n{{}} [label="T"];\n'),
                (t.on_false, f'  n{me} -> n{{}} [label="F"];\n'), into.format(me))

    return "digraph basicform {\n" + emit((p, ""), draw) + "}"
