"""Normal forms in the sequential NAND signature.

A NAND normal form is a mem-basic decision tree read in the NAND
signature: Node(a, P, Q) stands for (a ~& P) ~& (a' ~& Q) with a occurring
in neither P nor Q, where a' abbreviates a ~& T.  nand_nf normalizes any
closed NAND term to such a tree by structural induction, independently of
mbf; to_munbf and from_munbf are the paper's bijections f and g, which
only relabel nodes, so here they unwrap and wrap a MemBasicForm.
render_nand spells a tree out in the NAND signature.
"""

from __future__ import annotations

from .errors import InvariantError, OpenTermError, UnsupportedConnective
from .normalform import BasicForm, Leaf, LEAF_T, LEAF_F, LEAF_U, MemBasicForm, Node
from .normalform import is_mem_basic
from .syntax import Atom, Const, Nand, Term, TT, Var


is_munbf = is_mem_basic


def assume(p: BasicForm, atom: str, value: bool) -> BasicForm:
    """Remove an atom's nodes given its evaluation result.

    value=True keeps the true-subtree of matching nodes, value=False the
    false-subtree; leaves are fixed.  A kept subtree is not searched, so
    the result is free of atom only if p is mem-basic:
    assume(Node(a, Node(a, T, F), F), a, True) is Node(a, T, F).
    """
    if isinstance(p, Leaf):
        return p
    if p.atom == atom:
        return p.on_true if value else p.on_false
    return Node(p.atom, assume(p.on_true, atom, value),
                assume(p.on_false, atom, value))


def complement_leaves(p: BasicForm) -> BasicForm:
    """Swap T and F leaves, fixing U: the tree-level meaning of priming."""
    if isinstance(p, Leaf):
        if p.value == "T":
            return LEAF_F
        if p.value == "F":
            return LEAF_T
        return p
    return Node(p.atom, complement_leaves(p.on_true), complement_leaves(p.on_false))


def _combine(p: BasicForm, q: BasicForm) -> BasicForm:
    """Normal form of (p ~& q) for normalized arguments.

    T ~& q complements q's leaves; F ~& q is T; U ~& q is U.  For a node,
    push q into both branches and drop the re-introduced root atom, whose
    value is known on each side.
    """
    if isinstance(p, Leaf):
        if p.value == "T":
            return complement_leaves(q)
        if p.value == "F":
            return LEAF_T
        return LEAF_U
    return Node(p.atom,
                assume(_combine(p.on_true, q), p.atom, True),
                assume(_combine(p.on_false, q), p.atom, False))


def nand_nf(term: Term) -> BasicForm:
    """Normalize a closed term over {T, F, U, atoms, ~&}."""
    match term:
        case Const(v):
            return Leaf(v)
        case Atom(name):
            return Node(name, LEAF_T, LEAF_F)
        case Var():
            raise OpenTermError("nand_nf requires a closed term")
        case Nand(x, y):
            return _combine(nand_nf(x), nand_nf(y))
        case _:
            raise UnsupportedConnective(
                f"{type(term).__name__} is outside the NAND signature")


def to_munbf(p: MemBasicForm | BasicForm) -> BasicForm:
    """The bijection f: mem-basic forms to NAND normal forms."""
    return p.tree if isinstance(p, MemBasicForm) else p


def from_munbf(q: BasicForm) -> MemBasicForm:
    """The inverse bijection g; g(f(p)) == p and f(g(q)) == q."""
    return MemBasicForm(q)


def render_nand(q: BasicForm) -> Term:
    """Literal expansion into the term language:
    Node(a, P, Q) -> (a ~& P) ~& ((a ~& T) ~& Q)."""
    if isinstance(q, Leaf):
        return Const(q.value)
    a = Atom(q.atom)
    return Nand(Nand(a, render_nand(q.on_true)),
                Nand(Nand(a, TT), render_nand(q.on_false)))


def check_munbf(p: BasicForm) -> BasicForm:
    """Identity that raises InvariantError on an invalid form."""
    if not is_munbf(p):
        raise InvariantError("tree violates the NAND normal form invariant")
    return p


def to_json(p: BasicForm):
    """JSON form: {"leaf": "T"} or {"nnode": a, "t": ..., "f": ...}."""
    if isinstance(p, Leaf):
        return {"leaf": p.value}
    return {"nnode": p.atom, "t": to_json(p.on_true), "f": to_json(p.on_false)}
