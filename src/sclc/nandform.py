"""Normal forms in the sequential NAND signature.

A NAND normal form is a mem-basic decision tree read in the NAND
signature: Node(a, P, Q) stands for (a ~& P) ~& (a' ~& Q) with a occurring
in neither P nor Q, where a' abbreviates a ~& T.  nand_nf normalizes any
closed NAND term to such a tree by structural induction on ~&, never
through to_core or fold: p ~& q is a substitution in a MemForest of its
own, whose node rule does the paper's assume step (reduce), so every node
it makes is mem-basic.  to_munbf and from_munbf are the paper's
bijections f and g, which only relabel nodes, so here they unwrap and wrap
a MemBasicForm.  render_nand spells a tree out in the NAND signature.
"""

from __future__ import annotations

from .errors import InvariantError, OpenTermError
from .normalform import BasicForm, MemBasicForm, MemForest
from .normalform import fold_tree, is_mem_basic, tree_json
from .syntax import Atom, Const, Nand, Term, TT, emit, rewrite


is_munbf = is_mem_basic


def nand_nf(term: Term) -> BasicForm:
    """Normalize a closed term over {T, F, U, atoms, ~&}.  p ~& q is
    q' <| p |> T with q' the prime of q (its T and F leaves swapped), the
    defining equation of ~&: a subst in a MemForest, which recurses only on
    the depth of the mem-basic forms it combines.  One walk of the term
    over an explicit stack (syntax.rewrite): a term deeper than
    DEFAULT_DEPTH_LIMIT raises DepthLimitError."""
    forest = MemForest()

    def nand(p: int, q: int) -> int:
        return forest.subst(p, forest.subst(q, forest.F, forest.T), forest.T)

    def leaf(t: Term) -> int:
        if isinstance(t, Const):
            return "TFU".index(t.value)
        if isinstance(t, Atom):
            return forest.node(t.name, forest.T, forest.F)
        raise OpenTermError("nand_nf requires a closed term")

    top = rewrite(term, {Nand: nand}, leaf,
                  refuse="{} is outside the NAND signature")
    return forest.to_tree(top)


def to_munbf(p: MemBasicForm | BasicForm) -> BasicForm:
    """The bijection f: mem-basic forms to NAND normal forms."""
    return p.tree if isinstance(p, MemBasicForm) else p


def from_munbf(q: BasicForm) -> MemBasicForm:
    """The inverse bijection g; g(f(p)) == p and f(g(q)) == q."""
    return MemBasicForm(q)


def render_nand(q: BasicForm) -> Term:
    """Literal expansion into the term language, one term per distinct node:
    Node(a, P, Q) -> (a ~& P) ~& ((a ~& T) ~& Q)."""
    def node(atom: str, on_true: Term, on_false: Term) -> Term:
        a = Atom(atom)
        return Nand(Nand(a, on_true), Nand(Nand(a, TT), on_false))

    return fold_tree(q, lambda leaf: Const(leaf.value), node)


def check_munbf(p: BasicForm) -> BasicForm:
    """Identity that raises InvariantError on an invalid form."""
    if not is_munbf(p):
        raise InvariantError("tree violates the NAND normal form invariant")
    return p


def to_json(p: BasicForm) -> str:
    """JSON text: {"leaf": "T"} or {"nnode": a, "t": ..., "f": ...}."""
    return emit((p, "nnode"), tree_json)
