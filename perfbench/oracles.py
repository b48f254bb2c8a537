"""Independent checks of the outputs the workloads produce.

Each check returns None when the output is right and a one-line reason
when it is not.  The checks run outside every timed region.  They lean on
the routes the library keeps for this purpose (trace_eval, eval_tree and
the NAND pipeline) and on tree walks written here; all walks are
iterative, so a deep output cannot make a check itself fail.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from itertools import product

from sclc.congruence import eval_tree, trace_eval
from sclc.nandform import render_nand, to_munbf
from sclc.normalform import LEAF_F, LEAF_T, Leaf, Node, mbf
from sclc.syntax import Atom, Cond, Const, atoms_of, parse
from sclc.translate import decode_nand, to_core


def valuations(names):
    names = sorted(names)
    for bits in product((True, False), repeat=len(names)):
        yield dict(zip(names, bits))


def signature(term, names):
    """(value, first-inspection order) under every valuation of names."""
    out = []
    for v in valuations(names):
        value, order = trace_eval(term, v)
        out.append((value.value, tuple(order)))
    return out


def tree_signature(tree, names):
    """The same signature read off a decision tree by walking its paths."""
    out = []
    for v in valuations(names):
        order: list[str] = []
        t = tree
        while not isinstance(t, Leaf):
            if t.atom not in order:
                order.append(t.atom)
            t = t.on_true if v[t.atom] else t.on_false
        out.append((t.value, tuple(order)))
    return out


def children(n):
    """Sub-objects of a decision tree node or a core term, in field order."""
    if hasattr(n, "on_true"):
        return (n.on_true, n.on_false)
    if isinstance(n, Cond):
        return (n.then, n.cond, n.orelse)
    return ()


def expanded_size(root) -> int:
    """Node count of root read as a tree, shared subtrees counted at every
    occurrence; the work is proportional to the number of distinct objects."""
    sizes: dict[int, int] = {}
    stack = [root]
    while stack:
        n = stack[-1]
        if id(n) in sizes:
            stack.pop()
            continue
        pending = [c for c in children(n) if id(c) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        sizes[id(n)] = 1 + sum(sizes[id(c)] for c in children(n))
    return sizes[id(root)]


def fingerprint(root):
    """A hash of root's structure, equal for equal outputs within one
    process.  Plain values stand for themselves."""
    if not is_dataclass(root):
        return root
    memo: dict[int, int] = {}
    stack = [root]
    while stack:
        n = stack[-1]
        if id(n) in memo:
            stack.pop()
            continue
        if isinstance(n, Leaf):
            memo[id(n)] = hash(n.value)
            stack.pop()
            continue
        if hasattr(n, "on_true"):       # a decision tree node
            label, kids = n.atom, (n.on_true, n.on_false)
        else:
            vals = [getattr(n, f.name) for f in fields(n)]
            label = (type(n).__name__, *(repr(v) for v in vals if not is_dataclass(v)))
            kids = [v for v in vals if is_dataclass(v)]
        pending = [c for c in kids if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(n)] = hash((label, *(memo[id(c)] for c in kids)))
    return memo[id(root)]


def trees_equal(a, b) -> bool:
    """Structural equality; each pair of shared subtrees is compared once."""
    stack = [(a, b)]
    seen: set[tuple[int, int]] = set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if isinstance(x, Leaf) or isinstance(y, Leaf):
            if not (isinstance(x, Leaf) and isinstance(y, Leaf) and x.value == y.value):
                return False
            continue
        if x.atom != y.atom:
            return False
        stack += ((x.on_true, y.on_true), (x.on_false, y.on_false))
    return True


def path_unique(tree) -> bool:
    """No root-to-leaf path inspects an atom twice."""
    stack = [(tree, frozenset())]
    while stack:
        t, seen = stack.pop()
        if isinstance(t, Leaf):
            continue
        if t.atom in seen:
            return False
        seen = seen | {t.atom}
        stack += ((t.on_true, seen), (t.on_false, seen))
    return True


def term_to_tree(term):
    """Read a rendered decision tree back from a term; None if the term is
    not of the form (t <| atom |> f) over constants."""
    if isinstance(term, Const):
        return Leaf(term.value)
    if isinstance(term, Cond) and isinstance(term.cond, Atom):
        t, f = term_to_tree(term.then), term_to_tree(term.orelse)
        if t is not None and f is not None:
            return Node(term.cond.name, t, f)
    return None


def tree_json(tree):
    """The documented JSON form of a basic form."""
    if isinstance(tree, Leaf):
        return {"leaf": tree.value}
    return {"atom": tree.atom, "t": tree_json(tree.on_true),
            "f": tree_json(tree.on_false)}


def mem_equal(p, q) -> bool:
    """Memorising equivalence by the trace oracle: same value and the same
    inspection order under every valuation."""
    names = set(atoms_of(p)) | set(atoms_of(q))
    return signature(p, names) == signature(q, names)


# -- query: one check per CLI command ----------------------------------------

def check_eq(out, p, q, mode):
    """eq --mem against the trace oracle, eq --free against eval_tree."""
    if mode.congruence == "mem":
        equal = mem_equal(p, q)
    else:
        equal = trees_equal(eval_tree(p), eval_tree(q))
    rc = out[0]
    want = 0 if equal else 1
    return None if rc == want else f"exit {rc}, oracle expects {want}"


def check_norm_mem(out, term):
    rc, text = out[0], out[1]
    if rc != 0:
        return f"exit {rc}"
    printed = parse(text.strip())
    tree = term_to_tree(printed)
    if tree is None or not path_unique(tree):
        return "output is not a mem-basic form"
    names = atoms_of(term)
    if tree_signature(tree, names) != signature(term, names):
        return "normal form disagrees with trace_eval"
    return None


def check_norm_free_json(out, term):
    rc, text = out[0], out[1]
    if rc != 0:
        return f"exit {rc}"
    if json.loads(text) != tree_json(eval_tree(term)):
        return "basic form disagrees with eval_tree"
    return None


def munbf_expected(term):
    return render_nand(to_munbf(mbf(to_core(decode_nand(term)))))


def check_munbf(out, term):
    rc, text = out[0], out[1]
    if rc != 0:
        return f"exit {rc}"
    if parse(text.strip()) != munbf_expected(term):
        return "NAND normal form disagrees with the mbf route"
    return None


def check_eval(out, term, valuation):
    rc, text = out[0], out[1]
    if rc != 0:
        return f"exit {rc}"
    want = trace_eval(term, valuation)[0].value
    return None if text.strip() == want else f"printed {text.strip()!r}, trace_eval gives {want}"


# -- chains ---------------------------------------------------------------------

def check_free(tree, term):
    return None if trees_equal(tree, eval_tree(term)) else "bf disagrees with eval_tree"


def check_mem(tree, term, distinct: bool):
    """Mem-basic, and equal to the free tree where no atom repeats; over
    repeated atoms, equal by trace signature."""
    if not path_unique(tree):
        return "mem output repeats an atom on a path"
    if distinct:
        return None if trees_equal(tree, eval_tree(term)) else "mem tree differs from bf on distinct atoms"
    names = atoms_of(term)
    if tree_signature(tree, names) != signature(term, names):
        return "mem tree disagrees with trace_eval"
    return None


def check_nand(form, term):
    names = atoms_of(term)
    if not path_unique(form) or tree_signature(form, names) != signature(term, names):
        return "nand_nf disagrees with trace_eval"
    return None


def bang_tree(depth: int):
    """Normal form of !...!a (depth negations), both congruences."""
    return Node("a", LEAF_F, LEAF_T) if depth % 2 else Node("a", LEAF_T, LEAF_F)


def cond_chain_trees(depth: int):
    """Free and mem normal forms of a <| b |> (a <| b |> ( ... F)), depth
    conditionals nested to the right."""
    a = Node("a", LEAF_T, LEAF_F)
    free = LEAF_F
    for _ in range(depth):
        free = Node("b", a, free)
    return free, Node("b", a, LEAF_F)


# -- sweep ----------------------------------------------------------------------

def domain_size(k: int, three_valued: bool) -> int:
    """Mem-basic forms over k atoms: c(0) = leaves, c(k) = leaves + k c(k-1)^2."""
    leaves = 3 if three_valued else 2
    c = leaves
    for i in range(1, k + 1):
        c = leaves + i * c * c
    return c


def check_sweep(result, strategy: str, nvars: int, three_valued: bool,
                k: int, budget: int):
    want = "passed (fresh-atoms)" if strategy == "fresh_atoms" else "passed (exhaustive)"
    if result.verdict.value != want:
        return f"verdict {result.verdict.value!r}"
    if strategy == "exhaustive":
        space = domain_size(k, three_valued) ** nvars
        if result.budget_exceeded != (space > budget):
            return "budget flag disagrees with the space size"
        if result.count != min(space, budget):
            return f"checked {result.count} of {min(space, budget)} instantiations"
    return None
