"""Basic forms and mem-basic forms.

A basic form is a binary decision tree: leaves T/F (and U in the
three-valued setting), internal nodes labelled by atoms, where the left
child is the true-branch.  bf() normalizes any closed term to a basic form
(free congruence); mbf() additionally strips repeated atoms from every
root-to-leaf path (memorising congruence).  These are the basic forms of
Bergstra and Ponse, "Proposition algebra" (ACM TOCL 12(3), 2011).

bf runs on a Forest, a hash-consed DAG of decision nodes, and mbf on a
MemForest, a Forest whose node constructor applies the memorising rule;
Node objects are built only for the result, one per distinct subtree.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import combinations, product, repeat
from operator import itemgetter

from .errors import DepthLimitError, InvariantError, OpenTermError
from .syntax import ATOM_RE, DEFAULT_DEPTH_LIMIT, Atom, Cond, Const, Term, Var, emit
from .translate import to_core


@dataclass(frozen=True, slots=True)
class Leaf:
    value: str  # "T", "F" or "U"

    def __post_init__(self):
        if self.value not in ("T", "F", "U"):
            raise ValueError(f"bad leaf {self.value!r}")


LEAF_T = Leaf("T")
LEAF_F = Leaf("F")
LEAF_U = Leaf("U")


@dataclass(frozen=True, slots=True)
class Node:
    """on_true <| atom |> on_false."""

    atom: str
    on_true: "BasicForm"
    on_false: "BasicForm"


BasicForm = Leaf | Node


@dataclass(frozen=True, slots=True)
class MemBasicForm:
    """A basic form whose paths never repeat an atom; checked on wrap."""

    tree: BasicForm

    def __post_init__(self):
        if not is_mem_basic(self.tree):
            raise InvariantError("tree violates the mem-basic path invariant")


class Forest:
    """Hash-consed decision DAG with memoized normalization steps, for free
    congruence: trees are integer ids, the leaves T, F and U are 0, 1 and 2.
    A BDD unique table (Bryant, IEEE TC 1986), but nodes are only shared,
    never merged: T <| a |> T keeps its a.  subst is memoised in one dict.
    subst_vector compiles a vector cond into a program over its distinct
    nodes in id order, kept by the cond's ids, so a repeated cond is
    rebuilt without walking its DAG again.  Under vector branches it keeps
    a column per node, kept by the branch vector, so a node under several
    conds is built once per branch vector.  Programs and branch vectors
    are kept up to PROGRAMS_MAX of each at a time.  Every memo is a cache,
    emptied when full or on a rollback (_forget); node ids stay until a
    rollback forgets them."""

    # Bounds the subst memo's entries plus a MemForest's row slots, filled
    # or not, and reduce lists: a count of entries, not bytes (3 M subst
    # entries take about 0.6 GB in a plain dict).  An entry or a row fill
    # that would pass it first empties every memo (_forget) and then goes
    # on: the memos are caches, node ids stay.  CPmem at k=2, two- and
    # then three-valued, takes 2.48 M; the catalogue of valid tables
    # (tools/catalogue.py) passes the bound in EqMSCL-consequences.
    CACHE_MAX = 3_000_000
    # Bounds the compiled programs of subst_vector, and apart from them the
    # branch vectors it keeps columns for, each cleared when full.  The
    # seven sweep tables at k=2 in one process peak at 29.5-29.7 MB RSS at
    # this bound, at 1,024 and at 4,096.  Rollbacks clear both before larger
    # bounds fill: at all three CP compiles 2,100 programs for 28,214 vector
    # conds, and EqFSCL 81 for 5,558 and columns for 1,264 branch vectors
    # in 17,720 calls with vector branches.
    PROGRAMS_MAX = 256
    T, F, U = 0, 1, 2
    FORM = "bf"  # what fold gives, named in its errors
    _slots = 0  # row and reduce-list slots, which only a MemForest has

    def __init__(self):
        self._ids: dict[tuple[str, int, int], int] = {}
        self._rev: list[tuple[str, int, int] | None] = [None, None, None]
        self._trees: dict[int, BasicForm] = {0: LEAF_T, 1: LEAF_F, 2: LEAF_U}
        self._subst: dict[tuple[int, int, int], int] = {}
        self._programs: dict[tuple[int, ...], tuple] = {}  # by _program
        # subst_vector's columns, by the distinct (q_i, r_i) and then by id.
        self._columns: dict[tuple[tuple[int, int], ...], dict[int, list[int]]] = {}
        self._memos: list[dict] = [self._subst, self._programs, self._columns]

    def node(self, atom: str, on_true: int, on_false: int) -> int:
        key = (atom, on_true, on_false)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._rev)
            self._rev.append(key)
        return i

    def __len__(self) -> int:  # ids handed out, the leaves included
        return len(self._rev)

    def rollback(self, nodes: int) -> None:
        """Forget the ids from nodes on, the last ones in the unique table,
        and empty every memo, as it may name them; to_tree keeps the Node
        objects of older ids."""
        for _ in range(len(self._rev) - nodes):
            self._ids.popitem()
        del self._rev[nodes:]
        self._forget()
        self._trees = {x: t for x, t in self._trees.items() if x < nodes}

    def _forget(self) -> None:
        """Empty every memo (_memos) and count no row or reduce-list slot."""
        for memo in self._memos:
            memo.clear()
        self._slots = 0

    def from_tree(self, t: BasicForm) -> int:
        return fold_tree(t, lambda leaf: "TFU".index(leaf.value), self.node)

    def to_tree(self, i: int) -> BasicForm:
        """One Node object per distinct id: equal subtrees are shared."""
        trees, rev = self._trees, self._rev
        for x in self._below((i,), trees):
            atom, t, f = rev[x]
            trees[x] = Node(atom, trees[t], trees[f])
        return trees[i]

    def _below(self, roots: tuple[int, ...], known: dict) -> list[int]:
        """The ids at and under roots that are not keys of known, which
        holds the leaves, in increasing order: a bottom-up order, because
        node(), MemForest.node and the unique table inlined in subst_vector
        each hand out an id only after both branch ids exist."""
        rev, seen, todo = self._rev, set(), list(roots)
        while todo:
            x = todo.pop()
            if x not in seen and x not in known:
                seen.add(x)
                _, t, f = rev[x]
                todo += (t, f)
        return sorted(seen)

    def fold(self, core: Term) -> int:
        """Basic form of a to_core result, mem-basic in a MemForest, threading
        the pending continuations down as eval_tree does: linear on chains, and
        a cond is a tail call.  Memoized on id(subterm): valid while core is
        kept.  A variable raises OpenTermError."""
        memo: dict[tuple[int, int, int], int] = {}

        def go(t: Term, k_true: int, k_false: int) -> int:
            if type(t) is not Cond:
                if type(t) is Atom:
                    return self.node(t.name, k_true, k_false)
                if type(t) is Var:
                    raise OpenTermError(f"{self.FORM} requires a closed term")
                return k_true if t.value == "T" else k_false if t.value == "F" else self.U
            passed = []  # the keys of the conds taken in the loop: all give out
            while type(t) is Cond and (key := (id(t), k_true, k_false)) not in memo:
                passed.append(key)
                k_true, k_false = go(t.then, k_true, k_false), go(t.orelse, k_true, k_false)
                t = t.cond
            out = memo[key] if type(t) is Cond else go(t, k_true, k_false)
            for key in passed:
                memo[key] = out
            return out

        try:
            return go(core, self.T, self.F)
        finally:
            # go refers to itself and to this forest: break the cycle so the
            # forest is freed when the caller drops it, not by the collector.
            del go

    def subst(self, p: int, q: int, r: int) -> int:
        if p < 3:
            return (q, r, p)[p]
        key = (p, q, r)
        out = self._subst.get(key)
        if out is None:
            atom, pt, pf = self._rev[p]
            out = self.node(atom, self.subst(pt, q, r), self.subst(pf, q, r))
            if len(self._subst) + self._slots >= self.CACHE_MAX:
                self._forget()
            self._subst[key] = out
        return out

    def subst_vector(self, p, q, r) -> list[int]:
        """subst element by element: arguments that are lists are vectors of
        one length, the others are broadcast.  Two shapes write nothing to
        the subst memo.  A vector cond with scalar branches runs a compiled
        program (_program) once over one list of values seeded with q, r
        and U.  A scalar cond other than a leaf with vector branches gives
        the column of p, where the column of a node x is subst(x, q_i, r_i)
        over the distinct (q_i, r_i) pairs.  Columns are kept by those pairs
        until the next rollback, so a call builds only the columns of the
        nodes under p that have none yet, in id order (_below).  Other
        shapes go through _each."""
        vec_p, vec_q, vec_r = isinstance(p, list), isinstance(q, list), isinstance(r, list)
        if vec_p == (vec_q or vec_r) or not vec_p and p < 3:
            return self._each(p, q, r)
        ids, rev = self._ids, self._rev
        if vec_p:  # one pass over a flat list of values, slot by slot
            steps, outs = self._program(tuple(p))
            values = [q, r, self.U]
            for atom, a, b in steps:
                key = (atom, values[a], values[b])
                i = ids.get(key)  # node(), its unique table inlined
                if i is None:
                    i = ids[key] = len(rev)
                    rev.append(key)
                values.append(i)
            return list(map(values.__getitem__, outs))
        # A column per node, over the distinct (q_i, r_i) pairs.
        qs, rs = (a if isinstance(a, list) else repeat(a) for a in (q, r))
        pairs = tuple(dict.fromkeys(zip(qs, rs)))
        columns = self._columns.get(pairs)
        if columns is None:
            if len(self._columns) >= self.PROGRAMS_MAX:
                self._columns.clear()
            columns = self._columns[pairs] = {
                self.T: [a for a, _ in pairs], self.F: [b for _, b in pairs],
                self.U: [self.U] * len(pairs)}
        for x in self._below((p,), columns):
            atom, t, f = rev[x]
            column = []
            for key in zip(repeat(atom), columns[t], columns[f]):
                i = ids.get(key)
                if i is None:
                    i = ids[key] = len(rev)
                    rev.append(key)
                column.append(i)
            columns[x] = column
        if len(pairs) == len(q if vec_q else r):  # no pair repeats: in order
            return list(columns[p])
        results = dict(zip(pairs, columns[p]))
        return [results[pair] for pair in zip(qs, rs)]

    def _each(self, p, q, r) -> list[int]:
        """subst_vector through subst element by element; a leaf cond gives
        the then branch if T, the else branch if F, a U broadcast if U."""
        vec_p, vec_q = isinstance(p, list), isinstance(q, list)
        if not (vec_p or vec_q or isinstance(r, list)):
            raise ValueError("subst_vector needs a vector argument")
        if not vec_p and p < 3:  # no row, no program
            out = (q, r, self.U)[p]
            n = len(q if vec_q else r)
            return list(out) if isinstance(out, list) else [out] * n
        return list(map(self.subst, *(a if isinstance(a, list) else repeat(a)
                                      for a in (p, q, r))))

    def _program(self, p: tuple[int, ...]) -> tuple[list, list[int]]:
        """The distinct nodes of the p_i in id order (_below), as steps
        (atom, then slot, else slot), and the slot of each p_i.  Slots 0, 1
        and 2 hold the values of the leaves T, F and U, slot 3 + s the value
        of step s.  Kept by p, at most PROGRAMS_MAX at a time; rollback()
        drops them all, as the ids they name may be handed out again."""
        program = self._programs.get(p)
        if program is None:
            if len(self._programs) >= self.PROGRAMS_MAX:
                self._programs.clear()
            slots = {self.T: 0, self.F: 1, self.U: 2}
            steps: list[tuple[str, int, int]] = []
            for x in self._below(p, slots):
                atom, t, f = self._rev[x]
                slots[x] = 3 + len(steps)
                steps.append((atom, slots[t], slots[f]))
            program = self._programs[p] = steps, [slots[x] for x in p]
        return program


class MemForest(Forest):
    """A Forest for memorising congruence: node(a, t, f) first reduces t by
    a = T and f by a = F, so fold, subst and from_tree give mem-basic forms
    (from_tree is mf).  It also keeps a then-row per (p, r) for vector
    branches: subst(p, x, r) for each id x, in an array('i') indexed by x,
    as wide as the forest when opened and widened in place as it grows (a
    dense computed table, Brace, Rudell and Bryant, DAC 1990).  A row's new
    slots are filled whole (_row), all but the slot of U, which holds -1
    until its first read, then subst(p, U, r): filled up front, it would
    build U-forms in a two-valued check.  As x <| p |> y = y <| not p |> x,
    an else vector reads the then-row of the negated cond, so one row kind
    serves both branches.  Per node, a bitmask of the atoms at and below it
    lets reduce() skip subtrees without its atom.  The reduce memo, rows
    and reduce lists are emptied with every other memo (_forget)."""

    FORM = "mbf"

    def __init__(self):
        super().__init__()
        self._mask: list[int] = [0, 0, 0]
        self._bits: dict[str, int] = {}
        self._reduce: dict[tuple[int, str, bool], int] = {}
        self._rows: dict[tuple[int, int], array] = {}
        # reduce(x, atom, assume) for each id x, by (atom, assume): the two
        # reductions of node() for a whole row at once.
        self._reduced: dict[tuple[str, bool], list[int]] = {}
        self._memos += [self._reduce, self._rows, self._reduced]

    def node(self, atom: str, on_true: int, on_false: int) -> int:
        t, f = self.reduce(on_true, atom, True), self.reduce(on_false, atom, False)
        i = Forest.node(self, atom, t, f)
        if i == len(self._mask):  # a new id
            bit = self._bits.setdefault(atom, 1 << len(self._bits))
            self._mask.append(bit | self._mask[t] | self._mask[f])
        return i

    def rollback(self, nodes: int) -> None:
        super().rollback(nodes)
        del self._mask[nodes:]

    def reduce(self, p: int, atom: str, assume: bool) -> int:
        if not self._mask[p] & self._bits.get(atom, 0):
            return p
        key = (p, atom, assume)
        out = self._reduce.get(key)
        if out is None:
            a, t, f = self._rev[p]
            if a == atom:
                out = self.reduce(t if assume else f, atom, assume)
            else:
                out = self.node(a, self.reduce(t, atom, assume),
                                self.reduce(f, atom, assume))
            self._reduce[key] = out
        return out

    def subst_vector(self, p, q, r) -> list[int]:
        """As Forest.subst_vector but with no program or column, which
        would bypass node(): a lone vector branch reads one row (_then), a
        then vector that of (p, r), an else vector that of (not p, q);
        others _each."""
        vec_q, vec_r = isinstance(q, list), isinstance(r, list)
        if vec_q != vec_r and type(p) is int and p > 2:
            return (self._then(p, r, q) if vec_q
                    else self._then(self.subst(p, self.F, self.T), q, r))
        return self._each(p, q, r)

    def _then(self, p: int, r: int, xs: list[int]) -> list[int]:
        """subst(p, x, r) for each x of xs, p not a leaf, read from the
        then-row of (p, r), which _row opens, or widens when an x is past
        its width.  The slot of U is subst(p, U, r), stored on its first
        read."""
        row = self._rows.get((p, r))
        if row is None or len(row) < len(self._rev) and max(xs, default=0) >= len(row):
            row = self._row(p, r, len(self._rev))
        read = (itemgetter(*xs) if len(xs) > 1  # of one x it gives no tuple
                else lambda row: [row[x] for x in xs])
        out = list(read(row))
        if -1 in out:
            row[self.U] = self.subst(p, self.U, r)
            out = list(read(row))
        return out

    def _row(self, p: int, r: int, width: int) -> array:
        """The then-row of (p, r), p not a leaf, at least width slots wide.
        A missing row is opened, and a narrower one widened in place, to
        the forest's width n, its new slots filled in one pass from the
        rows of p's children with the same r, at least n wide: the slot of
        x is node(atom, t_x, e_x) for the children's slots t_x and e_x (a
        leaf child gives x, r or U), through the reduce lists and one
        unique-table lookup each.  If the new slots and reduce lists do
        not fit under CACHE_MAX, the memos are emptied first and the row
        is opened whole.  The recursion is as deep as p's atoms are many:
        mem-basic paths never repeat one."""
        row = self._rows.get((p, r))
        if row is not None and len(row) >= width:
            return row
        n, (atom, t, e) = len(self._rev), self._rev[p]
        kids = [c if c < 3 else self._row(c, r, n) for c in (t, e)]
        # The children's slots, r and U are ids below m: a reduce list
        # that long covers them.  A child's fill may have emptied the
        # memos, this row with them.
        m, assumes = len(self._rev), (True, False)
        row = self._rows.get((p, r))
        lo = 0 if row is None else len(row)
        reds = [self._reduced.get((atom, b), []) for b in assumes]
        new = n - lo + sum(m - len(red) for red in reds)
        if len(self._subst) + self._slots + new > self.CACHE_MAX:
            self._forget()
            row, lo, reds, new = None, 0, [[], []], n + 2 * m
        self._slots += new
        for b, red in zip(assumes, reds):
            red += map(self.reduce, range(len(red), m), repeat(atom), repeat(b))
            self._reduced[atom, b] = red
        xs = range(lo, n) if lo else [0, 1, *range(3, n)]  # not U's slot
        ts, es = (map(kid.__getitem__, xs) if type(kid) is array else xs if kid == self.T
                  else repeat(r if kid == self.F else self.U, len(xs)) for kid in kids)
        keys = list(zip(repeat(atom), map(reds[0].__getitem__, ts),
                        map(reds[1].__getitem__, es)))
        slots = list(map(self._ids.get, keys))
        if None in slots:  # node() for the misses: reduced, so mask skips
            slots = [self.node(*key) if i is None else i
                     for i, key in zip(slots, keys)]
        if lo:
            row.extend(slots)
        else:
            slots.insert(self.U, -1)
            row = self._rows[p, r] = array("i", slots)
        return row


def subst_tf(p: BasicForm, q: BasicForm, r: BasicForm) -> BasicForm:
    """Replace every T leaf of p by q and every F leaf by r.

    U leaves are fixed points: once evaluation is undefined the pending
    branches are discarded, which is what makes x <| U |> y collapse to U.
    """
    f = Forest()
    return f.to_tree(f.subst(f.from_tree(p), f.from_tree(q), f.from_tree(r)))


def _normalize(term: Term, forest: Forest | None, kind: type[Forest]) -> BasicForm:
    core = to_core(term)
    # The recursion below is bounded by the depth of the trees built, which
    # can exceed the input depth (though not the input size); give it room.
    # The library's one change to interpreter state, bounded by a constant.
    if sys.getrecursionlimit() < DEFAULT_DEPTH_LIMIT + 2_000:
        sys.setrecursionlimit(DEFAULT_DEPTH_LIMIT + 2_000)
    if forest is None:
        forest = kind()
    elif type(forest) is not kind:
        raise ValueError("the forest's congruence does not match the call")
    try:
        return forest.to_tree(forest.fold(core))
    except RecursionError:
        raise DepthLimitError("normal form grew past the recursion guard") from None


def bf(term: Term, forest: Forest | None = None) -> BasicForm:
    """Normalize a closed term to its basic form (free congruence).  The
    result shares equal subtrees.  Forms normalized in one forest are equal
    iff they are the same object; by default each call has its own.  A
    passed forest must have the call's congruence, else ValueError.  A
    term deeper than DEFAULT_DEPTH_LIMIT raises DepthLimitError."""
    return _normalize(term, forest, Forest)


def reduce(p: BasicForm, atom: str, assume: bool) -> BasicForm:
    """Remove every occurrence of an atom whose value is taken as known.

    assume=True keeps true-branches (left-a-reduction), assume=False keeps
    false-branches (right-a-reduction); other nodes are rebuilt as is.
    """
    f = Forest()
    return f.to_tree(fold_tree(p, lambda leaf: "TFU".index(leaf.value),
                               lambda a, t, e: (t if assume else e) if a == atom
                               else f.node(a, t, e)))


def mf(p: BasicForm) -> BasicForm:
    """Strip repeated atoms below each node, making the tree mem-basic."""
    f = MemForest()
    return f.to_tree(f.from_tree(p))


def mbf(term: Term, forest: MemForest | None = None) -> MemBasicForm:
    """Normalize a closed term under memorising congruence: bf's one fold,
    in a MemForest, whose node constructor applies the memorising rule
    once.  Sharing, a passed forest and the depth limit as in bf()."""
    return MemBasicForm(_normalize(term, forest, MemForest))


def is_mem_basic(p: BasicForm) -> bool:
    """True iff no node's atom occurs below it, i.e. no root-to-leaf path
    inspects an atom twice.  Linear in the distinct nodes of p."""
    bits: dict[str, int] = {}

    def node(atom: str, lo: int, hi: int) -> int:
        # The atoms at and below as a bitmask; -1, a repeat, has every bit set.
        bit = bits.setdefault(atom, 1 << len(bits))
        return -1 if (lo | hi) & bit else lo | hi | bit

    return fold_tree(p, lambda leaf: 0, node) >= 0


def fold_tree(p: BasicForm, leaf, node):
    """Fold a tree bottom-up, once per distinct object: a Leaf l gives
    leaf(l), a Node node(atom, r_true, r_false) of its branches' results.
    Postorder, true branch first, over an explicit stack: deep trees need
    no recursion."""
    done: dict[int, object] = {}  # id() of a folded object -> its result
    todo = [p]
    while todo:
        t = todo.pop()
        if id(t) in done:
            continue
        if type(t) is Leaf:
            done[id(t)] = leaf(t)
        elif id(t.on_true) in done and id(t.on_false) in done:
            done[id(t)] = node(t.atom, done[id(t.on_true)], done[id(t.on_false)])
        else:  # back to t once its branches are folded
            todo += (t, t.on_false, t.on_true)
    return done[id(p)]


def render(p: BasicForm) -> Term:
    """The injection back into the term language, one Cond per distinct node."""
    return fold_tree(p, lambda leaf: Const(leaf.value),
                     lambda atom, t, f: Cond(t, Atom(atom), f))


def tree_json(item: tuple[BasicForm, str]) -> tuple:
    """emit's pieces for the JSON of a tree, with key naming a node's atom:
    {"leaf": "T"} or {key: a, "t": ..., "f": ...}, from (tree, key).  Atom
    names match ATOM_RE, so nothing needs escaping."""
    p, key = item
    if isinstance(p, Leaf):
        return ('{"leaf": "%s"}' % p.value,)
    return ('{"%s": "%s", "t": ' % (key, p.atom), (p.on_true, key), ', "f": ',
            (p.on_false, key), "}")


def to_json(p: BasicForm) -> str:
    """JSON text: {"leaf": "T"} or {"atom": a, "t": ..., "f": ...}."""
    return emit((p, "atom"), tree_json)


def enumerate_mem_basic(atoms: tuple[str, ...],
                        three_valued: bool = False) -> list[BasicForm]:
    """All mem-basic forms over the given alphabet, in a fixed order.

    Counts follow c(0) = |leaves| and c(k) = |leaves| + k * c(k-1)^2, so
    2 atoms give 74 two-valued forms and 291 three-valued ones.  A name
    that is no atom name, or that repeats, raises ValueError.
    """
    atoms = tuple(atoms)
    if len(set(atoms)) < len(atoms) or not all(map(ATOM_RE.match, atoms)):
        raise ValueError(f"bad or repeated atom name in {atoms!r}")
    leaves: list[BasicForm] = [LEAF_T, LEAF_F] + ([LEAF_U] if three_valued else [])
    # The forms over each sub-alphabet, smallest first, so equal subforms
    # are one object.
    forms = {(): leaves}
    for n in range(1, len(atoms) + 1):
        for alphabet in combinations(atoms, n):
            out = list(leaves)
            for i, a in enumerate(alphabet):
                sub = forms[alphabet[:i] + alphabet[i + 1:]]
                out += [Node(a, l, r) for l, r in product(sub, sub)]
            forms[alphabet] = out
    return forms[atoms]
