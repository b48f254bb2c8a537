"""Axiom tables and semantic validity checking.

A Schema is an equation between open terms.  check_schema instantiates it
with closed terms and compares normal forms: the fresh-atoms strategy
substitutes distinct new atoms for the variables (a refutation here is
unconditionally sound); the exhaustive strategy additionally sweeps every
tuple of mem-basic forms over a small shared alphabet, as independent
evidence that does not presuppose substitution-invariance.

The sweep evaluates both sides as Forest.subst nodes over forest ids.  It
counts through the tuples as a mixed-radix odometer, one level per
variable, the last varying fastest (Knuth, TAOCP 4A, 7.2.1.1, Algorithm
M); a level's digit is a position in its variable's permuted domain, and
after each step only the levels from the one that changed inward are
recomputed.  A node is computed at the level of the last variable it
reads, the innermost one aside; before the sweep if it reads no other.  A
cond with a level strictly between the last two variables it reads (or
before the only one) keeps a table from the digit of the last to its
value, so the levels in between cost it one lookup a digit.  The table is
cleared at each digit of the other variable, and never if there is none,
so it holds at most one entry per digit of one level.  A node that reads
the innermost variable is a vector of one value per digit of it,
computed by subst_vector, and the innermost level only compares the two
sides' vectors.  Memorising sweeps share one MemForest, where every value
is one of finitely many mem-basic forms.  It memoises subst as a Forest
does, and keeps a row per (cond, else) pair, an array of subst indexed by
the then argument's id, filled whole (U's slot on its first read) when
opened or widened, from the rows of the cond's children: a then vector
reads the row of its cond and else branch, an else vector the row of its
negated cond and then branch, and a vector cond or a cond with two vector
arguments goes through subst element by element; a leaf cond needs no row.
A memorising check keeps its vector conds by their arguments' ids, every
vector interned (_VectorMemo), so a repeated cond is one lookup; the memo
goes with the check.  A free sweep runs in a Forest of its own, dropped
when the check returns, and computes a vector cond by one run of a
bottom-up program compiled from the cond and kept by its ids, and a cond
with vector branches from columns kept per branch vector and node, so a
node under several conds is built once per branch vector
(Forest.subst_vector); each outer level notes the forest's node count
when its digit starts from the first and, once the forest has grown a
fixed bound past it, rolls back to it as the digit advances
(Forest.rollback), which empties the forest's memos, and clears the
tables of that level and the ones inside it.  Every memo is a
cache, emptied when it reaches its bound or on a rollback and refilled by
later misses; node ids stay until a rollback forgets them.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import count
from math import gcd

from .congruence import FREE, MEM, MEM3, Mode, forest_for, normal_form
from .errors import (
    MissingBindingError, OpenTermError, SignatureError, SweepArgumentError,
    UnknownTableError,
)
from .normalform import BasicForm, Forest, MemForest, enumerate_mem_basic, render
from .syntax import (
    BINARY_TYPES, UU, Atom, Cond, Const, Not, Term, Var, atoms_of, is_closed,
    parse, rewrite, subterms, vars_of,
)
from .translate import to_core

DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class Schema:
    name: str
    lhs: Term
    rhs: Term
    mode: Mode | None = None  # set only where a table mixes modes

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(set(vars_of(self.lhs)) | set(vars_of(self.rhs))))

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(sorted(set(atoms_of(self.lhs)) | set(atoms_of(self.rhs))))

    @property
    def uses_undef(self) -> bool:
        return UU in subterms(self.lhs) or UU in subterms(self.rhs)


@dataclass(frozen=True)
class SchemaTable:
    name: str
    mode: Mode
    schemas: tuple[Schema, ...]
    expect_refuted: bool = False

    def mode_for(self, schema: Schema) -> Mode:
        return schema.mode if schema.mode is not None else self.mode


class Verdict(enum.Enum):
    PASSED_FRESH_ATOMS = "passed (fresh-atoms)"
    PASSED_EXHAUSTIVE = "passed (exhaustive)"
    REFUTED_FRESH_ATOMS = "refuted (fresh-atoms)"
    REFUTED_EXHAUSTIVE = "refuted (exhaustive)"


@dataclass(frozen=True)
class CheckResult:
    verdict: Verdict
    count: int = 1
    k: int | None = None
    budget_exceeded: bool = False
    witness: Mapping[str, Term] | None = None
    lhs_nf: BasicForm | None = None
    rhs_nf: BasicForm | None = None

    @property
    def refuted(self) -> bool:
        return self.verdict in (Verdict.REFUTED_FRESH_ATOMS,
                                Verdict.REFUTED_EXHAUSTIVE)


# rewrite rules that rebuild every node as it was.
_REBUILD = {kind: kind for kind in (Cond, Not, *BINARY_TYPES)}


def instantiate(schema: Schema, sub: Mapping[str, Term]) -> tuple[Term, Term]:
    """Simultaneous substitution of closed terms into both sides."""
    for name, image in sub.items():
        if not is_closed(image):
            raise OpenTermError(f"substitution image for {name} is open")

    def bind(t: Term) -> Term:
        if type(t) is not Var:
            return t
        if t.name not in sub:
            raise MissingBindingError(f"no binding for variable {t.name}")
        return sub[t.name]

    return rewrite(schema.lhs, _REBUILD, bind), rewrite(schema.rhs, _REBUILD, bind)


def _fresh_names(schema: Schema, count: int) -> list[str]:
    taken = set(schema.atoms)
    out = []
    i = 1
    while len(out) < count:
        name = f"v{i}"
        if name not in taken:
            out.append(name)
        i += 1
    return out


def check_schema(schema: Schema, mode: Mode, strategy: str = "fresh_atoms",
                 k: int = 2, budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Check semantic validity of a schema under the given mode.

    strategy "fresh_atoms" substitutes pairwise-distinct new atoms, assigned
    in variable name order; "exhaustive" additionally substitutes every
    tuple of mem-basic forms over k shared fresh atoms.  The tuple sweep is
    truncated at `budget` instantiations; a truncated pass is still reported
    as exhaustive but carries budget_exceeded=True.  Sweep arguments are
    validated first, see check_sweep_args.
    """
    if schema.uses_undef and not mode.three_valued:
        raise SignatureError(
            f"schema {schema.name} uses U but the mode is two-valued")
    if strategy not in ("fresh_atoms", "exhaustive"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if strategy == "exhaustive":
        check_sweep_args(k, budget, mode.three_valued)

    variables = schema.variables
    sub = {v: Atom(a) for v, a in zip(variables, _fresh_names(schema, len(variables)))}
    lhs_t, rhs_t = instantiate(schema, sub)
    forest = forest_for(mode)  # equal forms are one object
    lhs_nf = normal_form(lhs_t, mode, forest)
    rhs_nf = normal_form(rhs_t, mode, forest)
    if lhs_nf is not rhs_nf:
        return CheckResult(Verdict.REFUTED_FRESH_ATOMS, witness=sub,
                           lhs_nf=lhs_nf, rhs_nf=rhs_nf)
    if strategy == "fresh_atoms":
        return CheckResult(Verdict.PASSED_FRESH_ATOMS)
    return _exhaustive(schema, mode, k, budget)


# ---------------------------------------------------------------------------
# Exhaustive sweep
# ---------------------------------------------------------------------------

def check_sweep_args(k: int, budget: int, three_valued: bool) -> None:
    """Reject k < 0, budget < 1, and a budget below the domain size c(k) of
    enumerate_mem_basic, computed first: k = 4 would build ~10^9 trees."""
    leaves = size = 3 if three_valued else 2
    for i in range(1, k + 1):
        size = leaves + i * size * size
        if size > budget:  # c only grows with k
            break
    if k < 0 or budget < 1 or size > budget:
        raise SweepArgumentError(
            f"sweep needs k >= 0 and a budget of at least c(k) mem-basic "
            f"forms; got k={k}, budget={budget}")


# The MemForest of every memorising sweep in the process: its values stay in
# the finite mem-basic universe over the sweep alphabet, and its memos are
# shared across schemas: the k=2 checks of CPmem, EqMSCL, EqMSCL-lI,
# EqMSCL-lN and U store 34,321 subst entries (3.5 MB), 5,328 rows with
# 394,272 entries in 399,600 slots, all filled but U's (2.5 MB; 12.6 MB as
# dicts), keys included, and four reduce lists of 75 ids.  A forest per
# check made these checks slower and their peak 1 MB lower: 1.62-2.25 s
# against 1.14-1.74 s of process time in 7 alternations (a forest per
# table: 1.09-1.65 s).  Its memos are emptied whenever they reach
# CACHE_MAX, as every forest's are.
# Free values are unbounded; a free sweep runs faster in a fresh forest,
# dropped on return and rolled back past _ROLLBACK_NODES.  A check keeps
# its vector conds apart, in a _VectorMemo dropped on return.
_MEM_FOREST = MemForest()

# A _VectorMemo's bound: past it the memo is emptied and goes on.  The
# k=2 checks of the memorising tables store at most 33,336 (mem1).  At k=3
# a vector has 16,430 elements and vector conds hardly repeat: 2 hits in
# 135 in a CPmem + mem1 check at budget 300,000, which an unbounded memo
# made 6 MB larger.
_MEMO_MAX = 65_536

# A free sweep's outer level rolls back to its node count at entry after a
# digit once this many nodes were built since.  CP and EqFSCL at k=2 in
# one process peak at 150 MB unbounded, 43 MB at 100,000, 30 MB here (the
# memorising sweep tables alone: 23 MB) and 18 MB at 3,000, where they take
# 3.1-3.5 s against 1.7-2.0 s here (2 runs each, process time), as each
# rollback empties every memo, compiled program and kept column.  Rolling
# back after every digit makes EqFSCL/F7 slower (0.91-1.53 s against
# 0.68-1.12 s): its columns are dropped before most are read again.
_ROLLBACK_NODES = 30_000

# Fixed multipliers for the per-variable domain permutations of a truncated
# sweep; chosen coprime to the domain size at use.
_STRIDES = (1, 29, 41, 53, 67, 79, 97, 113)


def _permutation(j: int, size: int) -> list[int]:
    a = _STRIDES[j % len(_STRIDES)]
    while gcd(a, size) != 1:
        a += 1
    b = (7 * j + 3) % size
    return [(a * i + b) % size for i in range(size)]


class _Vector(list):
    """A vector interned by a _VectorMemo, named by key (< 0, unlike ids)."""

    __slots__ = ("key",)

    def __hash__(self) -> int:  # by value: an interned vector never changes
        return hash(tuple(self))


class _VectorMemo(dict):
    """Forest.subst_vector for one memorising check, keyed by its arguments'
    ids: a scalar's forest id, a vector's key.  Results are interned, one
    _Vector per distinct value, so a repeated cond is one lookup.  A call
    that would hold over _MEMO_MAX entries plus interned elements first
    empties the memo and the interned vectors.  Keys come from a counter,
    never reused: vectors interned before an emptying still sit in the
    sweep's slots."""

    def __init__(self, forest: MemForest):
        self.forest, self.vectors, self.keys = forest, {}, count(-1, -1)

    def intern(self, values: list[int]) -> list[int]:
        # Counts the entry and the vector that this call may add.
        if len(self) + 1 + (len(self.vectors) + 1) * len(values) > _MEMO_MAX:
            self.clear()
            self.vectors.clear()
        v = _Vector(values)
        v.key = next(self.keys)
        return self.vectors.setdefault(v, v)

    def __call__(self, x, y, z) -> list[int]:
        key = (x if type(x) is int else x.key, y if type(y) is int else y.key,
               z if type(z) is int else z.key)
        out = self.get(key)
        if out is None:
            out = self[key] = self.intern(self.forest.subst_vector(x, y, z))
        return out


def _compile(schema: Schema, var_order: list[str],
             forest: Forest) -> tuple[dict[tuple, int], int, int]:
    """Both sides' core forms as one postfix list of ops, each held once by
    value (a dict in insertion order), and the indices of the sides' ops."""
    ops: dict[tuple, int] = {}

    def add(*op) -> int:
        return ops.setdefault(op, len(ops))

    def leaf(t: Term) -> int:
        match t:
            case Const(v):
                return add("const", {"T": forest.T, "F": forest.F, "U": forest.U}[v])
            case Atom(name):
                return add("const", forest.node(name, forest.T, forest.F))
        return add("var", var_order.index(t.name))

    rules = {Cond: lambda then, cond, orelse: add("cond", cond, then, orelse)}
    return ops, *(rewrite(to_core(side), rules, leaf) for side in (schema.lhs, schema.rhs))


def _exhaustive(schema: Schema, mode: Mode, k: int, budget: int) -> CheckResult:
    mem = mode.congruence == "mem"
    forest = _MEM_FOREST if mem else Forest()
    variables = list(schema.variables)
    nvars = len(variables)
    alphabet = tuple(_fresh_names(schema, k))
    domain = [forest.from_tree(t)
              for t in enumerate_mem_basic(alphabet, mode.three_valued)]

    nodes, top_l, top_r = _compile(schema, variables, forest)

    # A node's level is the largest index among the outer variables it
    # reads; level -1 nodes are computed once, here.  A cond with a level
    # strictly between its own and the next lower one it reads (-1 if none)
    # keeps a table keyed by its own level's digit, cleared at each digit
    # of that lower level (clear_at; never if it is -1) and by a rollback
    # at or outside its own level.  The innermost variable's slot holds
    # its whole permuted domain.  Each cond keeps the function that
    # computes it: Forest.subst for scalars; for a vector the check's
    # _VectorMemo in a memorising sweep, else Forest.subst_vector.  The op
    # list is in dependency order, which the split keeps.
    last = nvars - 1
    size = len(domain)
    values = [[domain[d] for d in _permutation(j, size)] for j in range(nvars)]
    reads: list[set[int]] = []  # the outer variables each node reads
    is_vector: list[bool] = []
    var_sets: list[list[int]] = [[] for _ in range(nvars)]
    conds: list[list[tuple]] = [[] for _ in range(nvars)]
    # The tables that each level clears at each of its digits.
    clear_at: list[list[dict]] = [[] for _ in range(nvars)]
    slots: list = [0] * len(nodes)
    subst_vector = _VectorMemo(forest) if mem else forest.subst_vector

    for i, op in enumerate(nodes):
        if op[0] == "const":
            reads.append(set())
            is_vector.append(False)
            slots[i] = op[1]
        elif op[0] == "var":
            inner = op[1] == last
            reads.append(set() if inner else {op[1]})
            is_vector.append(inner)
            if inner:
                slots[i] = values[last]
                if mem:
                    slots[i] = subst_vector.intern(slots[i])
            else:
                var_sets[op[1]].append(i)
        else:
            _, a, b, c = op
            read = reads[a] | reads[b] | reads[c]
            vec = is_vector[a] or is_vector[b] or is_vector[c]
            reads.append(read)
            is_vector.append(vec)
            fn = subst_vector if vec else forest.subst
            *_, before, lvl = -1, -1, *sorted(read)  # the last two read
            if lvl < 0:
                slots[i] = fn(slots[a], slots[b], slots[c])
                continue
            table = {} if lvl - before > 1 else None
            if table is not None and before >= 0:
                clear_at[before].append(table)
            conds[lvl].append((i, fn, a, b, c, table))

    space = size ** nvars
    limit = min(space, budget)
    checked = 0
    bad: list[int] | None = None
    pos = [0] * last  # each outer level's digit: a position in values[j]
    marks = [0] * last  # a free level's node count on entry
    j = 0  # the outermost level whose digit changed
    while True:
        while j < last:
            d = pos[j]
            if d == 0 and not mem:
                marks[j] = len(forest)
            value = values[j][d]
            for i in var_sets[j]:
                slots[i] = value
            for table in clear_at[j]:
                table.clear()
            for i, fn, a, b, c, table in conds[j]:
                if table is None:
                    slots[i] = fn(slots[a], slots[b], slots[c])
                elif (out := table.get(d)) is not None:
                    slots[i] = out
                else:
                    slots[i] = table[d] = fn(slots[a], slots[b], slots[c])
            j += 1
        n = min(size, limit - checked)
        lhs, rhs = slots[top_l], slots[top_r]
        if lhs is not rhs:  # e.g. one interned vector: equal
            lhs, rhs = (v[:n] if isinstance(v, list) else [v] * n
                        for v in (lhs, rhs))
            if lhs != rhs:
                p = next(p for p in range(n) if lhs[p] != rhs[p])
                checked += p + 1
                bad = pos + [p]
                break
        checked += n
        if checked >= limit:  # at the last tuple at the latest
            break
        # Carry from the innermost outer level, where the loop above left j;
        # the check above ends the sweep before level 0 can wrap.
        while True:
            j -= 1
            if not mem and len(forest) - marks[j] > _ROLLBACK_NODES:
                forest.rollback(marks[j])  # outer slots predate it
                for level in conds[j:]:  # their tables may name dropped ids
                    for *_, table in level:
                        if table is not None:
                            table.clear()
            pos[j] += 1
            if pos[j] < size:
                break
            pos[j] = 0

    if bad is not None:
        sub = {v: render(forest.to_tree(values[j][d]))
               for j, (v, d) in enumerate(zip(variables, bad))}
        lhs_t, rhs_t = instantiate(schema, sub)
        return CheckResult(Verdict.REFUTED_EXHAUSTIVE, count=checked, k=k,
                           witness=sub,
                           lhs_nf=normal_form(lhs_t, mode),
                           rhs_nf=normal_form(rhs_t, mode))
    return CheckResult(Verdict.PASSED_EXHAUSTIVE, count=checked, k=k,
                       budget_exceeded=space > budget)


# ---------------------------------------------------------------------------
# Builtin tables
# ---------------------------------------------------------------------------

def _s(name: str, lhs: str, rhs: str, mode: Mode | None = None) -> Schema:
    return Schema(name, parse(lhs), parse(rhs), mode)


def _table(name: str, mode: Mode, schemas: list[Schema],
           expect_refuted: bool = False) -> SchemaTable:
    return SchemaTable(name, mode, tuple(schemas), expect_refuted)


def builtin_tables() -> tuple[SchemaTable, ...]:
    """Every axiom table and derived identity, with its intended mode."""
    return (
        _table("CP", FREE, [
            _s("CP1", "X <| T |> Y", "X"),
            _s("CP2", "X <| F |> Y", "Y"),
            _s("CP3", "T <| X |> F", "X"),
            _s("CP4", "X <| (Y <| Z |> P) |> Q",
               "(X <| Y |> Q) <| Z |> (X <| P |> Q)"),
            _s("CondPrime", "!(X <| Y |> !X)", "X <| !Y |> !X"),
        ]),
        _table("CPmem", MEM, [
            _s("CPmem", "X <| Y |> (Z <| P |> (Q <| Y |> R))",
               "X <| Y |> (Z <| P |> R)"),
            _s("mem1", "(X <| Y |> (Z <| P |> Q)) <| P |> R",
               "(X <| Y |> Z) <| P |> R"),
            _s("con1", "(X <| Y |> Z) <| Y |> P", "X <| Y |> P"),
            _s("con2", "X <| Y |> (Z <| Y |> P)", "X <| Y |> P"),
        ]),
        _table("EqFSCL", FREE, [
            _s("Neg", "F", "!T"),
            _s("Or", "X || Y", "!(!X && !Y)"),
            _s("Tand", "T && X", "X"),
            _s("F3", "!!X", "X"),
            _s("F5", "X && T", "X"),
            _s("F6", "F && X", "F"),
            _s("F7", "(X && Y) && Z", "X && (Y && Z)"),
            _s("F8", "!X && F", "X && F"),
            _s("F9", "(X && F) || Y", "(X || T) && Y"),
            _s("F10", "(X && Y) || (Z && F)",
               "(X || (Z && F)) && (Y || (Z && F))"),
        ]),
        _table("EqMSCL", MEM, [
            _s("Neg", "F", "!T"),
            _s("Or", "X || Y", "!(!X && !Y)"),
            _s("Tand", "T && X", "X"),
            _s("Abs", "X && (X || Y)", "X"),
            _s("Mem", "(X || Y) && Z", "(!X && (Y && Z)) || (X && Z)"),
        ]),
        _table("EqMSCL-consequences", MEM, [
            _s("F3", "!!X", "X"),
            _s("F5", "X && T", "X"),
            _s("F6", "F && X", "F"),
            _s("F7", "(X && Y) && Z", "X && (Y && Z)"),
            _s("F8", "!X && F", "X && F"),
            _s("F9", "(X && F) || Y", "(X || T) && Y"),
            _s("F10", "(X && Y) || (Z && F)",
               "(X || (Z && F)) && (Y || (Z && F))"),
            _s("C1", "X && (Y && X)", "X && Y"),
            _s("C2", "X && (Y && !X)", "X && (Y && F)"),
            _s("M1", "(X && Y) || (!X && Z)", "(!X || Y) && (X || Z)"),
            _s("M2", "(X && Y) || (!X && Z)", "(!X && Z) || (X && Y)"),
            _s("M3", "((X && Y) || (!X && Z)) && P",
               "(X && (Y && P)) || (!X && (Z && P))"),
            _s("Dis", "X && (Y || Z)", "(X && Y) || (X && Z)"),
            _s("CondByAndOr", "(X && Y) || (!X && Z)", "Y <| X |> Z"),
            _s("CondAlt", "(X && Y) || (!X && Z)", "(X || Z) && (!X || Y)"),
            _s("M3dual", "((X && Y) || (!X && Z)) || P",
               "(X && (Y || P)) || (!X && (Z || P))"),
        ]),
        _table("EqMSCL-lI", MEM, [
            _s("Or", "X || Y", "!(!X && !Y)"),
            _s("Abs", "X && (X || Y)", "X"),
            _s("Assoc", "(X && Y) && Z", "X && (Y && Z)"),
            _s("Tx", "T <-> X", "X"),
            _s("xF", "X <-> F", "!X"),
            _s("AndIff", "(X && Y) <-> Z", "(X && (Y <-> Z)) || (!X && !Z)"),
        ]),
        _table("EqMSCL-lI-consequences", MEM, [
            _s("IffByCond", "X <-> Y", "Y <| X |> (F <| Y |> T)"),
            _s("IffByAndOr", "X <-> Y", "(X && Y) || (!X && !Y)"),
            _s("TIffSym", "T <-> X", "X <-> T"),
            _s("FIffSym", "F <-> X", "X <-> F"),
            _s("NotIff", "!(X <-> Y)", "X <-> !Y"),
            _s("NotNotIff", "!X <-> !Y", "X <-> Y"),
            _s("OrTIff", "(X || T) <-> Y", "(X || T) && Y"),
            _s("IffAssoc", "(X <-> Y) <-> Z", "X <-> (Y <-> Z)"),
            _s("IffAndF", "(X <-> Y) && (Z && F)",
               "(X || (!Y && (Z && F))) && (Y && (Z && F))"),
            _s("XorByCond", "X ^^ Y", "(F <| Y |> T) <| X |> Y"),
            _s("XorDef", "X ^^ Y", "X <-> !Y"),
            _s("XorNot", "!(X ^^ Y)", "X <-> Y"),
            _s("XorByAndOr", "X ^^ Y", "(X && !Y) || (!X && Y)"),
            _s("XorF", "F ^^ X", "X"),
            _s("XorT", "X ^^ T", "!X"),
            _s("OrXor", "(X || Y) ^^ Z", "(X || (Y ^^ Z)) && (!X || !Z)"),
        ]),
        _table("EqMSCL-lN", MEM, [
            _s("N1", "F", "T ~& T"),
            _s("N2", "(T ~& X) ~& (X ~& Y)", "X"),
            _s("N3", "(X ~& (Y ~& T)) ~& Z",
               "((X ~& ((Y ~& Z) ~& T)) ~& ((X ~& T) ~& Z)) ~& T"),
        ]),
        _table("EqMSCL-lN-consequences", MEM, [
            _s("NandByNotAnd", "X ~& Y", "!(X && Y)"),
            _s("NandByCond", "X ~& Y", "(F <| Y |> T) <| X |> T"),
            _s("NotByNand", "!X", "X ~& T"),
            _s("AndByNand", "X && Y", "(X ~& Y) ~& T"),
            _s("OrByNand", "X || Y", "(X ~& T) ~& (Y ~& T)"),
            _s("DoublePrime", "(X ~& T) ~& T", "X"),
            _s("TNandSym", "T ~& X", "X ~& T"),
            _s("NandAbs", "X ~& ((X ~& T) ~& Y)", "X ~& T"),
            _s("b1", "((X ~& Y) ~& ((X ~& T) ~& Z)) ~& P",
               "(X ~& (Y ~& P)) ~& ((X ~& T) ~& (Z ~& P))"),
            _s("b2", "F ~& X", "T"),
            _s("b3", "(X ~& T) ~& ((X ~& T) ~& F)", "X"),
            _s("b4", "X ~& ((X ~& Y) ~& ((X ~& T) ~& Z))", "X ~& Y"),
            _s("b5", "X ~& ((Y ~& Z) ~& ((Y ~& T) ~& P))",
               "X ~& ((Y ~& (X ~& (Z ~& T))) ~& ((Y ~& T) ~& (X ~& (P ~& T))))"),
            _s("CondChar1", "Y <| X |> Z", "(X ~& Y) ~& ((X ~& T) ~& Z)"),
            _s("CondChar2", "Y <| X |> Z", "((X ~& T) ~& Z) ~& (X ~& Y)"),
            _s("CondChar3", "Y <| X |> Z",
               "(((X ~& T) ~& (Z ~& T)) ~& (X ~& (Y ~& T))) ~& T"),
            _s("CondChar4", "Y <| X |> Z",
               "((X ~& (Y ~& T)) ~& ((X ~& T) ~& (Z ~& T))) ~& T"),
            _s("NandSym", "(X ~& Y) ~& ((X ~& T) ~& Z)",
               "((X ~& T) ~& Z) ~& (X ~& Y)"),
            _s("NandFlip", "(X ~& Y) ~& ((X ~& T) ~& Z)",
               "(((X ~& T) ~& (Z ~& T)) ~& (X ~& (Y ~& T))) ~& T"),
            _s("NorByNand", "X ~| Y", "((X ~& T) ~& (Y ~& T)) ~& T"),
            _s("NorByCond", "X ~| Y", "F <| X |> (F <| Y |> T)"),
        ]),
        _table("U", MEM3, [
            _s("CP-U", "X <| U |> Y", "U"),
            _s("Und", "!U", "U"),
            _s("NU", "U ~& X", "U"),
        ]),
        _table("U-consequences", MEM3, [
            _s("UAnd", "U && X", "U"),
            _s("UOr", "U || X", "U"),
            _s("UIff", "U <-> X", "U"),
            _s("FAndU", "F && U", "F"),
            _s("FNandU", "F ~& U", "T"),
        ]),
        _table("negative", MEM, [
            _s("AndComm", "X && Y", "Y && X"),
            _s("OrT", "X || T", "T"),
            _s("C1free", "X && (Y && X)", "X && Y", mode=FREE),
        ], expect_refuted=True),
    )


def table_by_name(name: str) -> SchemaTable:
    for table in builtin_tables():
        if table.name == name:
            return table
    raise UnknownTableError(f"no builtin table named {name!r}")


def check_table(table: SchemaTable, strategy: str = "fresh_atoms", k: int = 2,
                budget: int = DEFAULT_BUDGET,
                three_valued: bool = False) -> list[tuple[Schema, CheckResult]]:
    """Run check_schema over a whole table.

    three_valued=True upgrades the table's mode, admitting U leaves in the
    exhaustive domain; it is never downgraded below what the table needs.
    """
    out = []
    for schema in table.schemas:
        mode = table.mode_for(schema)
        if three_valued:
            mode = Mode(mode.congruence, three_valued=True)
        out.append((schema, check_schema(schema, mode, strategy, k, budget)))
    return out
