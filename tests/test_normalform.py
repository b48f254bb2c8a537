import gc
import hashlib
import itertools
import json
import random

import pytest

from conftest import (
    allocated_slots, all_valuations, fresh_python, random_basic_form,
    random_term, stored_slots, stored_substs,
)
from sclc import axioms
from sclc.axioms import check_schema, table_by_name
from sclc.congruence import MEM, TruthValue3, eval_tree, to_dot, trace_eval
from sclc.errors import DepthLimitError, InvariantError, OpenTermError
from sclc.nandform import nand_nf
from sclc.normalform import (
    LEAF_F, LEAF_T, LEAF_U, Forest, Leaf, MemBasicForm, MemForest, Node, bf,
    enumerate_mem_basic, fold_tree, is_mem_basic, mbf, mf, reduce, render,
    subst_tf, to_json,
)
from sclc.syntax import (
    DEFAULT_DEPTH_LIMIT, And, Atom, Cond, Iff, Not, Or, Var, Xor, parse,
)
from sclc.translate import to_core

a, b = "a", "b"
Q = Node("q", LEAF_T, LEAF_F)
R = Node("r", LEAF_F, LEAF_T)


class TestSubstTf:
    def test_true_leaf(self):
        assert subst_tf(LEAF_T, Q, R) == Q

    def test_false_leaf(self):
        assert subst_tf(LEAF_F, Q, R) == R

    def test_node(self):
        assert subst_tf(Node(a, LEAF_T, LEAF_F), Q, R) == Node(a, Q, R)

    def test_undef_leaf_fixed(self):
        assert subst_tf(LEAF_U, Q, R) == LEAF_U

    def test_undef_fixed_point_matches_semantics(self):
        # x <| U |> y must collapse to U whatever the branches are: check
        # against the direct interpreter on every small branch pair.
        rng = random.Random(1)
        for _ in range(50):
            q = random_basic_form(rng, atoms=("a", "b"), max_depth=3)
            r = random_basic_form(rng, atoms=("a", "b"), max_depth=3)
            term = parse("(" + f"{_txt(q)}" + ") <| U |> (" + _txt(r) + ")")
            assert mbf(term).tree == LEAF_U
            for v in all_valuations(["a", "b"]):
                assert trace_eval(term, v) == (TruthValue3.UNDEF, [])


def _txt(tree):
    from sclc.syntax import print_term

    return print_term(render(tree), "ascii")


class TestBf:
    def test_atom(self):
        assert bf(Atom("a")) == Node(a, LEAF_T, LEAF_F)

    def test_or(self):
        assert bf(parse("a || b")) == Node(a, LEAF_T, Node(b, LEAF_T, LEAF_F))

    def test_free_congruence_keeps_duplicates(self):
        assert bf(parse("a && a")) == Node(a, Node(a, LEAF_T, LEAF_F), LEAF_F)

    def test_constants(self):
        assert bf(parse("T")) == LEAF_T
        assert bf(parse("F")) == LEAF_F
        assert bf(parse("U")) == LEAF_U

    def test_open_term_rejected(self):
        with pytest.raises(OpenTermError, match="^bf requires"):
            bf(Var("X"))
        with pytest.raises(OpenTermError, match="^mbf requires"):
            mbf(Var("X"))

    def test_fixed_point_on_basic_forms(self):
        rng = random.Random(2)
        for _ in range(300):
            p = random_basic_form(rng, max_depth=5, undef=True)
            assert bf(render(p)) == p

    def test_depth_guard(self):
        t = Atom("a")
        for _ in range(DEFAULT_DEPTH_LIMIT):
            t = Not(t)
        # Depth 10,000 is accepted (the negations cancel), 10,001 is not.
        to_core(t)
        assert bf(t) == Node(a, LEAF_T, LEAF_F)
        assert mbf(t).tree == Node(a, LEAF_T, LEAF_F)
        for walk in (to_core, bf, mbf):
            with pytest.raises(DepthLimitError, match="^term depth exceeds limit 10000$"):
                walk(Not(t))

    def test_variable_in_a_shared_operand(self):
        # to_core shares the right operand of <-> and ^^; the fold still
        # reaches the variable in it.
        for ctor in (Iff, Xor):
            with pytest.raises(OpenTermError, match="^bf requires a closed term$"):
                bf(ctor(Atom("a"), Var("X")))
            with pytest.raises(OpenTermError, match="^mbf requires a closed term$"):
                mbf(ctor(Atom("a"), Var("X")))

    def test_open_and_too_deep_is_a_depth_error(self):
        # The one lowering walk checks depth before the fold meets a variable.
        t = Var("X")
        for _ in range(DEFAULT_DEPTH_LIMIT + 1):
            t = Not(t)
        with pytest.raises(DepthLimitError):
            bf(t)

    def test_right_nested_connectives_fold_one_frame_per_level(self):
        # to_core puts the right operand of ~&, ~| and ^^ under the cond of
        # a branch; the fold takes a cond as a tail call.
        done = fresh_python("-c", RIGHT_NESTED_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "Nand": ["a0", "a0"], "Nor": ["a0", "a0"], "Xor": ["a0", "a0"],
            "mbf is nand_nf": True}

    def test_balanced_conjunction_over_many_atoms(self):
        # A term 15 levels deep whose forms are chains 16,384 nodes deep.
        n = 16_384
        level = [Atom(f"x{i}") for i in range(n)]
        while len(level) > 1:
            level = [And(x, y) for x, y in zip(level[::2], level[1::2])]
        t = level[0]
        for form in (bf(t), mbf(t).tree, mbf(And(Atom("x0"), t)).tree):
            for i in range(n):
                assert (form.atom, form.on_false) == (f"x{i}", LEAF_F)
                form = form.on_true
            assert form is LEAF_T

    def test_ids_come_after_their_branches(self):
        # Forest._below reads increasing ids as a bottom-up order.
        rng = random.Random(11)
        forest = Forest()
        for _ in range(200):
            bf(random_term(rng, max_depth=5, undef=True), forest)
        assert len(forest) > 3
        for i, (_, t, e) in enumerate(forest._rev[3:], 3):
            assert t < i and e < i

    def test_leaves_no_cycle_for_the_collector(self):
        # A reference cycle through the forest would keep every table alive
        # until the cycle collector runs.
        t = parse("(a ~& b) ~& (c <-> (a ~& d))")
        nand = parse("(a ~& b) ~& (c ~& (a ~& d))")  # nand_nf takes ~& only
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for normalize, term in ((bf, t), (mbf, t), (nand_nf, nand)):
                normalize(term)
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestReduce:
    def test_assume_true_drops_node(self):
        assert reduce(Node(a, LEAF_T, LEAF_F), a, True) == LEAF_T

    def test_assume_false_recurses(self):
        tree = Node(b, Node(a, LEAF_T, LEAF_F), LEAF_F)
        assert reduce(tree, a, False) == Node(b, LEAF_F, LEAF_F)

    def test_leaf_fixed(self):
        assert reduce(LEAF_U, a, True) == LEAF_U

    def test_matches_a_recursive_reduction(self):
        def recursive(p, atom, assume):
            if isinstance(p, Leaf):
                return p
            if p.atom == atom:
                return recursive(p.on_true if assume else p.on_false, atom, assume)
            return Node(p.atom, recursive(p.on_true, atom, assume),
                        recursive(p.on_false, atom, assume))

        rng = random.Random(19)
        for i in range(600):
            p = random_basic_form(rng, (a, b, "c"), 5, undef=i % 2 == 1)
            for atom, assume in itertools.product((a, b, "d"), (True, False)):
                assert reduce(p, atom, assume) == recursive(p, atom, assume)


class TestMf:
    def test_worked_example(self):
        # ((F <| a |> T) <| b |> F) <| a |> F contracts to (F <| b |> F) <| a |> F
        tree = Node(a, Node(b, Node(a, LEAF_F, LEAF_T), LEAF_F), LEAF_F)
        assert mf(tree) == Node(a, Node(b, LEAF_F, LEAF_F), LEAF_F)

    def test_leaf(self):
        assert mf(LEAF_T) == LEAF_T

    def test_already_mem_basic(self):
        assert mf(Node(a, LEAF_T, LEAF_F)) == Node(a, LEAF_T, LEAF_F)


def _top_down_mf(p):
    """Reference mf on Node trees, no memorising forest involved:
    mf(P <| a |> Q) = mf(l_a P) <| a |> mf(r_a Q), by the free reduce."""
    if isinstance(p, Leaf):
        return p
    return Node(p.atom, _top_down_mf(reduce(p.on_true, p.atom, True)),
                _top_down_mf(reduce(p.on_false, p.atom, False)))


class TestMemorisingForest:
    @pytest.mark.parametrize("undef", [False, True], ids=["two", "three"])
    def test_matches_top_down_mf(self, undef):
        rng = random.Random(11 if undef else 10)
        alphabets = [("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]
        for i in range(1_000):
            p = random_basic_form(rng, alphabets[i % 3], 6, undef)
            assert mf(p) == _top_down_mf(p)
        for i in range(1_000):
            t = random_term(rng, alphabets[i % 3], max_depth=5,
                            connectives=("full", "scl", "nand")[i // 3 % 3],
                            undef=undef)
            assert mbf(t).tree == _top_down_mf(bf(t))

    def test_forest_must_match_the_congruence(self):
        # A MemForest is a Forest, but bf refuses it all the same.
        t = parse("a && (b || a)")
        with pytest.raises(ValueError):
            bf(t, forest=MemForest())
        with pytest.raises(ValueError):
            mbf(t, forest=Forest())
        assert bf(t, forest=Forest()) == bf(t)
        assert mbf(t, forest=MemForest()) == mbf(t)

    @pytest.mark.parametrize("kind", [Forest, MemForest])
    def test_from_tree_adds_nodes_in_postorder(self, kind):
        # Ids come in postorder, the true branch first.
        forest = kind()
        tree = Node(a, Node(b, LEAF_T, LEAF_F), Node("c", LEAF_F, LEAF_U))
        assert forest.from_tree(tree) == 5
        assert forest._rev[3:] == [(b, 0, 1), ("c", 1, 2), (a, 3, 4)]

    def test_masks_name_the_atoms_below(self, monkeypatch):
        # Every id gets its mask in MemForest.node: the ids of subst as
        # nand_nf runs it, of a memorising check, of row misses, and new
        # ids after a rollback.
        forest = MemForest()

        def masks_name_the_atoms_below():
            bits = forest._bits
            assert len(forest._mask) == len(forest)
            for x in range(len(forest)):
                atoms = fold_tree(forest.to_tree(x), lambda leaf: 0,
                                  lambda atom, t, e: bits[atom] | t | e)
                assert forest._mask[x] == atoms

        rng = random.Random(23)
        ids = [forest.from_tree(random_basic_form(rng, (a, b, "c"), 4, True))
               for _ in range(20)]
        T, F = forest.T, forest.F
        for p, q in zip(ids, ids[1:]):  # p ~& q, as nand_nf builds it
            forest.subst(p, forest.subst(q, F, T), T)
        masks_name_the_atoms_below()
        monkeypatch.setattr(axioms, "_MEM_FOREST", forest)
        check_schema(table_by_name("CPmem").schemas[1], MEM, "exhaustive",
                     budget=5_000)
        masks_name_the_atoms_below()
        # The check's rows widened to forms in atoms new to the forest: a
        # then-row's slot at such a form is a new id, built on a miss.
        xs = [forest.from_tree(Node("f", LEAF_T, Node("g", LEAF_U, LEAF_F)))]
        conds, nodes = list(forest._rows)[:10], len(forest)
        for p, r in conds:
            forest.subst_vector(p, xs, r)
        assert len(forest) > nodes
        masks_name_the_atoms_below()
        forest.from_tree(random_basic_form(rng, (a, b, "d"), 5, False))
        forest.rollback(nodes)
        for p, q in zip(ids, ids[2:]):
            forest.subst(p, q, forest.from_tree(
                random_basic_form(rng, (b, "d", "e"), 3, True)))
        assert len(forest) > nodes
        masks_name_the_atoms_below()


def _exercise(forest, trees):
    """from_tree, subst and to_tree over trees, and reduce in a MemForest,
    the only kind that has it; the trees built."""
    ids = [forest.from_tree(t) for t in trees]
    out = []
    for p, q, r in zip(ids, ids[1:], ids[2:]):
        s = forest.subst(p, q, r)
        out.append(forest.to_tree(s))
        if isinstance(forest, MemForest):
            out += [forest.to_tree(forest.reduce(s, a, True)),
                    forest.to_tree(forest.reduce(p, b, False))]
    return out


class TestCheckpoint:
    @staticmethod
    def _unique_table(forest):
        table = [list(forest._ids.items()), list(forest._rev)]
        if isinstance(forest, MemForest):
            table.append(list(forest._mask))
        return table

    @staticmethod
    def _memos(forest):
        # Every dict the forest holds is a memo but the unique table, the
        # Node objects and a MemForest's atom bits, which a rollback keeps.
        held = {id(v) for k, v in vars(forest).items() if isinstance(v, dict)
                and k not in ("_ids", "_trees", "_bits")}
        assert held == set(map(id, forest._memos))
        return forest._memos

    def test_rollback_restores_the_marked_forest(self):
        rng = random.Random(31)
        before, after = ([random_basic_form(rng, (a, b, "c"), 5, True)
                          for _ in range(30)] for _ in range(2))
        forest = Forest()
        _exercise(forest, before)
        nodes, table, trees = len(forest), self._unique_table(forest), dict(forest._trees)
        # Memo entries on ids from before the mark, and new ids.
        _exercise(forest, before[::2] + after)
        assert len(forest) > nodes
        forest.rollback(nodes)
        assert self._unique_table(forest) == table
        assert not any(self._memos(forest))
        assert all(forest._trees[x] is t for x, t in trees.items())
        assert max(forest._trees) < nodes
        assert _exercise(forest, after) == _exercise(Forest(), after)

    def test_a_memorising_forest_rolls_back_its_rows(self):
        # Rows gain slots in place; a rollback empties them with every
        # other memo.
        rng = random.Random(37)
        before, after = ([random_basic_form(rng, (a, b, "c"), 4, True)
                          for _ in range(12)] for _ in range(2))

        def exercise(forest, trees):
            ids = [forest.from_tree(t) for t in trees]
            vectors = [forest.subst_vector(p, ids, q) for p, q in zip(ids, ids[1:])]
            return _exercise(forest, trees), [list(map(forest.to_tree, v)) for v in vectors]

        forest = MemForest()
        exercise(forest, before)
        nodes, table = len(forest), self._unique_table(forest)
        exercise(forest, before[::2] + after)
        assert len(forest) > nodes and forest._rows
        forest.rollback(nodes)
        assert self._unique_table(forest) == table
        assert not any(self._memos(forest)) and forest._slots == 0
        assert exercise(forest, after) == exercise(MemForest(), after)


class TestSubstVector:
    @pytest.mark.parametrize("undef", [False, True], ids=["two", "three"])
    def test_matches_subst_per_element(self, undef):
        # Both kinds: a Forest runs programs, a MemForest reads rows.
        for kind in (Forest, MemForest):
            rng = random.Random(43)
            forest = kind()
            domain = [forest.from_tree(t)
                      for t in enumerate_mem_basic((a, b), undef)]
            # Scalars: domain forms and larger forms, which repeat atoms in a
            # Forest.
            scalars = domain[::9] + [
                forest.from_tree(random_basic_form(rng, (a, b, "c"), 5, undef))
                for _ in range(6)]
            # The whole domain, a truncated one, and vectors full of repeats.
            vectors = [domain, domain[:5]] + [
                [rng.choice(pool) for _ in range(40)]
                for pool in (domain[:4], scalars[-4:])]
            assert all(len(set(v)) < len(v) for v in vectors[2:])

            def same_vector(v):
                return [rng.choice(scalars + domain) for _ in v]

            for v in vectors:
                for s, s1, s2 in zip(scalars, scalars[1:] + scalars[:1],
                                     scalars[2:] + scalars[:2]):
                    for args in ((v, s1, s2), (s, v, s2), (s, s1, v),
                                 (s, v, same_vector(v))):
                        n_subst = len(forest._subst)
                        got = forest.subst_vector(*args)
                        if kind is Forest:  # a MemForest fills rows, and subst
                            assert len(forest._subst) == n_subst
                        assert got == [forest.subst(*(x[i] if isinstance(x, list)
                                                      else x for x in args))
                                       for i in range(len(v))]
                # A vector cond with a vector branch goes through subst.
                w = same_vector(v)
                assert forest.subst_vector(v, w, scalars[0]) == [
                    forest.subst(x, y, scalars[0]) for x, y in zip(v, w)]
            with pytest.raises(ValueError):
                forest.subst_vector(*scalars[:3])

    @staticmethod
    def _per_element(forest, args):
        n = len(next(x for x in args if isinstance(x, list)))
        return [forest.subst(*(x[i] if isinstance(x, list) else x for x in args))
                for i in range(n)]

    @pytest.mark.parametrize("bound", [Forest.PROGRAMS_MAX, 1])
    def test_random_vectors_match_subst(self, bound):
        """Both fast shapes against subst element by element: vectors with
        repeats, leaves and U leaves, each drawn many times, so that most
        calls run a kept program or read kept columns; at bound 1 every new
        cond vector clears the programs, every new branch vector the
        columns."""
        rng = random.Random(59)
        forest = Forest()
        forest.PROGRAMS_MAX = bound
        pool = [forest.T, forest.F, forest.U] + [
            forest.from_tree(random_basic_form(rng, (a, b, "c"), 5, True))
            for _ in range(12)]
        vectors = [[rng.choice(pool) for _ in range(rng.randint(1, 10))]
                   for _ in range(20)]
        for _ in range(400):
            v = rng.choice(vectors)
            s, s1, s2 = (rng.choice(pool) for _ in range(3))
            w = [rng.choice(pool[:4]) for _ in v]  # pairs repeat with v
            for args in ((v, s1, s2), (s, v, s2), (s, s1, v), (s, v, w)):
                assert forest.subst_vector(*args) == self._per_element(forest, args)
        assert len(forest._programs) <= bound
        assert len(forest._columns) <= bound

    @pytest.mark.parametrize("shape", ["vector cond", "vector branches"])
    def test_a_rollback_drops_the_compiled_programs(self, shape):
        # After a rollback one id names another DAG: a program or a column
        # kept across it would rebuild or give the one it was made from.
        def args(p):
            return ([p], q, r) if shape == "vector cond" else (p, [q, r], r)

        forest = Forest()
        q, r = forest.from_tree(Q), forest.from_tree(R)
        nodes = len(forest)
        old = forest.from_tree(Node(a, LEAF_T, Node(b, LEAF_F, LEAF_U)))
        forest.subst_vector(*args(old))
        forest.rollback(nodes)
        new = forest.from_tree(Node(b, Node(a, LEAF_U, LEAF_T), LEAF_F))
        assert new == old
        assert forest.subst_vector(*args(new)) == self._per_element(forest, args(new))

    def test_a_deep_cond_needs_no_recursion(self):
        done = fresh_python("-c", SUBST_VECTOR_DEPTH_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "vector cond": True, "vector branches": True,
            "recursion_limit": 1000}


# Both fast shapes of subst_vector on a chain 5,000 deep, under the
# default recursion limit; subst(x, T, F) is x itself.
SUBST_VECTOR_DEPTH_SCRIPT = """
import json, sys
from sclc.normalform import Forest
forest = Forest()
T, F = forest.T, forest.F
x = all_f = T
for i in range(5_000):
    x = forest.node("ab"[i % 2], x, F)
    all_f = forest.node("ab"[i % 2], all_f if i else F, F)
print(json.dumps({
    "vector cond": forest.subst_vector([x, T], T, F) == [x, T],
    "vector branches": forest.subst_vector(x, [T, F], F) == [x, all_f],
    "recursion_limit": sys.getrecursionlimit(),
}))
"""


class TestMemRows:
    @staticmethod
    def _all_stored_agree(forest):
        for args, got in stored_substs(forest):
            want = mf(subst_tf(*map(forest.to_tree, args)))
            assert forest.to_tree(got) == want

    def test_rows_agree_with_mf_of_subst_under_a_small_cap(self):
        forest = MemForest()
        # Past the cap, subst and rows empty the memos and store on.  A
        # row's first fill also widens two reduce lists as long as the forest
        # (29 ids here, then over 200), so one fill can pass the cap alone.
        forest.CACHE_MAX = 150
        emptied, forget = [], forest._forget
        forest._forget = lambda: (emptied.append(None), forget())
        forms = enumerate_mem_basic((a, b), three_valued=True)[::23][::-1]
        ids = {id(t): forest.from_tree(t) for t in forms}
        for c, t, e in itertools.product(forms, repeat=3):
            want = mf(subst_tf(c, t, e))
            c_, t_, e_ = ids[id(c)], ids[id(t)], ids[id(e)]
            for got in (forest.subst(c_, t_, e_),
                        *forest.subst_vector([c_], t_, e_),
                        *forest.subst_vector(c_, [t_], e_),
                        *forest.subst_vector(c_, t_, [e_])):
                assert forest.to_tree(got) == want
            # One cap bounds the subst memo, the rows' slots and the reduce
            # lists together; an emptying leaves at most the fill after it.
            assert allocated_slots(forest) <= max(150, 3 * len(forest))
        assert len(emptied) > 10
        assert forest._slots == allocated_slots(forest) - len(forest._subst)
        assert stored_slots(forest) <= allocated_slots(forest)
        rows = forest._rows.values()
        assert rows and all(max(row) >= 0 for row in rows)  # no empty rows kept
        self._all_stored_agree(forest)

    def test_a_row_past_the_cap_empties_the_memos(self):
        x = Node(a, Node(b, LEAF_F, LEAF_T), LEAF_U)
        want = mf(subst_tf(x, LEAF_T, LEAF_U))
        # The fill of x's row opens its child's row first and widens the
        # reduce lists of both atoms: the room this takes is the cap.  With
        # it, either memo fits alone; the second to fill finds no room,
        # empties the memos and stores.
        uncapped = MemForest()
        uncapped.subst_vector(uncapped.from_tree(x), [uncapped.T], uncapped.U)
        room = allocated_slots(uncapped)
        for rows_first in (False, True):
            forest = MemForest()
            x_, child = forest.from_tree(x), forest.from_tree(x.on_true)
            forest.CACHE_MAX = room
            t, u = forest.T, forest.U
            reads = [lambda: forest.subst(x_, t, u),
                     lambda: forest.subst_vector(x_, [t], u)[0]]
            for read in reads[::-1] if rows_first else reads:
                assert forest.to_tree(read()) == want
            if rows_first:  # subst's first entry emptied both rows
                assert list(forest._subst) == [(child, t, u), (x_, t, u)]
                assert not forest._rows
            else:  # x's row emptied subst's entries and its child's row
                assert not forest._subst
                assert list(forest._rows) == [(x_, u)]
            assert allocated_slots(forest) <= room
            assert forest._slots == allocated_slots(forest) - len(forest._subst)

    def test_a_row_widens_in_place_only_under_the_cap(self):
        forest = MemForest()
        two = enumerate_mem_basic((a, b))
        small = [forest.from_tree(t) for t in two]
        c_, r_ = small[40], small[7]
        forest.subst_vector(c_, small, r_)
        row = forest._rows[c_, r_]
        width = len(row)
        three = enumerate_mem_basic((a, b), three_valued=True)
        big = [forest.from_tree(t) for t in three]
        assert len(forest) > width
        want = [mf(subst_tf(two[40], y, two[7])) for y in three]
        assert list(map(forest.to_tree, forest.subst_vector(c_, big, r_))) == want
        assert forest._rows[c_, r_] is row and len(row) == len(forest)
        assert all(row[x] >= 0 for x in big)
        # With no room to widen, the memos are emptied and the row is
        # opened whole.
        more = Node("c", LEAF_T, LEAF_F)
        big.append(forest.from_tree(more))
        want.append(mf(subst_tf(two[40], more, two[7])))
        n, forest.CACHE_MAX = len(forest), allocated_slots(forest)
        assert list(map(forest.to_tree, forest.subst_vector(c_, big, r_))) == want
        wider = forest._rows[c_, r_]
        assert wider is not row and len(wider) == n > len(row)
        assert wider[:len(row)] == row
        assert forest._slots == allocated_slots(forest) - len(forest._subst)

    def test_branch_rows_agree_with_mf_of_subst(self):
        """A then vector reads the row of its cond and else branch, an else
        vector the then-row of its negated cond; neither goes through subst
        element by element.  A leaf cond opens no row."""
        forest = MemForest()
        forms = enumerate_mem_basic((a, b), three_valued=True)
        forms = forms[:3] + forms[13::13]  # the leaves T, F and U first
        ids = [forest.from_tree(t) for t in forms]
        for (c, c_), (x, x_) in itertools.product(zip(forms, ids), repeat=2):
            thens = forest.subst_vector(c_, ids, x_)
            elses = forest.subst_vector(c_, x_, ids)
            not_c = forest.subst(c_, forest.F, forest.T)
            if c_ >= 3:
                assert thens == [forest._rows[c_, x_][y] for y in ids]
                assert elses == [forest._rows[not_c, x_][y] for y in ids]
            for y, then, orelse in zip(forms, thens, elses):
                assert forest.to_tree(then) == mf(subst_tf(c, y, x))
                assert forest.to_tree(orelse) == mf(subst_tf(c, x, y))
        assert not any(p < 3 for p, _ in forest._rows)
        # The subst memo holds the negations and the fills of U's slots.
        assert all(key[1:] == (forest.F, forest.T) or key[1] == forest.U
                   for key in forest._subst)
        assert forest._slots == allocated_slots(forest) - len(forest._subst)
        rows = forest._rows.values()
        assert all(max(row) >= 0 for row in rows)  # kept from the first entry on
        assert all(len(row) <= len(forest) for row in rows)

    def test_an_else_vector_keeps_the_u_leaves_of_its_cond(self):
        # The negated cond must keep each U leaf: x <| U |> y is U.
        forest = MemForest()
        cond = Node(a, LEAF_U, Node(b, LEAF_T, LEAF_U))
        c_ = forest.from_tree(cond)
        forms = enumerate_mem_basic((a, b), three_valued=True)
        ids = [forest.from_tree(t) for t in forms]
        for x, x_ in zip(forms[::29], ids[::29]):
            elses = forest.subst_vector(c_, x_, ids)
            for y, got in zip(forms, elses):
                assert forest.to_tree(got) == mf(subst_tf(cond, x, y))

    def test_every_row_slot_equals_subst_in_a_second_forest(self):
        """An independent route: subst in a forest that opens no row.  Every
        row of the two-valued universe over two atoms (72 conds, 74 else
        branches, 75 ids) equals it at every id but U's, which stays
        unfilled; so does a seeded sample of three-valued rows, the U slot
        included, read before and after the forest widens to 291 ids."""
        two = enumerate_mem_basic((a, b))
        three = enumerate_mem_basic((a, b), three_valued=True)
        rows, scalar = MemForest(), MemForest()
        ids = [rows.from_tree(t) for t in two]
        assert ids == [scalar.from_tree(t) for t in two] and len(rows) == 75
        pairs = [(p, r) for p in ids[2:] for r in ids]
        for p, r in pairs:
            got = rows.subst_vector(p, ids, r)
            assert got == [scalar.subst(p, x, r) for x in ids]
            assert rows._rows[p, r][rows.U] == -1
        assert len(rows._rows) == len(pairs) and not rows._subst
        assert len(rows) == 75 and not scalar._rows
        rng = random.Random(27)
        old = rng.sample(pairs, 30)
        for p, r in old:  # U slots of rows 75 ids wide; ids now differ
            got = rows.subst_vector(p, [rows.U], r)
            assert rows.to_tree(*got) == scalar.to_tree(scalar.subst(p, scalar.U, r))
        big = [rows.from_tree(t) for t in three]
        same = dict(zip(big, [scalar.from_tree(t) for t in three]))
        assert len(rows) == len(scalar) == 291
        new = rng.sample([(p, r) for p in big if p > 2 for r in big], 30)
        for p, r in old + new:
            got = rows.subst_vector(p, big, r)
            assert [same[v] for v in got] == [
                scalar.subst(same[p], same[x], same[r]) for x in big]
        assert {len(rows._rows[key]) for key in old + new} == {291}

    def test_then_rows_fill_in_place(self):
        """A then-row opened before the forest grew, or read at a high id
        first, holds at each x exactly subst(p, x, r); so do the rows of p's
        children that its fill reads."""
        forest = MemForest()
        small = [forest.from_tree(t) for t in enumerate_mem_basic((a, b), True)]
        grown = forest.from_tree(Node(a, Node(b, LEAF_T, LEAF_U), LEAF_F)), small[40]
        fresh = forest.from_tree(Node(b, LEAF_U, Node(a, LEAF_F, LEAF_T))), small[7]
        forest.subst_vector(grown[0], small, grown[1])  # a small universe yet
        row, width = forest._rows[grown], len(forest)
        rng = random.Random(53)
        big = [forest.from_tree(random_basic_form(rng, (a, b, "c", "d"), 6, True))
               for _ in range(200)]
        assert len(forest) > 2 * len(small)
        forest.subst_vector(grown[0], big, grown[1])
        forest.subst_vector(fresh[0], sorted(big, reverse=True), fresh[1])
        assert forest._rows[grown] is row and width < len(row) <= len(forest)
        for p, r in (grown, fresh):
            assert all(forest._rows[p, r][x] >= 0 for x in big)
        # Only the slots of U went through subst.
        assert len(forest._rows) > 2 and forest._subst
        assert all(q == forest.U for _, q, _ in forest._subst)
        self._all_stored_agree(forest)


class TestMbf:
    def test_and_false(self):
        assert mbf(parse("a && F")).tree == Node(a, LEAF_F, LEAF_F)

    def test_false_and(self):
        assert mbf(parse("F && a")).tree == LEAF_F

    def test_undef_absorbs(self):
        assert mbf(parse("U || a")).tree == LEAF_U

    def test_membership_and_idempotence(self):
        rng = random.Random(3)
        for _ in range(200):
            t = random_term(rng, max_depth=5, undef=True)
            m = mbf(t).tree
            assert is_mem_basic(m)
            assert mbf(render(m)).tree == m

    def test_contraction_laws(self):
        # (x <| y |> z) <| y |> u = x <| y |> u and its mirror image, on
        # fresh-atom instances.
        lhs1 = parse("(a <| b |> c) <| b |> d")
        rhs1 = parse("a <| b |> d")
        assert mbf(lhs1) == mbf(rhs1)
        lhs2 = parse("a <| b |> (c <| b |> d)")
        assert mbf(lhs2) == mbf(rhs1)

    def test_wrapper_enforces_invariant(self):
        with pytest.raises(InvariantError):
            MemBasicForm(Node(a, Node(a, LEAF_T, LEAF_F), LEAF_F))


class TestIsMemBasic:
    def test_distinct(self):
        assert is_mem_basic(Node(a, Node(b, LEAF_T, LEAF_F), LEAF_F))

    def test_repeated_on_path(self):
        assert not is_mem_basic(Node(a, Node(a, LEAF_T, LEAF_F), LEAF_F))

    def test_leaf(self):
        assert is_mem_basic(LEAF_U)

    def test_repeat_across_branches_allowed(self):
        assert is_mem_basic(Node(a, Node(b, LEAF_T, LEAF_F),
                                 Node(b, LEAF_F, LEAF_T)))


def counted(k: int, leaves: int) -> int:
    # Independent oracle: c(0) = leaves, c(k) = leaves + k * c(k-1)^2.
    if k == 0:
        return leaves
    prev = counted(k - 1, leaves)
    return leaves + k * prev * prev


class TestEnumeration:
    @pytest.mark.parametrize("k,three,expected", [
        (0, False, 2), (1, False, 6), (2, False, 74),
        (0, True, 3), (1, True, 12), (2, True, 291),
    ])
    def test_counts_match_recurrence(self, k, three, expected):
        atoms = tuple(f"v{i}" for i in range(1, k + 1))
        forms = enumerate_mem_basic(atoms, three)
        assert counted(k, 3 if three else 2) == expected
        assert len(forms) == expected
        assert len(set(forms)) == expected
        assert all(is_mem_basic(f) for f in forms)

    def test_three_atom_count(self):
        forms = enumerate_mem_basic(("x", "y", "z"))
        assert len(forms) == counted(3, 2) == 16430

    @pytest.mark.parametrize("atoms,three,expected,digest", [
        (("v1", "v2"), True, 291, "0ea975123d514d81"),
        (("x", "y", "z"), False, 16430, "22a697f1951b4c75"),
    ])
    def test_order_is_pinned(self, atoms, three, expected, digest):
        # The sweep's witnesses and counts follow this order.  The reference
        # sweeps enumerate the same way, so only this pin sees a change.
        forms = enumerate_mem_basic(atoms, three)
        lines = "".join(to_json(f) + "\n" for f in forms).encode()
        assert len(forms) == expected
        assert hashlib.sha256(lines).hexdigest().startswith(digest)

    @pytest.mark.parametrize("atoms", [("a", "a"), ("a", "b", "a"), ("A",),
                                       ("a", "")])
    def test_refuses_a_repeated_or_bad_name(self, atoms):
        # ("a", "a") gave 74 forms, some not mem-basic; "A" built Nodes
        # with a name that Atom refuses.
        with pytest.raises(ValueError, match="^bad or repeated atom name"):
            enumerate_mem_basic(atoms)


class TestJson:
    def test_shapes(self):
        assert json.loads(to_json(LEAF_U)) == {"leaf": "U"}
        assert json.loads(to_json(Node(a, LEAF_T, LEAF_F))) == {
            "atom": "a", "t": {"leaf": "T"}, "f": {"leaf": "F"}}


def test_deep_trees_print_without_recursion():
    done = fresh_python("-c", DEEP_TREE_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "print_term(render)": True, "render_nand": True, "to_json": True,
        "nandform.to_json": True, "to_dot": [5_000, 5_001], "from_tree": 5_002,
        "to_tree": 5_000, "is_mem_basic": [True, False],
        "recursion_limit": 1_000}


# The tree printers, from_tree, to_tree and is_mem_basic on combs 5,000
# deep, under the default recursion limit, by the output each must give.
DEEP_TREE_SCRIPT = """
import json, sys
from sclc.congruence import to_dot
from sclc.nandform import render_nand, to_json as nand_json
from sclc.normalform import (
    LEAF_F, LEAF_T, Forest, Node, is_mem_basic, render, to_json)
from sclc.syntax import print_term
n = 5_000
t, distinct = LEAF_T, LEAF_T
for i in range(n):
    t, distinct = Node("a", t, LEAF_F), Node(f"a{i}", distinct, LEAF_F)


def comb_depth(p):  # the a-nodes above T if p is a comb like t, else -1
    depth = 0
    while type(p) is Node and (p.atom, p.on_false) == ("a", LEAF_F):
        p, depth = p.on_true, depth + 1
    return depth if p is LEAF_T else -1


f = Forest()
nand = "a ~& T ~& (a ~& T ~& F)"
for _ in range(n - 1):
    nand = "a ~& (" + nand + ") ~& (a ~& T ~& F)"
dot = to_dot(t)
print(json.dumps({
    "print_term(render)": print_term(render(t))
    == "(" * (n - 1) + "T <| a |> F" + ") <| a |> F" * (n - 1),
    "render_nand": print_term(render_nand(t)) == nand,
    "to_json": to_json(t)
    == '{"atom": "a", "t": ' * n + '{"leaf": "T"}' + ', "f": {"leaf": "F"}}' * n,
    "nandform.to_json": nand_json(t)
    == '{"nnode": "a", "t": ' * n + '{"leaf": "T"}' + ', "f": {"leaf": "F"}}' * n,
    "to_dot": [dot.count("shape=circle"), dot.count("shape=box")],
    "from_tree": f.from_tree(t),
    "to_tree": comb_depth(f.to_tree(f.from_tree(t))),
    "is_mem_basic": [is_mem_basic(distinct), is_mem_basic(t)],
    "recursion_limit": sys.getrecursionlimit()}))
"""


# bf and mbf on chains nested to the right, 9,999 levels, in a fresh
# interpreter; for ~&, mbf and nand_nf must give one form, compared as ids
# in one forest (== on Nodes recurses).
RIGHT_NESTED_SCRIPT = """
import json
from sclc.nandform import nand_nf
from sclc.normalform import MemForest, bf, mbf
from sclc.syntax import Atom, Nand, Nor, Xor
out = {}
for op in (Nand, Nor, Xor):
    t = Atom("a9999")
    for i in reversed(range(9_999)):
        t = op(Atom(f"a{i}"), t)
    free, mem = bf(t), mbf(t).tree
    out[op.__name__] = [free.atom, mem.atom]
    if op is Nand:
        f = MemForest()
        out["mbf is nand_nf"] = f.from_tree(mem) == f.from_tree(nand_nf(t))
print(json.dumps(out))
"""


def _left_chain(op, atoms, n):
    t = Atom(atoms[0])
    for i in range(1, n):
        t = op(t, Atom(atoms[i % len(atoms)]))
    return t


def _distinct_nodes(tree) -> int:
    seen, stack = set(), [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, Node) and id(t) not in seen:
            seen.add(id(t))
            stack += (t.on_true, t.on_false)
    return len(seen)


def _expanded_size(tree) -> int:
    if not isinstance(tree, Node):
        return 1
    return 1 + _expanded_size(tree.on_true) + _expanded_size(tree.on_false)


def _walk(tree, valuation):
    order = []
    while isinstance(tree, Node):
        order.append(tree.atom)
        tree = tree.on_true if valuation[tree.atom] else tree.on_false
    return TruthValue3(tree.value), order


DISTINCT = tuple(f"x{i}" for i in range(200))


class TestSharedDags:
    """Chains whose normal forms share subtrees heavily, against the
    independent routes eval_tree and trace_eval."""

    @pytest.mark.parametrize("op", [Iff, Xor])
    @pytest.mark.parametrize("atoms", [DISTINCT, ("a", "b")])
    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_iff_xor_chains(self, op, atoms, n):
        t = _left_chain(op, atoms, n)
        assert bf(t) == eval_tree(t)
        m = mbf(t).tree
        assert is_mem_basic(m)
        for v in all_valuations(sorted(set(atoms[:n]))):
            assert _walk(m, v) == trace_eval(t, v)

    @pytest.mark.parametrize("op,stop", [(And, False), (Or, True)])
    def test_and_or_chains(self, op, stop):
        t = _left_chain(op, DISTINCT, 200)
        free = bf(t)
        assert free == eval_tree(t)
        m = mbf(t).tree
        assert is_mem_basic(m) and m == free
        # Every path of the tree: the first i atoms do not decide the chain,
        # the next one does.
        for i in range(201):
            v = {x: (j < i) != stop for j, x in enumerate(DISTINCT)}
            assert _walk(m, v) == trace_eval(t, v)

    def test_two_atom_chain_mem_form_is_small(self):
        assert _expanded_size(mbf(_left_chain(Iff, ("a", "b"), 200)).tree) == 7

    def test_distinct_chain_free_form_is_shared(self):
        assert _distinct_nodes(bf(_left_chain(Iff, DISTINCT, 200))) <= 4 * 200

    def test_render_and_dot_cost_the_dag(self):
        # 2 * 16 - 1 distinct nodes against 2^17 - 1 in the expanded tree:
        # render makes one Cond per distinct node, and to_dot draws one
        # circle each, and a box per leaf under the two lowest.
        tree = bf(_left_chain(Iff, DISTINCT, 16))
        conds, todo = set(), [render(tree)]
        while todo:
            t = todo.pop()
            if isinstance(t, Cond) and id(t) not in conds:
                conds.add(id(t))
                todo += (t.then, t.orelse)
        assert len(conds) == 31
        dot = to_dot(tree)
        assert (dot.count("shape=circle"), dot.count("shape=box"),
                len(dot.splitlines())) == (31, 4, 99)

    def test_shared_subtree_checked_under_each_parent(self):
        shared = Node(a, LEAF_T, LEAF_F)
        fine, repeats = Node("c", shared, LEAF_F), Node(a, shared, LEAF_T)
        assert is_mem_basic(Node(b, fine, Node("d", shared, LEAF_U)))
        assert not is_mem_basic(Node(b, fine, repeats))
        assert not is_mem_basic(Node(b, repeats, fine))
