import functools
import gc
import itertools
import random

import pytest

from conftest import (
    allocated_slots, all_valuations, random_term, stored_slots, stored_substs,
)
from sclc import axioms
from sclc.axioms import (
    Schema, Verdict, _exhaustive, _fresh_names, _permutation,
    builtin_tables, check_schema, check_table, instantiate, table_by_name,
)
from sclc.congruence import (
    FREE, FREE3, MEM, MEM3, equiv, eval_tree, forest_for, normal_form,
    trace_eval,
)
from sclc.errors import (
    MissingBindingError, OpenTermError, SignatureError, SweepArgumentError,
    UnknownTableError,
)
from sclc.normalform import (
    Forest, MemForest, Node, enumerate_mem_basic, mf, render, subst_tf,
)
from sclc.syntax import (
    And, Atom, Cond, Not, TT, UU, Var, atoms_of, dual, parse, subterms, vars_of,
)
from sclc.translate import to_core

X, Y = Var("X"), Var("Y")
a, b = Atom("a"), Atom("b")


def schema(name, lhs, rhs):
    return Schema(name, parse(lhs), parse(rhs))


class TestInstantiate:
    def test_cp1(self):
        s = schema("CP1", "X <| T |> Y", "X")
        assert instantiate(s, {"X": a, "Y": b}) == (Cond(a, TT, b), a)

    def test_no_vars(self):
        s = schema("Neg", "F", "!T")
        assert instantiate(s, {}) == (parse("F"), Not(TT))

    def test_single_var(self):
        s = schema("Tand", "T && X", "X")
        assert instantiate(s, {"X": UU}) == (And(TT, UU), UU)

    def test_missing_binding(self):
        s = schema("CP1", "X <| T |> Y", "X")
        with pytest.raises(MissingBindingError, match="^no binding for variable Y$"):
            instantiate(s, {"X": a})

    def test_open_image(self):
        s = schema("CP1", "X <| T |> Y", "X")
        with pytest.raises(OpenTermError,
                           match="^substitution image for Y is open$"):
            instantiate(s, {"X": a, "Y": Cond(a, X, b)})


class TestCheckSchema:
    def test_cpmem_passes(self):
        s = table_by_name("CPmem").schemas[0]
        r = check_schema(s, MEM)
        assert r.verdict is Verdict.PASSED_FRESH_ATOMS

    def test_c1_refuted_under_free(self):
        s = schema("C1", "X && (Y && X)", "X && Y")
        r = check_schema(s, FREE)
        assert r.verdict is Verdict.REFUTED_FRESH_ATOMS
        assert sorted(r.witness) == ["X", "Y"]
        lhs, rhs = instantiate(s, r.witness)
        assert eval_tree(lhs) != eval_tree(rhs)

    def test_or_true_refuted_under_mem(self):
        s = schema("OrT", "X || T", "T")
        r = check_schema(s, MEM)
        assert r.verdict is Verdict.REFUTED_FRESH_ATOMS
        assert r.lhs_nf != r.rhs_nf
        lhs, rhs = instantiate(s, r.witness)
        names = sorted(set(atoms_of(lhs)) | set(atoms_of(rhs)))
        assert any(trace_eval(lhs, v) != trace_eval(rhs, v)
                   for v in all_valuations(names))

    def test_fresh_atoms_avoid_schema_atoms(self):
        s = schema("odd", "X && v1", "v1 && X")
        r = check_schema(s, MEM)
        assert r.verdict is Verdict.REFUTED_FRESH_ATOMS
        assert r.witness["X"] != Atom("v1")

    def test_signature_error_for_undef(self):
        s = schema("UAnd", "U && X", "U")
        with pytest.raises(SignatureError):
            check_schema(s, MEM)
        assert check_schema(s, MEM3).verdict is Verdict.PASSED_FRESH_ATOMS

    def test_fresh_atoms_compare_by_identity(self, monkeypatch):
        # Node.__eq__ walks the expanded tree, exponential on chains.
        def no_eq(self, other):
            raise AssertionError("Node.__eq__ called")

        monkeypatch.setattr(Node, "__eq__", no_eq)
        assert check_schema(schema("Abs", "X && (X || Y)", "X"), MEM).verdict \
            is Verdict.PASSED_FRESH_ATOMS
        assert check_schema(schema("OrT", "X || T", "T"), MEM).refuted

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            check_schema(schema("x", "X", "X"), MEM, "sampling")


class TestExhaustive:
    def test_zero_vars(self):
        r = check_schema(schema("Neg", "F", "!T"), MEM, "exhaustive")
        assert r.verdict is Verdict.PASSED_EXHAUSTIVE
        assert r.count == 1 and not r.budget_exceeded

    def test_counts(self):
        r = check_schema(schema("F5", "X && T", "X"), MEM, "exhaustive")
        assert r.count == 74
        r = check_schema(schema("F5", "X && T", "X"), MEM3, "exhaustive")
        assert r.count == 291

    def test_budget_cap(self):
        s = table_by_name("CPmem").schemas[0]
        r = check_schema(s, MEM, "exhaustive", budget=5_000)
        assert r.verdict is Verdict.PASSED_EXHAUSTIVE
        assert r.count == 5_000
        assert r.budget_exceeded

    def test_memorising_sweep_forest_stays_mem_basic(self, monkeypatch):
        f = MemForest()
        monkeypatch.setattr(axioms, "_MEM_FOREST", f)
        check_schema(table_by_name("CPmem").schemas[1], MEM, "exhaustive",
                     budget=5_000)
        assert len(f) > 3
        for i, (atom, t, e) in enumerate(f._rev[3:], 3):
            assert t < i and e < i  # Forest._below relies on it
            assert not (f._mask[t] | f._mask[e]) & f._bits[atom]

    def test_memorising_sweep_keeps_subst_and_then_rows(self, monkeypatch):
        # Scalar conds go to the subst memo, vector branches to the rows of
        # (cond, else) pairs.
        f = MemForest()
        monkeypatch.setattr(axioms, "_MEM_FOREST", f)
        check_schema(table_by_name("EqMSCL-lI").schemas[0], MEM, "exhaustive",
                     budget=5_000)
        assert f._subst and f._rows and all(len(key) == 2 for key in f._rows)
        assert f._slots == allocated_slots(f) - len(f._subst)
        assert all(len(row) <= len(f) for row in f._rows.values())

    def test_rows_of_a_memorising_check_by_count(self, monkeypatch):
        # A row is one slot per id of the forest when it was opened, 75 in
        # the two-valued universe over two atoms, filled whole but for the
        # slot of U: 667 rows hold 49,358 entries in 50,025 slots.  The
        # fills widen four reduce lists, one per atom and assumption, 75
        # ids each.
        forest = MemForest()
        monkeypatch.setattr(axioms, "_MEM_FOREST", forest)
        r = check_schema(table_by_name("CPmem").schemas[1], MEM, "exhaustive",
                         budget=50_000)
        assert (r.verdict, r.count) == (Verdict.PASSED_EXHAUSTIVE, 50_000)
        rows, substs = forest._rows.values(), len(forest._subst)
        assert len(forest) == 75 and len(rows) == 667
        assert stored_slots(forest) - substs == 49_358
        assert allocated_slots(forest) - substs == forest._slots == 667 * 75 + 4 * 75
        assert all(len(row) <= len(forest) for row in rows)

    def test_a_two_valued_sweep_builds_no_u_form(self, monkeypatch):
        # Rows are filled whole but for the slot of U, which only a read of
        # U fills: the two-valued checks never leave the 74 forms and U.
        forest = MemForest()
        monkeypatch.setattr(axioms, "_MEM_FOREST", forest)
        for name in ("CPmem", "EqMSCL", "EqMSCL-lI", "EqMSCL-lN"):
            assert not any(r.refuted for _, r in check_table(
                table_by_name(name), "exhaustive", budget=5_000))
        assert len(forest) == 75
        assert all(v >= 0 for row in forest._rows.values()
                   for x, v in enumerate(row) if x != forest.U)
        assert all(row[forest.U] == -1 for row in forest._rows.values())

    def test_rows_widen_from_two_to_three_valued_checks(self, monkeypatch):
        """Two-valued checks open rows 75 ids wide; a three-valued check in
        the same forest widens those it reads, in place, to 291, and its
        results equal those of a fresh forest."""
        tables = [table_by_name(n) for n in ("CPmem", "EqMSCL", "EqMSCL-lI",
                                            "EqMSCL-lN")]
        refuted = schema("AndComm", "X && Y", "Y && X")

        def three_valued():
            out = [r for t in tables for _, r in check_table(
                t, "exhaustive", budget=5_000, three_valued=True)]
            out.append(_exhaustive(refuted, MEM3, 2, 10 ** 6))
            return [(r.verdict, r.count, r.budget_exceeded, r.witness)
                    for r in out]

        shared = MemForest()
        monkeypatch.setattr(axioms, "_MEM_FOREST", shared)
        for t in tables:
            check_table(t, "exhaustive", budget=5_000)
        before = dict(shared._rows)
        assert {len(row) for row in before.values()} == {75}
        grown = three_valued()
        assert len(shared) == 291
        assert all(shared._rows[key] is row for key, row in before.items())
        widened = {key for key, row in before.items() if len(row) > 75}
        assert len(widened) > 10
        assert {len(shared._rows[key]) for key in widened} == {291}
        monkeypatch.setattr(axioms, "_MEM_FOREST", MemForest())
        assert grown == three_valued()
        assert grown[-1][0] is Verdict.REFUTED_EXHAUSTIVE and grown[-1][3]
        # Every entry of a widened row, and every 97th of the others, is mf
        # of the substitution.
        stored = list(stored_substs(shared))
        for (p, q, r), got in stored[::97] + [
                ((p, x, r), v) for (p, x, r), v in stored if (p, r) in widened]:
            want = mf(subst_tf(*map(shared.to_tree, (p, q, r))))
            assert shared.to_tree(got) == want

    def test_k3_sweep_under_a_small_row_cap(self, monkeypatch):
        mem1 = table_by_name("CPmem").schemas[1]
        runs = []
        for cap in (Forest.CACHE_MAX, 100_000):
            monkeypatch.setattr(Forest, "CACHE_MAX", cap)
            forest = MemForest()
            monkeypatch.setattr(axioms, "_MEM_FOREST", forest)
            r = check_schema(mem1, MEM, "exhaustive", k=3, budget=20_000)
            runs.append(((r.verdict, r.count, r.budget_exceeded),
                         allocated_slots(forest)))
        (full, full_slots), (capped, capped_slots) = runs
        assert full == capped == (Verdict.PASSED_EXHAUSTIVE, 20_000, True)
        assert capped_slots <= 100_000 < full_slots

    def test_a_shared_forest_past_its_cap_empties_and_goes_on(self, monkeypatch):
        """Memorising tables in one shared forest under a small CACHE_MAX:
        its memos are emptied when full, not frozen, so rows still open
        after an emptying, the memos stay near the cap, and every result
        equals that of an uncapped forest."""
        tables = [table_by_name(n) for n in ("CPmem", "EqMSCL", "EqMSCL-lI",
                                            "EqMSCL-lN", "U")]

        def results(forest):
            monkeypatch.setattr(axioms, "_MEM_FOREST", forest)
            return [(r.verdict, r.count, r.budget_exceeded, r.witness)
                    for t in tables for _, r in check_table(t, "exhaustive",
                                                            budget=5_000)]

        want = results(MemForest())
        capped, sizes, row = MemForest(), [], MemForest._row
        capped.CACHE_MAX = 10_000

        def recorded(forest, *args):  # rows, and entries plus slots, after
            out = row(forest, *args)
            sizes.append((len(forest._rows), len(forest._subst) + forest._slots))
            return out

        monkeypatch.setattr(MemForest, "_row", recorded)
        assert results(capped) == want
        emptied = [i for i in range(1, len(sizes)) if sizes[i][1] < sizes[i - 1][1]]
        assert len(emptied) > 5
        last = emptied[-1]
        assert sizes[-1][0] > sizes[last][0]  # rows opened after the last one
        assert max(held for _, held in sizes) <= 10_000 + 3 * len(capped)

    def test_vector_memo_under_a_small_bound(self, monkeypatch):
        # Past _MEMO_MAX entries plus interned elements the memo empties and
        # goes on storing: the result is the same, every call leaves its
        # entry, and the memo never holds more than the bound.
        and_iff = table_by_name("EqMSCL-lI").schemas[5]
        held = []
        call = axioms._VectorMemo.__call__

        def recorded(memo, *args):
            out = call(memo, *args)
            held.append(len(memo) + sum(map(len, memo.vectors)))
            return out

        monkeypatch.setattr(axioms._VectorMemo, "__call__", recorded)
        runs = []
        for bound in (axioms._MEMO_MAX, 2_000):
            monkeypatch.setattr(axioms, "_MEMO_MAX", bound)
            held.clear()
            r = _exhaustive(and_iff, MEM, 2, 10 ** 6)
            emptied = sum(b < a for a, b in zip(held, held[1:]))
            runs.append(((r.verdict, r.count), max(held), min(held), emptied))
        (full, full_held, _, none), (capped, capped_held, least, emptied) = runs
        assert full == capped == (Verdict.PASSED_EXHAUSTIVE, 405_224)
        assert capped_held <= 2_000 < full_held
        assert none == 0 < least and emptied > 10

    def test_free_sweep_leaves_the_memorising_forest_alone(self, monkeypatch):
        f = MemForest()
        monkeypatch.setattr(axioms, "_MEM_FOREST", f)
        before = len(f._rev)
        r = check_schema(table_by_name("CP").schemas[3], FREE, "exhaustive",
                         budget=5_000)
        assert r.count == 5_000
        assert len(f._rev) == before

    @pytest.mark.parametrize("k,budget,three_valued", [
        (-1, 10, False), (2, 0, False), (2, -5, False),
        (2, 73, False), (2, 290, True), (0, 1, False),
        (4, 10 ** 6, False),  # ~10^9 forms: rejected before enumerating
        (10 ** 9, 10 ** 6, False),
    ])
    def test_bad_sweep_arguments(self, k, budget, three_valued):
        mode = MEM3 if three_valued else MEM
        with pytest.raises(SweepArgumentError):
            check_schema(schema("F5", "X && T", "X"), mode, "exhaustive",
                         k=k, budget=budget)

    def test_budget_equal_to_domain(self):
        r = check_schema(schema("F5", "X && T", "X"), MEM3, "exhaustive",
                         budget=291)
        assert r.count == 291 and not r.budget_exceeded

    def test_refutation_found_in_sweep(self):
        r = check_schema(schema("AndComm", "X && Y", "Y && X"), MEM,
                         "exhaustive")
        assert r.refuted
        assert r.lhs_nf != r.rhs_nf

    def test_deterministic(self):
        s = schema("AndComm", "X && Y", "Y && X")
        r1 = check_schema(s, MEM, "exhaustive")
        r2 = check_schema(s, MEM, "exhaustive")
        assert r1 == r2

    def test_leaves_no_cycle_for_the_collector(self):
        # A cycle through a free sweep's forest would keep it alive until
        # the cycle collector runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for s, mode in ((table_by_name("EqFSCL").schemas[9], FREE),
                            (table_by_name("CPmem").schemas[1], MEM)):
                check_schema(s, mode, "exhaustive", budget=5_000)
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_agrees_with_direct_product_check(self):
        # The id-based sweep must reproduce a plain instantiate-and-compare
        # check over the same domain.
        rng = random.Random(41)
        domain = [render(t) for t in enumerate_mem_basic(("v1", "v2"))]
        for mode in (MEM, FREE):
            for trial in range(12):
                lhs = random_term(rng, atoms=("h", "k"), max_depth=3)
                lhs = _atoms_to_vars(lhs)
                if trial % 3 == 0:
                    rhs = _atoms_to_vars(random_term(rng, atoms=("h", "k"),
                                                     max_depth=3))
                else:
                    rhs = lhs
                s = Schema("t", lhs, rhs)
                expected = all(
                    equiv(*instantiate(s, dict(zip(s.variables, images))),
                          mode)
                    for images in itertools.product(domain,
                                                    repeat=len(s.variables)))
                got = check_schema(s, mode, "exhaustive")
                assert (not got.refuted) == expected


def _reference_sweep(s, mode, k, budget):
    """Brute force over the sweep's own order: instantiate, normalize both
    sides in one forest, compare.  (count, budget_exceeded, witness)."""
    domain = [render(t) for t in
              enumerate_mem_basic(tuple(_fresh_names(s, k)), mode.three_valued)]
    perms = [_permutation(j, len(domain)) for j in range(len(s.variables))]
    count = 0
    for digits in itertools.product(*perms):
        count += 1
        sub = {v: domain[d] for v, d in zip(s.variables, digits)}
        forest = forest_for(mode)
        lhs, rhs = instantiate(s, sub)
        if normal_form(lhs, mode, forest) is not normal_form(rhs, mode, forest):
            return count, False, sub
        if count == budget:
            break
    return count, len(domain) ** len(s.variables) > budget, None


class TestSweepReference:
    # Refutable and valid schemas; an atom constant; the innermost
    # variable twice under one cond ("twice", "IffByCond"); no variables.
    SCHEMAS = [
        ("AndComm", "X && Y", "Y && X"),
        ("OrT", "X || T", "T"),
        ("C1", "X && (Y && X)", "X && Y"),
        ("late", "(X && Y) || Z", "(Y && X) || Z"),
        ("OrElse", "X", "T <| X |> Y"),  # free3: refuted in the 2nd vector
        ("atom", "(a && X) && Y", "a && (X && Y)"),
        ("atomComm", "X && a", "a && X"),
        ("twice", "Y <| Y |> X", "T <| Y |> X"),
        ("IffByCond", "X <-> Y", "Y <| X |> (F <| Y |> T)"),
        ("Neg", "F", "!T"),
        ("TF", "T", "F"),
        # Z && F needs no outer variable and X || (Z && F) is hoisted out
        # of the Y loop; the last cond's cond and branch are both vectors.
        ("F10", "(X && Y) || (Z && F)",
         "(X || (Z && F)) && (Y || (Z && F))"),
        ("hoisted", "(X || (Z && F)) && Y", "Y && (X || (Z && F))"),
        ("twoBranches", "X <-> Z", "Z <| X |> !Z"),  # scalar cond, vector branches
        # Conds with the innermost variable in two arguments, whose vectors
        # a memorising sweep reads back from its memo.
        ("AndIff", "(X && Y) <-> Z", "(X && (Y <-> Z)) || (!X && !Z)"),
        ("Mem", "(X || Y) && Z", "(!X && (Y && Z)) || (X && Z)"),
    ]

    @staticmethod
    def _check(s, mode):
        # 77 stops two-valued sweeps three digits into the second vector;
        # 5,000 stops inside a vector in both valuednesses.
        for budget in ((77, 5_000) if not mode.three_valued else (5_000,)):
            got = _exhaustive(s, mode, 2, budget)  # past the fresh-atoms check
            count, exceeded, witness = _reference_sweep(s, mode, 2, budget)
            assert (got.count, got.budget_exceeded, got.witness) == \
                (count, exceeded, witness)
            assert got.refuted == (witness is not None)

    @pytest.mark.parametrize("mode", [MEM, FREE, MEM3, FREE3],
                             ids=["mem", "free", "mem3", "free3"])
    @pytest.mark.parametrize("name,lhs,rhs", SCHEMAS, ids=[n for n, *_ in SCHEMAS])
    def test_matches_brute_force(self, mode, name, lhs, rhs):
        self._check(schema(name, lhs, rhs), mode)

    @pytest.mark.parametrize("mode", [FREE, FREE3], ids=["free", "free3"])
    @pytest.mark.parametrize("name,lhs,rhs", SCHEMAS, ids=[n for n, *_ in SCHEMAS])
    def test_matches_brute_force_rolling_back_every_digit(
            self, monkeypatch, mode, name, lhs, rhs):
        # At bound 1 a free sweep rolls back after every outer digit, so
        # the refutations here are found after rollbacks.
        monkeypatch.setattr(axioms, "_ROLLBACK_NODES", 1)
        self._check(schema(name, lhs, rhs), mode)

    @staticmethod
    def _sweep_sizes(monkeypatch, s, bound):
        """Free sweep of s at budget 100,000 and the given rollback bound:
        (count, budget_exceeded), every node count the levels read, the
        outermost level's mark (its node count on entry) and the number of
        rollbacks."""
        reads, rollbacks = [], []
        size, rollback = Forest.__len__, Forest.rollback

        def counted_size(forest):
            reads.append(size(forest))
            return reads[-1]

        def counted_rollback(forest, nodes):
            rollbacks.append(nodes)
            rollback(forest, nodes)

        with monkeypatch.context() as patch:
            patch.setattr(axioms, "_ROLLBACK_NODES", bound)
            patch.setattr(Forest, "__len__", counted_size)
            patch.setattr(Forest, "rollback", counted_rollback)
            r = _exhaustive(s, FREE, 2, 100_000)
        return (r.count, r.budget_exceeded), reads, reads[0], len(rollbacks)

    def test_free_forest_stays_under_a_ceiling(self, monkeypatch):
        # CP4 has five variables, so four outer levels, each of which reads
        # the forest's node count after every digit.  Let C bound what one
        # level's conds build in one digit (the innermost level's: its whole
        # vector).  After its check a level holds at most `bound` nodes past
        # its mark.  A level marks one digit's conds after its parent's last
        # check, so the fourth level's mark is at most 3 * (bound + C) past
        # the first level's, `base`.  At a check the level below has just
        # returned holding at most max(bound, C) past its own mark, so every
        # read is at most base + 5 * (bound + C).  At bound 1 a level rolls
        # back after nearly every digit, so its conds rebuild the most, and
        # each read is base plus at least what they built: that run's
        # largest read, less base, serves as C.  Bound 2,000
        # keeps this ceiling well under the unbounded run's size at this
        # budget, which the module's bound would not.
        s = table_by_name("CP").schemas[3]
        result, tiny, base, rolled = self._sweep_sizes(monkeypatch, s, 1)
        # The budget ends the 1,352nd outer tuple.  The four outer levels
        # read the node count on entry, 4 + 18 times, as the innermost of
        # them starts over 18 times.  After each of the 1,351 full tuples
        # the carry checks that level's mark, and at each of its wraps the
        # next level's too; at bound 1 nearly every check rolls back.
        assert (len(tiny), rolled) == (4 + 18 + 1_351 + 18, 1_360)
        ceiling = base + 5 * (2_000 + max(tiny) - base)
        bounded = self._sweep_sizes(monkeypatch, s, 2_000)
        unbounded = self._sweep_sizes(monkeypatch, s, 10 ** 9)
        assert bounded[3] > 0 and unbounded[3] == 0
        assert max(bounded[1]) <= ceiling < max(unbounded[1])
        assert result == bounded[0] == unbounded[0] == (100_000, True)
        # A memorising sweep never rolls back its shared forest.
        def refuse(forest, nodes):
            raise AssertionError("a memorising sweep rolled back")

        monkeypatch.setattr(axioms, "_ROLLBACK_NODES", 1)
        monkeypatch.setattr(Forest, "rollback", refuse)
        assert _exhaustive(table_by_name("CPmem").schemas[1], MEM, 2,
                           5_000).count == 5_000

    def test_a_three_valued_sweep_reads_its_memo_back(self, monkeypatch):
        # Mem under MEM3 at budget 5,000 evaluates 73 vector conds, and the
        # memo computes 38 of them: the reference check above covers reads.
        conds, calls = [], []
        memo, subst_vector = axioms._VectorMemo.__call__, MemForest.subst_vector

        def counted_memo(*args):
            conds.append(None)
            return memo(*args)

        def counted(*args):
            calls.append(None)
            return subst_vector(*args)

        monkeypatch.setattr(axioms._VectorMemo, "__call__", counted_memo)
        monkeypatch.setattr(MemForest, "subst_vector", counted)
        s = schema(*next(c for c in self.SCHEMAS if c[0] == "Mem"))
        assert _exhaustive(s, MEM3, 2, 5_000).count == 5_000
        assert (len(calls), len(conds)) == (38, 73)

    def test_budget_stops_a_vector_before_its_refutation(self):
        # Both are refuted at the fifth instantiation under MEM, so a budget
        # of 4 ends the first vector just before the entry that differs.
        for s in (schema("late", "(X && Y) || Z", "(Y && X) || Z"),
                  schema("hoisted", "(X || (Z && F)) && Y",
                         "Y && (X || (Z && F))")):
            assert _exhaustive(s, MEM, 2, 10 ** 6).count == 5
            got = _exhaustive(s, MEM, 2, 4)
            assert (got.count, got.budget_exceeded, got.witness) == \
                _reference_sweep(s, MEM, 2, 4) == (4, True, None)

    def test_cases_reach_mid_vector(self):
        # The reference comparison above means something only if some
        # refutations land past the first digit of an innermost vector.
        r = _exhaustive(schema("late", "(X && Y) || Z", "(Y && X) || Z"),
                        MEM, 2, 10 ** 6)
        assert r.refuted and r.count % 74 not in (0, 1)


_cached_reference_sweep = functools.cache(_reference_sweep)


class TestSweepTables:
    # A cond with a loop strictly between the last two variables it reads
    # takes its value from a table once that loop advances.  The budgets of
    # TestSweepReference end inside the first digit of the outermost loop,
    # before any entry is read back; BUDGET goes past it.
    #
    # !Y and !Y && Z read only Y, so from the second digit of X on (count
    # 5,477) they come from their tables.  Under MEM, W || X and X || W
    # agree while X is its loop's first form, F <| v1 |> (T <| v2 |> T)
    # (after W it is !W), and differ at the second, v2: OrComm is refuted
    # there, with Y && Z read from its table.
    SCHEMAS = [
        ("assoc", "(X && !Y) && Z", "X && (!Y && Z)"),
        ("OrComm", "(W || X) && (Y && Z)", "(X || W) && (Y && Z)"),
    ]
    BUDGET = 6_000  # past 74 * 74, the first digit of the loop skipped

    def _check(self, s, mode):
        got = _exhaustive(s, mode, 2, self.BUDGET)
        count, exceeded, witness = _cached_reference_sweep(s, mode, 2,
                                                           self.BUDGET)
        assert (got.count, got.budget_exceeded, got.witness) == \
            (count, exceeded, witness)

    @pytest.mark.parametrize("mode", [MEM, FREE, MEM3, FREE3],
                             ids=["mem", "free", "mem3", "free3"])
    @pytest.mark.parametrize("name,lhs,rhs", SCHEMAS, ids=[n for n, *_ in SCHEMAS])
    def test_matches_brute_force(self, mode, name, lhs, rhs):
        self._check(schema(name, lhs, rhs), mode)

    @pytest.mark.parametrize("mode", [FREE, FREE3], ids=["free", "free3"])
    @pytest.mark.parametrize("name,lhs,rhs", SCHEMAS, ids=[n for n, *_ in SCHEMAS])
    def test_matches_brute_force_rolling_back_every_digit(
            self, monkeypatch, mode, name, lhs, rhs):
        # A rollback drops the nodes that table entries name, so it must
        # clear them: at bound 1 every outer digit rolls back.
        monkeypatch.setattr(axioms, "_ROLLBACK_NODES", 1)
        self._check(schema(name, lhs, rhs), mode)

    def test_compile_holds_a_shared_subterm_once(self):
        # !X is on both sides of M1: its core form F <| X |> T is one op
        # that both tops read.  Ops hold one entry per distinct core
        # subterm, each after its arguments.
        m1 = next(s for t in builtin_tables() for s in t.schemas if s.name == "M1")
        forest = Forest()
        ops, *tops = axioms._compile(m1, list(m1.variables), forest)
        core = set(subterms(to_core(m1.lhs))) | set(subterms(to_core(m1.rhs)))
        assert len(ops) == len(core)
        args = [op[1:] if op[0] == "cond" else () for op in ops]
        assert all(j < i for i, read in enumerate(args) for j in read)

        def reached(top):
            todo, seen = [top], set()
            while todo:
                i = todo.pop()
                seen.add(i)
                todo += args[i]
            return seen

        not_x = ops["cond", ops["var", 0], ops["const", forest.F], ops["const", forest.T]]
        assert not_x in reached(tops[0]) & reached(tops[1])

    def test_refutation_reads_a_table(self):
        r = _exhaustive(schema(*self.SCHEMAS[1]), MEM, 2, self.BUDGET)
        assert r.refuted and r.count == 74 * 74 + 1

    def test_a_table_is_cleared_at_each_digit_of_its_earlier_variable(self):
        # W && Y and (W && Y) && Z read W and Y, skipping X: their tables
        # hold one digit of W's values.  The right side reads X in between
        # and shares no cond with the left.  The budget runs one digit of Y
        # past W's first digit, where a table left uncleared would hand the
        # left side W's previous value.
        s = schema("assocF", "(W && Y) && Z", "W && ((F && X) || (Y && Z))")
        budget = 74 ** 3 + 74
        r = _exhaustive(s, MEM, 2, budget)
        assert (r.verdict, r.count) == (Verdict.PASSED_EXHAUSTIVE, budget)

    def test_a_cond_is_computed_once_per_digit_it_reads(self, monkeypatch):
        # With no rollback, F7's Y && Z reads only Y: 74 vectors, one per
        # digit of Y, beside the 74 * 74 of each side (16,428 without
        # tables).  CP4's Y <| Z |> P reads P and Y, and the budget ends in
        # P's first digit: 74 vectors beside 13,514 per side (40,542).
        calls = []
        subst_vector = Forest.subst_vector

        def counted(forest, *args):
            calls.append(None)
            return subst_vector(forest, *args)

        monkeypatch.setattr(axioms, "_ROLLBACK_NODES", 10 ** 9)
        monkeypatch.setattr(Forest, "subst_vector", counted)
        for table, name, want in (("EqFSCL", "F7", 2 * 5_476 + 74),
                                  ("CP", "CP4", 2 * 13_514 + 74)):
            s = next(s for s in table_by_name(table).schemas if s.name == name)
            calls.clear()
            r = _exhaustive(s, FREE, 2, 10 ** 6)
            assert not r.refuted and len(calls) == want

    def test_a_column_is_built_once_per_branch_vector(self, monkeypatch):
        # With no rollback, F7's 10,800 calls with a scalar cond and vector
        # branches reach 34,024 nodes under their conds, but under 74
        # distinct branch vectors only 9,764 (node, vector) pairs: a column
        # kept by its vector is built once and then read.
        built = []
        below = Forest._below

        def counted(forest, roots, known):
            out = below(forest, roots, known)
            for pairs, columns in forest._columns.items():
                if columns is known:
                    built.extend((x, pairs) for x in out)
            return out

        monkeypatch.setattr(axioms, "_ROLLBACK_NODES", 10 ** 9)
        monkeypatch.setattr(Forest, "_below", counted)
        s = next(s for s in table_by_name("EqFSCL").schemas if s.name == "F7")
        assert not _exhaustive(s, FREE, 2, 10 ** 6).refuted
        assert len(set(built)) == len(built) == 9_764
        assert len({pairs for _, pairs in built}) == 74

    def test_a_vector_cond_runs_a_kept_program(self, monkeypatch):
        # CP4's vector conds repeat their cond vectors: at budget 100,000
        # its 2,946 vector conds compile 246 programs; a compile on every
        # call would make these equal.
        compiled, vector_conds = [], []
        program, subst_vector = Forest._program, Forest.subst_vector

        def counted_program(forest, p):
            if p not in forest._programs:
                compiled.append(p)
            return program(forest, p)

        def counted(forest, p, q, r):
            if isinstance(p, list):
                vector_conds.append(p)
            return subst_vector(forest, p, q, r)

        monkeypatch.setattr(Forest, "_program", counted_program)
        monkeypatch.setattr(Forest, "subst_vector", counted)
        s = next(s for s in table_by_name("CP").schemas if s.name == "CP4")
        r = _exhaustive(s, FREE, 2, 100_000)
        assert (r.verdict, r.count) == (Verdict.PASSED_EXHAUSTIVE, 100_000)
        assert (len(compiled), len(vector_conds)) == (246, 2_946)

    def test_a_rollback_drops_every_entry_past_its_mark(self, monkeypatch):
        # W && Y skips X, so its table outlives the rollbacks of the X loop.
        # At bound 1 they come after every digit, and a table that kept an
        # entry naming the first node past the mark refutes this valid
        # schema at 27,381; without rollback nothing is dropped.
        s = schema("assocX", "(W && Y) && (X || Z)", "W && (Y && (X || Z))")
        runs = []
        for bound in (1, 10 ** 9):
            monkeypatch.setattr(axioms, "_ROLLBACK_NODES", bound)
            r = _exhaustive(s, FREE, 2, 30_000)
            runs.append((r.verdict, r.count))
        assert runs == [(Verdict.PASSED_EXHAUSTIVE, 30_000)] * 2

    @staticmethod
    def _subst_vector_calls(monkeypatch, table, name):
        t = table_by_name(table)
        s = next(s for s in t.schemas if s.name == name)
        mode = t.mode_for(s)
        kind = MemForest if mode.congruence == "mem" else Forest
        calls = []
        subst_vector = kind.subst_vector

        def counted(forest, *args):
            calls.append(None)
            return subst_vector(forest, *args)

        monkeypatch.setattr(kind, "subst_vector", counted)
        r = _exhaustive(s, mode, 2, 10 ** 6)
        assert not r.refuted
        return len(calls)

    def test_a_rollback_clears_the_tables_inside_its_level(self, monkeypatch):
        # At the module bound F7 rolls back 16 times, each time to the
        # outermost level's mark, and clears the tables of that level and
        # the ones inside it: 16 refills of the 74 entries of Y && Z's
        # table make 12,210 calls, against 11,026 without rollback.
        assert self._subst_vector_calls(monkeypatch, "EqFSCL", "F7") == 12_210

    @pytest.mark.parametrize("table,name,want", [
        ("EqMSCL-lI", "AndIff", 6_138), ("EqMSCL", "Mem", 6_063),
        ("EqMSCL-lN", "N3", 6_211),
    ])
    def test_a_memorising_sweep_computes_each_vector_cond_once(
            self, monkeypatch, table, name, want):
        # These sweeps evaluate 16,577, 16,576 and 22,275 vector conds.  The
        # memo computes a cond once per distinct key, the three arguments as
        # ids (a scalar's forest id, an interned vector's key), and reads
        # every repeat back; its results are interned, so equal vectors
        # from different conds give later conds one key.
        assert self._subst_vector_calls(monkeypatch, table, name) == want


def _atoms_to_vars(t):
    match t:
        case Atom("h"):
            return Var("X")
        case Atom("k"):
            return Var("Y")
        case Cond(x, y, z):
            return Cond(_atoms_to_vars(x), _atoms_to_vars(y), _atoms_to_vars(z))
        case Not(x):
            return Not(_atoms_to_vars(x))
        case _ if hasattr(t, "left"):
            return type(t)(_atoms_to_vars(t.left), _atoms_to_vars(t.right))
        case _:
            return t


class TestBuiltinTables:
    def test_table_names(self):
        names = [t.name for t in builtin_tables()]
        assert names == [
            "CP", "CPmem", "EqFSCL", "EqMSCL", "EqMSCL-consequences",
            "EqMSCL-lI", "EqMSCL-lI-consequences", "EqMSCL-lN",
            "EqMSCL-lN-consequences", "U", "U-consequences", "negative",
        ]

    def test_eqmscl_contents(self):
        t = table_by_name("EqMSCL")
        assert [s.name for s in t.schemas] == ["Neg", "Or", "Tand", "Abs", "Mem"]
        assert t.mode == MEM

    def test_nand_axioms(self):
        t = table_by_name("EqMSCL-lN")
        assert [s.name for s in t.schemas] == ["N1", "N2", "N3"]

    def test_undef_table(self):
        t = table_by_name("U")
        assert [s.name for s in t.schemas] == ["CP-U", "Und", "NU"]
        assert t.mode == MEM3

    def test_free_tables(self):
        assert table_by_name("CP").mode == FREE
        assert table_by_name("EqFSCL").mode == FREE

    def test_negative_table_modes(self):
        t = table_by_name("negative")
        assert t.expect_refuted
        by_name = {s.name: t.mode_for(s) for s in t.schemas}
        assert by_name["C1free"] == FREE
        assert by_name["AndComm"] == MEM

    def test_unknown_table(self):
        with pytest.raises(UnknownTableError, match="^no builtin table named 'EqXYZ'$"):
            table_by_name("EqXYZ")

    def test_mem_axiom_shape(self):
        mem = table_by_name("EqMSCL").schemas[4]
        assert mem.lhs == parse("(X || Y) && Z")
        assert vars_of(mem.rhs) == ["X", "Y", "Z"]

    def test_check_table_negative(self):
        for s, r in check_table(table_by_name("negative")):
            assert r.verdict is Verdict.REFUTED_FRESH_ATOMS

    def test_constants_not_definable(self):
        # Excluded middle still requires evaluating the atom, so neither
        # constant is definable from an atom and its negation.
        assert check_schema(schema("lem", "X || !X", "T"), MEM).refuted
        assert check_schema(schema("contra", "X && !X", "F"), MEM).refuted

    def test_full_sequential_and_definitions_agree(self):
        # Both arguments always evaluated: the SCL phrasing and the
        # conditional phrasing define the same connective.
        s = schema("fulland", "(X || (Y && F)) && Y", "Y <| X |> (F <| Y |> F)")
        assert check_schema(s, MEM, "exhaustive").verdict is \
            Verdict.PASSED_EXHAUSTIVE

    def test_tables_closed_under_duality(self):
        # Both axiom systems satisfy the duality principle, so dualizing
        # every valid schema must again give a valid schema.
        for table in builtin_tables():
            if table.expect_refuted:
                continue
            for s in table.schemas:
                flipped = Schema(s.name + "-dual", dual(s.lhs), dual(s.rhs))
                r = check_schema(flipped, table.mode_for(s))
                assert r.verdict is Verdict.PASSED_FRESH_ATOMS, s.name
