import json
import random

import pytest

from conftest import all_valuations, fresh_python, random_term
from sclc.congruence import MEM3, equiv, trace_eval
from sclc.errors import InvariantError, OpenTermError, UnsupportedConnective
from sclc.nandform import (
    check_munbf, from_munbf, is_munbf, nand_nf, render_nand, to_munbf, to_json,
)
from sclc.normalform import (
    LEAF_F, LEAF_T, LEAF_U, Node, enumerate_mem_basic, is_mem_basic, mbf,
    reduce, subst_tf,
)
from sclc.syntax import Atom, And, Nand, Not, Or, FF, TT, UU, Var, atoms_of, parse
from sclc.translate import decode_nand, encode_nand, to_core

a, b = "a", "b"


def small_terms(leaves: list, unary: tuple, binary: tuple, most: int) -> list:
    """Every term over leaves and the unary and binary connectives with at
    most `most` connectives, fewest first."""
    by_size = [leaves]
    for n in range(1, most + 1):
        by_size.append([op(x) for op in unary for x in by_size[n - 1]]
                       + [op(x, y) for op in binary for i in range(n)
                          for x in by_size[i] for y in by_size[n - 1 - i]])
    return [t for terms in by_size for t in terms]


def small_nand_terms(undef: bool = True) -> list:
    """Every closed term over a, b, T, F (and U) and ~& with at most three
    ~&, fewest first: 3,405 terms with U, 1,428 without."""
    return small_terms([Atom(a), Atom(b), TT, FF] + [UU] * undef, (), (Nand,), 3)


class TestAssume:
    """nand_nf's assume step, an atom's value taken as known, is reduce."""

    def test_undef_leaf(self):
        assert reduce(LEAF_U, a, True) == LEAF_U

    def test_matching_node_true(self):
        p1, p2 = Node(b, LEAF_T, LEAF_F), LEAF_F
        assert reduce(Node(a, p1, p2), a, True) == p1

    def test_recursive_then_match(self):
        tree = Node(a, Node(b, LEAF_T, LEAF_F), LEAF_U)
        assert reduce(tree, b, False) == Node(a, LEAF_F, LEAF_U)

    def test_result_drops_atom(self):
        forms = enumerate_mem_basic(("v1", "v2"), three_valued=True)
        for f in forms[:100]:
            q = to_munbf(f)
            for atom in ("v1", "v2"):
                for value in (True, False):
                    out = reduce(q, atom, value)
                    assert is_munbf(out)
                    assert atom not in atoms_of(render_nand(out))


class TestNandNf:
    def test_false_left(self):
        assert nand_nf(Nand(parse("F"), Atom("a"))) == LEAF_T

    def test_undef_left(self):
        assert nand_nf(Nand(UU, Atom("a"))) == LEAF_U

    def test_negated_atom(self):
        assert nand_nf(Nand(Atom("a"), TT)) == Node(a, LEAF_F, LEAF_T)

    def test_negated_atom_against_oracle(self):
        got = nand_nf(Nand(Atom("a"), TT))
        for v in all_valuations(["a"]):
            assert trace_eval(render_nand(got), v) == \
                trace_eval(Nand(Atom("a"), TT), v)

    def test_atom(self):
        assert nand_nf(Atom("a")) == Node(a, LEAF_T, LEAF_F)

    def test_unsupported(self):
        with pytest.raises(UnsupportedConnective):
            nand_nf(And(Atom("a"), Atom("b")))

    def test_open(self):
        with pytest.raises(OpenTermError):
            nand_nf(Nand(Var("X"), TT))

    def test_output_valid(self):
        rng = random.Random(21)
        for _ in range(200):
            t = random_term(rng, max_depth=5, connectives="nand", undef=True)
            assert is_munbf(nand_nf(t))

    @pytest.mark.parametrize("undef", [False, True], ids=["two-valued", "with-U"])
    def test_agrees_with_trace_eval(self, undef):
        # An oracle outside the engine: nand_nf shares MemForest.node and
        # reduce with mbf, so the route commutations below would miss a
        # fault there.  Equal results and first-inspection orders under
        # every valuation, on random terms over three atoms and on every
        # small term over two.
        rng = random.Random(23)
        three, two = all_valuations(["a", "b", "c"]), all_valuations(["a", "b"])
        cases = [(random_term(rng, max_depth=5, connectives="nand", undef=undef), three)
                 for _ in range(150)]
        cases += [(t, two) for t in small_nand_terms(undef)]
        for t, valuations in cases:
            form = render_nand(nand_nf(t))
            for v in valuations:
                assert trace_eval(form, v) == trace_eval(t, v)

    @pytest.mark.parametrize("depth", [3_000, 10_000])
    @pytest.mark.parametrize("shape, on_false", [
        ("a ~& (a ~& (... a))", "T"), ("((a ~& T) ~& T)...", "F")],
        ids=["right-nested", "left-nested"])
    def test_deep_input_needs_no_recursion(self, depth, shape, on_false):
        # Both shapes nest depth ~& (an even count), so each is
        # T <| a |> on_false; in a fresh interpreter at recursion limit 1,000.
        if shape.startswith("a"):
            x = "a ~& (" * (depth - 1) + "a ~& a" + ")" * (depth - 1)
        else:
            x = "(" * (depth - 1) + "a ~& T" + ") ~& T" * (depth - 1)
        done = fresh_python("-m", "sclc.cli", "munbf", "--json", x)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {
            "nnode": "a", "t": {"leaf": "T"}, "f": {"leaf": on_false}}

    def test_distinct_atoms_nested_to_the_right(self):
        # The form is a chain one node per atom deep.  munbf leaves the
        # recursion limit as it was; the mbf of the check then raises it.
        done = fresh_python("-c", MUNBF_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, "", 1_000, True]


# sclc munbf on a0 ~& (a1 ~& (... (b ~& c))) over 3,000 distinct atoms, in a
# fresh interpreter, against the text of mbf's form of the decoded term.
MUNBF_SCRIPT = r"""
import contextlib, io, json, sys
from sclc.cli import main
from sclc.nandform import render_nand, to_munbf
from sclc.normalform import mbf
from sclc.syntax import parse, print_term
from sclc.translate import decode_nand, to_core
text = "b ~& c"
for i in reversed(range(3_000)):
    text = f"a{i} ~& ({text})"
with contextlib.redirect_stdout(io.StringIO()) as out, \
        contextlib.redirect_stderr(io.StringIO()) as err:
    code = main(["munbf", text])
limit = sys.getrecursionlimit()
form = to_munbf(mbf(to_core(decode_nand(parse(text)))))
want = print_term(render_nand(form), "unicode") + "\n"
print(json.dumps([code, err.getvalue(), limit, out.getvalue() == want]))
"""


class TestBijection:
    def test_leaves(self):
        assert to_munbf(LEAF_T) == LEAF_T
        assert from_munbf(LEAF_U).tree == LEAF_U

    def test_single_node(self):
        assert to_munbf(Node(a, LEAF_T, LEAF_F)) == Node(a, LEAF_T, LEAF_F)
        assert from_munbf(Node(a, LEAF_T, LEAF_F)).tree == Node(a, LEAF_T, LEAF_F)

    def test_recursive(self):
        assert to_munbf(Node(a, Node(b, LEAF_F, LEAF_F), LEAF_F)) == \
            Node(a, Node(b, LEAF_F, LEAF_F), LEAF_F)
        assert from_munbf(Node(b, LEAF_F, Node(a, LEAF_T, LEAF_U))).tree == \
            Node(b, LEAF_F, Node(a, LEAF_T, LEAF_U))

    def test_identity_both_ways_on_all_291(self):
        forms = enumerate_mem_basic(("v1", "v2"), three_valued=True)
        assert len(forms) == 291
        for f in forms:
            q = to_munbf(f)
            assert is_munbf(q)
            assert from_munbf(q).tree == f
            assert to_munbf(from_munbf(q)) == q


class TestRouteCommutation:
    def test_exact_equality(self):
        rng = random.Random(22)
        small = small_nand_terms()
        assert len(small) == 3_405
        randoms = [random_term(rng, max_depth=5, connectives="nand", undef=True)
                   for _ in range(300)]
        for t in randoms + small:
            via_cond = to_munbf(mbf(to_core(decode_nand(t))))
            assert nand_nf(t) == via_cond

    def test_from_the_scl_side(self):
        # The other direction: an SCL term coded into NAND and normalized
        # there gives the NAND reading of its mem-basic form.
        rng = random.Random(24)
        small = small_terms([Atom(a), Atom(b), TT, FF, UU], (Not,), (And, Or), 2)
        assert len(small) == 1_215
        randoms = [random_term(rng, max_depth=5, connectives="scl", undef=True)
                   for _ in range(300)]
        for t in randoms + small:
            assert nand_nf(encode_nand(t)) == to_munbf(mbf(t))


class TestSemanticIdentities:
    def test_left_absorption_after_assume(self):
        # a ~& P is equivalent to a ~& (P with a assumed true); dually for
        # the primed atom and assumed false.
        forms = enumerate_mem_basic(("v1", "v2"), three_valued=True)
        v1 = Atom("v1")
        for f in forms[::7]:
            q = to_munbf(f)
            assert equiv(Nand(v1, render_nand(q)),
                         Nand(v1, render_nand(reduce(q, "v1", True))), MEM3)
            assert equiv(Nand(Nand(v1, TT), render_nand(q)),
                         Nand(Nand(v1, TT), render_nand(reduce(q, "v1", False))),
                         MEM3)


class TestHelpers:
    def test_complement_leaves(self):
        # Priming complements the leaves: subst of F for T and T for F.
        tree = Node(a, LEAF_T, Node(b, LEAF_U, LEAF_F))
        primed = subst_tf(tree, LEAF_F, LEAF_T)
        assert primed == Node(a, LEAF_F, Node(b, LEAF_U, LEAF_T))
        assert subst_tf(primed, LEAF_F, LEAF_T) == tree

    def test_is_munbf_rejects_repeat(self):
        assert not is_munbf(Node(a, Node(a, LEAF_T, LEAF_F), LEAF_F))

    def test_is_munbf_agrees_with_is_mem_basic(self):
        forms = enumerate_mem_basic(("a", "b", "c"), three_valued=True)
        shared = Node(a, LEAF_T, LEAF_F)
        repeats = [Node(a, Node(b, LEAF_U, shared), LEAF_F),
                   Node(b, Node("c", shared, LEAF_T), Node(a, LEAF_F, shared)),
                   Node("c", LEAF_T, Node(b, LEAF_F, Node("c", LEAF_U, LEAF_T)))]
        for f in forms + repeats:
            assert is_munbf(to_munbf(f)) == is_mem_basic(f) == (f not in repeats)

    def test_check_munbf(self):
        with pytest.raises(InvariantError):
            check_munbf(Node(a, Node(a, LEAF_T, LEAF_F), LEAF_F))

    def test_json(self):
        assert json.loads(to_json(Node(a, LEAF_T, LEAF_U))) == {
            "nnode": "a", "t": {"leaf": "T"}, "f": {"leaf": "U"}}

    def test_render_shape(self):
        got = render_nand(Node(a, LEAF_T, LEAF_F))
        assert got == Nand(Nand(Atom("a"), parse("T")),
                           Nand(Nand(Atom("a"), TT), parse("F")))
