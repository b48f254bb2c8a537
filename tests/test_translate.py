import itertools
import random

import pytest

from conftest import random_term
from sclc.congruence import MEM, equiv, eval_tree
from sclc.errors import UnsupportedConnective
from sclc.syntax import (
    FF, TT, UU, And, Atom, Cond, Const, Iff, Nand, Nor, Not, Or, Term, Var, Xor,
)
from sclc.translate import decode_nand, encode_nand, to_core

a, b = Atom("a"), Atom("b")


def only_core(t: Term) -> bool:
    match t:
        case Const() | Atom() | Var():
            return True
        case Cond(x, y, z):
            return only_core(x) and only_core(y) and only_core(z)
        case _:
            return False


class TestToCore:
    def test_not(self):
        assert to_core(Not(a)) == Cond(FF, a, TT)

    def test_and(self):
        assert to_core(And(a, b)) == Cond(b, a, FF)

    def test_or(self):
        assert to_core(Or(a, b)) == Cond(TT, a, b)

    def test_iff(self):
        assert to_core(Iff(a, b)) == Cond(b, a, Cond(FF, b, TT))

    def test_xor(self):
        assert to_core(Xor(a, b)) == Cond(Cond(FF, b, TT), a, b)

    def test_nand(self):
        assert to_core(Nand(a, b)) == Cond(Cond(FF, b, TT), a, TT)

    def test_nor(self):
        assert to_core(Nor(a, b)) == Cond(FF, a, Cond(FF, b, TT))

    def test_vars_pass_through(self):
        assert to_core(And(Var("X"), b)) == Cond(b, Var("X"), FF)

    def test_output_is_core(self):
        rng = random.Random(7)
        for _ in range(200):
            assert only_core(to_core(random_term(rng, max_depth=5, undef=True)))

    def test_shares_the_operand_used_twice(self):
        y = Or(a, b)
        iff, xor = to_core(Iff(a, y)), to_core(Xor(a, y))
        assert iff.then is iff.orelse.cond
        assert xor.then.cond is xor.orelse

    def test_core_elimination_soundness(self):
        # eval_tree has its own continuation rule per connective and does
        # not lower, so it checks each equation of to_core independently.
        rng = random.Random(8)
        for _ in range(200):
            t = random_term(rng, max_depth=5, undef=True)
            assert eval_tree(to_core(t)) == eval_tree(t)

    def test_every_connective_over_every_leaf_pair(self):
        leaves = (TT, FF, UU, a, b)
        terms = [Not(x) for x in leaves]
        terms += [ctor(x, y) for ctor in (And, Or, Iff, Xor, Nand, Nor)
                  for x, y in itertools.product(leaves, repeat=2)]
        terms += [Cond(*xyz) for xyz in itertools.product(leaves, repeat=3)]
        for t in terms:
            assert eval_tree(to_core(t)) == eval_tree(t), t


class TestEncodeNand:
    def test_not(self):
        assert encode_nand(Not(a)) == Nand(a, TT)

    def test_and(self):
        assert encode_nand(And(a, b)) == Nand(Nand(a, b), TT)

    def test_or(self):
        assert encode_nand(Or(a, b)) == Nand(Nand(a, TT), Nand(b, TT))

    def test_nand_passes_through(self):
        assert encode_nand(Nand(a, b)) == Nand(a, b)

    def test_unsupported(self):
        for t in (Cond(a, b, a), Iff(a, b), Xor(a, b), Nor(a, b)):
            with pytest.raises(UnsupportedConnective):
                encode_nand(t)

    def test_unsupported_names_the_outermost(self):
        with pytest.raises(UnsupportedConnective, match="^Iff has no direct NAND"):
            encode_nand(Iff(Xor(a, b), Atom("c")))
        with pytest.raises(UnsupportedConnective, match="^Or is outside"):
            decode_nand(Nand(Or(And(a, b), a), b))


class TestDecodeNand:
    def test_nand(self):
        assert decode_nand(Nand(a, b)) == Not(And(a, b))

    def test_constant(self):
        assert decode_nand(TT) == TT

    def test_homomorphic(self):
        assert decode_nand(Nand(FF, a)) == Not(And(FF, a))

    def test_unsupported(self):
        for t in (Not(a), And(a, b), Or(a, b), Cond(a, b, a)):
            with pytest.raises(UnsupportedConnective):
                decode_nand(t)


class TestRoundtrip:
    def test_encode_decode_mem_equivalent(self):
        rng = random.Random(9)
        for _ in range(300):
            t = random_term(rng, max_depth=5, connectives="scl")
            assert equiv(decode_nand(encode_nand(t)), t, MEM)

    def test_conditional_expressible_by_and_or(self):
        rng = random.Random(10)
        for _ in range(100):
            p = random_term(rng, max_depth=3, connectives="scl")
            q = random_term(rng, max_depth=3, connectives="scl")
            r = random_term(rng, max_depth=3, connectives="scl")
            assert equiv(Cond(q, p, r),
                         Or(And(p, q), And(Not(p), r)), MEM)

    def test_conditional_expressible_by_nand(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_term(rng, max_depth=2, connectives="scl")
            q = random_term(rng, max_depth=2, connectives="scl")
            r = random_term(rng, max_depth=2, connectives="scl")
            chars = [
                Nand(Nand(p, q), Nand(Nand(p, TT), r)),
                Nand(Nand(Nand(p, TT), r), Nand(p, q)),
                Nand(Nand(Nand(Nand(p, TT), Nand(r, TT)),
                          Nand(p, Nand(q, TT))), TT),
                Nand(Nand(Nand(p, Nand(q, TT)),
                          Nand(Nand(p, TT), Nand(r, TT))), TT),
            ]
            for alt in chars:
                assert equiv(Cond(q, p, r), alt, MEM)
