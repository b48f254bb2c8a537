import json

import pytest
from hypothesis import given, strategies as st

from conftest import fresh_python, terms
from sclc.errors import AtomCaseError, ParseError
from sclc.syntax import (
    FF, TT, UU, And, Atom, Cond, Const, Iff, Nand, Nor, Not, Or, Term, Var, Xor,
    atoms_of, dual, is_closed, parse, print_term, vars_of,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


# Operators, identifiers, blanks and a few characters outside the grammar.
GRAMMAR_PIECES = [
    "a", "b1", "X", "T", "F", "U", "<->", "<|", "|>", "||", "&&", "~&", "~|",
    "^^", "(", ")", "!", "∧ᵒ", "∨", "↔ᵒ", "⊕", "¬", "⊼", "⊽", "◁", "▷",
    " ", "\n", "\t", "<", "|", "&", "~", "_", "B", "ᵒ", "@",
]


class TestParse:
    def test_constant(self):
        assert parse("T") == TT
        assert parse("F") == FF
        assert parse("U") == UU

    def test_conditional(self):
        assert parse("F <| b |> (T <| a |> F)") == Cond(FF, b, Cond(TT, a, FF))

    def test_nand_shape_of_or(self):
        assert parse("!(!a && !b)") == Not(And(Not(a), Not(b)))

    def test_precedence(self):
        assert parse("a && b || c") == Or(And(a, b), c)
        assert parse("a || b && c") == Or(a, And(b, c))
        assert parse("!a && b") == And(Not(a), b)
        assert parse("a ~& b && c") == And(Nand(a, b), c)
        assert parse("a && b ~& c") == And(a, Nand(b, c))
        assert parse("a ^^ b <-> c") == Iff(Xor(a, b), c)

    def test_left_associative(self):
        assert parse("a && b && c") == And(And(a, b), c)
        assert parse("a ~& b ~| c") == Nor(Nand(a, b), c)

    def test_cond_non_associative(self):
        with pytest.raises(ParseError):
            parse("a <| b |> c <| d |> e")

    def test_unicode_aliases(self):
        assert parse("¬a ∧ᵒ b") == And(Not(a), b)
        assert parse("a ∨ b") == Or(a, b)
        assert parse("a ↔ᵒ b") == Iff(a, b)
        assert parse("a ⊕ᵒ b") == Xor(a, b)
        assert parse("T ◁ a ▷ F") == Cond(TT, a, FF)

    def test_variables(self):
        assert parse("X && a") == And(Var("X"), a)
        assert not is_closed(parse("X"))
        assert is_closed(parse("a && T"))

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse("a &&\n  ||")
        assert e.value.line == 2
        assert e.value.column == 3

    def test_error_expected_set(self):
        with pytest.raises(ParseError) as e:
            parse("(a")
        assert "')'" in e.value.expected

    def test_atom_case_error(self):
        with pytest.raises(AtomCaseError):
            parse("aBad")
        with pytest.raises(AtomCaseError):
            parse("_x")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("a @ b")

    @given(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=30).map("".join))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            assert isinstance(parse(text), Term)
        except ParseError:
            pass


OPERAND = frozenset({"'T'", "'F'", "'U'", "atom", "variable", "'('", "'!'"})
END = frozenset({"end of input", "operator"})
IDENT = frozenset({"atom [a-z][a-z0-9_]*", "variable [A-Z][A-Za-z0-9_]*"})

# Exact parse errors: class, message, position and expected set.
PARSE_ERRORS = [
    ("", ParseError, "unexpected 'end of input'", 1, 1, OPERAND),
    ("a &&", ParseError, "unexpected 'end of input'", 1, 5, OPERAND),
    ("(a", ParseError, "unexpected 'end of input'", 1, 3, {"')'"}),
    ("a <| b", ParseError, "unexpected 'end of input'", 1, 7, {"'|>'"}),
    ("a <| b <| c", ParseError, "unexpected '<|'", 1, 8, {"'|>'"}),
    ("a <| b |> c <| d |> e", ParseError, "unexpected '<|'", 1, 13, END),
    ("(a <| b |> c <| d)", ParseError, "unexpected '<|'", 1, 14, {"')'"}),
    ("a b", ParseError, "unexpected 'b'", 1, 3, END),
    ("(a b)", ParseError, "unexpected 'b'", 1, 4, {"')'"}),
    ("a )", ParseError, "unexpected ')'", 1, 3, END),
    ("!", ParseError, "unexpected 'end of input'", 1, 2, OPERAND),
    ("a &&\n  ||", ParseError, "unexpected '||'", 2, 3, OPERAND),
    ("a @ b", ParseError, "unexpected character '@'", 1, 3, set()),
    ("aBad", AtomCaseError, "identifier 'aBad' is neither an atom nor a variable",
     1, 1, IDENT),
    ("  _x", AtomCaseError, "identifier '_x' is neither an atom nor a variable",
     1, 3, IDENT),
    ("|> a", ParseError, "unexpected '|>'", 1, 1, OPERAND),
    ("a ◁ b ▷ c ▷", ParseError, "unexpected '▷'", 1, 11, END),
    ("a\n\t&& )", ParseError, "unexpected ')'", 2, 5, OPERAND),
    # A bad character anywhere is reported before a grammar error.
    ("a b @", ParseError, "unexpected character '@'", 1, 5, set()),
]


@pytest.mark.parametrize("text,cls,message,line,column,expected", PARSE_ERRORS)
def test_parse_error_table(text, cls, message, line, column, expected):
    with pytest.raises(ParseError) as e:
        parse(text)
    shown = f" (expected {', '.join(sorted(expected))})" if expected else ""
    assert type(e.value) is cls
    assert str(e.value) == f"{message} at line {line}, column {column}{shown}"
    assert (e.value.line, e.value.column, e.value.expected) == (line, column, expected)


DEPTH_SCRIPT = r"""
import json, sys
from sclc.axioms import Schema, instantiate
from sclc.errors import DepthLimitError, ParseError
from sclc.syntax import (
    FF, TT, And, Atom, Cond, Nand, Not, atoms_of, dual, is_closed, parse, vars_of,
)
from sclc.translate import decode_nand, encode_nand, to_core

a, b = Atom("a"), Atom("b")
texts = {
    "bang": lambda n: "!" * n + "a",
    "paren": lambda n: "(" * n + "a" + ")" * n,
    "cond": lambda n: "a <| b |> (" * n + "F" + ")" * n,
}
peel = {  # one nesting level off, or None if the level is wrong
    "bang": lambda t: t.arg if type(t) is Not else None,
    "paren": lambda t: t,
    "cond": lambda t: t.orelse if type(t) is Cond and (t.then, t.cond) == (a, b) else None,
}
leaf = {"bang": a, "paren": a, "cond": FF}


def walks(t):
    return [atoms_of(t), vars_of(t), is_closed(t), Schema("deep", t, t).uses_undef]


out = {}
for name, text in texts.items():
    for n in (10_000, 10_001):
        try:
            t = parse(text(n))
        except ParseError as e:
            out[f"{name}-{n}"] = [str(e), e.line, e.column]
            continue
        out[f"{name}-{n}-walks"] = walks(t)
        for _ in range(n):
            t = t and peel[name](t)
        out[f"{name}-{n}"] = t == leaf[name]
out["walks"] = walks(parse("!" * 10_000 + "X && U"))

# Each term rewrite at depth 10,000, its result checked by peeling (== on
# the whole result would recurse), and one level deeper.
bangs = parse("!" * 10_000 + "a")
nands = parse("a ~& " * 10_000 + "a")
rewrites = {  # name: (rewrite, depth-10,000 input, one level off its result)
    "to_core": (to_core, bangs, lambda t: t.cond if type(t) is Cond
                and (t.then, t.orelse) == (FF, TT) else None),
    "dual": (dual, bangs, peel["bang"]),
    "encode_nand": (encode_nand, bangs,
                    lambda t: t.left if type(t) is Nand and t.right == TT else None),
    "decode_nand": (decode_nand, nands, lambda t: t.arg.left if type(t) is Not
                    and type(t.arg) is And and t.arg.right == a else None),
    "instantiate": (lambda t: instantiate(Schema("deep", t, t), {"X": a})[0],
                    parse("!" * 10_000 + "X"), peel["bang"]),
}
for name, (rewrite, t, level) in rewrites.items():
    u = rewrite(t)
    for _ in range(10_000):
        u = u and level(u)
    try:
        rewrite(Nand(t, a) if name == "decode_nand" else Not(t))
        out[name] = [u == a, "accepted"]
    except DepthLimitError as e:
        out[name] = [u == a, str(e)]
out["siblings"] = type(parse("(!a) && " * 10_001 + "a")).__name__
out["recursion_limit"] = sys.getrecursionlimit()
print(json.dumps(out))
"""


def test_depth_limit_without_recursion():
    done = fresh_python("-c", DEPTH_SCRIPT)
    assert done.returncode == 0, done.stderr
    deep = "nesting deeper than 10000 at line 1, column"
    assert json.loads(done.stdout) == {
        "bang-10000": True, "paren-10000": True, "cond-10000": True,
        "bang-10000-walks": [["a"], [], True, False],
        "paren-10000-walks": [["a"], [], True, False],
        "cond-10000-walks": [["b", "a"], [], True, False],
        "bang-10001": [f"{deep} 10001", 1, 10001],
        "paren-10001": [f"{deep} 10001", 1, 10001],
        "cond-10001": [f"{deep} 110011", 1, 110011],
        "walks": [[], ["X"], False, True],
        **dict.fromkeys(["to_core", "dual", "encode_nand", "decode_nand", "instantiate"],
                        [True, "term depth exceeds limit 10000"]),
        "siblings": "And",
        "recursion_limit": 1000,
    }


def test_cli_too_deep_is_a_usage_error():
    x = "(" * 10_001 + "a" + ")" * 10_001
    done = fresh_python("-m", "sclc.cli", "eq", x, x)
    assert done.returncode == 2
    assert done.stderr == "sclc: nesting deeper than 10000 at line 1, column 10001\n"


def _reference_json(t: Term):
    """The nested-object encoding, built recursively."""
    match t:
        case Const(v):
            return {"const": v}
        case Atom(name):
            return {"atom": name}
        case Var(name):
            return {"var": name}
        case Cond(then, cond, orelse):
            return {"cond": {"then": _reference_json(then), "if": _reference_json(cond),
                             "else": _reference_json(orelse)}}
        case Not(arg):
            return {"not": _reference_json(arg)}
    return {type(t).__name__.lower(): {"left": _reference_json(t.left),
                                       "right": _reference_json(t.right)}}


class TestPrint:
    def test_unicode_conditional(self):
        assert print_term(Cond(TT, a, FF), "unicode") == "T ◁ a ▷ F"

    def test_ascii_constant(self):
        assert print_term(TT, "ascii") == "T"

    def test_prime_abbreviation(self):
        assert print_term(Nand(a, TT), "ascii") == "a ~& T"
        assert print_term(Nand(a, TT), "ascii", primes=True) == "a'"
        assert print_term(Nand(Nand(a, TT), TT), "ascii", primes=True) == "a''"
        assert print_term(Nand(And(a, b), TT), "ascii", primes=True) == "(a && b)'"

    def test_minimal_parens(self):
        assert print_term(Or(And(a, b), c)) == "a && b || c"
        assert print_term(And(a, Or(b, c))) == "a && (b || c)"
        assert print_term(And(And(a, b), c)) == "a && b && c"
        assert print_term(And(a, And(b, c))) == "a && (b && c)"

    def test_nested_cond_parenthesized(self):
        t = Cond(FF, b, Cond(TT, a, FF))
        assert print_term(t) == "F <| b |> (T <| a |> F)"

    def test_json(self):
        assert print_term(Cond(TT, a, FF), "json") == (
            '{"cond": {"then": {"const": "T"}, "if": {"atom": "a"}, '
            '"else": {"const": "F"}}}')
        assert print_term(And(Var("X"), Not(a)), "json") == (
            '{"and": {"left": {"var": "X"}, "right": {"not": {"atom": "a"}}}}')

    def test_bad_style(self):
        with pytest.raises(ValueError):
            print_term(TT, "latex")

    @given(terms())
    def test_json_is_the_nested_object_encoding(self, t):
        text = print_term(t, "json")
        assert json.loads(text) == _reference_json(t)
        assert text == json.dumps(_reference_json(t), separators=(", ", ": "))

    @pytest.mark.parametrize("style", ["ascii", "unicode"])
    @given(terms())
    def test_roundtrip(self, style, t):
        assert parse(print_term(t, style)) == t


class TestDual:
    def test_constants(self):
        assert dual(TT) == FF
        assert dual(FF) == TT
        assert dual(UU) == UU

    def test_atom_fixed(self):
        assert dual(a) == a
        assert dual(Var("X")) == Var("X")

    def test_conditional_reversed(self):
        assert dual(Cond(FF, b, Cond(TT, a, FF))) == Cond(Cond(TT, a, FF), b, TT)

    def test_connective_swaps(self):
        assert dual(And(a, b)) == Or(a, b)
        assert dual(Or(a, b)) == And(a, b)
        assert dual(Iff(a, b)) == Xor(a, b)
        assert dual(Nand(a, b)) == Nor(a, b)
        assert dual(Not(a)) == Not(a)

    @given(terms())
    def test_involution(self, t):
        assert dual(dual(t)) == t

    @given(terms(), terms())
    def test_homomorphism(self, p, q):
        assert dual(And(p, q)) == Or(dual(p), dual(q))
        assert dual(Or(p, q)) == And(dual(p), dual(q))
        assert dual(Xor(p, q)) == Iff(dual(p), dual(q))
        assert dual(Nor(p, q)) == Nand(dual(p), dual(q))
        assert dual(Cond(p, q, p)) == Cond(dual(p), dual(q), dual(p))


class TestAtomsOf:
    def test_order_condition_first(self):
        assert atoms_of(Cond(FF, b, Cond(TT, a, FF))) == ["b", "a"]

    def test_empty(self):
        assert atoms_of(TT) == []

    def test_duplicates_collapse(self):
        assert atoms_of(And(a, And(b, a))) == ["a", "b"]

    def test_vars_of(self):
        assert vars_of(parse("Y && (X || Y)")) == ["Y", "X"]


class TestValidation:
    def test_bad_atom_name(self):
        with pytest.raises(ValueError):
            Atom("Bad")

    def test_bad_var_name(self):
        with pytest.raises(ValueError):
            Var("lower")
        with pytest.raises(ValueError):
            Var("U")

    def test_bad_const(self):
        with pytest.raises(ValueError):
            Const("X")
