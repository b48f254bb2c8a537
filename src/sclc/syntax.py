"""Term language for sequential propositional logic.

Terms mix Hoare's ternary conditional with the left-sequential connectives
(negation, and, or, iff, xor, nand, nor), the constants T/F/U, atoms
(lowercase identifiers) and schema variables (uppercase identifiers).
All values are immutable; operations here are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

from .errors import (
    AtomCaseError, DepthLimitError, ParseError, UnsupportedConnective,
)

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class Term:
    """Base class; concrete nodes are the dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Term):
    value: str  # "T", "F" or "U"

    def __post_init__(self):
        if self.value not in ("T", "F", "U"):
            raise ValueError(f"bad constant {self.value!r}")


TT = Const("T")
FF = Const("F")
UU = Const("U")


@dataclass(frozen=True, slots=True)
class Atom(Term):
    name: str

    def __post_init__(self):
        if not ATOM_RE.match(self.name):
            raise ValueError(f"bad atom name {self.name!r}")


@dataclass(frozen=True, slots=True)
class Var(Term):
    """Schema variable; distinguished from atoms by its leading capital."""

    name: str

    def __post_init__(self):
        if not VAR_RE.match(self.name) or self.name in ("T", "F", "U"):
            raise ValueError(f"bad variable name {self.name!r}")


@dataclass(frozen=True, slots=True)
class Cond(Term):
    """Ternary conditional: Cond(x, y, z) means "if y then x else z"."""

    then: Term
    cond: Term
    orelse: Term


@dataclass(frozen=True, slots=True)
class Not(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class And(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Or(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Iff(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Xor(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Nand(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Nor(Term):
    left: Term
    right: Term


BINARY_TYPES = (And, Or, Iff, Xor, Nand, Nor)


def subterms(term: Term):
    """Every subterm occurrence in preorder, condition before branches.
    Iterative; safe on deep input."""
    todo = [term]
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, BINARY_TYPES):
            todo += (t.right, t.left)
        elif isinstance(t, Cond):
            todo += (t.orelse, t.then, t.cond)
        elif isinstance(t, Not):
            todo.append(t.arg)


def is_closed(term: Term) -> bool:
    """True iff the term contains no schema variables."""
    return Var not in map(type, subterms(term))


def atoms_of(term: Term) -> list[str]:
    """Atom names in first-inspection order (condition before branches)."""
    return list(dict.fromkeys(t.name for t in subterms(term) if isinstance(t, Atom)))


def vars_of(term: Term) -> list[str]:
    """Variable names in first-occurrence order (condition before branches)."""
    return list(dict.fromkeys(t.name for t in subterms(term) if isinstance(t, Var)))


# Open "(" plus pending "!" that parse accepts, and the term depth that
# rewrite, so every term pass and normalizer, accepts.  There is no
# per-call override.
DEFAULT_DEPTH_LIMIT = 10_000

# Each node type's arguments, in field order.
_ARGS = {Cond: attrgetter("then", "cond", "orelse"), Not: lambda t: (t.arg,),
         **dict.fromkeys(BINARY_TYPES, attrgetter("left", "right"))}
_LEAF_TYPES = frozenset({Const, Atom, Var})


def rewrite(term: Term, rules: dict, leaf=None, refuse: str = "cannot rewrite {}") -> Term:
    """Fold a term bottom-up: a node becomes rules[type] applied to its
    arguments' results in field order, and a leaf t becomes leaf(t), or
    stays if leaf is None.  A node type without a rule raises
    UnsupportedConnective(refuse.format(type name)), the outermost first,
    left to right; a term deeper than DEFAULT_DEPTH_LIMIT raises
    DepthLimitError.  One loop over an explicit stack, so deep input needs
    no recursion."""
    limit = DEFAULT_DEPTH_LIMIT
    done: list[Term] = []  # rewritten subterms, left to right
    todo: list = [term]  # subterms to rewrite, and (rule, arity) to apply
    depth = 0  # the rules pending on todo: the next subterm's depth
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is tuple:
            rule, n = t
            args = done[-n:]
            del done[-n:]
            done.append(rule(*args))
            depth -= 1
        elif kind in _LEAF_TYPES:
            done.append(t if leaf is None else leaf(t))
        else:
            rule = rules.get(kind)
            if rule is None:
                raise UnsupportedConnective(refuse.format(kind.__name__))
            if depth >= limit:
                raise DepthLimitError(f"term depth exceeds limit {limit}")
            depth += 1
            args = _ARGS[kind](t)
            todo.append((rule, len(args)))
            todo += reversed(args)
    return done[0]


_DUAL = {And: Or, Or: And, Iff: Xor, Xor: Iff, Nand: Nor, Nor: Nand, Not: Not,
         Cond: lambda then, cond, orelse: Cond(orelse, cond, then)}
_DUAL_LEAVES = {TT: FF, FF: TT}


def dual(term: Term) -> Term:
    """The duality involution.

    Swaps T and F, fixes U, atoms and variables, reverses the conditional's
    outer arguments, and swaps and/or, iff/xor, nand/nor.
    """
    return rewrite(term, _DUAL, lambda t: _DUAL_LEAVES.get(t, t))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Multi-character operators first so the scanner takes the longest match.
_OPERATORS = {
    "<->": "IFF",
    "<|": "LTRI",
    "|>": "RTRI",
    "||": "OR",
    "&&": "AND",
    "~&": "NAND",
    "~|": "NOR",
    "^^": "XOR",
    "(": "LPAREN",
    ")": "RPAREN",
    "!": "NOT",
    # Unicode aliases.
    "∧ᵒ": "AND",
    "∨ᵒ": "OR",
    "↔ᵒ": "IFF",
    "⊕ᵒ": "XOR",
    "∧": "AND",
    "∨": "OR",
    "↔": "IFF",
    "⊕": "XOR",
    "¬": "NOT",
    "⊼": "NAND",
    "⊽": "NOR",
    "◁": "LTRI",
    "▷": "RTRI",
}

# Blanks, then an operator or identifier (group 1) or any other character
# (group 2, an error).
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?:(" + "|".join(map(re.escape, _OPERATORS))
                       + r"|[A-Za-z_][A-Za-z0-9_]*)|([^ \t\r\n]))")

# Token kind -> (binding strength, constructor), loosest to tightest.  parse
# reduces by it and print_term parenthesizes by it.
_BINDING = {
    "LTRI": (10, Cond),
    "IFF": (20, Iff),
    "XOR": (30, Xor),
    "OR": (40, Or),
    "AND": (50, And),
    "NAND": (60, Nand),
    "NOR": (60, Nor),
    "NOT": (70, Not),
}
_PREC = {ctor: strength for strength, ctor in _BINDING.values()}
_INFIX = {kind: entry for kind, entry in _BINDING.items() if entry[1] in BINARY_TYPES}
_LEAVES = {"CONST": Const, "ATOM": Atom, "VAR": Var}

# A token that is no infix operator reduces everything binding tighter than
# the conditional, down to the innermost marker.
_CLOSING = (_PREC[Cond] + 1, None)
# Markers on the parse stack are named by the token kind that closes them.
_BOTTOM = (0, "EOF", ())
_PAREN = (0, "RPAREN", ())
_NOT = (_PREC[Not], Not, ())

_OPERAND = frozenset({"'T'", "'F'", "'U'", "atom", "variable", "'('", "'!'"})
_EXPECTED = {"EOF": frozenset({"end of input", "operator"}),
             "RPAREN": frozenset({"')'"}), "RTRI": frozenset({"'|>'"})}


def _position(text: str, at: int) -> tuple[int, int]:
    """1-based line and column of offset `at`."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _scan(text: str):
    """Yield (kind, text, offset) per token, then ("EOF", "", len(text))."""
    for m in _TOKEN_RE.finditer(text):
        word, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", *_position(text, m.start(2)))
        if word in _OPERATORS:
            kind = _OPERATORS[word]
        elif word in ("T", "F", "U"):
            kind = "CONST"
        elif ATOM_RE.match(word):
            kind = "ATOM"
        elif VAR_RE.match(word):
            kind = "VAR"
        else:
            raise AtomCaseError(
                f"identifier {word!r} is neither an atom nor a variable",
                *_position(text, m.start(1)),
                frozenset({"atom [a-z][a-z0-9_]*", "variable [A-Z][A-Za-z0-9_]*"}),
            )
        yield kind, word, m.start(1)
    yield "EOF", "", len(text)


def _fail(text: str, tokens, at: int, message: str, expected=frozenset()):
    # Scan the rest first: a bad character or identifier anywhere in the
    # text is reported before any grammar error.
    for _ in tokens:
        pass
    raise ParseError(message, *_position(text, at), expected)


def parse(text: str) -> Term:
    """Parse a term; raises ParseError on malformed input.

    term    := iff ( "<|" iff "|>" iff )?      one level, non-associative
    iff     := xor  ( "<->" xor )*             left-associative
    xor     := or   ( "^^"  or  )*
    or      := and  ( "||"  and )*
    and     := nand ( "&&"  nand)*
    nand    := unary ( ("~&" | "~|") unary )*
    unary   := "!" unary | primary
    primary := "T" | "F" | "U" | atom | variable | "(" term ")"

    Open "(" plus pending "!" nest at most DEFAULT_DEPTH_LIMIT deep; the
    token that opens the next level raises ParseError.  One loop over an
    explicit stack, so deep input needs no recursion.
    """
    tokens = _scan(text)
    # Entries are (strength, constructor or marker, operands so far); a
    # reduction applies the constructor to those operands and the term.
    stack = [_BOTTOM]
    depth = 0
    while True:
        kind, word, at = next(tokens)
        if kind == "NOT" or kind == "LPAREN":
            depth += 1
            if depth > DEFAULT_DEPTH_LIMIT:
                _fail(text, tokens, at, f"nesting deeper than {DEFAULT_DEPTH_LIMIT}")
            stack.append(_NOT if kind == "NOT" else _PAREN)
            continue
        if kind not in _LEAVES:
            _fail(text, tokens, at, f"unexpected {word or 'end of input'!r}", _OPERAND)
        term = _LEAVES[kind](word)
        while True:
            kind, word, at = next(tokens)
            strength, ctor = _INFIX.get(kind, _CLOSING)
            while stack[-1][0] >= strength:
                _, done, operands = stack.pop()
                term = done(*operands, term)
                if done is Not:
                    depth -= 1
            if ctor is not None:
                stack.append((strength, ctor, (term,)))
                break
            _, closer, operands = stack[-1]
            if closer is Cond:  # the else branch ends at this token
                stack.pop()
                term = Cond(*operands, term)
                closer = stack[-1][1]
            elif kind == "LTRI" and closer != "RTRI":
                stack.append((_PREC[Cond], "RTRI", (term,)))
                break
            if kind != closer:
                _fail(text, tokens, at, f"unexpected {word or 'end of input'!r}",
                      _EXPECTED[closer])
            if kind == "EOF":
                return term
            if kind == "RTRI":
                stack[-1] = (_PREC[Cond], Cond, (*operands, term))
                break
            stack.pop()
            depth -= 1


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def emit(root, pieces) -> str:
    """Write root as text, top-down: an item x is written as pieces(x), a
    sequence of strings, written as they are, and of items, each written in
    its place in turn.  One loop over an explicit stack and one join: linear
    in the output, and deep input needs no recursion."""
    out: list[str] = []
    todo = [root]
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
        else:
            todo += reversed(pieces(x))
    return "".join(out)


def _printer(ops: dict, neg: str, ltri: str, rtri: str, prime: str, primes: bool):
    """print_term's pieces for one style, of a subterm and the binding
    strength its place requires: a subterm that binds looser is
    parenthesized.  It binds as its type does; under primes, Nand(x, T)
    prints as x' and binds as !x does."""
    p_not, p_iff = _PREC[Not], _PREC[Iff]
    ops = {kind: f" {op} " for kind, op in ops.items()}

    def arg(t: Term, need: int):  # a leaf's text, else the item that prints t
        kind = type(t)
        return (t.value if kind is Const else t.name) if kind in _LEAF_TYPES else (t, need)

    def pieces(item: tuple[Term, int]) -> tuple:
        t, need = item
        kind = type(t)
        if kind in _LEAF_TYPES:  # the root only
            return (arg(t, need),)
        if kind is Not:
            strength, out = p_not, (neg, arg(t.arg, p_not))
        elif kind is Cond:  # parts print at the iff level, a conditional in ()
            strength, out = _PREC[Cond], (arg(t.then, p_iff), f" {ltri} ", arg(t.cond, p_iff),
                                          f" {rtri} ", arg(t.orelse, p_iff))
        elif primes and kind is Nand and t.right == TT:
            strength, out = p_not, (arg(t.left, p_not), prime)
        else:
            strength = _PREC[kind]
            out = (arg(t.left, strength), ops[kind], arg(t.right, strength + 1))
        return ("(", *out, ")") if strength < need else out

    return pieces


# Style -> its binary operators, negation, conditional marks and prime.
_STYLES = {
    "ascii": ({Iff: "<->", Xor: "^^", Or: "||", And: "&&", Nand: "~&", Nor: "~|"},
              "!", "<|", "|>", "'"),
    "unicode": ({Iff: "↔ᵒ", Xor: "⊕ᵒ", Or: "∨ᵒ", And: "∧ᵒ", Nand: "⊼", Nor: "⊽"},
                "¬", "◁", "▷", "′"),
}
_PRINTERS = {(style, primes): _printer(*marks, primes)
             for style, marks in _STYLES.items() for primes in (False, True)}

# print_term's JSON pieces by node type, leaves included.  Names match ATOM_RE
# or VAR_RE or are T/F/U, so nothing needs escaping.
_JSON = {
    Const: lambda t: ('{"const": "%s"}' % t.value,),
    Atom: lambda t: ('{"atom": "%s"}' % t.name,),
    Var: lambda t: ('{"var": "%s"}' % t.name,),
    Not: lambda t: ('{"not": ', t.arg, "}"),
    Cond: lambda t: ('{"cond": {"then": ', t.then, ', "if": ', t.cond,
                     ', "else": ', t.orelse, "}}"),
    **{kind: lambda t, head='{"%s": {"left": ' % kind.__name__.lower(): (
        head, t.left, ', "right": ', t.right, "}}") for kind in BINARY_TYPES}}


def print_term(term: Term, style: str = "ascii", primes: bool = False) -> str:
    """Render a term.

    style "ascii" re-parses to a structurally equal term; "unicode" uses the
    mathematical symbols; "json" produces the nested-object encoding.  With
    primes=True, Nand(t, T) is abbreviated as t' (display only, not parsed).
    One emit, so deep input needs no recursion.
    """
    if style == "json":
        return emit(term, lambda t: _JSON[type(t)](t))
    pieces = _PRINTERS.get((style, bool(primes)))
    if pieces is None:
        raise ValueError(f"unknown print style {style!r}")
    return emit((term, 0), pieces)
