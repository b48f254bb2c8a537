"""Rewrites between the conditional core and the NAND signature.

Each derived connective has exactly one defining conditional equation, and
_CORE holds them, one rule per connective, so to_core is a bottom-up
application of those equations.  Cond(x, y, z) is x <| y |> z.
"""

from __future__ import annotations

from .syntax import (
    FF, TT, And, Cond, Iff, Nand, Nor, Not, Or, Term, Xor, rewrite,
)

_CORE = {
    Cond: Cond,
    Not: lambda x: Cond(FF, x, TT),
    And: lambda x, y: Cond(y, x, FF),
    Or: lambda x, y: Cond(TT, x, y),
    Iff: lambda x, y: Cond(y, x, Cond(FF, y, TT)),
    Xor: lambda x, y: Cond(Cond(FF, y, TT), x, y),
    Nand: lambda x, y: Cond(Cond(FF, y, TT), x, TT),
    Nor: lambda x, y: Cond(FF, x, Cond(FF, y, TT)),
}

_NAND = {
    Nand: Nand,
    Not: lambda x: Nand(x, TT),
    And: lambda x, y: Nand(Nand(x, y), TT),
    Or: lambda x, y: Nand(Nand(x, TT), Nand(y, TT)),
}


def to_core(term: Term) -> Term:
    """Eliminate all derived connectives; the result uses only constants,
    atoms, variables and the conditional.  One walk over an explicit stack:
    a term deeper than DEFAULT_DEPTH_LIMIT raises DepthLimitError, and the
    operand that <-> and ^^ use twice is one shared object."""
    return rewrite(term, _CORE, refuse="cannot lower {}")


def encode_nand(term: Term) -> Term:
    """Express a {not, and, or} term using only the sequential NAND, by the
    rules in _NAND; any other connective raises UnsupportedConnective,
    naming the outermost."""
    return rewrite(term, _NAND, refuse="{} has no direct NAND encoding; "
                   "lower via to_core and normalize instead")


def decode_nand(term: Term) -> Term:
    """Inverse reading of the NAND signature: x ~& y -> !(x && y)."""
    return rewrite(term, {Nand: lambda x, y: Not(And(x, y))},
                   refuse="{} is outside the NAND signature")
