"""Exception types shared across the package."""


class SclError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SclError):
    """Malformed input text.

    Carries the 1-based line/column of the offending token and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class AtomCaseError(ParseError):
    """Identifier fits neither the atom class [a-z][a-z0-9_]* nor the
    variable class [A-Z][A-Za-z0-9_]*."""


class UnsupportedConnective(SclError):
    """Term contains a connective outside the operation's input signature."""


class OpenTermError(SclError):
    """A closed term was required but the input contains schema variables."""


class DepthLimitError(SclError):
    """A term rewrite (syntax.rewrite, so to_core, dual, the NAND coding,
    instantiate, bf, mbf and nand_nf) met input nested deeper than
    syntax.DEFAULT_DEPTH_LIMIT, the one limit of every layer, or a normal
    form grew past the recursion guard."""


class UnboundAtomError(SclError):
    """Evaluation inspected an atom the valuation does not define."""

    def __init__(self, atom: str):
        self.atom = atom
        super().__init__(f"valuation does not bind atom {atom!r}")


class MissingBindingError(SclError):
    """Schema instantiation lacks a binding for one of its variables."""


class SignatureError(SclError):
    """Schema uses symbols outside the signature of the requested mode."""


class UnknownTableError(SclError):
    """No builtin axiom table has the requested name."""


class SweepArgumentError(SclError):
    """Exhaustive sweep asked for a negative alphabet, a budget below one,
    or a domain larger than its budget."""


class InvariantError(SclError):
    """A normal form failed its structural invariant; indicates a bug."""
