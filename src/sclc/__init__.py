"""Sequential (short-circuit) propositional logic toolkit.

Normalization to decision-tree basic forms under free and memorising
valuation congruence, two- and three-valued; equivalence decision; duality;
translation to and from the sequential NAND signature; and machine checking
of the axiom tables of the underlying logics.
"""

from .congruence import (
    FREE, FREE3, MEM, MEM3, Mode, TruthValue3, equiv, evaluate, eval_tree,
    normal_form, to_dot, trace_eval,
)
from .errors import (
    AtomCaseError, DepthLimitError, InvariantError, MissingBindingError,
    OpenTermError, ParseError, SclError, SignatureError, SweepArgumentError,
    UnboundAtomError, UnknownTableError, UnsupportedConnective,
)
from .nandform import from_munbf, is_munbf, nand_nf, render_nand, to_munbf
from .normalform import (
    BasicForm, Leaf, LEAF_F, LEAF_T, LEAF_U, MemBasicForm, Node, bf,
    enumerate_mem_basic, is_mem_basic, mbf, mf, reduce, render, subst_tf,
)
from .syntax import (
    FF, TT, UU, And, Atom, Cond, Const, Iff, Nand, Nor, Not, Or, Term, Var,
    Xor, atoms_of, dual, is_closed, parse, print_term, vars_of,
)
from .translate import decode_nand, encode_nand, to_core
from .axioms import (
    CheckResult, Schema, SchemaTable, Verdict, builtin_tables, check_schema,
    check_table, instantiate, table_by_name,
)

__version__ = "0.1.0"
