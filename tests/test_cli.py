import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings

from conftest import fresh_python, terms
from sclc import axioms, nandform
from sclc.axioms import CheckResult, Verdict
from sclc.congruence import FREE, MEM, equiv, evaluate, normal_form
from sclc.cli import _build_parser, main
from sclc.errors import SclError
from sclc.normalform import LEAF_F, LEAF_T, Node, render
from sclc.syntax import dual, print_term
from sclc.translate import decode_nand, encode_nand


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorm:
    def test_mem_default(self, capsys):
        code, out, _ = run(capsys, "norm", "--mem", "a && F")
        assert code == 0
        assert out == "F ◁ a ▷ F\n"

    def test_free_mode_keeps_duplicates(self, capsys):
        code, out, _ = run(capsys, "norm", "--free", "a && a")
        assert code == 0
        assert out == "(T ◁ a ▷ F) ◁ a ▷ F\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "norm", "a && F", "--json")
        assert code == 0
        assert json.loads(out) == {"atom": "a", "t": {"leaf": "F"},
                                   "f": {"leaf": "F"}}

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "norm", "a", "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_dot_two_atoms(self, capsys):
        code, out, _ = run(capsys, "norm", "a || b", "--dot")
        assert code == 0
        assert 'n0 [label="a", shape=circle];' in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a && F"))
        code, out, _ = run(capsys, "norm", "-")
        assert code == 0
        assert out == "F ◁ a ▷ F\n"


class TestEq:
    def test_stdin_for_one_side(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a && F"))
        code, out, _ = run(capsys, "eq", "-", "F <| a |> F")
        assert code == 0
        assert out == "F ◁ a ▷ F\n"

    def test_stdin_for_both_sides_is_a_usage_error(self, capsys, monkeypatch):
        stdin = io.StringIO("a")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "eq", "-", "-")
        assert code == 2 and out == ""
        assert err == "sclc: eq reads at most one expression from stdin ('-')\n"
        assert stdin.tell() == 0  # rejected before reading

    def test_unequal_exits_one_and_prints_both(self, capsys):
        code, out, _ = run(capsys, "eq", "--mem", "a && F", "F && a")
        assert code == 1
        assert out == "F ◁ a ▷ F\nF\n"

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "eq", "a && F", "F <| a |> F")
        assert code == 0

    def test_mode_changes_verdict(self, capsys):
        assert run(capsys, "eq", "--free", "a && a", "a")[0] == 1
        assert run(capsys, "eq", "--mem", "a && a", "a")[0] == 0


class TestCommands:
    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "F <| b |> (T <| a |> F)")
        assert code == 0
        assert out == "(T ◁ a ▷ F) ◁ b ▷ T\n"

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "a && b", "--val", "a=1,b=0")
        assert code == 0
        assert out == "F\n"

    def test_eval_undef(self, capsys):
        code, out, _ = run(capsys, "eval", "U || a", "--val", "a=1")
        assert (code, out) == (0, "U\n")

    def test_eval_unbound_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "a && b", "--val", "a=1")
        assert code == 2
        assert "b" in err

    @pytest.mark.parametrize("val", ["a = 1", "a=1 ", "a=0 ,b=1"])
    def test_eval_accepts_blanks_around_an_entry(self, capsys, val):
        assert run(capsys, "eval", "a || b", "--val", val) == (0, "T\n", "")

    @pytest.mark.parametrize("entry", ["=1", "A=1"])
    def test_eval_rejects_a_name_that_is_not_an_atom(self, capsys, entry):
        code, out, err = run(capsys, "eval", "a", "--val", entry)
        assert (code, out) == (2, "")
        assert err == f"sclc: bad valuation entry {entry!r}; use atom=0|1\n"

    @pytest.mark.parametrize("val", ["a=1,a=0", "a=1, a=1"])
    def test_eval_rejects_an_atom_bound_twice(self, capsys, val):
        code, out, err = run(capsys, "eval", "a", "--val", val)
        assert (code, out) == (2, "")
        assert err == "sclc: atom 'a' is bound twice in --val\n"

    def test_to_nand(self, capsys):
        code, out, _ = run(capsys, "to-nand", "!a")
        assert (code, out) == (0, "a ⊼ T\n")

    def test_to_nand_unsupported(self, capsys):
        code, _, err = run(capsys, "to-nand", "a <-> b")
        assert code == 2

    def test_from_nand(self, capsys):
        code, out, _ = run(capsys, "from-nand", "a ~& b")
        assert (code, out) == (0, "¬(a ∧ᵒ b)\n")

    def test_munbf(self, capsys):
        code, out, _ = run(capsys, "munbf", "a ~& T")
        assert code == 0
        assert out == "a ⊼ F ⊼ (a ⊼ T ⊼ T)\n"

    def test_munbf_primes(self, capsys):
        code, out, _ = run(capsys, "munbf", "a ~& T", "--primes")
        assert code == 0
        assert out == "a ⊼ F ⊼ a′′\n"

    def test_munbf_json(self, capsys):
        code, out, _ = run(capsys, "munbf", "a", "--json")
        assert code == 0
        assert json.loads(out) == {"nnode": "a", "t": {"leaf": "T"},
                                   "f": {"leaf": "F"}}


class TestAxiomsCommand:
    def test_check_eqmscl(self, capsys):
        code, out, _ = run(capsys, "axioms", "check", "EqMSCL")
        assert code == 0
        assert out == "5/5 passed (fresh-atoms)\n"

    def test_check_negative(self, capsys):
        code, out, _ = run(capsys, "axioms", "check", "negative")
        assert code == 0
        assert out == "3/3 refuted (fresh-atoms)\n"

    def test_check_exhaustive(self, capsys):
        code, out, _ = run(capsys, "axioms", "check", "EqMSCL-lN",
                           "--exhaustive", "1")
        assert code == 0
        assert out == ("3/3 passed (fresh-atoms)\n"
                       "3/3 passed (exhaustive k=1)\n")

    def test_list(self, capsys):
        code, out, _ = run(capsys, "axioms", "list")
        assert code == 0
        lines = out.splitlines()
        assert "EqMSCL: 5 schemas, mem, valid" in lines
        assert "U: 3 schemas, mem+U, valid" in lines
        assert "negative: 3 schemas, mem, refutable" in lines

    @pytest.mark.parametrize("argv", [
        ("list", "CP"),
        ("list", "--exhaustive", "2"),
        ("list", "--budget", "10"),
        ("list", "--three-valued"),
        ("check", "CP", "--budget", "0"),
        ("check", "CP", "--budget", "1000000"),
        ("check", "negative", "--exhaustive", "1"),
    ])
    def test_an_argument_it_would_ignore_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "axioms", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("sclc: ") and err.count("\n") == 1

    def test_unknown_table(self, capsys):
        code, _, err = run(capsys, "axioms", "check", "Nope")
        assert code == 2
        assert err == "sclc: no builtin table named 'Nope'\n"

    def test_check_needs_a_table(self, capsys):
        code, out, err = run(capsys, "axioms", "check")
        assert (code, out, err) == (
            2, "", "sclc: axioms check requires a table name\n")

    def test_a_result_against_the_table_exits_one(self, capsys, monkeypatch):
        # The only exit 1 of axioms: a schema whose verdict is not the one
        # its table expects is listed under the count.
        table = axioms.table_by_name("EqMSCL")

        def refuted(table, strategy, **options):
            return [(s, CheckResult(Verdict.REFUTED_FRESH_ATOMS))
                    for s in table.schemas[:2]]

        monkeypatch.setattr("sclc.axioms.check_table", refuted)
        code, out, err = run(capsys, "axioms", "check", "EqMSCL")
        assert (code, err) == (1, "")
        assert out == "".join(
            ["0/2 passed (fresh-atoms)\n"]
            + [f"  {s.name}: refuted (fresh-atoms)\n" for s in table.schemas[:2]])

    def test_a_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # Only a typed SclError reads as a usage error; a KeyError is a
        # defect, reported in one line with exit 3.
        def broken(name):
            raise KeyError(name)

        monkeypatch.setattr("sclc.axioms.table_by_name", broken)
        code, out, err = run(capsys, "axioms", "check", "EqMSCL")
        assert (code, out, err) == (3, "", "sclc: internal error (KeyError)\n")

    def test_three_valued_widens_the_sweep_domain(self, capsys):
        # c(1) is 6 two-valued and 12 three-valued: a budget of 8 covers
        # only the former.
        argv = ("axioms", "check", "EqMSCL", "--exhaustive", "1", "--budget", "8")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == ("5/5 passed (fresh-atoms)\n"
                       "5/5 passed (exhaustive k=1, budget exceeded)\n")
        code, out, err = run(capsys, *argv, "--three-valued")
        assert code == 2
        assert out == ""
        assert "got k=1, budget=8" in err

    @pytest.mark.parametrize("flags", [
        ("--exhaustive", "2", "--budget", "0"),
        ("--exhaustive", "2", "--budget", "-5"),
        ("--exhaustive", "-1"),
        ("--exhaustive", "2", "--budget", "73"),
        ("--exhaustive", "4"),  # ~10^9 forms per variable: never enumerated
    ])
    def test_bad_sweep_arguments_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, "axioms", "check", "EqMSCL", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("sclc: ")


class TestSurface:
    @pytest.mark.parametrize("argv", [
        ("tree", "a"),
        ("norm", "--text", "a"),
        ("norm", "--three-valued", "a"),
        ("norm", "--primes", "a"),
        ("eval", "a", "--val", "a=1", "--free"),
        ("eval", "a", "--val", "a=1", "--json"),
        ("dual", "--mem", "a"),
        ("axioms", "check", "EqMSCL", "--json"),
        ("from-nand", "--primes", "a ~& b"),
    ])
    def test_removed_surface_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err or "invalid choice" in err

    @pytest.mark.parametrize("command", ["dual", "to-nand", "munbf"])
    def test_primes_with_json_is_a_usage_error(self, capsys, command):
        # JSON has no primes: the flag would be ignored.
        code, out, err = run(capsys, command, "--json", "--primes", "!a")
        assert (code, out) == (2, "")
        assert "argument --primes: not allowed with argument --json" in err

    def test_options_per_subcommand(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {name: sorted(o for a in p._actions for o in a.option_strings
                                if o not in ("-h", "--help"))
                   for name, p in sub.choices.items()}
        printing = ["--json", "--primes"]
        assert options == {
            "norm": ["--dot", "--free", "--json", "--mem"],
            "eq": ["--free", "--json", "--mem"],
            "dual": printing,
            "eval": ["--val"],
            "to-nand": printing,
            "from-nand": ["--json"],
            "munbf": printing,
            "axioms": ["--budget", "--exhaustive", "--three-valued"],
        }


class TestErrors:
    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "norm", "a &&")
        assert code == 2
        assert "line 1" in err

    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("depth", [100, 1_000, 10_000])
    def test_deep_input_never_reads_as_unequal(self, capsys, depth):
        x = "(" * depth + "a" + ")" * depth
        code, _, err = run(capsys, "eq", x, x)
        assert code != 1
        assert code == 0 or err.startswith("sclc: ")

    @pytest.mark.parametrize("command,op", [
        ("norm", "&&"), ("dual", "&&"), ("to-nand", "&&"), ("from-nand", "~&"),
        ("munbf", "~&"),
    ])
    def test_too_deep_term_is_a_usage_error(self, capsys, command, op):
        # A left-nested chain has no parentheses for parse to count.
        code, out, err = run(capsys, command, f"a {op} " * 10_001 + "a")
        assert (code, out, err) == (2, "", "sclc: term depth exceeds limit 10000\n")

    def test_memory_error_exit_three(self, capsys, monkeypatch):
        def exhausted(term, mode, forest=None):
            raise MemoryError

        monkeypatch.setattr("sclc.congruence.normal_form", exhausted)
        code, _, err = run(capsys, "norm", "a")
        assert code == 3
        assert err.count("\n") == 1 and "MemoryError" in err

    def test_an_invariant_error_exits_three(self, capsys, monkeypatch):
        # A defect that breaks a form's invariant is reported, with no
        # output, as an internal error.
        broken = Node("a", Node("a", LEAF_T, LEAF_F), LEAF_F)
        monkeypatch.setattr("sclc.nandform.nand_nf", lambda term: broken)
        code, out, err = run(capsys, "munbf", "a")
        assert (code, out, err) == (3, "", "sclc: internal error: tree "
                                    "violates the NAND normal form invariant\n")

    def test_determinism(self, capsys):
        first = run(capsys, "norm", "a <-> b || c")
        second = run(capsys, "norm", "a <-> b || c")
        assert first == second


# The printing commands on depth-10,000 input, in one interpreter at the
# default recursion limit, by the output each must print exactly.
DEEP_PRINT_SCRIPT = r"""
import contextlib, io, json, sys
from sclc.cli import main

and_a = ', "right": {"atom": "a"}}}'
cases = {
    "dual-5000": (["dual", "!" * 5000 + "a"], "¬" * 5000 + "a"),
    "dual-10000": (["dual", "!" * 10_000 + "a"], "¬" * 10_000 + "a"),
    "to-nand": (["to-nand", "a && " * 10_000 + "a"], "a" + " ⊼ a ⊼ T" * 10_000),
    "to-nand-json": (["to-nand", "--json", "a && " * 10_000 + "a"],
                     '{"nand": {"left": ' * 20_000 + '{"atom": "a"}'
                     + (and_a + ', "right": {"const": "T"}}}') * 10_000),
    "from-nand": (["from-nand", "a ~& " * 10_000 + "a"],
                  "¬(" * 10_000 + "a" + " ∧ᵒ a)" * 10_000),
    "dual-json": (["dual", "--json", "a || " * 10_000 + "a"],
                  '{"and": {"left": ' * 10_000 + '{"atom": "a"}' + and_a * 10_000),
}
out = {}
for name, (argv, want) in cases.items():
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = main(argv)
    out[name] = [code, len(text.getvalue()), text.getvalue() == want + "\n"]
out["recursion_limit"] = sys.getrecursionlimit()
print(json.dumps(out))
"""


def test_deep_terms_print_without_recursion():
    done = fresh_python("-c", DEEP_PRINT_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {  # [exit code, characters, as wanted]
        "dual-5000": [0, 5_002, True], "dual-10000": [0, 10_002, True],
        "to-nand": [0, 80_002, True], "to-nand-json": [0, 890_014, True],
        "from-nand": [0, 80_002, True], "dual-json": [0, 430_014, True],
        "recursion_limit": 1000,
    }


def _library(fn):
    """(exit code, stdout) the CLI must give for a library call: exit 0
    with its text, or exit 2 if it raises a typed error."""
    try:
        return 0, fn()
    except SclError:
        return 2, ""


def _capture(*argv):
    """main(argv) outside pytest's capture: (exit code, stdout, stderr)."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _line(term):
    return print_term(term, "unicode") + "\n"


def _follows_the_library(t, u):
    """Every command's exit code and output on t (and u) is the library's
    answer, and no exception escapes main."""
    text, text2 = print_term(t), print_term(u)
    for flag, mode in (("--mem", MEM), ("--free", FREE)):
        want = _library(lambda: _line(render(normal_form(t, mode))))
        assert _capture("norm", flag, text)[:2] == want
        failed, equal = _library(lambda: equiv(t, u, mode))
        code, _, err = _capture("eq", flag, text, text2)
        assert code == (failed or (0 if equal else 1)), err
    expected = {
        "dual": lambda: _line(dual(t)),
        "to-nand": lambda: _line(encode_nand(t)),
        "from-nand": lambda: _line(decode_nand(t)),
        "munbf": lambda: _line(nandform.render_nand(nandform.nand_nf(t))),
        "eval": lambda: f"{evaluate(t, {'a': True, 'b': False, 'c': True}).value}\n",
    }
    for command, fn in expected.items():
        extra = ("--val", "a=1,b=0,c=1") if command == "eval" else ()
        code, out, err = _capture(command, text, *extra)
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        assert (code, out) == _library(fn), err


class TestContract:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(terms(with_vars=False), terms(with_vars=False))
    def test_exit_codes_follow_the_library(self, t, u):
        _follows_the_library(t, u)

    # Open terms take the OpenTermError paths of norm, eq, eval and munbf.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(terms(with_vars=True), terms(with_vars=True))
    def test_exit_codes_follow_the_library_on_open_terms(self, t, u):
        _follows_the_library(t, u)
