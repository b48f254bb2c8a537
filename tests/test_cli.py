import argparse
import io
import json

import pytest

from sclc.cli import _build_parser, main


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

    def test_unknown_table(self, capsys):
        code, _, err = run(capsys, "axioms", "check", "Nope")
        assert code == 2
        assert err == "sclc: no builtin table named 'Nope'\n"

    def test_a_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # Only a typed SclError reads as a usage error; a KeyError is a defect.
        def broken(name):
            raise KeyError(name)

        monkeypatch.setattr("sclc.axioms.table_by_name", broken)
        with pytest.raises(KeyError):
            main(["axioms", "check", "EqMSCL"])

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
    ])
    def test_removed_surface_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err or "invalid choice" in err

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
            "from-nand": printing,
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

    def test_determinism(self, capsys):
        first = run(capsys, "norm", "a <-> b || c")
        second = run(capsys, "norm", "a <-> b || c")
        assert first == second
