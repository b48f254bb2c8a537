"""Static checks over the package source, stdlib ast only."""

import ast
from pathlib import Path

import pytest

import sclc
from sclc import normalform

MODULES = sorted(p for p in Path(sclc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).partition(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("from a import b, c\nimport d.e\nc()\n") == ["b", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def calls_named(source: str, name: str) -> list[tuple[str, ast.Call]]:
    """Each call name(...) or x.name(...), with the top-level function, or
    Class.method, around it ("" for a call at module level)."""
    found = []

    def visit(node, where: str, in_class: bool):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and name in (getattr(func, "id", None),
                                                   getattr(func, "attr", None)):
            found.append((where, node))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and (not where or in_class):
            where = f"{where}.{node.name}" if where else node.name
            in_class = isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_class)

    visit(ast.parse(source), "", False)
    return found


def node_constructors(source: str) -> set[str]:
    """The top-level function, or Class.method, around each Node(...) call;
    "" for a call at module level."""
    return {where for where, _ in calls_named(source, "Node")}


def test_the_check_finds_node_constructors():
    source = ("class F:\n    def to_tree(self):\n        def go(): return Node(1)\n"
              "def f():\n    return [Node(x) for x in ()]\nNode(0)\n")
    assert node_constructors(source) == {"F.to_tree", "f", ""}


def test_only_the_forest_the_enumeration_and_eval_tree_build_nodes():
    # Normal forms are built in a Forest and read out by to_tree; other
    # Node trees come only from the enumeration of mem-basic forms and the
    # reference evaluator eval_tree, an independent route.
    built = {f"{path.stem}.{name}" for path in MODULES
             for name in node_constructors(path.read_text())}
    assert built == {"normalform.Forest.to_tree",
                     "normalform.enumerate_mem_basic", "congruence.eval_tree"}


def self_recursive(source: str) -> set[str]:
    """Each function, as Outer.name, that calls itself: by its name, or in a
    method as self.name."""
    found = set()

    def calls_itself(func: ast.expr, name: str, method: bool) -> bool:
        if method:
            return (isinstance(func, ast.Attribute) and func.attr == name
                    and getattr(func.value, "id", None) == "self")
        return getattr(func, "id", None) == name

    def visit(node, where: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, where, in_class)
                continue
            name = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.FunctionDef) and any(
                    calls_itself(call.func, child.name, in_class)
                    for call in ast.walk(child) if isinstance(call, ast.Call)):
                found.add(name)
            visit(child, name, isinstance(child, ast.ClassDef))

    visit(ast.parse(source), "", False)
    return found


def test_the_check_finds_self_recursion():
    source = ("def f(n):\n    return f(n - 1)\n"
              "def g():\n    def go(): return go()\n    return h()\n"
              "class K:\n    def m(self): return self.m()\n"
              "    def n(self): return K.n(self) + n()\n"
              "    def p(self):\n        def q(): return p()\n        return self.q()\n")
    assert self_recursive(source) == {"f", "g.go", "K.m"}


def test_only_these_functions_recurse():
    # What still recurses on the depth of a tree or a term: the passes left
    # to move onto explicit stacks.  The printers, from_tree and
    # is_mem_basic run on syntax.emit and normalform.fold_tree, to_tree and
    # the compiled programs on Forest._below; the sweep is one odometer
    # loop, and enumerate_mem_basic builds bottom-up by sub-alphabet.
    # is_mem_basic on the fold costs about the same on the mbf forms of
    # five of perfbench's chains families (0.54-0.61 ms against 0.55-0.58
    # ms, best of 15) and about 1.8 us more per form on 1,000 small random
    # forms (4.1-4.5 ms against 2.4-2.5 ms); mbf calls it on every result.
    # MemForest._row recurses down its cond's children, as deep as the cond
    # has distinct atoms.
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in self_recursive(path.read_text())}
    assert found == {
        "normalform.Forest.fold.go", "normalform.Forest.subst",
        "normalform.MemForest.reduce", "normalform.MemForest._row",
        "congruence.trace_eval.ev", "congruence.eval_tree.go",
    }


def private_accesses(source: str) -> list[str]:
    """Each attribute x._name, one leading underscore and no dunder, whose
    object is not self, read or written, as "function: x._name" (ast.unparse
    of the attribute; "" at module level), in source order."""
    found = []

    def visit(node, where: str):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and getattr(node.value, "id", None) != "self"):
            found.append(f"{where}: {ast.unparse(node)}")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_private_accesses():
    source = ("import m\nx = m._hidden\n"
              "class K:\n    def m(self, f):\n"
              "        return self._own, f._rev[0], f.__dict__, f.public\n"
              "def g(f):\n    f.a._b = 1\n")
    assert private_accesses(source) == [": m._hidden", "K.m: f._rev", "g: f.a._b"]


def test_a_forests_internals_stay_in_normalform():
    # Only an object's own methods touch its underscored state: the other
    # modules go through Forest's public operations.
    found = [f"{path.stem}.{use}" for path in MODULES
             for use in private_accesses(path.read_text())]
    assert found == []


def self_attributes(source: str, cls: str) -> set[str]:
    """The attributes self.x that the methods of the top-level class named
    cls read or write."""
    return {node.attr for top in ast.parse(source).body
            if isinstance(top, ast.ClassDef) and top.name == cls
            for node in ast.walk(top) if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "self"}


def test_the_check_finds_self_attributes():
    source = ("class K:\n    def m(self, f):\n        self._a = f._b\n"
              "        return self.c(self._d[0])\n"
              "class L:\n    def m(self): return self._e\n")
    assert self_attributes(source, "K") == {"_a", "c", "_d"}


def test_the_free_forest_keeps_no_memorising_state():
    # The atom masks and the reduce memo serve only the memorising rule,
    # which MemForest.node applies: Forest neither keeps nor reads them.
    source = (Path(sclc.__file__).parent / "normalform.py").read_text()
    memorising = {"_mask", "_bits", "_reduce", "reduce"}
    assert self_attributes(source, "Forest") & memorising == set()
    assert self_attributes(source, "MemForest") >= memorising
    assert "reduce" not in vars(normalform.Forest)


def forests_built_on_import(source: str) -> list[str]:
    """The Forest and MemForest calls that run on import, that is outside
    every function body, each as the name it is assigned to ("" if none)."""
    found = []
    stack = [(node, "") for node in ast.parse(source).body]
    while stack:
        node, target = stack.pop()
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            target = names[0].id if len(names) == 1 and isinstance(names[0], ast.Name) else ""
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and (getattr(func, "id", None) or getattr(
                func, "attr", None)) in ("Forest", "MemForest"):
            found.append(target)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args  # defaults and decorators run on import, bodies not
            children = [*args.defaults, *filter(None, args.kw_defaults),
                        *getattr(node, "decorator_list", [])]
        else:
            children = ast.iter_child_nodes(node)
        stack += [(child, target) for child in children]
    return sorted(found)


def mem_flag_uses(source: str) -> set[str]:
    """Each mem= keyword and each attribute named mem, as "line:what"."""
    return {f"{node.lineno}:mem=" if isinstance(node, ast.keyword)
            else f"{node.lineno}:.mem"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.keyword) and node.arg == "mem"
            or isinstance(node, ast.Attribute) and node.attr == "mem"}


def test_the_checks_see_import_time_forests_and_the_mem_flag():
    source = ("import sclc.normalform as nf\n"
              "A = Forest()\n"
              "B: Forest = nf.MemForest(); print(Forest())\n"
              "class K:\n    c = MemForest()\n"
              "    def m(self, f=Forest()):\n        return MemForest()\n"
              "def g():\n    return Forest(mem=True)\n"
              "h = lambda: Forest()\n"
              "x = y.mem\n")
    assert forests_built_on_import(source) == ["", "", "A", "B", "c"]
    assert mem_flag_uses(source) == {"9:mem=", "11:.mem"}


def test_no_engine_state_on_import_and_no_mem_flag():
    # axioms._MEM_FOREST is shared by every memorising sweep in the process:
    # perfbench's sweep calls check_schema once per schema, and a forest per
    # check made the memorising checks slower (1.62-2.25 s against
    # 1.14-1.74 s; a forest per table matched shared).  It goes once the
    # sweep can be handed a forest by its caller.
    built = [f"{path.stem}.{name}" for path in MODULES
             for name in forests_built_on_import(path.read_text())]
    assert built == ["axioms._MEM_FOREST"]
    assert {path.name: uses for path in MODULES
            if (uses := mem_flag_uses(path.read_text()))} == {}


def recursion_limit_calls(source: str) -> list[str]:
    """Each sys.setrecursionlimit call as "function:argument", the argument
    as ast.unparse writes it."""
    return [f"{where}:{', '.join(map(ast.unparse, call.args))}"
            for where, call in calls_named(source, "setrecursionlimit")]


def test_the_check_finds_recursion_limit_calls():
    source = ("import sys\nfrom sys import setrecursionlimit\n"
              "sys.setrecursionlimit(10)\n"
              "def f(n):\n    def g(): setrecursionlimit(LIMIT + 2_000)\n"
              "    sys.getrecursionlimit()\n"
              "class K:\n    def m(self): sys.setrecursionlimit(n * 2)\n")
    assert recursion_limit_calls(source) == [":10", "f:LIMIT + 2000", "K.m:n * 2"]


def test_one_bounded_recursion_limit_raise():
    # The library's one change to interpreter-global state: the normalizers'
    # recursion room, a constant, never a caller's value.  It goes once the
    # Forest's passes no longer recurse on the depth of the trees they build.
    calls = [f"{path.stem}.{call}"
             for path in sorted(Path(sclc.__file__).parent.glob("*.py"))
             for call in recursion_limit_calls(path.read_text())]
    assert calls == ["normalform._normalize:DEFAULT_DEPTH_LIMIT + 2000"]
