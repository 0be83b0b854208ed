"""Source hygiene checks that stand in for a linter."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def _dead_definitions(modules: dict[str, str], references: list[str]) -> list[str]:
    """Functions, methods and classes of `modules` (name -> source) that
    nothing in `modules` or `references` uses. A function or class is used
    through a `Name` or an attribute; a method or property only through an
    attribute, since a bare name never reaches it. Imports are not uses, so a
    re-export keeps nothing alive. Dunder methods are exempt, and so are the
    methods of a class extending one from outside `modules`: that outside code
    calls them (argparse calls `cli._Parser.error`)."""
    defined = [(name, node) for name, source in modules.items()
               for node in ast.walk(ast.parse(source))]
    nodes = [node for _, node in defined]
    nodes += [node for source in references for node in ast.walk(ast.parse(source))]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
    classes = [node for _, node in defined if isinstance(node, ast.ClassDef)]
    class_names = {node.name for node in classes}
    methods = {id(member) for node in classes for member in node.body}
    called_from_outside = {id(member) for node in classes
                           if any(not isinstance(base, ast.Name) or base.id not in class_names
                                  for base in node.bases)
                           for member in node.body}
    dead = sorted((name, node.lineno, node.name) for name, node in defined
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in (attrs if id(node) in methods else names)
                  and id(node) not in called_from_outside
                  and not (node.name.startswith("__") and node.name.endswith("__")))
    return [f"{name}:{line}: {what}" for name, line, what in dead]


def _defaulted_parameters(trees: dict[str, ast.AST]):
    """(entry, callee, position, name) for each defaulted parameter of the
    functions in `trees` (module name -> tree). The callee is the name a call
    uses: a function's, or for an `__init__` its class's. A method's
    positions skip self or cls; dunder methods other than `__init__` are
    exempt, and keyword-only parameters have no position."""
    for module, tree in trees.items():
        methods = {id(member) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for member in node.body
                   if not any(getattr(dec, "id", None) == "staticmethod"
                              for dec in getattr(member, "decorator_list", ()))}
        inits = {id(member): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for member in node.body
                 if getattr(member, "name", None) == "__init__"}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (node.name.startswith("__") and node.name.endswith("__")
                        and id(node) not in inits)):
                continue
            callee = inits.get(id(node), node.name)
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if id(node) in methods else 0
            defaulted = [(i - skip, arg.arg) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(None, arg.arg) for arg, default
                          in zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
            what = f"{callee}.__init__" if id(node) in inits else node.name
            for pos, param in defaulted:
                yield f"{module}:{node.lineno}: {what}({param})", callee, pos, param


def _calls(nodes: list[ast.AST]) -> dict[str, list]:
    """For each callee name, what each call to it passes: the set of its
    positions and keywords, or None for a call with *args or **kwargs,
    which may pass anything."""
    passed: dict[str, list] = {}
    for call in nodes:
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = (any(isinstance(arg, ast.Starred) for arg in call.args)
                   or any(kw.arg is None for kw in call.keywords))
        passed.setdefault(name, []).append(
            None if starred else {*range(len(call.args)), *(kw.arg for kw in call.keywords)})
    return passed


def _unpassed_defaults(modules: dict[str, str], references: list[str]) -> list[str]:
    """Defaulted parameters of functions in `modules` that no call in `modules`
    or `references` passes, by position or keyword. Calls are matched by the
    name of the callee (see `_defaulted_parameters`); one with *args or
    **kwargs passes everything."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    calls = _calls([node for tree in [*trees.values(), *map(ast.parse, references)]
                    for node in ast.walk(tree)])
    return [entry for entry, callee, pos, param in _defaulted_parameters(trees)
            if not any(got is None or pos in got or param in got
                       for got in calls.get(callee, ()))]


def _overridden_defaults(modules: dict[str, str], references: list[str]) -> list[str]:
    """Defaulted parameters of functions in `modules` that every call in
    `modules` or `references` passes, by position or keyword, so that no call
    takes the default. Calls are matched as `_unpassed_defaults` matches them.
    A function with no call, with a call by *args or **kwargs, or named
    anywhere other than as a callee (say, passed as a callback) may take its
    defaults, so none of its parameters is listed."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    nodes = [node for tree in [*trees.values(), *map(ast.parse, references)]
             for node in ast.walk(tree)]
    calls = _calls(nodes)
    callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
             if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees}
    return [entry for entry, callee, pos, param in _defaulted_parameters(trees)
            if callee not in named and (got := calls.get(callee))
            and all(call is not None and (pos in call or param in call) for call in got)]


def _unread_fields(modules: dict[str, str], references: list[str]) -> list[str]:
    """Annotated fields of the NamedTuple and dataclass classes of `modules`
    whose name no attribute in `modules` or `references` reads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    attrs = {node.attr for tree in [*trees.values(), *map(ast.parse, references)]
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            marks = [getattr(base, "id", None) for base in node.bases]
            marks += [getattr(getattr(dec, "func", dec), "id", None)
                      for dec in node.decorator_list]
            if "NamedTuple" not in marks and "dataclass" not in marks:
                continue
            out += [f"{module}:{field.lineno}: {node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    and field.target.id not in attrs]
    return out


def test_unused_imports_detector():
    source = "from __future__ import annotations\nimport os, re\nimport a.b as c\nre.sub\n"
    assert _unused_imports(source) == ["line 3: c", "line 2: os"]


def test_no_unused_imports_in_src_and_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    found = {str(path.relative_to(ROOT)): unused for path in files
             if (unused := _unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_dead_definitions_detector():
    module = ("import argparse\n"
              "class Base:\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    def __repr__(self): return ''\n"
              "class Sub(Base):\n"
              "    def also_unused(self): pass\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def error(self, message): pass\n"
              "def dead(): pass\n"
              "def alive(): pass\n"
              "class Holder:\n"
              "    @property\n"
              "    def g(self): pass\n")
    references = ["from m import dead, Sub\nBase().used(alive)\nParser\nHolder\ng = 1\n"]
    assert _dead_definitions({"m.py": module}, references) == [
        "m.py:4: unused", "m.py:6: Sub", "m.py:7: also_unused", "m.py:10: dead",
        "m.py:14: g"]


def test_no_dead_definitions_in_src():
    modules = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "hamroots").rglob("*.py"))}
    references = [path.read_text(encoding="utf-8")
                  for folder in ("tests", "perfbench")
                  for path in sorted((ROOT / folder).rglob("*.py"))]
    assert modules and references
    assert _dead_definitions(modules, references) == []


def test_unpassed_defaults_detector():
    module = ("class C:\n"
              "    def m(self, a, b=1, c=2): pass\n"
              "    @staticmethod\n"
              "    def s(a=0, b=1): pass\n"
              "    def __init__(self, x=0, y=1): pass\n"
              "    def __call__(self, z=0): pass\n"
              "def f(a, b=1, *, c=2, d=3): pass\n"
              "def g(a=1, b=2): pass\n"
              "def h(a=1): pass\n"
              "class D:\n"
              "    def __init__(self, a, b=1): pass\n"
              "    @classmethod\n"
              "    def make(cls): return cls(0, b=2)\n")
    references = ["C(y=2).m(1, 2)\nC.s(5)\nf(1, c=2)\ng(*args)\nh(**kw)\nD(1)\n"]
    assert _unpassed_defaults({"m.py": module}, references) == [
        "m.py:7: f(b)", "m.py:7: f(d)", "m.py:2: m(c)", "m.py:4: s(b)",
        "m.py:5: C.__init__(x)", "m.py:11: D.__init__(b)"]


def test_no_unpassed_defaults_in_src():
    modules = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "hamroots").rglob("*.py"))}
    references = [path.read_text(encoding="utf-8")
                  for folder in ("tests", "perfbench")
                  for path in sorted((ROOT / folder).rglob("*.py"))]
    assert modules and references
    assert _unpassed_defaults(modules, references) == []


def test_overridden_defaults_detector():
    module = ("class C:\n"
              "    def m(self, a, b=1, c=2): pass\n"
              "    def __init__(self, x=0): pass\n"
              "def f(a, b=1, *, c=2): pass\n"
              "def g(a=1): pass\n"
              "def h(a=1): pass\n"
              "def k(a=1): pass\n"
              "def unused(a=1): pass\n")
    references = ["C(1).m(1, 2, c=3)\nC(x=2)\nf(1, 2, c=3)\nf(1, b=2)\ng(*args)\ng(1)\n"
                  "h(2)\nmap(h, xs)\nk(3)\nk()\n"]
    assert _overridden_defaults({"m.py": module}, references) == [
        "m.py:4: f(b)", "m.py:2: m(b)", "m.py:2: m(c)", "m.py:3: C.__init__(x)"]


# Defaulted parameters that every call passes, each kept on purpose.
OVERRIDDEN_DEFAULTS = {
    # a public entry point, whose default is the limit of the reference digits
    "artin_constant(prime_limit)",
}


def test_defaults_overridden_by_every_call_are_the_named_exemptions():
    modules = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "hamroots").rglob("*.py"))}
    references = [path.read_text(encoding="utf-8")
                  for folder in ("tests", "perfbench")
                  for path in sorted((ROOT / folder).rglob("*.py"))]
    assert modules and references
    found = {entry.split(": ", 1)[1] for entry in _overridden_defaults(modules, references)}
    assert found == OVERRIDDEN_DEFAULTS


def test_unread_fields_detector():
    module = ("from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "class T(NamedTuple):\n"
              "    read: int\n"
              "    unread: int = 0\n"
              "@dataclass(frozen=True)\n"
              "class D:\n"
              "    kept: str\n"
              "    dropped: str\n"
              "    LIMIT = 3\n"
              "@dataclass\n"
              "class E:\n"
              "    lost: int\n"
              "class Plain:\n"
              "    ignored: int\n")
    references = ["t = T(1)\nt.read\nD('a', 'b').kept\nunread = dropped = 1\n"]
    assert _unread_fields({"m.py": module}, references) == [
        "m.py:5: T.unread", "m.py:9: D.dropped", "m.py:13: E.lost"]


def test_no_unread_fields_in_src():
    modules = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "hamroots").rglob("*.py"))}
    references = [path.read_text(encoding="utf-8")
                  for folder in ("tests", "perfbench")
                  for path in sorted((ROOT / folder).rglob("*.py"))]
    assert modules and references
    assert _unread_fields(modules, references) == []


# Defaulted parameters that only tests pass, each kept on purpose.
TEST_ONLY_DEFAULTS = {
    # criterion 2's oracles, compared against the dilation engine in each variant
    "covering_radius_bfs(variant)", "min_flips_to_primroot(variant)",
    # the re-evaluation oracles: the direct split-sum order and the
    # cyclotomic indicator, compared against the orbit method
    "split_char_sum(order)", "primroot_indicator(method)",
    # the CLI entry point, which the tests call with an argument list
    "main(argv)",
}


def test_defaults_set_only_by_tests_are_the_named_exemptions():
    modules = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "hamroots").rglob("*.py"))}
    references = [path.read_text(encoding="utf-8")
                  for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert modules and references
    found = {entry.split(": ", 1)[1] for entry in _unpassed_defaults(modules, references)}
    assert found == TEST_ONLY_DEFAULTS


def test_no_assert_statements_in_src():
    # python -O strips them; runtime checks raise InvariantViolation instead.
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src" / "hamroots").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the project's pytest settings a failing `@given` test shows its
    falsifying example and the tests after it run. To report it hypothesis
    imports libcst, whose import raises a DeprecationWarning; an error filter
    that caught it would end the whole run with INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                          "-p", "no:cacheprovider", "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
