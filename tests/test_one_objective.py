"""One rule scores a route: ``penalized_fitness`` is called in
``_LegModel._score``, the base of both leg models, and nowhere else in
``src/georepair``.

Every score the search, the LNS, the oracle, the Lambert baseline and the
report compare goes through that call, and ``_LegModel._plan_sums`` adds
the scores of a plan up left to right, so a solve reports the fitness it
optimized to the last bit. A second call site would be a second rule.
"""

import ast
from pathlib import Path

import georepair

SRC = Path(georepair.__file__).parent


def _calls(tree, module, name, bare=False):
    """``module:Owner.function`` of every call to ``name``, whether called
    by its bare name or, unless ``bare``, as an attribute."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = (func.id if isinstance(func, ast.Name)
                          else func.attr
                          if isinstance(func, ast.Attribute) and not bare
                          else None)
                if called == name:
                    out.append(f"{module}:{owner or '<module>'}")
            visit(child, owner)

    visit(tree, "")
    return out


def test_penalized_fitness_is_called_only_by_the_route_score():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                path.stem, "penalized_fitness")]
    assert calls == ["planning:_LegModel._score"]


def test_finds_calls_by_owner():
    tree = ast.parse(
        "class C:\n"
        "    def f(self):\n"
        "        return g(1) + m.g(2)\n"
        "def h():\n"
        "    def inner():\n"
        "        return g()\n"
        "    return inner\n"
        "x = g()\n")
    assert _calls(tree, "m", "g") == ["m:C.f", "m:C.f", "m:h.inner",
                                      "m:<module>"]
