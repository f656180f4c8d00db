"""No function in ``src/georepair`` that only its own unit tests call.

Every function and method defined in the package must be named somewhere in
the package's code, as a name, an attribute or an import (docstrings and
comments do not count), or be exported through ``__all__``. A function
whose only callers are tests is dead weight that the tests keep alive.
"""

import ast
from pathlib import Path

import georepair

SRC = Path(georepair.__file__).parent

# Functions kept although no package code names them, by bare or
# ``Class.method`` name.
ALLOWED = {
    "evaluate_plan_lambert": "wrapped by name by the benchmark's tracer",
    "CostModel.plan_metrics": "the benchmark's solve check compares the "
                              "vector evaluation against it",
    "__post_init__": "hook that dataclasses call",
    "_Parser.error": "hook that argparse calls",
}


def _definitions(tree):
    """(bare name, qualified name) of every function and method."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child.name, f"{owner}.{child.name}"
                            if owner else child.name))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def _named(tree):
    """Every identifier the code uses as a name, attribute or import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_function_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    named = set().union(*(_named(tree) for tree in trees.values()))
    named |= set(georepair.__all__)
    defs = [(module, name, qualname) for module, tree in trees.items()
            for name, qualname in _definitions(tree)]
    unused = [f"{module}:{qualname}" for module, name, qualname in defs
              if name not in named
              and name not in ALLOWED and qualname not in ALLOWED]
    assert unused == []
    # An allowed function that is gone, or is now named, leaves the list.
    stale = set(ALLOWED) - {key for _, name, qualname in defs
                            if name not in named
                            for key in (name, qualname)}
    assert stale == set()
