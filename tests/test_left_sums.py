"""No call to the builtin ``sum`` in ``src/georepair``.

From Python 3.12 on ``sum`` compensates its rounding, so a float it
returns can differ between Python versions. The package adds floats with
``planning._left_sum``, left to right with each addition rounded, so every
price, plan and history is the same under every supported Python. A call
that must stay is allowed below, by ``module:function`` and with a reason.
"""

import ast
from pathlib import Path

import georepair

SRC = Path(georepair.__file__).parent

ALLOWED: dict[str, str] = {}


def _sum_calls(tree, module):
    """``module:function`` of every call to the bare name ``sum``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name)
                        and child.func.id == "sum"):
                    out.append(f"{module}:{owner}")
                visit(child, owner)

    visit(tree, "<module>")
    return out


def test_no_builtin_sum_in_the_package():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in _sum_calls(
                 ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert [c for c in calls if c not in ALLOWED] == []
    # An allowed call that is gone leaves the list.
    assert set(ALLOWED) - set(calls) == set()


def test_finds_a_sum_call():
    tree = ast.parse("def f(xs):\n    return sum(x for x in xs)\n"
                     "total = sum([1.0, 2.0])\n")
    assert _sum_calls(tree, "m") == ["m:f", "m:<module>"]
