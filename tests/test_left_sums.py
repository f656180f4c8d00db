"""No call to the builtin ``sum`` in ``src/georepair``.

From Python 3.12 on ``sum`` compensates its rounding, so a float it
returns can differ between Python versions. The package adds floats with
``planning._left_sum``, left to right with each addition rounded, so every
price, plan and history is the same under every supported Python. A call
that must stay is allowed below, by ``module:Owner.function`` and with a
reason.
"""

import ast
from pathlib import Path

import georepair
from test_one_objective import _calls

SRC = Path(georepair.__file__).parent

ALLOWED: dict[str, str] = {}


def test_no_builtin_sum_in_the_package():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                path.stem, "sum", bare=True)]
    assert [c for c in calls if c not in ALLOWED] == []
    # An allowed call that is gone leaves the list.
    assert set(ALLOWED) - set(calls) == set()


def test_finds_a_sum_call():
    tree = ast.parse("def f(xs):\n    return sum(x for x in xs)\n"
                     "total = sum([1.0, 2.0]) + xs.sum()\n")
    assert _calls(tree, "m", "sum", bare=True) == ["m:f", "m:<module>"]
