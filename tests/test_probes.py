"""``georepair._probes.PROBES``, the names the benchmark's tracer wraps.

Each entry must name an attribute where its callers look it up, so that a
wrapper put there sees every call; the table must list the names that
``perfbench/run.py::install_wrappers`` wraps; and wrapping every entry with
a wrapper that only passes the call through must leave a solve as it was.
"""

import importlib.util
import sys
from pathlib import Path

import georepair
from georepair._probes import PROBES
from georepair.scenarios import case_study
from georepair.search import solve_lns_aga
from test_fingerprint import fingerprint

ROOT = Path(__file__).resolve().parent.parent


def test_every_probe_resolves_where_its_callers_look():
    seen = set()
    for layer, owner, attr, key, judge in PROBES:
        assert callable(vars(owner)[attr]), (layer, attr)
        assert (owner, attr) not in seen
        seen.add((owner, attr))
        assert layer.split(".")[0] in {"astro", "planning", "search",
                                       "scenarios"}


def test_the_table_lists_what_the_benchmark_wraps(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in ``sys.modules``.
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    wrapped = []

    class Recorder:
        def wrap(self, owner, attr, name, key=None, judge=None):
            wrapped.append((name, owner, attr, key, judge))

    run.install_wrappers(Recorder(), georepair)
    assert [entry[:3] for entry in wrapped] == [
        entry[:3] for entry in PROBES]
    args = (object(), 2, [3, 1])
    for (*_, key, judge), (*_, own_key, own_judge) in zip(wrapped, PROBES):
        assert (key is None) == (own_key is None)
        assert (judge is None) == (own_judge is None)
        if key is not None:
            assert own_key(args) == key(args)
        if judge is not None:
            for result in (args[0], [[3, 1]]):
                assert own_judge(args, result) == judge(args, result)


def test_pass_through_wrappers_leave_the_case_study_solve(monkeypatch):
    calls = {}
    for layer, owner, attr, key, judge in PROBES:
        original = vars(owner)[attr]

        def passed(*args, _call=original, _layer=layer, _key=key,
                   _judge=judge, **kwargs):
            if _key is not None:
                _key(args)
            result = _call(*args, **kwargs)
            if _judge is not None:
                _judge(args, result)
            calls[_layer] = calls.get(_layer, 0) + 1
            return result

        monkeypatch.setattr(owner, attr, passed)
    result = solve_lns_aga(case_study(), seed=1)
    # tests/test_fingerprint.py::test_case_study_lns_fingerprint's hash.
    assert fingerprint([result]) == "17ede6efded19390"
    assert {"astro.rendezvous_mixed", "planning.evaluate_plan",
            "planning.allocate", "planning.route_geometry",
            "planning.plan_fitness", "search.destroy",
            "search.insertion_cost", "search.repair", "search.lns_improve",
            "search.adapter_route"} <= set(calls)
