"""Tracer span arithmetic and wrapper restoration, and metric names."""

import json
import types

import numpy as np
import pytest

import georepair
import run
from tracer import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_recorded_spans_nest_and_flag_exceptions():
    module = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return module.inner(x) + module.inner(-1) if x else module.inner(x)

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner", key=lambda args: args[0])
    tracer.wrap(module, "outer", "outer")
    assert module.outer(0) == 0  # outside a root span: nothing recorded
    assert len(tracer.start) == 0
    with tracer.root("solve", 7):
        with pytest.raises(ValueError):
            module.outer(2)
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name"]]
    assert names == ["solve", "outer", "inner", "inner"]
    assert arrays["parent"].tolist() == [-1, 0, 1, 1]
    assert arrays["solve"].tolist() == [7, 7, 7, 7]
    assert arrays["flag"].tolist() == [0, 1, 0, 1]
    assert np.all(arrays["end"] >= arrays["start"])
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["flagged"] == 1
    assert summary["inner"]["distinct"] == 2
    total = summary["solve"]["self_s"] + summary["outer"]["self_s"] \
        + summary["inner"]["self_s"]
    assert total == pytest.approx(arrays["end"][0] - arrays["start"][0])


def test_uninstall_restores_every_wrapped_attribute():
    owners = [georepair.search, georepair.planning, georepair.scenarios,
              georepair.planning.CostModel, georepair.search._MixedAdapter,
              georepair.search._LambertAdapter]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    run.install_wrappers(tracer, georepair)
    changed = sum(vars(owner)[k] is not v
                  for owner, snap in zip(owners, before)
                  for k, v in snap.items())
    assert changed == 18
    tracer.uninstall()
    for owner, snap in zip(owners, before):
        for k, v in snap.items():
            assert vars(owner)[k] is v, k


def test_traced_solve_counts_match_untraced_behaviour():
    scenario = georepair.random_scenario(4, 2, 10, seed=3)
    plain = georepair.solve_lns_aga(scenario, seed=2)
    tracer = Tracer()
    run.install_wrappers(tracer, georepair)
    try:
        with tracer.root("solve", 0):
            traced = georepair.solve_lns_aga(scenario, seed=2)
    finally:
        tracer.uninstall()
    assert traced.history == plain.history
    layers = run.layer_metrics(tracer.summary(), 1)
    assert layers["search.lns_improve.calls"] > 0
    assert layers["planning.allocate.calls"] > 0
    assert 0.0 <= layers["planning.allocate.repeat_share"] < 1.0
    assert layers["astro.rendezvous_mixed.calls"] == 4


def test_metric_names_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    scenario = georepair.random_scenario(3, 2, 10, seed=5)
    result = georepair.solve_ga(scenario, seed=1)
    end_to_end = run.end_to_end([(1, 0.5, 0.4, result)], [(0.1, 0.09)])
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
    per_layer = set(run.layer_metrics({}, 1)) | {"trace.overhead_share"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
