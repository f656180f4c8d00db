"""The solver contract on drawn scenarios, for all three solvers.

Every solve reports its history's best: ``best_evaluation.fitness`` is the
least best fitness in ``history`` by ``float.hex``, and the best plan's
route scores on a fresh leg model of the solve's kind, added up by
``_plan_sums``, because the engine, the LNS, the report and the oracle
score a plan by one rule, the left sum of ``_LegModel._score`` route
scores. Every reported leg, mixed or Lambert, lands on its target under the
independent propagator. The scenarios are small: 1 to 3 servicers, 1 to 5
targets, round-degree angles and angles a few ulps from them, zero and
non-zero repair times and deadlines of 1 to 30 days.
"""

import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from georepair import planning, search
from georepair.planning import CostModel, _LegModel, exhaustive_solve
from georepair.scenarios import random_scenario
from georepair.search import (
    GaParams,
    LnsParams,
    _LambertAdapter,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
)
from mixed_oracle import CLOSURE_BOUNDS, assert_legs_close
from scenario_builders import make_scenario

DAY = 86400.0
GA = GaParams(population_size=20, min_iterations=10, stall_iterations=5)
SOLVERS = {
    "solve_lns_aga": lambda sc, seed: solve_lns_aga(sc, GA, LnsParams(),
                                                    seed=seed),
    "solve_ga": lambda sc, seed: solve_ga(sc, GA, seed=seed),
    "solve_lambert_ga": lambda sc, seed: solve_lambert_ga(sc, GA, seed=seed),
}
MIXED = ("solve_lns_aga", "solve_ga")
# Largest target count at which the oracle check runs, to keep it cheap.
ORACLE_TARGETS = 3


def plan_sums(name, scenario, plan):
    """(fitness, total_dv, p1, p2, feasible) of ``plan`` on a fresh leg
    model of the kind solver ``name`` searches with: the mixed model's
    ``plan_metrics``, or the Lambert model's ``route_detail`` route scores
    added up by ``_plan_sums``."""
    if name in MIXED:
        return CostModel(scenario, phi=GA.phi, gamma=GA.gamma).plan_metrics(
            plan)
    model = _LambertAdapter(scenario, GA.phi, GA.gamma)
    return model._plan_sums(
        model._score(r.servicer_id,
                     *model.route_detail(r.servicer_id,
                                         r.target_sequence)[1:])
        for r in plan.routes)


def _nudge(x: float, ulps: int) -> float:
    """``x`` moved ``ulps`` representable floats up (down if negative)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


def _degrees(low: int, high: int):
    """A whole degree in [low, high], or one a few ulps from it."""
    return st.builds(_nudge, st.integers(low, high).map(float),
                     st.integers(-3, 3))


@st.composite
def scenarios(draw):
    # abs keeps an inclination nudged below 0 deg a tiny positive angle.
    orbit = st.tuples(_degrees(0, 10).map(abs), _degrees(0, 359),
                      _degrees(0, 359))
    servicers = [draw(orbit) + (draw(st.sampled_from([300.0, 2000.0])),)
                 for _ in range(draw(st.integers(1, 3)))]
    targets = [draw(orbit) + (draw(st.sampled_from([0.0, 3600.0, DAY])),)
               for _ in range(draw(st.integers(1, 5)))]
    return make_scenario(servicers, targets,
                         draw(st.floats(1.0, 30.0)) * DAY)


# Solves whose reported fitness missed their history's best by one ulp
# while the report added a plan up in its own order: solve_ga, solve_lns_aga
# and solve_lambert_ga on random_scenario(6, 2, 3 + seed % 5, seed).
@settings(max_examples=60, deadline=None)
@given(scenarios(), st.integers(0, 2 ** 16))
@example(random_scenario(6, 2, 5.0, 2), 2)
@example(random_scenario(6, 2, 4.0, 11), 11)
@example(random_scenario(6, 2, 4.0, 1), 1)
def test_every_solve_reports_its_history_best(scenario, seed):
    for name, solve in SOLVERS.items():
        result = solve(scenario, seed)
        result.best_plan.validate_against(scenario)
        best = [b for b, _ in result.history]
        assert all(b <= a for a, b in zip(best, best[1:])), name
        ev = result.best_evaluation
        assert ev.fitness.hex() == min(best).hex(), name

        # Every route, insertion and gene memo capped at a few keys' ids,
        # and the leg cache and state memo at 5 entries.
        genes = len(scenario.targets) + len(scenario.servicers) - 1
        with (mock.patch.multiple(search, _GENE_ID_BUDGET=5 * genes,
                                  _LEG_CACHE_CAP=5),
              mock.patch.object(planning, "_MEMO_ID_BUDGET", 12)):
            again = solve(scenario, seed)
        assert again.history == result.history, name
        assert again.best_plan == result.best_plan, name

        fitness, total_dv, p1, p2, feasible = plan_sums(
            name, scenario, result.best_plan)
        assert [x.hex() for x in (fitness, total_dv, p1, p2)] == [
            x.hex() for x in (ev.fitness, ev.total_dv, ev.deadline_penalty,
                              ev.budget_penalty)], name
        assert feasible == ev.feasible, name

        flown, skipped = assert_legs_close(
            scenario, result,
            CLOSURE_BOUNDS["mixed" if name in MIXED else "lambert"])
        assert flown + skipped == len(scenario.targets), name

        if name not in MIXED:
            continue
        revs = [k for route in result.best_plan.routes
                for k in route.revolutions]
        if len(scenario.targets) <= ORACLE_TARGETS and max(revs) <= 6:
            _, oracle = exhaustive_solve(scenario, 6, GA.phi, GA.gamma)
            assert oracle.fitness <= ev.fitness, name


def test_each_solve_builds_one_cost_model(monkeypatch):
    # The search, the LNS and the report share the solve's one leg model,
    # so no solve builds a second model to score its report with. Every
    # leg model, mixed or Lambert, runs the base's constructor once.
    built = []
    init = _LegModel.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_LegModel, "__init__", counted)
    scenario = random_scenario(4, 2, 10.0, seed=3)
    solves = {**SOLVERS,
              "exhaustive_solve": lambda sc, seed: exhaustive_solve(sc, 3)}
    for name, solve in solves.items():
        built.clear()
        solve(scenario, 1)
        assert len(built) == 1, (name, built)
