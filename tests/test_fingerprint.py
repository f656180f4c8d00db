"""Behaviour fingerprint of the three solvers on a small random scenario.

Each hash covers, per solver seed, the final evaluation (fitness, total
delta-v, per-servicer delta-v), the best plan, the generation count and the
whole (best, mean) fitness history, all as exact float hex strings. A
refactor that claims to leave the search unchanged must leave these hashes
unchanged; a deliberate behaviour change must update them and say why.
Each of these solves runs through the CLI's ``SOLVERS`` entry; the
benchmark's workloads call the public solvers directly. The same solves
also fly every reported leg through the independent propagator and check
that it lands on its target.
"""

import functools
import hashlib
import json

import pytest

from georepair.cli import SOLVERS, RunConfig
from georepair.planning import CostModel
from georepair.scenarios import case_study, random_scenario
from georepair.search import (
    GaParams,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
)
from mixed_oracle import CLOSURE_BOUNDS, UNFLYABLE_LEGS, assert_legs_close

SEEDS = (1, 2, 3)

# Six targets and two servicers (scenario seed 7) over two deadlines: at six
# days no solver finds a feasible plan, so penalties shape the search; at
# ten the mixed-model solvers do while the Lambert baseline still cannot.
DEADLINE_DAYS = {"tight": 6.0, "roomy": 10.0}

EXPECTED = {
    ("tight", "lns-aga"): "58c8a11b224d093d",
    ("tight", "ga"): "5658d41fa4e165a2",
    ("tight", "lambert-ga"): "c9a88c55bd1cf3b5",
    ("roomy", "lns-aga"): "a4eea97030747f9e",
    ("roomy", "ga"): "de93280ab6e5807e",
    ("roomy", "lambert-ga"): "bcc7a2b4c80b68a8",
}
GA = GaParams(population_size=20, min_iterations=20, stall_iterations=10)


def _scenario(case):
    return random_scenario(6, 2, DEADLINE_DAYS[case], seed=7)


@functools.cache
def _results(case, solver):
    """One solve per seed, shared by the fingerprint and closure tests."""
    scenario = _scenario(case)
    return tuple(SOLVERS[solver](scenario, RunConfig(solver, seed, GA))
                 for seed in SEEDS)


def fingerprint(results) -> str:
    record = []
    for r in results:
        ev = r.best_evaluation
        record.append([
            r.seed, r.generations_run, ev.fitness.hex(), ev.total_dv.hex(),
            [dv.hex() for dv in ev.per_servicer_dv], ev.feasible,
            [[route.servicer_id, route.target_sequence, route.revolutions]
             for route in r.best_plan.routes],
            [[best.hex(), mean.hex()] for best, mean in r.history]])
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case, solver", sorted(EXPECTED))
def test_solver_fingerprint(case, solver):
    assert fingerprint(_results(case, solver)) == EXPECTED[(case, solver)]


def assert_reports_the_kernel_price(scenario, result):
    """A mixed solve reports its best plan at the price the search gave it:
    ``best_evaluation`` is ``CostModel.plan_metrics`` bit for bit."""
    ev = result.best_evaluation
    fitness, total_dv, p1, p2, feasible = CostModel(scenario).plan_metrics(
        result.best_plan)
    assert ev.fitness.hex() == fitness.hex()
    assert ev.total_dv.hex() == total_dv.hex()
    assert ev.deadline_penalty.hex() == p1.hex()
    assert ev.budget_penalty.hex() == p2.hex()
    assert ev.feasible == feasible


@pytest.mark.parametrize("case", sorted(DEADLINE_DAYS))
@pytest.mark.parametrize("solver", ["ga", "lns-aga"])
def test_mixed_solves_report_the_kernel_price(case, solver):
    for result in _results(case, solver):
        assert_reports_the_kernel_price(_scenario(case), result)


@pytest.mark.parametrize("solver", sorted(UNFLYABLE_LEGS))
def test_every_reported_leg_closes_on_its_target(solver):
    bounds = CLOSURE_BOUNDS["lambert" if solver == "lambert-ga" else "mixed"]
    flown = skipped = targets = 0
    for case in sorted(DEADLINE_DAYS):
        scenario = _scenario(case)
        for result in _results(case, solver):
            targets += len(scenario.targets)
            n_flown, n_skipped = assert_legs_close(scenario, result, bounds)
            flown += n_flown
            skipped += n_skipped
    assert skipped == UNFLYABLE_LEGS[solver]
    assert flown + skipped == targets


def test_case_study_lns_fingerprint():
    # The benchmark's case_lns workload: the case study under solve_lns_aga
    # with default parameters, seed 1 (perfbench/baseline.json).
    result = solve_lns_aga(case_study(), seed=1)
    assert_reports_the_kernel_price(case_study(), result)
    assert result.best_evaluation.fitness == 1506.3444605944946
    assert result.generations_run == 145
    assert fingerprint([result]) == "17ede6efded19390"


def test_case_study_ga_fingerprint():
    # The benchmark's case_ga workload at its first seed: the case study
    # under solve_ga with default parameters, seed 1.
    result = solve_ga(case_study(), seed=1)
    assert_reports_the_kernel_price(case_study(), result)
    assert result.best_evaluation.fitness == 1580.302419706907
    assert result.generations_run == 100
    assert fingerprint([result]) == "c468c8366d2e6412"


def test_tight_lns_fingerprint():
    # The benchmark's tight_lns workload: acceptance criterion 5's random
    # scenario (10 targets, 2 servicers, 10 days, seed 2101) under
    # solve_lns_aga with default parameters, seed 1. No plan meets the
    # deadline, so penalties shape the whole search.
    scenario = random_scenario(10, 2, 10, seed=2101)
    result = solve_lns_aga(scenario, seed=1)
    assert_reports_the_kernel_price(scenario, result)
    assert result.best_evaluation.fitness == 12969.21840401325
    assert result.generations_run == 100
    assert fingerprint([result]) == "1b335d397174dbf6"


def test_long_chromosome_ga_fingerprint():
    # 24 targets and 2 servicers: the crossover cuts are drawn from
    # m + n = 26 sites and the mutation sites from 25, both above the 21
    # items at which ``random.Random.sample`` switches from its pool
    # method to its set method, which the six-target cases never reach.
    scenario = random_scenario(24, 2, 10.0, seed=7)
    results = [solve_ga(scenario, GA, seed=seed) for seed in SEEDS]
    assert fingerprint(results) == "401844d2a898dfd0"


@functools.cache
def _case_study_lambert():
    # The benchmark's case_lambert workload: the case study under
    # solve_lambert_ga with default parameters, seed 1.
    return solve_lambert_ga(case_study(), seed=1)


def test_case_study_lambert_fingerprint():
    result = _case_study_lambert()
    assert result.best_evaluation.fitness == 220349.48800643568
    assert result.generations_run == 156
    assert fingerprint([result]) == "bc6b64f55726185f"


def test_case_study_lambert_legs_close_on_their_targets():
    scenario = case_study()
    assert assert_legs_close(scenario, _case_study_lambert(),
                             CLOSURE_BOUNDS["lambert"]) == (
        len(scenario.targets), 0)
