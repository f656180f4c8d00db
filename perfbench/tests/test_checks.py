"""Each solve check rejects a hand-corrupted result."""

import copy

import pytest

import georepair
from checks import check_solve, fingerprint


@pytest.fixture(scope="module")
def solved():
    scenario = georepair.random_scenario(5, 2, 20, seed=4)
    return scenario, georepair.solve_ga(scenario, seed=1)


def test_clean_result_passes(solved):
    scenario, result = solved
    assert check_solve(scenario, result, mixed=True) == []


def test_rejects_plan_missing_a_target(solved):
    scenario, result = solved
    bad = copy.deepcopy(result)
    route = next(r for r in bad.best_plan.routes if r.target_sequence)
    route.target_sequence.pop()
    route.revolutions.pop()
    assert "best plan invalid" in check_solve(scenario, bad, True)[0]


def test_rejects_fitness_off_the_history(solved):
    scenario, result = solved
    bad = copy.deepcopy(result)
    bad.best_evaluation.fitness *= 1.0 + 1e-6
    problems = check_solve(scenario, bad, mixed=False)
    assert len(problems) == 1 and "best in history" in problems[0]


def test_rejects_increasing_history(solved):
    scenario, result = solved
    bad = copy.deepcopy(result)
    best, mean = bad.history[-1]
    bad.history.append((best * 2.0, mean))
    assert check_solve(scenario, bad, True) == [
        "best fitness in history increases"]


def test_rejects_scalar_vector_disagreement(solved):
    scenario, result = solved
    bad = copy.deepcopy(result)
    route = max(bad.best_plan.routes, key=lambda r: len(r.target_sequence))
    route.revolutions[0] += 1
    problems = check_solve(scenario, bad, mixed=True)
    assert len(problems) == 1 and "CostModel" in problems[0]
    assert check_solve(scenario, bad, mixed=False) == []


def test_fingerprint_tracks_history(solved):
    _, result = solved
    bad = copy.deepcopy(result)
    assert fingerprint([bad]) == fingerprint([result])
    bad.history[0] = (bad.history[0][0], bad.history[0][1] + 1e-12)
    assert fingerprint([bad]) != fingerprint([result])
