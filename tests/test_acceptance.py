"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

The heavy batteries (repeated solver executions) run once in module-scoped
fixtures and are shared between criteria. Run with ``pytest -s`` to see the
per-criterion report lines.
"""

import math
import random
import statistics
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from georepair.astro import (
    GEO,
    GeoOrbit,
    orbit_to_state,
    phasing_solution,
)
from georepair.planning import CostModel, exhaustive_solve
from georepair.scenarios import case_study, random_scenario
from georepair.search import (
    GaParams,
    LnsParams,
    adaptive_pc,
    adaptive_pm,
    destroy,
    pmx_crossover,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
    swap_mutation,
)
from mixed_oracle import propagate_through_solution
from scenario_builders import kernel_leg

DAY = 86400.0
T = GEO.t_geo
JOBS = 2


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _slim(result, wall=None):
    ev = result.best_evaluation
    return {
        "fitness": ev.fitness,
        "total_dv": ev.total_dv,
        "per_servicer_dv": list(ev.per_servicer_dv),
        "feasible": ev.feasible,
        "deadline_penalty": ev.deadline_penalty,
        "budget_penalty": ev.budget_penalty,
        "completions": [leg.completion_time for leg in ev.leg_details],
        "history_best": [h[0] for h in result.history],
        "seed": result.seed,
    }


def _case_lns(seed):
    import time
    start = time.perf_counter()
    result = solve_lns_aga(case_study(), seed=seed)
    out = _slim(result)
    out["wall_s"] = time.perf_counter() - start
    return out


def _case_ga(seed):
    result = solve_ga(case_study(), seed=seed)
    return _slim(result)


def _compare_15d(scenario_seed):
    scenario = random_scenario(10, 2, 15.0, seed=scenario_seed)
    lns = [_slim(solve_lns_aga(scenario, seed=s)) for s in range(1, 6)]
    lga = [_slim(solve_lambert_ga(scenario, seed=s)) for s in range(1, 6)]
    return lns, lga


def _compare_10d(scenario_seed):
    scenario = random_scenario(10, 2, 10.0, seed=scenario_seed)
    mixed = [_slim(solve_lns_aga(scenario, seed=s)) for s in range(1, 4)]
    mixed += [_slim(solve_ga(scenario, seed=s)) for s in range(1, 4)]
    lga = [_slim(solve_lambert_ga(scenario, seed=s)) for s in range(1, 4)]
    return mixed, lga


def _oracle_instance(case_seed):
    """One oracle-equivalence instance: see the ledgered shape rationale."""
    rng = random.Random(case_seed)
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)])
    duration_days = m + rng.uniform(1.05, 1.45) * T / DAY
    scenario = random_scenario(m, n, duration_days, seed=case_seed)
    phi = 1000.0
    _, oracle = exhaustive_solve(scenario, max_revolutions=4, phi=phi)
    ga = GaParams(population_size=30, min_iterations=30, stall_iterations=15,
                  phi=phi)
    best = min(solve_lns_aga(scenario, ga, LnsParams(), seed=s)
               .best_evaluation.fitness for s in range(1, 6))
    return oracle.fitness, best


@pytest.fixture(scope="module")
def case_battery():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        lns = list(pool.map(_case_lns, range(1, 21)))
        ga = list(pool.map(_case_ga, range(1, 21)))
    return lns, ga


@pytest.fixture(scope="module")
def battery_15d():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(_compare_15d, range(1101, 1106)))


@pytest.fixture(scope="module")
def battery_10d():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(_compare_10d, range(2101, 2106)))


def test_criterion_1_case_study_quality(case_battery):
    lns, _ = case_battery
    feasible = [r for r in lns if r["feasible"]]
    best = min((r["total_dv"] for r in feasible), default=math.inf)
    slowest = max(r["wall_s"] for r in lns)
    ok = bool(feasible) and best <= 2100.0 and slowest <= 300.0
    _report(1, ok, f"best of 20 runs: {best:.2f} m/s feasible "
                   f"(limit 2100), slowest run {slowest:.0f}s (limit 300)")


def test_criterion_2_budgets_and_deadline_at_optimum(case_battery):
    lns, _ = case_battery
    best = min((r for r in lns if r["feasible"]),
               key=lambda r: r["total_dv"])
    deadline = case_study().deadline
    budgets_ok = all(dv <= 1000.0 for dv in best["per_servicer_dv"])
    deadline_ok = all(c <= deadline for c in best["completions"])
    _report(2, budgets_ok and deadline_ok,
            f"best run per-servicer dv = "
            f"{[round(d, 2) for d in best['per_servicer_dv']]} m/s "
            f"(cap 1000), all {len(best['completions'])} repairs inside "
            f"the 30-day deadline")


def test_criterion_3_lns_aga_dominates_ga(case_battery):
    lns, ga = case_battery
    med_lns = statistics.median(r["fitness"] for r in lns)
    med_ga = statistics.median(r["fitness"] for r in ga)
    feas_lns = sum(r["feasible"] for r in lns) / len(lns)
    feas_ga = sum(r["feasible"] for r in ga) / len(ga)
    ok = med_lns < med_ga and feas_lns >= feas_ga
    _report(3, ok, f"median fitness {med_lns:.2f} vs GA {med_ga:.2f}; "
                   f"feasible {feas_lns:.0%} vs GA {feas_ga:.0%}")


def test_criterion_4_mixed_beats_lambert_at_15_days(battery_15d):
    margins = []
    for lns, lga in battery_15d:
        lns_min = min(r["total_dv"] for r in lns)
        lga_min = min(r["total_dv"] for r in lga)
        margins.append((lns_min, lga_min))
    ok = all(a < b for a, b in margins)
    _report(4, ok, "min dv per 15-day scenario (mixed vs Lambert): "
            + "; ".join(f"{a:.0f} < {b:.0f}" for a, b in margins))


def test_criterion_5_ten_day_infeasibility(battery_10d):
    mixed_feasible = 0
    mixed_total = 0
    lambert_time_ok = []
    for mixed, lga in battery_10d:
        mixed_feasible += sum(r["feasible"] for r in mixed)
        mixed_total += len(mixed)
        lambert_time_ok.append(any(r["deadline_penalty"] == 0.0 for r in lga))
    ok = mixed_feasible == 0 and all(lambert_time_ok)
    _report(5, ok, f"mixed-strategy feasible runs {mixed_feasible}/"
                   f"{mixed_total} (need 0); Lambert time-feasible in "
                   f"{sum(lambert_time_ok)}/5 scenarios (need 5)")


def test_criterion_6_phasing_closure_oracle():
    rng = random.Random(606)
    worst_r, worst_v = 0.0, 0.0
    for _ in range(1000):
        servicer = GeoOrbit(rng.uniform(0, math.radians(12)),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
        target = GeoOrbit(rng.uniform(0, math.radians(12)),
                          rng.uniform(0, 2 * math.pi),
                          rng.uniform(0, 2 * math.pi))
        t = rng.uniform(0.0, 3.0 * T)
        state, target, leg, _, _ = kernel_leg(servicer, target,
                                              rng.randint(1, 10), t)
        r_fin, v_fin = propagate_through_solution(state, leg)
        tgt = orbit_to_state(target, leg.arrival_time)
        worst_r = max(worst_r, float(np.linalg.norm(r_fin - tgt.r)))
        worst_v = max(worst_v, float(np.linalg.norm(v_fin - tgt.v)))
    ok = worst_r < 1e-6 and worst_v < 1e-9
    _report(6, ok, f"1000 transfers: worst position error {worst_r:.2e} km "
                   f"(limit 1e-6), worst velocity error {worst_v:.2e} km/s "
                   f"(limit 1e-9)")


def test_criterion_7_oracle_equivalence():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        pairs = list(pool.map(_oracle_instance, range(701, 721)))
    matches = sum(1 for oracle, best in pairs
                  if abs(best - oracle) < 1e-6)
    ok = matches >= 19  # >= 95% of 20
    _report(7, ok, f"{matches}/20 instances matched the exhaustive optimum "
                   f"within 1e-6 (need >= 19)")


def test_criterion_8_operator_property_suite(case_battery):
    rng = random.Random(808)
    length = 10
    genes = list(range(1, length + 1))
    ok = True
    for _ in range(45_000):
        a = rng.sample(genes, length)
        b = rng.sample(genes, length)
        cut1, cut2 = sorted(rng.sample(range(length + 1), 2))
        c1, c2 = pmx_crossover(a, b, cut1, cut2)
        if sorted(c1) != genes or sorted(c2) != genes:
            ok = False
    for _ in range(45_000):
        c = rng.sample(genes, length)
        if sorted(swap_mutation(c, rng)) != genes:
            ok = False

    scenario = random_scenario(10, 2, 30.0, seed=88)
    model = CostModel(scenario)
    seqs = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    for trial in range(10_000):
        q = rng.uniform(0.05, 0.95)
        removed, partial = destroy(seqs, LnsParams(remove_rate=q), rng,
                                   model)
        if len(removed) != math.ceil(10 * q):
            ok = False
        if sorted(removed + [t for seq in partial for t in seq]) != list(
                range(1, 11)):
            ok = False

    params = GaParams()
    for _ in range(10_000):
        w = sorted(rng.uniform(1e-6, 10.0) for _ in range(3))
        pc = adaptive_pc(w[rng.randint(0, 2)], w[0], w[2], params)
        pm = adaptive_pm(w[rng.randint(0, 2)], w[0], w[2], params)
        if not (params.pc_lo <= pc <= params.pc_hi):
            ok = False
        if not (params.pm_lo <= pm <= params.pm_hi):
            ok = False

    lns, ga = case_battery
    for run in lns + ga:
        best = run["history_best"]
        if any(b > a + 1e-9 for a, b in zip(best, best[1:])):
            ok = False
    _report(8, ok, "10^5 operator applications preserved permutations and "
                   "removal counts; adaptive probabilities in bounds; all "
                   "40 logged histories non-increasing")


def test_criterion_9_monotone_phasing_cost():
    rng = random.Random(909)
    ok = True
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        while abs(theta) < 1e-6:
            theta = rng.uniform(-math.pi, math.pi)
        costs = [phasing_solution(theta, k)[2] for k in range(1, 11)]
        if not all(b < a for a, b in zip(costs, costs[1:])):
            ok = False
    _report(9, ok, "100 random gaps: phasing delta-v strictly decreasing "
                   "over k = 1..10")


def test_criterion_10_combined_impulse_inequality():
    rng = random.Random(1010)
    ok = True
    checked = 0
    worst = 0.0
    while checked < 1000:
        servicer = GeoOrbit(rng.uniform(0, math.radians(12)),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(0, 2 * math.pi))
        target = GeoOrbit(rng.uniform(0, math.radians(12)),
                          rng.uniform(0, 2 * math.pi),
                          rng.uniform(0, 2 * math.pi))
        t = rng.uniform(0.0, T)
        k = rng.randint(1, 8)
        _, _, leg, alpha, theta = kernel_leg(servicer, target, k, t)
        dv1 = 2.0 * GEO.v_geo * 1000.0 * math.sin(alpha / 2.0)
        dv2 = 0.5 * phasing_solution(theta, k)[2]
        vec = float(np.linalg.norm(leg.impulse1))
        if vec > dv1 + dv2 + 1e-9:
            ok = False
        sgn = 1.0 if theta > 0 else (-1.0 if theta < 0 else 0.0)
        closed = math.sqrt(dv1 ** 2 + dv2 ** 2
                           + 2.0 * dv1 * dv2 * sgn * math.sin(alpha / 2))
        if closed > 0:
            err = abs(vec - closed) / closed
            worst = max(worst, err)
            if err > 1e-9:
                ok = False
        checked += 1
    _report(10, ok, f"1000 legs: |combined impulse| <= separate-burn sum and "
                    f"matches the closed form (worst rel err {worst:.2e})")
