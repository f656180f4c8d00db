"""Correctness checks on one solve, and the behaviour fingerprint of a batch."""

from __future__ import annotations

import hashlib
import json
import math

from georepair.planning import CostModel

REL_TOL = 1e-9


def check_solve(scenario, result, mixed: bool) -> list[str]:
    """Problems found in one ``SolveResult``; an empty list means it passed.

    ``mixed`` marks solvers that price legs with the mixed model, whose
    scalar ``CostModel`` fitness must agree with the vector evaluation.
    """
    try:
        result.best_plan.validate_against(scenario)
    except ValueError as exc:
        return [f"best plan invalid: {exc}"]
    problems = []
    fitness = result.best_evaluation.fitness
    bests = [best for best, _ in result.history]
    if not math.isclose(fitness, min(bests), rel_tol=REL_TOL):
        problems.append(f"final fitness {fitness!r} != best in history "
                        f"{min(bests)!r}")
    if any(later > earlier for earlier, later in zip(bests, bests[1:])):
        problems.append("best fitness in history increases")
    if mixed:
        scalar = CostModel(scenario).plan_metrics(result.best_plan)[0]
        if not math.isclose(fitness, scalar, rel_tol=REL_TOL):
            problems.append(f"final fitness {fitness!r} != CostModel "
                            f"fitness {scalar!r}")
    return problems


def fingerprint(results) -> str:
    """Hash of each seed's best fitness, generation count and history."""
    record = [[r.seed, r.best_evaluation.fitness.hex(), r.generations_run,
               [[best.hex(), mean.hex()] for best, mean in r.history]]
              for r in sorted(results, key=lambda r: r.seed)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]
