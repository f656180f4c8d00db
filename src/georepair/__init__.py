"""Mission planning for multi-servicer GEO satellite repair campaigns.

Given a fleet of servicing spacecraft and a set of GEO targets with a
mission deadline, the planner assigns each servicer an ordered repair
route plus per-leg phasing revolution counts that minimize total delta-v,
using a mixed plane-change/phasing rendezvous model and a hybrid
large-neighborhood-search adaptive genetic algorithm.
"""

from .astro import (
    GEO,
    CartesianState,
    GeoOrbit,
    RendezvousSolution,
)
from .planning import (
    Evaluation,
    MissionPlan,
    Route,
    Scenario,
    Servicer,
    Target,
    allocate_revolutions,
    evaluate_plan,
    exhaustive_solve,
)
from .scenarios import case_study, load, random_scenario, save
from .search import (
    GaParams,
    LnsParams,
    SolveResult,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
)

__version__ = "0.1.0"

__all__ = [
    "GEO", "CartesianState", "GeoOrbit", "RendezvousSolution",
    "Evaluation", "MissionPlan", "Route", "Scenario", "Servicer", "Target",
    "allocate_revolutions", "evaluate_plan", "exhaustive_solve",
    "case_study", "load", "random_scenario", "save",
    "GaParams", "LnsParams", "SolveResult",
    "solve_ga", "solve_lambert_ga", "solve_lns_aga",
    "__version__",
]
