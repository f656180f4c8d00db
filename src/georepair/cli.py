"""Command-line front end: solve, bench, oracle and gen subcommands.

Artifacts per solve, ``oracle`` included: ``schedule.csv`` (one row per
repaired target with impulse vectors and timing), ``convergence.csv``
(per-generation best and average fitness) and ``summary.json``. Each solver
flag sets the field of ``RunConfig``, ``GaParams`` or ``LnsParams`` that
``SOLVER_FLAGS`` names and takes that field's default. ``SOLVERS`` is the
one place that maps an algorithm, the oracle included, to its solve, and
``bench`` refuses every scenario that ``solve`` refuses. JSON files are
strict JSON, with ``null`` for an infinite or NaN value. Exit codes: 0 when
the best plan is feasible, 2 when the best plan violates a constraint, 1 on
errors, usage errors included.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from datetime import timedelta
from pathlib import Path

from .planning import (
    SLACK_RULES,
    Evaluation,
    InstanceTooLarge,
    _left_sum,
    exhaustive_solve,
)
from .scenarios import ParseError, load, random_scenario, save
from .search import (
    GaParams,
    LnsParams,
    SolveResult,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
)


def _oracle(scenario, config: RunConfig) -> SolveResult:
    """The exhaustive optimum as a solve with a one-point history."""
    plan, evaluation = exhaustive_solve(scenario, config.max_revolutions,
                                        config.ga.phi, config.ga.gamma)
    return SolveResult(best_plan=plan, best_evaluation=evaluation,
                       history=[(evaluation.fitness, evaluation.fitness)],
                       generations_run=0, seed=config.seed)


# --algo name -> its solve of (scenario, RunConfig): the one place that
# maps an algorithm to the function and arguments that run it.
SOLVERS = {
    "lns-aga": lambda sc, c: solve_lns_aga(sc, c.ga, c.lns, c.seed,
                                           c.slack_rule),
    "ga": lambda sc, c: solve_ga(sc, c.ga, c.seed, c.slack_rule),
    "lambert-ga": lambda sc, c: solve_lambert_ga(sc, c.ga, c.seed),
    "oracle": _oracle,
}
ALGORITHMS = tuple(SOLVERS)
MAX_RUNS = 10_000  # seeded runs per algorithm in one bench

SCHEDULE_COLUMNS = [
    "servicer", "target",
    "impulse1_x_mps", "impulse1_y_mps", "impulse1_z_mps",
    "impulse2_x_mps", "impulse2_y_mps", "impulse2_z_mps",
    "impulse1_time", "impulse1_time_iso",
    "impulse2_time", "impulse2_time_iso",
    "coast_time_s", "maneuver_time_s", "leg_dv_mps",
]

_SUMMARY_CSV_FORMATS = {
    "min_dv_mps": ".4f", "avg_dv_mps": ".4f", "std_dv_mps": ".4f",
    "feasible_proportion": ".3f",
    "min_wall_s": ".2f", "avg_wall_s": ".2f", "max_wall_s": ".2f",
}


@dataclass
class RunConfig:
    """One solver execution: the algorithm, its seed and its parameters."""

    algorithm: str = "lns-aga"
    seed: int = 1
    ga: GaParams = field(default_factory=GaParams)
    lns: LnsParams = field(default_factory=LnsParams)
    max_revolutions: int = 4
    slack_rule: str = "largest"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


# Solver flag -> the field of RunConfig, GaParams or LnsParams it sets,
# which is its dest and whose default gives its default and type.
SOLVER_FLAGS = {
    "--algo": "algorithm", "--seed": "seed", "--slack-rule": "slack_rule",
    "--max-rev": "max_revolutions",
    "--pop-size": "population_size", "--min-iters": "min_iterations",
    "--stall-iters": "stall_iterations", "--phi": "phi", "--gamma": "gamma",
    "--pc-hi": "pc_hi", "--pc-lo": "pc_lo", "--pm-hi": "pm_hi",
    "--pm-lo": "pm_lo",
    "--remove-rate": "remove_rate", "--elite-rate": "elite_fraction",
    "--lns-iters": "lns_iterations", "--beta": "beta",
    "--det-p": "determinism_p",
}
_CHOICES = {"algorithm": ALGORITHMS, "slack_rule": SLACK_RULES}
_HELP = {"phi": "deadline penalty weight per minute late",
         "gamma": "budget penalty weight per m/s over",
         "max_revolutions": "revolution cap for the exhaustive oracle"}


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2, the exit code of an infeasible
    # plan; raise instead, for main to report in one line with exit 1.
    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _add_solver_flags(p, flags):
    defaults = {**vars(RunConfig()), **vars(GaParams()), **vars(LnsParams())}
    for flag in flags:
        name = SOLVER_FLAGS[flag]
        p.add_argument(flag, dest=name, type=type(defaults[name]),
                       default=defaults[name], choices=_CHOICES.get(name),
                       help=_HELP.get(name))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="georepair",
                     description="Plan multi-servicer GEO repair missions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario file")
    _add_solver_flags(p_solve, SOLVER_FLAGS)

    p_bench = sub.add_parser("bench",
                             help="run repeated-seed benchmark statistics")
    p_bench.add_argument("--algo", default="lns-aga,ga,lambert-ga",
                         help="comma-separated algorithms to benchmark")
    _add_solver_flags(p_bench, [f for f in SOLVER_FLAGS if f != "--algo"])
    p_bench.add_argument("--runs", type=int, default=1)
    p_bench.add_argument("--jobs", type=int, default=1)

    p_oracle = sub.add_parser("oracle",
                              help="exhaustive optimum of a small instance")
    _add_solver_flags(p_oracle, ["--max-rev", "--phi", "--gamma"])
    # The exhaustive search draws no random numbers; it reports seed 0.
    p_oracle.set_defaults(algorithm="oracle", seed=0)

    for p in (p_solve, p_bench, p_oracle):
        p.add_argument("scenario", type=Path)
        p.add_argument("--out", type=Path, default=Path("."))

    p_gen = sub.add_parser("gen", help="generate a random scenario file")
    p_gen.add_argument("out_path", type=Path)
    p_gen.add_argument("--targets", type=int, required=True)
    p_gen.add_argument("--servicers", type=int, required=True)
    p_gen.add_argument("--days", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    return parser


def _config_from_args(args) -> RunConfig:
    def given(cls):
        return {f.name: getattr(args, f.name) for f in fields(cls)
                if f.name in SOLVER_FLAGS.values() and hasattr(args, f.name)}
    return RunConfig(ga=GaParams(**given(GaParams)),
                     lns=LnsParams(**given(LnsParams)), **given(RunConfig))


def _run_one(scenario, config: RunConfig) -> tuple[SolveResult, float]:
    """One solver execution: (result, wall seconds)."""
    start = time.perf_counter()
    result = SOLVERS[config.algorithm](scenario, config)
    return result, time.perf_counter() - start


def _write_json(path: Path, payload: dict):
    """Write ``payload`` as strict JSON: every non-finite float (an
    infinite delta-v or fitness, a NaN spread) becomes ``null``."""
    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(finite(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, rows: list[dict]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _fmt_time(epoch, seconds: float, iso: bool = False) -> str:
    stamp = epoch + timedelta(seconds=seconds)
    if iso:
        return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")
    return stamp.strftime("%m/%d %H:%M:%S")


def write_schedule(path: Path, scenario, evaluation: Evaluation):
    names = {s.id: s.name for s in scenario.servicers}
    names_t = {t.id: t.name for t in scenario.targets}
    _write_csv(path, [dict(zip(SCHEDULE_COLUMNS, (
        names[leg.servicer_id], names_t[leg.target_id],
        *(f"{x:.6f}" for x in leg.impulse1 + leg.impulse2),
        _fmt_time(scenario.epoch, leg.impulse1_time),
        _fmt_time(scenario.epoch, leg.impulse1_time, iso=True),
        _fmt_time(scenario.epoch, leg.arrival_time),
        _fmt_time(scenario.epoch, leg.arrival_time, iso=True),
        f"{leg.coast_time:.3f}", f"{leg.phase_time:.3f}",
        f"{leg.total_dv:.6f}"), strict=True))
        for leg in evaluation.leg_details])


def write_convergence(path: Path, result: SolveResult):
    _write_csv(path, [{"generation": gen, "best_fitness": f"{best:.6f}",
                       "avg_fitness": f"{avg:.6f}"}
                      for gen, (best, avg) in enumerate(result.history)])


def _route_record(scenario, route, config: RunConfig, ev: Evaluation
                  ) -> dict:
    """A route of ``summary.json``: a Lambert route gives the flight time
    the search chose for each leg, any other route its revolutions."""
    record = {
        "servicer": scenario.servicer(route.servicer_id).name,
        "targets": [scenario.target(t).name for t in route.target_sequence],
    }
    if config.algorithm == "lambert-ga":
        record["flight_times_s"] = [
            leg.phase_time for leg in ev.leg_details
            if leg.servicer_id == route.servicer_id]
    else:
        record["revolutions"] = list(route.revolutions)
    return record


def _summary_payload(scenario, result: SolveResult, config: RunConfig,
                     wall: float) -> dict:
    ev = result.best_evaluation
    return {
        "algorithm": config.algorithm,
        "seed": result.seed,
        "feasible": ev.feasible,
        "fitness": ev.fitness,
        "total_dv_mps": ev.total_dv,
        "per_servicer_dv_mps": {
            s.name: dv for s, dv in zip(scenario.servicers,
                                        ev.per_servicer_dv)},
        "deadline_penalty_s": ev.deadline_penalty,
        "budget_penalty_mps": ev.budget_penalty,
        "generations": result.generations_run,
        "runtime_s": wall,
        "routes": [_route_record(scenario, r, config, ev)
                   for r in result.best_plan.routes],
        "params": {
            "population_size": config.ga.population_size,
            "min_iterations": config.ga.min_iterations,
            "stall_iterations": config.ga.stall_iterations,
            "pc": [config.ga.pc_lo, config.ga.pc_hi],
            "pm": [config.ga.pm_lo, config.ga.pm_hi],
            "phi": config.ga.phi, "gamma": config.ga.gamma,
            "remove_rate": config.lns.remove_rate,
            "determinism_p": config.lns.determinism_p,
            "beta": config.lns.beta,
            "lns_iterations": config.lns.lns_iterations,
            "elite_fraction": config.lns.elite_fraction,
            "slack_rule": config.slack_rule,
        },
        "scenario": {
            "servicers": len(scenario.servicers),
            "targets": len(scenario.targets),
            "deadline_hours": scenario.deadline / 3600.0,
        },
    }


def cmd_solve(scenario_path: Path, config: RunConfig, out_dir: Path) -> int:
    scenario = load(scenario_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    result, wall = _run_one(scenario, config)
    write_schedule(out_dir / "schedule.csv", scenario, result.best_evaluation)
    write_convergence(out_dir / "convergence.csv", result)
    _write_json(out_dir / "summary.json",
                _summary_payload(scenario, result, config, wall))
    ev = result.best_evaluation
    print(f"{config.algorithm}: fitness {ev.fitness:.4f}, total dv "
          f"{ev.total_dv:.4f} m/s, feasible={ev.feasible}")
    return 0 if ev.feasible else 2


def _bench_worker(scenario, config: RunConfig) -> dict:
    result, wall = _run_one(scenario, config)
    ev = result.best_evaluation
    return {
        "algorithm": config.algorithm, "seed": config.seed,
        "fitness": ev.fitness, "total_dv_mps": ev.total_dv,
        "feasible": ev.feasible, "deadline_penalty_s": ev.deadline_penalty,
        "budget_penalty_mps": ev.budget_penalty,
        "generations": result.generations_run, "wall_s": wall,
    }


def cmd_bench(scenario_path: Path, config: RunConfig, algorithms: list[str],
              runs: int, jobs: int, out_dir: Path) -> int:
    if not 1 <= runs <= MAX_RUNS:
        raise ValueError(f"runs must be in [1, {MAX_RUNS}], got {runs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not algorithms:
        raise ValueError("need at least one algorithm")
    for algo in algorithms:
        if algorithms.count(algo) > 1:
            raise ValueError(f"algorithm {algo!r} listed more than once")
    scenario = load(scenario_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The exhaustive search draws no random numbers: it runs once, under
    # seed 0, as the oracle subcommand reports it.
    configs = [replace(config, algorithm=algo, seed=seed)
               for algo in algorithms
               for seed in ((0,) if algo == "oracle"
                            else range(config.seed, config.seed + runs))]
    # A process pool forks all its workers at the first submit, so start
    # no more than there are tasks or cores.
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_worker, [scenario] * len(configs),
                                 configs))
    else:
        rows = [_bench_worker(scenario, c) for c in configs]
    _write_csv(out_dir / "runs.csv", rows)

    summaries = []
    for algo in algorithms:
        sub = [r for r in rows if r["algorithm"] == algo]
        dvs = [r["total_dv_mps"] for r in sub]
        walls = [r["wall_s"] for r in sub]
        mean = _left_sum(dvs) / len(dvs)
        std = (math.sqrt(_left_sum((d - mean) ** 2 for d in dvs)
                         / (len(dvs) - 1))
               if len(dvs) > 1 else 0.0)
        summaries.append({
            "algorithm": algo, "runs": len(sub),
            "min_dv_mps": min(dvs), "avg_dv_mps": mean, "std_dv_mps": std,
            "feasible_proportion": (_left_sum(r["feasible"] for r in sub)
                                    / len(sub)),
            "min_wall_s": min(walls),
            "avg_wall_s": _left_sum(walls) / len(walls),
            "max_wall_s": max(walls),
        })
    _write_json(out_dir / "summary.json",
                {"scenario": str(scenario_path), "seed": config.seed,
                 "runs": runs, "algorithms": summaries})
    _write_csv(out_dir / "summary.csv",
               [{k: format(v, _SUMMARY_CSV_FORMATS.get(k, ""))
                 for k, v in s.items()} for s in summaries])
    for s in summaries:
        print(f"{s['algorithm']}: min {s['min_dv_mps']:.2f}, "
              f"avg {s['avg_dv_mps']:.2f}, std {s['std_dv_mps']:.2f}, "
              f"feasible {s['feasible_proportion']:.0%}")
    return 0


def cmd_gen(n_targets: int, n_servicers: int, duration_days: float,
            seed: int, out_path: Path) -> int:
    scenario = random_scenario(n_targets, n_servicers, duration_days, seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save(scenario, out_path)
    print(f"wrote {out_path} ({n_targets} targets, {n_servicers} servicers, "
          f"{duration_days} days)")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args.targets, args.servicers, args.days,
                           args.seed, args.out_path)
        config = _config_from_args(args)
        if args.command == "bench":
            algorithms = [a.strip() for a in args.algo.split(",")
                          if a.strip()]
            return cmd_bench(args.scenario, config, algorithms, args.runs,
                             args.jobs, args.out)
        return cmd_solve(args.scenario, config, args.out)
    except (argparse.ArgumentError, ParseError, InstanceTooLarge, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
