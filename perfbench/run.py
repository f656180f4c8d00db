"""Solver benchmark for georepair: one closed-loop solve at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload case_lns --seed 1 --seconds 20 --trace 0

The benchmark imports georepair from the checkout's ``src``, writes the
workload's scenario to a JSON file under ``.perfbench_out/``, loads it back
through ``georepair.scenarios.load`` and solves it with the workload's
fixed batch of solver seeds, one solve after another, in whole batches
until ``--seconds`` have passed. Every solve is checked (see
``checks.py``). ``--seed`` only shuffles the order of the batch: solve time
depends strongly on the solver seed, so every run, on every commit, solves
the same seeds. Solve and set-up times are scaled to a fixed host speed
measured while they run (see ``hostspeed.py``); the unscaled wall times are
printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` solves the
batch untraced, traced and untraced again, and reports per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_FIRST = 3     # set-up samples before the first batch; one follows each


@dataclass(frozen=True)
class Workload:
    solver: str        # function name in georepair.search
    scenario: tuple    # ("case_study",) or ("random_scenario", m, n, days, seed)
    seeds: tuple       # solver seeds of one batch
    mixed: bool        # legs priced by the mixed model (CostModel applies)


# On a 2-core x86 VM one batch takes 2.5-3.5 s, case_lns's 14-19 s. Short
# solves repeat the same few seeds, so each seed is timed several times.
WORKLOADS = {
    "case_lns": Workload("solve_lns_aga", ("case_study",), (1,), True),
    "case_ga": Workload("solve_ga", ("case_study",), tuple(range(1, 11)),
                        True),
    "case_lambert": Workload("solve_lambert_ga", ("case_study",), (1,),
                             False),
    "tight_lns": Workload("solve_lns_aga",
                          ("random_scenario", 10, 2, 10, 2101), (1,), True),
}


def _key_route(args):
    return args[1], tuple(args[2])


def _judge_accepted(args, result):
    return result is not args[0]


def install_wrappers(tracer, georepair):
    """Wrap each traced name where its caller looks it up."""
    search, planning = georepair.search, georepair.planning
    for attr in ("lambert_solve", "orbit_to_state"):
        tracer.wrap(search, attr, f"astro.{attr}")
    tracer.wrap(planning, "rendezvous_mixed", "astro.rendezvous_mixed")
    tracer.wrap(search, "evaluate_plan", "planning.evaluate_plan")
    tracer.wrap(search, "evaluate_plan_lambert", "planning.evaluate_plan")
    for attr in ("allocate", "route_geometry"):
        tracer.wrap(planning.CostModel, attr, f"planning.{attr}",
                    key=_key_route)
    for attr in ("route_metrics", "route_score", "plan_metrics",
                 "plan_fitness"):
        tracer.wrap(planning.CostModel, attr, f"planning.{attr}")
    for attr in ("destroy", "insertion_cost", "repair"):
        tracer.wrap(search, attr, f"search.{attr}")
    tracer.wrap(search, "lns_improve", "search.lns_improve",
                judge=_judge_accepted)
    for cls in (search._MixedAdapter, search._LambertAdapter):
        tracer.wrap(cls, "route", "search.adapter_route", key=_key_route)
    tracer.wrap(georepair.scenarios, "load", "scenarios.load")


def layer_metrics(summary: dict, solves: int) -> dict[str, float]:
    """Per-layer metrics, per solve, from ``Tracer.summary``."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def share(name, field):
        calls = get(name, "calls")
        return get(name, field) / calls if calls else 0.0

    def repeat(name):
        calls = get(name, "calls")
        return 1.0 - get(name, "distinct") / calls if calls else 0.0

    out = {}
    for name in ("astro.lambert_solve", "astro.orbit_to_state",
                 "astro.rendezvous_mixed", "planning.allocate",
                 "planning.route_metrics", "planning.route_geometry",
                 "search.insertion_cost", "search.repair", "search.destroy",
                 "search.lns_improve", "search.adapter_route"):
        out[f"{name}.calls"] = get(name, "calls") / solves
        out[f"{name}.self_s"] = get(name, "self_s") / solves
    out["astro.lambert_solve.fail_share"] = share("astro.lambert_solve",
                                                  "flagged")
    out["search.insertion_cost.infeasible_share"] = share(
        "search.insertion_cost", "flagged")
    out["search.lns_improve.accept_share"] = share("search.lns_improve",
                                                   "flagged")
    for name in ("planning.allocate", "planning.route_geometry",
                 "search.adapter_route"):
        out[f"{name}.repeat_share"] = repeat(name)
    out["planning.evaluate_plan.self_s"] = (
        get("planning.evaluate_plan", "self_s") / solves)
    out["search.engine_ga_s"] = get("solve", "self_s") / solves
    out["scenarios.load.self_s"] = share("scenarios.load", "self_s")
    return out


def measure_setup(scenario_path: Path,
                  repeats: int) -> list[tuple[float, float]]:
    """Import georepair and load the scenario in fresh interpreters.

    Returns (wall, scaled) seconds per interpreter; the scaled time uses the
    host speed measured in the same interpreter just before and after.
    numpy, georepair's one dependency, is imported before the clock starts:
    its import time follows the host's file cache, not this program.
    """
    code = ("import sys, time\n"
            "import numpy\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "import hostspeed\n"
            "before = hostspeed.kernel_seconds(15)\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import georepair\n"
            f"georepair.scenarios.load({str(scenario_path)!r})\n"
            "wall = time.perf_counter() - t0\n"
            "after = hostspeed.kernel_seconds(15)\n"
            "print(wall, wall * hostspeed.REF_SECONDS * 2 / (before + after))\n")
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        wall, scaled = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(scaled)))
    return samples


def build_scenario(georepair, spec: tuple):
    if spec[0] == "case_study":
        return georepair.scenarios.case_study()
    _, m, n, days, seed = spec
    return georepair.scenarios.random_scenario(m, n, days, seed=seed)


class Runner:
    """Times solves of one workload and checks every result."""

    def __init__(self, georepair, checks, workload: Workload, scenario,
                 speedometer=None):
        self.solve_fn = getattr(georepair.search, workload.solver)
        self.checks = checks
        self.workload = workload
        self.scenario = scenario
        self.speedometer = speedometer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def solve(self, seed: int, span):
        """One solve; returns (result, wall seconds, scaled seconds).

        Without a speedometer (traced runs) the scaled time is the wall time.
        """
        if self.speedometer is None:
            t0 = time.perf_counter()
            with span:
                result = self.solve_fn(self.scenario, seed=seed)
            wall = time.perf_counter() - t0
            return result, wall, wall
        self.speedometer.start()
        try:
            result = self.solve_fn(self.scenario, seed=seed)
        finally:
            wall, scaled = self.speedometer.stop()
        return result, wall, scaled

    def batch(self, seeds, tracer=None):
        """Solve each seed once; return rows of
        (seed, wall seconds, scaled seconds, result or None)."""
        rows = []
        for i, seed in enumerate(seeds):
            gc.collect()
            self.attempted += 1
            span = (contextlib.nullcontext() if tracer is None
                    else tracer.root("solve", i))
            try:
                result, wall, scaled = self.solve(seed, span)
                problems = self.checks.check_solve(self.scenario, result,
                                                   self.workload.mixed)
            except Exception as exc:  # a raising solve counts as failed
                result, wall, scaled = None, float("nan"), float("nan")
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.extend(f"seed {seed}: {p}" for p in problems)
            rows.append((seed, wall, scaled, None if problems else result))
        return rows

    def fingerprint(self, rows) -> str | None:
        results = [r for *_, r in rows]
        if any(r is None for r in results):
            return None
        return self.checks.fingerprint(results)


def end_to_end(rows, setup) -> dict[str, float]:
    """End-to-end metrics over a run's solves, from their scaled times."""
    times = [s for _, _, s, r in rows if r is not None]
    # Quality is averaged over distinct seeds, so it repeats exactly however
    # many batches a run fits; every batch gives the same results.
    per_seed = {}
    for seed, _, _, result in rows:
        if result is not None:
            per_seed.setdefault(seed, result)
    results = list(per_seed.values())
    if not results:
        return {}
    evs = [r.best_evaluation for r in results]
    return {
        "solve_s_p50": statistics.median(times),
        "solves_per_s": len(times) / sum(times),
        "best_fitness_mean": statistics.fmean(e.fitness for e in evs),
        "total_dv_mps_mean": statistics.fmean(e.total_dv for e in evs),
        "generations_mean": statistics.fmean(r.generations_run
                                             for r in results),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def import_georepair():
    """georepair from this checkout's ``src``, or None with a message."""
    sys.path.insert(0, str(SRC))
    try:
        import georepair
    except ImportError as exc:
        print(f"perfbench: cannot import georepair from {SRC}: {exc}",
              file=sys.stderr)
        return None
    if Path(georepair.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: georepair imported from {georepair.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return None
    return georepair


def run_batches(runner, seeds, seconds: float, scenario_path: Path,
                setup: list):
    """Solve whole batches, which keep every seed equally represented,
    until ``seconds`` have passed.

    A set-up sample follows each batch, so that ``setup`` spans the run's
    drift in host speed as the solves do.
    """
    batches = []
    started = time.perf_counter()
    while not batches or time.perf_counter() - started < seconds:
        batches.append(runner.batch(seeds))
        setup.extend(measure_setup(scenario_path, 1))
    return batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    georepair = import_georepair()
    if georepair is None:
        return 2
    import checks
    import hostspeed
    import tracer as tracing

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    expected = {m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    with open(Path(__file__).parent / "baseline.json",
              encoding="utf-8") as fh:
        baseline = json.load(fh)[args.workload]["fingerprint"]
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scenario_path = OUT / f"{args.workload}.scenario.json"
    georepair.scenarios.save(build_scenario(georepair, workload.scenario),
                             scenario_path)
    setup = measure_setup(scenario_path, SETUP_FIRST)
    seeds = list(workload.seeds)
    random.Random(args.seed).shuffle(seeds)
    report = {"workload": args.workload, "seed": args.seed,
              "solver_seeds": seeds, "setup_s_samples": setup}

    if args.trace:
        tracer = tracing.Tracer()
        install_wrappers(tracer, georepair)
        with tracer.root("setup", -1):
            scenario = georepair.scenarios.load(scenario_path)
        runner = Runner(georepair, checks, workload, scenario)
        # Untraced batches on both sides of the traced one, so that a drift
        # in machine speed does not read as tracing overhead.
        batches = [runner.batch(seeds), runner.batch(seeds, tracer=tracer),
                   runner.batch(seeds)]
        tracer.uninstall()
        tracer.save(OUT / f"{args.workload}.spans.npz")
        report["spans"] = tracer.summary()
        metrics = layer_metrics(report["spans"], len(seeds))
        untraced = end_to_end(batches[0] + batches[2], setup)
        traced = end_to_end(batches[1], setup)
        if untraced and traced:
            metrics["trace.overhead_share"] = (
                traced["solve_s_p50"] / untraced["solve_s_p50"] - 1.0)
    else:
        scenario = georepair.scenarios.load(scenario_path)
        runner = Runner(georepair, checks, workload, scenario,
                        hostspeed.Speedometer())
        batches = run_batches(runner, seeds, args.seconds, scenario_path,
                              setup)
        metrics = end_to_end([row for b in batches for row in b], setup)

    prints = {runner.fingerprint(b) for b in batches}
    if len(prints) > 1:
        runner.problems.append(f"batches disagree: fingerprints {prints}")
    fingerprint = prints.pop() if len(prints) == 1 else None
    rows = [row for b in batches for row in b]
    ok = [r for *_, r in rows if r is not None]
    feasible = sum(r.best_evaluation.feasible for r in ok)
    print(f"workload {args.workload}: {len(rows)} solves in {len(batches)} "
          f"batches of seeds {seeds}, {runner.failed} failed")
    print(f"fingerprint {fingerprint} ("
          + ("matches baseline" if fingerprint == baseline else
             f"DIFFERS from baseline {baseline}: behaviour changed") + ")")
    wall = [w for _, w, _, r in rows if r is not None]
    print(f"unscaled wall time: solve p50 "
          f"{statistics.median(wall) if wall else float('nan'):.6g} s over "
          f"{len(wall)} solves, setup p50 "
          f"{statistics.median(w for w, _ in setup):.6g} s over "
          f"{len(setup)} interpreters")
    print(f"feasible_share = {feasible / max(len(ok), 1):.4f} "
          f"({feasible}/{len(ok)})")
    print(f"failed_share = {runner.failed / runner.attempted:.4f}")
    for name, totals in report.get("spans", {}).items():
        print(f"span {name} over {len(seeds)} traced solves: "
              + ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in totals.items()))
    for problem in runner.problems:
        print(f"FAILED CHECK {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    report.update(solves=[{"seed": s, "wall_s": w, "scaled_s": t}
                          for s, w, t, _ in rows],
                  metrics=metrics, fingerprint=fingerprint,
                  problems=runner.problems)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": not runner.problems and set(metrics) == expected,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
