"""Black-box CLI tests: exit codes, artifact shapes, determinism."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from georepair import cli, scenarios
from georepair.astro import GEO
from georepair.cli import ALGORITHMS, SCHEDULE_COLUMNS, _build_parser, main
from georepair.planning import CostModel, MissionPlan, Route, evaluate_plan
from georepair.scenarios import (
    case_study,
    load,
    random_scenario,
    save,
    scenario_record,
)
from georepair.search import GaParams, LnsParams, SolveResult, _LambertAdapter
from scenario_builders import make_scenario
from test_scenarios import _set, scenario_documents

HOUR = 3600.0
DAY = 86400.0

FAST = ["--pop-size", "20", "--min-iters", "10", "--stall-iters", "5"]


def write_small_scenario(path, budgets=2000.0, deadline_days=20.0):
    scenario = make_scenario(
        [(0.0, 0.0, 0.0, budgets), (5.0, 10.0, 160.0, budgets)],
        [(1.5, 60.0, 270.0, 20 * HOUR), (0.3, 320.0, 150.0, 20 * HOUR),
         (2.0, 45.0, 250.0, 20 * HOUR)],
        deadline_s=deadline_days * DAY)
    save(scenario, path)
    return scenario


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSolve:
    def test_feasible_solve_artifacts_and_exit_code(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        out = tmp_path / "out"
        code = main(["solve", str(scen_path), "--seed", "3", "--out",
                     str(out)] + FAST)
        assert code == 0

        rows = read_csv(out / "schedule.csv")
        assert rows[0] == SCHEDULE_COLUMNS
        assert len(rows) == 1 + 3  # header + one row per repaired target

        conv = read_csv(out / "convergence.csv")
        assert conv[0] == ["generation", "best_fitness", "avg_fitness"]
        best = [float(r[1]) for r in conv[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(best, best[1:]))

        summary = json.loads((out / "summary.json").read_text())
        assert summary["feasible"] is True
        assert summary["algorithm"] == "lns-aga"
        assert summary["seed"] == 3
        for name, dv in summary["per_servicer_dv_mps"].items():
            assert dv <= 2000.0

    def test_infeasible_best_exits_two(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path, budgets=1.0)
        out = tmp_path / "out"
        code = main(["solve", str(scen_path), "--out", str(out)] + FAST)
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["feasible"] is False
        assert summary["budget_penalty_mps"] > 0.0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"epoch": "2021-03-12T04:00:00Z"}')
        code = main(["solve", str(bad)])
        assert code == 1
        assert "deadline_hours" in capsys.readouterr().err

    def test_infinite_deadline_exits_one(self, tmp_path, capsys):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        data = json.loads(scen_path.read_text())
        data["deadline_hours"] = float("inf")
        scen_path.write_text(json.dumps(data))
        assert main(["solve", str(scen_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "deadline_hours" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("constants", [
        pytest.param({"mu_km3s2": 398600, "t_geo_s": 1e300}, id="overflow"),
        pytest.param({"mu_km3s2": -1.0, "t_geo_s": 86164.0},
                     id="negative-mu"),
        pytest.param({"mu_km3s2": GEO.mu, "t_geo_s": GEO.t_geo},
                     id="geo-values"),
    ])
    def test_bad_constants_exit_one(self, tmp_path, capsys, constants):
        # GEO's constants are fixed; a file cannot override them, not even
        # with GEO's own values.
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        data = json.loads(scen_path.read_text())
        data["constants"] = constants
        scen_path.write_text(json.dumps(data))
        assert main(["solve", str(scen_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: scenario: unknown field 'constants'\n"

    @pytest.mark.parametrize("key, first, second", [
        ("servicers", 0, 1), ("targets", 0, 2)])
    def test_repeated_name_exits_one(self, tmp_path, capsys, key, first,
                                     second):
        # summary.json keys per_servicer_dv_mps by servicer name and lists
        # routes by names, so a repeated name would lose a body's numbers.
        # bench reads the scenario through the same gate.
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        data = json.loads(scen_path.read_text())
        name = data[key][first]["name"]
        data[key][second]["name"] = name
        scen_path.write_text(json.dumps(data))
        for command in ("solve", "bench"):
            out = tmp_path / command
            assert main([command, str(scen_path), "--out", str(out)]
                        + FAST) == 1
            assert capsys.readouterr().err == (
                f"error: {key}[{second}]: name {name!r} repeats "
                f"{key}[{first}]\n")
            assert not out.exists()

    @pytest.mark.parametrize("path,field", [
        pytest.param(("deadline_hours",), "deadline", id="deadline"),
        pytest.param(("targets", 1, "repair_hours"), "repair_duration",
                     id="repair"),
    ])
    def test_schedule_past_the_last_datetime_exits_one(self, tmp_path,
                                                       capsys, path, field):
        scen_path = tmp_path / "scenario.json"
        save(random_scenario(3, 1, 10.0, seed=1), scen_path)
        data = json.loads(scen_path.read_text())
        _set(path, 1e300)(data)
        scen_path.write_text(json.dumps(data))
        assert main(["solve", str(scen_path), "--out",
                     str(tmp_path / "out")] + FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario: {field} too large")
        assert len(err.strip().splitlines()) == 1

    def test_epoch_out_of_range_in_utc_exits_one(self, tmp_path, capsys):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        data = json.loads(scen_path.read_text())
        data["epoch"] = "0001-01-01T00:00:00+01:00"
        scen_path.write_text(json.dumps(data))
        assert main(["solve", str(scen_path), "--out",
                     str(tmp_path / "out")] + FAST) == 1
        assert capsys.readouterr().err == (
            "error: scenario: epoch is out of range in UTC\n")

    def test_case_study_emits_one_row_per_target(self, tmp_path):
        scen_path = tmp_path / "case.json"
        save(case_study(), scen_path)
        out = tmp_path / "out"
        code = main(["solve", str(scen_path), "--out", str(out),
                     "--pop-size", "16", "--min-iters", "4",
                     "--stall-iters", "2"])
        assert code in (0, 2)
        assert len(read_csv(out / "schedule.csv")) == 1 + 14

    def test_ga_and_lambert_algorithms_run(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        for algo in ("ga", "lambert-ga"):
            out = tmp_path / algo
            code = main(["solve", str(scen_path), "--algo", algo, "--out",
                         str(out)] + FAST)
            assert code in (0, 2)
            assert (out / "schedule.csv").exists()

    def test_lambert_routes_report_flight_times(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        routes = {}
        for algo in ("lns-aga", "lambert-ga"):
            out = tmp_path / algo
            main(["solve", str(scen_path), "--algo", algo, "--out",
                  str(out)] + FAST)
            routes[algo] = json.loads(
                (out / "summary.json").read_text())["routes"]
        for route in routes["lns-aga"]:
            assert len(route["revolutions"]) == len(route["targets"])
            assert "flight_times_s" not in route
        # Each leg's flight time is the maneuver time of its schedule row,
        # in route order.
        schedule = read_csv(tmp_path / "lambert-ga" / "schedule.csv")[1:]
        maneuver = SCHEDULE_COLUMNS.index("maneuver_time_s")
        flown = []
        for route in routes["lambert-ga"]:
            assert "revolutions" not in route
            assert len(route["flight_times_s"]) == len(route["targets"])
            flown += route["flight_times_s"]
        assert [f"{t:.3f}" for t in flown] == [r[maneuver] for r in schedule]


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJson:
    """A failed Lambert leg prices at infinity; the JSON files say null."""

    @staticmethod
    def _unflyable(path):
        # A 4 h deadline leaves one candidate flight time, on which the
        # 135 degree transfer fails.
        save(make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                           [(0.0, 0.0, 135.0, 0.5 * HOUR)],
                           deadline_s=4 * HOUR), path)

    def test_solve_summary(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        self._unflyable(scen_path)
        out = tmp_path / "out"
        assert main(["solve", str(scen_path), "--algo", "lambert-ga",
                     "--pop-size", "4", "--min-iters", "1",
                     "--stall-iters", "1", "--out", str(out)]) == 2
        summary = _strict_json(out / "summary.json")
        assert summary["fitness"] is None
        assert summary["total_dv_mps"] is None
        assert summary["feasible"] is False

    def test_bench_summary(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        self._unflyable(scen_path)
        out = tmp_path / "bench"
        assert main(["bench", str(scen_path), "--algo", "lambert-ga",
                     "--runs", "2", "--pop-size", "4", "--min-iters", "1",
                     "--stall-iters", "1", "--out", str(out)]) == 0
        [row] = _strict_json(out / "summary.json")["algorithms"]
        assert row["avg_dv_mps"] is None and row["std_dv_mps"] is None


def _orbit_records(extra: str, low: float, high: float):
    return st.lists(st.fixed_dictionaries(
        {"name": st.text(max_size=4),
         "inclination_deg": st.floats(0.0, 10.0),
         "raan_deg": st.floats(0.0, 360.0),
         "true_anomaly_deg": st.floats(0.0, 360.0),
         extra: st.floats(low, high)}), min_size=1, max_size=3)


# Small scenarios that load, so that most mutated files reach the solver.
_SOLVABLE_DOCUMENTS = st.fixed_dictionaries(
    {"epoch": st.just("2021-03-12T04:00:00Z"),
     "deadline_hours": st.floats(24.0, 2000.0),
     "servicers": _orbit_records("dv_budget_mps", 1.0, 3000.0),
     "targets": _orbit_records("repair_hours", 0.0, 48.0)})


def _huge_deadline_document():
    data = scenario_record(random_scenario(3, 1, 10.0, seed=1))
    data["deadline_hours"] = 1e300
    return data


def _hex(value):
    """A number of ``summary.json`` or of a report as ``float.hex``; None
    for a JSON null or a non-finite float, which the writer saves as null."""
    if value is None or not math.isfinite(value):
        return None
    return float(value).hex()


class TestReplay:
    """A solve's files are enough to check it again: the plan rebuilt from
    ``summary.json`` and the scenario file alone, evaluated again with the
    saved penalty weights on the algorithm's leg model, gives the saved
    totals by ``float.hex`` and the saved schedule rows."""

    SCENARIOS = {
        "roomy": write_small_scenario,
        "tight": lambda path: write_small_scenario(path, 300.0, 3.0),
        "unflyable": TestStrictJson._unflyable,
    }

    @staticmethod
    def _plan(scenario, summary) -> MissionPlan:
        """The saved plan: names map to ids, and a route without saved
        revolutions is a Lambert route, one revolution per leg, whose
        flight times its model works out from the sequence."""
        servicer = {s.name: s.id for s in scenario.servicers}
        target = {t.name: t.id for t in scenario.targets}
        routes = []
        for record in summary["routes"]:
            seq = [target[name] for name in record["targets"]]
            routes.append(Route(servicer[record["servicer"]], seq,
                                record.get("revolutions", [1] * len(seq))))
        return MissionPlan(routes)

    @staticmethod
    def _row(scenario, leg) -> list[str]:
        """The ``schedule.csv`` row of a leg, at the precision of each
        column of ``SCHEDULE_COLUMNS``."""
        def at(seconds, fmt):
            return (scenario.epoch + timedelta(seconds=seconds)).strftime(fmt)

        clock, iso = "%m/%d %H:%M:%S", "%Y-%m-%dT%H:%M:%SZ"
        return [scenario.servicer(leg.servicer_id).name,
                scenario.target(leg.target_id).name,
                *(f"{x:.6f}" for x in leg.impulse1 + leg.impulse2),
                at(leg.impulse1_time, clock), at(leg.impulse1_time, iso),
                at(leg.arrival_time, clock), at(leg.arrival_time, iso),
                f"{leg.coast_time:.3f}", f"{leg.phase_time:.3f}",
                f"{leg.total_dv:.6f}"]

    @classmethod
    def _replayed(cls, scen_path, summary, algo):
        """The scenario file and the saved plan evaluated again with the
        saved penalty weights on the algorithm's leg model."""
        scenario = load(scen_path)
        phi, gamma = summary["params"]["phi"], summary["params"]["gamma"]
        model = (_LambertAdapter(scenario, phi, gamma)
                 if algo == "lambert-ga"
                 else CostModel(scenario, phi=phi, gamma=gamma))
        return scenario, evaluate_plan(scenario, cls._plan(scenario, summary),
                                       model)

    @pytest.mark.parametrize("case", sorted(SCENARIOS))
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_files_replay_the_solve(self, tmp_path, algo, case):
        scen_path = tmp_path / "scenario.json"
        self.SCENARIOS[case](scen_path)
        out = tmp_path / "out"
        assert main(["solve", str(scen_path), "--algo", algo, "--phi", "2.5",
                     "--gamma", "0.5", "--max-rev", "3", "--out", str(out)]
                    + FAST) in (0, 2)
        summary = _strict_json(out / "summary.json")
        assert (summary["params"]["phi"], summary["params"]["gamma"]) == (
            2.5, 0.5)
        scenario, ev = self._replayed(scen_path, summary, algo)

        for key, value in (("fitness", ev.fitness),
                           ("total_dv_mps", ev.total_dv),
                           ("deadline_penalty_s", ev.deadline_penalty),
                           ("budget_penalty_mps", ev.budget_penalty)):
            assert _hex(summary[key]) == _hex(value), key
        assert summary["feasible"] is ev.feasible
        assert {name: _hex(dv) for name, dv
                in summary["per_servicer_dv_mps"].items()} == {
            s.name: _hex(dv)
            for s, dv in zip(scenario.servicers, ev.per_servicer_dv)}
        if algo == "lambert-ga":
            assert [_hex(t) for r in summary["routes"]
                    for t in r["flight_times_s"]] == [
                _hex(leg.phase_time) for leg in ev.leg_details]
        assert read_csv(out / "schedule.csv") == [SCHEDULE_COLUMNS] + [
            self._row(scenario, leg) for leg in ev.leg_details]

    @pytest.mark.parametrize("algo", ["lns-aga", "lambert-ga"])
    def test_schedule_is_what_a_plain_csv_writer_writes(self, tmp_path,
                                                        algo):
        # The reference writer: the header row, then one row of formatted
        # fields per reported leg, through csv.writer's defaults.
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        out = tmp_path / "out"
        assert main(["solve", str(scen_path), "--algo", algo, "--out",
                     str(out)] + FAST) in (0, 2)
        scenario, ev = self._replayed(
            scen_path, _strict_json(out / "summary.json"), algo)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SCHEDULE_COLUMNS)
            writer.writerows(self._row(scenario, leg)
                             for leg in ev.leg_details)
        assert (out / "schedule.csv").read_bytes() == reference.read_bytes()


class TestFuzzSolve:
    """``georepair solve`` on nearly valid scenario files exits 0, 1 or 2
    and lets no exception escape."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario_documents(_SOLVABLE_DOCUMENTS),
           st.sampled_from(ALGORITHMS))
    @example(_huge_deadline_document(), "lns-aga")
    def test_exit_code_contract(self, tmp_path, capsys, doc, algo):
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(doc))
        code = main(["solve", str(scen_path), "--algo", algo, "--out",
                     str(tmp_path / "out"), "--pop-size", "4",
                     "--min-iters", "2", "--stall-iters", "1"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error:")
            assert len(err.strip().splitlines()) == 1


class TestBench:
    def test_runs_rows_and_summary_shape(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        out = tmp_path / "bench"
        code = main(["bench", str(scen_path), "--algo", "lns-aga,ga",
                     "--runs", "3", "--seed", "5", "--out", str(out)] + FAST)
        assert code == 0
        runs = read_csv(out / "runs.csv")
        assert len(runs) == 1 + 6  # header + 2 algorithms x 3 runs
        seeds = sorted(int(r[1]) for r in runs[1:] if r[0] == "lns-aga")
        assert seeds == [5, 6, 7]

        summary = json.loads((out / "summary.json").read_text())
        assert [s["algorithm"] for s in summary["algorithms"]] == \
            ["lns-aga", "ga"]
        for s in summary["algorithms"]:
            assert s["runs"] == 3
            assert s["min_dv_mps"] <= s["avg_dv_mps"] + 1e-9
            assert 0.0 <= s["feasible_proportion"] <= 1.0

        table = read_csv(out / "summary.csv")
        assert len(table) == 3 and len(table[0]) == 9

    def test_bench_is_deterministic_modulo_walltime(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["bench", str(scen_path), "--algo", "lns-aga",
                         "--runs", "2", "--seed", "9", "--out",
                         str(out)] + FAST) == 0
            data = json.loads((out / "summary.json").read_text())
            for s in data["algorithms"]:
                for k in ("min_wall_s", "avg_wall_s", "max_wall_s"):
                    s.pop(k)
            data.pop("scenario")
            payloads.append(data)
        assert payloads[0] == payloads[1]

    def test_parallel_jobs_match_serial(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        results = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            assert main(["bench", str(scen_path), "--algo", "lns-aga",
                         "--runs", "2", "--seed", "3", "--jobs", jobs,
                         "--out", str(out)] + FAST) == 0
            data = json.loads((out / "summary.json").read_text())
            results.append([(s["algorithm"], s["min_dv_mps"], s["avg_dv_mps"])
                            for s in data["algorithms"]])
        assert results[0] == results[1]

    def test_unknown_algorithm_exits_one(self, tmp_path, capsys):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        assert main(["bench", str(scen_path), "--algo", "tabu"]) == 1
        assert "tabu" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs,runs,cpus,expected", [
        pytest.param(5000, 3, 64, [3], id="capped-by-tasks"),
        pytest.param(5000, 3, 2, [2], id="capped-by-cores"),
        pytest.param(2, 3, 64, [2], id="as-asked"),
        pytest.param(5000, 1, 64, [], id="one-task-runs-in-process"),
    ])
    def test_worker_count_is_bounded(self, tmp_path, monkeypatch, jobs, runs,
                                     cpus, expected):
        started = []

        class InProcessExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        out = tmp_path / "bench"
        assert main(["bench", str(scen_path), "--algo", "ga", "--runs",
                     str(runs), "--jobs", str(jobs), "--out", str(out)]
                    + FAST) == 0
        assert started == expected
        assert len(read_csv(out / "runs.csv")) == 1 + runs

    def test_the_oracle_runs_once(self, tmp_path, capsys):
        # The exhaustive search draws no random numbers: one row, under the
        # seed 0 that the oracle subcommand reports, next to one row per
        # seed of a seeded algorithm.
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        out = tmp_path / "bench"
        assert main(["bench", str(scen_path), "--algo", "oracle,ga",
                     "--runs", "2", "--max-rev", "3", "--out", str(out)]
                    + FAST) == 0
        rows = read_csv(out / "runs.csv")
        assert [row[:2] for row in rows[1:]] == [
            ["oracle", "0"], ["ga", "1"], ["ga", "2"]]
        assert main(["oracle", str(scen_path), "--max-rev", "3", "--out",
                     str(tmp_path / "oracle")]) == 0
        summary = json.loads((tmp_path / "oracle" / "summary.json")
                             .read_text())
        assert summary["seed"] == 0
        assert float(rows[1][2]) == summary["fitness"]
        runs = json.loads((out / "summary.json").read_text())["algorithms"]
        assert [s["runs"] for s in runs] == [1, 2]


class TestOracle:
    def test_small_instance_completes(self, tmp_path):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        out = tmp_path / "oracle"
        code = main(["oracle", str(scen_path), "--max-rev", "3", "--out",
                     str(out)])
        assert code in (0, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "oracle"

    def test_matches_solve_with_the_oracle_algorithm(self, tmp_path,
                                                     capsys):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        outs = {}
        for name, argv in (("oracle", ["oracle"]),
                           ("solve", ["solve", "--algo", "oracle"])):
            outs[name] = tmp_path / name
            assert main(argv + [str(scen_path), "--max-rev", "2", "--out",
                                str(outs[name])]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == printed[1] and "total dv" in printed[0]
        for artifact in ("schedule.csv", "convergence.csv"):
            assert ((outs["oracle"] / artifact).read_bytes()
                    == (outs["solve"] / artifact).read_bytes())
        assert len(read_csv(outs["oracle"] / "convergence.csv")) == 1 + 1
        oracle, solve = (json.loads((outs[n] / "summary.json").read_text())
                         for n in ("oracle", "solve"))
        assert oracle["runtime_s"] > 0.0
        assert (oracle.pop("seed"), solve.pop("seed")) == (0, 1)
        oracle.pop("runtime_s"), solve.pop("runtime_s")
        assert oracle == solve

    def test_oracle_dominates_solver(self, tmp_path):
        # Deadline tight enough that every useful revolution count lies
        # within the oracle's enumeration cap.
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path, deadline_days=3.9)
        oracle_out = tmp_path / "oracle"
        solve_out = tmp_path / "solve"
        main(["oracle", str(scen_path), "--max-rev", "4", "--out",
              str(oracle_out)])
        main(["solve", str(scen_path), "--algo", "oracle", "--max-rev", "4",
              "--out", str(solve_out)] + FAST)
        main(["solve", str(scen_path), "--out", str(tmp_path / "lns")] + FAST)
        oracle_fit = json.loads(
            (oracle_out / "summary.json").read_text())["fitness"]
        solver_fit = json.loads(
            (tmp_path / "lns" / "summary.json").read_text())["fitness"]
        assert oracle_fit <= solver_fit + 1e-9

    def test_oversized_instance_refused(self, tmp_path, capsys):
        scen_path = tmp_path / "big.json"
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0)],
            [(float(i), 10.0 * i, 30.0 * i, HOUR) for i in range(6)],
            deadline_s=30 * DAY)
        save(scenario, scen_path)
        assert main(["oracle", str(scen_path)]) == 1
        assert "6 targets" in capsys.readouterr().err

    def test_too_many_servicers_refused(self, tmp_path, capsys):
        scen_path = tmp_path / "wide.json"
        save(make_scenario(
            [(float(i), 10.0 * i, 0.0, 2000.0) for i in range(6)],
            [(0.0, 0.0, 90.0, HOUR), (1.0, 20.0, 180.0, HOUR)],
            deadline_s=30 * DAY), scen_path)
        assert main(["oracle", str(scen_path)]) == 1
        err = _one_line_error(capsys)
        assert "6 servicers" in err and "5 servicers" in err


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    return err


class TestUsageErrors:
    """Every malformed command line exits 1 with one ``error:`` line."""

    @pytest.mark.parametrize("argv,needle", [
        pytest.param(["solve", "S", "--pop-size", "abc"], "--pop-size",
                     id="solve-pop-size-not-int"),
        pytest.param(["bench", "S", "--algo", ","], "algorithm",
                     id="bench-empty-algorithm-list"),
        pytest.param(["bench", "S", "--algo", "oracle, ga,oracle"],
                     "'oracle' listed more than once",
                     id="bench-repeated-algorithm"),
        pytest.param(["solve", "S", "--runs", "2"], "--runs",
                     id="solve-runs"),
        pytest.param(["solve", "S", "--jobs", "2"], "--jobs",
                     id="solve-jobs"),
        pytest.param(["bench", "S", "--jobs", "0"], "jobs",
                     id="bench-jobs-zero"),
        pytest.param(["solve", "S", "--phi", "nan"], "phi",
                     id="solve-phi-nan"),
        pytest.param(["oracle", "S", "--gamma", "-1"], "gamma",
                     id="oracle-gamma-negative"),
        pytest.param(["solve"], "scenario", id="solve-no-scenario"),
        pytest.param([], "command", id="no-command"),
    ])
    def test_exits_one_with_one_line(self, tmp_path, monkeypatch, capsys,
                                     argv, needle):
        monkeypatch.chdir(tmp_path)
        write_small_scenario(tmp_path / "S")
        assert main(argv) == 1
        assert needle in _one_line_error(capsys)
        assert os.listdir(tmp_path) == ["S"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--pop-size" in capsys.readouterr().out


class TestCountBounds:
    """Counts beyond the caps are refused before any solve starts."""

    @pytest.mark.parametrize("argv,field", [
        pytest.param(["solve", "S", "--pop-size", "1000000000"],
                     "population_size", id="population"),
        pytest.param(["solve", "S", "--min-iters", "1000000000"],
                     "min_iterations", id="min-iterations"),
        pytest.param(["bench", "S", "--stall-iters", "1000000000"],
                     "stall_iterations", id="stall-iterations"),
        pytest.param(["bench", "S", "--runs", "1000000000"], "runs",
                     id="runs"),
        pytest.param(["solve", "S", "--lns-iters", "1000000000"],
                     "lns_iterations", id="lns-iterations"),
        pytest.param(["solve", "BIG", "--algo", "ga"], "targets",
                     id="scenario-targets"),
        pytest.param(["gen", "OUT", "--targets", "1000000000",
                      "--servicers", "1", "--days", "10"], "targets",
                     id="gen-targets"),
        pytest.param(["gen", "OUT", "--targets", "1", "--servicers",
                      "1000000000", "--days", "10"], "servicers",
                     id="gen-servicers"),
    ])
    def test_exits_one_naming_the_field(self, tmp_path, capsys, argv,
                                        field):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        big = scenario_record(case_study())
        big["targets"] = big["targets"][:1] * 1001
        (tmp_path / "big.json").write_text(json.dumps(big))
        paths = {"S": scen_path, "BIG": tmp_path / "big.json",
                 "OUT": tmp_path / "gen.json"}
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == 1
        assert field in _one_line_error(capsys)
        assert not (tmp_path / "gen.json").exists()

    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    def test_scenario_file_beyond_the_size_cap(self, tmp_path, capsys,
                                               monkeypatch, command):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES",
                            scen_path.stat().st_size - 1)
        out = tmp_path / "out"
        assert main([command, str(scen_path), "--out", str(out)]) == 1
        assert "exceeds the cap" in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        pytest.param(b"[" * 200_000, id="deep"),
        pytest.param(b"\xff{}", id="undecodable"),
    ])
    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    def test_unreadable_scenario_file_names_its_path(self, tmp_path, capsys,
                                                     command, content):
        scen_path = tmp_path / "scenario.json"
        scen_path.write_bytes(content)
        out = tmp_path / "out"
        assert main([command, str(scen_path), "--out", str(out)]) == 1
        assert _one_line_error(capsys).startswith(f"error: {scen_path}: ")
        assert not out.exists()


def _subcommand_parsers():
    action = next(a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagTable:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_each_param_field_has_one_flag_with_the_class_default(
            self, command):
        parser = _subcommand_parsers()[command]
        for cls in (GaParams, LnsParams):
            for f in fields(cls):
                flags = [opt for a in parser._actions if a.dest == f.name
                         for opt in a.option_strings]
                assert len(flags) == 1, (f.name, flags)
                assert parser.get_default(f.name) == f.default

    def test_oracle_weights_default_to_the_class(self):
        parser = _subcommand_parsers()["oracle"]
        for name in ("phi", "gamma"):
            assert parser.get_default(name) == getattr(GaParams(), name)

    @pytest.mark.parametrize("command,count", [
        ("solve", 19), ("bench", 21), ("oracle", 4), ("gen", 4),
    ])
    def test_flag_counts(self, command, count):
        parser = _subcommand_parsers()[command]
        flags = [a for a in parser._actions
                 if a.option_strings and a.dest != "help"]
        assert len(flags) == count


class TestSolverTable:
    def test_algo_choices_are_the_table_keys(self):
        algo = next(a for a in _subcommand_parsers()["solve"]._actions
                    if a.dest == "algorithm")
        assert tuple(algo.choices) == ALGORITHMS == tuple(cli.SOLVERS)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_each_entry_reports_its_seed_and_history_best(self, algo):
        config = cli.RunConfig(algo, 7, GaParams(
            population_size=20, min_iterations=10, stall_iterations=5),
            max_revolutions=2)
        result = cli.SOLVERS[algo](random_scenario(3, 2, 10.0, seed=5),
                                   config)
        assert isinstance(result, SolveResult)
        assert result.seed == config.seed
        assert result.best_evaluation.fitness.hex() == min(
            best for best, _ in result.history).hex()


class TestEntryPoint:
    """``python -m georepair`` as a separate process."""

    # ``python -m georepair`` with every import of numpy failing.
    NO_NUMPY = ("import runpy, sys\n"
                "sys.modules['numpy'] = None\n"
                "try:\n"
                "    import numpy\n"
                "except ImportError:\n"
                "    pass\n"
                "else:\n"
                "    sys.exit('numpy is not blocked')\n"
                "runpy.run_module('georepair', run_name='__main__',"
                " alter_sys=True)\n")

    def _run(self, *argv, block_numpy=False):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        entry = ["-c", self.NO_NUMPY] if block_numpy else ["-m", "georepair"]
        return subprocess.run([sys.executable, *entry, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_solves_without_numpy(self, tmp_path):
        # numpy is a test-only dependency: both leg models fly and report
        # every leg on plain floats.
        scen_path = tmp_path / "case.json"
        save(case_study(), scen_path)
        for algo, code in (("lns-aga", 0), ("lambert-ga", 2)):
            out = tmp_path / algo
            proc = self._run("solve", str(scen_path), "--algo", algo,
                             "--pop-size", "16", "--min-iters", "4",
                             "--stall-iters", "2", "--out", str(out),
                             block_numpy=True)
            assert proc.returncode == code, proc.stderr
            header, *rows = read_csv(out / "schedule.csv")
            assert len(rows) == 14
            impulses = [float(row[i]) for row in rows
                        for i, col in enumerate(header)
                        if col.startswith("impulse") and col.endswith("_mps")]
            assert len(impulses) == 14 * 6
            assert all(math.isfinite(x) for x in impulses)

    def test_usage_error_exits_one_with_one_line(self, tmp_path):
        proc = self._run("solve", str(tmp_path / "s.json"), "--pop-size",
                         "abc")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_gen_exits_zero(self, tmp_path):
        out = tmp_path / "gen.json"
        proc = self._run("gen", str(out), "--targets", "3", "--servicers",
                         "1", "--days", "5")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(out.read_text())["targets"]) == 3


class TestGen:
    def test_generates_requested_shape(self, tmp_path):
        out = tmp_path / "random.json"
        assert main(["gen", str(out), "--targets", "10", "--servicers", "2",
                     "--days", "15", "--seed", "7"]) == 0
        data = json.loads(out.read_text())
        assert len(data["targets"]) == 10
        assert len(data["servicers"]) == 2
        assert data["deadline_hours"] == 15 * 24.0

    def test_large_scale_shape(self, tmp_path):
        out = tmp_path / "big.json"
        assert main(["gen", str(out), "--targets", "30", "--servicers", "5",
                     "--days", "15", "--seed", "1"]) == 0
        data = json.loads(out.read_text())
        assert len(data["targets"]) == 30 and len(data["servicers"]) == 5

    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["gen", str(path), "--targets", "6", "--servicers",
                         "2", "--days", "12", "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("days", ["nan", "inf", "-inf"])
    def test_non_finite_days_must_be_finite(self, tmp_path, capsys, days):
        out = tmp_path / "gen.json"
        assert main(["gen", str(out), "--targets", "3", "--servicers", "1",
                     f"--days={days}"]) == 1
        assert ("scenario: field 'deadline_hours' must be finite"
                in _one_line_error(capsys))
        assert not out.exists()
