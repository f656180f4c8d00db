"""Black-box CLI tests: exit codes, artifact shapes, determinism."""

import csv
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from georepair.cli import ALGORITHMS, SCHEDULE_COLUMNS, main
from georepair.scenarios import (
    case_study,
    random_scenario,
    save,
    scenario_spec,
    spec_to_dict,
)
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
    ])
    def test_bad_constants_exit_one(self, tmp_path, capsys, constants):
        scen_path = tmp_path / "scenario.json"
        write_small_scenario(scen_path)
        data = json.loads(scen_path.read_text())
        data["constants"] = constants
        scen_path.write_text(json.dumps(data))
        assert main(["solve", str(scen_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: constants: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("path,field", [
        pytest.param(("deadline_hours",), "deadline_hours", id="deadline"),
        pytest.param(("targets", 1, "repair_hours"), "repair_hours",
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
        assert err.startswith(f"error: {field}")
        assert len(err.strip().splitlines()) == 1

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
    data = spec_to_dict(scenario_spec(random_scenario(3, 1, 10.0, seed=1)))
    data["deadline_hours"] = 1e300
    return data


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
