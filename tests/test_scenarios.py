"""Scenario construction, generation and file round-trip tests."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from georepair import scenarios
from georepair.astro import GEO
from georepair.planning import Scenario
from georepair.scenarios import (
    CASE_STUDY_TARGETS,
    MAX_SCENARIO_BYTES,
    MAX_SERVICERS,
    MAX_TARGETS,
    ParseError,
    ValidationError,
    case_study,
    load,
    random_scenario,
    save,
    spec_from_dict,
    spec_to_dict,
    scenario_spec,
)

GOLDEN = Path(__file__).parent / "data" / "case_study_golden.json"


class TestCaseStudy:
    def setup_method(self):
        self.scenario = case_study()

    def test_counts_and_mission_parameters(self):
        assert len(self.scenario.targets) == 14
        assert len(self.scenario.servicers) == 2
        assert self.scenario.deadline == 30 * 86400.0
        assert self.scenario.epoch.isoformat() == "2021-03-12T04:00:00+00:00"
        for s in self.scenario.servicers:
            assert s.dv_budget == 1000.0
        for t in self.scenario.targets:
            assert t.repair_duration == 20 * 3600.0

    def test_known_rows(self):
        g2 = next(t for t in self.scenario.targets if t.name == "Beidou_G2")
        assert math.degrees(g2.orbit.inclination) == pytest.approx(7.77)
        assert math.degrees(g2.orbit.raan) == pytest.approx(52.634)
        assert math.degrees(g2.orbit.arg_lat0) == pytest.approx(328.007)
        ssc1 = self.scenario.servicers[0]
        assert ssc1.name == "SSc1"
        assert (ssc1.orbit.inclination, ssc1.orbit.raan,
                ssc1.orbit.arg_lat0) == (0.0, 0.0, 0.0)

    def test_matches_golden_table(self):
        golden = json.loads(GOLDEN.read_text())
        spec = scenario_spec(self.scenario)
        assert spec.epoch == golden["epoch"]
        assert spec.deadline_hours == golden["deadline_hours"]
        assert len(spec.servicers) == len(golden["servicers"])
        for rec, row in zip(spec.servicers, golden["servicers"]):
            assert [rec.name, rec.inclination_deg, rec.raan_deg,
                    rec.true_anomaly_deg] == row
            assert rec.dv_budget_mps == golden["dv_budget_mps"]
        for rec, row in zip(spec.targets, golden["targets"]):
            assert [rec.name, rec.inclination_deg, rec.raan_deg,
                    rec.true_anomaly_deg] == row
            assert rec.repair_hours == golden["repair_hours"]


class TestRandomScenario:
    def test_shapes_and_mission_parameters(self):
        sc = random_scenario(10, 2, 15.0, seed=3)
        assert len(sc.targets) == 10 and len(sc.servicers) == 2
        assert sc.deadline == 15 * 86400.0
        assert all(s.dv_budget == 2000.0 for s in sc.servicers)
        assert all(t.repair_duration == 86400.0 for t in sc.targets)

    def test_angle_ranges(self):
        for seed in range(20):
            sc = random_scenario(8, 2, 15.0, seed=seed)
            for orb in ([s.orbit for s in sc.servicers]
                        + [t.orbit for t in sc.targets]):
                assert 0.0 <= orb.inclination <= math.radians(10.0)
                assert 0.0 <= orb.raan < 2 * math.pi
                assert 0.0 <= orb.arg_lat0 < 2 * math.pi

    def test_determinism(self):
        assert random_scenario(6, 2, 10.0, 42) == random_scenario(6, 2, 10.0, 42)
        assert random_scenario(6, 2, 10.0, 42) != random_scenario(6, 2, 10.0, 43)

    def test_inclination_is_uniform(self):
        # Kolmogorov-Smirnov at the 1% level over 10^4 draws.
        incs = []
        seed = 0
        while len(incs) < 10_000:
            sc = random_scenario(50, 1, 15.0, seed=seed)
            incs.extend(math.degrees(t.orbit.inclination) for t in sc.targets)
            seed += 1
        result = stats.kstest(incs[:10_000], stats.uniform(0, 10).cdf)
        assert result.pvalue > 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_scenario(0, 1, 10.0, 0)

    @pytest.mark.parametrize("n_targets,n_servicers,field", [
        pytest.param(10 ** 9, 1, "targets", id="targets"),
        pytest.param(1, 10 ** 9, "servicers", id="servicers"),
    ])
    def test_rejects_counts_beyond_the_caps_before_drawing(
            self, n_targets, n_servicers, field):
        with pytest.raises(ValidationError) as exc:
            random_scenario(n_targets, n_servicers, 10.0, 0)
        assert str(exc.value).startswith(f"{field}: ")


class TestSaveLoad:
    def test_case_study_round_trip(self, tmp_path):
        path = tmp_path / "case.json"
        original = case_study()
        save(original, path)
        assert load(path) == original

    def test_random_round_trip_identity(self, tmp_path):
        sc = random_scenario(5, 2, 12.0, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(sc, p1)
        save(load(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_custom_constants_round_trip(self, tmp_path):
        data = spec_to_dict(scenario_spec(case_study()))
        data["constants"] = {"mu_km3s2": GEO.mu, "t_geo_s": GEO.t_geo}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        sc = load(path)
        assert sc.constants.mu == GEO.mu
        out = tmp_path / "d.json"
        save(sc, out)
        assert json.loads(out.read_text())["constants"]["t_geo_s"] == GEO.t_geo

    def test_missing_field_names_it(self, tmp_path):
        data = spec_to_dict(scenario_spec(case_study()))
        del data["deadline_hours"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="deadline_hours"):
            load(path)

    def test_unknown_field_rejected(self, tmp_path):
        data = spec_to_dict(scenario_spec(case_study()))
        data["thrust_n"] = 5.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="thrust_n"):
            load(path)
        data2 = spec_to_dict(scenario_spec(case_study()))
        data2["servicers"][0]["mass_kg"] = 100.0
        path.write_text(json.dumps(data2))
        with pytest.raises(ParseError, match="mass_kg"):
            load(path)

    def test_negative_budget_is_validation_error(self, tmp_path):
        data = spec_to_dict(scenario_spec(case_study()))
        data["servicers"][0]["dv_budget_mps"] = -10.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="dv_budget"):
            load(path)

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(ParseError, match="line"):
            load(path)


def _case_study_dict():
    return spec_to_dict(scenario_spec(case_study()))


def _set(path, value):
    """Edit of a case-study record: ``path`` is a tuple of keys and indices
    ending at the field that gets ``value``."""
    def edit(data):
        rec = data
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    return edit


class TestMalformedValues:
    @pytest.mark.parametrize("path,value,field", [
        pytest.param(("servicers",), 5, "servicers", id="servicers-number"),
        pytest.param(("servicers",), {"name": "SSc1"}, "servicers",
                     id="servicers-object"),
        pytest.param(("targets",), "Beidou", "targets", id="targets-string"),
        pytest.param(("targets",), None, "targets", id="targets-null"),
        pytest.param(("deadline_hours",), math.inf, "deadline_hours",
                     id="deadline-inf"),
        pytest.param(("deadline_hours",), math.nan, "deadline_hours",
                     id="deadline-nan"),
        pytest.param(("deadline_hours",), 10 ** 400, "deadline_hours",
                     id="deadline-huge-int"),
        pytest.param(("targets", 2, "repair_hours"), math.nan,
                     "repair_hours", id="repair-nan"),
        pytest.param(("targets", 0, "raan_deg"), math.nan, "raan_deg",
                     id="raan-nan"),
        pytest.param(("servicers", 1, "inclination_deg"), -math.inf,
                     "inclination_deg", id="inclination-minus-inf"),
        pytest.param(("servicers", 0, "dv_budget_mps"), math.nan,
                     "dv_budget_mps", id="budget-nan"),
    ])
    def test_parse_error_names_the_field(self, tmp_path, path, value, field):
        data = _case_study_dict()
        _set(path, value)(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=field):
            load(bad)

    @pytest.mark.parametrize("path,field", [
        pytest.param(("deadline_hours",), "deadline_hours", id="deadline"),
        pytest.param(("targets", 3, "repair_hours"), "repair_hours",
                     id="repair"),
    ])
    def test_finite_hours_that_overflow_seconds_are_rejected(
            self, tmp_path, path, field):
        data = _case_study_dict()
        _set(path, 1e307)(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=field):
            load(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["deadline_hours", "repair_hours"])
    def test_non_finite_hours_must_be_finite(self, field, value):
        # A spec built in code skips the file parser's finiteness check.
        spec = scenario_spec(case_study())
        record = spec if field == "deadline_hours" else spec.targets[3]
        setattr(record, field, value)
        with pytest.raises(ValidationError,
                           match=f"{field} must be finite"):
            spec.to_scenario()

    @pytest.mark.parametrize("path,hours,field", [
        pytest.param(("deadline_hours",), 1e300, "deadline_hours",
                     id="deadline-1e300"),
        pytest.param(("deadline_hours",), 7e7, "deadline_hours",
                     id="deadline-8000-years"),
        pytest.param(("targets", 3, "repair_hours"), 1e300, "repair_hours",
                     id="repair-1e300"),
        pytest.param(("targets", 3, "repair_hours"), 7e7, "repair_hours",
                     id="repair-8000-years"),
    ])
    def test_schedules_ending_past_the_last_datetime_are_rejected(
            self, tmp_path, path, hours, field):
        # The case study starts in 2021; 7e7 hours is about 7,990 years.
        data = _case_study_dict()
        _set(path, hours)(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=field) as exc:
            load(bad)
        assert str(exc.value).startswith(field)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("field,count", [
        pytest.param("servicers", MAX_SERVICERS + 1, id="servicers"),
        pytest.param("targets", MAX_TARGETS + 1, id="targets"),
    ])
    def test_fleets_beyond_the_caps_are_rejected(self, tmp_path, field,
                                                 count):
        data = _case_study_dict()
        data[field] = [data[field][0]] * count
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as exc:
            load(bad)
        assert str(exc.value) == (
            f"{field}: {count} exceeds the cap of {count - 1}")

    def test_fleet_at_the_caps_loads(self, tmp_path):
        data = _case_study_dict()
        data["servicers"] = [data["servicers"][0]] * MAX_SERVICERS
        data["targets"] = [data["targets"][0]] * MAX_TARGETS
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(data))
        scenario = load(path)
        assert len(scenario.servicers) == MAX_SERVICERS
        assert len(scenario.targets) == MAX_TARGETS

    def test_files_beyond_the_size_cap_are_rejected(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_case_study_dict()))
        size = path.stat().st_size
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES", size)
        assert len(load(path).targets) == len(CASE_STUDY_TARGETS)
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES", size - 1)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == (
            f"{path}: file exceeds the cap of {size - 1} bytes")

    def test_size_cap_is_far_above_a_file_at_the_fleet_caps(self, tmp_path):
        data = _case_study_dict()
        data["servicers"] = [data["servicers"][0]] * MAX_SERVICERS
        data["targets"] = [data["targets"][0]] * MAX_TARGETS
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(data, indent=2))
        assert 20 * path.stat().st_size < MAX_SCENARIO_BYTES

    def test_deadline_short_of_the_last_datetime_loads(self, tmp_path):
        # 6.9e7 hours, about 7,870 years, leaves a century of room.
        data = _case_study_dict()
        data["deadline_hours"] = 6.9e7
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert load(path).deadline == 6.9e7 * 3600.0

    @pytest.mark.parametrize("constants,field", [
        pytest.param({"mu_km3s2": 398600, "t_geo_s": 1e300}, "constants",
                     id="overflow"),
        pytest.param({"mu_km3s2": 0, "t_geo_s": 86164.0}, "mu_km3s2",
                     id="mu-zero"),
        pytest.param({"mu_km3s2": 398600.4418, "t_geo_s": -1.0}, "t_geo_s",
                     id="t-geo-negative"),
        pytest.param({"mu_km3s2": 1e-300, "t_geo_s": 1e-300}, "constants",
                     id="radius-underflow"),
    ])
    def test_bad_constants_are_one_line_validation_errors(
            self, tmp_path, constants, field):
        data = _case_study_dict()
        data["constants"] = constants
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=field) as exc:
            load(bad)
        assert str(exc.value).startswith("constants: ")
        assert "\n" not in str(exc.value)


# -- fuzzing the file boundary ----------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6)
_NUMBERS = (st.floats() | st.integers()
            | st.sampled_from([0, -1.0, 1e-300, 1e300, 10 ** 400]))
_ORBIT_FIELDS = ("inclination_deg", "raan_deg", "true_anomaly_deg")


def _records(extra: str):
    return st.fixed_dictionaries(
        {"name": st.text(max_size=8),
         **{key: _NUMBERS for key in _ORBIT_FIELDS + (extra,)}})


_DOCUMENTS = st.fixed_dictionaries(
    {"epoch": st.sampled_from(["2021-03-12T04:00:00Z",
                               "0001-01-01T00:00:00+01:00"])
     | st.text(max_size=30),
     "deadline_hours": _NUMBERS,
     "servicers": st.lists(_records("dv_budget_mps"), max_size=3),
     "targets": st.lists(_records("repair_hours"), max_size=3)},
    optional={"constants": st.fixed_dictionaries(
        {"mu_km3s2": _NUMBERS, "t_geo_s": _NUMBERS})})


def _nodes(value, path=()):
    """The key path of every node of a document, its own empty path
    first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def scenario_documents(draw, base=_DOCUMENTS):
    """Nearly valid scenario documents: one drawn from ``base`` with at
    most one node replaced by an arbitrary JSON value, deleted, or given an
    unknown sibling."""
    doc = draw(base)
    edit = draw(st.sampled_from(["none", "replace", "delete", "add"]))
    if edit == "none":
        return doc
    path = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return draw(_JSON_VALUES) if edit == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if edit == "replace":
        parent[path[-1]] = draw(_JSON_VALUES)
    elif edit == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=6))] = draw(_JSON_VALUES)
    return doc


def _overflowing_constants():
    data = _case_study_dict()
    data["constants"] = {"mu_km3s2": 398600, "t_geo_s": 1e300}
    return data


class TestFuzzScenarioDocuments:
    @settings(max_examples=400, deadline=None)
    @given(scenario_documents())
    @example(_overflowing_constants())
    def test_loads_or_fails_with_a_scenario_error(self, doc):
        try:
            scenario = spec_from_dict(doc).to_scenario()
        except (ParseError, ValidationError):
            return
        assert isinstance(scenario, Scenario)
