"""Scenario construction, generation and file round-trip tests."""

import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georepair import scenarios
from georepair.astro import GeoOrbit
from georepair.planning import Scenario, Servicer, Target
from georepair.scenarios import (
    CASE_STUDY_TARGETS,
    MAX_SCENARIO_BYTES,
    MAX_SERVICERS,
    MAX_TARGETS,
    ParseError,
    ValidationError,
    case_study,
    from_record,
    load,
    random_scenario,
    save,
    scenario_record,
)
from georepair.search import GaParams, solve_ga
from scenario_builders import EPOCH

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
        record = scenario_record(self.scenario)
        assert record["epoch"] == golden["epoch"]
        assert record["deadline_hours"] == golden["deadline_hours"]
        assert len(record["servicers"]) == len(golden["servicers"])
        for rec, row in zip(record["servicers"], golden["servicers"]):
            assert [rec["name"], rec["inclination_deg"], rec["raan_deg"],
                    rec["true_anomaly_deg"]] == row
            assert rec["dv_budget_mps"] == golden["dv_budget_mps"]
        for rec, row in zip(record["targets"], golden["targets"]):
            assert [rec["name"], rec["inclination_deg"], rec["raan_deg"],
                    rec["true_anomaly_deg"]] == row
            assert rec["repair_hours"] == golden["repair_hours"]


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
        # D is the largest gap between the empirical CDF, just before and
        # at each sorted draw, and the uniform(0, 10) CDF; the 1% critical
        # value is 1.628 / (sqrt(n) + 0.12 + 0.11 / sqrt(n)).
        draws = sorted(incs[:10_000])
        n = len(draws)
        d = max(max((i + 1) / n - x / 10.0, x / 10.0 - i / n)
                for i, x in enumerate(draws))
        assert d < 1.628 / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))

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

    def test_the_record_is_a_copy(self, tmp_path):
        original = case_study()
        record = scenario_record(original)
        record["targets"][0]["raan_deg"] = 1.0
        path = tmp_path / "case.json"
        save(original, path)
        assert load(path) == original

    def test_a_replaced_scenario_saves_its_own_fields(self, tmp_path):
        path = tmp_path / "ten_days.json"
        save(replace(case_study(), deadline=10 * 86400.0), path)
        assert load(path).deadline == 864000.0

    @pytest.mark.parametrize("epoch", [
        datetime(2021, 3, 12, 12, 0, tzinfo=timezone(timedelta(hours=8))),
        datetime(2021, 3, 12, 4, 0, 0, 500000, tzinfo=timezone.utc),
        datetime(2021, 3, 12, 4, 0, 0),
    ], ids=["utc-plus-8", "half-second", "naive"])
    def test_a_code_built_epoch_saves_its_instant(self, tmp_path, epoch):
        scenario = replace(case_study(), epoch=epoch)
        assert scenario.epoch.tzinfo is timezone.utc
        path = tmp_path / "epoch.json"
        save(scenario, path)
        assert load(path).epoch == scenario.epoch
        if not epoch.microsecond:
            assert json.loads(path.read_text())["epoch"] \
                == scenarios.CASE_STUDY_EPOCH

    @pytest.mark.parametrize("text", [
        "2021-03-12T04:00:00Z", "2021-03-12T12:00:00+08:00",
        "2021-03-12T04:00:00"], ids=["z", "utc-plus-8", "naive"])
    def test_a_file_epoch_loads_as_its_utc_instant(self, tmp_path, text):
        data = scenario_record(case_study())
        data["epoch"] = text
        path = tmp_path / "epoch.json"
        path.write_text(json.dumps(data))
        epoch = load(path).epoch
        assert epoch.tzinfo is timezone.utc
        assert epoch == datetime(2021, 3, 12, 4, tzinfo=timezone.utc)

    def test_a_number_as_a_name_loads_as_its_text(self, tmp_path):
        data = scenario_record(case_study())
        data["servicers"][0]["name"] = 7
        path = tmp_path / "named.json"
        path.write_text(json.dumps(data))
        assert load(path).servicers[0].name == "7"

    @settings(max_examples=50, deadline=None)
    @given(names=st.lists(st.text(max_size=12), min_size=3, max_size=3,
                          unique=True))
    def test_text_names_round_trip(self, tmp_path_factory, names):
        data = scenario_record(random_scenario(2, 1, 10.0, seed=1))
        for rec, name in zip(data["servicers"] + data["targets"], names):
            rec["name"] = name
        scenario = from_record(data)
        path = tmp_path_factory.mktemp("names") / "scenario.json"
        save(scenario, path)
        assert load(path) == scenario
        assert [b.name for b in scenario.servicers + scenario.targets] \
            == names

    @pytest.mark.parametrize("key, first, second, name", [
        ("servicers", 0, 1, "SSc1"), ("targets", 2, 13, "Beidou_G1"),
        # Names are read through ``str``: 7 and "7" are one name.
        ("servicers", 0, 1, 7)])
    def test_a_repeated_name_is_a_parse_error(self, key, first, second,
                                              name):
        data = scenario_record(case_study())
        data[key][first]["name"] = name
        data[key][second]["name"] = str(name)
        with pytest.raises(ParseError) as exc:
            from_record(data)
        assert str(exc.value) == (
            f"{key}[{second}]: name {str(name)!r} repeats {key}[{first}]")
        # A servicer and a target may share a name.
        data = scenario_record(case_study())
        data["targets"][0]["name"] = data["servicers"][0]["name"]
        assert from_record(data).targets[0].name == "SSc1"

    def test_missing_field_names_it(self, tmp_path):
        data = scenario_record(case_study())
        del data["deadline_hours"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="deadline_hours"):
            load(path)

    def test_unknown_field_rejected(self, tmp_path):
        data = scenario_record(case_study())
        data["thrust_n"] = 5.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="thrust_n"):
            load(path)
        data2 = scenario_record(case_study())
        data2["servicers"][0]["mass_kg"] = 100.0
        path.write_text(json.dumps(data2))
        with pytest.raises(ParseError, match="mass_kg"):
            load(path)

    def test_negative_budget_is_validation_error(self, tmp_path):
        data = scenario_record(case_study())
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

    @pytest.mark.parametrize("content,reason", [
        pytest.param(b"[" * 200_000, "nested too deeply", id="deep"),
        pytest.param(b"\xff{}", "not UTF-8", id="undecodable"),
    ])
    def test_unreadable_json_is_a_parse_error_naming_the_file(
            self, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert reason in str(exc.value)
        assert "\n" not in str(exc.value)


def _set(path, value):
    """Edit of a case-study record: ``path`` is a tuple of keys and indices
    ending at the field that gets ``value``."""
    def edit(data):
        rec = data
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    return edit


def _refused_by_the_record_checks(tmp_path, path, value, field):
    """The case-study record with ``value`` at ``path`` is refused by
    ``load`` and by ``from_record`` alike, with a one-line ``ParseError``
    naming ``field``."""
    data = scenario_record(case_study())
    _set(path, value)(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for read, source in ((load, bad), (from_record, data)):
        with pytest.raises(ParseError, match=f"field '{field}' must be ") \
                as exc:
            read(source)
        assert "\n" not in str(exc.value)


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
        _refused_by_the_record_checks(tmp_path, path, value, field)

    @pytest.mark.parametrize("path,field", [
        pytest.param(("deadline_hours",), "deadline_hours", id="deadline"),
        pytest.param(("targets", 3, "repair_hours"), "repair_hours",
                     id="repair"),
    ])
    def test_finite_hours_that_overflow_seconds_are_rejected(
            self, tmp_path, path, field):
        data = scenario_record(case_study())
        _set(path, 1e307)(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError,
                           match=f": field '{field}' is out of range$"):
            load(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       10 ** 400, "1"])
    @pytest.mark.parametrize("field", ["deadline_hours", "repair_hours",
                                       "dv_budget_mps", "raan_deg",
                                       "inclination_deg"])
    def test_non_finite_hours_must_be_finite(self, tmp_path, field, value):
        # Every number of a record, from a file or built in code, passes
        # the same check: a string, a non-finite float or an int too large
        # for a float is refused, naming the field.
        path = {"deadline_hours": (field,),
                "dv_budget_mps": ("servicers", 0, field)}.get(
                    field, ("targets", 3, field))
        _refused_by_the_record_checks(tmp_path, path, value, field)

    @pytest.mark.parametrize("epoch", ["2021-13-01T00:00:00Z", "yesterday",
                                       ""])
    def test_a_malformed_epoch_is_a_parse_error_naming_it(self, epoch):
        record = {**scenario_record(case_study()), "epoch": epoch}
        with pytest.raises(ParseError) as exc:
            from_record(record)
        assert str(exc.value).startswith(f"bad epoch {epoch!r}: ")
        assert "\n" not in str(exc.value)

    def test_an_epoch_out_of_range_in_utc_is_a_validation_error(
            self, tmp_path):
        # Well formed, but an hour before the first UTC instant: the file
        # layer parses it and ``Scenario`` refuses it.
        data = scenario_record(case_study())
        data["epoch"] = "0001-01-01T00:00:00+01:00"
        path = tmp_path / "early.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == "scenario: epoch is out of range in UTC"

    @pytest.mark.parametrize("change, match", [
        pytest.param({"epoch": 5},
                     "^scenario: field 'epoch' must be a string$",
                     id="epoch-int"),
        pytest.param({"constants": {"mu_km3s2": "1", "t_geo_s": 86164.0}},
                     "^scenario: unknown field 'constants'$",
                     id="mu-str"),
    ])
    def test_scenario_fields_of_the_wrong_type_are_named(self, change,
                                                         match):
        record = {**scenario_record(case_study()), **change}
        with pytest.raises(ParseError, match=match):
            from_record(record)

    @pytest.mark.parametrize("path,hours,field", [
        pytest.param(("deadline_hours",), 1e300, "deadline",
                     id="deadline-1e300"),
        pytest.param(("deadline_hours",), 7e7, "deadline",
                     id="deadline-8000-years"),
        pytest.param(("targets", 3, "repair_hours"), 1e300,
                     "repair_duration", id="repair-1e300"),
        pytest.param(("targets", 3, "repair_hours"), 7e7, "repair_duration",
                     id="repair-8000-years"),
    ])
    def test_schedules_ending_past_the_last_datetime_are_rejected(
            self, tmp_path, path, hours, field):
        # The case study starts in 2021; 7e7 hours is about 7,990 years.
        data = scenario_record(case_study())
        _set(path, hours)(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=field) as exc:
            load(bad)
        assert str(exc.value).startswith(f"scenario: {field} too large")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("field,count", [
        pytest.param("servicers", MAX_SERVICERS + 1, id="servicers"),
        pytest.param("targets", MAX_TARGETS + 1, id="targets"),
    ])
    def test_fleets_beyond_the_caps_are_rejected(self, tmp_path, field,
                                                 count):
        data = scenario_record(case_study())
        data[field] = [data[field][0]] * count
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as exc:
            load(bad)
        assert str(exc.value) == (
            f"{field}: {count} exceeds the cap of {count - 1}")

    @staticmethod
    def fleet_at_the_caps():
        """The case-study record with copies of its first servicer and
        target up to both fleet caps, under names that do not repeat."""
        data = scenario_record(case_study())
        for key, count in (("servicers", MAX_SERVICERS),
                           ("targets", MAX_TARGETS)):
            data[key] = [dict(data[key][0], name=f"{key}{i}")
                         for i in range(count)]
        return data

    def test_fleet_at_the_caps_loads(self, tmp_path):
        data = self.fleet_at_the_caps()
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(data))
        scenario = load(path)
        assert len(scenario.servicers) == MAX_SERVICERS
        assert len(scenario.targets) == MAX_TARGETS

    def test_files_beyond_the_size_cap_are_rejected(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_record(case_study())))
        size = path.stat().st_size
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES", size)
        assert len(load(path).targets) == len(CASE_STUDY_TARGETS)
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_BYTES", size - 1)
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == (
            f"{path}: file exceeds the cap of {size - 1} bytes")

    def test_size_cap_is_far_above_a_file_at_the_fleet_caps(self, tmp_path):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(self.fleet_at_the_caps(), indent=2))
        assert 20 * path.stat().st_size < MAX_SCENARIO_BYTES

    def test_deadline_short_of_the_last_datetime_loads(self, tmp_path):
        # 6.9e7 hours, about 7,870 years, leaves a century of room.
        data = scenario_record(case_study())
        data["deadline_hours"] = 6.9e7
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert load(path).deadline == 6.9e7 * 3600.0


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
     "targets": st.lists(_records("repair_hours"), max_size=3)})


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


class TestFuzzScenarioDocuments:
    @settings(max_examples=400, deadline=None)
    @given(scenario_documents())
    def test_loads_or_fails_with_a_scenario_error(self, doc):
        try:
            scenario = from_record(doc)
        except (ParseError, ValidationError):
            return
        assert isinstance(scenario, Scenario)


# -- the domain constructors are the scenario gate --------------------------

_ODD_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, True)
# Every numeric field of GeoOrbit, Servicer, Target and Scenario, with its
# value in a valid one-servicer, two-target scenario. The orbit fields go
# to the servicer's orbit, the target fields to the first target.
_GATE_FIELDS = {
    "inclination": 0.02, "raan": 1.0, "arg_lat0": 2.0,
    "servicer_id": 1, "dv_budget": 2000.0,
    "target_id": 1, "repair_duration": 3600.0,
    "deadline": 10 * 86400.0,
}


def _gate_scenario(v: dict) -> Scenario:
    return Scenario(
        epoch=EPOCH, deadline=v["deadline"],
        servicers=[Servicer(v["servicer_id"], "S",
                            GeoOrbit(v["inclination"], v["raan"],
                                     v["arg_lat0"]), v["dv_budget"])],
        targets=[Target(v["target_id"], "T1", GeoOrbit(0.05, 3.0, 4.0),
                        v["repair_duration"]),
                 Target(2, "T2", GeoOrbit(0.03, 5.0, 1.0), 3600.0)])


class TestConstructorGate:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: GeoOrbit(0.1, math.nan, 0.3), id="raan-nan"),
        pytest.param(lambda: GeoOrbit(0.1, 0.2, -math.inf),
                     id="arg-lat-inf"),
        pytest.param(lambda: GeoOrbit("0.1", 0.2, 0.3), id="inclination-str"),
        pytest.param(lambda: GeoOrbit(0.1, 10 ** 400, 0.3),
                     id="raan-int-overflow"),
        pytest.param(lambda: GeoOrbit.from_degrees(1.0, 2.0, 10 ** 400),
                     id="arg-lat-degrees-overflow"),
        pytest.param(lambda: Servicer(1, "S", GeoOrbit(0, 0, 0), math.nan),
                     id="budget-nan"),
        pytest.param(lambda: Servicer(1, "S", GeoOrbit(0, 0, 0), "5"),
                     id="budget-str"),
        pytest.param(lambda: Target(1, "T", GeoOrbit(0, 0, 0), math.inf),
                     id="repair-inf"),
        pytest.param(lambda: Target(1, "T", GeoOrbit(0, 0, 0), math.nan),
                     id="repair-nan"),
        pytest.param(lambda: _gate_scenario(
            {**_GATE_FIELDS, "deadline": math.inf}), id="deadline-inf"),
        pytest.param(lambda: _gate_scenario(
            {**_GATE_FIELDS, "deadline": math.nan}), id="deadline-nan"),
        *(pytest.param(lambda cls=cls, i=i: cls(i, "X", GeoOrbit(0, 0, 0),
                                                 1.0),
                       id=f"{cls.__name__.lower()}-id-{i!r}")
          for cls in (Servicer, Target) for i in (True, 0, 1.5)),
        pytest.param(lambda: Servicer(1, None, GeoOrbit(0, 0, 0), 1.0),
                     id="servicer-name-none"),
        pytest.param(lambda: Target(1, 5, GeoOrbit(0, 0, 0), 1.0),
                     id="target-name-int"),
        pytest.param(lambda: replace(case_study(), epoch=datetime(
            1, 1, 1, tzinfo=timezone(timedelta(hours=8)))),
                     id="epoch-before-year-1"),
        # The case study starts in 2021 and 3e11 s is about 9,500 years,
        # so a schedule could end after 9999-12-31, which no date names.
        pytest.param(lambda: replace(case_study(), deadline=3.0e11),
                     id="deadline-past-the-last-date"),
        pytest.param(lambda: replace(case_study(), targets=[
            replace(t, repair_duration=3.0e11 / 14)
            for t in case_study().targets]), id="repairs-past-the-last-date"),
    ])
    def test_each_invalid_value_is_refused_in_one_line(self, build):
        with pytest.raises(ValueError) as exc:
            build()
        assert "\n" not in str(exc.value)

    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(_GATE_FIELDS)),
                           st.sampled_from(_ODD_VALUES), max_size=2))
    def test_refuses_in_one_line_or_builds_a_solvable_scenario(self, odd):
        try:
            scenario = _gate_scenario({**_GATE_FIELDS, **odd})
        except ValueError as exc:
            assert "\n" not in str(exc)
            return
        result = solve_ga(scenario, GaParams(4, 2, 1), seed=1)
        assert not math.isnan(result.best_evaluation.fitness)
