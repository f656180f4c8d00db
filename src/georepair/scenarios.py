"""Scenario construction and the JSON scenario file format.

Angles live in degrees and durations in hours at the file boundary and are
converted exactly once at load; everything downstream works in radians and
seconds. A scenario has one form outside the domain types, its file
record, and one way in, ``from_record``: files, ``case_study`` and
``random_scenario`` all build their scenario through it. It checks the
record's shape and numbers, normalizes it and keeps it on the scenario, so
that save(load(path)) reproduces the original decimal text. Validity is
decided by the domain types, whose constructors refuse their own invalid
values; the file layer names the record, or hours that overflow seconds.
It parses the epoch text, and ``Scenario`` makes the epoch UTC, a naive one
read as UTC.
"""

from __future__ import annotations

import copy
import io
import json
import math
import random
from datetime import datetime

from .astro import GeoOrbit
from .planning import Scenario, Servicer, Target


class ParseError(Exception):
    """Malformed scenario record: missing/unknown/ill-typed fields."""


class ValidationError(ValueError):
    """Well-formed scenario record whose values violate invariants."""


CASE_STUDY_EPOCH = "2021-03-12T04:00:00Z"
# Largest fleet a scenario may hold: far above the experiments (30 targets,
# 5 servicers), so that only a mistyped count is refused, before it costs
# memory or solver time.
MAX_TARGETS = 1000
MAX_SERVICERS = 100
# Largest scenario file ``load`` reads, checked before parsing. A file at
# both fleet caps, saved by ``save``, takes about 0.2 MB.
MAX_SCENARIO_BYTES = 16 * 1024 * 1024

# GEO fleet snapshot used throughout: name, inclination (deg), RAAN (deg),
# angular position at epoch (deg).
CASE_STUDY_SERVICERS = (
    ("SSc1", 0.0, 0.0, 0.0),
    ("SSc2", 5.0, 0.0, 160.0),
)

CASE_STUDY_TARGETS = (
    ("Beidou2_G7", 1.602, 66.76, 278.273),
    ("Beidou2_G8", 0.306, 328.06, 156.03),
    ("Beidou_G1", 1.801, 45.112, 252.161),
    ("Beidou_G2", 7.77, 52.634, 328.007),
    ("Beidou_G3", 1.895, 52.106, 274.212),
    ("Beidou_G4", 1.066, 59.651, 144.684),
    ("Beidou_G5", 1.455, 67.407, 288.524),
    ("Beidou_G6", 1.860, 85.654, 319.304),
    ("Chinasat_11", 0.092, 103.257, 331.948),
    ("Fengyun_2E", 5.009, 68.044, 285.074),
    ("Fengyun_2F", 2.806, 83.11, 224.488),
    ("Tianlian1_01", 4.816, 71.744, 337.758),
    ("Tianlian1_02", 2.211, 74.985, 229.245),
    ("Tianlian1_03", 0.998, 98.186, 230.86),
)

# The fields of a file record, in the order ``save`` writes them.
_ORBIT_FIELDS = ("inclination_deg", "raan_deg", "true_anomaly_deg")
_SERVICER_FIELDS = ("name", *_ORBIT_FIELDS, "dv_budget_mps")
_TARGET_FIELDS = ("name", *_ORBIT_FIELDS, "repair_hours")
_TOP_FIELDS = {"epoch", "deadline_hours", "servicers", "targets"}


def from_record(data) -> Scenario:
    """The scenario of a file record, in radians and seconds: the one way
    in, for files and for records built in code.

    Raises ``ParseError`` for a record of the wrong shape, a field that is
    not a finite number or a servicer or target name that repeats another
    of its kind, and ``ValidationError`` for values that the
    domain constructors refuse, their error naming the record. The
    scenario keeps the normalized record as ``spec``."""
    _check_fields(data, _TOP_FIELDS, "scenario")
    if not isinstance(data["epoch"], str):
        raise ParseError("scenario: field 'epoch' must be a string")
    servicer_recs, target_recs = (
        [_fleet_record(keys, rec, f"{key}[{i}]")
         for i, rec in enumerate(_list(data, key, "scenario"))]
        for key, keys in (("servicers", _SERVICER_FIELDS),
                          ("targets", _TARGET_FIELDS)))
    record = {"epoch": data["epoch"],
              "deadline_hours": _number(data, "deadline_hours", "scenario"),
              "servicers": servicer_recs, "targets": target_recs}

    _check_fleet_size(len(servicer_recs), len(target_recs))
    # ``schedule.csv`` and ``summary.json`` tell bodies apart by name, so a
    # repeated name would lose a body's numbers or merge it with another.
    for key, recs in (("servicers", servicer_recs), ("targets", target_recs)):
        first = {}
        for i, rec in enumerate(recs):
            j = first.setdefault(rec["name"], i)
            if j != i:
                raise ParseError(f"{key}[{i}]: name {rec['name']!r} repeats "
                                 f"{key}[{j}]")
    try:
        epoch = datetime.fromisoformat(record["epoch"].replace("Z", "+00:00"))
    except ValueError as exc:
        raise ParseError(f"bad epoch {record['epoch']!r}: {exc}") from exc
    servicers = [_named(f"servicer {s['name']!r}", lambda: Servicer(
        i + 1, s["name"], _orbit(s), s["dv_budget_mps"]))
        for i, s in enumerate(servicer_recs)]
    targets = [_named(f"target {t['name']!r}", lambda: Target(
        i + 1, t["name"], _orbit(t), _seconds(t, "repair_hours")))
        for i, t in enumerate(target_recs)]
    scenario = _named("scenario", lambda: Scenario(
        epoch=epoch, deadline=_seconds(record, "deadline_hours"),
        servicers=servicers, targets=targets))
    scenario.spec = record
    return scenario


def _orbit(rec: dict) -> GeoOrbit:
    return GeoOrbit.from_degrees(*(rec[k] for k in _ORBIT_FIELDS))


def _seconds(rec: dict, key: str) -> float:
    """The hours field ``key`` in seconds, refused by name on overflow."""
    seconds = rec[key] * 3600.0
    if math.isinf(seconds):
        raise ValueError(f"field {key!r} is out of range")
    return seconds


def _named(record: str, build):
    """``build()``, a domain constructor's ``ValueError`` raised as a
    ``ValidationError`` that names the file record being built."""
    try:
        return build()
    except ValueError as exc:
        raise ValidationError(f"{record}: {exc}") from exc


def _check_fleet_size(n_servicers: int, n_targets: int):
    for name, count, cap in (("servicers", n_servicers, MAX_SERVICERS),
                             ("targets", n_targets, MAX_TARGETS)):
        if count > cap:
            raise ValidationError(f"{name}: {count} exceeds the cap of {cap}")


def _check_fields(record: dict, required: set, what: str):
    if not isinstance(record, dict):
        raise ParseError(f"{what} must be an object")
    missing = required - set(record)
    if missing:
        raise ParseError(f"{what}: missing field {sorted(missing)[0]!r}")
    unknown = set(record) - required
    if unknown:
        raise ParseError(f"{what}: unknown field {sorted(unknown)[0]!r}")


def _number(record: dict, key: str, what: str) -> float:
    v = record[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{what}: field {key!r} must be a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ParseError(f"{what}: field {key!r} must be finite")
    return v


def _list(record: dict, key: str, what: str) -> list:
    v = record[key]
    if not isinstance(v, list):
        raise ParseError(f"{what}: field {key!r} must be a list")
    return v


def _fleet_record(keys: tuple, rec: dict, what: str) -> dict:
    """A servicer or target record, normalized: ``name`` through ``str``,
    every other field through ``_number``, in the order of ``keys``."""
    _check_fields(rec, set(keys), what)
    return {k: str(rec[k]) if k == "name" else _number(rec, k, what)
            for k in keys}


def case_study() -> Scenario:
    """The embedded 14-target, 2-servicer GEO repair scenario.

    30-day deadline, 20-hour repairs, 1000 m/s budget per servicer.
    """
    return from_record({
        "epoch": CASE_STUDY_EPOCH, "deadline_hours": 30 * 24.0,
        "servicers": [dict(zip(_SERVICER_FIELDS, (*row, 1000.0)))
                      for row in CASE_STUDY_SERVICERS],
        "targets": [dict(zip(_TARGET_FIELDS, (*row, 20.0)))
                    for row in CASE_STUDY_TARGETS]})


def random_scenario(n_targets: int, n_servicers: int, duration_days: float,
                    seed: int) -> Scenario:
    """Random fleet: inclinations uniform in [0, 10] deg, RAAN and phase
    uniform in [0, 360) deg, 2000 m/s budgets, 1-day repairs."""
    _check_fleet_size(n_servicers, n_targets)
    rng = random.Random(seed)

    def draw(keys, name, extra):
        return dict(zip(keys, (name, rng.uniform(0.0, 10.0),
                               rng.uniform(0.0, 360.0),
                               rng.uniform(0.0, 360.0), extra)))

    return from_record({
        "epoch": CASE_STUDY_EPOCH, "deadline_hours": duration_days * 24.0,
        "servicers": [draw(_SERVICER_FIELDS, f"SSc{i + 1}", 2000.0)
                      for i in range(n_servicers)],
        "targets": [draw(_TARGET_FIELDS, f"Target_{i + 1:02d}", 24.0)
                    for i in range(n_targets)]})


def scenario_record(scenario: Scenario) -> dict:
    """The scenario's file record: a copy of the one ``from_record`` kept,
    or, for a scenario built in code or by ``dataclasses.replace``, one
    rebuilt from its fields, the UTC epoch to the microsecond."""
    if scenario.spec is not None:
        return copy.deepcopy(scenario.spec)

    def row(keys, body, extra):
        orbit = body.orbit
        return dict(zip(keys, (body.name, math.degrees(orbit.inclination),
                               math.degrees(orbit.raan),
                               math.degrees(orbit.arg_lat0), extra)))

    return {
        "epoch": scenario.epoch.isoformat().removesuffix("+00:00") + "Z",
        "deadline_hours": scenario.deadline / 3600.0,
        "servicers": [row(_SERVICER_FIELDS, s, s.dv_budget)
                      for s in scenario.servicers],
        "targets": [row(_TARGET_FIELDS, t, t.repair_duration / 3600.0)
                    for t in scenario.targets]}


def load(path) -> Scenario:
    """Read a scenario file; ParseError, naming the file, for malformed,
    undecodable or too deeply nested files and for files over
    ``MAX_SCENARIO_BYTES``, ValidationError for invariant violations."""
    with open(path, "rb") as fh:
        raw = fh.read(MAX_SCENARIO_BYTES + 1)
    if len(raw) > MAX_SCENARIO_BYTES:
        raise ParseError(f"{path}: file exceeds the cap of "
                         f"{MAX_SCENARIO_BYTES} bytes")
    try:
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except RecursionError:
        # The traceback of a recursion error is as deep as the nesting.
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return from_record(data)


def save(scenario: Scenario, path):
    """Write a scenario file.

    ``load`` gives back a loaded scenario exactly, its record being the
    one it was read from. A scenario built in code or by
    ``dataclasses.replace`` is written from its fields: its epoch comes
    back to the microsecond, but its angles and durations pass through
    degrees and hours, so a radian or a second may come back one ulp
    off."""
    data = scenario_record(scenario)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
