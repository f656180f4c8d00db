"""Scenario construction and the JSON scenario file format.

Angles live in degrees and durations in hours at the file boundary and are
converted exactly once at load; everything downstream works in radians and
seconds. A loaded or built-in scenario keeps its file-format record
attached so that save(load(path)) reproduces the original decimal text.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

from .astro import GEO, GeoOrbit, PhysicalConstants
from .planning import Scenario, Servicer, Target, _left_sum


class ParseError(Exception):
    """Malformed scenario file: missing/unknown/ill-typed fields."""


class ValidationError(Exception):
    """Well-formed scenario file whose values violate invariants."""


CASE_STUDY_EPOCH = "2021-03-12T04:00:00Z"
# Largest fleet a scenario may hold: far above the experiments (30 targets,
# 5 servicers), so that only a mistyped count is refused, before it costs
# memory or solver time.
MAX_TARGETS = 1000
MAX_SERVICERS = 100
# Largest scenario file ``load`` reads, checked before parsing. A file at
# both fleet caps, saved by ``save``, takes about 0.2 MB.
MAX_SCENARIO_BYTES = 16 * 1024 * 1024
_LATEST_TIME = datetime.max.replace(tzinfo=timezone.utc)

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


@dataclass
class ServicerSpec:
    name: str
    inclination_deg: float
    raan_deg: float
    true_anomaly_deg: float
    dv_budget_mps: float


@dataclass
class TargetSpec:
    name: str
    inclination_deg: float
    raan_deg: float
    true_anomaly_deg: float
    repair_hours: float


@dataclass
class ScenarioSpec:
    """File-format mirror of a scenario: degrees and hours, no radians."""

    epoch: str
    deadline_hours: float
    servicers: list[ServicerSpec]
    targets: list[TargetSpec]
    constants: dict | None = None

    def to_scenario(self) -> Scenario:
        if not math.isfinite(self.deadline_hours):
            raise ValidationError("deadline_hours must be finite")
        if self.deadline_hours <= 0.0:
            raise ValidationError("deadline_hours must be positive")
        if not self.servicers or not self.targets:
            raise ValidationError("need at least one servicer and one target")
        _check_fleet_size(len(self.servicers), len(self.targets))
        consts = GEO if self.constants is None else _constants(
            self.constants)
        try:
            epoch = _parse_epoch(self.epoch)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"bad epoch {self.epoch!r}: {exc}") from exc
        servicers = []
        for i, s in enumerate(self.servicers):
            if s.dv_budget_mps <= 0.0:
                raise ValidationError(
                    f"servicer {s.name!r}: dv_budget_mps must be positive")
            servicers.append(Servicer(
                i + 1, s.name,
                _orbit_from_degrees(s, "servicer"), s.dv_budget_mps))
        targets = []
        for i, t in enumerate(self.targets):
            if not math.isfinite(t.repair_hours):
                raise ValidationError(
                    f"target {t.name!r}: repair_hours must be finite")
            if t.repair_hours < 0.0:
                raise ValidationError(
                    f"target {t.name!r}: repair_hours must be non-negative")
            targets.append(Target(
                i + 1, t.name,
                _orbit_from_degrees(t, "target"), t.repair_hours * 3600.0))
        # Every time a schedule reports must be a datetime. A route ends by
        # the deadline or within 2 t_geo plus the repair per leg, a Lambert
        # leg lasts at most 2 t_geo and an oracle leg at most 7 t_geo, so
        # deadline + repairs + 8 t_geo per target bounds them all.
        room = ((_LATEST_TIME - epoch).total_seconds()
                - 8 * len(targets) * consts.t_geo)
        for field, seconds in (
                ("deadline_hours", self.deadline_hours * 3600.0),
                ("repair_hours",
                 _left_sum(t.repair_duration for t in targets))):
            room -= seconds
            if room < 0.0:
                raise ValidationError(
                    f"{field} too large: a schedule could end after "
                    f"{_LATEST_TIME:%Y-%m-%d}")
        return Scenario(epoch=epoch, deadline=self.deadline_hours * 3600.0,
                        servicers=servicers, targets=targets,
                        constants=consts, spec=self)


def _check_fleet_size(n_servicers: int, n_targets: int):
    for name, count, cap in (("servicers", n_servicers, MAX_SERVICERS),
                             ("targets", n_targets, MAX_TARGETS)):
        if count > cap:
            raise ValidationError(f"{name}: {count} exceeds the cap of {cap}")


def _constants(record: dict) -> PhysicalConstants:
    for key in ("mu_km3s2", "t_geo_s"):
        if record[key] <= 0.0:
            raise ValidationError(f"constants: {key} must be positive")
    try:
        return PhysicalConstants(mu=record["mu_km3s2"],
                                 t_geo=record["t_geo_s"])
    except OverflowError as exc:
        raise ValidationError(
            "constants: mu_km3s2 and t_geo_s give a GEO radius beyond the "
            "float range") from exc
    except ValueError as exc:
        raise ValidationError(f"constants: {exc}") from exc


def _orbit_from_degrees(rec, kind: str) -> GeoOrbit:
    try:
        return GeoOrbit.from_degrees(rec.inclination_deg, rec.raan_deg,
                                     rec.true_anomaly_deg)
    except ValueError as exc:
        raise ValidationError(f"{kind} {rec.name!r}: {exc}") from exc


def _parse_epoch(text: str) -> datetime:
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def case_study() -> Scenario:
    """The embedded 14-target, 2-servicer GEO repair scenario.

    30-day deadline, 20-hour repairs, 1000 m/s budget per servicer.
    """
    spec = ScenarioSpec(
        epoch=CASE_STUDY_EPOCH,
        deadline_hours=30 * 24.0,
        servicers=[ServicerSpec(name, inc, raan, anom, 1000.0)
                   for name, inc, raan, anom in CASE_STUDY_SERVICERS],
        targets=[TargetSpec(name, inc, raan, anom, 20.0)
                 for name, inc, raan, anom in CASE_STUDY_TARGETS])
    return spec.to_scenario()


def random_scenario(n_targets: int, n_servicers: int, duration_days: float,
                    seed: int) -> Scenario:
    """Random fleet: inclinations uniform in [0, 10] deg, RAAN and phase
    uniform in [0, 360) deg, 2000 m/s budgets, 1-day repairs."""
    if n_targets < 1 or n_servicers < 1:
        raise ValueError("need at least one target and one servicer")
    _check_fleet_size(n_servicers, n_targets)
    rng = random.Random(seed)

    def draw(name, cls, extra):
        return cls(name, rng.uniform(0.0, 10.0), rng.uniform(0.0, 360.0),
                   rng.uniform(0.0, 360.0), extra)

    spec = ScenarioSpec(
        epoch=CASE_STUDY_EPOCH,
        deadline_hours=duration_days * 24.0,
        servicers=[draw(f"SSc{i + 1}", ServicerSpec, 2000.0)
                   for i in range(n_servicers)],
        targets=[draw(f"Target_{i + 1:02d}", TargetSpec, 24.0)
                 for i in range(n_targets)])
    return spec.to_scenario()


_SERVICER_FIELDS = {f.name for f in fields(ServicerSpec)}
_TARGET_FIELDS = {f.name for f in fields(TargetSpec)}
_TOP_FIELDS = {"epoch", "deadline_hours", "servicers", "targets", "constants"}
_CONST_FIELDS = {"mu_km3s2", "t_geo_s"}


def _check_fields(record: dict, required: set, what: str,
                  optional: frozenset = frozenset()):
    if not isinstance(record, dict):
        raise ParseError(f"{what} must be an object")
    missing = required - set(record)
    if missing:
        raise ParseError(f"{what}: missing field {sorted(missing)[0]!r}")
    unknown = set(record) - required - optional
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


def _fleet_record(cls, required: set, rec: dict, what: str):
    """A ``ServicerSpec`` or ``TargetSpec`` from its file record: ``name``
    through ``str``, every other field through ``_number``, in field
    order."""
    _check_fields(rec, required, what)
    return cls(*(str(rec[f.name]) if f.name == "name"
                 else _number(rec, f.name, what) for f in fields(cls)))


def spec_from_dict(data: dict) -> ScenarioSpec:
    _check_fields(data, _TOP_FIELDS - {"constants"}, "scenario",
                  optional=frozenset({"constants"}))
    if not isinstance(data["epoch"], str):
        raise ParseError("scenario: field 'epoch' must be a string")
    servicers = [_fleet_record(ServicerSpec, _SERVICER_FIELDS, rec,
                               f"servicers[{i}]")
                 for i, rec in enumerate(_list(data, "servicers", "scenario"))]
    targets = [_fleet_record(TargetSpec, _TARGET_FIELDS, rec, f"targets[{i}]")
               for i, rec in enumerate(_list(data, "targets", "scenario"))]
    constants = None
    if "constants" in data:
        _check_fields(data["constants"], _CONST_FIELDS, "constants")
        constants = {k: _number(data["constants"], k, "constants")
                     for k in sorted(_CONST_FIELDS)}
    return ScenarioSpec(epoch=data["epoch"],
                        deadline_hours=_number(data, "deadline_hours",
                                               "scenario"),
                        servicers=servicers, targets=targets,
                        constants=constants)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    data = asdict(spec)
    if spec.constants is None:
        del data["constants"]
    return data


def scenario_spec(scenario: Scenario) -> ScenarioSpec:
    """The scenario's retained file record, reconstructed if absent."""
    if isinstance(scenario.spec, ScenarioSpec):
        return scenario.spec
    consts = None
    if scenario.constants != GEO:
        consts = {"mu_km3s2": scenario.constants.mu,
                  "t_geo_s": scenario.constants.t_geo}
    return ScenarioSpec(
        epoch=scenario.epoch.strftime("%Y-%m-%dT%H:%M:%SZ"),
        deadline_hours=scenario.deadline / 3600.0,
        servicers=[ServicerSpec(
            s.name, math.degrees(s.orbit.inclination),
            math.degrees(s.orbit.raan), math.degrees(s.orbit.arg_lat0),
            s.dv_budget) for s in scenario.servicers],
        targets=[TargetSpec(
            t.name, math.degrees(t.orbit.inclination),
            math.degrees(t.orbit.raan), math.degrees(t.orbit.arg_lat0),
            t.repair_duration / 3600.0) for t in scenario.targets],
        constants=consts)


def load(path) -> Scenario:
    """Read a scenario file; ParseError for malformed files and for files
    over ``MAX_SCENARIO_BYTES``, ValidationError for invariant
    violations."""
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
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return spec_from_dict(data).to_scenario()


def save(scenario: Scenario, path):
    """Write a scenario file; exact round trip for loaded/built scenarios."""
    data = spec_to_dict(scenario_spec(scenario))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
