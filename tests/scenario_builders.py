"""Shared builders for synthetic mission scenarios."""

from datetime import datetime, timezone

from georepair.astro import GEO, GeoOrbit, orbit_to_state
from georepair.planning import (
    CostModel,
    MissionPlan,
    Route,
    Scenario,
    Servicer,
    Target,
    evaluate_plan,
)

EPOCH = datetime(2021, 3, 12, 4, 0, 0, tzinfo=timezone.utc)


def make_scenario(servicers, targets, deadline_s):
    """Build a Scenario from (inc_deg, raan_deg, u_deg, dv_budget_mps) servicer
    tuples and (inc_deg, raan_deg, u_deg, repair_s) target tuples."""
    svc = [Servicer(i + 1, f"SSc{i + 1}",
                    GeoOrbit.from_degrees(inc, raan, u), budget)
           for i, (inc, raan, u, budget) in enumerate(servicers)]
    tgt = [Target(i + 1, f"T{i + 1:02d}",
                  GeoOrbit.from_degrees(inc, raan, u), repair)
           for i, (inc, raan, u, repair) in enumerate(targets)]
    return Scenario(epoch=EPOCH, deadline=deadline_s, servicers=svc,
                    targets=tgt)


def random_scenario_tuple(rng, n_targets, n_servicers, deadline_s,
                          budget=2000.0, repair_s=86400.0):
    servicers = [(rng.uniform(0, 10), rng.uniform(0, 360),
                  rng.uniform(0, 360), budget) for _ in range(n_servicers)]
    targets = [(rng.uniform(0, 10), rng.uniform(0, 360),
                rng.uniform(0, 360), repair_s) for _ in range(n_targets)]
    return make_scenario(servicers, targets, deadline_s)


def kernel_leg(departure: GeoOrbit, target: GeoOrbit, k, t: float = 0.0):
    """The mixed leg from ``departure`` at time ``t`` to ``target`` on ``k``
    revolutions, as ``evaluate_plan`` reports it on the default mixed legs,
    ``CostModel.fly``, after checking ``k``.

    Routes depart at the epoch, so the leg is the one leg of a one-target
    scenario whose two orbits are advanced by ``t``, and its times count
    from ``t``. Returns (departure state, advanced target orbit, leg,
    alpha, theta), the state and the orbit in that frame: the
    ``LegDetail``, and the dihedral between the two planes and the signed
    phase gap that the kernel flew it on, from ``CostModel._pairs`` and
    ``CostModel.route_geometry``.
    """
    def advanced(orbit):
        return GeoOrbit(orbit.inclination, orbit.raan,
                        orbit.arg_lat0 + GEO.mean_motion * t)

    departure, target = advanced(departure), advanced(target)
    scenario = Scenario(epoch=EPOCH, deadline=1e9,
                        servicers=[Servicer(1, "S", departure, 1e9)],
                        targets=[Target(1, "T", target, 0.0)])
    plan = MissionPlan([Route(1, [1], [k])])
    (leg,) = evaluate_plan(scenario, plan).leg_details
    model = CostModel(scenario)
    (_, theta, _, _, _), = model.route_geometry(1, [1])[0]
    alpha = model._pairs[("S", 1), 1].alpha
    return orbit_to_state(departure, 0.0), target, leg, alpha, theta
