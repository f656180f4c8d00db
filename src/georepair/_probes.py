"""The names a span tracer wraps to time the solver layer by layer.

``PROBES`` holds one entry per wrapped name: ``(layer, owner, attribute,
key, judge)``. ``owner`` is the module or class where the callers look the
name up, so replacing ``vars(owner)[attribute]`` there reaches every call.
``key(args)``, when given, is a hashable call key for counting repeated
calls; ``judge(args, result)``, when given, flags an outcome of a normal
return. Two entries may share a layer, which then counts both names. A
change that removes or renames a wrapped name edits its entry here; the
layer names stay, so a layer with no entry reads zero calls.
"""

from . import planning, scenarios, search


def _key_route(args):
    """``(servicer id, sequence)`` of a route call ``f(self, sid, seq)``."""
    return args[1], tuple(args[2])


def _judge_accepted(args, result):
    """An LNS call that returns new sequences, not its input, improved."""
    return result is not args[0]


PROBES = (
    ("astro.lambert_solve", search, "lambert_solve", None, None),
    ("astro.orbit_to_state", search, "orbit_to_state", None, None),
    ("astro.rendezvous_mixed", planning, "rendezvous_mixed", None, None),
    ("planning.evaluate_plan", search, "evaluate_plan", None, None),
    ("planning.evaluate_plan", search, "evaluate_plan_lambert", None, None),
    ("planning.allocate", planning.CostModel, "allocate", _key_route, None),
    ("planning.route_geometry", planning.CostModel, "route_geometry",
     _key_route, None),
    ("planning.route_metrics", planning.CostModel, "route_metrics", None,
     None),
    ("planning.route_score", planning.CostModel, "route_score", None, None),
    ("planning.plan_metrics", planning.CostModel, "plan_metrics", None,
     None),
    ("planning.plan_fitness", planning.CostModel, "plan_fitness", None,
     None),
    ("search.destroy", search, "destroy", None, None),
    ("search.insertion_cost", search, "insertion_cost", None, None),
    ("search.repair", search, "repair", None, None),
    ("search.lns_improve", search, "lns_improve", None, _judge_accepted),
    ("search.adapter_route", search._MixedAdapter, "route", _key_route,
     None),
    ("search.adapter_route", search._LambertAdapter, "route", _key_route,
     None),
    ("scenarios.load", scenarios, "load", None, None),
)
