"""Mission data model, plan evaluation and the revolution-allocation heuristic.

A mission plan assigns every target to exactly one servicer route and fixes
the phasing revolution count of every leg. Plans are scored by a penalized
fitness: total delta-v (m/s) plus weighted penalties for finishing repairs
after the deadline and for exceeding per-servicer delta-v budgets. One
rule scores a plan: ``_LegModel._score``, the one call of the formula
``penalized_fitness``, scores each route, and ``_LegModel._plan_sums``
adds the scores up left to right, as the search adds up a chromosome and
``plan_fitness`` its memoized route scores, so every solve, mixed or
Lambert, reports its history's best fitness, and ``exhaustive_solve`` the
total it minimized.

``evaluate_plan`` is the only code that builds an ``Evaluation``. It takes
the leg model that priced the plan, built on the plan's scenario, and
flies, scores and sums each route on that one model: its ``fly`` walks a
route once and returns its ``LegDetail``s, one record per leg holding each
of its facts once. Every leg model is a ``_LegModel``, which holds only
the scenario, its one map from body key to ``GeoOrbit``, the policy's
weights, ``_score`` and ``_plan_sums``: the default, ``CostModel``, adds
the mixed legs the search prices, its kernel and memos, and the Lambert
model in ``search`` its own two-impulse legs; each reads plane frames as
the ``GeoOrbit``s store them.
``evaluate_plan`` only adds up each route's legs, so a solve builds one
model and scores its report by the policy it searched under.
``CostModel`` is the one copy of the mixed leg's geometry. Its kernel is
``CostModel.route_geometry``, which simulates a route's legs into a list of
``(coast, theta, dv1, s_half, td)`` records, and ``CostModel._route_cost``,
which prices the records; each is one loop per route with no call per leg,
and ``_allocate`` reads the same records, so pricing a route is one
geometry loop, one end-time pass per trial allocation and one cost pass.
The search, the exhaustive oracle's per-leg tables and the report all read
it: ``fly`` hands each leg's coast, phase gap and dihedral to
``astro.rendezvous_mixed`` for impulses and times and reports the leg at
the kernel's price, a one-record slice of the route's legs, so a reported
mixed plan is ``CostModel.plan_metrics`` to the last bit. The kernel must
keep the IEEE operation order of every expression: the memos, the search
and the fingerprint tests rely on its floats being bit-for-bit what they
are. Every sum of floats adds left to right (as ``_left_sum`` does), never
through ``sum``, whose rounding depends on the Python version. Coast times
and phase gaps are invariant under whole-revolution shifts of earlier legs,
so one simulation of a route with every leg at one revolution serves any
revolution allocation. A ``CostModel`` prices under one policy, the
allocator's slack rule and the penalty weights phi and gamma, fixed when it
is built, and keeps three bounded memos under it, of route scores, of
insertion scans and of LNS attempts, as its docstring says. Plans are
checked once, by ``MissionPlan.validate_against`` in ``evaluate_plan``; a
leg model's ``fly`` trusts its route, and the search its own input:
``decode`` does not check chromosomes, which the engine builds as
permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .astro import (
    COPLANAR_TOL,
    GEO,
    TWO_PI,
    GeoOrbit,
    InvalidRevolutions,
    _check_finite,
    _check_positive_int,
    fold_angle,
    phasing_solution,
    rendezvous_mixed,
)

DEFAULT_PHI = 1.0     # fitness per minute of deadline violation
DEFAULT_GAMMA = 10.0  # fitness per m/s of budget excess
_LATEST_TIME = datetime.max.replace(tzinfo=timezone.utc)

# GEO quantities of the phasing-burn formula, in the kernel's expressions.
_SQRT_MU = math.sqrt(GEO.mu)
_TWO_OVER_R = 2.0 / GEO.r_geo
_INV_SQRT_R = math.sqrt(1.0 / GEO.r_geo)


def penalized_fitness(dv: float, p1: float, p2: float, phi: float,
                      gamma: float) -> float:
    """Delta-v (m/s) plus ``phi`` per minute of the deadline violation
    ``p1`` (s) plus ``gamma`` per m/s of the budget excess ``p2``.

    A term whose weight is zero adds nothing, also to an infinite
    violation, where the product would be NaN; every finite input gives
    the plain sum's float."""
    return (dv + (phi * (p1 / 60.0) if phi or p1 != math.inf else 0.0)
            + (gamma * p2 if gamma or p2 != math.inf else 0.0))


def _left_sum(values) -> float:
    """Sum of floats added left to right, each addition rounded. Since
    Python 3.12 ``sum`` compensates its rounding, so its floats would depend
    on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _check_weights(phi: float, gamma: float) -> None:
    """Refuse penalty weights that are not finite and non-negative."""
    _check_finite("phi", phi, "non-negative")
    _check_finite("gamma", gamma, "non-negative")


def _check_name(name) -> None:
    """Refuse a servicer or target name that is not a string, which a
    scenario file could not give back."""
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {type(name).__name__}")


class InstanceTooLarge(Exception):
    """The exhaustive oracle refuses instances beyond its guard rails."""


@dataclass
class Target:
    id: int
    name: str
    orbit: GeoOrbit
    repair_duration: float  # s

    def __post_init__(self):
        _check_positive_int("id", self.id)
        _check_name(self.name)
        _check_finite("repair_duration", self.repair_duration, "non-negative")


@dataclass
class Servicer:
    id: int
    name: str
    orbit: GeoOrbit
    dv_budget: float  # m/s

    def __post_init__(self):
        _check_positive_int("id", self.id)
        _check_name(self.name)
        _check_finite("dv_budget", self.dv_budget, "positive")


@dataclass
class Scenario:
    """Immutable mission description: fleet, targets and deadline.

    ``spec`` is the file record that ``scenarios.from_record`` built the
    scenario from, kept for exact saves. Only ``from_record`` sets it, so a
    scenario built in code or by ``dataclasses.replace`` has none; it takes
    no part in equality. The epoch is kept in UTC, a naive one read as UTC.
    """

    epoch: datetime
    deadline: float  # s since epoch
    servicers: list[Servicer]
    targets: list[Target]
    spec: dict | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.epoch.tzinfo is None:
            self.epoch = self.epoch.replace(tzinfo=timezone.utc)
        try:
            self.epoch = self.epoch.astimezone(timezone.utc)
        except OverflowError:
            raise ValueError("epoch is out of range in UTC") from None
        _check_finite("deadline", self.deadline, "positive")
        if not self.servicers or not self.targets:
            raise ValueError("need at least one servicer and one target")
        if sorted(t.id for t in self.targets) != list(range(1, len(self.targets) + 1)):
            raise ValueError("target ids must be 1..m, unique and contiguous")
        if sorted(s.id for s in self.servicers) != list(range(1, len(self.servicers) + 1)):
            raise ValueError("servicer ids must be 1..n, unique and contiguous")
        # Every time a schedule reports must be a datetime. A route ends by
        # the deadline or within 2 t_geo plus the repair per leg, a Lambert
        # leg lasts at most 2 t_geo and an oracle leg at most 7 t_geo, so
        # deadline + repairs + 8 t_geo per target bounds them all.
        room = ((_LATEST_TIME - self.epoch).total_seconds()
                - 8 * len(self.targets) * GEO.t_geo)
        for name, seconds in (("deadline", [self.deadline]),
                              ("repair_duration",
                               [t.repair_duration for t in self.targets])):
            room -= _left_sum(seconds)
            if room < 0.0:
                raise ValueError(f"{name} too large: a schedule could end "
                                 f"after {_LATEST_TIME:%Y-%m-%d}")
        self._target_by_id = {t.id: t for t in self.targets}
        self._servicer_by_id = {s.id: s for s in self.servicers}

    def target(self, tid: int) -> Target:
        try:
            return self._target_by_id[tid]
        except KeyError:
            raise ValueError(f"unknown target {tid!r}") from None

    def servicer(self, sid: int) -> Servicer:
        try:
            return self._servicer_by_id[sid]
        except KeyError:
            raise ValueError(f"unknown servicer {sid!r}") from None


@dataclass
class Route:
    """One servicer's ordered targets and per-leg revolution counts."""

    servicer_id: int
    target_sequence: list[int]
    revolutions: list[int]

    def validate(self):
        for i in (self.servicer_id, *self.target_sequence):
            _check_positive_int("id", i)
        if len(self.target_sequence) != len(set(self.target_sequence)):
            raise ValueError("duplicate targets in route")
        if len(self.revolutions) != len(self.target_sequence):
            raise ValueError("revolutions must match sequence length")
        for k in self.revolutions:
            _check_positive_int("revolution count", k, InvalidRevolutions)


@dataclass
class MissionPlan:
    routes: list[Route]

    def covered_targets(self) -> list[int]:
        out = []
        for r in self.routes:
            out.extend(r.target_sequence)
        return out

    def validate_against(self, scenario: Scenario):
        """Raise ``ValueError`` unless ``evaluate_plan`` can fly the plan."""
        flown = set()
        for r in self.routes:
            r.validate()
            scenario.servicer(r.servicer_id)
            if r.servicer_id in flown:
                raise ValueError(f"servicer {r.servicer_id} has two routes")
            flown.add(r.servicer_id)
        covered = self.covered_targets()
        expected = sorted(t.id for t in scenario.targets)
        if sorted(covered) != expected:
            raise ValueError("plan must cover every target exactly once")


@dataclass(frozen=True)
class LegDetail:
    """One reported leg of a route, flown by a leg model's ``fly``.

    ``impulse1`` (m/s, a 3-tuple of floats) is fired at ``impulse1_time``
    and ``impulse2`` at ``arrival_time``, when the servicer reaches the
    target; a mixed leg first coasts ``coast_time`` s on its departure
    orbit and then spends ``phase_time`` s between its burns, a Lambert leg
    fires at once and ``phase_time`` is its flight time. The four instants
    are seconds since the epoch. ``total_dv`` (m/s) is the price the search
    gave the leg: infinite, with NaN impulses, for a Lambert leg that
    cannot fly.
    """

    servicer_id: int
    target_id: int
    impulse1: tuple[float, float, float]
    impulse2: tuple[float, float, float]
    depart_time: float      # end of the previous repair, or the epoch
    impulse1_time: float    # depart_time + coast_time
    arrival_time: float     # s_ik, the second burn
    completion_time: float  # arrival + repair duration
    coast_time: float
    phase_time: float
    total_dv: float


@dataclass
class Evaluation:
    """Penalized fitness of a plan: ``fitness`` is the left sum, in route
    order, of the route scores ``penalized_fitness(dv, p1, p2, phi,
    gamma)``, phi and gamma being the penalty weights of the solve.
    ``per_servicer_dv`` holds each servicer's route delta-v in
    ``scenario.servicers`` order, 0.0 for a servicer without a route."""

    leg_details: list[LegDetail]
    per_servicer_dv: list[float]
    total_dv: float
    deadline_penalty: float  # s
    budget_penalty: float    # m/s
    fitness: float
    feasible: bool


# ---------------------------------------------------------------------------
# Chromosome encoding
# ---------------------------------------------------------------------------

def decode(genes, m: int, n: int) -> list[list[int]]:
    """Split a permutation chromosome into per-servicer target sequences.

    Values 1..m are target ids; the n-1 larger values are split genes that
    partition the string positionally into n (possibly empty) fragments.
    ``genes`` must be a permutation of 1..m+n-1, which is not checked.
    """
    sequences = [[]]
    for g in genes:
        if g <= m:
            sequences[-1].append(g)
        else:
            sequences.append([])
    return sequences


def encode_sequences(sequences: list[list[int]], m: int) -> list[int]:
    """One chromosome preimage of per-servicer sequences (decode inverse)."""
    genes = []
    for j, seq in enumerate(sequences):
        if j > 0:
            genes.append(m + j)
        genes.extend(seq)
    return genes


# ---------------------------------------------------------------------------
# Fast scalar cost engine
# ---------------------------------------------------------------------------

class _Pair:
    """A leg's static geometry, from two orbits' stored frames: dihedral,
    epoch-longitude gap, node angles and plane-change impulse."""

    __slots__ = ("degenerate", "alpha", "dv1", "s_half", "psi_from", "psi_to",
                 "lam_diff", "u0_from", "u0_to")

    def __init__(self, frm: GeoOrbit, to: GeoOrbit):
        self.u0_from = frm.arg_lat0
        self.u0_to = to.arg_lat0
        hf, ht = frm.h, to.h
        cx = hf[1] * ht[2] - hf[2] * ht[1]
        cy = hf[2] * ht[0] - hf[0] * ht[2]
        cz = hf[0] * ht[1] - hf[1] * ht[0]
        cn = math.sqrt(cx * cx + cy * cy + cz * cz)
        dot = hf[0] * ht[0] + hf[1] * ht[1] + hf[2] * ht[2]
        self.alpha = math.atan2(cn, dot)
        self.degenerate = self.alpha < COPLANAR_TOL
        self.lam_diff = fold_angle(frm.lam0 - to.lam0)
        if self.degenerate:
            self.dv1 = 0.0
            self.s_half = 0.0
            self.psi_from = 0.0
            self.psi_to = 0.0
        else:
            nx, ny, nz = cx / cn, cy / cn, cz / cn
            self.s_half = math.sin(self.alpha / 2.0)
            self.dv1 = 2.0 * GEO.v_geo * 1000.0 * self.s_half
            self.psi_from = math.atan2(
                nx * frm.e2[0] + ny * frm.e2[1] + nz * frm.e2[2],
                nx * frm.e1[0] + ny * frm.e1[1] + nz * frm.e1[2]) % TWO_PI
            self.psi_to = math.atan2(
                nx * to.e2[0] + ny * to.e2[1] + nz * to.e2[2],
                nx * to.e1[0] + ny * to.e1[1] + nz * to.e1[2]) % TWO_PI


# Ids (servicer, target and sequence ids, or an attempt's beta, count,
# draws and genes) that the keys of each of the route, insertion and
# attempt memos may hold in all; a memo empties itself when an insert
# would go past it. A route or insertion key holds at most MAX_TARGETS + 2
# ids and an attempt key 2 * MAX_TARGETS + MAX_SERVICERS + 1; a key longer
# than the budget would be kept alone.
_MEMO_ID_BUDGET = 4_000_000
# Entries at which the leg-pair memo, whose entries have a fixed size,
# empties itself.
_PAIR_CAP = 300_000
SLACK_RULES = ("largest", "smallest")


class _LegModel:
    """What the engine and ``evaluate_plan`` read of every leg model: the
    scenario, its servicer ids, deadline, repairs and budgets, the weights
    ``phi`` and ``gamma``, the route score and the plan sums. ``CostModel``
    and the Lambert model in ``search`` define ``allocate`` and ``fly``,
    reading each orbit from ``_orbits``, by ``("S", sid)`` or target id."""

    def __init__(self, scenario: Scenario, phi: float, gamma: float):
        _check_weights(phi, gamma)
        self.scenario = scenario
        self.phi = phi
        self.gamma = gamma
        self.deadline = scenario.deadline
        self.servicer_ids = tuple(s.id for s in scenario.servicers)
        self._orbits = {("S", s.id): s.orbit for s in scenario.servicers}
        self._orbits.update({t.id: t.orbit for t in scenario.targets})
        self._td = {t.id: t.repair_duration for t in scenario.targets}
        self._budget = {s.id: s.dv_budget for s in scenario.servicers}

    def _score(self, servicer_id: int, dv: float, p1: float):
        """(penalized fitness, delta-v m/s, deadline violation s, budget
        excess m/s) of a route of servicer ``servicer_id``."""
        p2 = max(dv - self._budget[servicer_id], 0.0)
        return penalized_fitness(dv, p1, p2, self.phi, self.gamma), dv, p1, p2

    def _plan_sums(self, scores):
        """(fitness, total_dv, p1 seconds, p2 m/s, feasible) of a plan from
        its routes' ``_score`` tuples, each term added left to right in
        route order, as the search adds up a chromosome."""
        fitness = 0.0
        total_dv = 0.0
        p1 = 0.0
        p2 = 0.0
        for score, dv, r_p1, r_p2 in scores:
            fitness += score
            total_dv += dv
            p1 += r_p1
            p2 += r_p2
        return fitness, total_dv, p1, p2, (p1 == 0.0 and p2 == 0.0)


class CostModel(_LegModel):
    """The mixed leg model: scalar per-leg transfer costs under one pricing
    policy, with memos of priced routes and of insertion scans.

    The policy is fixed at construction: ``slack_rule`` ('largest' or
    'smallest') picks the leg that ``allocate`` tops up, and ``phi`` and
    ``gamma`` weigh the deadline and budget penalties of every score.

    ``route_geometry`` (coast to the nearest plane-intersection point,
    signed phase gap at that point) and ``_route_cost`` (phasing burns,
    combined first impulse, phase time) are the one per-leg kernel, one
    loop per route, reading each leg pair's static geometry from
    ``_pairs``. The geometry is a list of ``(coast, theta, dv1, s_half,
    td)`` leg records, with the left sums of the coasts and of the repair
    times; ``_allocate`` and ``_route_cost`` read the records as they
    are, and ``fly`` and ``exhaustive_solve`` price one leg as the
    one-record route ``legs[q:q + 1]``. Every expression keeps its IEEE
    operation order, so a rewrite for speed must leave each float
    bit-identical. A route's geometry is simulated at one revolution
    per leg and serves every revolution allocation, which is exact because
    changing a leg's revolution count shifts all later departure phases by
    whole periods.

    ``priced_score`` memoizes, under the flat key ``(servicer, *sequence)``,
    a route's penalized score on its ``allocate`` revolutions as one float,
    negated when the route misses the deadline or the budget, so each
    route's geometry is built and allocated once in a search. A score is
    never negative, so its sign bit is free; it is read with
    ``math.copysign``, since an infeasible route can score 0.0, stored as
    -0.0. ``allocate`` prices a reported route afresh for its revolutions.

    ``insertion_scan`` memoizes, per (servicer, target, sequence), the
    cheapest slots for that target in that route as one flat tuple; a scan
    that ``search.repair`` stops early, at a slot that shows the target
    cannot be the round's pick, stores nothing. ``insertion_bound`` reads
    a target's upper bound from that memo alone.
    ``attempt_outcome`` memoizes the outcome of one LNS destroy/repair
    attempt under the flat key ``(beta, removal count, *draws,
    *chromosome)`` that ``search.lns_improve`` builds: the plan's
    chromosome if the repaired plan beats it, else ``()``. Destroy reads
    only the key and this model's pair costs, and repair and the fitnesses
    only the two memos above, whose values depend on their keys alone, so
    a hit is the outcome the attempt would give again. The three memos are
    capped by the ids their keys hold, their summed length: each empties
    itself when an insert would take it past ``_MEMO_ID_BUDGET``.
    ``_pairs``, the leg-pair memo, empties itself when an insert would take
    it past ``_PAIR_CAP`` entries, so every reader gets a pair from it or
    builds one with ``_pair``. ``pair_cost_table`` tables the normalized
    target-pair costs that LNS relatedness reads, once per ``beta``.
    """

    def __init__(self, scenario: Scenario, slack_rule: str = "largest",
                 phi: float = DEFAULT_PHI, gamma: float = DEFAULT_GAMMA):
        if slack_rule not in SLACK_RULES:
            raise ValueError("slack_rule must be 'largest' or 'smallest'")
        super().__init__(scenario, phi, gamma)
        self.slack_rule = slack_rule
        self._pairs: dict = {}
        self._priced: dict = {}
        self._priced_ids = 0
        self._insertions: dict = {}
        self._insertion_ids = 0
        self._attempts: dict = {}
        self._attempt_ids = 0
        self._max_revs = max(1, math.ceil(scenario.deadline / GEO.t_geo) - 1)
        self._pair_costs: dict = {}

    # -- the per-leg kernel --------------------------------------------------

    def _pair(self, from_key, to_id) -> _Pair:
        """Build and keep the geometry of one (from, to) pair, emptying
        ``_pairs`` first when it is full; callers look in ``_pairs`` first,
        so each pair is built once until the memo empties."""
        p = _Pair(self._orbits[from_key], self._orbits[to_id])
        if len(self._pairs) >= _PAIR_CAP:
            self._pairs.clear()
        self._pairs[(from_key, to_id)] = p
        return p

    def route_geometry(self, servicer_id: int, seq):
        """``(legs, sum_coast, sum_td)`` of a route flown at one revolution
        per leg: one ``(coast, theta, dv1, s_half, td)`` record per leg,
        and the left sums of its coasts and of its repair times.

        Each leg coasts to the nearer plane-intersection point; its gap is
        measured from the target to that point, prograde in the target
        plane, and folded into (-pi, pi]: the theta of the phasing-orbit
        equations. Coplanar legs do not coast; their gap is the folded
        difference of the two longitudes, which does not change in time.
        ``dv1`` and ``s_half`` are the leg pair's plane-change impulse and
        sin(alpha/2), and ``td`` the target's repair time.
        """
        pairs = self._pairs
        td_of = self._td
        n = GEO.mean_motion
        t_geo = GEO.t_geo
        pi = math.pi
        legs = []
        sum_coast = 0.0
        sum_td = 0.0
        t = 0.0
        from_key = ("S", servicer_id)
        for tid in seq:
            p = pairs.get((from_key, tid)) or self._pair(from_key, tid)
            if p.degenerate:
                coast = 0.0
                theta = p.lam_diff
            else:
                za = (p.psi_from - (p.u0_from + n * t)) % TWO_PI
                zb = (za + pi) % TWO_PI
                if za <= zb:
                    coast = za / TWO_PI * t_geo
                    u_node = p.psi_to
                else:
                    coast = zb / TWO_PI * t_geo
                    u_node = p.psi_to + pi
                theta = (u_node - (p.u0_to + n * (t + coast))) % TWO_PI
                if theta > pi:
                    theta -= TWO_PI
            td = td_of[tid]
            legs.append((coast, theta, p.dv1, p.s_half, td))
            sum_coast += coast
            sum_td += td
            t = t + coast + ((TWO_PI + theta) / TWO_PI) * t_geo + td
            from_key = tid
        return legs, sum_coast, sum_td

    def _route_cost(self, legs, revs):
        """(delta-v m/s, deadline-violation seconds, end time s) of a route's
        leg records, from ``route_geometry``, flown on ``revs``.

        Each leg closes its gap theta in k revolutions on a phasing ellipse
        of semimajor axis a = r_geo * (span / (2 pi k))**(2/3), where
        span = 2 pi k + theta, and spends span / 2 pi periods on it. Its
        two tangential burns are equal; the first combines with the plane
        change dv1 at the angle whose cosine is sign(theta) * sin(alpha/2),
        which collapses the law of cosines to a scalar expression.
        """
        t = 0.0
        dv = 0.0
        p1 = 0.0
        deadline = self.deadline
        t_geo = GEO.t_geo
        r = GEO.r_geo
        burn_scale = 1000.0 * _SQRT_MU
        two_over_r = _TWO_OVER_R
        inv_sqrt_r = _INV_SQRT_R
        sqrt = math.sqrt
        for (coast, theta, dv1, s_half, td), k in zip(legs, revs,
                                                       strict=True):
            span = TWO_PI * k + theta
            a = r * (span / (TWO_PI * k)) ** (2.0 / 3.0)
            half = burn_scale * abs(sqrt(two_over_r - 1.0 / a) - inv_sqrt_r)
            if dv1 == 0.0:
                dv += 2.0 * half
            else:
                sgn = 1.0 if theta > 0.0 else (-1.0 if theta < 0.0 else 0.0)
                dv += sqrt(dv1 * dv1 + half * half
                           + 2.0 * dv1 * half * sgn * s_half) + half
            t = t + coast + (span / TWO_PI) * t_geo + td
            if t > deadline:
                p1 += t - deadline
        return dv, p1, t

    def fly(self, route: Route) -> list[LegDetail]:
        """The reported legs of ``route``, which ``evaluate_plan`` checked.

        Each leg is the one the kernel priced: ``rendezvous_mixed`` turns
        its coast and phase gap from ``route_geometry``, read once for the
        route, into impulses and times, at the price ``_route_cost`` gives
        the leg alone. Each leg departs at the completion of the repair
        before it, arrival plus repair, as the kernel's clock has it.
        """
        sid, seq = route.servicer_id, route.target_sequence
        legs, _, _ = self.route_geometry(sid, seq)
        from_key = ("S", sid)
        departure = self._orbits[from_key]
        t = 0.0
        flown = []
        for q, (tid, k) in enumerate(zip(seq, route.revolutions)):
            target = self._orbits[tid]
            coast, theta, _, _, td = legs[q]
            pair = (self._pairs.get((from_key, tid))
                    or self._pair(from_key, tid))
            imp1, imp2, t1, t2, phase = rendezvous_mixed(
                departure, target, t, coast, theta, pair.alpha, k)
            completion = t2 + td
            flown.append(LegDetail(
                sid, tid, imp1, imp2, t, t1, t2, completion, coast, phase,
                self._route_cost(legs[q:q + 1], (k,))[0]))
            t = completion
            from_key, departure = tid, target
        return flown

    # -- route-level evaluation ----------------------------------------------

    def route_metrics(self, servicer_id: int, seq, revs):
        """(delta-v m/s, deadline-violation seconds, end time s) of a route."""
        return self._route_cost(self.route_geometry(servicer_id, seq)[0],
                                revs)

    def route_score(self, servicer_id: int, seq, revs):
        """Route contribution to plan fitness (penalties included), as
        ``(score, dv, p1, p2)``."""
        dv, p1, _ = self.route_metrics(servicer_id, seq, revs)
        return self._score(servicer_id, dv, p1)

    def priced_score(self, servicer_id: int, seq) -> float:
        """The route memo's value for a route on its ``allocate``
        revolutions: the score of ``route_score``, negated unless the route
        meets the deadline and the budget. ``abs`` gives the score, and
        ``math.copysign(1.0, value) > 0.0`` whether it is feasible, also
        for a zero score. A miss prices the route by ``_allocate``; an
        empty route scores 0.0."""
        key = (servicer_id, *seq)
        hit = self._priced.get(key)
        if hit is None:
            hit = 0.0
            if seq:
                _, (dv, p1, _) = self._allocate(
                    *self.route_geometry(servicer_id, seq))
                score, _, p1, p2 = self._score(servicer_id, dv, p1)
                hit = score if p1 == 0.0 and p2 == 0.0 else -score
            self._priced_ids += len(key)
            if self._priced_ids > _MEMO_ID_BUDGET:
                self._priced.clear()
                self._priced_ids = len(key)
            self._priced[key] = hit
        return hit

    def insertion_scan(self, servicer_id: int, seq, target_id: int,
                       bar: float = -math.inf, tie_stops: bool = False):
        """Cheapest slots for ``target_id`` in one route, from the memo.

        Each slot's route and ``seq`` itself are priced by ``priced_score``,
        and a slot's delta is the difference of their penalized fitnesses.
        Returns ``(feasible delta, slot, penalized delta, slot)``: the first
        slot of least delta among those whose route meets the deadline and
        the budget (``None, None`` if no slot does) and the first of least
        delta among all slots.

        A scan that is not in the memo stops at the first feasible slot
        whose delta is below ``bar``, or equal to it when ``tie_stops``,
        and returns ``None`` without storing an entry: that delta bounds the
        target's insertion cost from above, and ``search.repair`` only needs
        to know that it falls short of ``bar``.
        """
        key = (servicer_id, target_id, *seq)
        hit = self._insertions.get(key)
        if hit is None:
            seq = tuple(seq)
            copysign = math.copysign
            old_score = abs(self.priced_score(servicer_id, seq))
            best = best_slot = best_pen = pen_slot = None
            for pos in range(len(seq) + 1):
                value = self.priced_score(
                    servicer_id, seq[:pos] + (target_id,) + seq[pos:])
                delta = abs(value) - old_score
                if copysign(1.0, value) > 0.0:
                    if delta < bar or tie_stops and delta == bar:
                        return None
                    if best is None or delta < best:
                        best, best_slot = delta, pos
                if best_pen is None or delta < best_pen:
                    best_pen, pen_slot = delta, pos
            hit = (best, best_slot, best_pen, pen_slot)
            self._insertion_ids += len(key)
            if self._insertion_ids > _MEMO_ID_BUDGET:
                self._insertions.clear()
                self._insertion_ids = len(key)
            self._insertions[key] = hit
        return hit

    def insertion_bound(self, target_id: int, seqs) -> float:
        """The least feasible delta that the insertion memo holds for
        ``target_id`` over ``seqs``, one target sequence per servicer:
        an upper bound of the target's insertion cost, exact when every
        route is in the memo, and ``inf`` when the memo holds none. Prices
        nothing."""
        memo = self._insertions
        bound = math.inf
        for sid, seq in zip(self.servicer_ids, seqs):
            hit = memo.get((sid, target_id, *seq))
            if hit is not None and hit[0] is not None and hit[0] < bound:
                bound = hit[0]
        return bound

    def attempt_outcome(self, key, attempt):
        """The attempt memo's value for ``key``, one LNS destroy/repair
        attempt: ``attempt()``, called on a miss only and stored. The
        caller keys the attempt on everything its outcome reads besides
        this model's exact memos, so the value depends on its key alone.
        """
        hit = self._attempts.get(key)
        if hit is None:
            hit = attempt()
            self._attempt_ids += len(key)
            if self._attempt_ids > _MEMO_ID_BUDGET:
                self._attempts.clear()
                self._attempt_ids = len(key)
            self._attempts[key] = hit
        return hit

    # -- revolution allocation (one-pass heuristic) ---------------------------

    def allocate(self, servicer_id: int, seq):
        """Per-leg revolution counts for a route under the mission deadline.

        Splits the time left after repairs and coasts into whole orbital
        periods, spreads them evenly over the legs (at least one each), and
        tops up a single leg with whatever slack remains. By default the
        top-up goes to the leg with the largest folded phase gap, where an
        extra revolution saves the most delta-v; the model's
        ``slack_rule='smallest'`` selects the opposite reading.

        The even split counts whole periods only, so when the phase-gap
        fractions outweigh the fractional budget it can run past the
        deadline even though a smaller count is feasible; a trim pass
        removes revolutions (smallest gap first, where the delta-v increase
        is least) until the route fits or every leg is at one.
        """
        if not seq:
            return []
        return self._allocate(*self.route_geometry(servicer_id, seq))[0]

    def _allocate(self, legs, sum_coast: float, sum_td: float):
        """``allocate`` on a route's ``route_geometry``; returns the
        revolutions and their ``_route_cost``. The base, trim and top-up
        steps look at end times only, each added up in ``_route_cost``'s
        order, so the route is costed once, on the final revolutions.
        """
        n_legs = len(legs)
        n_max = self._max_revs
        deadline = self.deadline
        t_geo = GEO.t_geo
        t_phase_budget = deadline - sum_td - sum_coast
        pieces = math.floor(t_phase_budget / t_geo)
        base = min(max(pieces // n_legs, 1), n_max)
        revs = [base] * n_legs
        trim_order = None
        while True:
            t = 0.0
            for (coast, theta, _, _, td), k in zip(legs, revs):
                t = t + coast + ((TWO_PI * k + theta) / TWO_PI) * t_geo + td
            if not t > deadline:
                break
            if trim_order is None:
                # At one revolution a leg no leg can lose one; a late
                # route's slack is negative, so the top-up adds nothing.
                if base == 1:
                    break
                trim_order = sorted(range(n_legs),
                                    key=lambda q: (abs(legs[q][1]), q))
            cut = next((q for q in trim_order if revs[q] > 1), None)
            if cut is None:
                break
            revs[cut] -= 1
        if trim_order is None:  # the even split meets the deadline
            slack = deadline - t
            if slack > 0.0:
                extra = math.floor(slack / t_geo)
                if extra >= 1:
                    # Ties go to the first leg of the largest gap, or to
                    # the last leg of the smallest.
                    gaps = [abs(leg[1]) for leg in legs]
                    if self.slack_rule == "largest":
                        pick = gaps.index(max(gaps))
                    else:
                        pick = n_legs - 1 - gaps[::-1].index(min(gaps))
                    revs[pick] = min(revs[pick] + extra, n_max)
        return revs, self._route_cost(legs, revs)

    # -- plan-level ----------------------------------------------------------

    def plan_metrics(self, plan: MissionPlan):
        """(fitness, total_dv, p1 seconds, p2 m/s, feasible) of a plan."""
        return self._plan_sums(
            self.route_score(r.servicer_id, r.target_sequence, r.revolutions)
            for r in plan.routes)

    def plan_fitness(self, seqs) -> float:
        """``plan_metrics`` fitness of one target sequence per servicer, in
        ``scenario.servicers`` order, each on its ``allocate`` revolutions
        from the route memo."""
        return _left_sum(map(abs, map(self.priced_score, self.servicer_ids,
                                      seqs)))

    # -- static target-pair geometry (destroy-operator relatedness) -----------

    def target_pair_cost(self, i: int, j: int, beta: float) -> float:
        """Orbit-difference proxy: beta*|dihedral| + (1-beta)*|phase gap|,
        from the leg pair in ``_pairs`` or from one built for this call and
        not kept, so the table keeps no pair that no route flew."""
        p = (self._pairs.get((i, j))
             or _Pair(self._orbits[i], self._orbits[j]))
        return beta * abs(p.alpha) + (1.0 - beta) * abs(p.lam_diff)

    def pair_cost_table(self, beta: float) -> list[list[float]]:
        """``table[i][j]``: ``target_pair_cost(i, j, beta)`` over its
        maximum across target pairs (0 when that maximum is 0), for every
        two distinct target ids; built once per ``beta``, one pair cost
        per ordered pair, the maximum taken over the unordered ones."""
        table = self._pair_costs.get(beta)
        if table is None:
            ids = [t.id for t in self.scenario.targets]
            table = [[0.0] * (len(ids) + 1) for _ in range(len(ids) + 1)]
            for i in ids:
                for j in ids:
                    if i != j:
                        table[i][j] = self.target_pair_cost(i, j, beta)
            c_max = max((table[i][j]
                         for i, j in itertools.combinations(ids, 2)),
                        default=0.0)
            for row in table:
                for j, c in enumerate(row):
                    row[j] = c / c_max if c_max > 0.0 else 0.0
            self._pair_costs[beta] = table
        return table


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def evaluate_plan(scenario: Scenario, plan: MissionPlan,
                  model: _LegModel | None = None) -> Evaluation:
    """Penalized fitness of a complete plan, each route flown once by
    ``model.fly``, which returns the route's ``LegDetail``s in order, and
    scored by ``model``'s own policy.

    ``model``, by default ``CostModel(scenario)``, is the leg model that
    priced the plan, built on ``scenario``. Each servicer departs at the
    epoch; the final move to a parking orbit is free and not simulated. A
    route's delta-v and deadline violation are the left sums of its legs'
    ``total_dv`` and ``max(completion - deadline, 0)``. ``model._score``
    scores each route and ``model._plan_sums`` adds the scores up, as
    ``plan_metrics`` does, so on mixed legs the two agree to the last bit."""
    if model is None:
        model = CostModel(scenario)
    elif model.scenario != scenario:
        raise ValueError("the model was built on another scenario")
    plan.validate_against(scenario)
    details = []
    scores = []
    route_dv = {}
    for route in plan.routes:
        flown = model.fly(route)
        details.extend(flown)
        dv = _left_sum(leg.total_dv for leg in flown)
        late = _left_sum(max(leg.completion_time - scenario.deadline, 0.0)
                         for leg in flown)
        scores.append(model._score(route.servicer_id, dv, late))
        route_dv[route.servicer_id] = dv
    fitness, total_dv, p1, p2, feasible = model._plan_sums(scores)
    return Evaluation(leg_details=details,
                      per_servicer_dv=[route_dv.get(s.id, 0.0)
                                       for s in scenario.servicers],
                      total_dv=total_dv, deadline_penalty=p1,
                      budget_penalty=p2, fitness=fitness, feasible=feasible)


def exhaustive_solve(scenario: Scenario, max_revolutions: int,
                     phi: float = DEFAULT_PHI, gamma: float = DEFAULT_GAMMA
                     ) -> tuple[MissionPlan, Evaluation]:
    """Brute-force optimum over assignments, orderings and revolutions.

    Guarded to at most 5 targets, 5 servicers and 6 revolutions per leg,
    since it scans all n^m assignments of m targets to n servicers. The
    penalized fitness decomposes per route, so each (servicer, target
    subset) is minimized once over every ordering and revolution tuple and
    assignments are scanned over the per-route optima.
    """
    _check_positive_int("max_revolutions", max_revolutions)
    m = len(scenario.targets)
    n = len(scenario.servicers)
    if m > 5 or n > 5 or max_revolutions > 6:
        raise InstanceTooLarge(
            f"{m} targets / {n} servicers / {max_revolutions} revolutions "
            "exceed oracle guards (5 targets, 5 servicers, 6 revolutions)")
    model = CostModel(scenario, phi=phi, gamma=gamma)
    sids = [s.id for s in scenario.servicers]
    tids = [t.id for t in scenario.targets]
    rev_range = range(1, max_revolutions + 1)

    best_route: dict = {}

    def solve_route(sid: int, subset: frozenset):
        key = (sid, subset)
        hit = best_route.get(key)
        if hit is not None:
            return hit
        if not subset:
            best = (0.0, (), ())
        else:
            best = None
            for perm in itertools.permutations(sorted(subset)):
                legs, _, _ = model.route_geometry(sid, perm)
                # Per-leg (delta-v, phase time) tables make the revolution
                # scan cheap. A leg priced as a one-leg route is exact: its
                # sum starts at 0.0, and 0.0 + x == x. The clock adds each
                # leg's coast, phase time and repair in the kernel's order.
                tab = [[(model._route_cost(legs[q:q + 1], (k,))[0],
                         phasing_solution(legs[q][1], k)[0])
                        for k in rev_range] for q in range(len(perm))]
                deadline = model.deadline
                for revs in itertools.product(rev_range, repeat=len(perm)):
                    dv = 0.0
                    t = 0.0
                    p1 = 0.0
                    for (coast, _, _, _, td), row, k in zip(legs, tab,
                                                            revs):
                        leg_dv, phase = row[k - 1]
                        dv += leg_dv
                        t = t + coast + phase + td
                        if t > deadline:
                            p1 += t - deadline
                    score = model._score(sid, dv, p1)[0]
                    if best is None or score < best[0]:
                        best = (score, perm, revs)
        best_route[key] = best
        return best

    best_total = None
    for assign in itertools.product(sids, repeat=m):
        subsets = {sid: [] for sid in sids}
        for tid, sid in zip(tids, assign):
            subsets[sid].append(tid)
        total = 0.0
        parts = []
        for sid in sids:
            score, perm, revs = solve_route(sid, frozenset(subsets[sid]))
            total += score
            parts.append((sid, perm, revs))
        if best_total is None or total < best_total[0]:
            best_total = (total, parts)

    plan = MissionPlan([Route(sid, list(perm), list(revs))
                        for sid, perm, revs in best_total[1]])
    return plan, evaluate_plan(scenario, plan, model)
