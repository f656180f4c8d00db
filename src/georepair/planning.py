"""Mission data model, plan evaluation and the revolution-allocation heuristic.

A mission plan assigns every target to exactly one servicer route and fixes
the phasing revolution count of every leg. Plans are scored by a penalized
fitness: total delta-v (m/s) plus weighted penalties for finishing repairs
after the deadline and for exceeding per-servicer delta-v budgets;
``penalized_fitness`` is the one place that formula is written.

``evaluate_route``/``evaluate_plan`` are the only code that builds an
``Evaluation``. They fly every leg as a vector transfer, carrying impulse
vectors for schedule output, and take the leg model as an argument: the
default is the mixed rendezvous on the route's revolution counts, and the
Lambert baseline in ``search`` passes its own two-impulse leg.
``CostModel`` is a scalar engine for the mixed model used inside search
loops. Coast times and phase gaps are invariant under whole-revolution
shifts of earlier legs, so one simulation of a route with every leg at one
revolution serves any revolution allocation. A model prices under one
policy, the allocator's slack rule and the penalty weights phi and gamma,
fixed when it is built, and keeps two bounded memos under it. The route
memo prices each (servicer, sequence) once: the route is simulated,
allocated on end times alone and costed once, and the allocator, the LNS
insertion scan and the GA's route scoring all read it. The insertion memo
scans each (route contents, target) pair once for its cheapest slots, so
LNS repair reuses a scan across repair rounds, attempts and generations.
The engine agrees with ``evaluate_plan`` to float precision and a test
pins that agreement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timezone

from .astro import (
    COPLANAR_TOL,
    GEO,
    TWO_PI,
    CartesianState,
    GeoOrbit,
    PhysicalConstants,
    RendezvousSolution,
    fold_angle,
    orbit_to_state,
    rendezvous_mixed,
)

DEFAULT_PHI = 1.0     # fitness per minute of deadline violation
DEFAULT_GAMMA = 10.0  # fitness per m/s of budget excess


def penalized_fitness(dv: float, p1: float, p2: float, phi: float,
                      gamma: float) -> float:
    """Delta-v (m/s) plus ``phi`` per minute of the deadline violation
    ``p1`` (s) plus ``gamma`` per m/s of the budget excess ``p2``."""
    return dv + phi * (p1 / 60.0) + gamma * p2


class InstanceTooLarge(Exception):
    """The exhaustive oracle refuses instances beyond its guard rails."""


@dataclass
class Target:
    id: int
    name: str
    orbit: GeoOrbit
    repair_duration: float  # s

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("target ids start at 1")
        if self.repair_duration < 0.0:
            raise ValueError("repair_duration must be non-negative")


@dataclass
class Servicer:
    id: int
    name: str
    orbit: GeoOrbit
    dv_budget: float  # m/s

    def __post_init__(self):
        if self.dv_budget <= 0.0:
            raise ValueError("dv_budget must be positive")


@dataclass
class Scenario:
    """Immutable mission description: fleet, targets, deadline, constants."""

    epoch: datetime
    deadline: float  # s since epoch
    servicers: list[Servicer]
    targets: list[Target]
    constants: PhysicalConstants = GEO
    spec: object = None  # original file-format record, kept for exact saves

    def __post_init__(self):
        if self.epoch.tzinfo is None:
            self.epoch = self.epoch.replace(tzinfo=timezone.utc)
        if self.deadline <= 0.0:
            raise ValueError("deadline must be positive")
        if not self.servicers or not self.targets:
            raise ValueError("need at least one servicer and one target")
        if sorted(t.id for t in self.targets) != list(range(1, len(self.targets) + 1)):
            raise ValueError("target ids must be 1..m, unique and contiguous")
        if sorted(s.id for s in self.servicers) != list(range(1, len(self.servicers) + 1)):
            raise ValueError("servicer ids must be 1..n, unique and contiguous")
        self._target_by_id = {t.id: t for t in self.targets}
        self._servicer_by_id = {s.id: s for s in self.servicers}

    def target(self, tid: int) -> Target:
        return self._target_by_id[tid]

    def servicer(self, sid: int) -> Servicer:
        return self._servicer_by_id[sid]


@dataclass
class Route:
    """One servicer's ordered targets and per-leg revolution counts."""

    servicer_id: int
    target_sequence: list[int]
    revolutions: list[int]

    def validate(self):
        if len(self.target_sequence) != len(set(self.target_sequence)):
            raise ValueError("duplicate targets in route")
        if len(self.revolutions) != len(self.target_sequence):
            raise ValueError("revolutions must match sequence length")
        if any(n < 1 for n in self.revolutions):
            raise ValueError("every revolution count must be >= 1")

    def copy(self) -> "Route":
        return Route(self.servicer_id, list(self.target_sequence),
                     list(self.revolutions))


@dataclass
class MissionPlan:
    routes: list[Route]

    def copy(self) -> "MissionPlan":
        return MissionPlan([r.copy() for r in self.routes])

    def covered_targets(self) -> list[int]:
        out = []
        for r in self.routes:
            out.extend(r.target_sequence)
        return out

    def route_of(self, tid: int) -> int:
        for r in self.routes:
            if tid in r.target_sequence:
                return r.servicer_id
        raise KeyError(tid)

    def validate_against(self, scenario: Scenario):
        for r in self.routes:
            r.validate()
        covered = self.covered_targets()
        expected = sorted(t.id for t in scenario.targets)
        if sorted(covered) != expected:
            raise ValueError("plan must cover every target exactly once")


@dataclass
class LegDetail:
    servicer_id: int
    target_id: int
    solution: RendezvousSolution
    depart_time: float      # s since epoch, start of the leg
    arrival_time: float     # s since epoch, s_ik
    completion_time: float  # arrival + repair duration


@dataclass
class Evaluation:
    """Penalized fitness of a plan: ``fitness`` is
    ``penalized_fitness(total_dv, deadline_penalty, budget_penalty, phi,
    gamma)``."""

    leg_details: list[LegDetail]
    per_servicer_dv: list[float]
    total_dv: float
    deadline_penalty: float  # s
    budget_penalty: float    # m/s
    fitness: float
    feasible: bool
    phi: float = DEFAULT_PHI
    gamma: float = DEFAULT_GAMMA


# ---------------------------------------------------------------------------
# Chromosome encoding
# ---------------------------------------------------------------------------

def validate_chromosome(genes, m: int, n: int):
    """Raise unless ``genes`` is a permutation of 1..m+n-1."""
    length = m + n - 1
    if len(genes) != length or set(genes) != set(range(1, length + 1)):
        raise ValueError(f"genes must be a permutation of 1..{length}")


def decode(genes, m: int, n: int) -> list[list[int]]:
    """Split a permutation chromosome into per-servicer target sequences.

    Values 1..m are target ids; the n-1 larger values are split genes that
    partition the string positionally into n (possibly empty) fragments.
    """
    validate_chromosome(genes, m, n)
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

class _Body:
    __slots__ = ("u0", "lam0", "e1", "e2", "h")

    def __init__(self, orbit: GeoOrbit):
        co, so = math.cos(orbit.raan), math.sin(orbit.raan)
        ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
        self.u0 = orbit.arg_lat0
        self.lam0 = orbit.raan + orbit.arg_lat0
        self.e1 = (co, so, 0.0)
        self.e2 = (-so * ci, co * ci, si)
        self.h = (so * si, -co * si, ci)


class _Pair:
    __slots__ = ("degenerate", "alpha", "dv1", "s_half", "psi_from", "psi_to",
                 "lam_diff")

    def __init__(self, frm: _Body, to: _Body, v_geo: float):
        hf, ht = frm.h, to.h
        cx = hf[1] * ht[2] - hf[2] * ht[1]
        cy = hf[2] * ht[0] - hf[0] * ht[2]
        cz = hf[0] * ht[1] - hf[1] * ht[0]
        cn = math.sqrt(cx * cx + cy * cy + cz * cz)
        dot = hf[0] * ht[0] + hf[1] * ht[1] + hf[2] * ht[2]
        self.alpha = math.atan2(cn, dot)
        self.degenerate = self.alpha < COPLANAR_TOL
        if self.degenerate:
            self.dv1 = 0.0
            self.s_half = 0.0
            self.psi_from = 0.0
            self.psi_to = 0.0
            self.lam_diff = fold_angle(frm.lam0 - to.lam0)
        else:
            nx, ny, nz = cx / cn, cy / cn, cz / cn
            self.s_half = math.sin(self.alpha / 2.0)
            self.dv1 = 2.0 * v_geo * 1000.0 * self.s_half
            self.psi_from = math.atan2(
                nx * frm.e2[0] + ny * frm.e2[1] + nz * frm.e2[2],
                nx * frm.e1[0] + ny * frm.e1[1] + nz * frm.e1[2]) % TWO_PI
            self.psi_to = math.atan2(
                nx * to.e2[0] + ny * to.e2[1] + nz * to.e2[2],
                nx * to.e1[0] + ny * to.e1[1] + nz * to.e1[2]) % TWO_PI
            self.lam_diff = 0.0


class _RouteGeom:
    __slots__ = ("coasts", "thetas", "dv1s", "shalves", "tds", "sum_coast",
                 "sum_td")

    def __init__(self, coasts, thetas, dv1s, shalves, tds):
        self.coasts = coasts
        self.thetas = thetas
        self.dv1s = dv1s
        self.shalves = shalves
        self.tds = tds
        self.sum_coast = sum(coasts)
        self.sum_td = sum(tds)


_ROUTE_CACHE_CAP = 400_000
_SLACK_RULES = ("largest", "smallest")
_EMPTY_ROUTE = ((), 0.0, 0.0, 0.0)


class CostModel:
    """Scalar per-leg transfer costs under one pricing policy, with memos of
    priced routes and of insertion scans.

    The policy is fixed at construction: ``slack_rule`` ('largest' or
    'smallest') picks the leg that ``allocate`` tops up, and ``phi`` and
    ``gamma`` weigh the deadline and budget penalties of every score.

    Leg geometry (coast to the nearest plane-intersection point, signed
    phase gap at that point) matches ``rendezvous_mixed`` to float
    precision but runs on plain floats. A route's geometry is simulated at
    one revolution per leg and serves every revolution allocation, which is
    exact because changing a leg's revolution count shifts all later
    departure phases by whole periods.

    ``priced_route`` memoizes, per (servicer, sequence), the allocated
    revolutions with their delta-v, deadline violation and end time, so
    each route's geometry is built and allocated once. The memo empties
    itself when it reaches ``_ROUTE_CACHE_CAP`` entries. ``route_metrics``
    answers from it when given the memoized revolutions and computes any
    other allocation fresh.

    ``insertion_scan`` memoizes, per route contents (servicer, sequence,
    revolutions) and target, the cheapest slots for that target in that
    route; it empties itself at the same cap. ``pair_cost_table`` tables
    the normalized target-pair costs that LNS relatedness reads, once per
    ``beta``.
    """

    def __init__(self, scenario: Scenario, slack_rule: str = "largest",
                 phi: float = DEFAULT_PHI, gamma: float = DEFAULT_GAMMA):
        if slack_rule not in _SLACK_RULES:
            raise ValueError("slack_rule must be 'largest' or 'smallest'")
        self.scenario = scenario
        self.slack_rule = slack_rule
        self.phi = phi
        self.gamma = gamma
        c = scenario.constants
        self.t_geo = c.t_geo
        self.deadline = scenario.deadline
        self.mean_motion = c.mean_motion
        self._sqrt_mu = math.sqrt(c.mu)
        self._r = c.r_geo
        self._two_over_r = 2.0 / c.r_geo
        self._inv_sqrt_r = math.sqrt(1.0 / c.r_geo)
        v_geo = c.v_geo
        self._bodies = {}
        for s in scenario.servicers:
            self._bodies[("S", s.id)] = _Body(s.orbit)
        for t in scenario.targets:
            self._bodies[t.id] = _Body(t.orbit)
        self._v_geo = v_geo
        self._pairs: dict = {}
        self._priced: dict = {}
        self._insertions: dict = {}
        self._td = {t.id: t.repair_duration for t in scenario.targets}
        self._budget = {s.id: s.dv_budget for s in scenario.servicers}
        self._max_revs = max(1, math.ceil(scenario.deadline / c.t_geo) - 1)
        self._pair_costs: dict = {}

    # -- leg geometry -------------------------------------------------------

    def _pair(self, from_key, to_id) -> _Pair:
        key = (from_key, to_id)
        p = self._pairs.get(key)
        if p is None:
            p = _Pair(self._bodies[from_key], self._bodies[to_id], self._v_geo)
            self._pairs[key] = p
        return p

    def leg_geometry(self, from_key, to_id, t_dep: float):
        """Coast duration and signed phase gap for one leg.

        The gap is measured from the target to the maneuver point, prograde
        in the target plane: the theta of the phasing-orbit equations.
        """
        p = self._pair(from_key, to_id)
        if p.degenerate:
            return 0.0, p.lam_diff, p
        u_dep = self._bodies[from_key].u0 + self.mean_motion * t_dep
        za = (p.psi_from - u_dep) % TWO_PI
        zb = (za + math.pi) % TWO_PI
        if za <= zb:
            ang, u_node = za, p.psi_to
        else:
            ang, u_node = zb, p.psi_to + math.pi
        coast = ang / TWO_PI * self.t_geo
        t1 = t_dep + coast
        theta = fold_angle(u_node - (self._bodies[to_id].u0
                                     + self.mean_motion * t1))
        return coast, theta, p

    def route_geometry(self, servicer_id: int, seq) -> _RouteGeom:
        """Coasts, phase gaps and repair times of a route flown at one
        revolution per leg."""
        coasts, thetas, dv1s, shalves, tds = [], [], [], [], []
        t = 0.0
        from_key = ("S", servicer_id)
        for tid in seq:
            coast, theta, p = self.leg_geometry(from_key, tid, t)
            coasts.append(coast)
            thetas.append(theta)
            dv1s.append(p.dv1)
            shalves.append(p.s_half)
            td = self._td[tid]
            tds.append(td)
            t = t + coast + ((TWO_PI + theta) / TWO_PI) * self.t_geo + td
            from_key = tid
        return _RouteGeom(tuple(coasts), tuple(thetas), tuple(dv1s),
                          tuple(shalves), tuple(tds))

    # -- per-leg cost pieces -------------------------------------------------

    def phasing_half_dv(self, theta: float, k: int) -> float:
        """One tangential phasing burn (m/s); half of the full phasing cost."""
        span = TWO_PI * k + theta
        a = self._r * (span / (TWO_PI * k)) ** (2.0 / 3.0)
        return 1000.0 * self._sqrt_mu * abs(
            math.sqrt(self._two_over_r - 1.0 / a) - self._inv_sqrt_r)

    def t_phase(self, theta: float, k: int) -> float:
        return ((TWO_PI * k + theta) / TWO_PI) * self.t_geo

    @staticmethod
    def leg_dv(dv1: float, s_half: float, theta: float, half: float) -> float:
        """Combined first-impulse magnitude plus the recircularization burn.

        The angle between the plane-change and phasing burns satisfies
        cos = sign(theta) * sin(alpha/2), which collapses the law of
        cosines to a scalar expression.
        """
        if dv1 == 0.0:
            return 2.0 * half
        sgn = 1.0 if theta > 0.0 else (-1.0 if theta < 0.0 else 0.0)
        imp1 = math.sqrt(dv1 * dv1 + half * half
                         + 2.0 * dv1 * half * sgn * s_half)
        return imp1 + half

    # -- route-level evaluation ----------------------------------------------

    def _route_cost(self, geom: _RouteGeom, revs):
        """(delta-v m/s, deadline-violation seconds, end time s) of a route's
        geometry flown on ``revs``."""
        t = 0.0
        dv = 0.0
        p1 = 0.0
        deadline = self.deadline
        for q, k in enumerate(revs):
            theta = geom.thetas[q]
            half = self.phasing_half_dv(theta, k)
            dv += self.leg_dv(geom.dv1s[q], geom.shalves[q], theta, half)
            t = t + geom.coasts[q] + self.t_phase(theta, k) + geom.tds[q]
            if t > deadline:
                p1 += t - deadline
        return dv, p1, t

    def route_metrics(self, servicer_id: int, seq, revs):
        """(delta-v m/s, deadline-violation seconds, end time s) of a route."""
        if not seq:
            return 0.0, 0.0, 0.0
        revs = tuple(revs)
        hit = self._priced.get((servicer_id, tuple(seq)))
        if hit is not None and hit[0] == revs:
            return hit[1:]
        return self._route_cost(self.route_geometry(servicer_id, seq), revs)

    def route_score(self, servicer_id: int, seq, revs):
        """Route contribution to plan fitness (penalties included)."""
        dv, p1, _ = self.route_metrics(servicer_id, seq, revs)
        p2 = max(dv - self._budget[servicer_id], 0.0)
        return penalized_fitness(dv, p1, p2, self.phi, self.gamma), dv, p1, p2

    def priced_score(self, servicer_id: int, seq):
        """(revolutions, penalized fitness, feasible) of ``priced_route``;
        feasible means no deadline violation and no budget excess."""
        revs, dv, p1, _ = self.priced_route(servicer_id, seq)
        p2 = max(dv - self._budget[servicer_id], 0.0)
        return (revs, penalized_fitness(dv, p1, p2, self.phi, self.gamma),
                p1 == 0.0 and p2 == 0.0)

    def insertion_scan(self, servicer_id: int, seq, revs, target_id: int):
        """Cheapest slots for ``target_id`` in one route, from the memo.

        Each slot's route is re-allocated through ``priced_route`` and its
        delta is its penalized fitness minus that of ``seq`` flown on
        ``revs``. Returns ``(feasible, penalized)``: the first slot of least
        delta among those whose route meets the deadline and the budget
        (None if no slot does) and the first of least delta among all
        slots, each as ``(delta, (servicer_id, slot))``.
        """
        seq = tuple(seq)
        key = (servicer_id, seq, tuple(revs), target_id)
        hit = self._insertions.get(key)
        if hit is None:
            old_score = self.route_score(servicer_id, seq, revs)[0]
            best = None
            best_pen = None
            for pos in range(len(seq) + 1):
                _, score, feasible = self.priced_score(
                    servicer_id, seq[:pos] + (target_id,) + seq[pos:])
                delta = score - old_score
                # When one slot is both minima, both share one tuple, which
                # keeps memo entries small.
                slot = None
                if feasible and (best is None or delta < best[0]):
                    best = slot = (delta, (servicer_id, pos))
                if best_pen is None or delta < best_pen[0]:
                    best_pen = slot or (delta, (servicer_id, pos))
            hit = (best, best_pen)
            if len(self._insertions) >= _ROUTE_CACHE_CAP:
                self._insertions.clear()
            self._insertions[key] = hit
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
        return list(self.priced_route(servicer_id, seq)[0])

    def priced_route(self, servicer_id: int, seq):
        """(revolutions, delta-v m/s, deadline-violation s, end time s) of a
        route under ``allocate``, from the memo."""
        if not seq:
            return _EMPTY_ROUTE
        key = (servicer_id, tuple(seq))
        hit = self._priced.get(key)
        if hit is None:
            geom = self.route_geometry(servicer_id, seq)
            revs, cost = self._allocate(geom)
            hit = (tuple(revs),) + cost
            if len(self._priced) >= _ROUTE_CACHE_CAP:
                self._priced.clear()
            self._priced[key] = hit
        return hit

    def _end_time(self, geom: _RouteGeom, revs) -> float:
        """End time (s) of ``_route_cost``, accumulated in the same order,
        without the delta-v."""
        t = 0.0
        t_geo = self.t_geo
        for coast, theta, td, k in zip(geom.coasts, geom.thetas, geom.tds,
                                       revs):
            t = t + coast + ((TWO_PI * k + theta) / TWO_PI) * t_geo + td
        return t

    def _allocate(self, geom: _RouteGeom):
        """``allocate`` on a route's geometry; returns the revolutions and
        their ``_route_cost``. The base, trim and top-up steps look at end
        times only, so the route is costed once, on the final revolutions.
        """
        legs = len(geom.thetas)
        n_max = self._max_revs
        deadline = self.deadline
        t_phase_budget = deadline - geom.sum_td - geom.sum_coast
        pieces = math.floor(t_phase_budget / self.t_geo)
        base = min(max(pieces // legs, 1), n_max)
        revs = [base] * legs
        gaps = [abs(th) for th in geom.thetas]
        end = self._end_time(geom, revs)
        if end > deadline:
            trim_order = sorted(range(legs), key=lambda q: (gaps[q], q))
            while end > deadline:
                cut = next((q for q in trim_order if revs[q] > 1), None)
                if cut is None:
                    break
                revs[cut] -= 1
                end = self._end_time(geom, revs)
        else:
            slack = deadline - end
            if slack > 0.0:
                extra = math.floor(slack / self.t_geo)
                if extra >= 1:
                    pick = (max if self.slack_rule == "largest" else min)(
                        range(legs), key=lambda q: (gaps[q], -q))
                    revs[pick] = min(revs[pick] + extra, n_max)
        return revs, self._route_cost(geom, revs)

    # -- plan-level ----------------------------------------------------------

    def plan_metrics(self, plan: MissionPlan):
        """(fitness, total_dv, p1 seconds, p2 m/s, feasible) of a plan."""
        total_dv = 0.0
        p1 = 0.0
        p2 = 0.0
        for route in plan.routes:
            dv, r_p1, _ = self.route_metrics(route.servicer_id,
                                             route.target_sequence,
                                             route.revolutions)
            total_dv += dv
            p1 += r_p1
            p2 += max(dv - self._budget[route.servicer_id], 0.0)
        fitness = penalized_fitness(total_dv, p1, p2, self.phi, self.gamma)
        return fitness, total_dv, p1, p2, (p1 == 0.0 and p2 == 0.0)

    def plan_fitness(self, plan: MissionPlan) -> float:
        return self.plan_metrics(plan)[0]

    # -- static target-pair geometry (destroy-operator relatedness) -----------

    def target_pair_cost(self, i: int, j: int, beta: float) -> float:
        """Orbit-difference proxy: beta*|dihedral| + (1-beta)*|phase gap|."""
        p = self._pair(i, j)
        theta = abs(fold_angle(self._bodies[i].lam0 - self._bodies[j].lam0))
        return beta * abs(p.alpha) + (1.0 - beta) * theta

    def pair_cost_table(self, beta: float) -> list[list[float]]:
        """``table[i][j]``: ``target_pair_cost(i, j, beta)`` over its
        maximum across target pairs (0 when that maximum is 0), for every
        two distinct target ids; built once per ``beta``."""
        table = self._pair_costs.get(beta)
        if table is None:
            ids = [t.id for t in self.scenario.targets]
            c_max = max((self.target_pair_cost(i, j, beta)
                         for i, j in itertools.combinations(ids, 2)),
                        default=0.0)
            table = [[0.0] * (len(ids) + 1) for _ in range(len(ids) + 1)]
            for i in ids:
                for j in ids:
                    if i != j:
                        c = self.target_pair_cost(i, j, beta)
                        table[i][j] = c / c_max if c_max > 0.0 else 0.0
            self._pair_costs[beta] = table
        return table


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def allocate_revolutions(scenario: Scenario, servicer_id: int, sequence,
                         slack_rule: str = "largest") -> list[int]:
    """Revolution counts for one servicer's target sequence (Algorithm-1 style).

    May return an allocation that misses the deadline when the time budget
    is too small; the penalty fitness absorbs that case.
    """
    if not sequence:
        raise ValueError("sequence must be non-empty")
    return CostModel(scenario, slack_rule).allocate(servicer_id, sequence)


@dataclass
class RouteResult:
    legs: list[LegDetail]
    dv: float        # m/s
    end_time: float  # completion of the route's last repair


def mixed_leg(route: Route, q: int, state: CartesianState, orbit: GeoOrbit,
              consts: PhysicalConstants) -> RendezvousSolution:
    """Leg ``q`` of ``route`` as a mixed rendezvous on its revolution count."""
    return rendezvous_mixed(state, orbit, route.revolutions[q], consts)


def evaluate_route(scenario: Scenario, route: Route,
                   leg=mixed_leg) -> RouteResult:
    """Simulate a route leg by leg with a vector transfer model.

    ``leg(route, q, state, orbit, consts)`` flies the route's ``q``-th leg
    from the servicer's ``CartesianState`` at departure to the target
    ``orbit`` and returns its ``RendezvousSolution``, whose ``t2`` is the
    arrival time. The servicer departs its epoch state, repairs each target
    for its repair duration on arrival, and the final move to a parking
    orbit is free and not simulated.
    """
    route.validate()
    servicer = scenario.servicer(route.servicer_id)
    consts = scenario.constants
    legs = []
    dv = 0.0
    state = orbit_to_state(servicer.orbit, 0.0, consts)
    t = 0.0
    for q, tid in enumerate(route.target_sequence):
        target = scenario.target(tid)
        sol = leg(route, q, state, target.orbit, consts)
        arrival = sol.t2
        completion = arrival + target.repair_duration
        legs.append(LegDetail(route.servicer_id, tid, sol, t, arrival,
                              completion))
        dv += sol.total_dv
        state = orbit_to_state(target.orbit, completion, consts)
        t = completion
    return RouteResult(legs=legs, dv=dv, end_time=t)


def evaluate_plan(scenario: Scenario, plan: MissionPlan,
                  phi: float = DEFAULT_PHI, gamma: float = DEFAULT_GAMMA,
                  leg=mixed_leg) -> Evaluation:
    """Penalized fitness of a complete plan, every leg flown by ``leg``
    (see ``evaluate_route``)."""
    plan.validate_against(scenario)
    legs = []
    per_dv = []
    p1 = 0.0
    p2 = 0.0
    for route in plan.routes:
        result = evaluate_route(scenario, route, leg)
        legs.extend(result.legs)
        per_dv.append(result.dv)
        for detail in result.legs:
            p1 += max(detail.completion_time - scenario.deadline, 0.0)
        budget = scenario.servicer(route.servicer_id).dv_budget
        p2 += max(result.dv - budget, 0.0)
    total_dv = sum(per_dv)
    fitness = penalized_fitness(total_dv, p1, p2, phi, gamma)
    return Evaluation(leg_details=legs, per_servicer_dv=per_dv,
                      total_dv=total_dv, deadline_penalty=p1,
                      budget_penalty=p2, fitness=fitness,
                      feasible=(p1 == 0.0 and p2 == 0.0),
                      phi=phi, gamma=gamma)


def exhaustive_solve(scenario: Scenario, max_revolutions: int,
                     phi: float = DEFAULT_PHI, gamma: float = DEFAULT_GAMMA
                     ) -> tuple[MissionPlan, Evaluation]:
    """Brute-force optimum over assignments, orderings and revolutions.

    Guarded to at most 5 targets and 6 revolutions per leg. The penalized
    fitness decomposes per route, so each (servicer, target subset) is
    minimized once over every ordering and revolution tuple and assignments
    are scanned over the per-route optima.
    """
    m = len(scenario.targets)
    if m > 5 or max_revolutions > 6:
        raise InstanceTooLarge(
            f"{m} targets / {max_revolutions} revolutions exceed oracle "
            "guards (5 targets, 6 revolutions)")
    if max_revolutions < 1:
        raise ValueError("max_revolutions must be >= 1")
    model = CostModel(scenario)
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
                geom = model.route_geometry(sid, perm)
                legs = len(perm)
                # Per-leg cost/time tables make the revolution scan cheap.
                dv_tab = [[model.leg_dv(geom.dv1s[q], geom.shalves[q],
                                        geom.thetas[q],
                                        model.phasing_half_dv(geom.thetas[q], k))
                           for k in rev_range] for q in range(legs)]
                tm_tab = [[geom.coasts[q] + model.t_phase(geom.thetas[q], k)
                           + geom.tds[q] for k in rev_range]
                          for q in range(legs)]
                budget = model._budget[sid]
                deadline = model.deadline
                for revs in itertools.product(rev_range, repeat=legs):
                    dv = 0.0
                    t = 0.0
                    p1 = 0.0
                    for q, k in enumerate(revs):
                        dv += dv_tab[q][k - 1]
                        t += tm_tab[q][k - 1]
                        if t > deadline:
                            p1 += t - deadline
                    score = penalized_fitness(dv, p1, max(dv - budget, 0.0),
                                              phi, gamma)
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
    return plan, evaluate_plan(scenario, plan, phi, gamma)
