"""Hybrid large-neighborhood-search adaptive genetic algorithm and baselines.

The solver encodes a mission plan as a permutation chromosome of length
m+n-1: values 1..m are target ids and the larger values split the string
into per-servicer routes. Fitness is minimized; the adaptive-probability
equations from the genetic operators are applied to selection weights
w = 1/(fitness + eps) so their algebra keeps its maximization shape.

Three solvers share one engine: the hybrid LNS-AGA, the plain adaptive GA
(same pipeline minus the LNS hook) and a Lambert-transfer GA baseline that
prices legs with two-impulse Lambert rendezvous instead of the mixed
plane-change/phasing strategy. An adapter per leg model prices routes for
the search. The mixed adapter holds only a ``planning.CostModel``, built
once per solve with the solve's slack rule and penalty weights, and the
LNS operators take that same model, so one pricing policy and one set of
memos serve the whole solve. The Lambert adapter keeps one bounded cache,
of priced legs, and recomputes a route from it. The best plan is then
re-evaluated by ``planning.evaluate_plan``, with the mixed leg or with the
Lambert adapter's leg, which flies each leg at the flight time the search
chose and prices a failed leg as infinite, as the search does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .astro import (
    AstroError,
    RendezvousSolution,
    fold_angle,
    lambert_solve,
    orbit_to_state,
)
from .planning import (
    DEFAULT_GAMMA,
    DEFAULT_PHI,
    CostModel,
    Evaluation,
    MissionPlan,
    Route,
    Scenario,
    decode,
    encode_sequences,
    evaluate_plan,
    penalized_fitness,
)

FITNESS_EPS = 1e-12
RELATEDNESS_EPS = 1e-6

# Entries at which the engine's chromosome cache and the Lambert adapter's
# leg cache empty themselves.
_GENE_CACHE_CAP = 200_000
_LEG_CACHE_CAP = 300_000

# Candidate Lambert leg flight times, as fractions of the GEO period.
DEFAULT_TOF_FRACTIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                         1.0, 1.25, 1.5, 1.75, 2.0)


class AllInfeasible(Exception):
    """No insertion position satisfies the deadline and budget constraints.

    Carries the least-penalty position so callers can still complete the
    plan structurally.
    """

    def __init__(self, best_position, penalized_cost):
        super().__init__("every insertion position is infeasible")
        self.best_position = best_position
        self.penalized_cost = penalized_cost


@dataclass
class GaParams:
    """Adaptive-GA knobs; defaults follow the experimental setup."""

    population_size: int = 100
    min_iterations: int = 100
    stall_iterations: int = 50
    pc_hi: float = 0.9
    pc_lo: float = 0.7
    pm_hi: float = 0.2
    pm_lo: float = 0.01
    phi: float = DEFAULT_PHI
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not (0.0 < self.pc_lo <= self.pc_hi <= 1.0):
            raise ValueError("need 0 < pc_lo <= pc_hi <= 1")
        if not (0.0 < self.pm_lo <= self.pm_hi <= 1.0):
            raise ValueError("need 0 < pm_lo <= pm_hi <= 1")


@dataclass
class LnsParams:
    remove_rate: float = 0.3
    determinism_p: float = 6.0
    beta: float = 0.5
    lns_iterations: int = 2
    elite_fraction: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.remove_rate < 1.0):
            raise ValueError("remove_rate must be in (0, 1)")
        if self.determinism_p < 1.0:
            raise ValueError("determinism_p must be >= 1")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must be in (0, 1)")


@dataclass
class SolveResult:
    best_plan: MissionPlan
    best_evaluation: Evaluation
    history: list  # (best fitness, average fitness) per generation
    generations_run: int
    seed: int


# ---------------------------------------------------------------------------
# Genetic operators
# ---------------------------------------------------------------------------

def init_population(m: int, n: int, size: int, rng: random.Random
                    ) -> list[list[int]]:
    """Uniform random permutation chromosomes for m targets, n servicers."""
    if size < 2:
        raise ValueError("population size must be >= 2")
    length = m + n - 1
    return [rng.sample(range(1, length + 1), length) for _ in range(size)]


def selection_weights(fitnesses) -> list[float]:
    """Minimization fitness mapped to roulette weights w = 1/(F + eps)."""
    return [1.0 / (f + FITNESS_EPS) for f in fitnesses]


def selection(population, fitnesses, rng: random.Random) -> list[int]:
    """Elite-plus-roulette mating pool, returned as population indices.

    Slot 0 unconditionally copies the best (lowest-fitness) chromosome; the
    remaining slots are roulette draws over the cumulative selection
    probabilities of the whole population.
    """
    size = len(population)
    weights = selection_weights(fitnesses)
    total = sum(weights)
    if total <= 0.0 or not math.isfinite(total):
        weights = [1.0] * size
        total = float(size)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    elite = min(range(size), key=lambda i: fitnesses[i])
    pool = [elite]
    for _ in range(size - 1):
        r = rng.random() * total
        lo, hi = 0, size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        pool.append(lo)
    return pool


def adaptive_pc(w_pair_best: float, w_avg: float, w_max: float,
                params: GaParams) -> float:
    """Crossover probability, high for below-average parents."""
    if w_max <= w_avg:
        return params.pc_hi
    if w_pair_best < w_avg:
        return params.pc_hi
    return params.pc_hi - (params.pc_hi - params.pc_lo) * (
        (w_pair_best - w_avg) / (w_max - w_avg))


def adaptive_pm(w_i: float, w_avg: float, w_max: float,
                params: GaParams) -> float:
    """Mutation probability; degenerate populations get the upper bound."""
    if w_max <= w_avg:
        return params.pm_hi
    if w_i < w_avg:
        return params.pm_hi
    return params.pm_hi - (params.pm_hi - params.pm_lo) * (
        (w_max - w_i) / (w_max - w_avg))


def pmx_crossover(a, b, cut1: int, cut2: int) -> tuple[list[int], list[int]]:
    """Partially-mapped crossover: swap [cut1, cut2), repair by the segment
    mapping (chained for values shared between segments)."""
    if not (0 <= cut1 < cut2 <= len(a)):
        raise ValueError("need 0 <= cut1 < cut2 <= length")

    def child(base, seg_src):
        out = list(base)
        out[cut1:cut2] = seg_src[cut1:cut2]
        seg_vals = set(seg_src[cut1:cut2])
        mapping = {seg_src[i]: base[i] for i in range(cut1, cut2)}
        for i in list(range(0, cut1)) + list(range(cut2, len(base))):
            v = out[i]
            while v in seg_vals:
                v = mapping[v]
            out[i] = v
        return out

    return child(a, b), child(b, a)


def swap_positions(c, i: int, j: int) -> list[int]:
    """Exchange two distinct gene sites."""
    if i == j:
        raise ValueError("mutation sites must differ")
    out = list(c)
    out[i], out[j] = out[j], out[i]
    return out


def swap_mutation(c, rng: random.Random) -> list[int]:
    """Swap two uniformly chosen distinct gene sites."""
    i, j = rng.sample(range(len(c)), 2)
    return swap_positions(c, i, j)


# ---------------------------------------------------------------------------
# LNS destroy / repair
# ---------------------------------------------------------------------------

def relatedness(i: int, j: int, plan: MissionPlan, beta: float,
                model: CostModel) -> float:
    """Similarity of two targets: higher for close orbits on one route.

    R = 1 / (C' + V + eps) where C' is the normalized orbit-difference cost
    beta*|dihedral| + (1-beta)*|phase gap| and V is 0 when both targets are
    served by the same route.
    """
    if i == j:
        raise ValueError("relatedness needs two distinct targets")
    return _relatedness(model.pair_cost_table(beta)[i][j],
                        plan.route_of(i) == plan.route_of(j))


def _relatedness(c_norm: float, same_route: bool) -> float:
    return 1.0 / (c_norm + (0.0 if same_route else 1.0) + RELATEDNESS_EPS)


def _remove_target(plan: MissionPlan, tid: int):
    for route in plan.routes:
        if tid in route.target_sequence:
            q = route.target_sequence.index(tid)
            route.target_sequence.pop(q)
            if route.revolutions:
                route.revolutions.pop(q)
            return
    raise KeyError(tid)


def destroy(plan: MissionPlan, params: LnsParams, rng: random.Random,
            model: CostModel) -> tuple[list[int], MissionPlan]:
    """Shaw-style removal: seed with a random target, then repeatedly drop
    the most related remaining target with determinism-p noise.

    Removes ceil(remove_rate * m) targets. Surviving modified routes get
    their revolutions re-allocated. Relatedness is judged against the input
    plan's route assignment.
    """
    pair_cost = model.pair_cost_table(params.beta)
    route_of = {tid: route.servicer_id for route in plan.routes
                for tid in route.target_sequence}
    all_targets = plan.covered_targets()
    count = math.ceil(len(all_targets) * params.remove_rate)
    partial = plan.copy()
    first = rng.choice(all_targets)
    _remove_target(partial, first)
    removed = [first]
    while len(removed) < count:
        remaining = partial.covered_targets()
        row = pair_cost[removed[-1]]
        home = route_of[removed[-1]]
        ranked = sorted(
            remaining,
            key=lambda t: (-_relatedness(row[t], route_of[t] == home), t))
        y = rng.random()
        idx = int(y ** params.determinism_p * len(ranked))
        pick = ranked[min(idx, len(ranked) - 1)]
        _remove_target(partial, pick)
        removed.append(pick)
    for route in partial.routes:
        if route.target_sequence:
            route.revolutions = model.allocate(route.servicer_id,
                                               route.target_sequence)
        else:
            route.revolutions = []
    return removed, partial


def insertion_cost(target_id: int, partial: MissionPlan, model: CostModel
                   ) -> tuple[float, tuple[int, int]]:
    """Cheapest feasible insertion of a target into a partial plan.

    Scans every route and slot, re-allocating revolutions for each modified
    route; positions whose route would violate the deadline or the budget
    count as infinite. Returns (fitness delta, (servicer_id, slot)), the
    first least delta in route and slot order. Raises AllInfeasible,
    carrying the least-penalty position, when nothing is feasible. Each
    route's scan comes from ``CostModel.insertion_scan``, so a route whose
    contents did not change since an earlier call is not scanned again.
    """
    best = None
    best_pen = None
    for route in partial.routes:
        feasible, pen = model.insertion_scan(
            route.servicer_id, route.target_sequence, route.revolutions,
            target_id)
        if feasible is not None and (best is None
                                     or feasible[0] < best[0]):
            best = feasible
        if best_pen is None or pen[0] < best_pen[0]:
            best_pen = pen
    if best is not None:
        return best
    raise AllInfeasible(best_pen[1], best_pen[0])


def _insert_target(plan: MissionPlan, tid: int, position, model: CostModel):
    sid, pos = position
    for route in plan.routes:
        if route.servicer_id == sid:
            route.target_sequence.insert(pos, tid)
            route.revolutions = model.allocate(sid, route.target_sequence)
            return
    raise KeyError(sid)


def repair(removed, partial: MissionPlan, model: CostModel) -> MissionPlan:
    """Farthest insertion: repeatedly insert the hardest remaining target
    (highest insertion cost, infeasible counting as hardest) at its own
    cheapest position, so constrained targets claim slots first."""
    plan = partial.copy()
    remaining = list(removed)
    while remaining:
        scored = []
        for tid in remaining:
            try:
                cost, pos = insertion_cost(tid, plan, model)
            except AllInfeasible as exc:
                cost, pos = math.inf, exc.best_position
            scored.append((cost, tid, pos))
        cost, tid, pos = max(scored, key=lambda item: item[0])
        _insert_target(plan, tid, pos, model)
        remaining.remove(tid)
    return plan


def lns_improve(plan: MissionPlan, params: LnsParams, rng: random.Random,
                model: CostModel) -> MissionPlan:
    """Hill-climbing destroy/repair: returns on the first strict improvement
    or after ``lns_iterations`` attempts, never worse than the input."""
    if params.lns_iterations <= 0:
        return plan
    base = model.plan_fitness(plan)
    for _ in range(params.lns_iterations):
        removed, part = destroy(plan, params, rng, model)
        cand = repair(removed, part, model)
        if model.plan_fitness(cand) < base:
            return cand
    return plan


# ---------------------------------------------------------------------------
# Solver engine
# ---------------------------------------------------------------------------

class _MixedAdapter:
    """Route costing through the phasing cost model plus the allocator."""

    def __init__(self, model: CostModel):
        self.model = model

    def route(self, sid: int, seq) -> tuple[list[int], float]:
        revs, score, _ = self.model.priced_score(sid, seq)
        return list(revs), score

    def final_evaluation(self, plan: MissionPlan) -> Evaluation:
        m = self.model
        return evaluate_plan(m.scenario, plan, m.phi, m.gamma)


class _LambertAdapter:
    """Route costing through two-impulse Lambert rendezvous legs.

    The leg flight time is allocated from the route's residual mission time
    (deadline minus repairs, split equally), snapped down to the candidate
    grid, with the whole leftover granted to the leg with the largest
    static phase gap. If the chosen flight time is Lambert-singular the
    nearest grid alternatives are tried before the leg scores infinite.
    """

    def __init__(self, scenario: Scenario, phi: float, gamma: float):
        self.scenario = scenario
        self.phi = phi
        self.gamma = gamma
        t_geo = scenario.constants.t_geo
        grid = sorted(f * t_geo for f in DEFAULT_TOF_FRACTIONS
                      if f * t_geo < scenario.deadline)
        if not grid:
            raise ValueError("no candidate flight time is below the deadline")
        self.grid = grid
        self._orbits = {("S", s.id): s.orbit for s in scenario.servicers}
        self._orbits.update({t.id: t.orbit for t in scenario.targets})
        self._lam0 = {key: orb.raan + orb.arg_lat0
                      for key, orb in self._orbits.items()}
        self._td = {t.id: t.repair_duration for t in scenario.targets}
        self._budget = {s.id: s.dv_budget for s in scenario.servicers}
        self._leg_cache = {}

    def _allocate_tofs(self, sid: int, seq) -> list[float]:
        legs = len(seq)
        budget = self.scenario.deadline - sum(self._td[t] for t in seq)
        share = budget / legs
        below = [g for g in self.grid if g <= share]
        tofs = [below[-1] if below else self.grid[0]] * legs
        slack = budget - sum(tofs)
        if slack > 0.0:
            gaps = []
            from_key = ("S", sid)
            for tid in seq:
                gaps.append(abs(fold_angle(self._lam0[from_key]
                                           - self._lam0[tid])))
                from_key = tid
            pick = max(range(legs), key=lambda q: (gaps[q], -q))
            room = tofs[pick] + slack
            upgrades = [g for g in self.grid if g <= room]
            if upgrades:
                tofs[pick] = upgrades[-1]
        return tofs

    def _leg(self, from_key, to_id, t_dep: float, tof: float):
        """(actual tof, cost m/s) with fallback over neighboring grid times."""
        key = (from_key, to_id, round(t_dep, 3), round(tof, 3))
        hit = self._leg_cache.get(key)
        if hit is not None:
            return hit
        consts = self.scenario.constants
        state = orbit_to_state(self._orbits[from_key], t_dep, consts)
        target = self._orbits[to_id]
        result = None
        for cand in sorted(self.grid, key=lambda g: abs(g - tof)):
            arrive = orbit_to_state(target, t_dep + cand, consts)
            try:
                v1, v2 = lambert_solve(state.r, arrive.r, cand, True, consts)
            except AstroError:
                continue
            cost = (float(np.linalg.norm(v1 - state.v))
                    + float(np.linalg.norm(arrive.v - v2))) * 1000.0
            result = (cand, cost)
            break
        if result is None:
            result = (tof, math.inf)
        if len(self._leg_cache) >= _LEG_CACHE_CAP:
            self._leg_cache.clear()
        self._leg_cache[key] = result
        return result

    def route_detail(self, sid: int, seq):
        """(flight times, delta-v m/s, deadline violation s, end time s) of
        a route, each leg from the leg cache."""
        if not seq:
            return (), 0.0, 0.0, 0.0
        tofs = self._allocate_tofs(sid, seq)
        t = 0.0
        dv = 0.0
        p1 = 0.0
        used = []
        from_key = ("S", sid)
        for tid, tof in zip(seq, tofs):
            actual, cost = self._leg(from_key, tid, t, tof)
            used.append(actual)
            dv += cost
            t = t + actual + self._td[tid]
            if t > self.scenario.deadline:
                p1 += t - self.scenario.deadline
            from_key = tid
        return tuple(used), dv, p1, t

    def route(self, sid: int, seq) -> tuple[list[int], float]:
        _, dv, p1, _ = self.route_detail(sid, seq)
        p2 = max(dv - self._budget[sid], 0.0)
        score = penalized_fitness(dv, p1, p2, self.phi, self.gamma)
        return [1] * len(seq), score

    def leg(self, route: Route, q: int, state, orbit, consts
            ) -> RendezvousSolution:
        """Leg ``q`` of ``route`` flown at the flight time ``route_detail``
        chose; a Lambert failure gives NaN impulses and infinite delta-v."""
        tof = self.route_detail(route.servicer_id,
                                route.target_sequence)[0][q]
        arrive = orbit_to_state(orbit, state.t + tof, consts)
        try:
            v1, v2 = lambert_solve(state.r, arrive.r, tof, True, consts)
        except AstroError:
            imp1 = imp2 = np.full(3, math.nan)
            leg_dv = math.inf
        else:
            imp1 = (v1 - state.v) * 1000.0
            imp2 = (arrive.v - v2) * 1000.0
            leg_dv = float(np.linalg.norm(imp1)) + float(np.linalg.norm(imp2))
        return RendezvousSolution(
            impulse1=imp1, impulse2=imp2, t1=state.t, t2=state.t + tof,
            coast_time=0.0, phase_time=tof, total_time=tof,
            total_dv=leg_dv, revolutions=1, alpha=0.0, theta=0.0)

    def final_evaluation(self, plan: MissionPlan) -> Evaluation:
        return evaluate_plan_lambert(self.scenario, plan, self.phi,
                                     self.gamma, adapter=self)


def evaluate_plan_lambert(scenario: Scenario, plan: MissionPlan,
                          phi: float = DEFAULT_PHI,
                          gamma: float = DEFAULT_GAMMA,
                          adapter: _LambertAdapter | None = None
                          ) -> Evaluation:
    """Vector-level evaluation of a plan under the Lambert leg model."""
    if adapter is None:
        adapter = _LambertAdapter(scenario, phi, gamma)
    return evaluate_plan(scenario, plan, phi, gamma, leg=adapter.leg)


def _run_engine(scenario: Scenario, ga: GaParams, lns: LnsParams | None,
                seed: int, adapter) -> SolveResult:
    m = len(scenario.targets)
    n = len(scenario.servicers)
    rng = random.Random(seed)
    sids = [s.id for s in scenario.servicers]
    cache: dict = {}

    def evaluate(genes):
        key = tuple(genes)
        hit = cache.get(key)
        if hit is None:
            seqs = decode(genes, m, n)
            fitness = 0.0
            routes = []
            for sid, seq in zip(sids, seqs):
                revs, score = adapter.route(sid, seq)
                routes.append(Route(sid, list(seq), revs))
                fitness += score
            hit = (fitness, MissionPlan(routes))
            if len(cache) >= _GENE_CACHE_CAP:
                cache.clear()
            cache[key] = hit
        return hit

    pop = init_population(m, n, ga.population_size, rng)
    evaluated = [evaluate(c) for c in pop]
    fits = [e[0] for e in evaluated]
    plans = [e[1] for e in evaluated]

    best_i = min(range(len(pop)), key=lambda i: fits[i])
    best_fit = fits[best_i]
    best_plan = plans[best_i]
    last_improve = 0
    history = [(best_fit, _mean(fits))]
    gen = 0

    while not (gen >= ga.min_iterations
               and gen - last_improve >= ga.stall_iterations):
        gen += 1
        weights = selection_weights(fits)
        w_max = max(weights)
        w_avg = sum(weights) / len(weights)
        pool = selection(pop, fits, rng)
        elite = list(pop[pool[0]])
        rest = [(list(pop[i]), weights[i]) for i in pool[1:]]
        rng.shuffle(rest)
        for q in range(0, len(rest) - 1, 2):
            (ca, wa), (cb, wb) = rest[q], rest[q + 1]
            pc = adaptive_pc(max(wa, wb), w_avg, w_max, ga)
            if rng.random() < pc:
                cut1, cut2 = sorted(rng.sample(range(m + n), 2))
                c1, c2 = pmx_crossover(ca, cb, cut1, cut2)
                rest[q], rest[q + 1] = (c1, wa), (c2, wb)
        if m + n - 1 >= 2:
            for q, (c, wi) in enumerate(rest):
                pm = adaptive_pm(wi, w_avg, w_max, ga)
                if rng.random() < pm:
                    rest[q] = (swap_mutation(c, rng), wi)
        pop = [elite] + [c for c, _ in rest]
        evaluated = [evaluate(c) for c in pop]
        fits = [e[0] for e in evaluated]
        plans = [e[1] for e in evaluated]

        if lns is not None:
            k_top = max(1, math.ceil(lns.elite_fraction * len(pop)))
            order = sorted(range(len(pop)), key=lambda i: fits[i])[:k_top]
            for i in order:
                if not math.isfinite(fits[i]):
                    continue
                improved = lns_improve(plans[i], lns, rng, adapter.model)
                if improved is plans[i]:
                    continue
                genes = encode_sequences(
                    [r.target_sequence for r in improved.routes], m)
                f_new, plan_new = evaluate(genes)
                if f_new < fits[i]:
                    pop[i] = genes
                    fits[i] = f_new
                    plans[i] = plan_new

        gen_best = min(range(len(pop)), key=lambda i: fits[i])
        history.append((fits[gen_best], _mean(fits)))
        if fits[gen_best] < best_fit:
            best_fit = fits[gen_best]
            best_plan = plans[gen_best]
            last_improve = gen

    return SolveResult(best_plan=best_plan.copy(),
                       best_evaluation=adapter.final_evaluation(best_plan),
                       history=history, generations_run=gen, seed=seed)


def _mean(values) -> float:
    return sum(values) / len(values) if values else math.nan


def solve_lns_aga(scenario: Scenario, ga: GaParams | None = None,
                  lns: LnsParams | None = None, seed: int = 0,
                  slack_rule: str = "largest") -> SolveResult:
    """Hybrid solver: adaptive GA with destroy/repair refinement of the top
    elite fraction every generation."""
    ga = ga or GaParams()
    lns = lns or LnsParams()
    adapter = _MixedAdapter(CostModel(scenario, slack_rule, ga.phi, ga.gamma))
    return _run_engine(scenario, ga, lns, seed, adapter)


def solve_ga(scenario: Scenario, ga: GaParams | None = None, seed: int = 0,
             slack_rule: str = "largest") -> SolveResult:
    """Plain adaptive GA: the identical pipeline minus the LNS hook."""
    ga = ga or GaParams()
    adapter = _MixedAdapter(CostModel(scenario, slack_rule, ga.phi, ga.gamma))
    return _run_engine(scenario, ga, None, seed, adapter)


def solve_lambert_ga(scenario: Scenario, ga: GaParams | None = None,
                     seed: int = 0) -> SolveResult:
    """GA baseline whose legs are two-impulse Lambert transfers."""
    ga = ga or GaParams()
    adapter = _LambertAdapter(scenario, ga.phi, ga.gamma)
    return _run_engine(scenario, ga, None, seed, adapter)
