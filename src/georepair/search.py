"""Hybrid large-neighborhood-search adaptive genetic algorithm and baselines.

The solver encodes a mission plan as a permutation chromosome of length
m+n-1: values 1..m are target ids and the larger values split the string
into per-servicer routes. Fitness is minimized; the adaptive-probability
equations from the genetic operators are applied to selection weights
w = 1/(fitness + eps) so their algebra keeps its maximization shape.

Three solvers share one engine: the hybrid LNS-AGA, the plain adaptive GA
(same pipeline minus the LNS hook) and a Lambert-transfer GA baseline that
prices legs with two-impulse Lambert rendezvous instead of the mixed
plane-change/phasing strategy. The engine's state is the population's
chromosomes and their fitnesses, nothing else; its per-solve gene cache
maps a chromosome to its fitness alone. Each generation runs two phases:
``breed`` makes the next population by selection, crossover and mutation,
and ``refine``, the LNS hook, runs destroy/repair on the elite in place.
No engine code writes into a chromosome once it is made: crossover and
mutation return new lists and ``refine`` replaces a population slot, so
``breed`` puts a selected parent into the next population as it is, and
one chromosome object may fill several slots. PMX, swap mutation and
``encode_sequences`` make only permutations, so ``decode`` checks none.
The LNS operators work on target sequences, one list per servicer in
``scenario.servicers`` order as ``decode`` returns them, and return new
lists: a route's revolutions follow from its sequence, so no operator
holds them. ``refine`` decodes each elite afresh, so an operator that
changes the sequences it is given cannot reach the engine's state. A
``MissionPlan`` is built once per solve, for the best chromosome, with its
revolutions from the model's ``allocate``.

The engine drives one leg model, a ``planning._LegModel``, per solve,
built with the solve's penalty weights. It reads only the model's
``scenario``, ``servicer_ids``, ``route`` and ``allocate``, and hands the
model itself to the report; the LNS operators take that same model, so one
pricing policy and one set of memos serve the whole solve, and a solve
builds no other model. Both leg models keep one route memo, the base's
``priced_score``: per distinct route, one float, the score that
``route``, and on mixed legs ``plan_fitness`` and the insertion scan,
read, its sign the feasibility; ``allocate`` and ``fly`` price the
reported routes afresh. ``lns_improve`` splits each attempt into its
random draws, ``destroy_draws``, and a removal that replays
them, ``destroy``; it keys the attempt on ``beta``, the removal count, the
draws and the plan's chromosome, and reads its outcome from the model's
attempt memo, so an attempt that repeats an earlier one, as most do once
the elite settles, runs neither destroy nor repair. Every number is drawn
whether the memo hits or not, so the random stream, and with it every
plan and history, is the one that running each attempt gives. ``repair``
inserts, each round, the target that a full ``insertion_cost`` scan of
every remaining target would pick, but scans in full only the targets
that can still be that pick: a feasible slot's delta bounds its target's
cost from above, so the insertion memo's entries order the targets, and a
target's scan stops at its first slot that shows it cannot win.
The two leg models are siblings: ``_MixedAdapter`` is ``CostModel``, its
kernel, memos and the LNS's pair costs, built with the solve's slack rule;
``_LambertAdapter`` holds only two-impulse Lambert legs, one revolution
each, flown and priced in one place, ``_fly``, on plain floats: states and
Lambert velocities are 3-tuples and each norm is a left-to-right sum under
``math.sqrt``. Both define the engine's ``route`` with one body, ``abs`` of
the route memo's value, each in its own class so that a tracer can wrap
either alone. Every memo of a solve is bounded by one of the two constants
of ``planning``, read through that module so that patching it there reaches
every memo: the gene cache by ``_MEMO_ID_BUDGET`` genes, m + n - 1 a
chromosome, and the Lambert leg cache and state memo by ``_ENTRY_CAP``
entries. Each value depends on its key alone, so a price does not depend on
what a memo held. The best plan is reported by
``planning.evaluate_plan`` on the model's own ``fly``, so every leg reports
the price the search used, a failed leg infinite in both; a Lambert
``LegDetail`` does not coast, fires at departure and gives its flight time
as its phasing time. The engine, the LNS and the report score a plan by one
rule, the left sum of ``_LegModel._score`` route scores: every solve, mixed
or Lambert, reports the fitness of its history's best, and on mixed legs
``plan_metrics`` equals it. Both leg models run on plain floats, and every
sum of floats adds left to right (``planning._left_sum``), so no reported
float depends on the host's linear-algebra library or on the Python version.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import planning
from .astro import (
    GEO,
    AstroError,
    fold_angle,
    lambert_solve,
    orbit_to_state,
)
from .planning import (
    DEFAULT_GAMMA,
    DEFAULT_PHI,
    CostModel,
    Evaluation,
    LegDetail,
    MissionPlan,
    Route,
    Scenario,
    _LegModel,
    _check_weights,
    _left_sum,
    decode,
    encode_sequences,
    evaluate_plan,
)

FITNESS_EPS = 1e-12
RELATEDNESS_EPS = 1e-6

# Largest population, generation and LNS attempt counts a solve accepts: far
# above the experiments (a population of 100, at most a few hundred
# generations, 2 destroy/repair attempts per LNS call), so that only a
# mistyped value is refused, at once instead of after days.
MAX_POPULATION = 10_000
MAX_ITERATIONS = 100_000

# Candidate Lambert leg flight times, as fractions of the GEO period.
DEFAULT_TOF_FRACTIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                         1.0, 1.25, 1.5, 1.75, 2.0)


class AllInfeasible(Exception):
    """No insertion position satisfies the deadline and budget constraints.

    Carries the least-penalty position, ``(route index, slot)``, so
    callers can still complete the plan structurally.
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
        if not 2 <= self.population_size <= MAX_POPULATION:
            raise ValueError(
                f"population_size must be in [2, {MAX_POPULATION}]")
        for name in ("min_iterations", "stall_iterations"):
            if not 0 <= getattr(self, name) <= MAX_ITERATIONS:
                raise ValueError(f"{name} must be in [0, {MAX_ITERATIONS}]")
        if not (0.0 < self.pc_lo <= self.pc_hi <= 1.0):
            raise ValueError("need 0 < pc_lo <= pc_hi <= 1")
        if not (0.0 < self.pm_lo <= self.pm_hi <= 1.0):
            raise ValueError("need 0 < pm_lo <= pm_hi <= 1")
        _check_weights(self.phi, self.gamma)


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
        if not self.determinism_p >= 1.0:
            raise ValueError("determinism_p must be >= 1")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must be in (0, 1)")
        if not (0.0 < self.elite_fraction <= 1.0):
            raise ValueError("elite_fraction must be in (0, 1]")
        if not 0 <= self.lns_iterations <= MAX_ITERATIONS:
            raise ValueError(
                f"lns_iterations must be in [0, {MAX_ITERATIONS}]")


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
    length = m + n - 1
    return [rng.sample(range(1, length + 1), length) for _ in range(size)]


def selection_weights(fitnesses) -> list[float]:
    """Minimization fitness mapped to roulette weights w = 1/(F + eps)."""
    return [1.0 / (f + FITNESS_EPS) for f in fitnesses]


def selection(weights, elite: int, rng: random.Random) -> list[int]:
    """Elite-plus-roulette mating pool, returned as population indices.

    ``weights`` are the population's ``selection_weights`` and ``elite`` is
    the index of its best (lowest-fitness) chromosome. Slot 0
    unconditionally copies the elite; the remaining slots are roulette
    draws over the cumulative selection probabilities of the whole
    population.
    """
    size = len(weights)
    cum = list(accumulate(weights))
    total = cum[-1]
    if total <= 0.0 or not math.isfinite(total):
        cum = list(accumulate([1.0] * size))
        total = cum[-1]
    draw = rng.random
    return [elite] + [bisect_left(cum, draw() * total, 0, size - 1)
                      for _ in range(size - 1)]


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
    mapping (chained for values shared between segments).

    Computed as Goldberg and Lingle's position-wise exchanges: at each
    segment site a child swaps in the donor's gene from wherever it holds
    it, which carries the displaced gene along the mapping chain, so outside
    the segment only the sites in conflict are written.
    """
    if not (0 <= cut1 < cut2 <= len(a)):
        raise ValueError("need 0 <= cut1 < cut2 <= length")
    c1, c2 = list(a), list(b)
    for i in range(cut1, cut2):
        x, y = a[i], b[i]
        j = c1.index(y)
        c1[i], c1[j] = y, c1[i]
        j = c2.index(x)
        c2[i], c2[j] = x, c2[i]
    return c1, c2


def _two_sites(rng: random.Random, n: int) -> tuple[int, int]:
    """Two distinct indices below ``n``, the same draws, in the same order
    and from the same random bits, as ``rng.sample(range(n), 2)``.

    CPython's ``Random.sample`` draws two items by its pool method up to
    21 items and by its set method above that, each index by
    ``_randbelow``, here spelled out on ``rng.getrandbits`` without the
    per-call overhead of ``sample``.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    if n <= 21:
        # Pool method: the second index is drawn below n - 1, and the
        # first index's slot then holds the item n - 1.
        k = (n - 1).bit_length()
        j = getrandbits(k)
        while j >= n - 1:
            j = getrandbits(k)
        return i, (n - 1 if j == i else j)
    # Set method: redraw below n until the index differs from the first.
    j = i
    while j == i:
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
    return i, j


def swap_positions(c, i: int, j: int) -> list[int]:
    """Exchange two distinct gene sites."""
    if i == j:
        raise ValueError("mutation sites must differ")
    out = list(c)
    out[i], out[j] = out[j], out[i]
    return out


def swap_mutation(c, rng: random.Random) -> list[int]:
    """Swap two uniformly chosen distinct gene sites."""
    return swap_positions(c, *_two_sites(rng, len(c)))


# ---------------------------------------------------------------------------
# LNS destroy / repair
# ---------------------------------------------------------------------------

def _relatedness(c_norm: float, same_route: bool) -> float:
    """Similarity of two targets: higher for close orbits on one route.

    R = 1 / (C' + V + eps) where C' is the normalized orbit-difference cost
    beta*|dihedral| + (1-beta)*|phase gap| (``c_norm``, an entry of
    ``CostModel.pair_cost_table``) and V is 0 when both targets are served
    by the same route.
    """
    return 1.0 / (c_norm + (0.0 if same_route else 1.0) + RELATEDNESS_EPS)


def destroy_draws(seqs: list[list[int]], params: LnsParams,
                  rng: random.Random) -> tuple[int, ...]:
    """The random draws of one ``destroy`` of ``seqs``: the first target,
    ``rng.choice`` of the targets in route order, then for each later
    removal the clamped rank ``min(int(y ** p * size), size - 1)`` of one
    ``rng.random()`` draw y, p being ``determinism_p`` and size the count
    of targets not yet removed. ceil(remove_rate * m) entries in all.

    The ranking draws nothing, so drawing every number first draws the
    stream that drawing them between the sorts did.
    """
    all_targets = [tid for seq in seqs for tid in seq]
    m = len(all_targets)
    count = math.ceil(m * params.remove_rate)
    p = params.determinism_p
    draw = rng.random
    draws = [rng.choice(all_targets)]
    for size in range(m - 1, m - count, -1):
        draws.append(min(int(draw() ** p * size), size - 1))
    return tuple(draws)


def destroy(seqs: list[list[int]], draws, params: LnsParams,
            model: CostModel) -> tuple[list[int], list[list[int]]]:
    """Shaw-style removal: seed with a random target, then repeatedly drop
    the most related remaining target with determinism-p noise.

    ``seqs`` holds one target sequence per servicer and ``draws`` is its
    ``destroy_draws``: the first target, then the rank, most related
    first, of each later removal among the targets left. Relatedness is
    judged against the input's route assignment on the model's pair costs
    at ``params.beta``, so the removal depends on ``seqs``, ``draws`` and
    ``beta`` alone. Returns the removed targets and the partial
    sequences, new lists.
    """
    pair_cost = model.pair_cost_table(params.beta)
    route_of = {tid: j for j, seq in enumerate(seqs) for tid in seq}
    first, *ranks = draws
    remaining = [tid for seq in seqs for tid in seq if tid != first]
    removed = [first]
    for rank in ranks:
        row = pair_cost[removed[-1]]
        home = route_of[removed[-1]]
        ranked = sorted(
            remaining,
            key=lambda t: (-_relatedness(row[t], route_of[t] == home), t))
        pick = ranked[rank]
        remaining.remove(pick)
        removed.append(pick)
    gone = set(removed)
    return removed, [[tid for tid in seq if tid not in gone] for seq in seqs]


def insertion_cost(target_id: int, seqs: list[list[int]], model: CostModel
                   ) -> tuple[float, tuple[int, int]]:
    """Cheapest feasible insertion of a target into partial sequences.

    Scans every route and slot, each route priced on its ``allocate``
    revolutions; a position is feasible when its route meets the deadline
    and the budget. Returns (fitness delta, (route index, slot)), the
    first least delta among feasible positions in route and slot order.
    Raises AllInfeasible, carrying the least-penalty position, when
    nothing is feasible. Each route's scan comes from
    ``CostModel.insertion_scan``, so a route whose sequence did not change
    since an earlier call is not scanned again.
    """
    best = None
    best_pen = None
    for j, (sid, seq) in enumerate(zip(model.servicer_ids, seqs,
                                       strict=True)):
        delta, slot, pen, pen_slot = model.insertion_scan(sid, seq,
                                                          target_id)
        if delta is not None and (best is None or delta < best):
            best, best_pos = delta, (j, slot)
        if best_pen is None or pen < best_pen:
            best_pen, pen_pos = pen, (j, pen_slot)
    if best is not None:
        return best, best_pos
    raise AllInfeasible(pen_pos, best_pen)


def repair(removed, partial: list[list[int]], model: CostModel
           ) -> list[list[int]]:
    """Farthest insertion: repeatedly insert the hardest remaining target
    (highest insertion cost, infeasible counting as hardest, the first in
    ``removed`` among equals) at its own cheapest position, so constrained
    targets claim slots first. Returns new sequences.

    Each round picks the target that ``max`` over every remaining target's
    ``insertion_cost`` picks, but scans in full only the targets that can
    still be that pick. Any feasible slot's delta bounds its target's cost
    from above, so a target loses to the pick so far, of cost M, once one
    of its feasible deltas is below M, or equal to M when the target comes
    after the pick in ``removed``. The round reads each target's bound from
    the insertion memo alone, ``CostModel.insertion_bound``, and visits the
    targets from the highest bound down, equal bounds in ``removed`` order.
    It skips a target whose bound loses and walks each other target's
    routes with ``CostModel.insertion_scan``, which stops at its first
    losing slot. A target whose walk ends can win: ``insertion_cost`` then
    reads its full scan from the memo, and it is the new pick.
    """
    seqs = [list(seq) for seq in partial]
    remaining = list(removed)
    sids = model.servicer_ids
    while remaining:
        bounds = [model.insertion_bound(tid, seqs) for tid in remaining]
        cost, pick = -math.inf, None
        for i in sorted(range(len(remaining)), key=bounds.__getitem__,
                        reverse=True):
            tid = remaining[i]
            tie_stops = pick is not None and i > pick
            if bounds[i] < cost or tie_stops and bounds[i] == cost:
                continue
            if any(model.insertion_scan(sid, seq, tid, cost, tie_stops)
                   is None for sid, seq in zip(sids, seqs)):
                continue
            try:
                cost, pos = insertion_cost(tid, seqs, model)
            except AllInfeasible as exc:
                cost, pos = math.inf, exc.best_position
            pick = i
        j, slot = pos
        seqs[j].insert(slot, remaining.pop(pick))
    return seqs


def lns_improve(seqs: list[list[int]], params: LnsParams,
                rng: random.Random, model: CostModel) -> list[list[int]]:
    """Hill-climbing destroy/repair: returns new sequences on the first
    strict improvement, or ``seqs`` itself after ``lns_iterations``
    attempts without one, so never worse than the input.

    Each attempt draws its ``destroy_draws`` and reads its outcome from
    the model's attempt memo, ``CostModel.attempt_outcome``, keyed on
    ``beta``, the removal count, the draws and ``seqs`` as a chromosome.
    A miss runs ``destroy`` and ``repair`` and stores the repaired plan's
    chromosome if it beats ``seqs``, else ``()``. Destroy reads only its
    key, and repair and both fitnesses only memos whose values depend on
    their keys alone, so a hit returns what running the attempt again
    would, and the random stream is drawn as before either way.
    """
    if params.lns_iterations <= 0:
        return seqs
    m = len(model.scenario.targets)
    plan = encode_sequences(seqs, m)
    base = model.plan_fitness(seqs)
    for _ in range(params.lns_iterations):
        draws = destroy_draws(seqs, params, rng)

        def attempt():
            removed, part = destroy(seqs, draws, params, model)
            cand = repair(removed, part, model)
            if model.plan_fitness(cand) < base:
                return tuple(encode_sequences(cand, m))
            return ()

        better = model.attempt_outcome(
            (params.beta, len(draws), *draws, *plan), attempt)
        if better:
            return decode(better, m, len(seqs))
    return seqs


# ---------------------------------------------------------------------------
# Solver engine
# ---------------------------------------------------------------------------

class _MixedAdapter(CostModel):
    """The mixed leg model: ``CostModel`` itself, with the engine's
    per-route price, ``route``, as a method of its own class, apart from
    the Lambert model's."""

    def route(self, sid: int, seq) -> float:
        return abs(self.priced_score(sid, seq))


class _LambertAdapter(_LegModel):
    """The Lambert leg model, a sibling of ``CostModel`` with no mixed
    kernel or memo: two-impulse Lambert rendezvous, one revolution a leg.

    The leg flight time is allocated from the route's residual mission time
    (deadline minus repairs, split equally), snapped down to the candidate
    grid, with the whole leftover granted to the leg with the largest
    static phase gap. If the chosen flight time is Lambert-singular the
    nearest grid alternatives are tried before the leg scores infinite.
    ``_fly`` is the one Lambert flight: the search prices each fallback
    candidate through it, and ``fly`` reports each leg through it at the
    flight time the search settled on.

    It defines the engine's ``route``, ``allocate``, the report's legs,
    ``fly``, and the route memo's pricing hook, ``_price``; ``_score``, the
    plan sums and the route memo, ``priced_score``, are the
    ``_LegModel``'s, so ``route`` sums each distinct route once in a
    search, by ``route_detail``, as the mixed model does by its kernel.
    ``route_detail`` reads two memos, each emptied when an insert would
    pass ``planning._ENTRY_CAP``: the leg cache, from ``(from key, target
    id, departure time, grid time)`` to the leg's (flight time, price), and
    the state memo ``_state``, from ``(body key, time)`` to the
    ``CartesianState`` of that key's orbit in the ``_LegModel``'s body map,
    so each distinct departure or arrival state is computed once.
    """

    def __init__(self, scenario: Scenario, phi: float, gamma: float):
        super().__init__(scenario, phi, gamma)
        grid = sorted(f * GEO.t_geo for f in DEFAULT_TOF_FRACTIONS
                      if f * GEO.t_geo < self.deadline)
        if not grid:
            raise ValueError("no candidate flight time is below the deadline")
        self.grid = grid
        # Grid times nearest first to each grid time, the order in which
        # ``_leg`` tries them; ``sorted`` is stable, so ties keep grid order.
        self._fallbacks = {g: sorted(grid, key=lambda c: abs(c - g))
                           for g in grid}
        # Static phase gap |fold(lam0[from] - lam0[to])| of every leg a
        # route can fly, from each orbit's stored lam0 as the mixed kernel's:
        # one row per departure body, keyed by target id.
        self._gap_rows = {
            key: {t.id: abs(fold_angle(orbit.lam0 - self._orbits[t.id].lam0))
                  for t in scenario.targets}
            for key, orbit in self._orbits.items()}
        self._leg_cache = {}
        self._states = {}

    def _allocate_tofs(self, sid: int, seq) -> list[float]:
        """Flight time of each leg of servicer ``sid``'s route ``seq``.

        Every leg gets the residual mission time (deadline minus repairs)
        split equally and snapped down to the grid, or the shortest grid
        time when no grid time fits. Any slack left is granted to the first
        leg with the largest static phase gap, whose time is raised to the
        longest grid time that fits in its share plus the slack.
        """
        legs = len(seq)
        budget = self.deadline - _left_sum(map(self._td.__getitem__, seq))
        grid = self.grid
        i = bisect_right(grid, budget / legs)
        tofs = [grid[i - 1] if i else grid[0]] * legs
        slack = budget - _left_sum(tofs)
        if slack > 0.0:
            rows = self._gap_rows
            pick, best = 0, rows[("S", sid)][seq[0]]
            for q in range(1, legs):
                gap = rows[seq[q - 1]][seq[q]]
                if gap > best:
                    pick, best = q, gap
            i = bisect_right(grid, tofs[pick] + slack)
            if i:
                tofs[pick] = grid[i - 1]
        return tofs

    def _state(self, key, t: float):
        """The ``CartesianState`` of body ``key`` (``("S", servicer id)`` or
        a target id) at time ``t``, from the state memo. A state depends on
        its key alone, so the memo is exact; it empties as the leg cache
        does."""
        memo = self._states
        state = memo.get((key, t))
        if state is None:
            if len(memo) >= planning._ENTRY_CAP:
                memo.clear()
            state = memo[key, t] = orbit_to_state(self._orbits[key], t)
        return state

    def _fly(self, state, to_id: int, tof: float):
        """(delta-v 1 km/s, delta-v 2 km/s, price m/s) of the Lambert arc
        from ``state`` to target ``to_id`` in ``tof`` s. The burns are
        3-tuples and the price is (|dv1| + |dv2|) * 1000, each norm the
        square root of a left-to-right sum of squares. Raises
        ``AstroError`` when the arc fails."""
        arrive = self._state(to_id, state.t + tof)
        (v1x, v1y, v1z), (v2x, v2y, v2z) = lambert_solve(
            state.r, arrive.r, tof)
        (sx, sy, sz), (tx, ty, tz) = state.v, arrive.v
        d1x, d1y, d1z = v1x - sx, v1y - sy, v1z - sz
        d2x, d2y, d2z = tx - v2x, ty - v2y, tz - v2z
        return ((d1x, d1y, d1z), (d2x, d2y, d2z),
                (math.sqrt(d1x * d1x + d1y * d1y + d1z * d1z)
                 + math.sqrt(d2x * d2x + d2y * d2y + d2z * d2z)) * 1000.0)

    def _leg(self, from_key, to_id, t_dep: float, tof: float):
        """(actual tof, cost m/s) with fallback over neighboring grid times,
        priced afresh and stored in the leg cache.

        ``tof`` is a grid time. The cache key holds the exact departure
        time, so a leg's price depends on its key alone; ``route_detail``
        reads the cache itself and calls this only on a miss."""
        key = (from_key, to_id, t_dep, tof)
        state = self._state(from_key, t_dep)
        result = (tof, math.inf)
        for cand in self._fallbacks[tof]:
            try:
                result = (cand, self._fly(state, to_id, cand)[2])
            except AstroError:
                continue
            break
        if len(self._leg_cache) >= planning._ENTRY_CAP:
            self._leg_cache.clear()
        self._leg_cache[key] = result
        return result

    def route_detail(self, sid: int, seq):
        """(flight times, delta-v m/s, deadline violation s) of a route,
        each leg from the leg cache, priced by ``_leg`` on a miss."""
        if not seq:
            return (), 0.0, 0.0
        tofs = self._allocate_tofs(sid, seq)
        cache = self._leg_cache
        td = self._td
        deadline = self.deadline
        t = 0.0
        dv = 0.0
        p1 = 0.0
        used = []
        from_key = ("S", sid)
        for tid, tof in zip(seq, tofs):
            hit = cache.get((from_key, tid, t, tof))
            if hit is None:
                hit = self._leg(from_key, tid, t, tof)
            actual, cost = hit
            used.append(actual)
            dv += cost
            t = t + actual + td[tid]
            if t > deadline:
                p1 += t - deadline
            from_key = tid
        return tuple(used), dv, p1

    def _price(self, sid: int, seq):
        """(delta-v m/s, deadline violation s) of a non-empty route: the
        route memo's pricing hook."""
        _, dv, p1 = self.route_detail(sid, seq)
        return dv, p1

    def route(self, sid: int, seq) -> float:
        return abs(self.priced_score(sid, seq))

    def allocate(self, sid: int, seq) -> list[int]:
        """One revolution per leg: a Lambert leg does not choose its
        revolutions."""
        return [1] * len(seq)

    def fly(self, route: Route) -> list[LegDetail]:
        """The reported legs of ``route``, each flown by ``_fly`` at the
        flight time ``route_detail`` chose, so a leg reports the price the
        search used; a failed leg has (nan, nan, nan) impulses and infinite
        delta-v. Each leg departs at the completion of the repair before
        it."""
        sid, seq = route.servicer_id, route.target_sequence
        tofs = self.route_detail(sid, seq)[0]
        from_key = ("S", sid)
        t = 0.0
        out = []
        for tid, tof in zip(seq, tofs):
            try:
                dv1, dv2, leg_dv = self._fly(self._state(from_key, t), tid,
                                             tof)
            except AstroError:
                imp1 = imp2 = (math.nan, math.nan, math.nan)
                leg_dv = math.inf
            else:
                imp1 = (dv1[0] * 1000.0, dv1[1] * 1000.0, dv1[2] * 1000.0)
                imp2 = (dv2[0] * 1000.0, dv2[1] * 1000.0, dv2[2] * 1000.0)
            arrival = t + tof
            completion = arrival + self._td[tid]
            out.append(LegDetail(sid, tid, imp1, imp2, t, t, arrival,
                                 completion, 0.0, tof, leg_dv))
            t = completion
            from_key = tid
        return out


def evaluate_plan_lambert(scenario: Scenario, plan: MissionPlan,
                          phi: float = DEFAULT_PHI,
                          gamma: float = DEFAULT_GAMMA) -> Evaluation:
    """``evaluate_plan`` on the Lambert leg model."""
    return evaluate_plan(scenario, plan,
                         _LambertAdapter(scenario, phi, gamma))


def _run_engine(ga: GaParams, lns: LnsParams | None, seed: int,
                model: _LegModel) -> SolveResult:
    scenario = model.scenario
    m, n = len(scenario.targets), len(scenario.servicers)
    rng = random.Random(seed)
    sids = model.servicer_ids
    cache: dict = {}
    cache_cap = planning._MEMO_ID_BUDGET // (m + n - 1)

    def evaluate(genes) -> float:
        key = tuple(genes)
        fitness = cache.get(key)
        if fitness is None:
            fitness = 0.0
            for sid, seq in zip(sids, decode(genes, m, n)):
                fitness += model.route(sid, seq)
            if len(cache) >= cache_cap:
                cache.clear()
            cache[key] = fitness
        return fitness

    def breed(pop, fits, elite):
        """GA phase: the next population, by elite-plus-roulette selection,
        PMX crossover and swap mutation at adaptive rates; ``elite`` is the
        index of the best chromosome in ``pop``."""
        weights = selection_weights(fits)
        w_max = max(weights)
        w_avg = _left_sum(weights) / len(weights)
        pool = selection(weights, elite, rng)
        # Shuffling the indices draws what shuffling the parents would.
        order = pool[1:]
        rng.shuffle(order)
        kids = [pop[i] for i in order]
        ws = [weights[i] for i in order]
        for q in range(0, len(kids) - 1, 2):
            pc = adaptive_pc(max(ws[q], ws[q + 1]), w_avg, w_max, ga)
            if rng.random() < pc:
                cut1, cut2 = _two_sites(rng, m + n)
                if cut2 < cut1:
                    cut1, cut2 = cut2, cut1
                kids[q], kids[q + 1] = pmx_crossover(kids[q], kids[q + 1],
                                                     cut1, cut2)
        if m + n - 1 >= 2:
            for q, wi in enumerate(ws):
                if rng.random() < adaptive_pm(wi, w_avg, w_max, ga):
                    kids[q] = swap_mutation(kids[q], rng)
        return [pop[pool[0]]] + kids

    def refine(pop, fits):
        """LNS phase, in place: destroy/repair each finite chromosome of the
        best ``elite_fraction``, best first, and replace it with the strict
        improvement ``lns_improve`` finds, if any. Its fitness is the left
        sum of the same memoized route scores that ``lns_improve`` compared,
        so it is lower than the one it replaces."""
        k_top = max(1, math.ceil(lns.elite_fraction * len(pop)))
        for i in sorted(range(len(pop)), key=lambda i: fits[i])[:k_top]:
            if not math.isfinite(fits[i]):
                continue
            seqs = decode(pop[i], m, n)
            improved = lns_improve(seqs, lns, rng, model)
            if improved is seqs:
                continue
            pop[i] = encode_sequences(improved, m)
            fits[i] = evaluate(pop[i])

    pop = init_population(m, n, ga.population_size, rng)
    fits = [evaluate(c) for c in pop]
    gen_best = min(range(len(pop)), key=lambda i: fits[i])
    best_fit, best_genes = fits[gen_best], tuple(pop[gen_best])
    history = [(best_fit, _mean(fits))]
    gen = last_improve = 0

    while not (gen >= ga.min_iterations
               and gen - last_improve >= ga.stall_iterations):
        gen += 1
        pop = breed(pop, fits, gen_best)
        fits = [evaluate(c) for c in pop]
        if lns is not None:
            refine(pop, fits)
        gen_best = min(range(len(pop)), key=lambda i: fits[i])
        history.append((fits[gen_best], _mean(fits)))
        if fits[gen_best] < best_fit:
            best_fit = fits[gen_best]
            best_genes = tuple(pop[gen_best])
            last_improve = gen

    best_plan = MissionPlan([
        Route(sid, seq, model.allocate(sid, seq))
        for sid, seq in zip(sids, decode(best_genes, m, n))])
    best_evaluation = evaluate_plan(scenario, best_plan, model)
    return SolveResult(best_plan=best_plan, best_evaluation=best_evaluation,
                       history=history, generations_run=gen, seed=seed)


def _mean(values) -> float:
    return _left_sum(values) / len(values) if values else math.nan


def solve_lns_aga(scenario: Scenario, ga: GaParams | None = None,
                  lns: LnsParams | None = None, seed: int = 0,
                  slack_rule: str = "largest") -> SolveResult:
    """Hybrid solver: adaptive GA with destroy/repair refinement of the top
    elite fraction every generation."""
    ga = ga or GaParams()
    lns = lns or LnsParams()
    model = _MixedAdapter(scenario, slack_rule, ga.phi, ga.gamma)
    return _run_engine(ga, lns, seed, model)


def solve_ga(scenario: Scenario, ga: GaParams | None = None, seed: int = 0,
             slack_rule: str = "largest") -> SolveResult:
    """Plain adaptive GA: the identical pipeline minus the LNS hook."""
    ga = ga or GaParams()
    model = _MixedAdapter(scenario, slack_rule, ga.phi, ga.gamma)
    return _run_engine(ga, None, seed, model)


def solve_lambert_ga(scenario: Scenario, ga: GaParams | None = None,
                     seed: int = 0) -> SolveResult:
    """GA baseline whose legs are two-impulse Lambert transfers."""
    ga = ga or GaParams()
    model = _LambertAdapter(scenario, ga.phi, ga.gamma)
    return _run_engine(ga, None, seed, model)
