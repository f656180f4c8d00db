"""Genetic operator, LNS and solver behavior tests."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georepair import planning, search
from georepair.astro import GEO, CollinearGeometry
from georepair.planning import (
    CostModel,
    MissionPlan,
    Route,
    allocate_revolutions,
    decode,
    evaluate_plan,
    exhaustive_solve,
    penalized_fitness,
)
from georepair.scenarios import random_scenario
from georepair.search import (
    AllInfeasible,
    _LambertAdapter,
    GaParams,
    LnsParams,
    adaptive_pc,
    adaptive_pm,
    destroy,
    evaluate_plan_lambert,
    init_population,
    insertion_cost,
    lns_improve,
    pmx_crossover,
    relatedness,
    repair,
    selection,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
    swap_mutation,
    swap_positions,
)
from scenario_builders import make_scenario, random_scenario_tuple

HOUR = 3600.0
DAY = 86400.0
T = GEO.t_geo


def small_ga(pop=30, iters=30, stall=15):
    return GaParams(population_size=pop, min_iterations=iters,
                    stall_iterations=stall)


class TestParamValidation:
    def test_ga_params_bounds(self):
        with pytest.raises(ValueError):
            GaParams(population_size=1)
        with pytest.raises(ValueError):
            GaParams(pc_lo=0.95, pc_hi=0.9)
        with pytest.raises(ValueError):
            GaParams(pm_lo=0.0)

    def test_lns_params_bounds(self):
        with pytest.raises(ValueError):
            LnsParams(remove_rate=0.0)
        with pytest.raises(ValueError):
            LnsParams(determinism_p=0.5)
        with pytest.raises(ValueError):
            LnsParams(beta=1.0)


class TestInitPopulation:
    def test_permutation_invariant_and_alphabet(self):
        rng = random.Random(0)
        pop = init_population(8, 3, 50, rng)
        assert len(pop) == 50
        for chrom in pop:
            assert sorted(chrom) == list(range(1, 11))

    def test_seed_determinism(self):
        a = init_population(6, 2, 20, random.Random(42))
        b = init_population(6, 2, 20, random.Random(42))
        assert a == b


class TestSelection:
    def test_uniform_fitness_gives_uniform_draws(self):
        rng = random.Random(1)
        counts = [0, 0, 0, 0]
        for _ in range(40_000):
            pool = selection([0, 1, 2, 3], [5.0, 5.0, 5.0, 5.0], rng)
            counts[pool[1]] += 1
        for c in counts:
            assert c / 40_000 == pytest.approx(0.25, abs=0.02)

    def test_three_to_one_weights(self):
        # Fitness 1 vs 3 gives selection weights 3:1.
        rng = random.Random(2)
        hits = 0
        n = 100_000
        for _ in range(n):
            pool = selection(["a", "b"], [1.0, 3.0], rng)
            if pool[1] == 0:
                hits += 1
        assert hits / n == pytest.approx(0.75, abs=0.02)

    def test_best_always_in_slot_zero(self):
        rng = random.Random(3)
        for _ in range(100):
            fits = [rng.uniform(1, 100) for _ in range(8)]
            pool = selection(list(range(8)), fits, rng)
            assert pool[0] == min(range(8), key=lambda i: fits[i])


class TestAdaptiveProbabilities:
    def setup_method(self):
        self.p = GaParams()

    def test_pc_boundaries(self):
        assert adaptive_pc(1.0, 0.5, 1.0, self.p) == pytest.approx(self.p.pc_lo)
        assert adaptive_pc(0.5, 0.5, 1.0, self.p) == pytest.approx(self.p.pc_hi)
        assert adaptive_pc(0.2, 0.5, 1.0, self.p) == self.p.pc_hi
        assert adaptive_pc(0.7, 0.7, 0.7, self.p) == self.p.pc_hi

    def test_pm_boundaries(self):
        assert adaptive_pm(1.0, 0.5, 1.0, self.p) == pytest.approx(self.p.pm_hi)
        assert adaptive_pm(0.5, 0.5, 1.0, self.p) == pytest.approx(self.p.pm_lo)
        assert adaptive_pm(0.2, 0.5, 1.0, self.p) == self.p.pm_hi
        assert adaptive_pm(0.7, 0.7, 0.7, self.p) == self.p.pm_hi

    def test_bounds_hold_everywhere(self):
        rng = random.Random(4)
        for _ in range(1000):
            w = sorted(rng.uniform(0.01, 10.0) for _ in range(3))
            pc = adaptive_pc(w[1], w[0], w[2], self.p)
            pm = adaptive_pm(w[1], w[0], w[2], self.p)
            assert self.p.pc_lo <= pc <= self.p.pc_hi
            assert self.p.pm_lo <= pm <= self.p.pm_hi


class TestPmx:
    def test_identical_parents_unchanged(self):
        a = [3, 1, 4, 2, 5]
        c1, c2 = pmx_crossover(a, list(a), 1, 3)
        assert c1 == a and c2 == a

    def test_hand_traced_example(self):
        a = [1, 2, 3, 4, 5, 6]
        b = [3, 5, 1, 6, 2, 4]
        c1, c2 = pmx_crossover(a, b, 2, 4)
        assert c1 == [3, 2, 1, 6, 5, 4]
        assert c2 == [1, 5, 3, 4, 2, 6]

    def test_rejects_bad_cuts(self):
        with pytest.raises(ValueError):
            pmx_crossover([1, 2, 3], [3, 2, 1], 2, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.permutations(list(range(1, 10))),
           st.permutations(list(range(1, 10))),
           st.integers(0, 8), st.integers(1, 9))
    def test_children_are_permutations(self, a, b, lo, span):
        cut1 = lo
        cut2 = min(lo + span, 9)
        if cut1 >= cut2:
            cut2 = cut1 + 1
        c1, c2 = pmx_crossover(list(a), list(b), cut1, cut2)
        assert sorted(c1) == list(range(1, 10))
        assert sorted(c2) == list(range(1, 10))


class TestSwapMutation:
    def test_exactly_two_sites_change(self):
        rng = random.Random(5)
        chrom = list(range(1, 12))
        for _ in range(200):
            mutated = swap_mutation(chrom, rng)
            diffs = [i for i in range(len(chrom)) if mutated[i] != chrom[i]]
            assert len(diffs) == 2
            assert sorted(mutated) == sorted(chrom)

    def test_swap_is_involution(self):
        chrom = [4, 2, 7, 1, 3]
        once = swap_positions(chrom, 0, 3)
        assert swap_positions(once, 0, 3) == chrom
        with pytest.raises(ValueError):
            swap_positions(chrom, 2, 2)


class TestRelatedness:
    def setup_method(self):
        self.scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 30.0, 100.0, HOUR), (2.0, 30.0, 100.0, HOUR),
             (8.0, 200.0, 280.0, HOUR)],
            deadline_s=20 * DAY)
        self.model = CostModel(self.scenario)

    def test_identical_orbit_same_route_is_maximal(self):
        plan = MissionPlan([Route(1, [1, 2, 3], [1, 1, 1])])
        r = relatedness(1, 2, plan, 0.5, self.model)
        assert r == pytest.approx(1e6, rel=1e-6)

    def test_max_cost_pair_on_distinct_routes(self):
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 30.0, 100.0, HOUR), (8.0, 200.0, 280.0, HOUR)],
            deadline_s=20 * DAY)
        model = CostModel(scenario)
        plan = MissionPlan([Route(1, [1], [1]), Route(2, [2], [1])])
        r = relatedness(1, 2, plan, 0.5, model)
        assert r == pytest.approx(1.0 / (1.0 + 1.0 + 1e-6), rel=1e-9)

    def test_monotone_in_route_membership(self):
        together = MissionPlan([Route(1, [1, 3, 2], [1, 1, 1])])
        # Same pair cost, different route membership must lower R.
        scenario2 = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 30.0, 100.0, HOUR), (2.0, 30.0, 100.0, HOUR),
             (8.0, 200.0, 280.0, HOUR)],
            deadline_s=20 * DAY)
        model2 = CostModel(scenario2)
        apart = MissionPlan([Route(1, [1], [1]), Route(2, [2, 3], [1, 1])])
        r_same = relatedness(1, 3, together, 0.5, self.model)
        r_apart = relatedness(1, 3, apart, 0.5, model2)
        assert r_apart < r_same

    @pytest.mark.parametrize("beta", [0.5, 0.2])
    def test_tabled_relatedness_equals_the_formula(self, beta):
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        model = CostModel(scenario)
        plan = MissionPlan([Route(1, [3, 1, 7, 9], [1] * 4),
                            Route(2, [2, 4, 5, 6, 8, 10], [1] * 6)])
        pairs = list(itertools.permutations(range(1, 11), 2))
        c_max = max(model.target_pair_cost(i, j, beta)
                    for i, j in itertools.combinations(range(1, 11), 2))
        for i, j in pairs:
            c = model.target_pair_cost(i, j, beta) / c_max
            v = 0.0 if plan.route_of(i) == plan.route_of(j) else 1.0
            assert relatedness(i, j, plan, beta, model) == (
                1.0 / (c + v + 1e-6))


class TestDestroy:
    def setup_method(self):
        rng = random.Random(6)
        self.scenario = random_scenario_tuple(rng, 10, 2,
                                              deadline_s=30 * DAY)
        self.model = CostModel(self.scenario)
        seqs = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
        self.plan = MissionPlan([
            Route(sid, seq, self.model.allocate(sid, seq))
            for sid, seq in zip((1, 2), seqs)])

    def test_exact_removal_count(self):
        removed, partial = destroy(self.plan, LnsParams(remove_rate=0.3),
                                   random.Random(7), self.model)
        assert len(removed) == 3
        assert sorted(partial.covered_targets() + removed) == list(range(1, 11))

    def test_single_removal(self):
        removed, partial = destroy(self.plan, LnsParams(remove_rate=0.05),
                                   random.Random(8), self.model)
        assert len(removed) == 1
        assert removed[0] not in partial.covered_targets()

    def test_high_determinism_is_greedy(self):
        params = LnsParams(remove_rate=0.3, determinism_p=200.0)
        rng = random.Random(9)
        removed, _ = destroy(self.plan, params, rng, self.model)
        # Replay: after the seeded removal every pick must be the single
        # most related remaining target.
        rng2 = random.Random(9)
        first = rng2.choice(self.plan.covered_targets())
        assert removed[0] == first
        partial = self.plan.copy()
        from georepair.search import _remove_target
        _remove_target(partial, first)
        picks = [first]
        while len(picks) < 3:
            remaining = partial.covered_targets()
            rng2.random()  # the y draw
            best = max(remaining,
                       key=lambda t: (relatedness(picks[-1], t, self.plan, 0.5,
                                                  self.model),
                                      -t))
            picks.append(best)
            _remove_target(partial, best)
        assert removed == picks

    def test_surviving_routes_reallocated(self):
        removed, partial = destroy(self.plan, LnsParams(remove_rate=0.3),
                                   random.Random(10), self.model)
        for route in partial.routes:
            if route.target_sequence:
                assert route.revolutions == allocate_revolutions(
                    self.scenario, route.servicer_id, route.target_sequence)


class TestInsertionAndRepair:
    def test_free_insertion_into_matching_empty_route(self):
        # Both targets sit exactly on their servicer's orbit, so the only
        # zero-cost move is target 1 into servicer 1's empty route.
        scenario = make_scenario(
            [(3.0, 40.0, 120.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(3.0, 40.0, 120.0, HOUR), (0.0, 0.0, 0.0, HOUR)],
            deadline_s=20 * DAY)
        model = CostModel(scenario)
        partial = MissionPlan([Route(1, [], []), Route(2, [2],
                              list(model.allocate(2, [2])))])
        cost, pos = insertion_cost(1, partial, model)
        assert cost == pytest.approx(0.0, abs=1e-9)
        assert pos == (1, 0)

    def test_all_infeasible_raises_with_fallback(self):
        # One-day deadline cannot absorb any phasing leg.
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 10.0, 100.0, 20 * HOUR), (3.0, 50.0, 200.0, 20 * HOUR)],
            deadline_s=1.2 * DAY)
        model = CostModel(scenario)
        partial = MissionPlan([Route(1, [2], list(model.allocate(1, [2])))])
        with pytest.raises(AllInfeasible) as exc:
            insertion_cost(1, partial, model)
        sid, pos = exc.value.best_position
        assert sid == 1 and pos in (0, 1)

    def test_reported_cost_matches_recomputation(self):
        rng = random.Random(11)
        scenario = random_scenario_tuple(rng, 6, 2, deadline_s=30 * DAY)
        model = CostModel(scenario)
        partial = MissionPlan([
            Route(1, [1, 2], list(model.allocate(1, [1, 2]))),
            Route(2, [3, 4, 5], list(model.allocate(2, [3, 4, 5])))])
        cost, (sid, pos) = insertion_cost(6, partial, model)
        route = next(r for r in partial.routes if r.servicer_id == sid)
        old_score, _, _, _ = model.route_score(sid, route.target_sequence,
                                               route.revolutions)
        new_seq = (route.target_sequence[:pos] + [6]
                   + route.target_sequence[pos:])
        new_score, _, _, _ = model.route_score(
            sid, new_seq, model.allocate(sid, new_seq))
        assert cost == pytest.approx(new_score - old_score, rel=1e-12, abs=1e-9)

    def _constrained_scenario(self):
        # SSc1 is the only budget-feasible host for the expensive catch-up
        # target 3; the deadline fits two targets per route at most.
        return make_scenario(
            [(0.0, 0.0, 0.0, 2500.0), (4.0, 0.0, 0.0, 400.0)],
            [(1.0, 0.0, 330.0, 20 * HOUR),   # cheap, slightly inclined
             (1.0, 0.0, 325.0, 20 * HOUR),   # cheap, same plane as 1
             (0.0, 0.0, 170.0, 20 * HOUR)],  # equatorial, huge phase gap
            deadline_s=4.2 * DAY)

    def test_farthest_insertion_succeeds_where_greedy_strands(self):
        scenario = self._constrained_scenario()
        model = CostModel(scenario)
        empty = MissionPlan([Route(1, [], []), Route(2, [], [])])

        # Greedy (ascending insertion cost) walks itself into a corner.
        greedy = empty.copy()
        remaining = [1, 2, 3]
        stranded = False
        while remaining:
            scored = []
            for tid in remaining:
                try:
                    c, pos = insertion_cost(tid, greedy, model)
                except AllInfeasible as exc:
                    c, pos = math.inf, exc.best_position
                scored.append((c, tid, pos))
            c, tid, pos = min(scored, key=lambda item: item[0])
            if not math.isfinite(c):
                stranded = True
            from georepair.search import _insert_target
            _insert_target(greedy, tid, pos, model)
            remaining.remove(tid)
        assert stranded
        assert not evaluate_plan(scenario, greedy).feasible

        # Farthest-first repair places the hard target while room remains.
        repaired = repair([1, 2, 3], empty, model)
        assert evaluate_plan(scenario, repaired).feasible

    def test_single_removed_target_lands_at_best_position(self):
        rng = random.Random(12)
        scenario = random_scenario_tuple(rng, 5, 2, deadline_s=30 * DAY)
        model = CostModel(scenario)
        partial = MissionPlan([
            Route(1, [1, 2], list(model.allocate(1, [1, 2]))),
            Route(2, [4, 5], list(model.allocate(2, [4, 5])))])
        cost, (sid, pos) = insertion_cost(3, partial, model)
        plan = repair([3], partial, model)
        route = next(r for r in plan.routes if r.servicer_id == sid)
        assert route.target_sequence[pos] == 3


def scan_every_slot(target_id, partial, model):
    """Insertion as one pass over every route and slot in order, keeping
    the first least delta; ``("feasible" | "infeasible", delta, position)``.
    """
    best = best_pen = None
    for route in partial.routes:
        sid, seq = route.servicer_id, route.target_sequence
        old_score = model.route_score(sid, seq, route.revolutions)[0]
        budget = model.scenario.servicer(sid).dv_budget
        for pos in range(len(seq) + 1):
            cand = seq[:pos] + [target_id] + seq[pos:]
            _, dv, p1, _ = model.priced_route(sid, cand)
            p2 = max(dv - budget, 0.0)
            delta = penalized_fitness(dv, p1, p2, model.phi,
                                      model.gamma) - old_score
            if p1 == 0.0 and p2 == 0.0 and (best is None or delta < best[0]):
                best = (delta, (sid, pos))
            if best_pen is None or delta < best_pen[0]:
                best_pen = (delta, (sid, pos))
    if best is not None:
        return ("feasible",) + best
    return ("infeasible",) + best_pen


def insertion_answer(target_id, partial, model):
    """``insertion_cost`` as ``("feasible" | "infeasible", delta,
    position)``."""
    try:
        cost, pos = insertion_cost(target_id, partial, model)
    except AllInfeasible as exc:
        return "infeasible", exc.penalized_cost, exc.best_position
    return "feasible", cost, pos


def random_partials(scenario, model, rng, count, removed=3):
    """Allocated partial plans, each with the targets it lacks."""
    tids = [t.id for t in scenario.targets]
    sids = [s.id for s in scenario.servicers]
    out = []
    for _ in range(count):
        order = rng.sample(tids, len(tids))
        missing, kept = order[:removed], order[removed:]
        cuts = sorted(rng.choices(range(len(kept) + 1), k=len(sids) - 1))
        bounds = [0] + cuts + [len(kept)]
        routes = []
        for sid, lo, hi in zip(sids, bounds, bounds[1:]):
            seq = kept[lo:hi]
            routes.append(Route(sid, seq, model.allocate(sid, seq)
                                if seq else []))
        out.append((MissionPlan(routes), missing))
    return out


class TestInsertionMemo:
    """``insertion_cost`` reads per-route scans from ``CostModel``'s
    insertion memo; a warm memo must give the answers of a fresh model and
    of one in-order pass over every slot, ties and ``AllInfeasible``
    included."""

    @staticmethod
    def twin_scenario(deadline_days):
        # Identical servicers and pairs of identical targets, so distinct
        # slots, in one route and across routes, price exactly the same.
        return make_scenario(
            [(2.0, 30.0, 100.0, 2000.0), (2.0, 30.0, 100.0, 2000.0)],
            [(1.0, 40.0, 200.0, 20 * HOUR), (1.0, 40.0, 200.0, 20 * HOUR),
             (3.0, 60.0, 20.0, 20 * HOUR), (3.0, 60.0, 20.0, 20 * HOUR),
             (0.5, 10.0, 300.0, 20 * HOUR)],
            deadline_s=deadline_days * DAY)

    def check_warm_against_fresh(self, scenario, partials, policies=({},)):
        """Queries alternating over ``policies`` (the keyword arguments of
        ``CostModel``), each on one warm model per policy."""
        warm = [CostModel(scenario, **policy) for policy in policies]
        outcomes = set()
        queries = [(plan, tid, i) for plan, missing in partials
                   for tid in missing for i in range(len(policies))]
        for plan, tid, i in queries + queries[::-1]:
            got = insertion_answer(tid, plan, warm[i])
            assert got == insertion_answer(
                tid, plan, CostModel(scenario, **policies[i]))
            assert got == scan_every_slot(
                tid, plan, CostModel(scenario, **policies[i]))
            outcomes.add(got[0])
        return outcomes

    @pytest.mark.parametrize("days", [20.0, 1.5])
    def test_tied_slots_keep_the_first_position(self, days):
        scenario = self.twin_scenario(days)
        model = CostModel(scenario)
        expected = "feasible" if days > 10 else "infeasible"
        # Targets 1 and 2 are twins on twin servicers: each slot of route 1
        # ties with the same slot of route 2, and route 1 comes first.
        mirrored = MissionPlan([Route(1, [1], model.allocate(1, [1])),
                                Route(2, [2], model.allocate(2, [2]))])
        # Slots 0 and 1 of route 1 give twin routes; slot 1 never wins.
        twinned = MissionPlan([Route(1, [1], model.allocate(1, [1])),
                               Route(2, [3, 5], model.allocate(2, [3, 5]))])
        for _ in range(2):
            for tid in (3, 4, 5):
                outcome, _, pos = insertion_answer(tid, mirrored, model)
                assert outcome == expected and pos[0] == 1
            outcome, _, pos = insertion_answer(2, twinned, model)
            assert outcome == expected and pos != (1, 1)
        partials = random_partials(scenario, model, random.Random(31), 30,
                                   removed=2)
        outcomes = self.check_warm_against_fresh(scenario, partials)
        assert outcomes == {"feasible" if days > 10 else "infeasible"}

    def test_tight_deadline_scenario(self):
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        partials = random_partials(scenario, CostModel(scenario),
                                   random.Random(32), 25)
        outcomes = self.check_warm_against_fresh(
            scenario, partials,
            ({}, {"phi": 3.0}, {"gamma": 0.5}, {"slack_rule": "smallest"}))
        assert outcomes == {"feasible", "infeasible"}

    def test_memo_key_holds_the_route_revolutions(self):
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        model = CostModel(scenario)
        plan = MissionPlan([Route(1, [1, 2, 3], model.allocate(1, [1, 2, 3])),
                            Route(2, [4, 5], model.allocate(2, [4, 5]))])
        insertion_answer(6, plan, model)
        plan.routes[0].revolutions = [k + 1 for k in plan.routes[0].revolutions]
        assert insertion_answer(6, plan, model) == scan_every_slot(
            6, plan, CostModel(scenario))

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(planning, "_ROUTE_CACHE_CAP", 5)
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        model = CostModel(scenario)
        partials = random_partials(scenario, model, random.Random(33), 10)
        for plan, missing in partials:
            for tid in missing:
                got = insertion_answer(tid, plan, model)
                assert len(model._insertions) <= 5
                assert got == insertion_answer(tid, plan, CostModel(scenario))


class TestBoundedSearchCaches:
    """The engine's chromosome cache and the Lambert leg cache never exceed
    their caps, and emptying them leaves a solve as it was, the Lambert
    one up to the rounding of its key."""

    def test_gene_cache_stays_within_its_cap(self, monkeypatch):
        scenario = random_scenario(6, 2, 6.0, seed=7)
        fresh = solve_lns_aga(scenario, small_ga(20, 20, 10), LnsParams(),
                              seed=1)
        sizes = []
        original = search._MixedAdapter.route

        def spy(self, sid, seq):
            # The cache is the ``cache`` cell of the engine's ``evaluate``
            # closure, the adapter's caller; it is read before its insert.
            sizes.append(len(sys._getframe(1).f_locals["cache"]))
            return original(self, sid, seq)

        monkeypatch.setattr(search._MixedAdapter, "route", spy)
        monkeypatch.setattr(search, "_GENE_CACHE_CAP", 5)
        capped = solve_lns_aga(scenario, small_ga(20, 20, 10), LnsParams(),
                               seed=1)
        assert max(sizes) == 5
        assert capped.history == fresh.history
        assert capped.best_plan == fresh.best_plan
        assert capped.best_evaluation.fitness == fresh.best_evaluation.fitness

    def test_leg_cache_stays_within_its_cap(self, monkeypatch):
        scenario = random_scenario(6, 2, 6.0, seed=7)
        fresh = solve_lambert_ga(scenario, small_ga(20, 20, 10), seed=1)
        sizes = []
        original = _LambertAdapter._leg

        def spy(self, *args):
            result = original(self, *args)
            sizes.append(len(self._leg_cache))
            return result

        monkeypatch.setattr(_LambertAdapter, "_leg", spy)
        monkeypatch.setattr(search, "_LEG_CACHE_CAP", 5)
        capped = solve_lambert_ga(scenario, small_ga(20, 20, 10), seed=1)
        assert max(sizes) == 5
        assert capped.best_plan == fresh.best_plan
        assert capped.generations_run == fresh.generations_run
        # The leg cache rounds departure times to the millisecond, so a hit
        # may return a leg priced at a departure up to half a millisecond
        # away, and a solve whose cache empties can differ in the last bits.
        assert len(capped.history) == len(fresh.history)
        for got, want in zip(capped.history, fresh.history):
            assert got == pytest.approx(want, rel=1e-12)
        assert capped.best_evaluation.fitness == pytest.approx(
            fresh.best_evaluation.fitness, rel=1e-12)


class TestLnsImprove:
    def setup_method(self):
        rng = random.Random(13)
        self.scenario = random_scenario_tuple(rng, 8, 2, deadline_s=25 * DAY)
        self.model = CostModel(self.scenario)
        seqs = [[1, 2, 3, 4], [5, 6, 7, 8]]
        self.plan = MissionPlan([
            Route(sid, seq, list(self.model.allocate(sid, seq)))
            for sid, seq in zip((1, 2), seqs)])

    def test_zero_iterations_is_identity(self):
        out = lns_improve(self.plan, LnsParams(lns_iterations=0),
                          random.Random(0), self.model)
        assert out is self.plan

    def test_never_hurts(self):
        base = self.model.plan_fitness(self.plan)
        for seed in range(20):
            out = lns_improve(self.plan, LnsParams(), random.Random(seed),
                              self.model)
            assert self.model.plan_fitness(out) <= base + 1e-9

    def test_seed_determinism(self):
        a = lns_improve(self.plan, LnsParams(), random.Random(99), self.model)
        b = lns_improve(self.plan, LnsParams(), random.Random(99), self.model)
        assert [r.target_sequence for r in a.routes] == \
            [r.target_sequence for r in b.routes]
        assert [r.revolutions for r in a.routes] == \
            [r.revolutions for r in b.routes]


class TestSolvers:
    def test_trivial_instance_matches_oracle_exactly(self):
        scenario = make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                                 [(3.0, 40.0, 200.0, 20 * HOUR)],
                                 deadline_s=5 * DAY)
        result = solve_lns_aga(scenario, small_ga(pop=10, iters=5, stall=3),
                               LnsParams(), seed=1)
        _, oracle = exhaustive_solve(scenario, max_revolutions=4)
        assert result.best_evaluation.fitness == pytest.approx(
            oracle.fitness, abs=1e-6)

    def test_seed_determinism(self):
        rng = random.Random(14)
        scenario = random_scenario_tuple(rng, 5, 2, deadline_s=10 * DAY)
        a = solve_lns_aga(scenario, small_ga(), LnsParams(), seed=7)
        b = solve_lns_aga(scenario, small_ga(), LnsParams(), seed=7)
        assert a.history == b.history
        assert a.best_evaluation.fitness == b.best_evaluation.fitness
        g = solve_ga(scenario, small_ga(), seed=7)
        h = solve_ga(scenario, small_ga(), seed=7)
        assert g.history == h.history

    def test_history_best_is_monotone(self):
        rng = random.Random(15)
        scenario = random_scenario_tuple(rng, 6, 2, deadline_s=12 * DAY)
        for result in (solve_lns_aga(scenario, small_ga(), LnsParams(), 3),
                       solve_ga(scenario, small_ga(), seed=3)):
            best = [h[0] for h in result.history]
            assert all(b <= a for a, b in zip(best, best[1:]))
            assert result.best_evaluation.fitness == pytest.approx(
                min(best), rel=1e-9)

    def test_small_instances_reach_oracle(self):
        rng = random.Random(16)
        hits = 0
        for case in range(4):
            m = rng.randint(2, 4)
            scenario = random_scenario_tuple(
                rng, m, 2, deadline_s=(m + rng.uniform(1.1, 1.6)) * DAY)
            _, oracle = exhaustive_solve(scenario, max_revolutions=4)
            best = min(solve_lns_aga(scenario, small_ga(pop=40, iters=40,
                                                        stall=20),
                                     LnsParams(), seed=s).best_evaluation.fitness
                       for s in range(3))
            if abs(best - oracle.fitness) < 1e-6:
                hits += 1
        assert hits >= 3

    def test_smallest_slack_rule_end_to_end(self):
        rng = random.Random(19)
        scenario = random_scenario_tuple(rng, 5, 2, deadline_s=12 * DAY)
        a = solve_lns_aga(scenario, small_ga(), LnsParams(), seed=4,
                          slack_rule="smallest")
        b = solve_lns_aga(scenario, small_ga(), LnsParams(), seed=4,
                          slack_rule="smallest")
        assert a.history == b.history
        assert math.isfinite(a.best_evaluation.fitness)

    def test_lambert_ga_runs_and_is_deterministic(self):
        rng = random.Random(17)
        scenario = random_scenario_tuple(rng, 4, 2, deadline_s=8 * DAY)
        a = solve_lambert_ga(scenario, small_ga(), seed=5)
        b = solve_lambert_ga(scenario, small_ga(), seed=5)
        assert a.history == b.history
        assert math.isfinite(a.best_evaluation.fitness)
        assert len(a.best_evaluation.leg_details) == 4
        best = [h[0] for h in a.history]
        assert all(x <= y + 1e-12 for x, y in zip(best[1:], best))

    def test_lambert_legs_can_fly_inside_one_period(self):
        rng = random.Random(18)
        scenario = random_scenario_tuple(rng, 4, 2, deadline_s=5 * DAY)
        result = solve_lambert_ga(scenario, small_ga(), seed=2)
        assert any(leg.solution.phase_time < T
                   for leg in result.best_evaluation.leg_details)

    def test_failed_lambert_leg_is_infinite_in_search_and_final_evaluation(
            self, monkeypatch):
        def fail(*args, **kwargs):
            raise CollinearGeometry("forced failure")

        monkeypatch.setattr(search, "lambert_solve", fail)
        scenario = random_scenario_tuple(random.Random(19), 3, 2,
                                         deadline_s=8 * DAY)
        adapter = _LambertAdapter(scenario, 1.0, 10.0)
        _, score = adapter.route(1, [1, 2])
        assert score == math.inf
        plan = MissionPlan([Route(1, [1, 2], [1, 1]), Route(2, [3], [1])])
        ev = evaluate_plan_lambert(scenario, plan)
        assert ev.total_dv == math.inf and ev.fitness == math.inf
        assert not ev.feasible
        assert all(math.isnan(x) for x in ev.leg_details[0].solution.impulse1)
        result = solve_lambert_ga(scenario, small_ga(), seed=1)
        assert result.history[-1][0] == math.inf
        assert result.best_evaluation.fitness == math.inf
        assert not result.best_evaluation.feasible
