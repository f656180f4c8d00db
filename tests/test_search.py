"""Genetic operator, LNS and solver behavior tests."""

import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georepair import astro, planning, search
from georepair.astro import GEO, CollinearGeometry, fold_angle
from georepair.planning import (
    CostModel,
    MissionPlan,
    Route,
    _LegModel,
    decode,
    evaluate_plan,
    exhaustive_solve,
    penalized_fitness,
)
from georepair.scenarios import case_study, random_scenario
from georepair.search import (
    AllInfeasible,
    _LambertAdapter,
    _relatedness,
    _two_sites,
    GaParams,
    LnsParams,
    adaptive_pc,
    adaptive_pm,
    destroy,
    destroy_draws,
    evaluate_plan_lambert,
    init_population,
    insertion_cost,
    lns_improve,
    pmx_crossover,
    repair,
    selection,
    selection_weights,
    solve_ga,
    solve_lambert_ga,
    solve_lns_aga,
    swap_mutation,
    swap_positions,
)
from scenario_builders import (
    allocated_route,
    make_scenario,
    random_scenario_tuple,
)
from test_fingerprint import EXPECTED, GA, SEEDS, fingerprint
from test_planning import hexed

HOUR = 3600.0
DAY = 86400.0
T = GEO.t_geo


def small_ga(pop=30, iters=30, stall=15):
    return GaParams(population_size=pop, min_iterations=iters,
                    stall_iterations=stall)


def route_of(seqs):
    """Target id to the index of the sequence that holds it."""
    return {tid: j for j, seq in enumerate(seqs) for tid in seq}


def relatedness(i, j, seqs, beta, model):
    """R of targets i and j in ``seqs``, computed as ``destroy`` does."""
    home = route_of(seqs)
    return _relatedness(model.pair_cost_table(beta)[i][j], home[i] == home[j])


def flat(seqs):
    return [tid for seq in seqs for tid in seq]


def drawn_destroy(seqs, params, rng, model):
    """``destroy`` on ``seqs`` with draws made from ``rng``."""
    return destroy(seqs, destroy_draws(seqs, params, rng), params, model)


def allocated_plan(model, seqs):
    """``seqs`` as a ``MissionPlan`` flown on ``allocate``'s revolutions."""
    return MissionPlan([Route(sid, list(seq), model.allocate(sid, seq))
                        for sid, seq in zip(model.servicer_ids, seqs)])


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

    @pytest.mark.parametrize("kwargs,field", [
        pytest.param({"phi": math.nan}, "phi", id="phi-nan"),
        pytest.param({"phi": math.inf}, "phi", id="phi-inf"),
        pytest.param({"phi": -1.0}, "phi", id="phi-negative"),
        pytest.param({"gamma": math.nan}, "gamma", id="gamma-nan"),
        pytest.param({"gamma": -0.5}, "gamma", id="gamma-negative"),
        pytest.param({"population_size": 10 ** 9}, "population_size",
                     id="population-huge"),
        pytest.param({"min_iterations": 10 ** 9}, "min_iterations",
                     id="min-iterations-huge"),
        pytest.param({"stall_iterations": 10 ** 9}, "stall_iterations",
                     id="stall-iterations-huge"),
        pytest.param({"min_iterations": -1}, "min_iterations",
                     id="min-iterations-negative"),
        pytest.param({"stall_iterations": -1}, "stall_iterations",
                     id="stall-iterations-negative"),
    ])
    def test_ga_params_reject_with_the_field_named(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            GaParams(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        pytest.param({"determinism_p": math.nan}, "determinism_p",
                     id="determinism-nan"),
        pytest.param({"elite_fraction": math.nan}, "elite_fraction",
                     id="elite-nan"),
        pytest.param({"elite_fraction": 0.0}, "elite_fraction",
                     id="elite-zero"),
        pytest.param({"elite_fraction": 1.5}, "elite_fraction",
                     id="elite-above-one"),
        pytest.param({"lns_iterations": 10 ** 9}, "lns_iterations",
                     id="lns-iterations-huge"),
        pytest.param({"lns_iterations": search.MAX_ITERATIONS + 1},
                     "lns_iterations", id="lns-iterations-above-cap"),
        pytest.param({"lns_iterations": -5}, "lns_iterations",
                     id="lns-iterations-negative"),
    ])
    def test_lns_params_reject_with_the_field_named(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            LnsParams(**kwargs)

    def test_bounds_are_inclusive(self):
        GaParams(population_size=search.MAX_POPULATION,
                 min_iterations=search.MAX_ITERATIONS,
                 stall_iterations=search.MAX_ITERATIONS, phi=0.0, gamma=0.0)
        GaParams(min_iterations=0, stall_iterations=0)
        LnsParams(determinism_p=1.0, elite_fraction=1.0,
                  lns_iterations=search.MAX_ITERATIONS)
        LnsParams(lns_iterations=0)


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
            pool = selection(selection_weights([5.0] * 4), 0, rng)
            counts[pool[1]] += 1
        for c in counts:
            assert c / 40_000 == pytest.approx(0.25, abs=0.02)

    def test_three_to_one_weights(self):
        # Fitness 1 vs 3 gives selection weights 3:1.
        rng = random.Random(2)
        hits = 0
        n = 100_000
        for _ in range(n):
            pool = selection(selection_weights([1.0, 3.0]), 0, rng)
            if pool[1] == 0:
                hits += 1
        assert hits / n == pytest.approx(0.75, abs=0.02)

    def test_zero_fitness_gets_the_largest_positive_weight(self):
        weights = selection_weights([0.0, 1e-9, 1.0, 3.0])
        assert weights[0] == max(weights) == 1.0 / search.FITNESS_EPS
        assert all(w > 0.0 for w in weights)

    def test_best_always_in_slot_zero(self):
        rng = random.Random(3)
        for _ in range(100):
            fits = [rng.uniform(1, 100) for _ in range(8)]
            elite = min(range(8), key=lambda i: fits[i])
            pool = selection(selection_weights(fits), elite, rng)
            assert pool[0] == elite
            assert len(pool) == 8 and all(0 <= i < 8 for i in pool)


class TestLeftToRightSums:
    """The engine adds its floats left to right, so its histories do not
    depend on the Python version: from 3.12 on, ``sum`` compensates its
    rounding. Each test gives ``search`` a correctly rounded ``sum``, which
    differs from left-to-right addition on these inputs, and expects
    nothing to change."""

    @pytest.fixture
    def compensated_sum(self, monkeypatch):
        monkeypatch.setattr(search, "sum", math.fsum, raising=False)

    def test_mean(self, compensated_sum):
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        assert search._mean([1e16, 1.0, -1e16]) == 0.0

    def test_selection_total(self, compensated_sum):
        # Added left to right, the weights total 1.0, so the largest draw
        # below 1 still picks the first weight; a compensated total
        # exceeds 1.0 and would pick the last.
        class LargestDraw:
            def random(self):
                return 1.0 - 2.0 ** -53

        weights = [1.0] + [1e-16] * 1000
        assert selection(weights, 0, LargestDraw()) == [0] * 1001

    @pytest.mark.parametrize("solve", [solve_ga, solve_lns_aga])
    def test_engine_history(self, monkeypatch, solve):
        # The mean weight that ``breed`` gives the adaptive rates is
        # recorded too: its last bits rarely move a draw, so the history
        # alone would not show it.
        rate = search.adaptive_pm

        def run():
            means = []

            def spy(w_i, w_avg, w_max, params):
                means.append(w_avg.hex())
                return rate(w_i, w_avg, w_max, params)

            monkeypatch.setattr(search, "adaptive_pm", spy)
            result = solve(random_scenario(6, 2, 10.0, seed=7),
                           small_ga(20, 20, 10), seed=1)
            return [(b.hex(), a.hex()) for b, a in result.history], means

        want = run()
        monkeypatch.setattr(search, "sum", math.fsum, raising=False)
        assert run() == want


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


def reference_pmx_crossover(a, b, cut1, cut2):
    """``pmx_crossover`` as it read before it was written as position-wise
    swaps, copied verbatim: every position outside the segment is checked
    against the donor segment. The oracle of ``TestPmx``."""
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


@st.composite
def parent_pairs(draw):
    genes = list(range(1, draw(st.integers(1, 40)) + 1))
    return draw(st.permutations(genes)), draw(st.permutations(genes))


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

    @settings(max_examples=100, deadline=None)
    @given(parent_pairs())
    def test_matches_the_reference_at_every_cut_pair(self, parents):
        a, b = parents
        for cut1, cut2 in itertools.combinations(range(len(a) + 1), 2):
            assert (pmx_crossover(a, b, cut1, cut2)
                    == reference_pmx_crossover(a, b, cut1, cut2))

    @pytest.mark.parametrize("length, pairs", [(200, 100), (1001, 30)])
    def test_matches_the_reference_at_long_lengths(self, length, pairs):
        # Chromosomes of 1,001 genes are MAX_TARGETS targets and two
        # servicers; each pair is crossed at random cuts and over the
        # whole string.
        rng = random.Random(length)
        genes = list(range(1, length + 1))
        for _ in range(pairs):
            a, b = rng.sample(genes, length), rng.sample(genes, length)
            cut1, cut2 = sorted(rng.sample(range(length + 1), 2))
            for cuts in ((cut1, cut2), (0, length)):
                assert (pmx_crossover(a, b, *cuts)
                        == reference_pmx_crossover(a, b, *cuts))


class TestTwoSites:
    """``_two_sites`` is ``random.Random.sample(range(n), 2)`` draw for draw,
    on both sides of the item count where ``sample`` changes method."""

    def test_matches_sample_and_leaves_the_same_state(self):
        for n in range(2, 121):
            for seed in range(40):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(10):
                    assert (_two_sites(ours, n)
                            == tuple(theirs.sample(range(n), 2)))
                assert ours.getstate() == theirs.getstate()

    def test_refuses_fewer_than_two_sites(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                _two_sites(random.Random(1), n)


class TestSwapMutation:
    def test_exactly_two_sites_change(self):
        rng = random.Random(5)
        chrom = list(range(1, 12))
        for _ in range(200):
            mutated = swap_mutation(chrom, rng)
            diffs = [i for i in range(len(chrom)) if mutated[i] != chrom[i]]
            assert len(diffs) == 2
            assert sorted(mutated) == sorted(chrom)

    @pytest.mark.parametrize("m, n", [(2, 1), (1, 2)])
    def test_a_solve_mutates_its_two_gene_chromosomes(self, monkeypatch, m,
                                                      n):
        # With m + n = 3 a chromosome holds two genes, the fewest that one
        # swap can reorder, and ``breed`` still mutates it.
        mutated = []

        def spy(chrom, rng):
            mutated.append(len(chrom))
            return swap_mutation(chrom, rng)

        monkeypatch.setattr(search, "swap_mutation", spy)
        solve_ga(random_scenario(m, n, 10.0, seed=5), small_ga(10, 10, 5),
                 seed=1)
        assert mutated and set(mutated) == {2}

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
        r = relatedness(1, 2, [[1, 2, 3]], 0.5, self.model)
        assert r == pytest.approx(1e6, rel=1e-6)

    def test_max_cost_pair_on_distinct_routes(self):
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 30.0, 100.0, HOUR), (8.0, 200.0, 280.0, HOUR)],
            deadline_s=20 * DAY)
        model = CostModel(scenario)
        r = relatedness(1, 2, [[1], [2]], 0.5, model)
        assert r == pytest.approx(1.0 / (1.0 + 1.0 + 1e-6), rel=1e-9)

    def test_monotone_in_route_membership(self):
        together = [[1, 3, 2]]
        # Same pair cost, different route membership must lower R.
        scenario2 = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 30.0, 100.0, HOUR), (2.0, 30.0, 100.0, HOUR),
             (8.0, 200.0, 280.0, HOUR)],
            deadline_s=20 * DAY)
        model2 = CostModel(scenario2)
        apart = [[1], [2, 3]]
        r_same = relatedness(1, 3, together, 0.5, self.model)
        r_apart = relatedness(1, 3, apart, 0.5, model2)
        assert r_apart < r_same

    @pytest.mark.parametrize("beta", [0.5, 0.2])
    def test_tabled_relatedness_equals_the_formula(self, beta):
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        model = CostModel(scenario)
        seqs = [[3, 1, 7, 9], [2, 4, 5, 6, 8, 10]]
        pairs = list(itertools.permutations(range(1, 11), 2))
        c_max = max(model.target_pair_cost(i, j, beta)
                    for i, j in itertools.combinations(range(1, 11), 2))
        home = route_of(seqs)
        for i, j in pairs:
            c = model.target_pair_cost(i, j, beta) / c_max
            v = 0.0 if home[i] == home[j] else 1.0
            assert relatedness(i, j, seqs, beta, model) == (
                1.0 / (c + v + 1e-6))


def reference_destroy(seqs, params, rng, model):
    """``destroy`` as it read before its draws were split out, copied
    verbatim: each rank is drawn between the sorts. The oracle of
    ``TestDestroy``."""
    pair_cost = model.pair_cost_table(params.beta)
    route_of = {tid: j for j, seq in enumerate(seqs) for tid in seq}
    all_targets = [tid for seq in seqs for tid in seq]
    count = math.ceil(len(all_targets) * params.remove_rate)
    first = rng.choice(all_targets)
    remaining = [tid for tid in all_targets if tid != first]
    removed = [first]
    while len(removed) < count:
        row = pair_cost[removed[-1]]
        home = route_of[removed[-1]]
        ranked = sorted(
            remaining,
            key=lambda t: (-_relatedness(row[t], route_of[t] == home), t))
        y = rng.random()
        idx = int(y ** params.determinism_p * len(ranked))
        pick = ranked[min(idx, len(ranked) - 1)]
        remaining.remove(pick)
        removed.append(pick)
    gone = set(removed)
    return removed, [[tid for tid in seq if tid not in gone] for seq in seqs]


class TestDestroy:
    def setup_method(self):
        rng = random.Random(6)
        self.scenario = random_scenario_tuple(rng, 10, 2,
                                              deadline_s=30 * DAY)
        self.model = CostModel(self.scenario)
        self.seqs = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]

    def test_exact_removal_count(self):
        removed, partial = drawn_destroy(
            self.seqs, LnsParams(remove_rate=0.3), random.Random(7),
            self.model)
        assert len(removed) == 3
        assert sorted(flat(partial) + removed) == list(range(1, 11))

    def test_single_removal(self):
        removed, partial = drawn_destroy(
            self.seqs, LnsParams(remove_rate=0.05), random.Random(8),
            self.model)
        assert len(removed) == 1
        assert removed[0] not in flat(partial)

    def test_high_determinism_is_greedy(self):
        params = LnsParams(remove_rate=0.3, determinism_p=200.0)
        rng = random.Random(9)
        removed, _ = drawn_destroy(self.seqs, params, rng, self.model)
        # Replay: after the seeded removal every pick must be the single
        # most related remaining target.
        rng2 = random.Random(9)
        first = rng2.choice(flat(self.seqs))
        assert removed[0] == first
        picks = [first]
        while len(picks) < 3:
            remaining = [t for t in flat(self.seqs) if t not in picks]
            rng2.random()  # the y draw
            best = max(remaining,
                       key=lambda t: (relatedness(picks[-1], t, self.seqs, 0.5,
                                                  self.model),
                                      -t))
            picks.append(best)
        assert removed == picks

    def test_surviving_routes_keep_their_order(self):
        removed, partial = drawn_destroy(
            self.seqs, LnsParams(remove_rate=0.3), random.Random(10),
            self.model)
        assert partial == [[t for t in seq if t not in removed]
                           for seq in self.seqs]

    def test_draws_are_the_first_target_and_clamped_ranks(self):
        m = 10
        for rate, p in [(0.05, 6.0), (0.3, 1.0), (0.95, 6.0), (0.5, 200.0)]:
            params = LnsParams(remove_rate=rate, determinism_p=p)
            for seed in range(20):
                draws = destroy_draws(self.seqs, params, random.Random(seed))
                assert len(draws) == math.ceil(m * rate)
                assert draws[0] in flat(self.seqs)
                sizes = range(m - 1, m - len(draws), -1)
                assert all(0 <= rank < size
                           for rank, size in zip(draws[1:], sizes))

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 11))), st.integers(0, 9),
           st.floats(0.05, 0.95), st.floats(1.0, 12.0),
           st.sampled_from([0.2, 0.5]), st.integers(0, 2**32 - 1))
    def test_split_destroy_is_the_reference_draw_for_draw(
            self, order, cut, rate, p, beta, seed):
        # Drawing every number first draws the stream that drawing each
        # rank between the sorts did: the same removal, the same partial
        # routes and the same generator state after.
        seqs = [order[:cut], order[cut:]]
        params = LnsParams(remove_rate=rate, determinism_p=p, beta=beta)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert (drawn_destroy(seqs, params, ours, self.model)
                == reference_destroy(seqs, params, theirs, self.model))
        assert ours.getstate() == theirs.getstate()


class TestInsertionAndRepair:
    def test_free_insertion_into_matching_empty_route(self):
        # Both targets sit exactly on their servicer's orbit, so the only
        # zero-cost move is target 1 into servicer 1's empty route.
        scenario = make_scenario(
            [(3.0, 40.0, 120.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(3.0, 40.0, 120.0, HOUR), (0.0, 0.0, 0.0, HOUR)],
            deadline_s=20 * DAY)
        model = CostModel(scenario)
        cost, pos = insertion_cost(1, [[], [2]], model)
        assert cost == pytest.approx(0.0, abs=1e-9)
        assert pos == (0, 0)

    def test_all_infeasible_raises_with_fallback(self):
        # One-day deadline cannot absorb any phasing leg.
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0)],
            [(2.0, 10.0, 100.0, 20 * HOUR), (3.0, 50.0, 200.0, 20 * HOUR)],
            deadline_s=1.2 * DAY)
        model = CostModel(scenario)
        with pytest.raises(AllInfeasible) as exc:
            insertion_cost(1, [[2]], model)
        route, pos = exc.value.best_position
        assert route == 0 and pos in (0, 1)

    def test_reported_cost_matches_recomputation(self):
        rng = random.Random(11)
        scenario = random_scenario_tuple(rng, 6, 2, deadline_s=30 * DAY)
        model = CostModel(scenario)
        partial = [[1, 2], [3, 4, 5]]
        cost, (j, pos) = insertion_cost(6, partial, model)
        sid, seq = scenario.servicers[j].id, partial[j]
        old_score, _, _, _ = model.route_score(sid, seq,
                                               model.allocate(sid, seq))
        new_seq = seq[:pos] + [6] + seq[pos:]
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
        empty = [[], []]

        # Greedy (ascending insertion cost) walks itself into a corner.
        greedy = [[], []]
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
            c, tid, (j, slot) = min(scored, key=lambda item: item[0])
            if not math.isfinite(c):
                stranded = True
            greedy[j].insert(slot, tid)
            remaining.remove(tid)
        assert stranded
        assert not evaluate_plan(scenario, allocated_plan(model, greedy)
                                 ).feasible

        # Farthest-first repair places the hard target while room remains.
        repaired = repair([1, 2, 3], empty, model)
        assert evaluate_plan(scenario, allocated_plan(model, repaired)
                             ).feasible

    def test_single_removed_target_lands_at_best_position(self):
        rng = random.Random(12)
        scenario = random_scenario_tuple(rng, 5, 2, deadline_s=30 * DAY)
        model = CostModel(scenario)
        partial = [[1, 2], [4, 5]]
        cost, (j, pos) = insertion_cost(3, partial, model)
        assert repair([3], partial, model)[j][pos] == 3


def scan_every_slot(target_id, partial, model):
    """Insertion as one pass over every route and slot in order, keeping
    the first least delta; ``("feasible" | "infeasible", delta, position)``.
    """
    best = best_pen = None
    for j, seq in enumerate(partial):
        sid = model.scenario.servicers[j].id
        old_score = model.route_score(sid, seq, model.allocate(sid, seq))[0]
        budget = model.scenario.servicer(sid).dv_budget
        for pos in range(len(seq) + 1):
            cand = seq[:pos] + [target_id] + seq[pos:]
            _, dv, p1, _ = allocated_route(model, sid, cand)
            p2 = max(dv - budget, 0.0)
            delta = penalized_fitness(dv, p1, p2, model.phi,
                                      model.gamma) - old_score
            if p1 == 0.0 and p2 == 0.0 and (best is None or delta < best[0]):
                best = (delta, (j, pos))
            if best_pen is None or delta < best_pen[0]:
                best_pen = (delta, (j, pos))
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


def random_partials(scenario, rng, count, removed=3):
    """Partial sequences, each with the targets it lacks."""
    tids = [t.id for t in scenario.targets]
    n = len(scenario.servicers)
    out = []
    for _ in range(count):
        order = rng.sample(tids, len(tids))
        missing, kept = order[:removed], order[removed:]
        cuts = sorted(rng.choices(range(len(kept) + 1), k=n - 1))
        bounds = [0] + cuts + [len(kept)]
        out.append(([kept[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
                    missing))
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
        # Targets 1 and 2 are twins on twin servicers: each slot of route 0
        # ties with the same slot of route 1, and route 0 comes first.
        mirrored = [[1], [2]]
        # Slots 0 and 1 of route 0 give twin routes; slot 1 never wins.
        twinned = [[1], [3, 5]]
        for _ in range(2):
            for tid in (3, 4, 5):
                outcome, _, pos = insertion_answer(tid, mirrored, model)
                assert outcome == expected and pos[0] == 0
            outcome, _, pos = insertion_answer(2, twinned, model)
            assert outcome == expected and pos != (0, 1)
        partials = random_partials(scenario, random.Random(31), 30,
                                   removed=2)
        outcomes = self.check_warm_against_fresh(scenario, partials)
        assert outcomes == {"feasible" if days > 10 else "infeasible"}

    def test_tight_deadline_scenario(self):
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        partials = random_partials(scenario, random.Random(32), 25)
        outcomes = self.check_warm_against_fresh(
            scenario, partials,
            ({}, {"phi": 3.0}, {"gamma": 0.5}, {"slack_rule": "smallest"}))
        assert outcomes == {"feasible", "infeasible"}

    def test_memo_value_is_one_flat_tuple(self):
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        model = CostModel(scenario)
        kinds = set()
        for plan, missing in random_partials(scenario, random.Random(34), 10):
            for tid in missing:
                insertion_answer(tid, plan, model)
        for key, value in model._insertions.items():
            assert type(value) is tuple and len(value) == 4
            delta, slot, pen, pen_slot = value
            assert type(pen) is float and type(pen_slot) is int
            assert 0 <= pen_slot <= len(key) - 2
            if delta is None:
                assert slot is None
                kinds.add("infeasible")
            else:
                assert type(delta) is float and type(slot) is int
                assert pen <= delta
                kinds.add("feasible")
        assert kinds == {"feasible", "infeasible"}


def reference_repair(removed, partial, model):
    """Farthest insertion as one plain loop: each round scores every
    remaining target by ``insertion_cost`` in full, ``inf`` when it raises
    ``AllInfeasible``, and inserts the first of greatest cost by ``max``.
    """
    seqs = [list(seq) for seq in partial]
    remaining = list(removed)
    while remaining:
        scored = []
        for tid in remaining:
            try:
                cost, pos = insertion_cost(tid, seqs, model)
            except AllInfeasible as exc:
                cost, pos = math.inf, exc.best_position
            scored.append((cost, tid, pos))
        cost, tid, (j, slot) = max(scored, key=lambda item: item[0])
        seqs[j].insert(slot, tid)
        remaining.remove(tid)
    return seqs


class TestBoundedRepair:
    """``repair`` scans in full only the targets that can still be a
    round's pick, yet returns what ``reference_repair`` does: on warm and
    fresh models, with exact ties between twin targets in either order of
    ``removed``, and in rounds where every target is infeasible."""

    @staticmethod
    def check(removed, partial, scenario, warm):
        expected = reference_repair(removed, partial, CostModel(scenario))
        before = [list(seq) for seq in partial]
        assert repair(removed, partial, CostModel(scenario)) == expected
        # The warm model's insertion memo gives bounds for earlier queries.
        assert repair(removed, partial, warm) == expected
        assert repair(removed, partial, warm) == expected
        assert partial == before
        return expected

    @pytest.mark.parametrize("days, outcome", [(3.0, "infeasible"),
                                               (25.0, "feasible")])
    def test_matches_the_full_scan_on_random_partials(self, days, outcome):
        rng = random.Random(int(days))
        outcomes = set()
        for _ in range(12):
            scenario = random_scenario_tuple(
                rng, rng.randint(4, 8), rng.randint(1, 3),
                deadline_s=days * DAY * rng.uniform(0.8, 1.2),
                repair_s=rng.uniform(2, 20) * HOUR)
            warm = CostModel(scenario)
            for plan, missing in random_partials(scenario, rng, 6,
                                                 removed=rng.randint(2, 4)):
                outcomes.update(insertion_answer(tid, plan, warm)[0]
                                for tid in missing)
                self.check(missing, plan, scenario, warm)
        assert outcome in outcomes

    @pytest.mark.parametrize("days", [20.0, 1.5])
    def test_twin_targets_tie_in_either_order(self, days):
        # Targets 1 and 2 are twins, as are 3 and 4: equal orbits and
        # repair times, so their insertion costs tie exactly, finite at 20
        # days and infinite at 1.5.
        scenario = TestInsertionMemo.twin_scenario(days)
        warm = CostModel(scenario)
        for partial in ([[], []], [[5], []], [[5], [3]], [[3, 5], [4]]):
            missing = [t for t in (1, 2, 3, 4, 5) if t not in flat(partial)]
            results = {}
            for removed in itertools.permutations(missing):
                results[removed] = self.check(list(removed), partial,
                                              scenario, warm)
            # Which twin the round picks follows the order of ``removed``.
            assert len({json.dumps(r) for r in results.values()}) > 1
        outcome = "feasible" if days > 10 else "infeasible"
        assert insertion_answer(1, [[], []], warm)[0] == outcome

    def test_rounds_where_every_target_is_infeasible(self):
        # A 1.2-day deadline absorbs no phasing leg: every insertion of
        # every round is infeasible, so every cost is inf and each round
        # picks the first remaining target in ``removed``.
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0), (1.0, 20.0, 40.0, 2000.0)],
            [(2.0, 10.0, 100.0, 20 * HOUR), (3.0, 50.0, 200.0, 20 * HOUR),
             (1.0, 80.0, 300.0, 20 * HOUR), (2.5, 30.0, 10.0, 20 * HOUR)],
            deadline_s=1.2 * DAY)
        warm = CostModel(scenario)
        for removed in itertools.permutations([1, 2, 3, 4]):
            partial = [[], []]
            for tid in removed:
                assert insertion_answer(tid, partial, warm)[0] == "infeasible"
            self.check(list(removed), partial, scenario, warm)


def engine_cache(model):
    """The gene cache of the running engine: the ``cache`` local of
    ``_run_engine``, found by walking up the stack."""
    frame = sys._getframe(1)
    while frame.f_code is not search._run_engine.__code__:
        frame = frame.f_back
    return frame.f_locals["cache"]


# One row per memo: the solver that fills it, the method after each call of
# which it is read, the memo, its id counter, the constant that bounds it,
# and the ``search`` function, if any, that computes its values. Each insert
# is made inside such a call, apart from the gene cache's, which is read at
# each route pricing of a miss, before its insert.
MEMOS = {
    "route": (solve_lns_aga, CostModel, "priced_score",
              attrgetter("_priced"), "_priced_ids", "_MEMO_ID_BUDGET", None),
    "insertion": (solve_lns_aga, CostModel, "insertion_scan",
                  attrgetter("_insertions"), "_insertion_ids",
                  "_MEMO_ID_BUDGET", None),
    "attempt": (solve_lns_aga, CostModel, "attempt_outcome",
                attrgetter("_attempts"), "_attempt_ids", "_MEMO_ID_BUDGET",
                None),
    "gene": (solve_lns_aga, search._MixedAdapter, "route", engine_cache,
             None, "_MEMO_ID_BUDGET", None),
    "pair": (solve_lns_aga, CostModel, "_pair", attrgetter("_pairs"), None,
             "_ENTRY_CAP", None),
    "lambert-route": (solve_lambert_ga, _LambertAdapter, "priced_score",
                      attrgetter("_priced"), "_priced_ids",
                      "_MEMO_ID_BUDGET", None),
    "leg": (solve_lambert_ga, _LambertAdapter, "_leg",
            attrgetter("_leg_cache"), None, "_ENTRY_CAP", None),
    "state": (solve_lambert_ga, _LambertAdapter, "_state",
              attrgetter("_states"), None, "_ENTRY_CAP", "orbit_to_state"),
}


class TestBoundedSearchCaches:
    """Every memo of a solve stays within the bound that one of the two
    constants of ``planning`` sets, and emptying it leaves the solve as it
    was."""

    @staticmethod
    def watched_solve(monkeypatch, memo, scenario, capped):
        """(history, plan and reported legs by ``float.hex``, emptyings) of
        a seed-1 solve that fills ``memo``. After each read, no value has
        been computed twice since the memo last emptied, and, when
        ``capped``, the memo holds at most its bound, in ids if it is keyed
        by id tuples, else in entries, and its id counter is its summed key
        length. Between two reads a memo gets one insert at most, and under
        the table test's caps it empties only when it holds two or more,
        so it has emptied when it shrinks."""
        solve, cls, method, memo_of, counter, constant, computes = MEMOS[memo]
        original = getattr(cls, method)
        size, since, computed = {"now": 0, "empties": 0}, set(), []

        def spy(self, *args):
            result = original(self, *args)
            keys = memo_of(self)
            if len(keys) < size["now"]:
                size["empties"] += 1
                since.clear()
            size["now"] = len(keys)
            if capped:
                held = (sum(map(len, keys)) if constant == "_MEMO_ID_BUDGET"
                        else len(keys))
                assert held <= getattr(planning, constant)
                if counter is not None:
                    assert getattr(self, counter) == held
            assert since.isdisjoint(computed)
            since.update(computed)
            computed.clear()
            return result

        def compute(body, *args):
            computed.append((id(body), *args))
            return original_compute(body, *args)

        with monkeypatch.context() as patch:
            patch.setattr(cls, method, spy)
            if computes is not None:
                original_compute = getattr(search, computes)
                patch.setattr(search, computes, compute)
            result = solve(scenario, small_ga(20, 10, 5), seed=1)
        return ((hexed(result.history),
                 [(r.servicer_id, r.target_sequence, r.revolutions)
                  for r in result.best_plan.routes],
                 [hexed(astuple(leg))
                  for leg in result.best_evaluation.leg_details]),
                size["empties"])

    @pytest.mark.parametrize("scenario", [
        pytest.param(lambda: random_scenario(8, 2, 12.0, seed=5),
                     id="random-8"),
        pytest.param(case_study, id="case-study"),
    ])
    @pytest.mark.parametrize("memo", MEMOS)
    def test_a_capped_memo_keeps_the_solve(self, monkeypatch, memo,
                                           scenario):
        # Uncapped, no memo empties. With the id budget patched to three
        # attempt keys (beta, count, ceil(0.3 m) draws, m + n - 1 genes)
        # and the entry cap to 5, each memo empties again and again, and
        # every value is computed afresh after it: a value depends on its
        # key alone, so the history, the plan and every reported leg are
        # the uncapped solve's, by float.hex.
        sc = scenario()
        m, n = len(sc.targets), len(sc.servicers)
        want, empties = self.watched_solve(monkeypatch, memo, sc, False)
        assert empties == 0
        monkeypatch.setattr(planning, "_MEMO_ID_BUDGET",
                            3 * (m + n + 1 + math.ceil(0.3 * m)))
        monkeypatch.setattr(planning, "_ENTRY_CAP", 5)
        got, empties = self.watched_solve(monkeypatch, memo, sc, True)
        assert got == want
        assert empties >= 1

    def test_memory_held_by_a_thousand_target_solve_stays_flat(
            self, monkeypatch):
        # At m = 1000 a chromosome key holds 1,001 genes and a route key
        # about 500 ids, so each new chromosome adds some 16 kB to uncapped
        # memos: about 45 kB a generation here, where every child mutates.
        # With each budget patched to 4,004 ids, four chromosomes or about
        # eight routes, and the leg-pair memo to 4,004 pairs, the memory
        # held at the start of each generation, by tracemalloc, stays
        # within 100 kB of the first generation's.
        m = 1000
        scenario = random_scenario(m, 2, 30.0, seed=1)
        monkeypatch.setattr(planning, "_MEMO_ID_BUDGET", 4 * (m + 1))
        monkeypatch.setattr(planning, "_ENTRY_CAP", 4 * (m + 1))
        held = []
        weights = search.selection_weights

        def spy(fitnesses):
            held.append(tracemalloc.get_traced_memory()[0])
            return weights(fitnesses)

        monkeypatch.setattr(search, "selection_weights", spy)
        ga = GaParams(population_size=4, min_iterations=10,
                      stall_iterations=0, pm_lo=1.0, pm_hi=1.0)
        tracemalloc.start()
        try:
            solve_ga(scenario, ga, seed=1)
        finally:
            tracemalloc.stop()
        assert len(held) == 10
        assert max(held) - held[0] < 100_000

    def test_memory_held_by_a_sixty_target_lns_solve_stays_flat(
            self, monkeypatch):
        # The LNS adds the insertion and attempt memos to the GA's. At
        # m = 60 a route key holds about 30 ids and an attempt key 66, too
        # long for CPython's tuple free lists, which would keep freed
        # short keys alive and look like growth. Uncapped, the memory held
        # at the start of a generation grows by about 200 kB a generation
        # here; with every budget patched to 244 ids it stayed within
        # 17-24 kB of the second generation's over three seeds (the first
        # generation's LNS step builds the pair-cost table, bounded by the
        # scenario's size). The bound is 100 kB.
        m = 60
        budget = 4 * (m + 1)
        scenario = random_scenario(m, 2, 30.0, seed=1)
        monkeypatch.setattr(planning, "_MEMO_ID_BUDGET", budget)
        monkeypatch.setattr(planning, "_ENTRY_CAP", budget)
        held, attempt_ids = [], []
        weights = search.selection_weights
        outcome = CostModel.attempt_outcome

        def spy(fitnesses):
            held.append(tracemalloc.get_traced_memory()[0])
            return weights(fitnesses)

        def count_attempt(self, key, attempt):
            value = outcome(self, key, attempt)
            attempt_ids.append(self._attempt_ids)
            return value

        monkeypatch.setattr(search, "selection_weights", spy)
        monkeypatch.setattr(CostModel, "attempt_outcome", count_attempt)
        ga = GaParams(population_size=4, min_iterations=6,
                      stall_iterations=0, pm_lo=1.0, pm_hi=1.0)
        tracemalloc.start()
        try:
            solve_lns_aga(scenario, ga, LnsParams(remove_rate=0.05), seed=1)
        finally:
            tracemalloc.stop()
        assert len(held) == 6 and attempt_ids
        assert max(held[1:]) - held[1] < 100_000
        assert max(attempt_ids) <= budget
        assert any(b < a for a, b in zip(attempt_ids, attempt_ids[1:]))


class TestEngineState:
    """The engine keeps chromosomes and fitnesses; an operator that changes
    the sequences it is given cannot change the search or its report."""

    @staticmethod
    def _solve(monkeypatch, spy):
        monkeypatch.setattr(search, "lns_improve", spy)
        return solve_lns_aga(random_scenario(6, 2, 10.0, seed=7),
                             small_ga(20, 20, 10), LnsParams(), seed=1)

    def test_an_lns_step_that_mutates_its_input_changes_nothing(
            self, monkeypatch):
        def identity(seqs, params, rng, model):
            return seqs

        def bump(seqs, params, rng, model):
            # Move every target onto the first route, reversed.
            for seq in seqs[1:]:
                seqs[0].extend(seq)
                seq.clear()
            seqs[0].reverse()
            return seqs

        clean = self._solve(monkeypatch, identity)
        dirty = self._solve(monkeypatch, bump)
        assert dirty.history == clean.history
        assert dirty.best_plan == clean.best_plan
        least = min(best for best, _ in dirty.history)
        assert dirty.best_evaluation.fitness.hex() == least.hex()

    def test_chromosomes_are_never_written_into(self, monkeypatch):
        # Tuples cannot be written into: a run that starts from them must
        # fly the same search as one that starts from lists.
        make = search.init_population

        def as_tuples(m, n, size, rng):
            return [tuple(c) for c in make(m, n, size, rng)]

        monkeypatch.setattr(search, "init_population", as_tuples)
        scenario = random_scenario(6, 2, 10.0, seed=7)
        results = [solve_ga(scenario, GA, seed=seed) for seed in SEEDS]
        assert fingerprint(results) == EXPECTED[("roomy", "ga")]

    # ``decode`` does not check its input: the engine must only ever hand
    # it permutations of 1..m+n-1. The 24-target scenario has 26 crossover
    # sites, past the 21 items at which ``_two_sites`` changes method.
    @pytest.mark.parametrize("solve", [
        lambda sc: solve_ga(sc, small_ga(20, 20, 10), seed=1),
        lambda sc: solve_lns_aga(sc, small_ga(20, 20, 10), LnsParams(),
                                 seed=1),
        lambda sc: solve_lambert_ga(sc, small_ga(20, 20, 10), seed=1),
    ], ids=["ga", "lns_aga", "lambert_ga"])
    @pytest.mark.parametrize("scenario", [
        case_study, lambda: random_scenario(24, 2, 10.0, seed=7),
    ], ids=["case_study", "24_targets"])
    def test_every_decoded_chromosome_is_a_permutation(
            self, monkeypatch, solve, scenario):
        scenario = scenario()
        m, n = len(scenario.targets), len(scenario.servicers)
        every_gene = list(range(1, m + n))
        decoded = []
        original = search.decode

        def spy(genes, m_, n_):
            assert (m_, n_) == (m, n)
            decoded.append(sorted(genes) == every_gene)
            return original(genes, m_, n_)

        monkeypatch.setattr(search, "decode", spy)
        solve(scenario)
        assert decoded and all(decoded)


class TestMixedWorkCounts:
    """Where a fixed LNS-AGA solve prices routes: the search reads the route
    memo only through the adapter on a gene-cache miss and through the LNS
    operators, and ``allocate`` runs for the reported plan alone."""

    def test_routes_are_priced_where_the_search_needs_them(self, monkeypatch):
        allocated, routed, seen = [], [], set()
        allocate = CostModel.allocate
        route = search._MixedAdapter.route
        decode_genes = search.decode

        def count_allocate(self, sid, seq):
            allocated.append((sid, list(seq)))
            return allocate(self, sid, seq)

        def count_route(self, sid, seq):
            routed.append((sid, tuple(seq)))
            return route(self, sid, seq)

        def count_decode(genes, m, n):
            seen.add(tuple(genes))
            return decode_genes(genes, m, n)

        monkeypatch.setattr(CostModel, "allocate", count_allocate)
        monkeypatch.setattr(search._MixedAdapter, "route", count_route)
        monkeypatch.setattr(search, "decode", count_decode)
        scenario = random_scenario(6, 2, 10.0, seed=7)
        result = solve_lns_aga(scenario, small_ga(20, 20, 10), LnsParams(),
                               seed=1)
        assert allocated == [(r.servicer_id, r.target_sequence)
                             for r in result.best_plan.routes]
        # Every chromosome the engine holds is evaluated, and the gene cache
        # never fills here, so each distinct one is a single miss.
        assert len(routed) == len(scenario.servicers) * len(seen)

    @staticmethod
    def memo_sizes(monkeypatch, scenario):
        """Route, insertion and attempt memo sizes at the end of the search
        of ``solve_lns_aga(scenario, seed=1)``, and the ``route_geometry``
        calls up to its report."""
        sizes = []
        built = []
        report = search.evaluate_plan
        geometry = CostModel.route_geometry

        def spy(scenario, plan, model):
            routes = model._priced
            sizes.append((len(routes), len(model._insertions),
                          len(model._attempts), len(built)))
            # Each non-empty route in the memo was built once, and
            # ``allocate`` built each non-empty reported route once more.
            # An empty route is priced without a geometry.
            assert len(built) == (
                sum(len(key) > 1 for key in routes)
                + sum(bool(r.target_sequence) for r in plan.routes))
            return report(scenario, plan, model)

        def count_geometry(self, sid, seq):
            built.append(None)
            return geometry(self, sid, seq)

        monkeypatch.setattr(search, "evaluate_plan", spy)
        monkeypatch.setattr(CostModel, "route_geometry", count_geometry)
        solve_lns_aga(scenario, seed=1)
        return sizes

    def test_case_study_memo_sizes(self, monkeypatch):
        # The benchmark's case_lns solve ends its search with these memo
        # sizes, so a memo that is bypassed or keyed differently shows here.
        # The repair's bounded scan prices 33,218 routes where a full scan
        # of every target priced 41,184; the two empty routes in the memo
        # and the two reported routes leave the geometry count equal to
        # the route memo's size.
        assert self.memo_sizes(monkeypatch, case_study()) == [
            (33_218, 5_124, 1_892, 33_218)]

    def test_tight_lns_memo_sizes(self, monkeypatch):
        # The benchmark's tight_lns solve: 3,856 routes priced where a full
        # scan of every target priced 4,270.
        assert self.memo_sizes(
            monkeypatch, random_scenario(10, 2, 10.0, seed=2101)) == [
            (3_856, 669, 425, 3_856)]

    @pytest.mark.parametrize("scenario, calls, repairs", [
        pytest.param(lambda: random_scenario(10, 2, 10.0, seed=2101), 1_000,
                     425, id="tight"),
        pytest.param(case_study, 1_450, 1_892, id="case-study"),
    ])
    def test_each_distinct_attempt_is_repaired_once(self, monkeypatch,
                                                    scenario, calls, repairs):
        # The benchmark's tight_lns and case_lns solves. Without the attempt
        # memo they repair 1,970 and 2,822 times, once per attempt; with it,
        # once per distinct (draws, plan) key, each of which the memo keeps.
        counts = {"lns_improve": 0, "repair": 0}
        attempts = []

        def counted(name):
            original = getattr(search, name)

            def call(*args):
                counts[name] += 1
                if name == "lns_improve":
                    attempts.append(args[3]._attempts)
                return original(*args)
            monkeypatch.setattr(search, name, call)

        counted("lns_improve")
        counted("repair")
        solve_lns_aga(scenario(), seed=1)
        assert counts == {"lns_improve": calls, "repair": repairs}
        assert len(attempts[-1]) == repairs


class TestLnsImprove:
    def setup_method(self):
        rng = random.Random(13)
        self.scenario = random_scenario_tuple(rng, 8, 2, deadline_s=25 * DAY)
        self.model = CostModel(self.scenario)
        self.seqs = [[1, 2, 3, 4], [5, 6, 7, 8]]

    def test_zero_iterations_is_identity(self):
        out = lns_improve(self.seqs, LnsParams(lns_iterations=0),
                          random.Random(0), self.model)
        assert out is self.seqs

    def test_never_hurts(self):
        base = self.model.plan_fitness(self.seqs)
        for seed in range(20):
            out = lns_improve(self.seqs, LnsParams(), random.Random(seed),
                              self.model)
            assert self.model.plan_fitness(out) <= base + 1e-9

    def test_seed_determinism(self):
        a = lns_improve(self.seqs, LnsParams(), random.Random(99), self.model)
        b = lns_improve(self.seqs, LnsParams(), random.Random(99), self.model)
        assert a == b

    def test_operators_leave_their_input_unchanged(self):
        seqs = self.seqs
        before = [list(seq) for seq in seqs]
        params = LnsParams(remove_rate=0.5)
        improved = 0
        for seed in range(20):
            rng = random.Random(seed)
            removed, partial = drawn_destroy(seqs, params, rng, self.model)
            kept = [list(seq) for seq in partial]
            repaired = repair(removed, partial, self.model)
            out = lns_improve(seqs, params, rng, self.model)
            assert seqs == before and partial == kept
            # Each result is made of new lists, none of them an input's.
            fresh = [partial, repaired] + ([out] if out is not seqs else [])
            for result in fresh:
                assert not any(a is b for a in result for b in seqs)
            assert not any(a is b for a in repaired for b in partial)
            improved += out is not seqs
        assert improved > 0

    def test_a_repeated_attempt_is_read_from_the_memo(self, monkeypatch):
        # The same draws on the same plan give the stored outcome without a
        # destroy or a repair, as new lists that share nothing with the
        # memo or with the first call's result.
        repairs = []
        original = search.repair

        def spy(removed, partial, model):
            repairs.append(removed)
            return original(removed, partial, model)

        monkeypatch.setattr(search, "repair", spy)
        params = LnsParams(remove_rate=0.5)
        seeds = [seed for seed in range(40)
                 if lns_improve(self.seqs, params, random.Random(seed),
                                self.model) is not self.seqs]
        assert seeds and len(repairs) > 0
        for seed in seeds:
            done = len(repairs)
            first = lns_improve(self.seqs, params, random.Random(seed),
                                self.model)
            again = lns_improve(self.seqs, params, random.Random(seed),
                                self.model)
            assert len(repairs) == done
            assert again == first and again is not first
            assert not any(a is b for a in again for b in first)
            first[0].append(99)
            assert lns_improve(self.seqs, params, random.Random(seed),
                               self.model) == again

    def test_one_model_under_many_params_answers_as_fresh_models(self):
        # The key holds beta and the removal count, so a model that serves
        # several LnsParams never reads another's outcome. On the same
        # draws, betas of 0.05 and 0.95 remove other targets in 22 of these
        # 40 seeds at the default remove rate, and 13 give another outcome.
        variants = [LnsParams(beta=0.05), LnsParams(beta=0.95),
                    LnsParams(remove_rate=0.5),
                    LnsParams(remove_rate=0.5, determinism_p=1.0)]
        for seed in range(40):
            for params in variants + variants[::-1]:
                shared = lns_improve(self.seqs, params, random.Random(seed),
                                     self.model)
                fresh = lns_improve(self.seqs, params, random.Random(seed),
                                    CostModel(self.scenario))
                assert shared == fresh

    def test_memo_value_is_the_better_chromosome_or_empty(self):
        # Each value is the repaired plan's chromosome when it beats the
        # key's plan, else (); a key is beta, the removal count, the draws
        # and the plan's chromosome.
        m, n = 8, 2
        params = LnsParams()
        for seed in range(30):
            lns_improve(self.seqs, params, random.Random(seed), self.model)
        base = self.model.plan_fitness(self.seqs)
        kinds = set()
        for key, value in self.model._attempts.items():
            beta, count, *rest = key
            draws, plan = rest[:count], rest[count:]
            assert beta == params.beta and count == math.ceil(m * 0.3)
            assert draws[0] in flat(self.seqs)
            assert plan == planning.encode_sequences(self.seqs, m)
            assert type(value) is tuple
            if value:
                assert sorted(value) == list(range(1, m + n))
                assert self.model.plan_fitness(decode(value, m, n)) < base
                kinds.add("better")
            else:
                kinds.add("not better")
        assert kinds == {"better", "not better"}

class TestSolvers:
    def test_trivial_instance_matches_oracle_exactly(self):
        scenario = make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                                 [(3.0, 40.0, 200.0, 20 * HOUR)],
                                 deadline_s=5 * DAY)
        result = solve_lns_aga(scenario, small_ga(pop=10, iters=5, stall=3),
                               LnsParams(), seed=1)
        _, oracle = exhaustive_solve(scenario, max_revolutions=4)
        assert result.best_evaluation.fitness.hex() == oracle.fitness.hex()

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
            assert result.best_evaluation.fitness.hex() == min(best).hex()

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
        assert any(leg.phase_time < T
                   for leg in result.best_evaluation.leg_details)

    def test_failed_lambert_leg_is_infinite_in_search_and_final_evaluation(
            self, monkeypatch):
        def fail(*args, **kwargs):
            raise CollinearGeometry("forced failure")

        monkeypatch.setattr(search, "lambert_solve", fail)
        scenario = random_scenario_tuple(random.Random(19), 3, 2,
                                         deadline_s=8 * DAY)
        adapter = _LambertAdapter(scenario, 1.0, 10.0)
        score = adapter.route(1, [1, 2])
        assert score == math.inf
        plan = MissionPlan([Route(1, [1, 2], [1, 1]), Route(2, [3], [1])])
        ev = evaluate_plan_lambert(scenario, plan)
        assert ev.total_dv == math.inf and ev.fitness == math.inf
        assert not ev.feasible
        for leg in ev.leg_details:
            assert all(math.isnan(x) for x in leg.impulse1)
            assert all(math.isnan(x) for x in leg.impulse2)
        assert_reports_search_prices(scenario, plan, ev)
        result = solve_lambert_ga(scenario, small_ga(), seed=1)
        assert result.history[-1][0] == math.inf
        assert result.best_evaluation.fitness == math.inf
        assert not result.best_evaluation.feasible

    def test_zero_budget_weight_scores_an_unflyable_leg_infinite(self):
        # Only the 0.125-period grid time fits in 4 h; the target then
        # leads the servicer by exactly 180 degrees, a singular arc.
        scenario = make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                                 [(0.0, 0.0, 135.0, 0.0)], 4 * HOUR)
        adapter = _LambertAdapter(scenario, 1.0, 0.0)
        assert adapter.grid == [0.125 * T]
        start = astro.orbit_to_state(scenario.servicers[0].orbit, 0.0)
        with pytest.raises(CollinearGeometry):
            adapter._fly(start, 1, 0.125 * T)
        assert adapter.route(1, [1]) == math.inf
        ga = GaParams(population_size=4, min_iterations=3,
                      stall_iterations=1, gamma=0.0)
        result = solve_lambert_ga(scenario, ga, seed=1)
        assert result.history == [(math.inf, math.inf)] * (
            result.generations_run + 1)
        assert result.best_evaluation.fitness == math.inf
        assert not result.best_evaluation.feasible

    def test_failed_leg_tries_grid_times_nearest_first(self, monkeypatch):
        tried = []

        def fail(r1, r2, tof, *args):
            tried.append(tof)
            raise CollinearGeometry("forced failure")

        monkeypatch.setattr(search, "lambert_solve", fail)
        scenario = random_scenario_tuple(random.Random(19), 3, 2,
                                         deadline_s=8 * DAY)
        adapter = _LambertAdapter(scenario, 1.0, 10.0)
        grid = adapter.grid
        for tof in grid:
            tried.clear()
            assert adapter._leg(("S", 1), 1, 0.0, tof) == (tof, math.inf)
            # Equal distances keep grid order, as a stable sort gives.
            assert tried == sorted(grid, key=lambda g: abs(g - tof))

    def test_lambert_solve_iterates_by_householder_steps(self, monkeypatch):
        # Over the case study's Lambert legs (solve_lambert_ga, seed 1)
        # Householder steps from Izzo's initial guess evaluate T(x) 3.0
        # times per lambert_solve call: two steps and the one that confirms
        # convergence. A mean above 4 means the iteration has fallen back
        # to bisecting its bracket.
        counts = {"steps": 0, "solves": 0}
        tof, solve = astro._izzo_tof, search.lambert_solve

        def counted_tof(*args):
            counts["steps"] += 1
            return tof(*args)

        def counted_solve(*args, **kwargs):
            counts["solves"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(astro, "_izzo_tof", counted_tof)
        monkeypatch.setattr(search, "lambert_solve", counted_solve)
        solve_lambert_ga(case_study(), seed=1)
        assert counts["solves"] > 5000
        assert counts["steps"] <= 4 * counts["solves"]
        # The exact count: a rewrite of the iteration must take the same
        # steps.
        assert counts == {"steps": 30_091, "solves": 10_019}


def reference_allocate_tofs(adapter, sid, seq):
    """The Lambert adapter's flight-time allocation as two list scans of the
    grid and the phase gaps computed per call; ``_allocate_tofs`` must give
    the same floats."""
    lam0 = {key: orb.raan + orb.arg_lat0
            for key, orb in adapter._orbits.items()}
    grid = adapter.grid
    legs = len(seq)
    budget = adapter.scenario.deadline - sum(adapter._td[t] for t in seq)
    share = budget / legs
    below = [g for g in grid if g <= share]
    tofs = [below[-1] if below else grid[0]] * legs
    slack = budget - sum(tofs)
    if slack > 0.0:
        gaps = []
        from_key = ("S", sid)
        for tid in seq:
            gaps.append(abs(fold_angle(lam0[from_key] - lam0[tid])))
            from_key = tid
        pick = max(range(legs), key=lambda q: (gaps[q], -q))
        room = tofs[pick] + slack
        upgrades = [g for g in grid if g <= room]
        if upgrades:
            tofs[pick] = upgrades[-1]
    return tofs


class TestLambertFlightTimes:
    """``_allocate_tofs`` reads the phase gaps from the constructor's table
    and bisects the grid; it must match the per-call scans float for float.
    """

    @staticmethod
    def check_routes(scenario, routes):
        adapter = _LambertAdapter(scenario, 1.0, 10.0)
        for sid, seq in routes:
            got = adapter._allocate_tofs(sid, seq)
            want = reference_allocate_tofs(adapter, sid, seq)
            assert [t.hex() for t in got] == [t.hex() for t in want], seq

    @staticmethod
    def random_routes(scenario, rng, count):
        sids = [s.id for s in scenario.servicers]
        tids = [t.id for t in scenario.targets]
        return [(rng.choice(sids), rng.sample(tids, rng.randint(1, len(tids))))
                for _ in range(count)]

    @pytest.mark.parametrize("days", [2.0, 6.0, 10.0, 30.0])
    def test_random_routes(self, days):
        # At 2 days most routes' repairs exceed the deadline, so the budget
        # is negative; at 30 days every leg can take the longest grid time.
        scenario = random_scenario(10, 2, days, seed=2101)
        routes = self.random_routes(scenario, random.Random(2103), 500)
        td = {t.id: t.repair_duration for t in scenario.targets}
        budgets = [scenario.deadline - sum(td[t] for t in seq)
                   for _, seq in routes]
        if days == 2.0:
            assert sum(b < 0.0 for b in budgets) > 100
        self.check_routes(scenario, routes)

    def test_case_study_routes(self):
        scenario = case_study()
        self.check_routes(scenario,
                          self.random_routes(scenario, random.Random(2104),
                                             500))

    def test_shares_on_grid_points_and_tied_gaps(self):
        # Round-degree coplanar orbits a quarter turn apart tie on their
        # phase gaps, and deadlines built from grid sums make the equal
        # share, or the share plus the slack, land exactly on a grid time.
        targets = [(0.0, 0.0, u, HOUR) for u in (90.0, 180.0, 270.0, 0.0)]
        grid = _LambertAdapter(make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                                             targets, 30 * DAY),
                               1.0, 10.0).grid
        routes = [(1, list(p)) for n in (1, 2, 3)
                  for p in itertools.permutations((1, 2, 3, 4), n)]
        on_grid = 0
        for a, b in itertools.product(grid, repeat=2):
            for legs in (1, 2, 3):
                deadline = a * (legs - 1) + b + legs * HOUR
                scenario = make_scenario([(0.0, 0.0, 0.0, 2000.0)], targets,
                                         deadline)
                self.check_routes(scenario,
                                  [r for r in routes if len(r[1]) == legs])
                on_grid += (deadline - legs * HOUR) / legs in grid
        assert on_grid > 20


def assert_reports_search_prices(scenario, plan, evaluation):
    """Every leg of ``evaluation`` reports, float for float, the price the
    search's ``_leg`` gives that leg at its departure time and grid time,
    and every route the search's delta-v."""
    adapter = _LambertAdapter(scenario, 1.0, 10.0)
    legs = iter(evaluation.leg_details)
    for route, route_dv in zip(plan.routes, evaluation.per_servicer_dv):
        sid, seq = route.servicer_id, route.target_sequence
        if not seq:
            assert route_dv == 0.0
            continue
        from_key = ("S", sid)
        for tid, tof in zip(seq, adapter._allocate_tofs(sid, seq)):
            leg = next(legs)
            assert (leg.servicer_id, leg.target_id) == (sid, tid)
            actual, price = adapter._leg(from_key, tid, leg.depart_time, tof)
            assert leg.phase_time == actual
            assert leg.total_dv.hex() == price.hex()
            from_key = tid
        assert route_dv.hex() == adapter.route_detail(sid, seq)[1].hex()
    assert next(legs, None) is None


class TestLambertReportsTheSearchPrice:
    """The final evaluation flies each Lambert leg through the search's own
    flight, so it reports the search's price bit for bit."""

    @pytest.fixture(scope="class")
    def case_result(self):
        return solve_lambert_ga(case_study(), seed=1)

    def test_case_study(self, case_result):
        assert_reports_search_prices(case_study(), case_result.best_plan,
                                     case_result.best_evaluation)

    @pytest.mark.parametrize("days", [6.0, 10.0])
    def test_fingerprint_scenarios(self, days):
        scenario = random_scenario(6, 2, days, seed=7)
        for seed in (1, 2, 3):
            result = solve_lambert_ga(scenario, small_ga(20, 20, 10),
                                      seed=seed)
            assert_reports_search_prices(scenario, result.best_plan,
                                         result.best_evaluation)

    def test_route_detail_runs_once_per_route(self, case_result,
                                              monkeypatch):
        calls = []
        original = _LambertAdapter.route_detail

        def spy(self, sid, seq):
            calls.append(sid)
            return original(self, sid, seq)

        monkeypatch.setattr(_LambertAdapter, "route_detail", spy)
        adapter = _LambertAdapter(case_study(), 1.0, 10.0)
        evaluate_plan(adapter.scenario, case_result.best_plan, adapter)
        assert sorted(calls) == [1, 2]

    def test_fallback_leg(self, monkeypatch):
        scenario = random_scenario(6, 2, 10.0, seed=7)
        plan = MissionPlan([Route(1, [1, 2, 3], [1] * 3),
                            Route(2, [4, 5, 6], [1] * 3)])
        grid_tof = _LambertAdapter(scenario, 1.0, 10.0)._allocate_tofs(
            1, [1, 2, 3])[0]
        solve = search.lambert_solve

        def singular_at_grid_tof(r1, r2, tof, *args):
            if tof == grid_tof:
                raise CollinearGeometry("forced failure")
            return solve(r1, r2, tof, *args)

        monkeypatch.setattr(search, "lambert_solve", singular_at_grid_tof)
        ev = evaluate_plan(scenario, plan,
                           _LambertAdapter(scenario, 1.0, 10.0))
        first = ev.leg_details[0]
        assert first.phase_time != grid_tof
        assert math.isfinite(first.total_dv)
        assert_reports_search_prices(scenario, plan, ev)

    def test_malformed_plan_is_refused_before_any_leg_flies(self):
        scenario = random_scenario(6, 2, 10.0, seed=7)
        plan = MissionPlan([Route(1, [1, 2, 99], [1] * 3),
                            Route(2, [4, 5, 6], [1] * 3)])
        with pytest.raises(ValueError, match="every target exactly once"):
            evaluate_plan(scenario, plan,
                          _LambertAdapter(scenario, 1.0, 10.0))


class TestLegModels:
    """The two leg models share only ``planning._LegModel``: the Lambert
    model is not a ``CostModel`` and holds none of the mixed kernel or its
    memos, and each defines its own ``allocate`` and ``fly``."""

    def test_the_lambert_model_is_not_a_cost_model(self):
        assert not issubclass(_LambertAdapter, CostModel)
        adapter = _LambertAdapter(case_study(), 1.0, 10.0)
        for name in ("route_geometry", "_route_cost", "_allocate", "_pairs",
                     "_insertions", "insertion_scan", "pair_cost_table",
                     "route_metrics"):
            assert not hasattr(adapter, name), name

    def test_both_leg_models_route_through_one_route_memo(self):
        # ``priced_score`` is the base's alone; each model adds only its
        # pricing hook, and the engine's ``route`` has one body in both
        # adapters' own classes, where a tracer wraps it.
        classes = (CostModel, search._MixedAdapter, _LambertAdapter)
        assert "priced_score" in vars(_LegModel)
        assert not any("priced_score" in vars(cls) for cls in classes)
        assert all("_price" in vars(cls) for cls in (CostModel,
                                                     _LambertAdapter))
        bodies = [inspect.getsource(cls.route).split("\n", 1)[1]
                  for cls in (search._MixedAdapter, _LambertAdapter)]
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("model", [CostModel, _LambertAdapter])
    def test_each_leg_model_defines_allocate_and_fly(self, model):
        assert issubclass(model, _LegModel)
        assert {"allocate", "fly"} <= set(vars(model))

    def test_no_source_names_priced_route(self):
        src = Path(search.__file__).parent
        assert [path.name for path in sorted(src.glob("*.py"))
                if "priced_route" in path.read_text(encoding="utf-8")] == []

    def test_lambert_allocate_gives_one_revolution_per_leg(self):
        adapter = _LambertAdapter(random_scenario(4, 2, 10.0, seed=1), 1.0,
                                  10.0)
        assert adapter.allocate(1, []) == []
        assert adapter.allocate(2, (3, 1, 4)) == [1, 1, 1]

    def test_lambert_phase_gaps_read_the_mixed_kernel_longitudes(self):
        scenario = case_study()
        orbits = {("S", s.id): s.orbit for s in scenario.servicers}
        orbits.update({t.id: t.orbit for t in scenario.targets})
        rows = _LambertAdapter(scenario, 1.0, 10.0)._gap_rows
        assert set(rows) == set(orbits)
        for key, row in rows.items():
            assert {tid: gap.hex() for tid, gap in row.items()} == {
                t.id: abs(planning._Pair(orbits[key],
                                         t.orbit).lam_diff).hex()
                for t in scenario.targets}

    def test_each_leg_model_refuses_bad_weights(self):
        scenario = random_scenario(3, 2, 10.0, seed=1)
        for build in (lambda: CostModel(scenario, phi=-1.0),
                      lambda: _LambertAdapter(scenario, 1.0, math.nan)):
            with pytest.raises(ValueError, match="phi|gamma"):
                build()
        # The mixed model checks its slack rule before the weights.
        with pytest.raises(ValueError, match="^slack_rule must be"):
            CostModel(scenario, "middle", phi=-1.0)


class TestRouteMemoOnBothLegModels:
    """The base's route memo keeps one signed float per route on either leg
    model: an unflyable Lambert leg is stored as -inf, and an empty route
    scores 0.0 with no pricing."""

    def test_an_unflyable_lambert_route_is_stored_infeasible(self,
                                                              monkeypatch):
        # Only the 0.125-period grid time fits in 4 h; the target then
        # leads the servicer by exactly 180 degrees, a singular arc.
        scenario = make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                                 [(0.0, 0.0, 135.0, 0.0)], 4 * HOUR)
        adapter = _LambertAdapter(scenario, 1.0, 10.0)
        priced = []
        price = _LambertAdapter._price

        def counting_price(self, sid, seq):
            priced.append((sid, tuple(seq)))
            return price(self, sid, seq)

        monkeypatch.setattr(_LambertAdapter, "_price", counting_price)
        assert adapter.route_detail(1, [1])[1] == math.inf
        for _ in range(2):
            assert adapter.route(1, [1]) == math.inf
        value = adapter._priced[(1, 1)]
        assert value == -math.inf
        assert math.copysign(1.0, value) < 0.0
        assert adapter.priced_score(1, (1,)) == value
        assert priced == [(1, (1,))]

    @pytest.mark.parametrize("model", [
        CostModel, lambda sc: _LambertAdapter(sc, 1.0, 10.0),
    ], ids=["mixed", "lambert"])
    def test_an_empty_route_scores_zero_unpriced(self, monkeypatch, model):
        def refuse(self, sid, seq):
            raise AssertionError("an empty route was priced")

        scenario = random_scenario(4, 2, 10.0, seed=1)
        built = model(scenario)
        monkeypatch.setattr(type(built), "_price", refuse)
        for seq in ([], ()):
            value = built.priced_score(2, seq)
            assert value == 0.0 and math.copysign(1.0, value) > 0.0
        assert built._priced == {(2,): 0.0}
        assert built._priced_ids == 1


class TestLambertWorkCounts:
    """Exact work of fixed Lambert solves: a change to how a leg is flown or
    cached must do the same work, or say why it does not."""

    # ``orbit_to_state`` runs once per distinct (body, time) state that the
    # legs read, through the adapter's state memo. The last two counts are
    # the route memo's size at the end of the solve, two of its routes
    # empty, and the ``route_detail`` calls: one per non-empty route in the
    # memo and one per reported route. Without the route memo the case
    # study calls ``route_detail`` 20,474 times.
    @pytest.mark.parametrize("case, scenario, ga, counts", [
        ("tight", lambda: random_scenario(6, 2, 6.0, seed=7),
         lambda: small_ga(20, 20, 10), (269, 189, 263, 147, 147)),
        ("roomy", lambda: random_scenario(6, 2, 10.0, seed=7),
         lambda: small_ga(20, 20, 10), (315, 228, 309, 131, 131)),
        # The benchmark's case_lambert workload.
        ("case_study", case_study, lambda: None,
         (10_019, 2_512, 10_005, 12_294, 12_294)),
    ])
    def test_solve_counts(self, monkeypatch, case, scenario, ga, counts):
        seen = {"lambert_solve": 0, "orbit_to_state": 0, "misses": 0,
                "route_detail": 0}
        models = []

        class CountingCache(dict):
            def __setitem__(self, key, value):
                seen["misses"] += 1
                super().__setitem__(key, value)

        init = _LambertAdapter.__init__
        route_detail = _LambertAdapter.route_detail

        def counting_init(self, *args):
            init(self, *args)
            self._leg_cache = CountingCache()
            models.append(self)

        def counting_route_detail(self, sid, seq):
            seen["route_detail"] += 1
            return route_detail(self, sid, seq)

        def counted(name):
            original = getattr(search, name)

            def call(*args, **kwargs):
                seen[name] += 1
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(_LambertAdapter, "__init__", counting_init)
        monkeypatch.setattr(_LambertAdapter, "route_detail",
                            counting_route_detail)
        for name in ("lambert_solve", "orbit_to_state"):
            monkeypatch.setattr(search, name, counted(name))
        solve_lambert_ga(scenario(), ga(), seed=1)
        [model] = models
        assert (seen["lambert_solve"], seen["orbit_to_state"],
                seen["misses"], len(model._priced),
                seen["route_detail"]) == counts


class TestHashSeedIndependence:
    """No result depends on the order of a set or dict of str keys: the
    three solvers give the same floats under any ``PYTHONHASHSEED``."""

    SOLVE = (
        "import json\n"
        "from georepair.scenarios import random_scenario\n"
        "from georepair.search import (GaParams, LnsParams, solve_ga,\n"
        "                              solve_lambert_ga, solve_lns_aga)\n"
        "scenario = random_scenario(5, 2, 8.0, seed=3)\n"
        "ga = GaParams(population_size=8, min_iterations=6,\n"
        "              stall_iterations=3)\n"
        "results = [solve_lns_aga(scenario, ga, LnsParams(), seed=2),\n"
        "           solve_ga(scenario, ga, seed=2),\n"
        "           solve_lambert_ga(scenario, ga, seed=2)]\n"
        "print(json.dumps([[r.best_evaluation.fitness.hex(),\n"
        "                   [[b.hex(), a.hex()] for b, a in r.history]]\n"
        "                  for r in results]))\n")

    def test_results_are_the_same_under_two_hash_seeds(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", self.SOLVE],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        assert len(json.loads(runs[0])) == 3
