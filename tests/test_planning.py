"""Plan decoding, revolution allocation and fitness evaluation tests."""

import itertools
import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georepair import planning
from georepair.astro import GEO, TWO_PI, GeoOrbit, fold_angle, phasing_solution
from georepair.planning import (
    DEFAULT_GAMMA,
    DEFAULT_PHI,
    CostModel,
    InstanceTooLarge,
    MissionPlan,
    Route,
    Scenario,
    decode,
    encode_sequences,
    evaluate_plan,
    exhaustive_solve,
    penalized_fitness,
)
from georepair.scenarios import case_study, random_scenario
from georepair.search import (
    AllInfeasible,
    GaParams,
    _LambertAdapter,
    evaluate_plan_lambert,
    insertion_cost,
    solve_lns_aga,
)
from scenario_builders import (
    allocated_route,
    make_scenario,
    random_scenario_tuple,
)

T = GEO.t_geo
HOUR = 3600.0
DAY = 86400.0


def random_plan(scenario, rng, max_rev=4):
    """Uniform random covering plan with random revolution counts."""
    tids = [t.id for t in scenario.targets]
    rng.shuffle(tids)
    cuts = sorted(rng.sample(range(len(tids) + 1), len(scenario.servicers) - 1)) \
        if len(scenario.servicers) > 1 else []
    routes = []
    prev = 0
    for i, s in enumerate(scenario.servicers):
        hi = cuts[i] if i < len(cuts) else len(tids)
        seq = tids[prev:hi]
        prev = hi
        routes.append(Route(s.id, seq, [rng.randint(1, max_rev) for _ in seq]))
    return MissionPlan(routes)


class TestDecode:
    def test_three_servicer_example(self):
        genes = [5, 3, 1, 9, 2, 7, 6, 10, 4, 8]
        assert decode(genes, 8, 3) == [[5, 3, 1], [2, 7, 6], [4, 8]]

    def test_single_servicer_has_no_splits(self):
        assert decode([2, 1], 2, 1) == [[2, 1]]

    def test_leading_splits_give_empty_routes(self):
        assert decode([4, 5, 1, 2, 3], 3, 3) == [[], [], [1, 2, 3]]

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(1, 11))))
    def test_decode_is_total_and_covers(self, genes):
        seqs = decode(genes, 8, 3)
        assert len(seqs) == 3
        flat = [t for s in seqs for t in s]
        assert sorted(flat) == list(range(1, 9))

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(1, 13))))
    def test_encode_is_a_decode_preimage(self, genes):
        m, n = 9, 4
        seqs = decode(genes, m, n)
        again = decode(encode_sequences(seqs, m), m, n)
        assert again == seqs


class TestAllocate:
    def test_single_leg_zero_gap_takes_all_pieces(self):
        # Target on the servicer's own orbit and phase: coast 0, theta 0.
        scenario = make_scenario([(0.0, 0.0, 40.0, 1000.0)],
                                 [(0.0, 0.0, 40.0, 20 * HOUR)],
                                 deadline_s=20 * HOUR + 5 * T + 60.0)
        assert CostModel(scenario).allocate(1, [1]) == [5]

    def test_two_legs_split_five_pieces_and_top_up(self):
        # Coplanar chain with controlled phase gaps: +30 deg then +50 deg.
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 1000.0)],
            [(0.0, 0.0, 330.0, 10 * HOUR), (0.0, 0.0, 280.0, 10 * HOUR)],
            deadline_s=20 * HOUR + 5.5 * T)
        assert CostModel(scenario).allocate(1, [1, 2]) == [2, 3]
        assert CostModel(scenario, slack_rule="smallest").allocate(
            1, [1, 2]) == [3, 2]

    def test_tight_budget_clamps_to_one(self):
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 1000.0)],
            [(1.0, 10.0, 50.0, 10 * HOUR), (2.0, 200.0, 150.0, 10 * HOUR),
             (3.0, 100.0, 250.0, 10 * HOUR)],
            deadline_s=30 * HOUR + 0.5 * T)
        assert CostModel(scenario).allocate(1, [1, 2, 3]) == [1, 1, 1]

    def test_rejects_unknown_slack_rule(self):
        scenario = make_scenario([(0.0, 0.0, 0.0, 1000.0)],
                                 [(0.0, 0.0, 10.0, HOUR)], deadline_s=10 * T)
        with pytest.raises(ValueError, match="slack_rule"):
            CostModel(scenario, "bogus")

    def test_bounds_respected_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(30):
            scenario = random_scenario_tuple(
                rng, rng.randint(1, 5), 1,
                deadline_s=rng.uniform(2.0, 40.0) * 86400.0,
                repair_s=rng.uniform(0.0, 2.0) * 86400.0)
            seq = [t.id for t in scenario.targets]
            rng.shuffle(seq)
            revs = CostModel(scenario).allocate(1, seq)
            assert len(revs) == len(seq)
            for n in revs:
                assert 1 <= n < scenario.deadline / T

    def test_geometry_invariant_to_allocation(self):
        # Coast times and phase gaps must not move when earlier legs gain
        # whole revolutions; the allocator's one-pass design relies on it.
        rng = random.Random(22)
        scenario = random_scenario_tuple(rng, 4, 1, deadline_s=40 * 86400.0)
        seq = [1, 2, 3, 4]
        model = CostModel(scenario)
        base_revs, bumped_revs = [1, 1, 1, 1], [3, 1, 2, 1]
        base = model.fly(Route(1, seq, base_revs))
        bumped = model.fly(Route(1, seq, bumped_revs))

        def gap(leg, k):
            # The phase gap that a leg's phasing time closes on k turns.
            return TWO_PI * (leg.phase_time / T - k)

        for a, ka, b, kb in zip(base, base_revs, bumped, bumped_revs):
            assert b.coast_time == pytest.approx(a.coast_time, abs=1e-3)
            assert gap(b, kb) == pytest.approx(gap(a, ka), abs=1e-9)


class TestEvaluateRoute:
    """A route is evaluated by its leg model's ``fly``, which returns the
    route's reported legs. ``fly`` trusts the plan check ``evaluate_plan``
    makes first."""

    # Each route differs in one field from ``Route(1, [1], [1])``, which
    # the rest of the plan completes.
    @pytest.mark.parametrize("route", [Route(99, [1], [1]),
                                       Route(1, [99], [1]),
                                       Route(True, [1], [1]),
                                       Route(0, [1], [1]),
                                       Route(1, [1.5], [1])],
                             ids=["unknown-servicer", "unknown-target",
                                  "bool-servicer", "zero-servicer",
                                  "fractional-target"])
    def test_rejects_a_route_the_scenario_cannot_fly(self, route):
        scenario = random_scenario(3, 2, 20.0, seed=1)
        rest = Route(2, [2, 3], [1, 1])
        for evaluate in (evaluate_plan, evaluate_plan_lambert):
            evaluate(scenario, MissionPlan([Route(1, [1], [1]), rest]))
            with pytest.raises(ValueError) as exc:
                evaluate(scenario, MissionPlan([route, rest]))
            assert len(str(exc.value).splitlines()) == 1

    def test_empty_route(self):
        scenario = make_scenario([(0.0, 0.0, 0.0, 1000.0)],
                                 [(0.0, 0.0, 10.0, HOUR)], deadline_s=10 * T)
        for model in (CostModel(scenario),
                      _LambertAdapter(scenario, DEFAULT_PHI, DEFAULT_GAMMA)):
            assert model.fly(Route(1, [], [])) == []

    def test_same_orbit_target_is_free(self):
        scenario = make_scenario([(2.0, 30.0, 75.0, 1000.0)],
                                 [(2.0, 30.0, 75.0, HOUR)], deadline_s=10 * T)
        (leg,) = CostModel(scenario).fly(Route(1, [1], [1]))
        assert leg.total_dv == pytest.approx(0.0, abs=1e-9)
        assert leg.arrival_time == pytest.approx(T, rel=1e-12)

    def test_arrival_recursion_matches_leg_times(self):
        # Each leg model's ``fly`` owns the clock: a leg fires its first
        # burn after its coast, arrives one phasing time later, completes
        # one repair later, and the next departs then. Both leg models are
        # held to it.
        rng = random.Random(23)
        scenario = random_scenario_tuple(rng, 5, 2, deadline_s=30 * 86400.0)
        plan = random_plan(scenario, rng)
        for evaluate in (evaluate_plan, evaluate_plan_lambert):
            ev = evaluate(scenario, plan)
            by_route = {}
            for leg in ev.leg_details:
                by_route.setdefault(leg.servicer_id, []).append(leg)
                assert leg.impulse1_time == leg.depart_time + leg.coast_time
                assert leg.arrival_time == (leg.impulse1_time
                                            + leg.phase_time)
                assert leg.completion_time == leg.arrival_time + \
                    scenario.target(leg.target_id).repair_duration
            for legs in by_route.values():
                assert legs[0].depart_time == 0.0
                for prev, nxt in zip(legs, legs[1:]):
                    gap = nxt.arrival_time - prev.completion_time
                    assert gap == pytest.approx(
                        nxt.coast_time + nxt.phase_time, rel=1e-12)
                    assert nxt.depart_time == prev.completion_time


class TestEvaluatePlan:
    def test_feasible_plan_fitness_is_pure_dv(self):
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 1000.0)],
            [(1.0, 20.0, 90.0, HOUR), (2.0, 200.0, 200.0, HOUR)],
            deadline_s=30 * 86400.0)
        plan = MissionPlan([Route(1, [1, 2],
                                  CostModel(scenario).allocate(1, [1, 2]))])
        ev = evaluate_plan(scenario, plan)
        assert ev.feasible
        assert ev.deadline_penalty == 0.0 and ev.budget_penalty == 0.0
        assert ev.fitness == ev.total_dv
        assert ev.total_dv == pytest.approx(sum(ev.per_servicer_dv), rel=1e-12)

    @pytest.mark.parametrize("evaluate, route_dv", [
        (evaluate_plan, lambda sc, sid, seq, revs: CostModel(
            sc).route_metrics(sid, seq, revs)[0]),
        (evaluate_plan_lambert, lambda sc, sid, seq, revs: _LambertAdapter(
            sc, DEFAULT_PHI, DEFAULT_GAMMA).route_detail(sid, seq)[1])],
        ids=["mixed", "lambert"])
    def test_per_servicer_dv_follows_the_scenario_servicers(self, evaluate,
                                                            route_dv):
        # Routes listed out of servicer order, servicer 1 idle: each entry
        # is its servicer's route delta-v, in ``scenario.servicers`` order,
        # and 0.0 for the idle one.
        scenario = random_scenario(4, 3, 20.0, seed=5)
        plan = MissionPlan([Route(3, [4, 1], [2, 1]),
                            Route(2, [2, 3], [1, 3])])
        want = [0.0] + [route_dv(scenario, sid, seq, revs)
                        for sid, seq, revs in ((2, [2, 3], [1, 3]),
                                               (3, [4, 1], [2, 1]))]
        assert want[1] > 0.0 and want[2] > 0.0
        assert [dv.hex() for dv in evaluate(scenario, plan).per_servicer_dv] \
            == [dv.hex() for dv in want]

    def test_two_hours_late_adds_120_phi(self):
        base = make_scenario([(0.0, 0.0, 0.0, 1000.0)],
                             [(1.0, 20.0, 90.0, 10 * HOUR)],
                             deadline_s=30 * 86400.0)
        plan = MissionPlan([Route(1, [1], [3])])
        completion = evaluate_plan(base, plan).leg_details[0].completion_time
        tight = make_scenario([(0.0, 0.0, 0.0, 1000.0)],
                              [(1.0, 20.0, 90.0, 10 * HOUR)],
                              deadline_s=completion - 2 * HOUR)
        ev = evaluate_plan(tight, plan, CostModel(tight, phi=1.0))
        assert not ev.feasible
        assert ev.deadline_penalty == pytest.approx(2 * HOUR, rel=1e-9)
        assert ev.fitness - ev.total_dv == pytest.approx(120.0, rel=1e-9)

    def test_budget_excess_adds_50_gamma(self):
        base = make_scenario([(0.0, 0.0, 0.0, 1000.0)],
                             [(4.0, 20.0, 90.0, 10 * HOUR)],
                             deadline_s=30 * 86400.0)
        plan = MissionPlan([Route(1, [1], [3])])
        dv = evaluate_plan(base, plan).total_dv
        assert dv > 60.0
        squeezed = make_scenario([(0.0, 0.0, 0.0, dv - 50.0)],
                                 [(4.0, 20.0, 90.0, 10 * HOUR)],
                                 deadline_s=30 * 86400.0)
        ev = evaluate_plan(squeezed, plan, CostModel(squeezed, gamma=10.0))
        assert not ev.feasible
        assert ev.budget_penalty == pytest.approx(50.0, rel=1e-9)
        assert ev.fitness - ev.total_dv == pytest.approx(500.0, rel=1e-9)

    def test_refuses_a_model_of_another_scenario(self):
        scenario = random_scenario(3, 2, 20.0, seed=1)
        other = random_scenario(3, 2, 20.0, seed=2)
        plan = MissionPlan([Route(1, [1], [1]), Route(2, [2, 3], [1, 1])])
        for model in (CostModel(other),
                      _LambertAdapter(other, DEFAULT_PHI, DEFAULT_GAMMA)):
            with pytest.raises(ValueError) as exc:
                evaluate_plan(scenario, plan, model)
            assert str(exc.value) == "the model was built on another scenario"
        # A model of an equal scenario, built again, flies the plan.
        again = CostModel(random_scenario(3, 2, 20.0, seed=1))
        assert evaluate_plan(scenario, plan, again) == evaluate_plan(
            scenario, plan)

    def test_penalty_soundness(self):
        rng = random.Random(24)
        for _ in range(20):
            scenario = random_scenario_tuple(
                rng, rng.randint(2, 6), rng.randint(1, 3),
                deadline_s=rng.uniform(5.0, 25.0) * 86400.0,
                budget=rng.uniform(300.0, 2000.0))
            plan = random_plan(scenario, rng)
            ev = evaluate_plan(scenario, plan)
            assert ev.feasible == (ev.deadline_penalty == 0.0
                                   and ev.budget_penalty == 0.0)
            if ev.feasible:
                assert ev.fitness == ev.total_dv
            else:
                assert ev.fitness > ev.total_dv

    # A plan flies one route per scenario servicer, covers every target
    # once and phases each leg a positive whole number of revolutions.
    @pytest.mark.parametrize("targets, servicers, routes", [
        (2, 1, [(1, [1], [1])]),
        (3, 2, [(1, [1], [1]), (99, [2, 3], [1, 1])]),
        (3, 2, [(1, [1], [1]), (1, [2, 3], [1, 1])]),
        (2, 1, [(1, [1, 2], [1.5, 1])]),
        (2, 1, [(1, [1, 2], [1, True])]),
        (3, 2, [(True, [True, 2, 3], [1, 1, 1])]),
        (3, 2, [(1, [True, 2, 3], [1, 1, 1])]),
    ], ids=["incomplete", "unknown-servicer", "repeated-servicer",
            "fractional-revs", "bool-revs", "bool-ids", "bool-target"])
    def test_rejects_invalid_plan(self, targets, servicers, routes):
        scenario = random_scenario(targets, servicers, 20.0, seed=1)
        plan = MissionPlan([Route(*r) for r in routes])
        for check in (plan.validate_against,
                      lambda sc: evaluate_plan(sc, plan)):
            with pytest.raises(ValueError) as exc:
                check(scenario)
            assert len(str(exc.value).splitlines()) == 1


class TestPenalizedFitness:
    def test_a_zero_weight_adds_nothing_to_an_infinite_violation(self):
        assert penalized_fitness(math.inf, 90.0, math.inf, 2.0, 0.0) \
            == math.inf
        assert penalized_fitness(5.0, math.inf, 30.0, 0.0, 0.5) == 20.0
        assert penalized_fitness(5.0, math.inf, math.inf, 0.0, 0.0) == 5.0
        assert penalized_fitness(5.0, math.inf, 0.0, 1.0, 0.0) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(*[st.floats(allow_nan=False, allow_infinity=False)] * 3,
           *[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e6)] * 2)
    def test_every_finite_input_gives_the_plain_sum(self, dv, p1, p2, phi,
                                                    gamma):
        assert (penalized_fitness(dv, p1, p2, phi, gamma).hex()
                == (dv + phi * (p1 / 60.0) + gamma * p2).hex())


class TestCostModelAgreement:
    def test_fast_path_matches_vector_path(self):
        rng = random.Random(25)
        for _ in range(15):
            scenario = random_scenario_tuple(
                rng, rng.randint(2, 6), rng.randint(1, 3),
                deadline_s=rng.uniform(8.0, 35.0) * 86400.0,
                budget=rng.uniform(500.0, 2000.0))
            model = CostModel(scenario)
            plan = random_plan(scenario, rng)
            ev = evaluate_plan(scenario, plan)
            fitness, total_dv, p1, p2, feasible = model.plan_metrics(plan)
            assert total_dv == pytest.approx(ev.total_dv, rel=1e-9, abs=1e-9)
            assert p1 == pytest.approx(ev.deadline_penalty, rel=1e-9, abs=1e-4)
            assert p2 == pytest.approx(ev.budget_penalty, rel=1e-9, abs=1e-6)
            assert fitness == pytest.approx(ev.fitness, rel=1e-9, abs=1e-6)
            assert feasible == ev.feasible

    def test_policy_weights_reach_every_score(self):
        rng = random.Random(30)
        scenario = random_scenario_tuple(rng, 6, 2, deadline_s=6 * 86400.0,
                                         budget=300.0)
        model = CostModel(scenario, phi=3.0, gamma=0.5)
        plan = random_plan(scenario, rng)
        ev = evaluate_plan(scenario, plan, CostModel(scenario, phi=3.0,
                                                     gamma=0.5))
        assert ev.deadline_penalty > 0.0 and ev.budget_penalty > 0.0
        assert model.plan_metrics(plan)[0] == pytest.approx(ev.fitness,
                                                            rel=1e-9)
        for route in plan.routes:
            sid, seq = route.servicer_id, route.target_sequence
            score, dv, p1, p2 = model.route_score(sid, seq, route.revolutions)
            assert score == penalized_fitness(dv, p1, p2, 3.0, 0.5)
            _, dv, p1, _ = allocated_route(model, sid, seq)
            p2 = max(dv - scenario.servicer(sid).dv_budget, 0.0)
            assert read_priced(model.priced_score(sid, seq)) == (
                penalized_fitness(dv, p1, p2, 3.0, 0.5),
                p1 == 0.0 and p2 == 0.0)

    def test_sequence_fitness_is_the_allocated_plan_fitness(self):
        rng = random.Random(31)
        for days in (6.0, 20.0):
            scenario = random_scenario_tuple(rng, 6, 3,
                                             deadline_s=days * 86400.0,
                                             budget=400.0)
            model = CostModel(scenario, phi=3.0, gamma=0.5)
            seqs = [r.target_sequence
                    for r in random_plan(scenario, rng).routes]
            plan = MissionPlan([Route(s.id, seq, model.allocate(s.id, seq))
                                for s, seq in zip(scenario.servicers, seqs)])
            fitness = model.plan_fitness(seqs)
            fresh = CostModel(scenario, phi=3.0, gamma=0.5)
            assert fitness.hex() == fresh.plan_metrics(plan)[0].hex()
            assert fitness == pytest.approx(
                evaluate_plan(scenario, plan, fresh).fitness, rel=1e-9)

    def test_route_metrics_match_route_result(self):
        rng = random.Random(26)
        scenario = random_scenario_tuple(rng, 5, 1, deadline_s=30 * 86400.0)
        model = CostModel(scenario)
        seq = [1, 2, 3, 4, 5]
        revs = [2, 1, 3, 1, 2]
        legs = model.fly(Route(1, seq, revs))
        dv, _, end = model.route_metrics(1, seq, revs)
        assert dv == pytest.approx(math.fsum(leg.total_dv for leg in legs),
                                   rel=1e-9)
        assert end == pytest.approx(legs[-1].completion_time, rel=1e-12)


def read_priced(value):
    """(score, feasible) of a route-memo value: the score, negated unless
    the route is feasible, so the sign bit is the flag."""
    return abs(value), math.copysign(1.0, value) > 0.0


def deep_size(value) -> int:
    """Bytes of ``value`` and, for a tuple, of everything it holds."""
    size = sys.getsizeof(value)
    if isinstance(value, tuple):
        size += sum(map(deep_size, value))
    return size


class TestRouteMemo:
    """``CostModel`` prices each (servicer, sequence) once under its policy;
    the memo must not change any answer. Its bound, as every memo's, is
    checked by ``test_search.TestBoundedSearchCaches``."""

    POLICIES = ({}, {"slack_rule": "smallest"}, {"phi": 2.0, "gamma": 7.0})

    @staticmethod
    def random_routes(scenario, rng, count):
        tids = [t.id for t in scenario.targets]
        sids = [s.id for s in scenario.servicers]
        return [(rng.choice(sids), rng.sample(tids, rng.randint(1, 5)))
                for _ in range(count)]

    @pytest.mark.parametrize("days", [6.0, 20.0])
    def test_memo_answers_match_a_fresh_model(self, days):
        scenario = random_scenario(8, 3, days, seed=11)
        rng = random.Random(12)
        pool = self.random_routes(scenario, rng, 12)
        memos = [CostModel(scenario, **policy) for policy in self.POLICIES]
        outcomes = set()
        for i in range(90):
            sid, seq = rng.choice(pool)
            policy = self.POLICIES[i % len(memos)]
            memo = memos[i % len(memos)]
            score, feasible = read_priced(memo.priced_score(sid, seq))
            revs = CostModel(scenario, **policy).allocate(sid, seq)
            fresh_score, _, p1, p2 = CostModel(
                scenario, **policy).route_score(sid, seq, revs)
            assert score.hex() == fresh_score.hex()
            assert feasible == (p1 == 0.0 and p2 == 0.0)
            outcomes.add(feasible)
            assert memo.allocate(sid, seq) == revs
            assert allocated_route(memo, sid, seq) == (
                (tuple(revs),)
                + CostModel(scenario, **policy).route_metrics(sid, seq, revs))
            other = [k + rng.randint(0, 2) for k in revs]
            for r in (revs, other):
                fresh = CostModel(scenario, **policy)
                assert memo.route_metrics(sid, seq, r) == fresh.route_metrics(
                    sid, seq, r)
                assert memo.route_score(sid, seq, r) == fresh.route_score(
                    sid, seq, r)
        assert all(len(memo._priced) <= len(pool) for memo in memos)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("revs", [[1], [1, 1, 1]])
    def test_revolutions_must_match_the_sequence(self, revs):
        scenario = random_scenario(4, 1, 10.0, seed=15)
        with pytest.raises(ValueError):
            CostModel(scenario).route_metrics(1, [1, 2], revs)

    def test_memo_value_does_not_grow_with_the_route(self):
        # A value holds what the search reads, a score whose sign is the
        # feasibility, and no per-leg data, so a 40-target route's takes a 2-target route's
        # bytes.
        model = CostModel(random_scenario(40, 1, 60.0, seed=16))
        sizes = set()
        for seq in ([1, 2], list(range(1, 41))):
            model.priced_score(1, seq)
            sizes.add(deep_size(model._priced[(1, *seq)]))
        assert len(sizes) == 1

    @pytest.mark.parametrize("length", [1, 2, 5, 40])
    def test_memo_value_is_one_float(self, length):
        model = CostModel(random_scenario(40, 1, 60.0, seed=16))
        seq = list(range(1, length + 1))
        value = model.priced_score(1, seq)
        assert type(value) is float
        assert model._priced == {(1, *seq): value}

    @pytest.mark.parametrize("deadline, feasible", [(DAY, False),
                                                    (3 * DAY, True)])
    def test_a_zero_score_keeps_its_feasibility(self, deadline, feasible):
        # The target sits at the servicer's own orbit position, so the leg
        # costs no delta-v. With phi = 0, a route whose repair alone runs
        # past the deadline scores 0.0 too, and only the sign of the stored
        # zero tells it from the feasible one.
        scenario = make_scenario([(1.0, 20.0, 30.0, 100.0)],
                                 [(1.0, 20.0, 30.0, 2 * DAY)], deadline)
        model = CostModel(scenario, phi=0.0)
        score, dv, p1, p2 = model.route_score(1, [1], model.allocate(1, [1]))
        assert (score, dv, p2) == (0.0, 0.0, 0.0)
        assert (p1 == 0.0) == feasible
        value = model.priced_score(1, [1])
        assert value.hex() == (0.0 if feasible else -0.0).hex()
        assert read_priced(value) == (0.0, feasible)
        assert model.plan_fitness([[1]]).hex() == (0.0).hex()
        if feasible:
            assert insertion_cost(1, [[]], model) == (0.0, (0, 0))
        else:
            with pytest.raises(AllInfeasible):
                insertion_cost(1, [[]], model)

    def test_lns_solve_builds_each_route_geometry_once(self, monkeypatch):
        # Each call of the kernel, in order: a route key for each geometry
        # and None for each cost pass.
        calls = []
        geometry = CostModel.route_geometry
        route_cost = CostModel._route_cost

        def geometry_spy(self, servicer_id, seq):
            calls.append((servicer_id, tuple(seq)))
            return geometry(self, servicer_id, seq)

        def cost_spy(self, legs, revs):
            calls.append(None)
            return route_cost(self, legs, revs)

        monkeypatch.setattr(CostModel, "route_geometry", geometry_spy)
        monkeypatch.setattr(CostModel, "_route_cost", cost_spy)
        scenario = random_scenario(6, 2, 10.0, seed=7)
        result = solve_lns_aga(scenario, GaParams(population_size=20,
                                                  min_iterations=10,
                                                  stall_iterations=5), seed=1)
        built = [key for key in calls if key is not None]
        # The report reads the geometry of each reported route twice more,
        # last: once in ``allocate``, which prices a non-empty route afresh
        # for its revolutions, and once to fly the legs the search priced.
        reported = [(r.servicer_id, tuple(r.target_sequence))
                    for r in result.best_plan.routes]
        report = [key for key in reported if key[1]] + reported
        searched = built[:-len(report)]
        assert searched
        assert len(searched) == len(set(searched))
        assert built[-len(report):] == report
        # Before the report, the search costs each route once, right after
        # building its geometry: one geometry pass and one cost pass.
        geometry_at = [i for i, key in enumerate(calls) if key is not None]
        assert calls[:geometry_at[len(searched)]] == [
            call for key in searched for call in (key, None)]

    def test_lns_solve_builds_each_leg_pair_once(self, monkeypatch):
        built = []
        original = CostModel._pair

        def spy(self, from_key, to_id):
            built.append((from_key, to_id))
            return original(self, from_key, to_id)

        monkeypatch.setattr(CostModel, "_pair", spy)
        m, n = 6, 2
        scenario = random_scenario(m, n, 10.0, seed=7)
        solve_lns_aga(scenario, GaParams(population_size=20,
                                         min_iterations=10,
                                         stall_iterations=5), seed=1)
        assert built
        assert len(built) == len(set(built)) <= (n + m) * m

    def test_pair_cost_table_keeps_no_pair(self):
        # Relatedness reads every target pair, most of which no route
        # flies: the table keeps their costs, not their leg geometry, and
        # a pair a route flew gives the cost a temporary pair does.
        scenario = random_scenario(12, 2, 10.0, seed=3)
        fresh = CostModel(scenario)
        table = fresh.pair_cost_table(0.5)
        assert fresh._pairs == {}
        flown = CostModel(scenario)
        flown.fly(Route(1, list(range(1, 13)), [1] * 12))
        assert len(flown._pairs) == 12
        assert [[c.hex() for c in row] for row in table] == [
            [c.hex() for c in row] for row in flown.pair_cost_table(0.5)]


    def test_pair_cost_table_builds_each_ordered_pair_once(self,
                                                           monkeypatch):
        # One temporary pair per ordered target pair, and the table that a
        # two-pass build gives, the maximum taken first over the unordered
        # pairs: the same float in every entry.
        m, beta = 12, 0.5
        scenario = random_scenario(m, 2, 10.0, seed=3)
        reference = CostModel(scenario)
        ids = [t.id for t in scenario.targets]
        c_max = max(reference.target_pair_cost(i, j, beta)
                    for i, j in itertools.combinations(ids, 2))
        want = [[0.0] * (m + 1) for _ in range(m + 1)]
        for i in ids:
            for j in ids:
                if i != j:
                    want[i][j] = reference.target_pair_cost(i, j, beta) / c_max
        built = []
        init = planning._Pair.__init__

        def counted(self, frm, to):
            built.append(None)
            init(self, frm, to)

        monkeypatch.setattr(planning._Pair, "__init__", counted)
        model = CostModel(scenario)
        table = model.pair_cost_table(beta)
        assert len(built) == m * (m - 1)
        assert hexed(table) == hexed(want)
        assert model.pair_cost_table(beta) is table
        assert len(built) == m * (m - 1)

class PerLegCostModel(CostModel):
    """``CostModel`` with its per-leg code as it read before the route
    kernel was inlined, copied verbatim: one method call per leg for the
    geometry and for each cost piece, and a ``max``/``min`` over a key for
    the top-up leg. The oracle of ``TestExactKernel``."""

    def _pair(self, from_key, to_id):
        key = (from_key, to_id)
        p = self._pairs.get(key)
        if p is None:
            p = planning._Pair(self._orbits[from_key], self._orbits[to_id])
            self._pairs[key] = p
        return p

    def leg_geometry(self, from_key, to_id, t_dep: float):
        p = self._pair(from_key, to_id)
        if p.degenerate:
            return 0.0, p.lam_diff, p
        u_dep = self._orbits[from_key].arg_lat0 + GEO.mean_motion * t_dep
        za = (p.psi_from - u_dep) % TWO_PI
        zb = (za + math.pi) % TWO_PI
        if za <= zb:
            ang, u_node = za, p.psi_to
        else:
            ang, u_node = zb, p.psi_to + math.pi
        coast = ang / TWO_PI * GEO.t_geo
        t1 = t_dep + coast
        theta = fold_angle(u_node - (self._orbits[to_id].arg_lat0
                                     + GEO.mean_motion * t1))
        return coast, theta, p

    def route_geometry(self, servicer_id: int, seq):
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
            t = t + coast + ((TWO_PI + theta) / TWO_PI) * GEO.t_geo + td
            from_key = tid
        return (list(zip(coasts, thetas, dv1s, shalves, tds)),
                planning._left_sum(coasts), planning._left_sum(tds))

    def phasing_half_dv(self, theta: float, k: int) -> float:
        span = TWO_PI * k + theta
        a = GEO.r_geo * (span / (TWO_PI * k)) ** (2.0 / 3.0)
        return 1000.0 * planning._SQRT_MU * abs(
            math.sqrt(planning._TWO_OVER_R - 1.0 / a) - planning._INV_SQRT_R)

    def t_phase(self, theta: float, k: int) -> float:
        return ((TWO_PI * k + theta) / TWO_PI) * GEO.t_geo

    @staticmethod
    def leg_dv(dv1: float, s_half: float, theta: float, half: float) -> float:
        if dv1 == 0.0:
            return 2.0 * half
        sgn = 1.0 if theta > 0.0 else (-1.0 if theta < 0.0 else 0.0)
        imp1 = math.sqrt(dv1 * dv1 + half * half
                         + 2.0 * dv1 * half * sgn * s_half)
        return imp1 + half

    def _route_cost(self, legs, revs):
        t = 0.0
        dv = 0.0
        p1 = 0.0
        deadline = self.deadline
        for q, k in enumerate(revs):
            coast, theta, dv1, s_half, td = legs[q]
            half = self.phasing_half_dv(theta, k)
            dv += self.leg_dv(dv1, s_half, theta, half)
            t = t + coast + self.t_phase(theta, k) + td
            if t > deadline:
                p1 += t - deadline
        return dv, p1, t

    def _end_time(self, geom, revs) -> float:
        t = 0.0
        t_geo = GEO.t_geo
        for (coast, theta, _, _, td), k in zip(geom, revs):
            t = t + coast + ((TWO_PI * k + theta) / TWO_PI) * t_geo + td
        return t

    def _allocate(self, geom, sum_coast, sum_td):
        legs = len(geom)
        n_max = self._max_revs
        deadline = self.deadline
        t_phase_budget = deadline - sum_td - sum_coast
        pieces = math.floor(t_phase_budget / GEO.t_geo)
        base = min(max(pieces // legs, 1), n_max)
        revs = [base] * legs
        gaps = [abs(leg[1]) for leg in geom]
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
                extra = math.floor(slack / GEO.t_geo)
                if extra >= 1:
                    pick = (max if self.slack_rule == "largest" else min)(
                        range(legs), key=lambda q: (gaps[q], -q))
                    revs[pick] = min(revs[pick] + extra, n_max)
        return revs, self._route_cost(geom, revs)


def hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(hexed(v) for v in value)
    return value


# Round degrees, the multiples of 90 deg and angles a few ulps from them:
# where the gap folds to +-pi and a servicer sits on a node.
ROUND_DEGREES = st.integers(0, 359).map(float)
QUARTER_TURNS = st.sampled_from([0.0, 90.0, 180.0, 270.0, 360.0])


@st.composite
def near_round_degrees(draw):
    angle = draw(st.one_of(QUARTER_TURNS, ROUND_DEGREES))
    for _ in range(draw(st.integers(1, 4))):
        angle = math.nextafter(angle, draw(st.sampled_from([-1e9, 1e9])))
    return angle


ANGLES = st.one_of(QUARTER_TURNS, ROUND_DEGREES, near_round_degrees())
INCLINATIONS = st.one_of(st.just(0.0), st.integers(0, 10).map(float),
                         st.sampled_from([0.0, 5.0]).map(
                             lambda a: math.nextafter(a, 1e9)))


@st.composite
def kernel_cases(draw):
    """(servicers, targets, deadline s, routes) in ``make_scenario`` form,
    with ``(servicer id, sequence, revolutions)`` routes."""
    servicers = [(draw(INCLINATIONS), draw(ANGLES), draw(ANGLES), 2000.0)
                 for _ in range(draw(st.integers(1, 2)))]
    targets = [(draw(INCLINATIONS), draw(ANGLES), draw(ANGLES),
                draw(st.integers(0, 24)) * HOUR)
               for _ in range(draw(st.integers(1, 5)))]
    deadline = draw(st.integers(1, 15)) * 86400.0
    routes = []
    for _ in range(draw(st.integers(1, 6))):
        sid = draw(st.integers(1, len(servicers)))
        perm = draw(st.permutations(range(1, len(targets) + 1)))
        seq = perm[:draw(st.integers(1, len(targets)))]
        revs = draw(st.lists(st.integers(1, 16), min_size=len(seq),
                             max_size=len(seq)))
        routes.append((sid, seq, revs))
    return servicers, targets, deadline, routes


def _raan_turned(scenario, angle: float):
    """``scenario`` turned by ``angle`` about the polar axis: the same angle
    added to every body's RAAN."""
    def turned(body):
        o = body.orbit
        return replace(body, orbit=GeoOrbit(o.inclination, o.raan + angle,
                                            o.arg_lat0))
    return Scenario(epoch=scenario.epoch, deadline=scenario.deadline,
                    servicers=[turned(s) for s in scenario.servicers],
                    targets=[turned(t) for t in scenario.targets])


class TestRaanRotation:
    """Turning every orbit by one angle about the polar axis leaves each
    leg's dihedral, coast and phase gap as they were, so the allocation and
    the price of every route must not move."""

    # A scenario seed, a turning angle and up to six routes of it.
    ROTATED_ROUTES = dict(
        seed=st.integers(1, 10 ** 6),
        angle=st.floats(0.0, TWO_PI, exclude_max=True),
        routes=st.lists(st.tuples(
            st.sampled_from([1, 2]),
            st.lists(st.integers(1, 8), min_size=1, max_size=8,
                     unique=True)), min_size=1, max_size=6))

    @settings(max_examples=200, deadline=None)
    @given(**ROTATED_ROUTES)
    def test_allocation_and_mixed_delta_v_are_invariant(self, seed, angle,
                                                        routes):
        scenario = random_scenario(8, 2, 15.0, seed)
        model = CostModel(scenario)
        turned = CostModel(_raan_turned(scenario, angle))
        for sid, seq in routes:
            revs, dv, _, _ = allocated_route(model, sid, seq)
            turned_revs, turned_dv, _, _ = allocated_route(turned, sid,
                                                           seq)
            assert turned_revs == revs
            assert turned_dv == pytest.approx(dv, rel=1e-12)

    # Lambert legs keep their flight times and delta-v to 1e-8 relative.
    # Each of these three routes, the hardest found among 42,000 random
    # ones on random_scenario(8, 2, 15, seed) and in 200 runs of a 60-draw
    # hypothesis test, has legs within a few degrees of a whole turn, where
    # a Lambert solve is ill-conditioned; the first once changed a leg's
    # fallback flight time.
    @pytest.mark.parametrize("seed,angle,sid,seq", [
        pytest.param(325, 0.6671089358518445, 2, [5, 1, 3, 8, 7, 2],
                     id="fallback-flight-time-flips"),
        pytest.param(467, 5.245032498024499, 2, [8, 7, 2],
                     id="delta-v-2.7e-8"),
        pytest.param(253590, 0.125, 1, [1], id="delta-v-1.4e-8"),
    ])
    def test_lambert_flight_times_and_delta_v_are_invariant(self, seed,
                                                            angle, sid, seq):
        self.assert_lambert_invariant(seed, angle, [(sid, seq)])

    # The same holds on drawn routes.
    @settings(max_examples=200, deadline=None)
    @given(**ROTATED_ROUTES)
    def test_lambert_drawn_routes_keep_flight_times_and_delta_v(
            self, seed, angle, routes):
        self.assert_lambert_invariant(seed, angle, routes)

    @staticmethod
    def assert_lambert_invariant(seed, angle, routes):
        scenario = random_scenario(8, 2, 15.0, seed)
        model = _LambertAdapter(scenario, DEFAULT_PHI, DEFAULT_GAMMA)
        turned = _LambertAdapter(_raan_turned(scenario, angle), DEFAULT_PHI,
                                 DEFAULT_GAMMA)
        for sid, seq in routes:
            tofs, dv, _ = model.route_detail(sid, seq)
            turned_tofs, turned_dv, _ = turned.route_detail(sid, seq)
            assert turned_tofs == tofs
            assert turned_dv == pytest.approx(dv, rel=1e-8)


@st.composite
def oracle_instances(draw):
    """(servicer tuples, target tuples, deadline s) for ``make_scenario``:
    1 or 2 servicers, 1 to 3 targets and a deadline of 1 to 20 days."""
    orbit = st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 360.0),
                      st.floats(0.0, 360.0))
    servicers = draw(st.lists(st.tuples(orbit, st.sampled_from(
        [300.0, 2000.0])), min_size=1, max_size=2))
    targets = draw(st.lists(st.tuples(orbit, st.sampled_from(
        [0.0, HOUR, DAY])), min_size=1, max_size=3))
    return ([o + (b,) for o, b in servicers], [o + (r,) for o, r in targets],
            draw(st.floats(1.0, 20.0)) * DAY)


class TestOracleSymmetries:
    """The oracle's optimum is a property of the fleet and the deadline, not
    of how the targets are numbered, and more time can only help it."""

    @settings(max_examples=100, deadline=None)
    @given(case=oracle_instances(), data=st.data())
    def test_relabelling_the_targets_keeps_the_optimum(self, case, data):
        servicers, targets, deadline = case
        order = data.draw(st.permutations(range(len(targets))))
        _, ev = exhaustive_solve(make_scenario(servicers, targets, deadline),
                                 3)
        _, relabelled = exhaustive_solve(make_scenario(
            servicers, [targets[i] for i in order], deadline), 3)
        assert relabelled.fitness.hex() == ev.fitness.hex()

    @settings(max_examples=100, deadline=None)
    @given(case=oracle_instances())
    def test_a_longer_deadline_never_raises_the_optimum(self, case):
        servicers, targets, deadline = case
        _, ev = exhaustive_solve(make_scenario(servicers, targets, deadline),
                                 3)
        _, longer = exhaustive_solve(make_scenario(servicers, targets,
                                                   1.5 * deadline), 3)
        assert longer.fitness <= ev.fitness


def allocation_branches(model, sid, seq) -> set[str]:
    """The ``allocate`` branches one route reaches, read from its even
    split, that split's end time and its final revolutions: 'trim-twice'
    when the trim pass cuts two revolutions or more, 'clamped-top-up' when
    the top-up is cut off at ``_max_revs`` and 'smallest-tie' when, under
    ``slack_rule='smallest'``, a top-up is due and the smallest gap is
    shared by two legs or more."""
    legs, sum_coast, sum_td = model.route_geometry(sid, seq)
    pieces = math.floor((model.deadline - sum_td - sum_coast) / T)
    base = min(max(pieces // len(legs), 1), model._max_revs)
    end = model.route_metrics(sid, seq, [base] * len(legs))[2]
    revs = allocated_route(model, sid, seq)[0]
    branches = set()
    if end > model.deadline:
        if base * len(legs) - sum(revs) >= 2:
            branches.add("trim-twice")
    elif model.deadline - end > 0.0:
        extra = math.floor((model.deadline - end) / T)
        gaps = [abs(leg[1]) for leg in legs]
        if extra >= 1 and base + extra > model._max_revs:
            branches.add("clamped-top-up")
        if (extra >= 1 and model.slack_rule == "smallest"
                and gaps.count(min(gaps)) > 1):
            branches.add("smallest-tie")
    return branches


class TestExactKernel:
    """The inlined route kernel gives, float for float, what the per-leg
    code it replaced gave (``PerLegCostModel``), and each leg priced as a
    one-leg route, as ``exhaustive_solve`` tables it, is that leg's share.
    An explicit example may name, last, the ``allocation_branches`` it must
    reach."""

    @given(kernel_cases())
    @example((  # A half-turn lead: the phase gap folds to +pi.
        [(0.0, 0.0, 0.0, 2000.0)], [(0.0, 0.0, 180.0, HOUR)], 6 * 86400.0,
        [(1, [1], [1]), (1, [1], [3])]))
    @example((  # The servicer starts on a node of the second target.
        [(0.0, 270.0, 18.0, 2000.0)],
        [(0.0, 270.0, 8.0, 0.0), (5.0, 270.0, 198.0, 0.0)], 10 * 86400.0,
        [(1, [2, 1], [1, 3]), (1, [1, 2], [2, 2])]))
    @example((  # Round-degree fleet whose search and report disagree.
        [(0.0, 0.0, 0.0, 1500.0), (5.0, 90.0, 0.0, 1500.0)],
        [(0.0, 0.0, 180.0, HOUR), (0.0, 0.0, 90.0, HOUR),
         (5.0, 90.0, 180.0, HOUR), (5.0, 90.0, 270.0, HOUR),
         (2.0, 45.0, 45.0, HOUR)], 6 * 86400.0,
        [(1, [1, 2, 5], [1, 2, 3]), (2, [3, 4], [2, 1]),
         (2, [4, 3, 5, 1, 2], [1, 1, 1, 1, 1])]))
    @example((  # Three gaps of nearly +pi overrun the even split by 1.5
        # periods, so the trim pass cuts twice.
        [(0.0, 0.0, 0.0, 2000.0)],
        [(0.0, 0.0, 181.0, 0.0), (0.0, 0.0, 2.0, 0.0),
         (0.0, 0.0, 183.0, 0.0)], 6 * 86400.0,
        [(1, [1, 2, 3], [2, 2, 2])], "trim-twice"))
    @example((  # One leg whose gap of nearly -pi, with the 0.6 period left
        # by the deadline, asks for a top-up past ``_max_revs``.
        [(0.0, 0.0, 0.0, 2000.0)], [(0.0, 0.0, 179.0, 0.0)],
        5.6 * 86400.0, [(1, [1], [5])], "clamped-top-up"))
    @example((  # Two legs tie on the smallest gap, pi/2.
        [(0.0, 0.0, 0.0, 2000.0)],
        [(0.0, 0.0, 90.0, 0.0), (0.0, 0.0, 180.0, 0.0),
         (0.0, 0.0, 0.0, 0.0)], 10 * 86400.0,
        [(1, [1, 2, 3], [3, 3, 3])], "smallest-tie"))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_leg_code(self, case):
        servicers, targets, deadline, routes, *branches = case
        scenario = make_scenario(servicers, targets, deadline)
        reached = set()
        for rule in planning.SLACK_RULES:
            model = CostModel(scenario, rule)
            reference = PerLegCostModel(scenario, rule)
            for sid, seq, revs in routes:
                reached |= allocation_branches(model, sid, seq)
                geom = model.route_geometry(sid, seq)
                assert hexed(geom) == hexed(
                    reference.route_geometry(sid, seq))
                assert hexed(allocated_route(model, sid, seq)) == hexed(
                    allocated_route(reference, sid, seq))
                assert hexed(model.route_metrics(sid, seq, revs)) == hexed(
                    reference.route_metrics(sid, seq, revs))
                legs = geom[0]
                for q, k in enumerate(revs):
                    leg_dv, _, leg_time = model._route_cost(legs[q:q + 1],
                                                            (k,))
                    coast, theta, dv1, s_half, td = legs[q]
                    assert leg_dv.hex() == reference.leg_dv(
                        dv1, s_half, theta,
                        reference.phasing_half_dv(theta, k)).hex()
                    assert leg_time.hex() == (
                        coast + reference.t_phase(theta, k) + td).hex()
        assert set(branches) <= reached

    @given(thetas=st.lists(st.sampled_from(
               [-math.pi, -math.pi / 2, 0.0, 0.25, math.pi / 2,
                math.nextafter(math.pi, 0.0), math.pi]),
               min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_tied_gaps_top_up_the_same_leg(self, thetas, data):
        # Drawn from a few values, the gaps tie often.
        legs = len(thetas)
        coasts = data.draw(st.lists(st.sampled_from([0.0, 3000.0, 4e4]),
                                    min_size=legs, max_size=legs))
        dv1s = data.draw(st.lists(st.sampled_from([0.0, 150.0]),
                                  min_size=legs, max_size=legs))
        tds = data.draw(st.lists(st.sampled_from([0.0, HOUR, 86400.0]),
                                 min_size=legs, max_size=legs))
        geom = (list(zip(coasts, thetas, dv1s,
                         [0.04 if d else 0.0 for d in dv1s], tds)),
                planning._left_sum(coasts), planning._left_sum(tds))
        days = data.draw(st.integers(1, 20))
        scenario = make_scenario([(0.0, 0.0, 0.0, 2000.0)],
                                 [(0.0, 0.0, 0.0, 0.0)], days * 86400.0)
        for rule in planning.SLACK_RULES:
            assert hexed(CostModel(scenario, rule)._allocate(*geom)) == hexed(
                PerLegCostModel(scenario, rule)._allocate(*geom))


@st.composite
def plan_cases(draw):
    """(servicers, targets, deadline s, routes) in ``make_scenario`` form,
    whose ``(servicer id, sequence, revolutions)`` routes make a plan: each
    servicer flies at most one route and each target is in exactly one."""
    servicers = [(draw(INCLINATIONS), draw(ANGLES), draw(ANGLES),
                  draw(st.sampled_from([300.0, 2000.0])))
                 for _ in range(draw(st.integers(1, 3)))]
    targets = [(draw(INCLINATIONS), draw(ANGLES), draw(ANGLES),
                draw(st.integers(0, 24)) * HOUR)
               for _ in range(draw(st.integers(1, 5)))]
    deadline = draw(st.integers(1, 15)) * 86400.0
    perm = draw(st.permutations(range(1, len(targets) + 1)))
    owners = [draw(st.integers(1, len(servicers))) for _ in perm]
    routes = []
    for sid in range(1, len(servicers) + 1):
        seq = [tid for tid, owner in zip(perm, owners) if owner == sid]
        revs = draw(st.lists(st.integers(1, 16), min_size=len(seq),
                             max_size=len(seq)))
        routes.append((sid, seq, revs))
    return servicers, targets, deadline, routes


# Item-1 fleets, where the report once flew other legs than the search
# priced: a phase gap of a half turn, and a servicer that starts on a node.
HALF_TURN = ([(0.0, 0.0, 0.0, 2000.0)], [(0.0, 0.0, 180.0, HOUR)],
             6 * 86400.0)
ON_A_NODE = ([(0.0, 270.0, 18.0, 2000.0)],
             [(0.0, 270.0, 8.0, 0.0), (5.0, 270.0, 198.0, 0.0)],
             10 * 86400.0)
ROUND_FLEET = ([(0.0, 0.0, 0.0, 1500.0), (5.0, 90.0, 0.0, 1500.0)],
               [(0.0, 0.0, 180.0, HOUR), (0.0, 0.0, 90.0, HOUR),
                (5.0, 90.0, 180.0, HOUR), (5.0, 90.0, 270.0, HOUR),
                (2.0, 45.0, 45.0, HOUR)], 6 * 86400.0)


def assert_report_is_the_kernel(scenario, plan):
    """``evaluate_plan`` gives ``plan_metrics`` bit for bit, and each route
    its kernel delta-v and end time."""
    model = CostModel(scenario)
    ev = evaluate_plan(scenario, plan)
    assert hexed((ev.fitness, ev.total_dv, ev.deadline_penalty,
                  ev.budget_penalty, ev.feasible)) == hexed(
        model.plan_metrics(plan))
    for route, dv in zip(plan.routes, ev.per_servicer_dv):
        legs = [leg for leg in ev.leg_details
                if leg.servicer_id == route.servicer_id]
        want_dv, _, want_end = model.route_metrics(
            route.servicer_id, route.target_sequence, route.revolutions)
        assert dv.hex() == want_dv.hex()
        if legs:
            assert legs[-1].completion_time.hex() == want_end.hex()
    return ev


class TestReportFliesTheKernelLegs:
    """The report flies the legs the search priced, so ``evaluate_plan``
    equals ``CostModel.plan_metrics`` by ``float.hex``, also where the
    geometry is exactly aligned."""

    @pytest.mark.parametrize("case, routes, total_dv", [
        (HALF_TURN, [(1, [1], [1])], 689.5897214279953),
        (HALF_TURN, [(1, [1], [3])], 293.28625566171837),
        (ON_A_NODE, [(1, [2, 1], [1, 3])], 1305.66399762132),
    ], ids=["half-turn-k1", "half-turn-k3", "on-a-node"])
    def test_branch_points(self, case, routes, total_dv):
        scenario = make_scenario(*case)
        ev = assert_report_is_the_kernel(
            scenario, MissionPlan([Route(*r) for r in routes]))
        assert ev.total_dv == total_dv

    def test_solve_reports_the_best_fitness_of_its_history(self):
        scenario = make_scenario(*ROUND_FLEET)
        result = solve_lns_aga(scenario, GaParams(population_size=30,
                                                  min_iterations=30,
                                                  stall_iterations=10),
                               seed=1)
        assert result.best_evaluation.fitness == 1197.5665482326242
        assert result.best_evaluation.fitness == min(
            best for best, _ in result.history)
        assert_report_is_the_kernel(scenario, result.best_plan)

    @given(plan_cases())
    @example((*HALF_TURN, [(1, [1], [1])]))
    @example((*HALF_TURN, [(1, [1], [3])]))
    @example((*ON_A_NODE, [(1, [2, 1], [1, 3])]))
    @example((*ROUND_FLEET, [(1, [1, 2, 5], [1, 2, 3]), (2, [3, 4], [2, 1])]))
    @settings(max_examples=150, deadline=None)
    def test_matches_plan_metrics(self, case):
        servicers, targets, deadline, routes = case
        assert_report_is_the_kernel(
            make_scenario(servicers, targets, deadline),
            MissionPlan([Route(*r) for r in routes]))


def trial_priced_allocate(model, geom, slack_rule):
    """The revolution allocator as it reads with every trial allocation
    fully priced by ``_route_cost``. Returns the revolutions, their cost
    and whether the trim pass ran."""
    geom, sum_coast, sum_td = geom
    legs = len(geom)
    n_max = model._max_revs
    t_phase_budget = model.deadline - sum_td - sum_coast
    pieces = math.floor(t_phase_budget / GEO.t_geo)
    base = min(max(pieces // legs, 1), n_max)
    revs = [base] * legs
    gaps = [abs(leg[1]) for leg in geom]
    cost = model._route_cost(geom, revs)
    if cost[2] > model.deadline:
        trim_order = sorted(range(legs), key=lambda q: (gaps[q], q))
        while cost[2] > model.deadline:
            cut = next((q for q in trim_order if revs[q] > 1), None)
            if cut is None:
                break
            revs[cut] -= 1
            cost = model._route_cost(geom, revs)
        return revs, cost, True
    slack = model.deadline - cost[2]
    if slack > 0.0:
        extra = math.floor(slack / GEO.t_geo)
        if extra >= 1:
            pick = (max if slack_rule == "largest" else min)(
                range(legs), key=lambda q: (gaps[q], -q))
            revs[pick] = min(revs[pick] + extra, n_max)
            cost = model._route_cost(geom, revs)
    return revs, cost, False


class TestTimeOnlyAllocation:
    """The allocator decides on end times alone and prices the route once;
    its answers must equal those of the allocator that prices every trial.
    """

    @pytest.mark.parametrize("rule", ["largest", "smallest"])
    def test_matches_the_trial_pricing_allocator(self, rule):
        # Ten days for up to ten one-day repairs: most base allocations
        # overrun the deadline, so the trim pass decides at its boundary.
        scenario = random_scenario(10, 2, 10.0, seed=2101)
        model = CostModel(scenario, rule)
        # The allocator's end-time expression, as the per-leg code wrote it
        # in a method of its own.
        end_time = PerLegCostModel(scenario, rule)._end_time
        rng = random.Random(2102)
        tids = [t.id for t in scenario.targets]
        trims = trims_to_fit = 0
        for _ in range(2000):
            sid = rng.choice((1, 2))
            seq = rng.sample(tids, rng.randint(1, 10))
            geom = model.route_geometry(sid, seq)
            revs, cost, trimmed = trial_priced_allocate(model, geom, rule)
            trims += trimmed
            trims_to_fit += trimmed and cost[2] <= model.deadline
            assert allocated_route(model, sid, seq) == (
                (tuple(revs),) + cost)
            other = [rng.randint(1, model._max_revs) for _ in seq]
            assert end_time(geom[0], other) == model._route_cost(
                geom[0], other)[2]
        assert trims > 500 and trims_to_fit > 10


def every_plan(scenario, max_rev):
    """Every plan: each assignment of targets to servicers, each order of
    each route and each revolution count in 1..max_rev per leg."""
    sids = [s.id for s in scenario.servicers]
    tids = [t.id for t in scenario.targets]
    for assign in itertools.product(sids, repeat=len(tids)):
        subsets = [[t for t, a in zip(tids, assign) if a == sid]
                   for sid in sids]
        for seqs in itertools.product(
                *[itertools.permutations(sub) for sub in subsets]):
            for revs in itertools.product(range(1, max_rev + 1),
                                          repeat=len(tids)):
                routes, used = [], 0
                for sid, seq in zip(sids, seqs):
                    routes.append(Route(sid, list(seq),
                                        list(revs[used:used + len(seq)])))
                    used += len(seq)
                yield MissionPlan(routes)


class TestExhaustive:
    def test_reports_the_least_plan_metrics_exactly(self):
        # Brute force over every plan of at most 3 targets, 2 servicers and
        # 3 revolutions per leg, under deadlines that most plans miss.
        rng = random.Random(29)
        late = 0
        for _ in range(12):
            m, n = rng.randint(1, 3), rng.randint(1, 2)
            scenario = random_scenario_tuple(
                rng, m, n, deadline_s=(m / n + rng.uniform(0.3, 2.0)) * DAY,
                budget=rng.uniform(200.0, 2000.0),
                repair_s=rng.choice([0.0, HOUR, DAY]))
            model = CostModel(scenario)
            least = min(model.plan_metrics(plan)[0]
                        for plan in every_plan(scenario, 3))
            plan, ev = exhaustive_solve(scenario, max_revolutions=3)
            assert ev.fitness.hex() == least.hex()
            assert model.plan_metrics(plan)[0].hex() == least.hex()
            late += ev.deadline_penalty > 0.0
        assert late >= 3

    def test_single_target_picks_best_feasible_k(self):
        scenario = make_scenario([(0.0, 0.0, 0.0, 1000.0)],
                                 [(3.0, 40.0, 200.0, 10 * HOUR)],
                                 deadline_s=10 * HOUR + 4.6 * T)
        plan, ev = exhaustive_solve(scenario, max_revolutions=6)
        # Independent scan of the only decision dimension.
        best = None
        for k in range(1, 7):
            cand = evaluate_plan(scenario, MissionPlan([Route(1, [1], [k])]))
            if best is None or cand.fitness < best[0]:
                best = (cand.fitness, k)
        assert plan.routes[0].revolutions == [best[1]]
        assert ev.fitness.hex() == best[0].hex()

    def test_symmetric_instance_ties(self):
        # Co-located servicers: swapping their targets yields the identical
        # leg multiset, so both assignments tie and the oracle returns one.
        scenario = make_scenario(
            [(0.0, 0.0, 0.0, 2000.0), (0.0, 0.0, 0.0, 2000.0)],
            [(0.0, 0.0, 60.0, HOUR), (0.0, 0.0, 240.0, HOUR)],
            deadline_s=10 * 86400.0)
        plan, ev = exhaustive_solve(scenario, max_revolutions=3)
        seqs = [r.target_sequence for r in plan.routes]
        assert seqs in ([[1], [2]], [[2], [1]])
        revs = [r.revolutions for r in plan.routes]
        mirror = MissionPlan([Route(1, seqs[1], revs[1]),
                              Route(2, seqs[0], revs[0])])
        mirrored = evaluate_plan(scenario, mirror)
        assert mirrored.fitness.hex() == ev.fitness.hex()

    def test_guards(self):
        rng = random.Random(27)
        big = random_scenario_tuple(rng, 6, 2, deadline_s=30 * 86400.0)
        with pytest.raises(InstanceTooLarge):
            exhaustive_solve(big, 4)
        small = random_scenario_tuple(rng, 2, 1, deadline_s=30 * 86400.0)
        with pytest.raises(InstanceTooLarge):
            exhaustive_solve(small, 7)
        for cap in (0, -1, 2.5, "3", True):
            with pytest.raises(ValueError, match="max_revolutions"):
                exhaustive_solve(small, cap)

    def test_dominates_random_plans(self):
        rng = random.Random(28)
        scenario = random_scenario_tuple(rng, 3, 2,
                                         deadline_s=8.0 * 86400.0)
        _, ev = exhaustive_solve(scenario, max_revolutions=4)
        for _ in range(50):
            plan = random_plan(scenario, rng, max_rev=4)
            assert ev.fitness <= evaluate_plan(scenario, plan).fitness


class TestPublishedPlanReproduction:
    """The case-study plan published for this scenario, re-evaluated here."""

    REFERENCE_DV = (992.6817, 963.6836)

    def setup_method(self):
        from georepair.scenarios import case_study
        self.scenario = case_study()
        names = {t.name: t.id for t in self.scenario.targets}
        self.seq1 = [names[n] for n in (
            "Beidou_G5", "Beidou2_G7", "Beidou_G3", "Beidou_G1", "Beidou_G4",
            "Tianlian1_01", "Beidou_G2")]
        self.seq2 = [names[n] for n in (
            "Beidou2_G8", "Chinasat_11", "Beidou_G6", "Tianlian1_03",
            "Tianlian1_02", "Fengyun_2F", "Fengyun_2E")]

    def _plan(self, rule):
        model = CostModel(self.scenario, rule)
        return MissionPlan([Route(1, self.seq1, model.allocate(1, self.seq1)),
                            Route(2, self.seq2, model.allocate(2, self.seq2))])

    def test_per_servicer_dv_within_five_percent(self):
        for rule in ("largest", "smallest"):
            ev = evaluate_plan(self.scenario, self._plan(rule))
            assert ev.feasible
            for got, ref in zip(ev.per_servicer_dv, self.REFERENCE_DV):
                assert abs(got - ref) / ref < 0.05

    def test_smallest_rule_reproduces_published_allocation(self):
        # Three revolutions per leg, plus one extra on the smallest-gap leg
        # of the second route (the published schedule's 4-revolution leg).
        plan = self._plan("smallest")
        assert plan.routes[0].revolutions == [3] * 7
        assert plan.routes[1].revolutions == [3, 3, 3, 3, 3, 4, 3]


def test_phasing_consistency_with_astro():
    # A one-leg route with no coast, no repair and no plane change costs
    # exactly its phasing burns and lasts exactly its phasing time, to the
    # bit: phasing_solution rounds in the kernel's operation order.
    rng = random.Random(29)
    scenario = random_scenario_tuple(rng, 2, 1, deadline_s=20 * 86400.0)
    model = CostModel(scenario)
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        k = rng.randint(1, 10)
        t_phase, _, dv = phasing_solution(theta, k)
        cost_dv, _, end = model._route_cost([(0.0, theta, 0.0, 0.0, 0.0)],
                                            (k,))
        assert end.hex() == t_phase.hex()
        assert cost_dv.hex() == dv.hex()
