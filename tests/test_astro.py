"""Geometry and transfer-model tests against independent oracles."""

import math
import random

import numpy as np
import pytest

from georepair.astro import (
    GEO,
    TWO_PI,
    CartesianState,
    CollinearGeometry,
    GeoOrbit,
    InvalidRevolutions,
    PhysicalConstants,
    angular_momentum_dir,
    coast_time_to_node,
    fold_angle,
    lambert_solve,
    orbit_to_state,
    phasing_impulses,
    phasing_solution,
    propagate_universal,
    rendezvous_mixed,
)


def random_orbit(rng):
    return GeoOrbit(rng.uniform(0.0, math.radians(12.0)),
                    rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))


def test_constants_period_invariant():
    assert GEO.t_geo == pytest.approx(TWO_PI * math.sqrt(GEO.r_geo ** 3 / GEO.mu),
                                      rel=1e-12)
    assert GEO.r_geo == pytest.approx(42164.17, abs=0.05)
    assert GEO.v_geo * 1000.0 == pytest.approx(3074.7, abs=0.1)


def test_constants_reject_inconsistent():
    with pytest.raises(ValueError):
        PhysicalConstants(mu=GEO.mu, t_geo=GEO.t_geo, r_geo=GEO.r_geo * 1.01)


def test_orbit_angle_normalization():
    orb = GeoOrbit(0.1, -0.5, TWO_PI + 0.25)
    assert 0.0 <= orb.raan < TWO_PI
    assert orb.arg_lat0 == pytest.approx(0.25)
    with pytest.raises(ValueError):
        GeoOrbit(math.pi, 0.0, 0.0)


class TestOrbitToState:
    def test_equatorial_at_ascending_node(self):
        st = orbit_to_state(GeoOrbit(0.0, 0.0, 0.0), 0.0)
        np.testing.assert_allclose(st.r, [GEO.r_geo, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(st.v, [0.0, GEO.v_geo, 0.0], atol=1e-12)

    def test_periodicity(self):
        rng = random.Random(1)
        for _ in range(20):
            orb = random_orbit(rng)
            r0 = orbit_to_state(orb, 0.0).r
            r1 = orbit_to_state(orb, GEO.t_geo).r
            assert np.linalg.norm(r1 - r0) < 1e-6

    def test_table_inputs_satisfy_circular_invariants(self):
        # Servicer 2 of the embedded case study: i=5 deg, raan=0, u0=160 deg.
        orb = GeoOrbit.from_degrees(5.0, 0.0, 160.0)
        st = orbit_to_state(orb, 0.0)
        h = angular_momentum_dir(orb)
        assert abs(np.linalg.norm(st.r) - GEO.r_geo) / GEO.r_geo < 1e-9
        assert abs(np.dot(st.r, h)) < 1e-9 * GEO.r_geo
        assert abs(np.linalg.norm(st.v) - GEO.v_geo) < 1e-9 * GEO.v_geo

    def test_geometry_constant_over_100_periods(self):
        rng = random.Random(2)
        orb = random_orbit(rng)
        for i in range(0, 101, 10):
            st = orbit_to_state(orb, i * GEO.t_geo + 12345.0)
            assert abs(np.linalg.norm(st.r) - GEO.r_geo) / GEO.r_geo < 1e-9
            assert abs(np.linalg.norm(st.v) - GEO.v_geo) / GEO.v_geo < 1e-9


class TestAngularMomentum:
    def test_equatorial(self):
        np.testing.assert_allclose(angular_momentum_dir(GeoOrbit(0.0, 0.0, 0.0)),
                                   [0.0, 0.0, 1.0], atol=1e-15)

    def test_polar_hand_evaluated(self):
        # Rz(0) @ Rx(90 deg) @ z = (0, -1, 0)
        np.testing.assert_allclose(
            angular_momentum_dir(GeoOrbit(math.pi / 2, 0.0, 0.0)),
            [0.0, -1.0, 0.0], atol=1e-15)

    def test_unit_and_orthogonal_to_position(self):
        rng = random.Random(3)
        for _ in range(50):
            orb = random_orbit(rng)
            h = angular_momentum_dir(orb)
            assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)
            for t in (0.0, 1e4, 3e5):
                assert abs(np.dot(h, orbit_to_state(orb, t).r)) < 1e-8


class TestCoastTime:
    def setup_method(self):
        self.orb = GeoOrbit(0.0, 0.0, 0.0)
        self.state = orbit_to_state(self.orb, 0.0)
        self.h = angular_momentum_dir(self.orb)

    def test_already_at_node(self):
        t = coast_time_to_node(self.state, self.state.r, self.h)
        assert t == pytest.approx(0.0, abs=1e-6)

    def test_quarter_ahead(self):
        node = np.array([0.0, GEO.r_geo, 0.0])
        assert coast_time_to_node(self.state, node, self.h) == pytest.approx(
            GEO.t_geo / 4.0, rel=1e-12)

    def test_quarter_behind_costs_three_quarters(self):
        node = np.array([0.0, -GEO.r_geo, 0.0])
        assert coast_time_to_node(self.state, node, self.h) == pytest.approx(
            3.0 * GEO.t_geo / 4.0, rel=1e-12)


class TestPhasingSolution:
    def test_zero_gap(self):
        for k in (1, 3, 7):
            t_phase, a_phase, dv = phasing_solution(0.0, k)
            assert t_phase == pytest.approx(k * GEO.t_geo, rel=1e-12)
            assert a_phase == pytest.approx(GEO.r_geo, rel=1e-12)
            assert dv == 0.0

    def test_quarter_turn_against_vis_viva_oracle(self):
        theta = math.pi / 2.0
        t_phase, a_phase, dv = phasing_solution(theta, 1)
        # Independent oracle: the phasing period must let the target sweep
        # 2*pi + theta, and the burn is the vis-viva speed change at r_geo.
        period = (TWO_PI + theta) / TWO_PI * GEO.t_geo
        a_oracle = (GEO.mu * (period / TWO_PI) ** 2) ** (1.0 / 3.0)
        v_ellipse = math.sqrt(GEO.mu * (2.0 / GEO.r_geo - 1.0 / a_oracle))
        dv_oracle = 2.0 * abs(v_ellipse - GEO.v_geo) * 1000.0
        assert t_phase == pytest.approx(period, rel=1e-12)
        assert a_phase == pytest.approx(a_oracle, rel=1e-12)
        assert dv == pytest.approx(dv_oracle, rel=1e-12)
        assert a_phase == pytest.approx(48927.0, abs=2.0)
        assert dv == pytest.approx(411.0, abs=1.0)

    def test_more_revolutions_cost_less(self):
        _, _, dv5 = phasing_solution(math.pi / 2.0, 5)
        assert dv5 == pytest.approx(98.0, abs=1.0)
        _, _, dv1 = phasing_solution(math.pi / 2.0, 1)
        assert dv5 < dv1

    def test_strictly_decreasing_in_k(self):
        rng = random.Random(7)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi)
            if abs(theta) < 1e-9:
                continue
            costs = [phasing_solution(theta, k)[2] for k in range(1, 11)]
            assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_rejects_bad_revolutions(self):
        with pytest.raises(InvalidRevolutions):
            phasing_solution(0.1, 0)
        with pytest.raises(InvalidRevolutions):
            phasing_solution(0.1, 1.5)


class TestPhasingImpulses:
    def test_zero_gap_zero_burns(self):
        v = np.array([0.0, 3.0, 0.0])
        dv2, dv3 = phasing_impulses(v, 0.0, 0.0)
        assert np.all(dv2 == 0.0) and np.all(dv3 == 0.0)

    def test_burns_cancel(self):
        rng = random.Random(8)
        v = np.array([1.0, 2.5, -0.3])
        for _ in range(20):
            dv2, dv3 = phasing_impulses(v, rng.uniform(-3, 3), rng.uniform(0, 500))
            np.testing.assert_allclose(dv2 + dv3, 0.0, atol=1e-12)

    def test_leading_target_means_retrograde_entry(self):
        v = np.array([0.0, 3.0, 0.0])
        dv2, _ = phasing_impulses(v, 0.5, 100.0)
        assert np.dot(dv2, v) < 0.0
        dv2, _ = phasing_impulses(v, -0.5, 100.0)
        assert np.dot(dv2, v) > 0.0


def propagate_through_solution(state, sol, consts=GEO):
    """Fly the two impulses with the independent Kepler propagator."""
    angle = sol.coast_time * consts.mean_motion
    h = np.cross(state.r, state.v)
    h /= np.linalg.norm(h)

    def rot(vec):
        c, s = math.cos(angle), math.sin(angle)
        return vec * c + np.cross(h, vec) * s + h * np.dot(h, vec) * (1 - c)

    r1, v1 = rot(state.r), rot(state.v)
    v1 = v1 + sol.impulse1 / 1000.0
    r2, v2 = propagate_universal(r1, v1, sol.phase_time, consts)
    return r2, v2 + sol.impulse2 / 1000.0


class TestRendezvousMixed:
    def test_identical_orbit_and_phase(self):
        orb = GeoOrbit.from_degrees(3.0, 50.0, 120.0)
        sol = rendezvous_mixed(orbit_to_state(orb, 0.0), orb, 1)
        assert sol.total_dv == pytest.approx(0.0, abs=1e-9)
        assert sol.coast_time == 0.0
        assert sol.total_time == pytest.approx(GEO.t_geo, rel=1e-12)
        assert sol.theta == pytest.approx(0.0, abs=1e-12)

    def test_coplanar_quarter_gap_costs_phasing_only(self):
        servicer = GeoOrbit(0.0, 0.0, math.pi / 2.0)  # target trails by 90 deg
        target = GeoOrbit(0.0, 0.0, 0.0)
        sol = rendezvous_mixed(orbit_to_state(servicer, 0.0), target, 1)
        _, _, dv_oracle = phasing_solution(math.pi / 2.0, 1)
        assert sol.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert sol.total_dv == pytest.approx(dv_oracle, rel=1e-9)
        assert sol.total_dv == pytest.approx(411.0, abs=1.0)

    def test_bookkeeping_invariants(self):
        rng = random.Random(9)
        for _ in range(50):
            servicer, target = random_orbit(rng), random_orbit(rng)
            st = orbit_to_state(servicer, rng.uniform(0.0, 5.0 * GEO.t_geo))
            k = rng.randint(1, 6)
            sol = rendezvous_mixed(st, target, k)
            assert sol.total_time == sol.coast_time + sol.phase_time
            assert sol.t2 == sol.t1 + sol.phase_time
            i1, i2 = np.linalg.norm(sol.impulse1), np.linalg.norm(sol.impulse2)
            assert sol.total_dv == pytest.approx(i1 + i2, rel=1e-12)
            assert sol.t1 == pytest.approx(st.t + sol.coast_time)

    def test_combined_impulse_law(self):
        # |dv1 + dv2| matches the law-of-cosines closed form and never
        # exceeds the separate-burn total.
        rng = random.Random(10)
        checked = 0
        for _ in range(300):
            servicer, target = random_orbit(rng), random_orbit(rng)
            st = orbit_to_state(servicer, rng.uniform(0.0, GEO.t_geo))
            sol = rendezvous_mixed(st, target, rng.randint(1, 5))
            if sol.alpha < 1e-10:
                continue
            dv1_mag = 2.0 * GEO.v_geo * 1000.0 * math.sin(sol.alpha / 2.0)
            dv2_mag = 0.5 * phasing_solution(sol.theta, sol.revolutions)[2]
            sgn = 1.0 if sol.theta > 0 else -1.0
            cos_hat = sgn * math.sin(sol.alpha / 2.0)
            closed = math.sqrt(dv1_mag ** 2 + dv2_mag ** 2
                               + 2.0 * dv1_mag * dv2_mag * cos_hat)
            assert np.linalg.norm(sol.impulse1) == pytest.approx(closed, rel=1e-9)
            assert np.linalg.norm(sol.impulse1) <= dv1_mag + dv2_mag + 1e-9
            checked += 1
        assert checked > 200

    def test_cheaper_than_three_separate_impulses(self):
        rng = random.Random(11)
        for _ in range(200):
            servicer, target = random_orbit(rng), random_orbit(rng)
            st = orbit_to_state(servicer, rng.uniform(0.0, GEO.t_geo))
            sol = rendezvous_mixed(st, target, rng.randint(1, 5))
            dv1_mag = 2.0 * GEO.v_geo * 1000.0 * math.sin(sol.alpha / 2.0)
            dv_phase = phasing_solution(sol.theta, sol.revolutions)[2]
            assert sol.total_dv <= dv1_mag + dv_phase + 1e-9

    def test_phasing_closure(self):
        # End-to-end oracle: flying both impulses through the independent
        # propagator must land exactly on the target's propagated state.
        rng = random.Random(12)
        for _ in range(100):
            servicer, target = random_orbit(rng), random_orbit(rng)
            st = orbit_to_state(servicer, rng.uniform(0.0, 3.0 * GEO.t_geo))
            k = rng.randint(1, 10)
            sol = rendezvous_mixed(st, target, k)
            r_fin, v_fin = propagate_through_solution(st, sol)
            tgt = orbit_to_state(target, sol.t2)
            assert np.linalg.norm(r_fin - tgt.r) < 1e-6
            assert np.linalg.norm(v_fin - tgt.v) < 1e-9

    def test_rejects_bad_revolutions(self):
        orb = GeoOrbit(0.0, 0.0, 0.0)
        with pytest.raises(InvalidRevolutions):
            rendezvous_mixed(orbit_to_state(orb, 0.0), orb, 0)


class TestPropagateUniversal:
    def test_circular_orbit_against_analytic(self):
        orb = GeoOrbit.from_degrees(4.0, 70.0, 10.0)
        st = orbit_to_state(orb, 0.0)
        for dt in (100.0, GEO.t_geo / 3.0, 2.5 * GEO.t_geo, 10.0 * GEO.t_geo):
            r, v = propagate_universal(st.r, st.v, dt)
            ref = orbit_to_state(orb, dt)
            assert np.linalg.norm(r - ref.r) < 1e-6
            assert np.linalg.norm(v - ref.v) < 1e-9

    def test_elliptic_period_closure(self):
        r0 = np.array([GEO.r_geo, 0.0, 0.0])
        v0 = np.array([0.0, GEO.v_geo * 1.05, 0.0])
        a = 1.0 / (2.0 / GEO.r_geo - np.dot(v0, v0) / GEO.mu)
        period = TWO_PI * math.sqrt(a ** 3 / GEO.mu)
        r, v = propagate_universal(r0, v0, 3.0 * period)
        assert np.linalg.norm(r - r0) < 1e-6
        assert np.linalg.norm(v - v0) < 1e-9


class TestLambert:
    def test_circular_arc_is_its_own_solution(self):
        orb = GeoOrbit(0.0, 0.0, 0.0)
        s1 = orbit_to_state(orb, 0.0)
        s2 = orbit_to_state(orb, GEO.t_geo / 4.0)
        v1, v2 = lambert_solve(s1.r, s2.r, GEO.t_geo / 4.0)
        np.testing.assert_allclose(v1, s1.v, atol=1e-9)
        np.testing.assert_allclose(v2, s2.v, atol=1e-9)

    def test_residual_on_random_geo_instances(self):
        rng = random.Random(13)
        solved = 0
        for _ in range(1000):
            a, b = random_orbit(rng), random_orbit(rng)
            r1 = orbit_to_state(a, rng.uniform(0.0, GEO.t_geo)).r
            r2 = orbit_to_state(b, rng.uniform(0.0, GEO.t_geo)).r
            tof = rng.uniform(0.1, 1.2) * GEO.t_geo
            try:
                v1, _ = lambert_solve(r1, r2, tof)
            except CollinearGeometry:
                continue
            r_end, _ = propagate_universal(r1, v1, tof)
            assert np.linalg.norm(r_end - r2) < 1e-3
            solved += 1
        assert solved > 950

    def test_time_reversal_symmetry(self):
        orb = GeoOrbit.from_degrees(3.0, 20.0, 0.0)
        other = GeoOrbit.from_degrees(6.0, 40.0, 100.0)
        r1 = orbit_to_state(orb, 0.0).r
        r2 = orbit_to_state(other, 0.0).r
        tof = 0.4 * GEO.t_geo
        v1, v2 = lambert_solve(r1, r2, tof, prograde=True)
        w1, w2 = lambert_solve(r2, r1, tof, prograde=False)
        np.testing.assert_allclose(w1, -v2, atol=1e-8)
        np.testing.assert_allclose(w2, -v1, atol=1e-8)

    def test_collinear_raises(self):
        r1 = np.array([GEO.r_geo, 0.0, 0.0])
        with pytest.raises(CollinearGeometry):
            lambert_solve(r1, -r1, GEO.t_geo / 2.0)


def test_fold_angle_range():
    assert fold_angle(math.pi) == pytest.approx(math.pi)
    assert fold_angle(-math.pi) == pytest.approx(math.pi)
    assert fold_angle(math.radians(200.0)) == pytest.approx(math.radians(-160.0))
    rng = random.Random(15)
    for _ in range(200):
        x = rng.uniform(-50.0, 50.0)
        f = fold_angle(x)
        assert -math.pi < f <= math.pi
        assert math.cos(f) == pytest.approx(math.cos(x), abs=1e-9)
        assert math.sin(f) == pytest.approx(math.sin(x), abs=1e-9)
