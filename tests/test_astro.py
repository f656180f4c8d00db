"""Geometry and transfer-model tests against independent oracles."""

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georepair import astro
from georepair.astro import (
    GEO,
    TWO_PI,
    AstroError,
    CartesianState,
    CollinearGeometry,
    GeoOrbit,
    InvalidRevolutions,
    NoConvergence,
    fold_angle,
    lambert_solve,
    orbit_to_state,
    phasing_solution,
    rendezvous_mixed,
)
from mixed_oracle import (
    CLOSURE_BOUNDS,
    angular_momentum_dir,
    coast_time_to_node,
    phasing_impulses,
    propagate_through_solution,
    propagate_universal,
    stumpff,
)
from mixed_oracle import rendezvous_mixed as vector_rendezvous_mixed
from scenario_builders import kernel_leg


def random_orbit(rng):
    return GeoOrbit(rng.uniform(0.0, math.radians(12.0)),
                    rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))


def test_constants_period_invariant():
    assert GEO.t_geo == pytest.approx(TWO_PI * math.sqrt(GEO.r_geo ** 3 / GEO.mu),
                                      rel=1e-12)
    assert GEO.r_geo == pytest.approx(42164.17, abs=0.05)
    assert GEO.v_geo * 1000.0 == pytest.approx(3074.7, abs=0.1)


def test_derived_constants_keep_their_bits():
    # r_geo, v_geo and mean_motion are derived from mu and t_geo; their
    # floats are the ones every stored plan and fingerprint was made with.
    assert [float.hex(v) for v in (GEO.r_geo, GEO.v_geo, GEO.mean_motion)] \
        == ["0x1.496856d8f7dcep+15", "0x1.898e764edeb2cp+1",
            "0x1.31da7f71321e2p-14"]


def test_orbit_angle_normalization():
    orb = GeoOrbit(0.1, -0.5, TWO_PI + 0.25)
    assert 0.0 <= orb.raan < TWO_PI
    assert orb.arg_lat0 == pytest.approx(0.25)
    with pytest.raises(ValueError):
        GeoOrbit(math.pi, 0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, math.pi, exclude_max=True),
       st.one_of(st.floats(-20.0, 20.0), st.floats(-1e-15, 1e-15)),
       st.one_of(st.floats(-20.0, 20.0), st.floats(-1e-15, 1e-15)))
def test_orbit_angle_normalization_is_idempotent(i, raan, u):
    # A tiny negative angle once rounded up to exactly TWO_PI, and an orbit
    # rebuilt from its stored angles then held 0.0 and was not ``==``.
    orbit = GeoOrbit(i, raan, u)
    for angle in (orbit.raan, orbit.arg_lat0):
        assert 0.0 <= angle < TWO_PI
    rebuilt = GeoOrbit(orbit.inclination, orbit.raan, orbit.arg_lat0)
    assert (rebuilt.raan, rebuilt.arg_lat0) == (orbit.raan, orbit.arg_lat0)
    assert dataclasses.replace(orbit) == orbit
    assert dataclasses.replace(orbit, inclination=i) == orbit


def test_tiny_negative_angle_normalizes_to_zero():
    orbit = GeoOrbit(0.0, -3.13e-22, -3.13e-22)
    assert (orbit.raan, orbit.arg_lat0) == (0.0, 0.0)
    assert dataclasses.replace(orbit) == orbit == GeoOrbit(0.0, 0.0, 0.0)


def _frame(orbit):
    return [float(x).hex() for x in (*orbit.e1, *orbit.e2, *orbit.h,
                                     orbit.lam0)]


class TestStoredFrame:
    """Each ``GeoOrbit`` stores its plane frame and epoch longitude, derived
    from its normalized angles; the derived fields change nothing that the
    three stored angles decide."""

    INCLINATIONS = st.floats(0.0, math.pi, exclude_max=True)
    ANGLES = st.floats(-20.0, 20.0)
    # Angles that are their own normal form, so that an orbit rebuilt from
    # its stored angles is built from the angles it was given.
    NORMAL = st.floats(0.0, TWO_PI, exclude_max=True)

    @settings(max_examples=300, deadline=None)
    @given(INCLINATIONS, ANGLES, NORMAL, ANGLES)
    def test_frame_of_a_drawn_orbit(self, i, raan, u, other_raan):
        orbit = GeoOrbit(i, raan, u)
        e1, e2, h = orbit.e1, orbit.e2, orbit.h
        for a in (e1, e2, h):
            for b in (e1, e2, h):
                dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                assert abs(dot - (1.0 if a is b else 0.0)) <= 1e-15
        assert _frame(orbit)[6:9] == [
            float(x).hex() for x in angular_momentum_dir(orbit)]
        assert orbit.lam0 == orbit.raan + orbit.arg_lat0
        assert _frame(dataclasses.replace(orbit, raan=other_raan)) == \
            _frame(GeoOrbit(i, other_raan, u))

    @settings(max_examples=100, deadline=None)
    @given(INCLINATIONS, NORMAL, NORMAL)
    def test_identity_is_the_three_angles(self, i, raan, u):
        orbit = GeoOrbit(i, raan, u)
        assert repr(orbit) == (f"GeoOrbit(inclination={i!r}, raan={raan!r}, "
                               f"arg_lat0={u!r})")
        assert hash(orbit) == hash((i, raan, u))
        twin = GeoOrbit(i, raan, u)
        assert twin == orbit
        # A frame that differed would not make two orbits differ.
        object.__setattr__(twin, "lam0", orbit.lam0 + 1.0)
        assert twin == orbit and hash(twin) == hash(orbit)
        assert orbit != GeoOrbit(i, raan, u + 0.5)
        copy = pickle.loads(pickle.dumps(orbit))
        assert copy == orbit and _frame(copy) == _frame(orbit)

    def test_derived_fields_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            GeoOrbit(0.1, 0.2, 0.3, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            dataclasses.replace(GeoOrbit(0.1, 0.2, 0.3), lam0=0.0)


class TestOrbitToState:
    def test_equatorial_at_ascending_node(self):
        st = orbit_to_state(GeoOrbit(0.0, 0.0, 0.0), 0.0)
        np.testing.assert_allclose(st.r, [GEO.r_geo, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(st.v, [0.0, GEO.v_geo, 0.0], atol=1e-12)

    def test_periodicity(self):
        rng = random.Random(1)
        for _ in range(20):
            orb = random_orbit(rng)
            r0 = np.asarray(orbit_to_state(orb, 0.0).r)
            r1 = np.asarray(orbit_to_state(orb, GEO.t_geo).r)
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


class TestRendezvousMixed:
    """The mixed leg as the report flies it: geometry and price from the
    ``CostModel`` kernel, impulses and times from ``rendezvous_mixed``."""

    def test_identical_orbit_and_phase(self):
        orb = GeoOrbit.from_degrees(3.0, 50.0, 120.0)
        _, _, leg, _, theta = kernel_leg(orb, orb, 1)
        assert leg.total_dv == pytest.approx(0.0, abs=1e-9)
        assert leg.coast_time == 0.0
        assert leg.arrival_time - leg.depart_time == pytest.approx(
            GEO.t_geo, rel=1e-12)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_coplanar_quarter_gap_costs_phasing_only(self):
        servicer = GeoOrbit(0.0, 0.0, math.pi / 2.0)  # target trails by 90 deg
        target = GeoOrbit(0.0, 0.0, 0.0)
        _, _, leg, _, theta = kernel_leg(servicer, target, 1)
        _, _, dv_oracle = phasing_solution(math.pi / 2.0, 1)
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert leg.total_dv == pytest.approx(dv_oracle, rel=1e-9)
        assert leg.total_dv == pytest.approx(411.0, abs=1.0)

    def test_bookkeeping_invariants(self):
        rng = random.Random(9)
        for _ in range(50):
            servicer, target = random_orbit(rng), random_orbit(rng)
            t = rng.uniform(0.0, 5.0 * GEO.t_geo)
            k = rng.randint(1, 6)
            st, _, leg, _, _ = kernel_leg(servicer, target, k, t)
            assert leg.arrival_time == leg.impulse1_time + leg.phase_time
            i1, i2 = np.linalg.norm(leg.impulse1), np.linalg.norm(leg.impulse2)
            assert leg.total_dv == pytest.approx(i1 + i2, rel=1e-12)
            assert leg.impulse1_time == pytest.approx(st.t + leg.coast_time)

    def test_combined_impulse_law(self):
        # |dv1 + dv2| matches the law-of-cosines closed form and never
        # exceeds the separate-burn total.
        rng = random.Random(10)
        checked = 0
        for _ in range(300):
            servicer, target = random_orbit(rng), random_orbit(rng)
            t = rng.uniform(0.0, GEO.t_geo)
            k = rng.randint(1, 5)
            _, _, leg, alpha, theta = kernel_leg(servicer, target, k, t)
            if alpha < 1e-10:
                continue
            dv1_mag = 2.0 * GEO.v_geo * 1000.0 * math.sin(alpha / 2.0)
            dv2_mag = 0.5 * phasing_solution(theta, k)[2]
            sgn = 1.0 if theta > 0 else -1.0
            cos_hat = sgn * math.sin(alpha / 2.0)
            closed = math.sqrt(dv1_mag ** 2 + dv2_mag ** 2
                               + 2.0 * dv1_mag * dv2_mag * cos_hat)
            assert np.linalg.norm(leg.impulse1) == pytest.approx(closed, rel=1e-9)
            assert np.linalg.norm(leg.impulse1) <= dv1_mag + dv2_mag + 1e-9
            checked += 1
        assert checked > 200

    def test_cheaper_than_three_separate_impulses(self):
        rng = random.Random(11)
        for _ in range(200):
            servicer, target = random_orbit(rng), random_orbit(rng)
            t = rng.uniform(0.0, GEO.t_geo)
            k = rng.randint(1, 5)
            _, _, leg, alpha, theta = kernel_leg(servicer, target, k, t)
            dv1_mag = 2.0 * GEO.v_geo * 1000.0 * math.sin(alpha / 2.0)
            dv_phase = phasing_solution(theta, k)[2]
            assert leg.total_dv <= dv1_mag + dv_phase + 1e-9

    def test_phasing_closure(self):
        # End-to-end oracle: flying both impulses through the independent
        # propagator must land exactly on the target's propagated state.
        rng = random.Random(12)
        for _ in range(100):
            servicer, target = random_orbit(rng), random_orbit(rng)
            t = rng.uniform(0.0, 3.0 * GEO.t_geo)
            k = rng.randint(1, 10)
            st, target, leg, _, _ = kernel_leg(servicer, target, k, t)
            r_fin, v_fin = propagate_through_solution(st, leg)
            tgt = orbit_to_state(target, leg.arrival_time)
            assert np.linalg.norm(r_fin - tgt.r) < 1e-6
            assert np.linalg.norm(v_fin - tgt.v) < 1e-9

    def test_rejects_bad_revolutions(self):
        orb = GeoOrbit(0.0, 0.0, 0.0)
        with pytest.raises(InvalidRevolutions):
            rendezvous_mixed(orb, orb, 0.0, 0.0, 0.0, 0.0, 0)
        with pytest.raises(InvalidRevolutions):
            kernel_leg(orb, orb, 0)

    def test_revolutions_may_be_any_integral_but_bool(self):
        servicer = GeoOrbit.from_degrees(2.0, 10.0, 30.0)
        target = GeoOrbit.from_degrees(4.0, 60.0, 200.0)
        _, _, leg, _, _ = kernel_leg(servicer, target, np.int64(3))
        assert leg == kernel_leg(servicer, target, 3)[2]
        for k in (True, 2.0, np.float64(2.0)):
            with pytest.raises(InvalidRevolutions):
                rendezvous_mixed(servicer, target, 0.0, 0.0, 0.1, 0.0, k)
            with pytest.raises(InvalidRevolutions):
                kernel_leg(servicer, target, k)
            with pytest.raises(InvalidRevolutions):
                phasing_solution(0.1, k)

    def test_impulses_are_float_triples(self):
        rng = random.Random(45)
        _, _, leg, _, _ = kernel_leg(random_orbit(rng), random_orbit(rng), 2)
        for impulse in (leg.impulse1, leg.impulse2):
            assert type(impulse) is tuple and len(impulse) == 3
            assert all(type(x) is float for x in impulse)

    def test_matches_the_vector_oracle(self):
        # The kernel-fed leg against the numpy node search, on generic
        # inclined legs and on coplanar (equatorial) ones: every field
        # within 1e-12 of its natural scale. They differ where an angle is
        # found otherwise (an ``atan2`` of the node against an ``acos`` plus
        # a sign) and where a BLAS reduction rounds otherwise than a
        # left-to-right sum.
        rng = random.Random(44)
        for q in range(2000):
            if q % 10:
                servicer, target = random_orbit(rng), random_orbit(rng)
            else:
                servicer = GeoOrbit(0.0, 0.0, rng.uniform(0.0, TWO_PI))
                target = GeoOrbit(0.0, 0.0, rng.uniform(0.0, TWO_PI))
            t = rng.uniform(0.0, 5.0 * GEO.t_geo)
            k = rng.randint(1, 10)
            st, target, got, alpha, theta = kernel_leg(servicer, target, k, t)
            want = vector_rendezvous_mixed(st, target, k)
            assert (alpha < 1e-10) == (want.alpha < 1e-10)
            pairs = [
                ("t1", got.impulse1_time, want.t1, GEO.t_geo),
                ("t2", got.arrival_time, want.t2, GEO.t_geo),
                ("coast_time", got.coast_time, want.coast_time, GEO.t_geo),
                ("phase_time", got.phase_time, want.phase_time, GEO.t_geo),
                ("alpha", alpha, want.alpha, math.pi),
                ("theta", theta, want.theta, math.pi),
                ("total_dv", got.total_dv, want.total_dv, want.total_dv)]
            for name, g, w, scale in pairs:
                assert math.isclose(g, w, rel_tol=1e-12,
                                    abs_tol=1e-12 * scale), (name, g, w)
            for g, w in zip(got.impulse1 + got.impulse2,
                            [*want.impulse1, *want.impulse2]):
                assert math.isclose(g, w, rel_tol=1e-12,
                                    abs_tol=1e-12 * want.total_dv), (g, w)


# Equatorial transfer angles (deg) of the parabolic-time Lambert tests.
PARABOLIC_DEGREES = [d for d in range(5, 360, 5) if d != 180]


def parabolic_tof(r1, r2, deg):
    """Euler's flight time (s) of the parabola from ``r1`` to ``r2`` that
    sweeps ``deg`` degrees: minus under half a turn, plus over it."""
    c = math.dist(r1, r2)
    s = 0.5 * (plain_norm(r1) + plain_norm(r2) + c)
    sign = 1.0 if deg < 180 else -1.0
    return (math.sqrt(2.0) / 3.0 * (s ** 1.5 - sign * (s - c) ** 1.5)
            / math.sqrt(GEO.mu))


def exact_stumpff(z):
    """(C(z), S(z)) as 40 terms of their series, summed exactly and
    rounded once: for |z| <= 16 the 41st term is below 1e-60 of either.
    With z = p / q, term k is (-p / q)^k / (2k + 2)! for C and
    (-p / q)^k / (2k + 3)! for S, each an integer over q^39 * 81!."""
    p, q = z.as_integer_ratio()
    top = math.factorial(81)
    c = s = 0
    for k in range(40):
        power = (-p) ** k * q ** (39 - k)
        c += power * (top // math.factorial(2 * k + 2))
        s += power * (top // math.factorial(2 * k + 3))
    return c / (q ** 39 * top), s / (q ** 39 * top)


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

    @settings(max_examples=300)
    @given(st.floats(-16.0, 16.0))
    @example(2e-8)
    @example(-2e-8)
    @example(1e-6)
    @example(4.0)
    @example(math.nextafter(4.0, 5.0))
    @example(-math.nextafter(4.0, 5.0))
    def test_stumpff_matches_its_exact_series(self, z):
        # 1 - cos and sz - sin cancel near zero: computed that way, C and S
        # are 4.4e-9 off at z = 2e-8 and 1.6e-11 at z = 1e-6. Both sides of
        # the switch from series to closed form at |z| = 4 are drawn.
        c, s = stumpff(z)
        want_c, want_s = exact_stumpff(z)
        assert abs(c - want_c) <= 1e-15 * want_c
        assert abs(s - want_s) <= 1e-15 * want_s

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 - 1e-9, 1 + 1e-9,
                                        1 + 1e-6])
    def test_near_parabolic_arcs_close(self, factor):
        # Near Euler's parabolic time the arc's universal variable z is
        # near zero, where Stumpff functions computed through 1 - cos and
        # sz - sin cancel and put these arcs' ends up to 8 m off.
        max_r, max_v = CLOSURE_BOUNDS["lambert"]
        r1 = orbit_to_state(GeoOrbit(0.0, 0.0, 0.0), 0.0).r
        for deg in PARABOLIC_DEGREES:
            r2 = orbit_to_state(GeoOrbit.from_degrees(0.0, 0.0, deg), 0.0).r
            tof = factor * parabolic_tof(r1, r2, deg)
            v1, v2 = lambert_solve(r1, r2, tof)
            r, v = propagate_universal(r1, v1, tof)
            assert np.linalg.norm(r - np.asarray(r2)) < max_r, deg
            assert np.linalg.norm(v - np.asarray(v2)) < max_v, deg


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
        np.testing.assert_allclose(w1, -np.asarray(v2), atol=1e-8)
        np.testing.assert_allclose(w2, -np.asarray(v1), atol=1e-8)

    def test_parabolic_flight_times(self, monkeypatch):
        # Euler's parabolic flight time can put Izzo's initial guess exactly
        # on the parabola x = 1, where the derivatives of T are 0 / 0: the
        # solver steps off it and the arc lands.
        starts = []
        tof_fn = astro._izzo_tof

        def spy(x, ll):
            starts.append(x)
            return tof_fn(x, ll)

        monkeypatch.setattr(astro, "_izzo_tof", spy)
        r1 = orbit_to_state(GeoOrbit(0.0, 0.0, 0.0), 0.0).r
        for deg in PARABOLIC_DEGREES:
            r2 = orbit_to_state(GeoOrbit.from_degrees(0.0, 0.0, deg), 0.0).r
            tof = parabolic_tof(r1, r2, deg)
            v1, _ = lambert_solve(r1, r2, tof)
            assert closure_km(r1, r2, tof, v1) < 1e-3, deg
        assert math.nextafter(1.0, 2.0) in starts

    def test_just_past_the_half_turn_guard(self):
        # 1e-8 rad short of a half turn the chord can round past the sum of
        # the radii, so 1 - c / s, Izzo's lambda squared, is all rounding
        # and may be negative. lambert_solve takes it from |r1 x r2|
        # instead, and its arcs land.
        rng = random.Random(17)
        negative = 0
        for _ in range(200):
            a = rng.uniform(0.0, TWO_PI)
            d = math.pi - rng.uniform(1.0e-8, 1.2e-8)
            r1 = (GEO.r_geo * math.cos(a), GEO.r_geo * math.sin(a), 0.0)
            r2 = (GEO.r_geo * math.cos(a + d), GEO.r_geo * math.sin(a + d),
                  0.0)
            c = plain_norm([q - p for p, q in zip(r1, r2)])
            negative += 1.0 - c / (0.5 * (plain_norm(r1) + plain_norm(r2)
                                          + c)) < 0.0
            v1, _ = lambert_solve(r1, r2, GEO.t_geo / 2.0)
            assert closure_km(r1, r2, GEO.t_geo / 2.0, v1) < 1e-3
        assert negative > 0

    def test_collinear_raises(self):
        r1 = np.array([GEO.r_geo, 0.0, 0.0])
        with pytest.raises(CollinearGeometry):
            lambert_solve(r1, -r1, GEO.t_geo / 2.0)

    def test_exhausted_iterations_raise(self):
        r1 = orbit_to_state(GeoOrbit.from_degrees(3.0, 20.0, 0.0), 0.0).r
        r2 = orbit_to_state(GeoOrbit.from_degrees(6.0, 40.0, 100.0), 0.0).r
        tof = 0.4 * GEO.t_geo
        lambert_solve(r1, r2, tof)
        with pytest.raises(NoConvergence):
            lambert_solve(r1, r2, tof, max_iter=2)


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


# reference_orbit_to_state is the vector form that the scalar orbit_to_state
# replaced; the scalar form must return the same floats bit for bit, the
# sign of zero included. reference_lambert_solve is a bisection on the
# universal variable z, an oracle independent of lambert_solve's Householder
# iteration on Izzo's x. It reduces |r1|, |r2| and r1 . r2 by left-to-right
# sums under math.sqrt, so that its singular-angle guard, on acos of the
# cosine, does not hang on the BLAS kernel numpy picks. That guard is finer
# than acos resolves: one ulp inside cos = +-1 already gives 1.49e-8 rad, so
# on exactly coincident round-degree geometry the bisection solves or
# refuses by the last bit of the dot product, where lambert_solve's guard
# on |r1 x r2| refuses.


def plain_norm(r):
    return math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])


def plain_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def reference_orbit_to_state(orbit, t):
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    e1 = np.array([co, so, 0.0])
    e2 = np.array([-so * ci, co * ci, si])
    u = orbit.arg_lat0 + GEO.mean_motion * t
    cu, su = math.cos(u), math.sin(u)
    r = GEO.r_geo * (cu * e1 + su * e2)
    v = GEO.v_geo * (-su * e1 + cu * e2)
    return r, v


def reference_lambert_solve(r1, r2, tof, prograde=True, max_iter=80):
    if tof <= 0.0:
        raise ValueError("time of flight must be positive")
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    mu = GEO.mu
    r1n = plain_norm(r1)
    r2n = plain_norm(r2)
    cross = np.cross(r1, r2)
    cosd = min(1.0, max(-1.0, plain_dot(r1, r2) / (r1n * r2n)))
    dnu = math.acos(cosd)
    if (cross[2] >= 0.0) != prograde:
        dnu = TWO_PI - dnu
    sind = math.sin(dnu)
    if abs(sind) < 1e-8 or dnu < 1e-8 or TWO_PI - dnu < 1e-8:
        raise CollinearGeometry(f"singular transfer angle {dnu!r} rad")
    a_coef = sind * math.sqrt(r1n * r2n / (1.0 - cosd))
    sqrt_mu = math.sqrt(mu)
    target = sqrt_mu * tof

    def tof_fn(z):
        c, s = stumpff(z)
        y = r1n + r2n + a_coef * (z * s - 1.0) / math.sqrt(c)
        if y < 0.0:
            return -1.0
        return (y / c) ** 1.5 * s + a_coef * math.sqrt(y) - target

    z_hi = TWO_PI ** 2 * 0.999
    z_lo = -4.0 * TWO_PI ** 2
    for _ in range(40):
        if tof_fn(z_lo) < 0.0:
            break
        z_lo *= 2.0
    else:
        raise NoConvergence("Lambert time of flight not bracketed")
    if tof_fn(z_hi) < 0.0:
        raise NoConvergence("Lambert time of flight not bracketed")
    z = 0.0
    f = tof_fn(z)
    for _ in range(max_iter):
        if f > 0.0:
            z_hi = z
        else:
            z_lo = z
        z_new = 0.5 * (z_lo + z_hi)
        if abs(z_new - z) < 1e-13 * max(1.0, abs(z_new)):
            z = z_new
            break
        z = z_new
        f = tof_fn(z)
    c, s = stumpff(z)
    y = r1n + r2n + a_coef * (z * s - 1.0) / math.sqrt(c)
    if y <= 0.0:
        raise NoConvergence("Lambert iteration converged to invalid geometry")
    fl = 1.0 - y / r1n
    g = a_coef * math.sqrt(y / mu)
    gdot = 1.0 - y / r2n
    return (r2 - fl * r1) / g, (gdot * r2 - r1) / g


def hexes(*arrays):
    return [float(x).hex() for a in arrays for x in np.ravel(a)]


def lambert_outcome(solve, r1, r2, tof, prograde):
    """Velocities (v1, v2) of a Lambert solve, or the class it raised."""
    try:
        return solve(r1, r2, tof, prograde)
    except (AstroError, ValueError) as exc:
        return type(exc)


def closure_km(r1, r2, tof, v1):
    """Distance (km) from ``r2`` at which the arc from ``r1`` with ``v1``
    ends after ``tof`` s, flown by the independent propagator."""
    r_end, _ = propagate_universal(r1, v1, tof)
    return float(np.linalg.norm(r_end - np.asarray(r2)))


def swept_angle(r1, r2, prograde):
    """Transfer angle (rad) that lambert_solve flies from r1 to r2."""
    cosd = float(np.dot(r1, r2)) / (np.linalg.norm(r1) * np.linalg.norm(r2))
    dnu = math.acos(min(1.0, max(-1.0, cosd)))
    if (r1[0] * r2[1] - r1[1] * r2[0] >= 0.0) != prograde:
        dnu = TWO_PI - dnu
    return dnu


def lambert_cases():
    """(r1, r2, tof) of 600 transfers: 300 between random low-inclination
    orbits and 300 between round-degree ones over grid flight times, where
    positions are often exactly coincident or antipodal."""
    rng = random.Random(43)
    cases = []
    for _ in range(300):
        a = GeoOrbit(rng.uniform(0.0, math.radians(15.0)),
                     rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        b = GeoOrbit(rng.uniform(0.0, math.radians(15.0)),
                     rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        t = rng.uniform(0.0, 3.0 * GEO.t_geo)
        tof = rng.uniform(0.05, 2.5) * GEO.t_geo
        cases.append((orbit_to_state(a, t).r,
                      orbit_to_state(b, t + tof).r, tof))
    rounds = list(round_degree_orbits())
    for _ in range(300):
        a, b = rng.choice(rounds), rng.choice(rounds)
        tof = GEO.t_geo * rng.choice((0.125, 0.25, 0.5, 0.75, 1.0, 1.5))
        cases.append((orbit_to_state(a, 0.0).r, orbit_to_state(b, tof).r,
                      tof))
    return cases


def round_degree_orbits():
    """Orbits on round degrees, equatorial ones and node crossings among
    them, where components land on exact zeros of either sign."""
    for inc in (0.0, 5.0, 45.0, 90.0, 135.0):
        for raan in range(0, 360, 45):
            for u in range(0, 360, 45):
                yield GeoOrbit.from_degrees(inc, raan, u)


SINGULAR_CASES = [
    (math.pi, GEO.t_geo / 2.0, True, CollinearGeometry),
    (math.pi, GEO.t_geo / 2.0, False, CollinearGeometry),
    (0.0, GEO.t_geo / 2.0, True, CollinearGeometry),
    (0.0, GEO.t_geo / 2.0, False, CollinearGeometry),
    (1e-9, GEO.t_geo / 2.0, True, CollinearGeometry),
    # The long way round to 1e-6 rad short of a whole turn: the bisection's
    # z bracket stops short of these flight times, and lambert_solve's x
    # reaches them (None: solved).
    (1e-6, GEO.t_geo / 2.0, False, None),
    (1e-6, 2.0 * GEO.t_geo, False, None),
    (1.0, 0.0, True, ValueError),
    (1.0, -1.0, False, ValueError),
]


def singular_positions(angle):
    """Equatorial GEO positions ``angle`` rad apart."""
    r1 = np.array([GEO.r_geo, 0.0, 0.0])
    r2 = GEO.r_geo * np.array([math.cos(angle), math.sin(angle), 0.0])
    return r1, r2


class TestExactScalarForms:
    def test_orbit_to_state_matches_the_vector_form(self):
        rng = random.Random(42)
        orbits = list(round_degree_orbits())
        orbits += [GeoOrbit(rng.uniform(0.0, math.pi), rng.uniform(-7.0, 7.0),
                            rng.uniform(-7.0, 7.0)) for _ in range(500)]
        times = [0.0, GEO.t_geo / 8.0, GEO.t_geo / 4.0, 3.0 * GEO.t_geo,
                 rng.uniform(0.0, 1e6)]
        signed_zeros = 0
        for orbit in orbits:
            for t in times:
                state = orbit_to_state(orbit, t)
                r, v = reference_orbit_to_state(orbit, t)
                assert hexes(state.r, state.v) == hexes(r, v), (orbit, t)
                assert state.t == t
                signed_zeros += sum(math.copysign(1.0, x) < 0.0
                                    for x in (r[2], v[2]) if x == 0.0)
        # Equatorial states whose z components are -0.0: the cases where
        # the 0.0 terms of the vector form decide the sign.
        assert signed_zeros > 10

    def test_lambert_matches_the_vector_form(self):
        outcomes = set()
        for r1, r2, tof in lambert_cases():
            for prograde in (True, False):
                got = lambert_outcome(lambert_solve, r1, r2, tof, prograde)
                want = lambert_outcome(reference_lambert_solve, r1, r2, tof,
                                       prograde)
                outcomes.add(got if isinstance(got, type) else list)
                dnu = swept_angle(r1, r2, prograde)
                if min(dnu, TWO_PI - dnu) < math.radians(1.0):
                    # Within a degree of a whole turn the bisection's
                    # velocities hang on z so steeply that its own arcs
                    # miss r2 by up to 14 m, and it solves exactly
                    # coincident positions that lambert_solve refuses. So
                    # here lambert_solve's arcs must land on r2 instead.
                    if not isinstance(got, type):
                        assert closure_km(r1, r2, tof, got[0]) < 1e-3
                    continue
                if isinstance(want, type):
                    assert got is want
                    continue
                assert not isinstance(got, type)
                rel = max(np.linalg.norm(np.subtract(g, w))
                          / np.linalg.norm(w) for g, w in zip(got, want))
                # The two stop at different points within their step
                # tolerances: 1.3e-11 at worst over these cases.
                assert rel <= 1e-10, (
                    rel, math.degrees(dnu), tof / GEO.t_geo, prograde)
        # No case is beyond Izzo's iteration: every failure is singular.
        assert outcomes == {list, CollinearGeometry}

    def test_every_lambert_arc_lands_on_its_target(self):
        # Each solved case of lambert_cases(), flown from r1 with v1 by the
        # independent propagator, ends within 1 m of r2; the worst misses
        # by 12 micrometres.
        solved = 0
        for r1, r2, tof in lambert_cases():
            for prograde in (True, False):
                got = lambert_outcome(lambert_solve, r1, r2, tof, prograde)
                if isinstance(got, type):
                    assert got is CollinearGeometry
                    continue
                assert closure_km(r1, r2, tof, got[0]) < 1e-3, (
                    r1, r2, tof, prograde)
                solved += 1
        assert solved == 1164

    def test_coincident_round_degree_positions_are_collinear(self):
        # (135, 135, 270) deg to (45, 315, 180) deg after a quarter period:
        # the plain dot product gives cos 0.9999999999999999 and acos
        # 1.49e-8 rad, past a 1e-8 rad guard on the angle, but r1 x r2
        # vanishes to rounding, so both directions are refused.
        r1 = orbit_to_state(GeoOrbit.from_degrees(135.0, 135.0, 270.0),
                            0.0).r
        r2 = orbit_to_state(GeoOrbit.from_degrees(45.0, 315.0, 180.0),
                            GEO.t_geo / 4.0).r
        assert plain_dot(r1, r2) / (plain_norm(r1) * plain_norm(r2)) == (
            0.9999999999999999)
        for prograde in (True, False):
            with pytest.raises(CollinearGeometry):
                lambert_solve(r1, r2, GEO.t_geo / 4.0, prograde)

    @pytest.mark.parametrize("angle, tof, prograde, error", SINGULAR_CASES)
    def test_singular_geometry_raises_the_same_class(self, angle, tof,
                                                     prograde, error):
        r1, r2 = singular_positions(angle)
        got = lambert_outcome(lambert_solve, r1, r2, tof, prograde)
        # The solver takes any 3-sequence: tuples and lists give the same.
        again = lambert_outcome(lambert_solve, tuple(r1), list(r2), tof,
                                prograde)
        if error is None:
            assert lambert_outcome(reference_lambert_solve, r1, r2, tof,
                                   prograde) is NoConvergence
            assert hexes(*again) == hexes(*got)
            assert closure_km(r1, r2, tof, got[0]) < 1e-3
            return
        assert got is error and again is error
        assert lambert_outcome(reference_lambert_solve, r1, r2, tof,
                               prograde) is error
