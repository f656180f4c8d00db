"""The numpy node search of the mixed rendezvous, kept as the oracle of
the leg that ``georepair.planning.CostModel.fly`` reports, with the
universal-variable Kepler propagator that checks where a flown leg lands.

The package has one copy of the mixed leg's geometry, the route kernel of
``CostModel``, which finds each leg's coast and phase gap from angles
(``atan2`` of the node in each plane, a folded difference of arguments of
latitude) and hands them to ``astro.rendezvous_mixed`` for impulses and
times. ``rendezvous_mixed`` here finds the same leg otherwise, from vectors:
it rotates the departure state to the nearer node found by ``acos`` plus a
sign, measures the gap with ``atan2`` of the positions, and reduces its
norms and dot products through numpy (``np.linalg.norm``, ``np.dot``),
whose rounding depends on the BLAS kernel numpy picks. The two agree to
1e-12 of each field's scale away from the branch points (a gap of a half
turn, a departure on a node), where the kernel's rule decides. It shares
``phasing_solution`` with the package. ``propagate_universal`` is the
independent two-body propagator, on the Stumpff functions of ``stumpff``,
``propagate_through_solution`` flies a leg's impulses through it, and
``assert_legs_close`` holds every reported leg of a solve to
``CLOSURE_BOUNDS``.
"""

import math
from dataclasses import dataclass

import numpy as np

from georepair.astro import (
    COPLANAR_TOL,
    GEO,
    TWO_PI,
    CartesianState,
    GeoOrbit,
    InvalidRevolutions,
    NoConvergence,
    orbit_to_state,
    phasing_solution,
)


@dataclass(frozen=True)
class VectorLeg:
    """The oracle's leg: impulses (m/s, numpy arrays) at ``t1`` and ``t2``,
    the coast and phasing times, the delta-v of its two impulses, and the
    dihedral ``alpha`` and signed phase gap ``theta`` it found from
    vectors."""

    impulse1: np.ndarray
    impulse2: np.ndarray
    t1: float
    t2: float
    coast_time: float
    phase_time: float
    total_dv: float
    alpha: float
    theta: float


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of ``v`` by ``angle`` about unit vector ``axis``."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * (np.dot(axis, v) * (1.0 - c))


def angular_momentum_dir(orbit: GeoOrbit) -> np.ndarray:
    """Unit vector normal to the orbit plane, Rz(raan) @ Rx(inc) @ (0,0,1)."""
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    return np.array([so * si, -co * si, ci])


def coast_time_to_node(state: CartesianState, node: np.ndarray,
                       orbit_normal: np.ndarray) -> float:
    """Prograde coast duration from ``state`` to the given node direction.

    The node must lie in the orbit plane. Returns the shortest non-negative
    duration, in [0, t_geo).
    """
    r_hat = _unit(np.asarray(state.r, dtype=float))
    n_hat = _unit(np.asarray(node, dtype=float))
    cosang = min(1.0, max(-1.0, float(np.dot(r_hat, n_hat))))
    ang = math.acos(cosang)
    if float(np.dot(np.cross(r_hat, n_hat), orbit_normal)) < 0.0:
        ang = TWO_PI - ang
    return ang / TWO_PI * GEO.t_geo


def phasing_impulses(v_m: np.ndarray, theta: float, dv_mag: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Split a phasing delta-v into its entry and exit burns (m/s).

    ``theta`` here is the target's signed along-track lead over the chaser
    (positive: the target leads, so the chaser enters a faster, lower
    ellipse with a retrograde first burn); ``rendezvous_mixed`` passes the
    negated phase gap. ``v_m`` sets the tangential direction at the
    maneuver point; the burns cancel: dv3 = -dv2.
    """
    sgn = (theta > 0.0) - (theta < 0.0)
    if sgn == 0 or dv_mag == 0.0:
        z = np.zeros(3)
        return z, z.copy()
    direction = _unit(np.asarray(v_m, dtype=float))
    dv2 = -0.5 * dv_mag * sgn * direction
    return dv2, -dv2


def rendezvous_mixed(servicer_state: CartesianState, target: GeoOrbit,
                     k: int) -> VectorLeg:
    """Mixed plane-change/phasing rendezvous from a GEO state to a target.

    Coasts to the nearer of the two plane intersection points, combines the
    plane rotation with the phasing-entry burn into one impulse, rides the
    phasing ellipse for ``k`` revolutions, and recircularizes exactly on
    the target. Coplanar geometries skip the plane change and phase from
    the current position (zero coast).
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InvalidRevolutions(f"revolution count must be a positive integer, got {k!r}")
    r0 = np.asarray(servicer_state.r, dtype=float)
    v0 = np.asarray(servicer_state.v, dtype=float)
    h_s = _unit(np.cross(r0, v0))
    h_t = angular_momentum_dir(target)
    alpha = math.atan2(float(np.linalg.norm(np.cross(h_s, h_t))),
                       float(np.dot(h_s, h_t)))
    v_mag = float(np.linalg.norm(v0))

    if alpha < COPLANAR_TOL:
        coast = 0.0
        r_node = r0
        v_after = v0
        dv1 = np.zeros(3)
    else:
        n_hat = _unit(np.cross(h_s, h_t))
        best = None
        for node in (n_hat * GEO.r_geo, -n_hat * GEO.r_geo):
            tc = coast_time_to_node(servicer_state, node, h_s)
            if best is None or tc < best[0]:
                best = (tc, node)
        coast, node = best
        angle = coast * GEO.mean_motion
        r_node = _rotate(r0, h_s, angle)
        v_before = _rotate(v0, h_s, angle)
        v_after = v_mag * _unit(np.cross(h_t, _unit(r_node)))
        dv1 = v_after - v_before

    t1 = servicer_state.t + coast

    # Signed gap from the target's position to the maneuver point, measured
    # prograde in the target plane: this is the theta of the phasing-orbit
    # equations (its negation carries the lead-angle sign convention).
    tgt = orbit_to_state(target, t1)
    r_hat_t = _unit(np.asarray(tgt.r, dtype=float))
    r_hat_n = _unit(r_node)
    theta = math.atan2(float(np.dot(np.cross(r_hat_t, r_hat_n), h_t)),
                       float(np.dot(r_hat_t, r_hat_n)))

    t_phase, _, dv_mag = phasing_solution(theta, k)
    dv2, dv3 = phasing_impulses(v_after, -theta, dv_mag)

    impulse1 = dv1 * 1000.0 + dv2
    impulse2 = dv3
    total_dv = float(np.linalg.norm(impulse1)) + float(np.linalg.norm(impulse2))
    return VectorLeg(
        impulse1=impulse1, impulse2=impulse2, t1=t1, t2=t1 + t_phase,
        coast_time=coast, phase_time=t_phase, total_dv=total_dv,
        alpha=alpha, theta=theta)


def stumpff(z: float) -> tuple[float, float]:
    """Stumpff functions (C(z), S(z)) of the universal variable ``z``.

    Within 4 of zero, where ``1 - cos`` and ``sz - sin`` (or ``sinh sz -
    sz``) cancel, they are 12 terms of their series added by ``math.fsum``;
    a 13th term would move them by under 1e-18 of their value. Beyond it C
    is ``2 sin(sz / 2)^2 / z``, or its ``sinh`` form for negative ``z``,
    which does not cancel.
    """
    if abs(z) <= 4.0:
        powers = [(-z) ** k for k in range(12)]
        return (math.fsum(p / math.factorial(2 * k + 2)
                          for k, p in enumerate(powers)),
                math.fsum(p / math.factorial(2 * k + 3)
                          for k, p in enumerate(powers)))
    if z > 0.0:
        sz = math.sqrt(z)
        return (2.0 * math.sin(0.5 * sz) ** 2 / z,
                (sz - math.sin(sz)) / (sz * z))
    sz = math.sqrt(-z)
    return (2.0 * math.sinh(0.5 * sz) ** 2 / (-z),
            (math.sinh(sz) - sz) / (sz * (-z)))


def propagate_universal(r0: np.ndarray, v0: np.ndarray, dt: float,
                        tol: float = 1e-11, max_iter: int = 120
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Exact two-body propagation via the universal Kepler equation.

    Handles elliptic arcs over any number of revolutions; used as the
    independent check that transfers actually land where claimed.
    """
    r0 = np.asarray(r0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if dt == 0.0:
        return r0.copy(), v0.copy()
    mu = GEO.mu
    sqrt_mu = math.sqrt(mu)
    r0n = float(np.linalg.norm(r0))
    vr0 = float(np.dot(r0, v0)) / r0n
    alpha = 2.0 / r0n - float(np.dot(v0, v0)) / mu  # 1/a

    def kepler(chi):
        z = alpha * chi * chi
        c, s = stumpff(z)
        f = (r0n * vr0 / sqrt_mu * chi * chi * c
             + (1.0 - alpha * r0n) * chi ** 3 * s + r0n * chi - sqrt_mu * dt)
        fp = (r0n * vr0 / sqrt_mu * chi * (1.0 - z * s)
              + (1.0 - alpha * r0n) * chi * chi * c + r0n)
        return f, fp

    # The universal time-of-flight is monotone in chi (dF/dchi = r >= 0),
    # so Newton safeguarded by a bisection bracket always converges.
    chi = sqrt_mu * abs(alpha) * dt if alpha > 0 else sqrt_mu * dt / r0n
    lo, hi = 0.0, max(chi, 1.0)
    while kepler(hi)[0] < 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise NoConvergence("universal Kepler bracket expansion failed")
    chi = min(max(chi, lo), hi)
    converged = False
    for _ in range(max_iter):
        f, fp = kepler(chi)
        if abs(f) < 1e-9 * sqrt_mu:
            converged = True
            break
        if f > 0.0:
            hi = chi
        else:
            lo = chi
        step = f / fp if fp != 0.0 else float("inf")
        cand = chi - step
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        if abs(cand - chi) < tol * max(1.0, abs(chi)):
            chi = cand
            converged = True
            break
        chi = cand
    if not converged:
        raise NoConvergence("universal Kepler iteration did not converge")

    z = alpha * chi * chi
    c, s = stumpff(z)
    fl = 1.0 - chi * chi * c / r0n
    g = dt - chi ** 3 * s / sqrt_mu
    r = fl * r0 + g * v0
    rn = float(np.linalg.norm(r))
    fdot = sqrt_mu / (rn * r0n) * chi * (z * s - 1.0)
    gdot = 1.0 - chi * chi * c / rn
    v = fdot * r0 + gdot * v0
    return r, v


def propagate_through_solution(state, leg):
    """Fly a leg's two impulses from ``state`` with the independent Kepler
    propagator: coast ``leg.coast_time``, fire ``leg.impulse1``, ride
    ``leg.phase_time`` and fire ``leg.impulse2``. Returns (r, v)."""
    angle = leg.coast_time * GEO.mean_motion
    h = np.cross(state.r, state.v)
    h /= np.linalg.norm(h)

    def rot(vec):
        c, s = math.cos(angle), math.sin(angle)
        return vec * c + np.cross(h, vec) * s + h * np.dot(h, vec) * (1 - c)

    r1, v1 = rot(np.asarray(state.r)), rot(np.asarray(state.v))
    v1 = v1 + np.asarray(leg.impulse1) / 1000.0
    r2, v2 = propagate_universal(r1, v1, leg.phase_time)
    return r2, v2 + np.asarray(leg.impulse2) / 1000.0


# Where a reported leg may land off its target (km, km/s), flown through
# the independent propagator: acceptance criterion 6's bounds for mixed
# legs, and for Lambert arcs about 20 times the worst miss of these solves
# and the case study's, 5.3e-9 km and 3.8e-13 km/s. Unflyable Lambert legs
# report infinite delta-v and are not flown; their count is pinned per
# solver.
CLOSURE_BOUNDS = {"mixed": (1e-6, 1e-9), "lambert": (1e-7, 1e-11)}
UNFLYABLE_LEGS = {"lns-aga": 0, "ga": 0, "lambert-ga": 0}


def assert_legs_close(scenario, result, bounds) -> tuple[int, int]:
    """Fly each reported leg of ``result`` through the independent
    propagator and check that it lands on its target within ``bounds``;
    return (legs flown, unflyable legs skipped)."""
    max_r, max_v = bounds
    flown = skipped = 0
    at = {s.id: s.orbit for s in scenario.servicers}
    for leg in result.best_evaluation.leg_details:
        target = scenario.target(leg.target_id).orbit
        start = orbit_to_state(at[leg.servicer_id], leg.depart_time)
        at[leg.servicer_id] = target
        if leg.total_dv == math.inf:
            skipped += 1
            continue
        r, v = propagate_through_solution(start, leg)
        arrive = orbit_to_state(target, leg.arrival_time)
        assert np.linalg.norm(r - arrive.r) < max_r, leg
        assert np.linalg.norm(v - arrive.v) < max_v, leg
        flown += 1
    return flown, skipped
