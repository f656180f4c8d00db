"""Two-body orbital mechanics for circular-GEO servicing legs.

All geometry lives in an Earth-centered inertial frame. Internal units are
km, km/s, seconds and radians; impulse vectors and delta-v magnitudes are
reported in m/s to match mission budgets. Every orbit handled here is
circular at GEO radius and is described by its inclination, RAAN and the
argument of latitude at the scenario epoch.

The core transfer model is a mixed plane-change/phasing rendezvous: coast
on the departure orbit to the nearest intersection of the two orbit
planes, rotate the velocity into the target plane while simultaneously
entering a phasing ellipse tangent at that point, then recircularize k
revolutions later exactly when the target sweeps through the maneuver
point. A zero-revolution Lambert solver, a safeguarded Newton iteration on
the universal variable, is included as the baseline transfer model for
comparisons.

States and the Lambert solver work on plain floats: ``orbit_to_state``
gives position and velocity as 3-tuples, and ``lambert_solve`` takes any
3-sequences and returns 3-tuples, reducing its norms and dot product as
left-to-right sums under ``math.sqrt``. Their floats therefore depend only
on IEEE double arithmetic and libm, not on the BLAS kernel numpy picks at
run time. The mixed rendezvous is vector code: ``rendezvous_mixed`` and
``coast_time_to_node`` turn a state into arrays on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Plane separations below this dihedral angle (rad) are treated as coplanar.
COPLANAR_TOL = 1e-10


class AstroError(Exception):
    """Base class for orbital-geometry errors."""


class InvalidRevolutions(AstroError):
    """Phasing revolution count must be a positive integer."""


class NoConvergence(AstroError):
    """An iterative solver exhausted its iteration budget."""


class CollinearGeometry(AstroError):
    """Lambert geometry is singular (transfer angle near 0 or 180 deg)."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Gravitational parameter and the GEO radius/period it implies.

    ``r_geo`` is derived from ``t_geo`` so that the period invariant
    ``t_geo == 2*pi*sqrt(r_geo**3 / mu)`` holds exactly.
    """

    mu: float = 398600.4418      # km^3/s^2
    t_geo: float = 86164.0905    # s (sidereal day)
    r_geo: float = 0.0           # km, derived when left at 0

    def __post_init__(self):
        if self.mu <= 0.0 or self.t_geo <= 0.0:
            raise ValueError("physical constants must be positive")
        if self.r_geo == 0.0:
            r = (self.mu * (self.t_geo / TWO_PI) ** 2) ** (1.0 / 3.0)
            object.__setattr__(self, "r_geo", r)
        if self.r_geo <= 0.0:
            raise ValueError("r_geo must be positive")
        period = TWO_PI * math.sqrt(self.r_geo ** 3 / self.mu)
        if abs(period - self.t_geo) > 1e-9 * self.t_geo:
            raise ValueError("t_geo inconsistent with mu and r_geo")

    @property
    def v_geo(self) -> float:
        """Circular orbital speed at GEO radius (km/s)."""
        return math.sqrt(self.mu / self.r_geo)

    @property
    def mean_motion(self) -> float:
        """GEO mean motion (rad/s)."""
        return TWO_PI / self.t_geo


GEO = PhysicalConstants()


def fold_angle(angle: float) -> float:
    """Fold an angle into (-pi, pi]."""
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class GeoOrbit:
    """Circular GEO orbit: inclination, RAAN, argument of latitude at epoch.

    Angles are radians. The radius is always the GEO radius of the active
    constants (eccentricity identically zero), so neither is stored.
    """

    inclination: float
    raan: float
    arg_lat0: float

    def __post_init__(self):
        if not (0.0 <= self.inclination < math.pi):
            raise ValueError(f"inclination {self.inclination!r} outside [0, pi)")
        object.__setattr__(self, "raan", self.raan % TWO_PI)
        object.__setattr__(self, "arg_lat0", self.arg_lat0 % TWO_PI)

    @classmethod
    def from_degrees(cls, inclination_deg: float, raan_deg: float,
                     arg_lat0_deg: float) -> "GeoOrbit":
        return cls(math.radians(inclination_deg), math.radians(raan_deg),
                   math.radians(arg_lat0_deg))


@dataclass(frozen=True)
class CartesianState:
    """Inertial position (km), velocity (km/s) and time since epoch (s).

    ``r`` and ``v`` are 3-tuples of floats; vector code wraps them in
    ``np.asarray`` where it needs arrays.
    """

    r: tuple[float, float, float]
    v: tuple[float, float, float]
    t: float


@dataclass(frozen=True)
class RendezvousSolution:
    """One mixed plane-change/phasing transfer.

    ``impulse1`` (m/s) combines the plane-change and phasing-entry burns at
    time ``t1``; ``impulse2`` (m/s) recircularizes at ``t2``. ``theta`` is
    the signed phase gap fed to the phasing-orbit equations, measured from
    the target to the maneuver point (positive: target trails and must
    catch up while the servicer rides a slower ellipse). ``alpha`` is the
    dihedral angle between the departure and target planes.
    """

    impulse1: np.ndarray
    impulse2: np.ndarray
    t1: float
    t2: float
    coast_time: float
    phase_time: float
    total_time: float
    total_dv: float
    revolutions: int
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


def orbit_to_state(orbit: GeoOrbit, t: float,
                   consts: PhysicalConstants = GEO) -> CartesianState:
    """Propagate a circular GEO orbit to time ``t`` since epoch.

    The argument of latitude advances at the GEO mean motion; position and
    velocity follow from the RAAN/inclination rotation of the in-plane
    circular motion.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    # r_geo * (cu*e1 + su*e2) and v_geo * (-su*e1 + cu*e2) over the in-plane
    # basis e1 = (co, so, 0), e2 = (-so*ci, co*ci, si), one component at a
    # time with the operations of the vector form, whose floats it keeps:
    # the 0.0 terms decide the sign of a zero z component.
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    e2x, e2y = -so * ci, co * ci
    u = orbit.arg_lat0 + consts.mean_motion * t
    cu, su = math.cos(u), math.sin(u)
    r_geo, v_geo, nsu = consts.r_geo, consts.v_geo, -su
    r = (r_geo * (cu * co + su * e2x), r_geo * (cu * so + su * e2y),
         r_geo * (cu * 0.0 + su * si))
    v = (v_geo * (nsu * co + cu * e2x), v_geo * (nsu * so + cu * e2y),
         v_geo * (nsu * 0.0 + cu * si))
    return CartesianState(r, v, t)


def angular_momentum_dir(orbit: GeoOrbit) -> np.ndarray:
    """Unit vector normal to the orbit plane, Rz(raan) @ Rx(inc) @ (0,0,1)."""
    co, so = math.cos(orbit.raan), math.sin(orbit.raan)
    ci, si = math.cos(orbit.inclination), math.sin(orbit.inclination)
    return np.array([so * si, -co * si, ci])


def coast_time_to_node(state: CartesianState, node: np.ndarray,
                       orbit_normal: np.ndarray,
                       consts: PhysicalConstants = GEO) -> float:
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
    return ang / TWO_PI * consts.t_geo


def phasing_solution(theta: float, k: int,
                     consts: PhysicalConstants = GEO
                     ) -> tuple[float, float, float]:
    """Phasing ellipse closing a signed phase gap ``theta`` in ``k`` turns.

    ``theta`` is the angle the target must sweep beyond ``k`` full
    revolutions to reach the maneuver point. Returns (phasing duration s,
    phasing semimajor axis km, total two-burn delta-v m/s):

        t_phase = ((2 pi k + theta) / 2 pi) * t_geo
        a_phase = r_geo * ((2 pi k + theta) / (2 pi k))**(2/3)
        dv      = 2 sqrt(mu) | sqrt(2/r_geo - 1/a_phase) - sqrt(1/r_geo) |

    Negative theta yields a catch-up ellipse below GEO; delta-v strictly
    decreases as k grows for fixed theta != 0.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InvalidRevolutions(f"revolution count must be a positive integer, got {k!r}")
    span = TWO_PI * k + theta
    t_phase = (span / TWO_PI) * consts.t_geo
    a_phase = consts.r_geo * (span / (TWO_PI * k)) ** (2.0 / 3.0)
    dv = 2.0 * math.sqrt(consts.mu) * abs(
        math.sqrt(2.0 / consts.r_geo - 1.0 / a_phase)
        - math.sqrt(1.0 / consts.r_geo))
    return t_phase, a_phase, dv * 1000.0


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


def rendezvous_mixed(servicer_state: CartesianState, target: GeoOrbit, k: int,
                     consts: PhysicalConstants = GEO) -> RendezvousSolution:
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
        for node in (n_hat * consts.r_geo, -n_hat * consts.r_geo):
            tc = coast_time_to_node(servicer_state, node, h_s, consts)
            if best is None or tc < best[0]:
                best = (tc, node)
        coast, node = best
        angle = coast * consts.mean_motion
        r_node = _rotate(r0, h_s, angle)
        v_before = _rotate(v0, h_s, angle)
        v_after = v_mag * _unit(np.cross(h_t, _unit(r_node)))
        dv1 = v_after - v_before

    t1 = servicer_state.t + coast

    # Signed gap from the target's position to the maneuver point, measured
    # prograde in the target plane: this is the theta of the phasing-orbit
    # equations (its negation carries the lead-angle sign convention).
    tgt = orbit_to_state(target, t1, consts)
    r_hat_t = _unit(np.asarray(tgt.r, dtype=float))
    r_hat_n = _unit(r_node)
    theta = math.atan2(float(np.dot(np.cross(r_hat_t, r_hat_n), h_t)),
                       float(np.dot(r_hat_t, r_hat_n)))

    t_phase, _, dv_mag = phasing_solution(theta, k, consts)
    dv2, dv3 = phasing_impulses(v_after, -theta, dv_mag)

    impulse1 = dv1 * 1000.0 + dv2
    impulse2 = dv3
    total_dv = float(np.linalg.norm(impulse1)) + float(np.linalg.norm(impulse2))
    return RendezvousSolution(
        impulse1=impulse1, impulse2=impulse2,
        t1=t1, t2=t1 + t_phase,
        coast_time=coast, phase_time=t_phase, total_time=coast + t_phase,
        total_dv=total_dv, revolutions=int(k), alpha=alpha, theta=theta)


def _stumpff(z: float) -> tuple[float, float]:
    """Stumpff functions (C(z), S(z)) of the universal variable ``z``.

    Both share one square root of ``|z|``; within 1e-8 of zero they switch
    to their series, which avoids cancellation in ``1 - cos`` and
    ``sz - sin``.
    """
    if z > 1e-8:
        sz = math.sqrt(z)
        return (1.0 - math.cos(sz)) / z, (sz - math.sin(sz)) / (sz * z)
    if z < -1e-8:
        sz = math.sqrt(-z)
        return ((math.cosh(sz) - 1.0) / (-z),
                (math.sinh(sz) - sz) / (sz * (-z)))
    return (0.5 - z / 24.0 + z * z / 720.0,
            1.0 / 6.0 - z / 120.0 + z * z / 5040.0)


def propagate_universal(r0: np.ndarray, v0: np.ndarray, dt: float,
                        consts: PhysicalConstants = GEO,
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
    mu = consts.mu
    sqrt_mu = math.sqrt(mu)
    r0n = float(np.linalg.norm(r0))
    vr0 = float(np.dot(r0, v0)) / r0n
    alpha = 2.0 / r0n - float(np.dot(v0, v0)) / mu  # 1/a

    def kepler(chi):
        z = alpha * chi * chi
        c, s = _stumpff(z)
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
    c, s = _stumpff(z)
    fl = 1.0 - chi * chi * c / r0n
    g = dt - chi ** 3 * s / sqrt_mu
    r = fl * r0 + g * v0
    rn = float(np.linalg.norm(r))
    fdot = sqrt_mu / (rn * r0n) * chi * (z * s - 1.0)
    gdot = 1.0 - chi * chi * c / rn
    v = fdot * r0 + gdot * v0
    return r, v


def lambert_solve(r1, r2, tof: float, prograde: bool = True,
                  consts: PhysicalConstants = GEO, max_iter: int = 80
                  ) -> tuple[tuple[float, float, float],
                             tuple[float, float, float]]:
    """Zero-revolution Lambert transfer via universal variables.

    Returns the departure and arrival velocities (km/s), as 3-tuples, of the
    two-body arc from positions ``r1`` to ``r2`` (any 3-sequences, km) in
    ``tof`` seconds. ``|r1|``, ``|r2|`` and ``r1 . r2`` are left-to-right
    sums of products under ``math.sqrt``. The sweep direction is
    prograde (counterclockwise about +z) unless ``prograde`` is False.
    The time-of-flight root in the universal variable z is found by Newton's
    method (Curtis, Orbital Mechanics for Engineering Students, Alg. 5.2),
    started at z = 0 and kept inside a bracket that every evaluation
    shrinks. Raises CollinearGeometry near 0/180 deg transfer angles and
    NoConvergence if the root is not bracketed, not reached within
    ``max_iter`` steps, or lies where the geometry is invalid.
    """
    if tof <= 0.0:
        raise ValueError("time of flight must be positive")
    x1, y1, z1 = r1
    x2, y2, z2 = r2
    mu = consts.mu
    r1n = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    r2n = math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
    # Only the sign of the z component of r1 x r2 is read.
    cross_z = x1 * y2 - y1 * x2
    cosd = min(1.0, max(-1.0, (x1 * x2 + y1 * y2 + z1 * z2) / (r1n * r2n)))
    dnu = math.acos(cosd)
    if (cross_z >= 0.0) != prograde:
        dnu = TWO_PI - dnu

    sind = math.sin(dnu)
    if abs(sind) < 1e-8 or dnu < 1e-8 or TWO_PI - dnu < 1e-8:
        raise CollinearGeometry(f"singular transfer angle {dnu!r} rad")
    a_coef = sind * math.sqrt(r1n * r2n / (1.0 - cosd))

    sqrt_mu = math.sqrt(mu)
    target = sqrt_mu * tof

    def stumpff_y(z: float) -> tuple[float, float, float]:
        c, s = _stumpff(z)
        return c, s, r1n + r2n + a_coef * (z * s - 1.0) / math.sqrt(c)

    def tof_fn(z: float) -> float:
        c, s, y = stumpff_y(z)
        if y < 0.0:
            return -1.0  # below the valid branch; treat as too-short flight
        return (y / c) ** 1.5 * s + a_coef * math.sqrt(y) - target

    # Bracket the root in z (zero-revolution branch: z < (2 pi)^2). The
    # flight time is monotone increasing in z, so expand the hyperbolic
    # side until it undershoots. Newton steps from z = 0 then narrow the
    # bracket; a step that leaves it, or one from an iterate where y <= 0
    # (counted as too short a flight, as in tof_fn), becomes the midpoint.
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
    for _ in range(max_iter):
        c, s, y = stumpff_y(z)
        z_new = None
        if y <= 0.0:
            z_lo = z
        else:
            sqrt_y = math.sqrt(y)
            x3 = (y / c) ** 1.5
            f = x3 * s + a_coef * sqrt_y - target
            if f > 0.0:
                z_hi = z
            else:
                z_lo = z
            # dF/dz; its general form cancels to 0/0 at z = 0, so within
            # the Stumpff series band the z = 0 limit is used.
            if abs(z) > 1e-8:
                dfdz = (x3 * ((c - 1.5 * s / c) / (2.0 * z)
                              + 0.75 * s * s / c)
                        + a_coef / 8.0 * (3.0 * s / c * sqrt_y
                                          + a_coef * math.sqrt(c / y)))
            else:
                dfdz = (math.sqrt(2.0) / 40.0 * y * sqrt_y
                        + a_coef / 8.0 * (sqrt_y
                                          + a_coef * math.sqrt(0.5 / y)))
            if dfdz > 0.0:
                z_new = z - f / dfdz
        if z_new is None or not z_lo <= z_new <= z_hi:
            z_new = 0.5 * (z_lo + z_hi)
        if abs(z_new - z) < 1e-13 * max(1.0, abs(z_new)):
            z = z_new
            break
        z = z_new
    else:
        raise NoConvergence("Lambert iteration did not converge")
    y = stumpff_y(z)[2]
    if y <= 0.0:
        raise NoConvergence("Lambert iteration converged to invalid geometry")

    fl = 1.0 - y / r1n
    g = a_coef * math.sqrt(y / mu)
    gdot = 1.0 - y / r2n
    v1 = ((x2 - fl * x1) / g, (y2 - fl * y1) / g, (z2 - fl * z1) / g)
    v2 = ((gdot * x2 - x1) / g, (gdot * y2 - y1) / g, (gdot * z2 - z1) / g)
    return v1, v2
