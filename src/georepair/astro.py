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

Everything here works on plain floats. ``orbit_to_state`` gives position
and velocity as 3-tuples, ``rendezvous_mixed`` returns its impulses as
3-tuples, and ``lambert_solve`` takes any 3-sequences and returns 3-tuples.
Every norm, dot and cross product is a left-to-right sum of products, under
``math.sqrt`` for a norm, so each float depends only on IEEE double
arithmetic and libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

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

    ``r`` and ``v`` are 3-tuples of floats.
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
    dihedral angle between the departure and target planes. Both impulses
    are 3-tuples of floats.
    """

    impulse1: tuple[float, float, float]
    impulse2: tuple[float, float, float]
    t1: float
    t2: float
    coast_time: float
    phase_time: float
    total_time: float
    total_dv: float
    revolutions: int
    alpha: float
    theta: float


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
    _check_revolutions(k)
    span = TWO_PI * k + theta
    t_phase = (span / TWO_PI) * consts.t_geo
    a_phase = consts.r_geo * (span / (TWO_PI * k)) ** (2.0 / 3.0)
    # Rounded as CostModel._route_cost rounds it: twice one burn in m/s.
    dv = 2.0 * ((1000.0 * math.sqrt(consts.mu)) * abs(
        math.sqrt(2.0 / consts.r_geo - 1.0 / a_phase)
        - math.sqrt(1.0 / consts.r_geo)))
    return t_phase, a_phase, dv


def _check_revolutions(k) -> None:
    """Raise InvalidRevolutions unless ``k`` is an ``Integral`` other than a
    bool and at least 1."""
    if not isinstance(k, Integral) or isinstance(k, bool) or k < 1:
        raise InvalidRevolutions(
            f"revolution count must be a positive integer, got {k!r}")


# 3-vector algebra on tuples. Each reduction is a left-to-right sum, so its
# float depends on IEEE double arithmetic alone.

def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _scale(a, s: float):
    return (a[0] * s, a[1] * s, a[2] * s)


def _unit(a):
    n = _norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def _rotate(v, axis, angle: float):
    """Rodrigues rotation of ``v`` by ``angle`` about unit vector ``axis``."""
    c, s = math.cos(angle), math.sin(angle)
    w = _cross(axis, v)
    k = _dot(axis, v) * (1.0 - c)
    return (v[0] * c + w[0] * s + axis[0] * k,
            v[1] * c + w[1] * s + axis[1] * k,
            v[2] * c + w[2] * s + axis[2] * k)


def _coast_to_node(r_hat, node, normal, t_geo: float) -> float:
    """Prograde coast (s) from the unit position ``r_hat`` to the direction
    of ``node``, both in the orbit plane of unit normal ``normal``; in
    [0, t_geo)."""
    n_hat = _unit(node)
    ang = math.acos(min(1.0, max(-1.0, _dot(r_hat, n_hat))))
    if _dot(_cross(r_hat, n_hat), normal) < 0.0:
        ang = TWO_PI - ang
    return ang / TWO_PI * t_geo


def rendezvous_mixed(servicer_state: CartesianState, target: GeoOrbit, k: int,
                     consts: PhysicalConstants = GEO) -> RendezvousSolution:
    """Mixed plane-change/phasing rendezvous from a GEO state to a target.

    Coasts to the nearer of the two plane intersection points, combines the
    plane rotation with the phasing-entry burn into one impulse, rides the
    phasing ellipse for ``k`` revolutions, and recircularizes exactly on
    the target. Coplanar geometries skip the plane change and phase from
    the current position (zero coast).
    """
    _check_revolutions(k)
    r0, v0 = servicer_state.r, servicer_state.v
    h_s = _unit(_cross(r0, v0))
    co, so = math.cos(target.raan), math.sin(target.raan)
    ci, si = math.cos(target.inclination), math.sin(target.inclination)
    h_t = (so * si, -co * si, ci)
    node_dir = _cross(h_s, h_t)
    alpha = math.atan2(_norm(node_dir), _dot(h_s, h_t))
    v_mag = _norm(v0)

    if alpha < COPLANAR_TOL:
        coast = 0.0
        r_node = r0
        v_after = v0
        dv1 = (0.0, 0.0, 0.0)
    else:
        n_hat = _unit(node_dir)
        r_hat = _unit(r0)
        # The nearer of the two nodes, the one along +n_hat on a tie.
        coast = min(_coast_to_node(r_hat, _scale(n, consts.r_geo), h_s,
                                   consts.t_geo)
                    for n in (n_hat, (-n_hat[0], -n_hat[1], -n_hat[2])))
        angle = coast * consts.mean_motion
        r_node = _rotate(r0, h_s, angle)
        v_before = _rotate(v0, h_s, angle)
        v_after = _scale(_unit(_cross(h_t, _unit(r_node))), v_mag)
        dv1 = (v_after[0] - v_before[0], v_after[1] - v_before[1],
               v_after[2] - v_before[2])

    t1 = servicer_state.t + coast

    # Signed gap from the target's position to the maneuver point, measured
    # prograde in the target plane: this is the theta of the phasing-orbit
    # equations.
    r_hat_t = _unit(orbit_to_state(target, t1, consts).r)
    r_hat_n = _unit(r_node)
    theta = math.atan2(_dot(_cross(r_hat_t, r_hat_n), h_t),
                       _dot(r_hat_t, r_hat_n))

    t_phase, _, dv_mag = phasing_solution(theta, k, consts)
    # The phasing burns are tangential and cancel. A target ahead of the
    # maneuver point (theta < 0) is caught on a faster, lower ellipse, so
    # the entry burn is retrograde.
    sgn = (theta < 0.0) - (theta > 0.0)
    if sgn == 0 or dv_mag == 0.0:
        dv2 = dv3 = (0.0, 0.0, 0.0)
    else:
        dv2 = _scale(_unit(v_after), -0.5 * dv_mag * sgn)
        dv3 = (-dv2[0], -dv2[1], -dv2[2])

    impulse1 = (dv1[0] * 1000.0 + dv2[0], dv1[1] * 1000.0 + dv2[1],
                dv1[2] * 1000.0 + dv2[2])
    return RendezvousSolution(
        impulse1=impulse1, impulse2=dv3,
        t1=t1, t2=t1 + t_phase,
        coast_time=coast, phase_time=t_phase, total_time=coast + t_phase,
        total_dv=_norm(impulse1) + _norm(dv3), revolutions=int(k),
        alpha=alpha, theta=theta)


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
