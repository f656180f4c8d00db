"""Two-body orbital mechanics for circular-GEO servicing legs.

All geometry lives in an Earth-centered inertial frame. Internal units are
km, km/s, seconds and radians; impulse vectors and delta-v magnitudes are
reported in m/s to match mission budgets. Every orbit handled here is
circular at GEO radius and is described by its inclination, RAAN and the
argument of latitude at the scenario epoch.

The core transfer model is a mixed plane-change/phasing rendezvous: coast
on the departure orbit to the nearer intersection of the two orbit
planes, rotate the velocity into the target plane while simultaneously
entering a phasing ellipse tangent at that point, then recircularize k
revolutions later exactly when the target sweeps through the maneuver
point. Its geometry, the coast and the phase gap of each leg, has one
copy, the route kernel of ``planning.CostModel``; ``phasing_solution``
gives the ellipse of a gap and ``rendezvous_mixed`` turns a priced leg
into impulses and times. A zero-revolution Lambert solver, a safeguarded
Newton iteration on the universal variable, is included as the baseline
transfer model for comparisons.

Everything here works on plain floats. ``orbit_to_state`` gives position
and velocity as 3-tuples, ``rendezvous_mixed`` returns its impulses as
3-tuples, and ``lambert_solve`` takes any 3-sequences and returns 3-tuples.
Every norm and dot product is a left-to-right sum of products, under
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


class InvalidRevolutions(AstroError, ValueError):
    """Phasing revolution count must be a positive integer."""


class NoConvergence(AstroError):
    """An iterative solver exhausted its iteration budget."""


class CollinearGeometry(AstroError):
    """Lambert geometry is singular (transfer angle near 0 or 180 deg)."""


def _is_finite(value) -> bool:
    """``math.isfinite``, false for a non-number or an int beyond floats."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _check_finite(name: str, value, sign: str = "") -> None:
    """Refuse with a one-line ``ValueError`` a ``value`` that is not finite
    or, when ``sign`` is 'positive' or 'non-negative', not of that sign."""
    if (not _is_finite(value) or (sign == "positive" and value <= 0.0)
            or (sign == "non-negative" and value < 0.0)):
        raise ValueError(f"{name} must be finite"
                         + (f" and {sign}" if sign else ""))


class GEO:
    """Earth's geosynchronous orbit: the gravitational parameter, the
    sidereal day, and the radius, speed and mean motion they imply. A
    namespace of fixed constants, read as ``GEO.t_geo``; it takes no
    arguments, so no other values can be built.

    ``r_geo`` is derived from ``t_geo`` so that the period invariant
    ``t_geo == 2*pi*sqrt(r_geo**3 / mu)`` holds to rounding.
    """

    mu = 398600.4418                                      # km^3/s^2
    t_geo = 86164.0905                                    # s (sidereal day)
    r_geo = (mu * (t_geo / TWO_PI) ** 2) ** (1.0 / 3.0)   # km
    v_geo = math.sqrt(mu / r_geo)                         # km/s
    mean_motion = TWO_PI / t_geo                          # rad/s


def fold_angle(angle: float) -> float:
    """Fold an angle into (-pi, pi]."""
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class GeoOrbit:
    """Circular GEO orbit: inclination, RAAN, argument of latitude at epoch.

    Angles are radians. The radius is always ``GEO.r_geo`` (eccentricity
    identically zero), so neither is stored.
    """

    inclination: float
    raan: float
    arg_lat0: float

    def __post_init__(self):
        if not (_is_finite(self.inclination)
                and 0.0 <= self.inclination < math.pi):
            raise ValueError(f"inclination {self.inclination!r} outside [0, pi)")
        for name in ("raan", "arg_lat0"):
            _check_finite(name, getattr(self, name))
            object.__setattr__(self, name, getattr(self, name) % TWO_PI)

    @classmethod
    def from_degrees(cls, inclination_deg: float, raan_deg: float,
                     arg_lat0_deg: float) -> "GeoOrbit":
        degrees = (inclination_deg, raan_deg, arg_lat0_deg)
        for name, value in zip(("inclination", "raan", "arg_lat0"), degrees):
            _check_finite(name, value)
        return cls(*map(math.radians, degrees))


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
    """One reported transfer leg.

    ``impulse1`` (m/s) combines the plane-change and phasing-entry burns at
    time ``t1``; ``impulse2`` (m/s) recircularizes at ``t2``; ``total_dv``
    (m/s) is the price the search gave the leg. ``theta`` is the signed
    phase gap fed to the phasing-orbit equations, measured from the target
    to the maneuver point (positive: target trails and must catch up while
    the servicer rides a slower ellipse). ``alpha`` is the dihedral angle
    between the departure and target planes. Both impulses are 3-tuples of
    floats.
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


def orbit_to_state(orbit: GeoOrbit, t: float) -> CartesianState:
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
    u = orbit.arg_lat0 + GEO.mean_motion * t
    cu, su = math.cos(u), math.sin(u)
    r_geo, v_geo, nsu = GEO.r_geo, GEO.v_geo, -su
    r = (r_geo * (cu * co + su * e2x), r_geo * (cu * so + su * e2y),
         r_geo * (cu * 0.0 + su * si))
    v = (v_geo * (nsu * co + cu * e2x), v_geo * (nsu * so + cu * e2y),
         v_geo * (nsu * 0.0 + cu * si))
    return CartesianState(r, v, t)


def phasing_solution(theta: float, k: int) -> tuple[float, float, float]:
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
    _check_positive_int("revolution count", k, InvalidRevolutions)
    span = TWO_PI * k + theta
    t_phase = (span / TWO_PI) * GEO.t_geo
    a_phase = GEO.r_geo * (span / (TWO_PI * k)) ** (2.0 / 3.0)
    # Rounded as CostModel._route_cost rounds it: twice one burn in m/s.
    dv = 2.0 * ((1000.0 * math.sqrt(GEO.mu)) * abs(
        math.sqrt(2.0 / GEO.r_geo - 1.0 / a_phase)
        - math.sqrt(1.0 / GEO.r_geo)))
    return t_phase, a_phase, dv


def _check_positive_int(name: str, k, exc_class=ValueError) -> None:
    """Raise ``exc_class`` unless ``k`` is an ``Integral`` other than a bool
    and at least 1: the rule of revolution counts and of servicer and
    target ids."""
    if not isinstance(k, Integral) or isinstance(k, bool) or k < 1:
        raise exc_class(f"{name} must be a positive integer, got {k!r}")


def rendezvous_mixed(departure: GeoOrbit, target: GeoOrbit, t: float,
                     coast: float, theta: float, alpha: float, k: int,
                     total_dv: float) -> RendezvousSolution:
    """Impulses and times of one mixed plane-change/phasing leg.

    The leg leaves ``departure`` at time ``t``, coasts ``coast`` s to a node
    of the two planes, which are ``alpha`` apart, and there turns into the
    target plane while entering a phasing ellipse that closes the signed
    phase gap ``theta`` in ``k`` revolutions; it recircularizes on the
    target at ``t2``. The geometry and the price ``total_dv`` (m/s) are
    ``planning.CostModel``'s, and the times add up in its order. The plane
    change takes the velocity of ``departure`` at ``t1`` to that of the
    target at ``t2``, when the target passes the node, and the two phasing
    burns lie along the latter. Planes less than ``COPLANAR_TOL`` apart are
    one plane, as the kernel prices them: no plane change.
    """
    t_phase, _, dv_mag = phasing_solution(theta, k)
    t1 = t + coast
    t2 = t1 + t_phase
    bx, by, bz = orbit_to_state(departure, t1).v
    if alpha < COPLANAR_TOL:
        ax, ay, az = bx, by, bz
    else:
        ax, ay, az = orbit_to_state(target, t2).v
    # The phasing burns are tangential and cancel. A target ahead of the
    # maneuver point (theta < 0) is caught on a faster, lower ellipse, so
    # the entry burn is retrograde.
    s = 0.5 * dv_mag / GEO.v_geo * ((theta > 0.0) - (theta < 0.0))
    px, py, pz = ax * s, ay * s, az * s
    return RendezvousSolution(
        impulse1=((ax - bx) * 1000.0 + px, (ay - by) * 1000.0 + py,
                  (az - bz) * 1000.0 + pz),
        impulse2=(-px, -py, -pz),
        t1=t1, t2=t2,
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


def lambert_solve(r1, r2, tof: float, prograde: bool = True,
                  max_iter: int = 80
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
    mu = GEO.mu
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
    sqrt = math.sqrt
    # y(z) = r1n + r2n + a_coef * (z * S - 1) / sqrt(C), with the Stumpff
    # functions C and S of z; the flight time F(z) = (y / C)**1.5 * S
    # + a_coef * sqrt(y) - target counts as too short (negative) where
    # y < 0, below the valid branch. Each evaluation is written out where
    # it is needed.
    r12 = r1n + r2n

    # Bracket the root in z (zero-revolution branch: z < (2 pi)^2). The
    # flight time is monotone increasing in z, so expand the hyperbolic
    # side until it undershoots. Newton steps from z = 0 then narrow the
    # bracket; a step that leaves it, or one from an iterate where y <= 0
    # (counted as too short a flight), becomes the midpoint.
    z_hi = TWO_PI ** 2 * 0.999
    z_lo = -4.0 * TWO_PI ** 2
    for _ in range(40):
        c, s = _stumpff(z_lo)
        y = r12 + a_coef * (z_lo * s - 1.0) / sqrt(c)
        if y < 0.0 or (y / c) ** 1.5 * s + a_coef * sqrt(y) - target < 0.0:
            break
        z_lo *= 2.0
    else:
        raise NoConvergence("Lambert time of flight not bracketed")
    c, s = _stumpff(z_hi)
    y = r12 + a_coef * (z_hi * s - 1.0) / sqrt(c)
    if y < 0.0 or (y / c) ** 1.5 * s + a_coef * sqrt(y) - target < 0.0:
        raise NoConvergence("Lambert time of flight not bracketed")
    z = 0.0
    for _ in range(max_iter):
        c, s = _stumpff(z)
        y = r12 + a_coef * (z * s - 1.0) / sqrt(c)
        z_new = None
        if y <= 0.0:
            z_lo = z
        else:
            sqrt_y = sqrt(y)
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
                                          + a_coef * sqrt(c / y)))
            else:
                dfdz = (sqrt(2.0) / 40.0 * y * sqrt_y
                        + a_coef / 8.0 * (sqrt_y
                                          + a_coef * sqrt(0.5 / y)))
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
    c, s = _stumpff(z)
    y = r12 + a_coef * (z * s - 1.0) / sqrt(c)
    if y <= 0.0:
        raise NoConvergence("Lambert iteration converged to invalid geometry")

    fl = 1.0 - y / r1n
    g = a_coef * math.sqrt(y / mu)
    gdot = 1.0 - y / r2n
    v1 = ((x2 - fl * x1) / g, (y2 - fl * y1) / g, (z2 - fl * z1) / g)
    v2 = ((gdot * x2 - x1) / g, (gdot * y2 - y1) / g, (gdot * z2 - z1) / g)
    return v1, v2
