"""Two-body orbital mechanics for circular-GEO servicing legs.

All geometry lives in an Earth-centered inertial frame. Internal units are
km, km/s, seconds and radians; impulse vectors and delta-v magnitudes are
reported in m/s to match mission budgets. Every orbit handled here is
circular at GEO radius and is described by its inclination, RAAN and the
argument of latitude at the scenario epoch, and stores the plane frame and
epoch longitude they imply, the one copy of that geometry in the package.

The core transfer model is a mixed plane-change/phasing rendezvous: coast
on the departure orbit to the nearer intersection of the two orbit
planes, rotate the velocity into the target plane while simultaneously
entering a phasing ellipse tangent at that point, then recircularize k
revolutions later exactly when the target sweeps through the maneuver
point. Its geometry, the coast and the phase gap of each leg, and its
price have one copy, the route kernel of ``planning.CostModel``;
``phasing_solution`` gives the ellipse of a gap and ``rendezvous_mixed``
turns a leg's coast and phase gap into impulses and times, which
``planning.LegDetail`` reports. A zero-revolution Lambert solver, Izzo's
Householder iteration kept inside a bracket, is included as the baseline
transfer model for comparisons.

Everything here works on plain floats. ``orbit_to_state`` gives position
and velocity as 3-tuples, ``rendezvous_mixed`` returns a plain tuple whose
impulses are 3-tuples, and ``lambert_solve`` takes any 3-sequences and
returns 3-tuples. Every norm and dot product is a left-to-right sum of
products, under ``math.sqrt`` for a norm, so each float depends only on
IEEE double arithmetic and libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    Angles are radians; ``raan`` and ``arg_lat0`` are stored normalized
    into [0, 2 pi), so rebuilding an orbit from its angles gives it again.
    The radius is always ``GEO.r_geo`` (eccentricity identically zero), so
    neither is stored. Derived once, and outside the constructor, ``repr``,
    ``==`` and ``hash``: the plane frame, 3-tuples ``e1`` to the ascending
    node, ``e2`` a quarter turn ahead of it and the normal ``h``, and the
    epoch longitude ``lam0 = raan + arg_lat0``.
    """

    inclination: float
    raan: float
    arg_lat0: float
    e1: tuple = field(init=False, repr=False, compare=False)
    e2: tuple = field(init=False, repr=False, compare=False)
    h: tuple = field(init=False, repr=False, compare=False)
    lam0: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_finite(self.inclination)
                and 0.0 <= self.inclination < math.pi):
            raise ValueError(f"inclination {self.inclination!r} outside [0, pi)")
        for name in ("raan", "arg_lat0"):
            _check_finite(name, getattr(self, name))
            # A tiny negative angle rounds up to exactly TWO_PI, which is
            # 0.0 again, so normalizing a normalized angle keeps it.
            angle = getattr(self, name) % TWO_PI
            object.__setattr__(self, name, 0.0 if angle == TWO_PI else angle)
        co, so = math.cos(self.raan), math.sin(self.raan)
        ci, si = math.cos(self.inclination), math.sin(self.inclination)
        object.__setattr__(self, "e1", (co, so, 0.0))
        object.__setattr__(self, "e2", (-so * ci, co * ci, si))
        object.__setattr__(self, "h", (so * si, -co * si, ci))
        object.__setattr__(self, "lam0", self.raan + self.arg_lat0)

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


def orbit_to_state(orbit: GeoOrbit, t: float) -> CartesianState:
    """Propagate a circular GEO orbit to time ``t`` since epoch.

    The argument of latitude advances at the GEO mean motion; position and
    velocity are the in-plane circular motion laid on the orbit's plane
    frame ``e1``, ``e2``.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    # r_geo * (cu*e1 + su*e2) and v_geo * (-su*e1 + cu*e2) over the orbit's
    # stored in-plane basis, one component at a time with the operations of
    # the vector form, whose floats it keeps: e1's zero z component, kept
    # as the terms cu * e1z and nsu * e1z, decides the sign of a zero z.
    (e1x, e1y, e1z), (e2x, e2y, e2z) = orbit.e1, orbit.e2
    u = orbit.arg_lat0 + GEO.mean_motion * t
    cu, su = math.cos(u), math.sin(u)
    r_geo, v_geo, nsu = GEO.r_geo, GEO.v_geo, -su
    r = (r_geo * (cu * e1x + su * e2x), r_geo * (cu * e1y + su * e2y),
         r_geo * (cu * e1z + su * e2z))
    v = (v_geo * (nsu * e1x + cu * e2x), v_geo * (nsu * e1y + cu * e2y),
         v_geo * (nsu * e1z + cu * e2z))
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
    # Rounded as CostModel._route_cost rounds it on a one-record route,
    # a coplanar leg with no coast or repair: twice one burn in m/s.
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
                     coast: float, theta: float, alpha: float, k: int
                     ) -> tuple[tuple[float, float, float],
                                tuple[float, float, float],
                                float, float, float]:
    """Impulses and times of one mixed plane-change/phasing leg.

    The leg leaves ``departure`` at time ``t``, coasts ``coast`` s to a node
    of the two planes, which are ``alpha`` apart, and there turns into the
    target plane while entering a phasing ellipse that closes the signed
    phase gap ``theta`` in ``k`` revolutions; it recircularizes on the
    target at ``t2``. The geometry is ``planning.CostModel``'s, and the
    times add up in its order. The plane change takes the velocity of
    ``departure`` at ``t1`` to that of the target at ``t2``, when the target
    passes the node, and the two phasing burns lie along the latter. Planes
    less than ``COPLANAR_TOL`` apart are one plane, as the kernel prices
    them: no plane change.

    Returns ``(impulse1, impulse2, t1, t2, phase time)``: the combined
    plane-change and phasing-entry burn (m/s, a 3-tuple of floats) at
    ``t1 = t + coast``, the recircularizing burn (m/s) at ``t2``, and the
    phasing time (s) that ``t2`` adds to ``t1``. The leg's price is the
    kernel's, not recomputed here.
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
    return (((ax - bx) * 1000.0 + px, (ay - by) * 1000.0 + py,
             (az - bz) * 1000.0 + pz),
            (-px, -py, -pz), t1, t2, t_phase)


def _izzo_tof(x: float, ll: float) -> tuple[float, float, float, float]:
    """Izzo's non-dimensional flight time T(x) on the zero-revolution
    branch of ``lambert_solve``, with its first three derivatives in x.

    ``ll`` is Izzo's lambda and y = sqrt(1 - ll^2 (1 - x^2)); x < 1 is an
    ellipse and x > 1 a hyperbola. Lancaster's closed form cancels near the
    parabola x = 1, so within sqrt(0.6) < x < sqrt(1.4) T comes from
    Battin's series in the hypergeometric function 2F1(3, 1; 5/2; s1),
    summed until a term no longer changes the sum.
    """
    ll2 = ll * ll
    one_x2 = 1.0 - x * x
    y = math.sqrt(1.0 - ll2 * one_x2)
    if 0.7745966692414834 < x < 1.1832159566199232:
        eta = y - ll * x
        s1 = 0.5 * (1.0 - ll - x * eta)
        # 2F1(3, 1; 5/2; s1): term n = term n - 1 * s1 (n + 2) / (n + 1.5).
        q, term, prev, k = 1.0, 1.0, 0.0, 3.0
        while q != prev:
            term *= k / (k - 0.5) * s1
            q, prev, k = q + term, q, k + 1.0
        t = 0.5 * (eta * eta * eta * (4.0 / 3.0) * q + 4.0 * ll * eta)
    elif x < 1.0:
        # Rounding can carry the cosine of psi past 1.
        psi = math.acos(min(1.0, max(-1.0, x * y + ll * one_x2)))
        t = (psi / math.sqrt(one_x2) - x + ll * y) / one_x2
    else:
        psi = math.asinh((y - x * ll) * math.sqrt(-one_x2))
        t = (psi / math.sqrt(-one_x2) - x + ll * y) / one_x2
    ll3 = ll2 * ll
    w = (1.0 - ll2) * ll3 / (y * y * y)
    dt = (3.0 * t * x - 2.0 + 2.0 * ll3 * x / y) / one_x2
    ddt = (3.0 * t + 5.0 * x * dt + 2.0 * w) / one_x2
    dddt = (7.0 * x * ddt + 8.0 * dt - 6.0 * w * ll2 * x / (y * y)) / one_x2
    return t, dt, ddt, dddt


def lambert_solve(r1, r2, tof: float, prograde: bool = True,
                  max_iter: int = 80
                  ) -> tuple[tuple[float, float, float],
                             tuple[float, float, float]]:
    """Zero-revolution Lambert transfer by Izzo's method.

    Returns the departure and arrival velocities (km/s), as 3-tuples, of the
    two-body arc from positions ``r1`` to ``r2`` (any 3-sequences, km) in
    ``tof`` seconds. The sweep direction is prograde (counterclockwise
    about +z) unless ``prograde`` is False. As in Izzo (2015, "Revisiting
    Lambert's problem", CMDA 121), Householder steps on x from his initial
    guess solve T(x) of ``_izzo_tof`` for the non-dimensional flight time;
    T falls from infinity at x = -1, so each evaluation shrinks a bracket
    on x, and a step that would leave it goes to its midpoint. v1 and v2
    are built from their radial and tangential parts. Norms, dot and cross
    products are left-to-right sums of products. Raises CollinearGeometry
    where the transfer angle's sine, |r1 x r2| / (|r1| |r2|), is below
    1e-8, and NoConvergence if no step in x is below 1e-13 (1 + |x|)
    within ``max_iter`` steps.
    """
    if tof <= 0.0:
        raise ValueError("time of flight must be positive")
    x1, y1, z1 = r1
    x2, y2, z2 = r2
    sqrt = math.sqrt
    r1n = sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    r2n = sqrt(x2 * x2 + y2 * y2 + z2 * z2)
    cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
    cn = sqrt(cx * cx + cy * cy + cz * cz)
    dot = x1 * x2 + y1 * y2 + z1 * z2
    if cn < 1e-8 * (r1n * r2n):
        dnu = math.atan2(cn, dot)
        raise CollinearGeometry(f"singular transfer angle {dnu!r} rad")
    dx, dy, dz = x2 - x1, y2 - y1, z2 - z1
    c = sqrt(dx * dx + dy * dy + dz * dz)
    s = 0.5 * (r1n + r2n + c)
    # ll^2 = 1 - c / s = |r1| |r2| (1 + cos dnu) / (2 s^2). Past a quarter
    # turn 1 + cos dnu cancels, so it is taken as sin^2 dnu / (1 - cos dnu).
    rr = r1n * r2n
    ll = sqrt(0.5 * (rr + dot if dot >= 0.0 else cn * cn / (rr - dot))) / s
    # The arc's orbit normal is (r1 x r2) * h; it sweeps the long way, past
    # half a turn (ll < 0), where that normal points against r1 x r2.
    h = 1.0 / cn
    if (cz >= 0.0) != prograde:
        ll, h = -ll, -h
    target = sqrt(2.0 * GEO.mu / s) / s * tof
    # Izzo's initial guess, from T at x = 0 and at the parabola x = 1.
    t00 = math.acos(ll) + ll * sqrt(1.0 - ll * ll)
    t1 = 2.0 / 3.0 * (1.0 - ll * ll * ll)
    if target >= t00:
        x = (t00 / target) ** (2.0 / 3.0) - 1.0
    elif target < t1:
        x = 2.5 * t1 * (t1 - target) / (target * (1.0 - ll ** 5)) + 1.0
    else:
        x = (target / t00) ** (math.log(2.0) / math.log(t1 / t00)) - 1.0
    lo, hi = -1.0, math.inf
    for _ in range(max_iter):
        if x == 1.0:  # the parabola, where T's derivatives are 0 / 0
            x = math.nextafter(1.0, 2.0)
        t, dt, ddt, dddt = _izzo_tof(x, ll)
        f = t - target
        if f > 0.0:
            lo = x
        else:
            hi = x
        # A zero f is the root; on the parabola its step would be 0 / 0.
        dt2 = dt * dt
        x_new = x - f * (dt2 - 0.5 * f * ddt) / (
            dt * (dt2 - f * ddt) + dddt * f * f / 6.0) if f else x
        if abs(x_new - x) < 1e-13 * (1.0 + abs(x)):
            x = x_new
            break
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi) if hi < math.inf else 1.5 + 2.0 * abs(lo)
        x = x_new
    else:
        raise NoConvergence("Lambert iteration did not converge")

    y = sqrt(1.0 - ll * ll * (1.0 - x * x))
    gamma = sqrt(0.5 * GEO.mu * s)
    rho = (r1n - r2n) / c
    radial = gamma * (ll * y - x)
    skew = gamma * rho * (ll * y + x)
    tangential = gamma * sqrt(max(0.0, 1.0 - rho * rho)) * (y + ll * x) * h
    # Each velocity is a * r + b * (r1 x r2) x r: its radial and tangential
    # speeds over |r|, the tangential one also times h.
    a1, b1 = (radial - skew) / (r1n * r1n), tangential / (r1n * r1n)
    a2, b2 = -(radial + skew) / (r2n * r2n), tangential / (r2n * r2n)
    return ((a1 * x1 + b1 * (cy * z1 - cz * y1),
             a1 * y1 + b1 * (cz * x1 - cx * z1),
             a1 * z1 + b1 * (cx * y1 - cy * x1)),
            (a2 * x2 + b2 * (cy * z2 - cz * y2),
             a2 * y2 + b2 * (cz * x2 - cx * z2),
             a2 * z2 + b2 * (cx * y2 - cy * x2)))
