"""Two-path interference observables for a spin carried through unequal arm
precessions.

With arm precession angles gamma_u and gamma_d acting on a common initial
state tilted by theta from +z, every observable depends only on theta and the
half difference phi_D = (gamma_d - gamma_u) / 2. The inner product between the
arms is

    z = <s_d|s_u> = cos(phi_D) + i cos(theta) sin(phi_D),

whose argument is the measurable relative phase (the arctan(cos theta tan
phi_D) law, branch-corrected) and whose modulus is the fringe visibility
sqrt(1 - sin^2 theta sin^2 phi_D). The phase splits into a dynamical part
phi_D cos(theta) and a geometric remainder equal to -1/2 times the solid angle
enclosed by the relative spin path on the Bloch sphere and its shortest
geodesic closure.

Phases live on the circle (-pi, pi]; compare them with circular_distance.

Sign convention for the solid angle: the relative rotation implied by
arg<s_d|s_u> sweeps the Bloch azimuth from 0 to -2 phi_D, so
solid_angle_geodesic_closed reports the enclosed area with that traversal's
right-handed orientation. This is a convention pinned by the identity
gamma_geo = -Omega/2, not a derived fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeodesicAmbiguous, SingularInversion, UndefinedPhase
from .quantum import Spinor, rotate_z

TWO_PI = 2.0 * math.pi

#: Below this visibility the interference phase is reported undefined.
EPS_VIS = 1e-12

#: Column order of the CSV serialization of InterferenceResult.
CSV_COLUMNS = ("theta", "phi_D", "phi", "visibility", "gamma_dyn", "gamma_geo", "omega_gc")


def wrap_angle(x: float) -> float:
    """Map an angle to the circle (-pi, pi]."""
    y = math.remainder(x, TWO_PI)
    return math.pi if y <= -math.pi else y


def circular_distance(a: float, b: float) -> float:
    """Shortest distance between two angles on the circle."""
    return abs(wrap_angle(a - b))


def _arg_principal(re: float, im: float) -> float:
    phi = math.atan2(im, re)
    return math.pi if phi <= -math.pi else phi


@dataclass(frozen=True)
class ArmPair:
    """Initial spin state and the z-precession angle acquired in each arm."""

    gamma_u: float
    gamma_d: float
    s0: Spinor

    @property
    def phi_d(self) -> float:
        return 0.5 * (self.gamma_d - self.gamma_u)

    @property
    def s_u(self) -> Spinor:
        return rotate_z(self.s0, self.gamma_u)

    @property
    def s_d(self) -> Spinor:
        return rotate_z(self.s0, self.gamma_d)

    def interference(self) -> tuple[float | None, float]:
        """(phase, visibility) from the explicit spinor inner product."""
        return pancharatnam(self.s_d, self.s_u)


def pancharatnam(s_d: Spinor, s_u: Spinor) -> tuple[float | None, float]:
    """Relative phase and visibility of two normalized beams.

    z = <s_d|s_u>; the phase is arg z on (-pi, pi] and the visibility |z|.
    The phase is None (undefined) when the visibility falls below EPS_VIS.
    """
    z = s_d.up.conjugate() * s_u.up + s_d.down.conjugate() * s_u.down
    nu = abs(z)
    if nu < EPS_VIS:
        return None, nu
    return _arg_principal(z.real, z.imag), nu


def nonideal_phase(theta: float, phi_d: float) -> float:
    """Observed phase arctan(cos theta tan phi_D), branch corrected.

    Evaluated as arg(cos phi_D + i cos theta sin phi_D), which equals the
    arctan form modulo pi and picks the branch that matches arg<s_d|s_u>.
    At theta = 0 this reduces to phi_D (wrapped); at theta = pi/2 it is 0 for
    |phi_D| < pi/2 and pi beyond.

    Raises UndefinedPhase where the visibility vanishes (theta = pi/2 with
    phi_D an odd multiple of pi/2).
    """
    re = math.cos(phi_d)
    im = math.cos(theta) * math.sin(phi_d)
    if math.hypot(re, im) < EPS_VIS:
        raise UndefinedPhase(f"visibility vanishes at theta={theta}, phi_d={phi_d}")
    return _arg_principal(re, im)


def nonideal_visibility(theta: float, phi_d: float) -> float:
    """Fringe visibility sqrt(1 - sin^2 theta sin^2 phi_D).

    Evaluated in the equivalent form hypot(cos phi_D, cos theta sin phi_D),
    which stays accurate near zero visibility, and capped at 1 against
    rounding; at theta = pi/2 it reduces to |cos phi_D|.
    """
    return min(math.hypot(math.cos(phi_d), math.cos(theta) * math.sin(phi_d)), 1.0)


def detector_probabilities(phi: float, nu: float, chi: float) -> tuple[float, float]:
    """Detection probabilities behind the recombining beam splitter.

    P1 = (1 + nu cos(phi + chi)) / 2 and P2 = 1 - P1, where chi is the
    auxiliary phase added to one beam; the pair sums to 1 exactly.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    p1 = 0.5 * (1.0 + nu * math.cos(phi + chi))
    return p1, 1.0 - p1


@dataclass(frozen=True)
class InversionResult:
    """Preimage of observed (phi, nu) under the phase/visibility map.

    phi_d_values lists the four candidates {a, pi - a, -a, a - pi} on
    (-pi, pi] consistent with tan^2 phi_D; theta_values lists {b, pi - b}.
    theta_values is None when sin^2 phi_D is numerically zero: there the
    visibility is 1 and the phase equals phi_D for every tilt, so theta is
    unconstrained.
    """

    tan_sq_phi_d: float
    cos_sq_theta: float | None
    phi_d_values: tuple[float, ...]
    theta_values: tuple[float, ...] | None


def invert_observables(phi: float, nu: float) -> InversionResult:
    """Infer the precession set-up from the fringe observables.

    Uses tan^2 phi_D = 1 / (nu^2 cos^2 phi) - 1 and
    cos^2 theta = nu^2 (1 - cos^2 phi) / (1 - nu^2 cos^2 phi), and reports the
    full preimage sets consistent with the squares.

    Raises SingularInversion when nu |cos phi| < 1e-12.
    """
    c = math.cos(phi)
    if nu * abs(c) < 1e-12:
        raise SingularInversion(f"cannot invert at nu={nu}, phi={phi}: nu|cos phi| too small")
    nu2 = nu * nu
    c2 = c * c
    tan_sq = max(0.0, 1.0 / (nu2 * c2) - 1.0)
    a = math.atan(math.sqrt(tan_sq))
    phi_d_values = tuple(sorted({wrap_angle(x) for x in (a, math.pi - a, -a, a - math.pi)}))
    den = 1.0 - nu2 * c2
    if den < 1e-12:
        return InversionResult(tan_sq, None, phi_d_values, None)
    cos_sq = min(1.0, max(0.0, nu2 * (1.0 - c2) / den))
    b = math.acos(math.sqrt(cos_sq))
    return InversionResult(tan_sq, cos_sq, phi_d_values, (b, math.pi - b))


def decompose_phase(theta: float, phi_d: float) -> tuple[float, float]:
    """Split the observed phase into dynamical and geometric parts.

    gamma_dyn = phi_D cos(theta) is proportional to the moment's projection on
    the precession axis; gamma_geo = phi - gamma_dyn is the geometric
    remainder, equal to -Omega_gc/2 for |phi_D| < pi/2. Propagates
    UndefinedPhase from the phase evaluation.
    """
    gamma_dyn = phi_d * math.cos(theta)
    gamma_geo = nonideal_phase(theta, phi_d) - gamma_dyn
    return gamma_dyn, gamma_geo


def solid_angle_geodesic_closed(theta: float, delta_azimuth: float, n_steps: int = 10_000) -> float:
    """Solid angle between a Bloch parallel arc and its geodesic closure.

    The arc sits at polar angle theta and spans ``delta_azimuth`` (equal to
    2 phi_D for the relative spin path between the arms); the closure is the
    shortest great-circle arc joining its endpoints A and B. For the northern
    mirror image (polar angle with |cos theta|) the enclosed area is exact:
    the cap sector delta (1 - |cos theta|) minus the geodesic triangle
    (pole, A, B), whose area comes from the Van Oosterom-Strackee formula

        tri = 2 atan2(det[N, A, B], 1 + N.A + A.B + B.N)
            = 2 atan2(sin^2 theta sin delta, (1 + |cos theta|)^2 + sin^2 theta cos delta).

    For |delta_azimuth| <= 2 pi the magnitude stays below the cap area
    2 pi (1 - |cos theta|), so the form needs no mod-4 pi wrap, which would
    tie between +-2 pi at the equator. The reflection z -> -z flips the
    orientation, and the overall sign follows the convention
    gamma_geo = -Omega/2 (see the module docstring). A non-finite
    delta_azimuth gives NaN.

    ``n_steps`` is accepted and checked (>= 2) but has no effect. It sized the
    triangle fan this exact form replaced, and is kept because its callers
    still pass it: compute_interference with the CLI key solid_angle_steps,
    and the perfbench tracer, which counts work from it.

    Raises GeodesicAmbiguous if the endpoints are antipodal within 1e-9; for
    |delta_azimuth| >= pi the closure uses the shorter great-circle arc and
    the value is reported without any claimed relation to the phase split.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    if delta_azimuth == 0.0:
        return 0.0
    if not math.isfinite(delta_azimuth):
        return math.nan
    st, ct = math.sin(theta), math.cos(theta)
    sin_d, cos_d = math.sin(delta_azimuth), math.cos(delta_azimuth)
    if math.hypot(st * (1.0 + cos_d), st * sin_d, 2.0 * ct) < 1e-9:
        raise GeodesicAmbiguous("arc endpoints are antipodal; shortest geodesic is not unique")
    a = abs(ct)
    st2 = st * st
    lens = delta_azimuth * (1.0 - a) - 2.0 * math.atan2(st2 * sin_d, (1.0 + a) ** 2 + st2 * cos_d)
    return -lens if ct > 0.0 else lens


@dataclass(frozen=True)
class InterferenceResult:
    """One interference observation row.

    None marks undefined entries; they serialize as NaN in CSV and null in
    JSON. Where phi is defined, gamma_dyn + gamma_geo = phi exactly.
    """

    theta: float
    phi_d: float
    phi: float | None
    visibility: float
    gamma_dyn: float
    gamma_geo: float | None
    omega_gc: float | None

    def values(self) -> tuple:
        return (
            self.theta,
            self.phi_d,
            self.phi,
            self.visibility,
            self.gamma_dyn,
            self.gamma_geo,
            self.omega_gc,
        )


def compute_interference(theta: float, phi_d: float, n_steps: int = 2048) -> InterferenceResult:
    """Assemble the full observable record at one (theta, phi_D) point.

    The solid angle uses the relative spin path with delta_azimuth = 2 phi_D
    at the folded polar angle |remainder(theta, 2 pi)|: a tilt outside
    [0, pi] has the Bloch vector of that polar angle turned by pi in azimuth,
    and a z-rotation keeps the solid angle. At a folded polar angle of 0 or
    pi the path degenerates to a point and the angle is 0. ``n_steps`` is
    passed on to solid_angle_geodesic_closed, where it has no effect.
    """
    visibility = nonideal_visibility(theta, phi_d)
    gamma_dyn = phi_d * math.cos(theta)
    try:
        phi = nonideal_phase(theta, phi_d)
        gamma_geo = phi - gamma_dyn
    except UndefinedPhase:
        phi = None
        gamma_geo = None
    polar = abs(math.remainder(theta, TWO_PI))
    if polar <= 0.0 or polar >= math.pi:
        omega: float | None = 0.0
    else:
        try:
            omega = solid_angle_geodesic_closed(polar, 2.0 * phi_d, n_steps)
        except GeodesicAmbiguous:
            omega = None
    return InterferenceResult(theta, phi_d, phi, visibility, gamma_dyn, gamma_geo, omega)
