"""Classical magnetic-dipole precession and the spatial force in planar setups.

A dipole in a purely time dependent B(t) z-field, or carried through a planar
line-charge field, precesses about +z on a cone of constant tilt: only the
azimuth advances, by gamma(t) = -Gamma * integral(B dt) for the pulsed field
and gamma(x) = -Gamma * integral(A . dr) along the spatial path. Both angles
are independent of the particle's velocity. The fixed-step RK4 integrators
solve the torque equations directly and are used to confirm the closed forms
and the velocity independence.

The z-directed force that appears for a tilted dipole moving through the
electric field is reported by ``ac_force`` but never applied to the
trajectory: the path is an input, kept planar by the experimental setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import SingularPoint, StepTooLarge
from .fields import (
    SINGULAR_DISTANCE,
    FieldConfig,
    PlanarPath,
    PulseProfile,
    UnitSystem,
    eval_A,
    line_integral_A,
    pulse_integral_B,
)

#: Relative drift of |mu| in a single step beyond which StepTooLarge is raised.
MAX_NORM_DRIFT = 1e-3

#: Most RK4 steps whose stage rates are evaluated in one batch; a longer
#: window is integrated block by block, so memory stays bounded for any dt.
RATE_BLOCK_STEPS = 1024


def _moment(mu: float, theta: float, azimuth: float) -> tuple[float, float, float]:
    """mu * (sin theta cos azimuth, sin theta sin azimuth, cos theta) on floats."""
    st = math.sin(theta)
    return (mu * (st * math.cos(azimuth)), mu * (st * math.sin(azimuth)), mu * math.cos(theta))


@dataclass(frozen=True)
class ClassicalDipole:
    """Magnetic moment of magnitude mu tilted by theta from +z.

    ``vector`` is mu * (sin theta cos azimuth, sin theta sin azimuth,
    cos theta). Precession in the planar setups keeps mu and theta fixed and
    advances only the azimuth.
    """

    mu: float = 1.0
    theta: float = 0.0
    azimuth: float = 0.0

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")

    @property
    def vector(self) -> np.ndarray:
        return np.array(_moment(self.mu, self.theta, self.azimuth))

    @classmethod
    def from_vector(cls, v) -> "ClassicalDipole":
        v = np.asarray(v, dtype=float)
        mu = float(np.linalg.norm(v))
        if mu == 0.0:
            raise ValueError("moment vector must be nonzero")
        theta = math.acos(max(-1.0, min(1.0, v[2] / mu)))
        return cls(mu=mu, theta=theta, azimuth=math.atan2(v[1], v[0]))


@dataclass(frozen=True, eq=False)
class KinematicPath:
    """A planar path traversed at piecewise-constant speed.

    One positive speed per segment (a scalar broadcasts); the z-velocity is
    identically zero.
    """

    path: PlanarPath
    speeds: np.ndarray

    def __post_init__(self) -> None:
        s = np.broadcast_to(np.asarray(self.speeds, dtype=float), (self.path.n_segments,)).copy()
        if np.any(s <= 0.0):
            raise ValueError("segment speeds must be positive")
        object.__setattr__(self, "speeds", s)

    @classmethod
    def uniform(cls, path: PlanarPath, speed: float = 1.0) -> "KinematicPath":
        return cls(path, np.full(path.n_segments, float(speed)))


def precess_sab_closed_form(
    dipole: ClassicalDipole, pulse: PulseProfile, t: float, units: UnitSystem
) -> ClassicalDipole:
    """Closed-form pulsed-field precession up to time t.

    The azimuth advances by gamma(t) = -Gamma * integral_0^t B(t') dt'; the
    tilt is unchanged.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    gamma = -units.Gamma * pulse_integral_B(pulse, 0.0, t)
    return replace(dipole, azimuth=dipole.azimuth + gamma)


def _stage_blocks(t0: float, t1: float, dt: float):
    """Step size h and the stage times of fixed-step RK4 over [t0, t1], in blocks.

    n = ceil(span / dt) steps of size h = span / n; each block covers at most
    RATE_BLOCK_STEPS consecutive steps, k of them, as 2k + 1 times: step
    starts at even indices, step midpoints at odd ones and the end of the
    block's last step last. Times come from the step index, and the last
    stage lands exactly on t1.
    """
    span = t1 - t0
    if not span > 0.0:
        return
    n = max(1, math.ceil(span / dt - 1e-12))
    h = span / n
    for first in range(0, n, RATE_BLOCK_STEPS):
        last = min(first + RATE_BLOCK_STEPS, n)
        knots = t0 + np.arange(first, last + 1) * h
        if last == n:
            knots[-1] = t1
        times = np.empty(2 * len(knots) - 1)
        times[0::2] = knots
        times[1::2] = knots[:-1] + 0.5 * h
        yield h, times


def _rk4_precession(m: tuple, mu0: float, rates: list, h: float) -> tuple:
    """Fixed-step RK4 for mudot = rate(t) (mu_y, -mu_x, 0), k steps of size h.

    ``rates`` holds the rate at the 2k + 1 stage times of _stage_blocks, so
    the recurrence runs on plain floats. |mu| is renormalized to mu0 after
    every step; a per-step drift beyond MAX_NORM_DRIFT, or a non-finite
    moment, raises StepTooLarge.
    """
    x, y, z = m
    half = 0.5 * h
    sixth = h / 6.0
    for r1, r2, r4 in zip(rates[0:-1:2], rates[1::2], rates[2::2]):
        k1x, k1y = r1 * y, r1 * -x
        k2x, k2y = r2 * (y + half * k1y), r2 * -(x + half * k1x)
        k3x, k3y = r2 * (y + half * k2y), r2 * -(x + half * k2x)
        k4x, k4y = r4 * (y + h * k3y), r4 * -(x + h * k3x)
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        nrm = math.sqrt(x * x + y * y + z * z)
        if not abs(nrm - mu0) <= MAX_NORM_DRIFT * mu0:
            raise StepTooLarge(
                f"|mu| drifted by {abs(nrm - mu0) / mu0:.3e} in one step; reduce dt"
            )
        scale = mu0 / nrm
        x, y, z = x * scale, y * scale, z * scale
    return x, y, z


def _dipole_from(m: np.ndarray, mu: float) -> ClassicalDipole:
    nrm = float(np.linalg.norm(m))
    theta = math.acos(max(-1.0, min(1.0, m[2] / nrm)))
    return ClassicalDipole(mu=mu, theta=theta, azimuth=math.atan2(m[1], m[0]))


def integrate_precession_sab(
    dipole: ClassicalDipole, pulse: PulseProfile, t: float, dt: float, units: UnitSystem
) -> ClassicalDipole:
    """RK4 integration of mudot = Gamma mu x B(t) zhat over [0, t].

    Steps are aligned to the pulse knots so the field is smooth within every
    step; intervals outside the pulse support are skipped (B vanishes there).
    The stage rates are evaluated in one batch per window before the
    recurrence runs: the field is read once per stage time (2n + 1 times for
    n steps), in blocks of at most RATE_BLOCK_STEPS (1024) steps.
    Agrees with precess_sab_closed_form to the integrator accuracy. Fixed
    stepping keeps reruns reproducible; choose dt so a step subtends well
    under 0.01 rad (|Gamma| max|B| dt < 0.01).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    knots = sorted({0.0, t, *(k for k in pulse.knots() if 0.0 < k < t)})
    m = tuple(dipole.vector.tolist())
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= pulse.t_on or a >= pulse.t_off:
            continue
        for h, times in _stage_blocks(a, b, dt):
            rates = [units.Gamma * pulse.field_at(s) for s in times.tolist()]
            m = _rk4_precession(m, dipole.mu, rates, h)
    return _dipole_from(m, dipole.mu)


def precess_ac_closed_form(
    dipole: ClassicalDipole,
    cfg: FieldConfig,
    path: PlanarPath,
    units: UnitSystem | None = None,
    n_sub: int = 32,
) -> tuple[ClassicalDipole, float]:
    """Closed-form precession along a spatial path through the electric field.

    Returns the rotated dipole and gamma = -Gamma * integral(A . dr), the
    integral taken exactly by line_integral_A. For a closed loop
    gamma = -Gamma * lambda_enc / (eps0 c^2), independent of the loop shape
    and of how fast the path is traversed. ``n_sub`` has no effect; it must
    still be at least 1.
    """
    units = units or cfg.units
    gamma = -units.Gamma * line_integral_A(cfg, path, n_sub)
    return replace(dipole, azimuth=dipole.azimuth + gamma), gamma


class _Piece(NamedTuple):
    """One RK4 block of a path segment: k steps of size h over 2k + 1 stage
    points start + frac * d, traversed at velocity v."""

    segment: int
    h: float
    frac: np.ndarray
    v: np.ndarray
    start: np.ndarray
    d: np.ndarray


def _pieces(kin: KinematicPath, dt: float):
    """The RK4 blocks of every segment along the path, in order; a segment
    of zero length has none."""
    verts = kin.path.vertices
    for i in range(kin.path.n_segments):
        d = verts[i + 1] - verts[i]
        length = float(np.linalg.norm(d))
        if length == 0.0:
            continue
        speed = float(kin.speeds[i])
        v = (speed / length) * d
        tau = length / speed
        for h, times in _stage_blocks(0.0, tau, dt):
            yield _Piece(i, h, times / tau, v, verts[i], d)


def _gathered(pieces):
    """Consecutive pieces grouped so that each group holds at most
    RATE_BLOCK_STEPS steps; a piece of a full block is a group of its own."""
    group, steps = [], 0
    for piece in pieces:
        k = len(piece.frac) // 2
        if group and steps + k > RATE_BLOCK_STEPS:
            yield group
            group, steps = [], 0
        group.append(piece)
        steps += k
    if group:
        yield group


def _stage_rates(cfg: FieldConfig, Gamma: float, group: list) -> list:
    """Gamma (A . v) at the stage points of a group of pieces from one eval_A
    call, elementwise the same floats as one call per piece."""
    counts = [len(piece.frac) for piece in group]
    frac = np.concatenate([piece.frac for piece in group])
    start = np.repeat([piece.start for piece in group], counts, axis=0)
    d = np.repeat([piece.d for piece in group], counts, axis=0)
    v = np.repeat([piece.v for piece in group], counts, axis=0)
    A = eval_A(cfg, start + frac[:, None] * d)
    return (Gamma * (A[:, 0] * v[:, 0] + A[:, 1] * v[:, 1])).tolist()


def integrate_precession_ac(
    dipole: ClassicalDipole,
    cfg: FieldConfig,
    kin: KinematicPath,
    dt: float,
    units: UnitSystem | None = None,
) -> ClassicalDipole:
    """RK4 integration of mudot = -(Gamma/c^2) mu x (v x E) along the path.

    With v and E planar, v x E points along z and the torque reduces to
    mudot = Gamma (A . v) (mu_y, -mu_x, 0); the final dipole depends only on
    the geometric path, not on the speed profile. The rate depends on time
    only, so the stage rates are evaluated before the recurrence runs. A
    segment's n steps have 2n + 1 stage points, split into blocks of at most
    RATE_BLOCK_STEPS (1024) steps; the blocks of consecutive segments are
    gathered into one eval_A call holding at most RATE_BLOCK_STEPS steps, and
    each segment then runs the recurrence with its own step size. Choose dt
    so a step subtends well under 0.01 rad (|Gamma| max|A| speed dt < 0.01).

    Raises SingularPoint carrying the segment index if a stage point comes
    within fields.SINGULAR_DISTANCE of a charge. That error, or a
    StepTooLarge of an earlier segment, is the one a segment-by-segment
    integration raises.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    Gamma = (units or cfg.units).Gamma
    m = tuple(dipole.vector.tolist())
    for group in _gathered(_pieces(kin, dt)):
        try:
            rates = _stage_rates(cfg, Gamma, group)
        except SingularPoint:
            # cold path: block by block, so that the first failure raises
            for piece in group:
                try:
                    piece_rates = _stage_rates(cfg, Gamma, [piece])
                except SingularPoint as exc:
                    raise SingularPoint(exc.point, segment=piece.segment) from None
                m = _rk4_precession(m, dipole.mu, piece_rates, piece.h)
            continue
        first = 0
        for piece in group:
            last = first + len(piece.frac)
            m = _rk4_precession(m, dipole.mu, rates[first:last], piece.h)
            first = last
    return _dipole_from(m, dipole.mu)


def ac_force(
    dipole: ClassicalDipole,
    cfg: FieldConfig,
    p,
    v,
    units: UnitSystem | None = None,
) -> np.ndarray:
    """Force F = -v x (mu . grad) E / c^2 on a moving dipole, as a 3-vector.

    The field derivatives are exact: for a line charge E = k r / r^2 with
    k = lam / (2 pi eps0), so d_j E_i = k (delta_ij r^2 - 2 r_i r_j) / r^4.
    The z derivative vanishes identically for z-independent planar fields,
    and with planar v and E the returned force is purely along z. It is
    reported only, never applied to the path.

    Raises SingularPoint if p lies within fields.SINGULAR_DISTANCE of a charge.
    """
    units = units or cfg.units
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    mu = dipole.vector[:2]
    g = np.zeros(2)
    for charge in cfg.charges:
        r = p - charge.position
        r2 = float(r @ r)
        if r2 < SINGULAR_DISTANCE**2:
            raise SingularPoint(p)
        n = r / math.sqrt(r2)
        # (mu . grad) E = k (mu - 2 (mu . n) n) / r^2 with n the unit vector r / |r|
        g += (charge.lam / (2.0 * math.pi * cfg.units.eps0)) * (mu - 2.0 * float(mu @ n) * n) / r2
    g3 = np.array([g[0], g[1], 0.0])
    v3 = np.array([v[0], v[1], 0.0])
    return -np.cross(v3, g3) / units.c**2
