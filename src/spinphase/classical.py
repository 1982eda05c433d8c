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

import numpy as np

from .errors import SingularPoint, StepTooLarge
from .fields import (
    SINGULAR_DISTANCE,
    FieldConfig,
    PlanarPath,
    PulseProfile,
    UnitSystem,
    _row_norms,
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

    One finite positive speed per segment (a scalar broadcasts); the
    z-velocity is identically zero.
    """

    path: PlanarPath
    speeds: np.ndarray

    def __post_init__(self) -> None:
        s = np.broadcast_to(np.asarray(self.speeds, dtype=float), (self.path.n_segments,)).copy()
        if not np.all(np.isfinite(s)):
            raise ValueError("segment speeds must be finite")
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
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    gamma = -units.Gamma * pulse_integral_B(pulse, 0.0, t)
    return replace(dipole, azimuth=dipole.azimuth + gamma)


def _stage_grid(t0: np.ndarray, t1: np.ndarray, dt: float):
    """Stage times of fixed-step RK4 over every window [t0[w], t1[w]], in blocks.

    Window w takes n = ceil(span / dt) steps of size h = span / n, none if
    its span is not positive. A block holds at most RATE_BLOCK_STEPS steps:
    it ends at the last window end within that reach, or cuts a longer
    window after exactly that many steps. Per block this yields the window
    and the time of every stage slot, then the slot of every step's first
    stage and the step's size. A window's k steps in a block take 2k + 1
    slots: step starts at even offsets, midpoints at odd ones and the end of
    its last step last. Times come from the step index j as t0 + j h and
    (t0 + j h) + h / 2, and a window's last stage lands exactly on t1.
    """
    span = t1 - t0
    steps = np.where(span > 0.0, np.maximum(np.ceil(span / dt - 1e-12), 1.0), 0.0)
    live = steps.nonzero()[0]
    steps, span, t0, t1 = steps[live], span[live], t0[live], t1[live]
    end = steps.cumsum()
    total = end[-1] if len(end) else 0.0
    if not total < 2.0**53:
        raise OverflowError(f"cannot take {total} RK4 steps")
    n = steps.astype(np.int64)
    end = end.astype(np.int64)
    h = span / steps
    first = 0
    while first < total:
        # windows lo..hi-1 hold the block's steps [first, last)
        lo = int(end.searchsorted(first, "right"))
        hi = int(end.searchsorted(first + RATE_BLOCK_STEPS, "right"))
        if hi > lo:
            last = int(end[hi - 1])
        else:
            last, hi = first + RATE_BLOCK_STEPS, lo + 1
        k = n[lo:hi].copy()
        skip = first - (end[lo] - n[lo])  # steps of window lo in earlier blocks
        k[0] -= skip
        k[-1] -= end[hi - 1] - last  # steps of window hi - 1 left for later blocks
        size = 2 * k + 1
        slot_end = size.cumsum()
        offset = np.arange(slot_end[-1]) - (slot_end - size).repeat(size)
        j = offset >> 1
        j[: size[0]] += skip
        hw = h[lo:hi].repeat(size)
        times = t0[lo:hi].repeat(size) + j * hw
        closed = slot_end - 1 if end[hi - 1] == last else slot_end[:-1] - 1
        times[closed] = t1[lo : lo + len(closed)]
        mid = offset & 1
        times += (0.5 * hw) * mid  # + 0.0 leaves the knots as they are
        yield live[lo:hi].repeat(size), times, mid.nonzero()[0] - 1, h[lo:hi].repeat(k)
        first = last


def _rk4_scan(m: tuple, mu0: float, r1: np.ndarray, r2: np.ndarray, r4: np.ndarray, h: np.ndarray) -> tuple:
    """Fixed-step RK4 for mudot = rate(t) (mu_y, -mu_x, 0) as one scan over its steps.

    Step k has size h[k] and stage rates r1[k], r2[k] (twice) and r4[k].
    With u = mu_x + i mu_y the equation is u' = -i rate u, so a step is
    u <- c u, where c = 1 + w comes from RK4's k1..k4 (the truncation error
    stays); mu_z is unchanged within it. Renormalizing |mu| to mu0 after the
    step multiplies rho = |u|^2 / mu_z^2 by |c|^2, so the in-plane share
    s = rho / (1 + rho) before every step follows from a cumulative sum of
    log|c|^2, and the step's norm ratio is sqrt(1 + (|c|^2 - 1) s). The
    final azimuth advances by the sum of arg c, and mu_z and |u| scale by
    products of the per-step factors, taken in log space. The first step
    whose norm ratio drifts from 1 by more than MAX_NORM_DRIFT, or is not
    finite (also when u = 0), raises StepTooLarge.
    """
    x, y, z = m
    n0 = math.sqrt(x * x + y * y + z * z)
    with np.errstate(all="ignore"):
        a, b, d = h * r1, h * r2, h * r4
        # 6 w = h (k1 + 2 k2 + 2 k3 + k4) / u with k1 = -i r1 u,
        # k2 = -i r2 (u + h k1 / 2), k3 = -i r2 (u + h k2 / 2), k4 = -i r4 (u + h k3)
        ad = a + d
        wr6 = b * (0.25 * a * b * d - ad - b)
        wi6 = ad * (0.5 * b * b - 1.0) - 4.0 * b
        g = (12.0 * wr6 + wr6 * wr6 + wi6 * wi6) / 36.0  # |c|^2 - 1
        grow = np.log1p(g)
        if x == 0.0 and y == 0.0:
            s = 0.0
        elif z == 0.0:
            s = 1.0
        else:
            log_rho = np.empty_like(grow)
            log_rho[0] = 2.0 * (math.log(math.hypot(x, y)) - math.log(abs(z)))
            log_rho[1:] = grow[:-1]
            s = 1.0 / (1.0 + np.exp(-log_rho.cumsum()))
        gs = g * s
        ratio = np.sqrt(1.0 + gs)
        ratio[0] *= n0 / mu0  # the moment entering the scan is mu0 only to rounding
        drift = abs(ratio - 1.0)
        if not drift.max() <= MAX_NORM_DRIFT:
            k = int((~(drift <= MAX_NORM_DRIFT)).argmax())
            raise StepTooLarge(f"|mu| drifted by {drift[k]:.3e} in one step; reduce dt")
        phase = float(np.arctan2(wi6, 6.0 + wr6).sum())
        shrink = 0.5 * float(np.log1p(gs).sum())
        scale = mu0 / n0
        uf = scale * math.exp(0.5 * float(grow.sum()) - shrink)
    cp, sp = math.cos(phase), math.sin(phase)
    return uf * (x * cp - y * sp), uf * (x * sp + y * cp), z * scale * math.exp(-shrink)


def _dipole_from(m: tuple, mu: float) -> ClassicalDipole:
    """The dipole of magnitude mu along m; the tilt comes from atan2, which
    stays accurate near the poles, where acos(m_z / |m|) does not."""
    x, y, z = m
    return ClassicalDipole(mu=mu, theta=math.atan2(math.hypot(x, y), z), azimuth=math.atan2(y, x))


def integrate_precession_sab(
    dipole: ClassicalDipole, pulse: PulseProfile, t: float, dt: float, units: UnitSystem
) -> ClassicalDipole:
    """RK4 integration of mudot = Gamma mu x B(t) zhat over [0, t].

    Steps are aligned to the pulse knots so the field is smooth within every
    step; intervals outside the pulse support are skipped (B vanishes there).
    One stage grid covers all the remaining intervals, in blocks of at most
    RATE_BLOCK_STEPS (1024) steps: one array field_at call per block reads
    the field at every stage time (2n + 1 times for an interval's n steps),
    and the recurrence then runs as one scan per block (_rk4_scan). Agrees
    with precess_sab_closed_form to the integrator accuracy. Fixed stepping keeps reruns reproducible;
    choose dt so a step subtends well under 0.01 rad
    (|Gamma| max|B| dt < 0.01).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    knots = np.array(sorted({0.0, t, *(k for k in pulse.knots() if 0.0 < k < t)}))
    a, b = knots[:-1], knots[1:]
    live = ~((b <= pulse.t_on) | (a >= pulse.t_off))
    Gamma = units.Gamma
    m = _moment(dipole.mu, dipole.theta, dipole.azimuth)
    for _, times, step, h in _stage_grid(a[live], b[live], dt):
        # a rate past the float range is inf; _rk4_scan reports the failed step
        with np.errstate(over="ignore"):
            rates = Gamma * pulse.field_at(times)
        m = _rk4_scan(m, dipole.mu, rates[step], rates[step + 1], rates[step + 2], h)
    return _dipole_from(m, dipole.mu)


def precess_ac_closed_form(
    dipole: ClassicalDipole,
    cfg: FieldConfig,
    path: PlanarPath,
    units: UnitSystem | None = None,
    n_sub: int | None = None,
) -> tuple[ClassicalDipole, float]:
    """Closed-form precession along a spatial path through the electric field.

    Returns the rotated dipole and gamma = -Gamma * integral(A . dr), the
    integral taken exactly by line_integral_A. For a closed loop
    gamma = -Gamma * lambda_enc / (eps0 c^2), independent of the loop shape
    and of how fast the path is traversed. ``n_sub`` is accepted and
    ignored, because perfbench's velocity-check workload passes it.
    """
    units = units or cfg.units
    gamma = -units.Gamma * line_integral_A(cfg, path)
    return replace(dipole, azimuth=dipole.azimuth + gamma), gamma


def _ac_scan(m, mu, cfg, Gamma, pts, seg, step, h) -> tuple:
    """_rk4_scan over a block's steps, the rates Gamma (A . v) read at its
    stage points from one eval_A call; ``seg`` holds each point's segment
    column (start, d, tau, v)."""
    A = eval_A(cfg, pts)
    rates = Gamma * (A[:, 0] * seg[5] + A[:, 1] * seg[6])
    return _rk4_scan(m, mu, rates[step], rates[step + 1], rates[step + 2], h)


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
    only, so the stage rates are evaluated before the recurrence runs. One
    stage grid covers every segment (n steps, 2n + 1 stage points; none for
    a segment of zero length), cut into blocks of at most RATE_BLOCK_STEPS
    (1024) steps that end at a segment end where one is in reach. Each block
    takes one eval_A call, each point with its own segment's velocity, and
    one scan (_rk4_scan), each step with its own segment's step size.
    Choose dt so a step subtends well under 0.01 rad
    (|Gamma| max|A| speed dt < 0.01).

    Raises SingularPoint carrying the segment index if a stage point comes
    within fields.SINGULAR_DISTANCE of a charge. That error, or a
    StepTooLarge of an earlier segment, is the one a segment-by-segment
    integration raises.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    Gamma = (units or cfg.units).Gamma
    verts = kin.path.vertices
    d = verts[1:] - verts[:-1]
    length = _row_norms(d)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = length / kin.speeds
        # one column per segment: start (rows 0, 1), d (2, 3), tau (4), velocity (5, 6)
        table = np.vstack([verts[:-1].T, d.T, tau, (kin.speeds / length) * d.T])
    m = _moment(dipole.mu, dipole.theta, dipole.azimuth)
    for window, times, step, h in _stage_grid(np.zeros_like(tau), tau, dt):
        seg = table.take(window, axis=1)
        pts = (seg[0:2] + (times / seg[4]) * seg[2:4]).T
        try:
            m = _ac_scan(m, dipole.mu, cfg, Gamma, pts, seg, step, h)
        except SingularPoint:
            # the lowest segment with a stage point near a charge fails, after
            # the steps before it
            charges = np.array([charge.position for charge in cfg.charges])
            diff = pts[:, None, :] - charges
            near = (diff[..., 0] ** 2 + diff[..., 1] ** 2 < SINGULAR_DISTANCE**2).any(axis=1)
            segment = int(window[near.argmax()])
            ahead = int(window.searchsorted(segment))
            steps = int(step.searchsorted(ahead))
            if steps:
                m = _ac_scan(m, dipole.mu, cfg, Gamma, pts[:ahead], seg[:, :ahead], step[:steps], h[:steps])
            try:
                eval_A(cfg, pts[window == segment])
            except SingularPoint as exc:
                raise SingularPoint(exc.point, segment=segment) from None
            raise
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
