"""Numerical stand-ins kept as independent test oracles.

The library integrates A and B(t) exactly, differentiates E exactly, checks
containment at the pulse endpoints, takes the geodesically closed solid angle
in closed form, and runs the RK4 recurrence as one scan over a whole-path
stage grid. The forms it replaced live here, so tests can check the library
against them: the composite midpoint rule for the line integral of A, with
its sample-based singular check, the per-window RK4 stage blocks, the
plain-float RK4 loop, the segment-by-segment AC integrator, the
finite-difference force and divergence, adaptive Simpson quadrature, the
sampled containment scan and the polygon-fan solid angle.
"""

from __future__ import annotations

import math

import numpy as np

from spinphase.classical import MAX_NORM_DRIFT, RATE_BLOCK_STEPS, ClassicalDipole, KinematicPath, _dipole_from
from spinphase.dispersion import packet_at
from spinphase.errors import SingularPoint, StepTooLarge
from spinphase.fields import SINGULAR_DISTANCE, FieldConfig, LineCharge, eval_A, eval_E

#: Most midpoint-rule samples evaluated in one batch; a longer path is
#: integrated in blocks of whole segments, so memory stays bounded.
MIDPOINT_BLOCK_POINTS = 65_536


def _near(points: np.ndarray, charge: LineCharge) -> np.ndarray:
    """Which of the (..., 2) points lie within SINGULAR_DISTANCE of the charge."""
    diff = points - charge.position
    return diff[..., 0] ** 2 + diff[..., 1] ** 2 < SINGULAR_DISTANCE**2


def _check_samples(
    cfg: FieldConfig, starts: np.ndarray, ends: np.ndarray, own_end: np.ndarray, pts: np.ndarray, offset: int
) -> None:
    """Raise SingularPoint for the lowest segment of a block that meets a charge.

    A segment meets a charge through its start, a sample or, where
    ``own_end`` is set, its end. The point is then found as a one-segment
    call finds it: the charges in order, the segment's closer endpoint before
    its closest sample.
    """
    hit = np.zeros(len(starts), dtype=bool)
    for charge in cfg.charges:
        hit |= _near(starts, charge) | (own_end & _near(ends, charge)) | _near(pts, charge).any(axis=1)
    if not hit.any():
        return
    i = int(np.argmax(hit))
    endpoints = np.stack([starts[i], ends[i]])
    for charge in cfg.charges:
        for points in (endpoints, pts[i]):
            if _near(points, charge).any():
                diff = points - charge.position
                k = int(np.argmin(diff[:, 0] ** 2 + diff[:, 1] ** 2))
                raise SingularPoint(points[k], segment=offset + i)


def midpoint_rule(cfg: FieldConfig, starts: np.ndarray, ends: np.ndarray, n_sub: int) -> np.ndarray:
    """Integral of A . dr along each straight segment starts[i] -> ends[i].

    Each segment is split into ``n_sub`` equal pieces sampled at their
    midpoints (composite midpoint rule, error O(n_sub^-2)). The segments are
    taken in blocks of whole segments holding at most MIDPOINT_BLOCK_POINTS
    samples (a segment with more samples is a block of its own), with one
    eval_A call per block; each segment's value does not depend on the
    blocking. A segment whose start, end or sample comes within
    SINGULAR_DISTANCE of a charge raises SingularPoint with the lowest such
    segment (a vertex shared by two segments counts for the one it starts).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be at least 1")
    n = len(starts)
    # an end that is also the next segment's start counts for that segment
    own_end = np.ones(n, dtype=bool)
    own_end[:-1] = np.any(ends[:-1] != starts[1:], axis=1)
    t = (np.arange(n_sub) + 0.5) / n_sub
    per_block = max(1, MIDPOINT_BLOCK_POINTS // n_sub)
    out = np.empty(n)
    for first in range(0, n, per_block):
        block = slice(first, first + per_block)
        block_starts, block_ends = starts[block], ends[block]
        deltas = block_ends - block_starts
        pts = block_starts[:, None, :] + t[None, :, None] * deltas[:, None, :]
        _check_samples(cfg, block_starts, block_ends, own_end[block], pts, first)
        A = eval_A(cfg, pts.reshape(-1, 2)).reshape(pts.shape)
        out[block] = np.einsum("snk,sk->s", A, deltas) / n_sub
    return out


def stage_blocks(t0: float, t1: float, dt: float):
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


def rk4_precession(m: tuple, mu0: float, rates: list, h: float) -> tuple:
    """Fixed-step RK4 for mudot = rate(t) (mu_y, -mu_x, 0), k steps of size h.

    ``rates`` holds the rate at the 2k + 1 stage times of stage_blocks, and
    the recurrence runs on plain floats, one step at a time. |mu| is
    renormalized to mu0 after every step; a per-step drift beyond
    MAX_NORM_DRIFT, or a non-finite moment, raises StepTooLarge.
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


def ac_stage_points(kin: KinematicPath, dt: float) -> list:
    """The stage points of every segment's stage_blocks, in order, as
    (segment, points) pairs; a segment of zero length has none."""
    verts = kin.path.vertices
    out = []
    for i in range(kin.path.n_segments):
        d = verts[i + 1] - verts[i]
        length = float(np.linalg.norm(d))
        if length == 0.0:
            continue
        tau = length / float(kin.speeds[i])
        for _, times in stage_blocks(0.0, tau, dt):
            out.append((i, verts[i] + (times / tau)[:, None] * d))
    return out


def integrate_ac_per_segment(dipole: ClassicalDipole, cfg: FieldConfig, kin: KinematicPath, dt: float):
    """integrate_precession_ac with one eval_A call per segment block and the
    plain-float RK4 loop."""
    Gamma = cfg.units.Gamma
    verts = kin.path.vertices
    m = tuple(dipole.vector.tolist())
    for i in range(kin.path.n_segments):
        a = verts[i]
        d = verts[i + 1] - verts[i]
        length = float(np.linalg.norm(d))
        if length == 0.0:
            continue
        speed = float(kin.speeds[i])
        v = (speed / length) * d
        tau = length / speed
        for h, times in stage_blocks(0.0, tau, dt):
            try:
                A = eval_A(cfg, a + (times / tau)[:, None] * d)
            except SingularPoint as exc:
                raise SingularPoint(exc.point, segment=i) from None
            rates = Gamma * (A[:, 0] * v[0] + A[:, 1] * v[1])
            m = rk4_precession(m, dipole.mu, rates.tolist(), h)
    return _dipole_from(m, dipole.mu)


def ac_force_fd(dipole: ClassicalDipole, cfg: FieldConfig, p, v, h: float = 1e-5) -> np.ndarray:
    """ac_force with (mu . grad) E taken by central differences of step h."""
    p = np.asarray(p, dtype=float)
    mu = dipole.vector
    dEdx = (eval_E(cfg, p + [h, 0.0]) - eval_E(cfg, p - [h, 0.0])) / (2.0 * h)
    dEdy = (eval_E(cfg, p + [0.0, h]) - eval_E(cfg, p - [0.0, h])) / (2.0 * h)
    g = mu[0] * dEdx + mu[1] * dEdy
    return -np.cross([v[0], v[1], 0.0], [g[0], g[1], 0.0]) / cfg.units.c**2


def divergence_E(cfg: FieldConfig, p, h: float = 1e-4) -> float:
    """Central finite-difference estimate of div E at p (field sanity check).

    Away from the charges the planar field is divergence free; the estimate
    blows up as p approaches a charge. The step h must keep the four stencil
    points off the charge positions.
    """
    p = np.asarray(p, dtype=float)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    ddx = eval_E(cfg, p + ex)[0] - eval_E(cfg, p - ex)[0]
    ddy = eval_E(cfg, p + ey)[1] - eval_E(cfg, p - ey)[1]
    return float((ddx + ddy) / (2.0 * h))


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=40):
    """Independent quadrature oracle (recursive Simpson with Richardson tail)."""

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= max_depth or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def sampled_oracle(p, region, pulse, k_sigma=5.0, n_time_samples=256):
    """Containment checked at n_time_samples times spanning [t_on, t_off],
    both endpoints included: an independent stand-in for the exact check."""
    for t in np.linspace(pulse.t_on, pulse.t_off, n_time_samples):
        center, width = packet_at(p, float(t))
        if center - k_sigma * width < region.x_min or center + k_sigma * width > region.x_max:
            return False
    return True


def polygon_solid_angle(verts):
    """Right-handed signed solid angle of a closed spherical polygon.

    Triangle fan about the mean direction, each triangle by the

        omega = 2 atan2(det[c, v1, v2], 1 + c.v1 + v1.v2 + v2.c)

    formula; positive for counterclockwise traversal seen from outside.
    """
    center = verts.mean(axis=0)
    c = center / np.linalg.norm(center)
    v1 = verts
    v2 = np.roll(verts, -1, axis=0)
    triple = np.einsum("ij,ij->i", np.cross(np.broadcast_to(c, v1.shape), v1), v2)
    denom = 1.0 + v1 @ c + np.einsum("ij,ij->i", v1, v2) + v2 @ c
    return float(np.sum(2.0 * np.arctan2(triple, denom)))


def fan_oracle(theta, delta, n_steps):
    """Signed solid angle from the discretized arc and geodesic closure.

    The arc and the shortest great-circle arc back to its start are each
    sampled with n_steps points and summed by polygon_solid_angle; the
    error falls as n_steps^-2 and stays below (pi / n_steps)^2.
    """
    st_, ct_ = math.sin(theta), math.cos(theta)
    phis = np.linspace(0.0, delta, n_steps)
    arc = np.stack([st_ * np.cos(phis), st_ * np.sin(phis), np.full(n_steps, ct_)], axis=1)
    a, b = arc[0], arc[-1]
    omega_ab = math.acos(max(-1.0, min(1.0, float(a @ b))))
    if omega_ab < 1e-15:
        return -polygon_solid_angle(arc)
    ts = np.linspace(0.0, 1.0, n_steps)[1:-1]
    geo = (np.sin((1.0 - ts) * omega_ab)[:, None] * b + np.sin(ts * omega_ab)[:, None] * a) / math.sin(omega_ab)
    return -polygon_solid_angle(np.vstack([arc, geo]))
