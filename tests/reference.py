"""Numerical stand-ins kept as independent test oracles.

The library integrates A exactly, differentiates E exactly, and runs the RK4
recurrence as one scan over a whole-path stage grid. The forms it replaced
live here, so tests can check the library against them: the composite
midpoint rule for the line integral of A, with its sample-based singular
check, the per-window RK4 stage blocks, the plain-float RK4 loop, the
segment-by-segment AC integrator, and the finite-difference force.
"""

from __future__ import annotations

import math

import numpy as np

from spinphase.classical import MAX_NORM_DRIFT, RATE_BLOCK_STEPS, ClassicalDipole, KinematicPath, _dipole_from
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
