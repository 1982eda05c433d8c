"""Planar line-charge electrostatics, magnetic pulse profiles, and their integrals.

Everything here is two dimensional: charge distributions are independent of z,
electric fields lie in the x-y plane, and the magnetic pulse points along +z.
A dipole moving through such an electric field feels the effective gauge
potential A = c^-2 (-E_y, E_x); the line integral of A around a closed
counterclockwise loop equals lambda_enc / (eps0 c^2) by Gauss's law,
independent of the loop shape.

Default units are natural (hbar = c = eps0 = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import SingularPoint

#: Sample points closer than this to a line charge raise SingularPoint.
SINGULAR_DISTANCE = 1e-9

TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class UnitSystem:
    """Physical constants and particle parameters.

    Defaults are natural units (hbar = c = eps0 = 1) with a unit dipole
    moment. ``Gamma`` is the classical gyromagnetic ratio of the dipole; it is
    a signed quantity, and the default ``Gamma = 2 mu / hbar`` makes the
    classical and spin-1/2 precession angles coincide.
    """

    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0
    mu: float = 1.0
    Gamma: float = 2.0
    m: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "eps0", "mu", "m"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if not math.isfinite(self.Gamma) or self.Gamma == 0.0:
            raise ValueError(f"Gamma must be finite and nonzero, got {self.Gamma}")
        if not math.isfinite(self.c * self.c):
            raise ValueError(f"c must have a finite square, got {self.c}")

    @property
    def spin_factor(self) -> float:
        """-2 mu / hbar: the spin-1/2 precession angle per unit field integral."""
        return -2.0 * self.mu / self.hbar


@dataclass(frozen=True)
class RectangularPulse:
    """Uniform field B0 along +z switched on over [t_on, t_off].

    The time integral over any window is computed exactly from the overlap.
    """

    B0: float
    t_on: float
    t_off: float

    def __post_init__(self) -> None:
        if not self.t_on < self.t_off:
            raise ValueError("t_on must be earlier than t_off")

    def field_at(self, t):
        """B at time t, a float or an array of times."""
        t = np.asarray(t, dtype=float)
        return np.where((self.t_on <= t) & (t <= self.t_off), self.B0, 0.0)[()]

    def knots(self) -> tuple[float, ...]:
        return (self.t_on, self.t_off)

    def integral(self, t0: float, t1: float) -> float:
        overlap = min(t1, self.t_off) - max(t0, self.t_on)
        return self.B0 * overlap if overlap > 0.0 else 0.0


@dataclass(frozen=True)
class SmoothBumpPulse:
    """Plateau B0 with cosine ramps of width ``ramp`` at both ends.

    B(t) vanishes outside [t_on, t_off] and the ramps are C1 smoothsteps, so
    the integral over the full support is B0 * (t_off - t_on - ramp). Window
    integrals are exact: the window is split at the ramp knots, and each
    ramp piece is integrated in closed form (_ramp_integral).
    """

    B0: float
    t_on: float
    t_off: float
    ramp: float

    def __post_init__(self) -> None:
        if not self.t_on < self.t_off:
            raise ValueError("t_on must be earlier than t_off")
        if not 0.0 < self.ramp <= 0.5 * (self.t_off - self.t_on):
            raise ValueError("ramp must be positive and at most half the pulse duration")
        # field_at evaluates cos(pi (t - t_on) / ramp) with t - t_on up to ramp
        if not math.isfinite(TWO_PI * self.ramp):
            raise ValueError("ramp is out of range: 2 pi ramp must be a finite number")

    def field_at(self, t):
        """B at time t, a float or an array of times."""
        t = np.asarray(t, dtype=float)
        # the ramp formulas are evaluated at every t and kept only on their
        # ramps; elsewhere their arguments may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            rise = 0.5 * self.B0 * (1.0 - np.cos(math.pi * (t - self.t_on) / self.ramp))
            fall = 0.5 * self.B0 * (1.0 - np.cos(math.pi * (self.t_off - t) / self.ramp))
        b = np.where(t < self.t_on + self.ramp, rise, np.where(t > self.t_off - self.ramp, fall, self.B0))
        return np.where((t <= self.t_on) | (t >= self.t_off), 0.0, b)[()]

    def knots(self) -> tuple[float, ...]:
        return (self.t_on, self.t_on + self.ramp, self.t_off - self.ramp, self.t_off)

    def _ramp_integral(self, x: float, w: float) -> float:
        """Integral of 0.5 B0 (1 - cos(pi u / ramp)) over [x, x + w] within [0, ramp].

        With theta = pi u / ramp, delta = pi w / (2 ramp) and m the midpoint
        theta, it is B0 (bracket / pi) ramp with the bracket
        (delta - sin delta) + 2 sin delta sin^2(m / 2), a sum of nonnegative
        terms: nothing cancels, even for a short window at the foot of the
        ramp. delta comes from the width w itself, so a short window inside
        the ramp keeps its precision too. Each angle is pi times a ratio to
        ramp within [0, 1], for every ramp, subnormal ones included.
        """
        delta = 0.5 * math.pi * (w / self.ramp)
        m = math.pi * (x / self.ramp) + delta
        if delta < 0.5:
            # delta - sin(delta) by its Taylor series; 8 terms reach full precision
            d2 = delta * delta
            tail = 0.0
            for k in range(17, 3, -2):
                tail = d2 * (1.0 / math.factorial(k) - tail)
            excess = delta * d2 * (1.0 / 6.0 - tail)
        else:
            excess = delta - math.sin(delta)
        s = math.sin(0.5 * m)
        # |bracket / pi| <= 1/2, so B0 times it cannot overflow; ramp comes
        # last, so a subnormal ramp does not underflow an intermediate
        return self.B0 * ((excess + 2.0 * math.sin(delta) * s * s) / math.pi) * self.ramp

    def integral(self, t0: float, t1: float) -> float:
        lo = max(t0, self.t_on)
        hi = min(t1, self.t_off)
        if lo >= hi:
            return 0.0
        points = sorted([lo, hi, *(k for k in self.knots() if lo < k < hi)])
        rise_end, fall_start = self.t_on + self.ramp, self.t_off - self.ramp
        total = 0.0
        for a, b in zip(points[:-1], points[1:]):
            if b <= rise_end:
                x = a - self.t_on
            elif a >= fall_start:
                x = self.t_off - b  # the falling ramp, mirrored
            else:
                total += self.B0 * (b - a)
                continue
            # the knots are rounded, so a piece can reach past its ramp by an ulp;
            # that excess lies where the ramp has reached B0, and counts as plateau
            x = min(x, self.ramp)
            w = min(b - a, self.ramp - x)
            total += self._ramp_integral(x, w) + self.B0 * ((b - a) - w)
        return total


PulseProfile = Union[RectangularPulse, SmoothBumpPulse]


def pulse_from_dict(data: dict, path: str = "pulse") -> PulseProfile:
    from .config import pulse_from_dict

    return pulse_from_dict(data, path)


def pulse_integral_B(pulse: PulseProfile, t0: float, t1: float) -> float:
    """Time integral of B(t) over [t0, t1].

    Both pulse shapes integrate exactly: a rectangular pulse from its overlap
    with the window, a smooth bump in closed form piece by piece between its
    ramp knots. The integral is additive over adjacent windows.
    """
    if t1 < t0:
        raise ValueError("t0 must not exceed t1")
    return pulse.integral(t0, t1)


@dataclass(frozen=True)
class LineCharge:
    """An infinite straight charged line through (x, y), parallel to z.

    ``lam`` is the charge per unit length (JSON key ``lambda``). The planar
    field E(r) = lam / (2 pi eps0) * rhat / |r| is singular on the line, so
    evaluation within SINGULAR_DISTANCE of it raises SingularPoint.
    """

    x: float
    y: float
    lam: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def _row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of an (n, 2) array, bit for bit: the same
    dot product; norm(axis=1) can round differently in the last bit."""
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


@dataclass(frozen=True, eq=False)
class PlanarPath:
    """Polyline in the x-y plane.

    A closed path repeats its first vertex at the end. Vertices must stay off
    every line-charge position; that is enforced where the path meets a field.
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("vertices must hold at least two x-y points")
        object.__setattr__(self, "vertices", v)
        if self.closed and not np.allclose(v[0], v[-1], rtol=0.0, atol=1e-12):
            raise ValueError("closed requires the path to end where it starts")

    @property
    def n_segments(self) -> int:
        return len(self.vertices) - 1

    def segment_lengths(self) -> np.ndarray:
        return _row_norms(np.diff(self.vertices, axis=0))

    def reversed(self) -> "PlanarPath":
        return PlanarPath(self.vertices[::-1].copy(), closed=self.closed)

    @classmethod
    def line(cls, start: Sequence[float], end: Sequence[float]) -> "PlanarPath":
        return cls(np.array([start, end], dtype=float))

    @classmethod
    def polygon(cls, corners: Sequence[Sequence[float]]) -> "PlanarPath":
        """Closed polygon through the given corners (first vertex repeated)."""
        pts = np.asarray(corners, dtype=float)
        return cls(np.vstack([pts, pts[:1]]), closed=True)

    @classmethod
    def circle(cls, center: Sequence[float], radius: float, n: int = 64) -> "PlanarPath":
        """Closed counterclockwise regular n-gon inscribed in the circle."""
        ang = TWO_PI * np.arange(n) / n
        pts = np.asarray(center, dtype=float) + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return cls(np.vstack([pts, pts[:1]]), closed=True)


@dataclass
class FieldConfig:
    """Field sources plus units: line charges for the planar electric field
    and an optional magnetic pulse along +z.

    Line charges are the only electric sources, so every line integral of A
    and every field derivative has a closed form.
    """

    charges: list[LineCharge] = field(default_factory=list)
    pulse: PulseProfile | None = None
    units: UnitSystem = field(default_factory=UnitSystem)


def eval_E(cfg: FieldConfig, p) -> np.ndarray:
    """Planar electric field at p, superposing all line-charge fields.

    Parameters
    ----------
    cfg : FieldConfig
        Sources and units.
    p : array_like
        A single (2,) point or an (..., 2) array of points; the result
        broadcasts to the same shape. E_z is identically zero and is not
        represented.

    Raises
    ------
    SingularPoint
        If any evaluation point lies within SINGULAR_DISTANCE of a charge.
    """
    pts = np.asarray(p, dtype=float)
    flat = pts.reshape(-1, 2)
    out = np.zeros_like(flat)
    for charge in cfg.charges:
        diff = flat - charge.position
        r2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
        bad = r2 < SINGULAR_DISTANCE**2
        if bad.any():
            raise SingularPoint(flat[int(np.argmax(bad))])
        out += (charge.lam / (TWO_PI * cfg.units.eps0)) * diff / r2[:, None]
    return out.reshape(pts.shape)


def eval_A(cfg: FieldConfig, p) -> np.ndarray:
    """Effective gauge potential A = c^-2 (-E_y, E_x) at p.

    Same broadcasting and singularity behaviour as eval_E; |A| = |E| / c^2
    pointwise by construction.
    """
    E = eval_E(cfg, p)
    A = np.stack([-E[..., 1], E[..., 0]], axis=-1)
    return A / cfg.units.c**2


def _check_segments(cfg: FieldConfig, starts: np.ndarray, ends: np.ndarray) -> None:
    """Raise SingularPoint for the lowest segment that meets a charge.

    A segment meets a charge when its closest point lies within
    SINGULAR_DISTANCE of it; an end that is also the next segment's start
    counts only for that segment. The charges are taken in order, and the
    error carries the segment's closest point to the first one it meets.
    Only the lowest hit so far is kept, so memory does not grow with the
    number of charges.
    """
    # an end that is also the next segment's start counts for that segment
    shared_end = np.zeros(len(starts), dtype=bool)
    shared_end[:-1] = np.all(ends[:-1] == starts[1:], axis=1)
    d = ends - starts
    dd = d[:, 0] ** 2 + d[:, 1] ** 2
    safe_dd = np.where(dd > 0.0, dd, 1.0)
    lowest, first = len(starts), None
    for charge in cfg.charges:
        a = starts - charge.position
        b = ends - charge.position
        # the closest point is starts + t d; a zero-length segment has t = 0
        t = np.clip(-(a[:, 0] * d[:, 0] + a[:, 1] * d[:, 1]) / safe_dd, 0.0, 1.0)
        r = a + t[:, None] * d
        near = r[:, 0] ** 2 + r[:, 1] ** 2 < SINGULAR_DISTANCE**2
        near &= ~(shared_end & (b[:, 0] ** 2 + b[:, 1] ** 2 < SINGULAR_DISTANCE**2))
        i = int(np.argmax(near))
        if near[i] and i < lowest:
            lowest, first = i, charge
    if first is not None:
        # the reported segment's closest point, by the same arithmetic
        i, a = lowest, starts[lowest] - first.position
        t = np.clip(-(a[0] * d[i, 0] + a[1] * d[i, 1]) / safe_dd[i], 0.0, 1.0)
        raise SingularPoint(starts[i] + t * d[i], segment=i)


def _segment_integrals(cfg: FieldConfig, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Exact integral of A . dr along each straight segment starts[i] -> ends[i].

    Around a line charge A = lam / (2 pi eps0 c^2) grad(azimuth), so each
    segment contributes lam / (2 pi eps0 c^2) times the signed angle
    atan2(a x b, a . b) it subtends at the charge, with a and b its ends
    relative to the charge. One array pass per charge.

    Raises
    ------
    SingularPoint
        If a segment passes within SINGULAR_DISTANCE of a charge; the error
        carries the index of the lowest such segment and its closest point
        (a vertex shared by two segments counts for the one it starts).
    """
    _check_segments(cfg, starts, ends)
    out = np.zeros(len(starts))
    for charge in cfg.charges:
        a = starts - charge.position
        b = ends - charge.position
        angle = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])
        out += (charge.lam / (TWO_PI * cfg.units.eps0)) * angle
    return out / cfg.units.c**2


def line_integral_A(cfg: FieldConfig, path: PlanarPath) -> float:
    """Exact line integral of A along the polyline.

    Each segment contributes lam / (2 pi eps0 c^2) times the angle it
    subtends at each charge, so a closed loop gives lambda_enc / (eps0 c^2)
    for any loop shape, and reversing the path negates the result.

    Raises
    ------
    SingularPoint
        If a path segment passes within SINGULAR_DISTANCE of a charge; the
        error carries the lowest offending segment index.
    """
    verts = path.vertices
    return float(_segment_integrals(cfg, verts[:-1], verts[1:]).sum())
