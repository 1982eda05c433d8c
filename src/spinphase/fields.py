"""Planar line-charge electrostatics, magnetic pulse profiles, and their integrals.

Everything here is two dimensional: charge distributions are independent of z,
electric fields lie in the x-y plane, and the magnetic pulse points along +z.
A dipole moving through such an electric field feels the effective gauge
potential A = c^-2 (-E_y, E_x); the line integral of A around a closed
counterclockwise loop equals lambda_enc / (eps0 c^2) by Gauss's law,
independent of the loop shape.

Default units are natural (hbar = c = eps0 = 1).

Scenario configs enter through ``ConfigObject``: every value is read by one of
a few typed, finite-only readers, and every rejection is a ConfigError naming
the value's key path, e.g. ``field.charges[0].x``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

import numpy as np
from scipy.integrate import quad

from .errors import ConfigError, SingularPoint

#: Sample points closer than this to a line charge raise SingularPoint.
SINGULAR_DISTANCE = 1e-9

TWO_PI = 2.0 * math.pi

#: Cap on the point count of each sweep grid axis.
MAX_GRID_COUNT = 1_000

#: Cap on every other config count: n_t, chi_samples, n_sub,
#: solid_angle_steps, and the lengths of the velocity, vertex and charge lists.
MAX_COUNT = 100_000

_REQUIRED = object()


def _number(value: Any, key: str) -> float:
    # ints compare exactly, so NaN, +-inf and integers beyond the float range all fail
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be a finite number")
    return float(value)


def _count(value: Any, key: str, low: int, cap: int) -> int:
    x = _number(value, key)
    if not x.is_integer() or not low <= x <= cap:
        raise ConfigError(f"config key {key!r} must be an integer from {low} to {cap}")
    return int(x)


def _entries(value: Any, key: str) -> list[tuple[str, Any]]:
    if not isinstance(value, list) or len(value) > MAX_COUNT:
        raise ConfigError(f"config key {key!r} must be a list of at most {MAX_COUNT} entries")
    return [(f"{key}[{i}]", item) for i, item in enumerate(value)]


def _grid(value: Any, key: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"config key {key!r} must be a [start, stop, count] triple")
    start, stop = _number(value[0], f"{key}[0]"), _number(value[1], f"{key}[1]")
    count = _count(value[2], f"{key}[2]", 1, MAX_GRID_COUNT)
    if not math.isfinite(stop - start):
        raise ConfigError(f"config key {key!r} spans more than the float range")
    return np.linspace(start, stop, count)


class ConfigObject:
    """One JSON object of a scenario config, read one typed value at a time.

    ``path`` is the object's key path ("" at the top level). Numbers must be
    finite JSON numbers, not strings or bools; counts must be integers within
    their caps. A key that is absent or null reads as ``default``, and is
    rejected as required when no default is given.
    """

    def __init__(self, data: Any, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(f"config key {path!r} must be an object")
        self.data = data
        self.path = path

    def key(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def _read(self, name: str, default: Any, reader: Callable[[Any, str], Any]) -> Any:
        value = self.data.get(name)
        if value is not None:
            return reader(value, self.key(name))
        if default is _REQUIRED:
            raise ConfigError(f"config key {self.key(name)!r} is required")
        return default

    def number(self, name: str, default: Any = _REQUIRED) -> float:
        return self._read(name, default, _number)

    def count(self, name: str, default: Any = _REQUIRED, low: int = 1) -> int:
        return self._read(name, default, lambda value, key: _count(value, key, low, MAX_COUNT))

    def object(self, name: str, default: Any = _REQUIRED) -> "ConfigObject":
        return self._read(name, default, ConfigObject)

    def entries(self, name: str, default: Any = _REQUIRED) -> list[tuple[str, Any]]:
        """(key path, value) of each entry of a list."""
        return self._read(name, default, _entries)

    def numbers(self, name: str, default: Any = _REQUIRED) -> list[float]:
        return self._read(
            name, default, lambda value, key: [_number(x, where) for where, x in _entries(value, key)]
        )

    def grid(self, name: str, default: Any = _REQUIRED) -> np.ndarray:
        """np.linspace(a, b, n) of an [a, b, n] triple."""
        return self._read(name, default, _grid)

    def build(self, cls: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """cls(*args, **kwargs), its ValueError reported as a ConfigError.

        Constructors start each validation message with the offending
        attribute ("hbar must be ..."), so the report names its full key path.
        """
        try:
            return cls(*args, **kwargs)
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ConfigError(f"config key {self.key(name)!r} {rest}") from None


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

    def to_dict(self) -> dict:
        return {
            "hbar": self.hbar,
            "c": self.c,
            "eps0": self.eps0,
            "mu": self.mu,
            "Gamma": self.Gamma,
            "m": self.m,
        }

    @classmethod
    def from_dict(cls, data: dict, path: str = "units") -> "UnitSystem":
        obj = ConfigObject(data, path)
        return obj.build(cls, **{k: obj.number(k) for k in ("hbar", "c", "eps0", "mu", "Gamma", "m")})


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

    def field_at(self, t: float) -> float:
        return self.B0 if self.t_on <= t <= self.t_off else 0.0

    def knots(self) -> tuple[float, ...]:
        return (self.t_on, self.t_off)

    def integral(self, t0: float, t1: float) -> float:
        overlap = min(t1, self.t_off) - max(t0, self.t_on)
        return self.B0 * overlap if overlap > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {"shape": "rectangular", "B0": self.B0, "t_on": self.t_on, "t_off": self.t_off}


@dataclass(frozen=True)
class SmoothBumpPulse:
    """Plateau B0 with cosine ramps of width ``ramp`` at both ends.

    B(t) vanishes outside [t_on, t_off] and the ramps are C1 smoothsteps, so
    the analytic integral over the full support is B0 * (t_off - t_on - ramp).
    Window integrals are evaluated by adaptive quadrature piecewise between
    the ramp knots, to 1e-10 relative accuracy.
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

    def field_at(self, t: float) -> float:
        if t <= self.t_on or t >= self.t_off:
            return 0.0
        if t < self.t_on + self.ramp:
            return 0.5 * self.B0 * (1.0 - math.cos(math.pi * (t - self.t_on) / self.ramp))
        if t > self.t_off - self.ramp:
            return 0.5 * self.B0 * (1.0 - math.cos(math.pi * (self.t_off - t) / self.ramp))
        return self.B0

    def knots(self) -> tuple[float, ...]:
        return (self.t_on, self.t_on + self.ramp, self.t_off - self.ramp, self.t_off)

    def integral(self, t0: float, t1: float) -> float:
        lo = max(t0, self.t_on)
        hi = min(t1, self.t_off)
        if lo >= hi:
            return 0.0
        points = [lo] + [k for k in self.knots() if lo < k < hi] + [hi]
        total = 0.0
        for a, b in zip(points[:-1], points[1:]):
            value, _ = quad(self.field_at, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)
            total += value
        return total

    def to_dict(self) -> dict:
        return {
            "shape": "smooth-bump",
            "B0": self.B0,
            "t_on": self.t_on,
            "t_off": self.t_off,
            "ramp": self.ramp,
        }


PulseProfile = Union[RectangularPulse, SmoothBumpPulse]


def pulse_from_dict(data: dict, path: str = "pulse") -> PulseProfile:
    obj = ConfigObject(data, path)
    shape = data.get("shape")
    if shape == "rectangular":
        return obj.build(RectangularPulse, *(obj.number(k) for k in ("B0", "t_on", "t_off")))
    if shape == "smooth-bump":
        return obj.build(SmoothBumpPulse, *(obj.number(k) for k in ("B0", "t_on", "t_off", "ramp")))
    raise ConfigError(f"config key {obj.key('shape')!r} must be 'rectangular' or 'smooth-bump'")


def pulse_integral_B(pulse: PulseProfile, t0: float, t1: float) -> float:
    """Time integral of B(t) over [t0, t1].

    Rectangular pulses integrate exactly; smooth bumps use adaptive
    quadrature to 1e-10 relative accuracy. The integral is additive over
    adjacent windows.
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
        return np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)

    def reversed(self) -> "PlanarPath":
        return PlanarPath(self.vertices[::-1].copy(), closed=self.closed)

    @classmethod
    def from_dict(cls, data: dict, path: str = "path") -> "PlanarPath":
        obj = ConfigObject(data, path)
        vertices = []
        for key, vertex in obj.entries("vertices"):
            if not isinstance(vertex, list) or len(vertex) != 2:
                raise ConfigError(f"config key {key!r} must be an [x, y] pair")
            vertices.append([_number(vertex[0], f"{key}[0]"), _number(vertex[1], f"{key}[1]")])
        closed = data.get("closed", False)
        if closed is not None and not isinstance(closed, bool):
            raise ConfigError(f"config key {obj.key('closed')!r} must be true or false")
        return obj.build(cls, np.asarray(vertices, dtype=float), bool(closed))

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

    ``extra_field`` is a hook for arbitrary z-independent charge
    distributions: a callable mapping an (N, 2) array of points to the (N, 2)
    planar field it adds to the line-charge superposition. Only line charges
    ship as concrete sources, and the hook is excluded from JSON
    serialization.
    """

    charges: list[LineCharge] = field(default_factory=list)
    pulse: PulseProfile | None = None
    units: UnitSystem = field(default_factory=UnitSystem)
    extra_field: Callable[[np.ndarray], np.ndarray] | None = None

    def to_dict(self) -> dict:
        if self.extra_field is not None:
            raise ValueError("custom field callbacks are not serializable")
        out: dict = {
            "charges": [{"x": c.x, "y": c.y, "lambda": c.lam} for c in self.charges],
            "units": self.units.to_dict(),
        }
        if self.pulse is not None:
            out["pulse"] = self.pulse.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "field") -> "FieldConfig":
        obj = ConfigObject(data, path)
        charges = []
        for key, entry in obj.entries("charges", []):
            charge = ConfigObject(entry, key)
            charges.append(LineCharge(charge.number("x"), charge.number("y"), charge.number("lambda")))
        pulse, units = data.get("pulse"), data.get("units")
        return cls(
            charges=charges,
            pulse=None if pulse is None else pulse_from_dict(pulse, obj.key("pulse")),
            units=UnitSystem() if units is None else UnitSystem.from_dict(units, obj.key("units")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FieldConfig":
        return cls.from_dict(json.loads(text))


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
    if cfg.extra_field is not None:
        out = out + np.asarray(cfg.extra_field(flat), dtype=float).reshape(flat.shape)
    return out.reshape(pts.shape)


def eval_A(cfg: FieldConfig, p) -> np.ndarray:
    """Effective gauge potential A = c^-2 (-E_y, E_x) at p.

    Same broadcasting and singularity behaviour as eval_E; |A| = |E| / c^2
    pointwise by construction.
    """
    E = eval_E(cfg, p)
    A = np.stack([-E[..., 1], E[..., 0]], axis=-1)
    return A / cfg.units.c**2


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


def _midpoint_rule(cfg: FieldConfig, starts: np.ndarray, ends: np.ndarray, n_sub: int) -> np.ndarray:
    """Integral of A . dr along each straight segment starts[i] -> ends[i].

    Each segment is split into ``n_sub`` equal pieces sampled at their
    midpoints (composite midpoint rule); one eval_A call covers every sample.

    Raises
    ------
    SingularPoint
        If a segment's start, end or sample point comes within
        SINGULAR_DISTANCE of a charge; the error carries the index of the
        segment (for a vertex shared by two segments, the one it starts).
    """
    if n_sub < 1:
        raise ValueError("n_sub must be at least 1")
    deltas = ends - starts
    t = (np.arange(n_sub) + 0.5) / n_sub
    pts = starts[:, None, :] + t[None, :, None] * deltas[:, None, :]
    flat = pts.reshape(-1, 2)
    endpoints = np.concatenate([starts, ends])
    for charge in cfg.charges:
        dv = endpoints - charge.position
        rv2 = dv[:, 0] ** 2 + dv[:, 1] ** 2
        if np.any(rv2 < SINGULAR_DISTANCE**2):
            k = int(np.argmin(rv2))
            raise SingularPoint(endpoints[k], segment=k % len(starts))
        diff = flat - charge.position
        r2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
        if np.any(r2 < SINGULAR_DISTANCE**2):
            k = int(np.argmin(r2))
            raise SingularPoint(flat[k], segment=k // n_sub)
    A = eval_A(cfg, flat).reshape(pts.shape)
    return np.einsum("snk,sk->s", A, deltas) / n_sub


def line_integral_A(cfg: FieldConfig, path: PlanarPath, n_sub: int = 32) -> float:
    """Line integral of A along the polyline by composite midpoint quadrature.

    Each segment is split into ``n_sub`` equal pieces sampled at midpoints.
    For a closed loop the exact value is lambda_enc / (eps0 c^2); the midpoint
    rule converges to it at second order in 1/n_sub. Reversing the path
    negates the result.

    Raises
    ------
    SingularPoint
        If any path vertex or sample point comes within SINGULAR_DISTANCE of
        a charge; the error carries the offending segment index.
    """
    verts = path.vertices
    return float(_midpoint_rule(cfg, verts[:-1], verts[1:], n_sub).sum())
