"""Scenario configs: the one module that checks a config's content.

A config is one JSON object naming a mode and its inputs. Every value is read
by one of a few typed, finite-only readers, and every rejection is a
ConfigError naming the value's key path, e.g. ``field.charges[0].x``.
build_scenario then checks the mode's required keys and value ranges, so the
runners take a Scenario as it is.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .dispersion import GaussianPacket, RegionInterval
from .errors import ConfigError
from .fields import FieldConfig, LineCharge, PlanarPath, PulseProfile, RectangularPulse, SmoothBumpPulse, UnitSystem

#: Cap on the point count of each sweep grid axis.
MAX_GRID_COUNT = 1_000

#: Cap on every other config count: n_t, chi_samples, n_sub,
#: solid_angle_steps, and the lengths of the velocity, vertex and charge lists.
MAX_COUNT = 100_000

#: The keys each mode requires, in the order they are checked; "field.pulse"
#: requires a field with a pulse. A chi-scan given either of the ground-truth
#: keys phi and visibility requires both of them instead.
REQUIRED_KEYS = {
    "sab-classical": ("field", "field.pulse", "theta"),
    "ac-classical": ("field", "theta", "path"),
    "sab-quantum": ("field", "field.pulse", "theta"),
    "ac-quantum": ("field", "theta", "path"),
    "interfere": ("theta", "phi_d"),
    "sweep": ("grid_theta", "grid_phid"),
    "chi-scan": ("theta", "phi_d"),
    "nondispersive": ("field", "field.pulse", "packet", "region", "velocities"),
}

MODES = tuple(REQUIRED_KEYS)

#: (mode prefix, key, test, what the value must be), checked after the
#: required keys on the modes whose name starts with the prefix.
_RANGES = (
    ("chi-scan", "visibility", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("sab-", "t_max", lambda v: v >= 0.0, "must be nonnegative"),
    ("nondispersive", "velocities", len, "must be nonempty"),
    ("nondispersive", "field.pulse.t_on", lambda v: v >= 0.0, "must be nonnegative in mode 'nondispersive'"),
    ("nondispersive", "k_sigma", lambda v: v > 0.0, "must be positive"),
)

_ANGLE_KEYS = ("theta", "azimuth", "phi_d", "phi", "grid_theta", "grid_phid")

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
        return self._read(name, default, lambda value, key: [_number(x, where) for where, x in _entries(value, key)])

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

    def make(self, cls: Callable[..., Any], *names: str) -> Any:
        """cls of the numbers at the given keys, in order, built as by build."""
        return self.build(cls, *(self.number(name) for name in names))


def pulse_from_dict(data: Any, path: str = "pulse") -> PulseProfile:
    obj = ConfigObject(data, path)
    shape = data.get("shape")
    if shape == "rectangular":
        return obj.make(RectangularPulse, "B0", "t_on", "t_off")
    if shape == "smooth-bump":
        return obj.make(SmoothBumpPulse, "B0", "t_on", "t_off", "ramp")
    raise ConfigError(f"config key {obj.key('shape')!r} must be 'rectangular' or 'smooth-bump'")


def path_from_dict(data: Any, path: str) -> PlanarPath:
    obj = ConfigObject(data, path)
    vertices = []
    for key, vertex in obj.entries("vertices"):
        if not isinstance(vertex, list) or len(vertex) != 2:
            raise ConfigError(f"config key {key!r} must be an [x, y] pair")
        vertices.append([_number(vertex[0], f"{key}[0]"), _number(vertex[1], f"{key}[1]")])
    closed = data.get("closed", False)
    if closed is not None and not isinstance(closed, bool):
        raise ConfigError(f"config key {obj.key('closed')!r} must be true or false")
    return obj.build(PlanarPath, np.asarray(vertices, dtype=float), bool(closed))


def field_from_dict(data: Any, path: str = "field") -> FieldConfig:
    obj = ConfigObject(data, path)
    charges = [
        ConfigObject(entry, key).make(LineCharge, "x", "y", "lambda") for key, entry in obj.entries("charges", [])
    ]
    pulse = data.get("pulse")
    pulse = None if pulse is None else pulse_from_dict(pulse, obj.key("pulse"))
    units = obj.object("units", None)
    units = UnitSystem() if units is None else units.make(UnitSystem, "hbar", "c", "eps0", "mu", "Gamma", "m")
    return FieldConfig(charges, pulse, units)


@dataclasses.dataclass
class Scenario:
    """A validated run description (file config merged with flag overrides).

    Each field is a config key, and each default here is the only one.
    """

    mode: str
    out: Path
    format: str = "csv"
    field: FieldConfig | None = None
    theta: float | None = None
    azimuth: float = 0.0
    phi_d: float | None = None
    phi: float | None = None
    visibility: float | None = None
    path: PlanarPath | None = None
    grid_theta: np.ndarray | None = None
    grid_phid: np.ndarray | None = None
    chi_samples: int = 64
    t_max: float | None = None
    n_t: int = 101
    solid_angle_steps: int = 2048
    packet: GaussianPacket | None = None
    region: RegionInterval | None = None
    velocities: list[float] | None = None
    k_sigma: float = 5.0


#: Every config key: the Scenario fields, and n_sub, which is still read and
#: capped but has no effect.
_KEYS = frozenset(f.name for f in dataclasses.fields(Scenario)) | {"n_sub"}


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the parser goes
        raise ConfigError(f"config file is not valid JSON: {exc!r}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _check_mode(mode: str, values: dict) -> None:
    pulse = None if values["field"] is None else values["field"].pulse
    values = {**values, "field.pulse": pulse, "field.pulse.t_on": None if pulse is None else pulse.t_on}
    required = REQUIRED_KEYS[mode]
    if mode == "chi-scan" and (values["phi"] is not None or values["visibility"] is not None):
        if values["phi"] is None or values["visibility"] is None:
            raise ConfigError("chi-scan ground truth needs both keys 'phi' and 'visibility'")
        required = ()
    for key in required:
        if values[key] is None:
            raise ConfigError(f"mode {mode!r} requires config key {key!r}")
    for prefix, key, test, what in _RANGES:
        if mode.startswith(prefix) and values[key] is not None and not test(values[key]):
            raise ConfigError(f"config key {key!r} {what}")


def build_scenario(cfg: dict, degrees: bool) -> Scenario:
    """Read a config, flags already merged into its keys, as a Scenario.

    Every value goes through the typed readers of ConfigObject, so a flag
    and its config key are validated alike; then the mode's required keys and
    value ranges are checked. Keys left out take the Scenario defaults, and
    ``degrees`` converts the angle keys to radians.
    """
    unknown = sorted(set(cfg) - _KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    mode = cfg.get("mode")
    if mode not in MODES:
        raise ConfigError(f"config key 'mode' must be one of {', '.join(MODES)}; got {mode!r}")
    out = cfg.get("out")
    if not isinstance(out, str) or not out:
        raise ConfigError("config key 'out' is required and must be a file path")
    fmt = cfg.get("format")
    if fmt not in (None, "csv", "json"):
        raise ConfigError(f"config key 'format' must be 'csv' or 'json', got {fmt!r}")

    root = ConfigObject(cfg)
    field = None if cfg.get("field") is None else field_from_dict(cfg["field"], "field")
    units = field.units if field is not None else UnitSystem()
    values: dict[str, Any] = {"mode": mode, "out": Path(out), "format": fmt, "field": field}
    for key in ("theta", "azimuth", "phi_d", "phi", "visibility", "t_max", "k_sigma"):
        values[key] = root.number(key, None)
    for key, low in (("chi_samples", 3), ("n_t", 1), ("n_sub", 1), ("solid_angle_steps", 2)):
        values[key] = root.count(key, None, low)
    del values["n_sub"]
    values["grid_theta"] = root.grid("grid_theta", None)
    values["grid_phid"] = root.grid("grid_phid", None)
    values["velocities"] = root.numbers("velocities", None)
    values["path"] = None if cfg.get("path") is None else path_from_dict(cfg["path"], "path")
    packet = root.object("packet", None)
    values["packet"] = None if packet is None else packet.build(
        GaussianPacket, packet.number("x0"), packet.number("v", 0.0), packet.number("sigma0"),
        packet.number("m", units.m), packet.number("hbar", units.hbar),
    )
    region = root.object("region", None)
    values["region"] = None if region is None else region.make(RegionInterval, "x_min", "x_max")
    _check_mode(mode, values)

    for key in _ANGLE_KEYS if degrees else ():
        if values[key] is not None:
            values[key] = values[key] * (math.pi / 180.0)
    return Scenario(**{key: value for key, value in values.items() if value is not None})
