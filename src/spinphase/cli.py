"""Command-line front end: precession series, interference sweeps, chi-scan
fringe experiments, and nondispersivity reports driven by JSON scenario
configs.

Output is deterministic: CSV cells use 17 significant digits with '.' decimal
separators and bare newline line endings, so repeated runs of the same config
are byte identical. Undefined phases serialize as NaN in CSV and null in JSON.
Exit status: 0 on success, 2 on configuration errors, 3 on numerical domain
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .classical import ClassicalDipole
from .dispersion import GaussianPacket, RegionInterval, nondispersivity_sweep
from .errors import ConfigError, InsufficientSamples, SpinPhaseError, UndefinedPhase
from .fields import ConfigObject, FieldConfig, PlanarPath, UnitSystem, line_integral_A, pulse_integral_B
from .interferometry import (
    CSV_COLUMNS,
    EPS_VIS,
    compute_interference,
    detector_probabilities,
    nonideal_phase,
    nonideal_visibility,
)
from .quantum import bloch_of, rotate_z, spinor_from_angles

TWO_PI = 2.0 * math.pi

MODES = (
    "sab-classical",
    "ac-classical",
    "sab-quantum",
    "ac-quantum",
    "interfere",
    "sweep",
    "chi-scan",
    "nondispersive",
)

_ANGLE_KEYS = ("theta", "azimuth", "phi_d", "phi", "grid_theta", "grid_phid")


@dataclass
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
    n_sub: int = 32
    solid_angle_steps: int = 2048
    packet: GaussianPacket | None = None
    region: RegionInterval | None = None
    velocities: list[float] | None = None
    k_sigma: float = 5.0


_KEYS = frozenset(f.name for f in dataclasses.fields(Scenario))


def fit_fringe(samples: Sequence[tuple[float, float]]) -> tuple[float | None, float]:
    """Least-squares fit of P1 = (1 + nu cos(phi + chi)) / 2 to a chi scan.

    Uses the linear reformulation P1 = 1/2 + a cos chi + b sin chi with
    nu = 2 sqrt(a^2 + b^2) and phi = atan2(-b, a). The phase is None
    (undefined) when the fitted visibility falls below EPS_VIS.

    Raises InsufficientSamples unless there are at least 3 distinct chi values
    spanning at least half a fringe period (pi).
    """
    chi = np.array([c for c, _ in samples], dtype=float)
    y = np.array([p for _, p in samples], dtype=float)
    if np.unique(chi).size < 3:
        raise InsufficientSamples("need at least 3 samples at distinct chi values")
    if chi.max() - chi.min() < math.pi - 1e-9:
        raise InsufficientSamples("chi samples must span at least half a period")
    design = np.column_stack([np.cos(chi), np.sin(chi)])
    (a, b), *_ = np.linalg.lstsq(design, y - 0.5, rcond=None)
    nu = 2.0 * math.hypot(a, b)
    if nu < EPS_VIS:
        return None, nu
    return math.atan2(-b, a), nu


def _format_cell(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return float(value)


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(mode: str, columns: Sequence[str], rows: Sequence[Sequence[Any]], extras: dict | None) -> str:
    payload: dict = {
        "mode": mode,
        "columns": list(columns),
        "rows": [[_json_safe(v) for v in row] for row in rows],
    }
    if extras:
        payload.update(extras)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _require(scenario: Scenario, attr: str, key: str) -> Any:
    value = getattr(scenario, attr)
    if value is None:
        raise ConfigError(f"mode {scenario.mode!r} requires config key {key!r}")
    return value


def _require_pulse(scenario: Scenario):
    fc = _require(scenario, "field", "field")
    if fc.pulse is None:
        raise ConfigError(f"mode {scenario.mode!r} requires config key 'field.pulse'")
    return fc


def _run_interfere(sc: Scenario):
    theta = _require(sc, "theta", "theta")
    phi_d = _require(sc, "phi_d", "phi_d")
    result = compute_interference(theta, phi_d, sc.solid_angle_steps)
    return list(CSV_COLUMNS), [list(result.values())], None


def _run_sweep(sc: Scenario):
    grid_theta = _require(sc, "grid_theta", "grid_theta")
    grid_phid = _require(sc, "grid_phid", "grid_phid")
    rows = []
    for theta in grid_theta:
        for phi_d in grid_phid:
            rows.append(list(compute_interference(float(theta), float(phi_d), sc.solid_angle_steps).values()))
    return list(CSV_COLUMNS), rows, None


def _run_chi_scan(sc: Scenario):
    if sc.phi is not None or sc.visibility is not None:
        if sc.phi is None or sc.visibility is None:
            raise ConfigError("chi-scan ground truth needs both keys 'phi' and 'visibility'")
        phi, nu = sc.phi, sc.visibility
    else:
        theta = _require(sc, "theta", "theta")
        phi_d = _require(sc, "phi_d", "phi_d")
        nu = nonideal_visibility(theta, phi_d)
        try:
            phi = nonideal_phase(theta, phi_d)
        except UndefinedPhase:
            phi = 0.0  # the fringe is flat; the phase value is immaterial
    if not 0.0 <= nu <= 1.0:
        raise ConfigError("config key 'visibility' must lie in [0, 1]")
    rows = []
    samples = []
    for j in range(sc.chi_samples):
        chi = TWO_PI * j / sc.chi_samples
        p1, p2 = detector_probabilities(phi, nu, chi)
        rows.append([chi, p1, p2])
        samples.append((chi, p1))
    fit_phi, fit_nu = fit_fringe(samples)
    extras = {"fit": {"phi": _json_safe(fit_phi), "visibility": _json_safe(fit_nu)}}
    return ["chi", "P1", "P2"], rows, extras


def _sab_series(sc: Scenario, factor: float):
    """(t,) and the precession angle at each time of the grid."""
    pulse = sc.field.pulse
    t_max = sc.t_max if sc.t_max is not None else max(pulse.t_off, 0.0)
    if t_max < 0.0:
        raise ConfigError("config key 't_max' must be nonnegative")
    for t in np.linspace(0.0, t_max, sc.n_t):
        yield [float(t)], factor * pulse_integral_B(pulse, 0.0, float(t))


def _ac_series(sc: Scenario, factor: float):
    """(s, x, y) and the cumulative precession angle at each path vertex."""
    path = _require(sc, "path", "path")
    verts = path.vertices
    gamma = 0.0
    arclength = 0.0
    yield [0.0, verts[0][0], verts[0][1]], gamma
    for i in range(path.n_segments):
        seg = PlanarPath(verts[i : i + 2])
        gamma += factor * line_integral_A(sc.field, seg, sc.n_sub)
        arclength += float(np.linalg.norm(verts[i + 1] - verts[i]))
        yield [arclength, verts[i + 1][0], verts[i + 1][1]], gamma


def _run_series(sc: Scenario):
    """Precession series: a source of (leading cells, gamma) pairs, the time
    grid for sab modes or the path for ac modes, and a row formula for the
    precessed state, the classical moment or the spin's Bloch vector."""
    family, flavour = sc.mode.split("-")
    units = (_require_pulse(sc) if family == "sab" else _require(sc, "field", "field")).units
    theta = _require(sc, "theta", "theta")
    if flavour == "classical":
        factor = -units.Gamma
        names = ["mu_x", "mu_y", "mu_z"]

        def state(gamma: float) -> np.ndarray:
            return ClassicalDipole(units.mu, theta, sc.azimuth + gamma).vector

    else:
        factor = -2.0 * units.mu / units.hbar
        names = ["n_x", "n_y", "n_z"]
        s0 = spinor_from_angles(theta, sc.azimuth)

        def state(gamma: float) -> np.ndarray:
            return bloch_of(rotate_z(s0, gamma))

    if family == "sab":
        leading, source = ["t"], _sab_series(sc, factor)
    else:
        leading, source = ["s", "x", "y"], _ac_series(sc, factor)
    rows = []
    for cells, gamma in source:
        if not math.isfinite(sc.azimuth + gamma):
            raise SpinPhaseError(f"precession angle {gamma} overflows the float range")
        rows.append([*cells, gamma, *state(gamma)])
    return [*leading, "gamma", *names], rows, None


def _run_nondispersive(sc: Scenario):
    fc = _require_pulse(sc)
    packet = _require(sc, "packet", "packet")
    region = _require(sc, "region", "region")
    velocities = _require(sc, "velocities", "velocities")
    if len(velocities) == 0:
        raise ConfigError("config key 'velocities' must be nonempty")
    if fc.pulse.t_on < 0.0:
        raise ConfigError("config key 'field.pulse.t_on' must be nonnegative in mode 'nondispersive'")
    if not sc.k_sigma > 0.0:
        raise ConfigError("config key 'k_sigma' must be positive")
    report = nondispersivity_sweep(packet, velocities, region, fc.pulse, fc.units, sc.k_sigma)
    rows = [[row.velocity, row.contained, row.gamma, row.valid] for row in report.rows]
    return list(report.columns), rows, None


_RUNNERS = {
    "interfere": _run_interfere,
    "sweep": _run_sweep,
    "chi-scan": _run_chi_scan,
    "sab-classical": _run_series,
    "sab-quantum": _run_series,
    "ac-classical": _run_series,
    "ac-quantum": _run_series,
    "nondispersive": _run_nondispersive,
}


def run(scenario: Scenario) -> int:
    """Execute a validated scenario and write its single output file.

    Undefined cells are None; any other non-finite cell means the inputs
    overflowed the float range, and nothing is written.
    """
    columns, rows, extras = _RUNNERS[scenario.mode](scenario)
    for row in rows:
        for name, value in zip(columns, row):
            if value is not None and not math.isfinite(value):
                raise SpinPhaseError(f"column {name!r} overflows the float range")
    if scenario.format == "json":
        text = _json_text(scenario.mode, columns, rows, extras)
    else:
        text = _csv_text(columns, rows)
    try:
        with open(scenario.out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"config key 'out' names a file that cannot be written: {exc}") from None
    if scenario.format == "csv" and extras and "fit" in extras:
        fit = extras["fit"]
        print(f"fit: phi={_format_cell(fit['phi'])} visibility={_format_cell(fit['visibility'])}")
    return 0


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


def build_scenario(args: argparse.Namespace) -> Scenario:
    """Merge the flags into the config file's keys and read the result.

    Every value goes through the typed readers of ConfigObject, so a flag
    and its config key are validated alike; keys left out take the Scenario
    defaults.
    """
    cfg = _load_config(args.config)
    cfg.update((key, value) for key, value in vars(args).items() if key in _KEYS and value is not None)
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
    field = cfg.get("field")
    field = None if field is None else FieldConfig.from_dict(field, "field")
    units = field.units if field is not None else UnitSystem()
    values: dict[str, Any] = {"mode": mode, "out": Path(out), "format": fmt, "field": field}
    for key in ("theta", "azimuth", "phi_d", "phi", "visibility", "t_max", "k_sigma"):
        values[key] = root.number(key, None)
    for key, low in (("chi_samples", 3), ("n_t", 1), ("n_sub", 1), ("solid_angle_steps", 2)):
        values[key] = root.count(key, None, low)
    values["grid_theta"] = root.grid("grid_theta", None)
    values["grid_phid"] = root.grid("grid_phid", None)
    values["velocities"] = root.numbers("velocities", None)
    path = cfg.get("path")
    values["path"] = None if path is None else PlanarPath.from_dict(path, "path")
    packet = root.object("packet", None)
    if packet is not None:
        values["packet"] = packet.build(
            GaussianPacket,
            x0=packet.number("x0"),
            v=packet.number("v", 0.0),
            sigma0=packet.number("sigma0"),
            m=packet.number("m", units.m),
            hbar=packet.number("hbar", units.hbar),
        )
    region = root.object("region", None)
    if region is not None:
        values["region"] = region.build(RegionInterval, region.number("x_min"), region.number("x_max"))

    if args.degrees:
        factor = math.pi / 180.0
        for key in _ANGLE_KEYS:
            if values[key] is not None:
                values[key] = values[key] * factor
    return Scenario(**{key: value for key, value in values.items() if value is not None})


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reports a malformed or unknown flag as a
    ConfigError naming it, so main exits 2 instead of raising SystemExit."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    def grid(text: str) -> list[float]:
        return [float(part) for part in text.split(":")]

    parser = _ArgumentParser(
        prog="spinphase",
        description="Precession and two-path interference simulations for planar dipole setups.",
    )
    parser.add_argument("--mode", choices=MODES, help="scenario to run (overrides the config file)")
    parser.add_argument("--config", type=Path, help="JSON scenario config file")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--theta", type=float, help="initial tilt from +z (radians)")
    parser.add_argument("--phi-d", dest="phi_d", type=float, help="ideal phase difference (radians)")
    parser.add_argument("--grid-theta", dest="grid_theta", type=grid, help="theta sweep grid as a:b:n")
    parser.add_argument("--grid-phid", dest="grid_phid", type=grid, help="phi_D sweep grid as a:b:n")
    parser.add_argument("--chi-samples", dest="chi_samples", type=int, help="number of chi-scan samples")
    parser.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(build_scenario(build_parser().parse_args(argv)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinPhaseError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
