"""Command-line front end: precession series, interference sweeps, chi-scan
fringe experiments, and nondispersivity reports driven by JSON scenario
configs, which spinphase.config reads and checks.

Output is deterministic: CSV cells use 17 significant digits with '.' decimal
separators and bare newline line endings, and JSON has the layout of
json.dumps(indent=2) with floats written by float.__repr__, so repeated runs
of the same config are byte identical. Undefined phases serialize as NaN in
CSV and null in JSON. Exit status: 0 on success, 2 on configuration errors, 3
on numerical domain errors.

The precession series build their rows on plain floats. An ac series takes
the exact line integrals of all path segments from one array pass, and a
path that passes a charge is reported with its lowest offending segment.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .classical import _moment
from .config import _KEYS, MODES, Scenario, _load_config, build_scenario
from .dispersion import nondispersivity_sweep
from .errors import ConfigError, InsufficientSamples, SpinPhaseError, UndefinedPhase
from .fields import _row_norms, _segment_integrals, pulse_integral_B
from .interferometry import (
    CSV_COLUMNS,
    EPS_VIS,
    compute_interference,
    detector_probabilities,
    nonideal_phase,
    nonideal_visibility,
)
from .quantum import _bloch, rotate_z, spinor_from_angles

TWO_PI = 2.0 * math.pi


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


def _json_cell(value: Any) -> str:
    """One row cell as json.dumps writes it (floats by float.__repr__)."""
    if type(value) is float:
        return float.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    return float.__repr__(float(value))


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_rows(rows: Sequence[Sequence[Any]]) -> str:
    """The rows member's value in the layout of json.dumps(indent=2)."""
    if not rows:
        return "[]"
    body = ",\n    ".join(
        "[\n      " + ",\n      ".join(map(_json_cell, row)) + "\n    ]" if row else "[]" for row in rows
    )
    # a non-finite float is the only cell whose text holds "inf" or "nan"
    if "inf" in body or "nan" in body:
        raise ValueError("Out of range float values are not JSON compliant")
    return "[\n    " + body + "\n  ]"


def _json_text(mode: str, columns: Sequence[str], rows: Sequence[Sequence[Any]], extras: dict | None) -> str:
    """json.dumps of {mode, columns, rows, **extras} with indent=2 and
    allow_nan=False, plus a newline; the rows are written cell by cell rather
    than through json's pure-Python indenting encoder."""

    def member(key: str, value: Any) -> str:
        # json.dumps escapes newlines within strings, so each one breaks a line
        return f"  {json.dumps(key)}: " + json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")

    members = [member("mode", mode), member("columns", list(columns)), f'  "rows": {_json_rows(rows)}']
    members += [member(key, value) for key, value in (extras or {}).items()]
    return "{\n" + ",\n".join(members) + "\n}\n"


def _run_interfere(sc: Scenario):
    return list(CSV_COLUMNS), [list(compute_interference(sc.theta, sc.phi_d, sc.solid_angle_steps).values())], None


def _run_sweep(sc: Scenario):
    rows = []
    for theta in sc.grid_theta:
        for phi_d in sc.grid_phid:
            rows.append(list(compute_interference(float(theta), float(phi_d), sc.solid_angle_steps).values()))
    return list(CSV_COLUMNS), rows, None


def _run_chi_scan(sc: Scenario):
    if sc.phi is not None:  # the ground truth; a config gives phi and visibility together
        phi, nu = sc.phi, sc.visibility
    else:
        nu = nonideal_visibility(sc.theta, sc.phi_d)
        try:
            phi = nonideal_phase(sc.theta, sc.phi_d)
        except UndefinedPhase:
            phi = 0.0  # the fringe is flat; the phase value is immaterial
    chis = [TWO_PI * j / sc.chi_samples for j in range(sc.chi_samples)]
    rows = [[chi, *detector_probabilities(phi, nu, chi)] for chi in chis]
    fit_phi, fit_nu = fit_fringe([(chi, p1) for chi, p1, _ in rows])
    extras = {"fit": {"phi": fit_phi, "visibility": fit_nu}}
    return ["chi", "P1", "P2"], rows, extras


def _sab_series(sc: Scenario, factor: float):
    """(t,) and the precession angle at each time of the grid."""
    pulse = sc.field.pulse
    t_max = sc.t_max if sc.t_max is not None else max(pulse.t_off, 0.0)
    for t in np.linspace(0.0, t_max, sc.n_t).tolist():
        yield [t], factor * pulse_integral_B(pulse, 0.0, t)


def _ac_series(sc: Scenario, factor: float):
    """(s, x, y) and the cumulative precession angle at each path vertex.

    The exact line integrals of all segments come from one call; values
    too large for a float come out non-finite, without a RuntimeWarning, and
    the caller reports the first such row. So do the segment lengths, and a
    path length past the float range raises SpinPhaseError at its row.
    """
    verts = sc.path.vertices
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        segments = _segment_integrals(sc.field, verts[:-1], verts[1:]).tolist()
        lengths = _row_norms(verts[1:] - verts[:-1]).tolist()
    points = verts.tolist()
    gamma = 0.0
    arclength = 0.0
    yield [0.0, *points[0]], gamma
    for i, segment in enumerate(segments):
        gamma += factor * segment
        arclength += lengths[i]
        if not math.isfinite(arclength):
            raise SpinPhaseError(f"path length {arclength} overflows the float range")
        yield [arclength, *points[i + 1]], gamma


def _run_series(sc: Scenario):
    """Precession series: a source of (leading cells, gamma) pairs, the time
    grid for sab modes or the path for ac modes, and a row formula for the
    precessed state, the classical moment or the spin's Bloch vector."""
    family, flavour = sc.mode.split("-")
    units, theta = sc.field.units, sc.theta
    if flavour == "classical":
        factor = -units.Gamma
        names = ["mu_x", "mu_y", "mu_z"]

        def state(gamma: float) -> tuple[float, float, float]:
            return _moment(units.mu, theta, sc.azimuth + gamma)

    else:
        factor = units.spin_factor
        names = ["n_x", "n_y", "n_z"]
        s0 = spinor_from_angles(theta, sc.azimuth)

        def state(gamma: float) -> tuple[float, float, float]:
            return _bloch(rotate_z(s0, gamma))

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
    fc = sc.field
    gamma, contained = nondispersivity_sweep(sc.packet, sc.velocities, sc.region, fc.pulse, fc.units, sc.k_sigma)
    # a row is valid (inside the nondispersive regime) exactly when its packet is contained
    rows = [[v, inside, gamma, inside] for v, inside in zip(sc.velocities, contained)]
    return ["velocity", "contained", "gamma", "valid"], rows, None


_RUNNERS = {
    "interfere": _run_interfere,
    "sweep": _run_sweep,
    "chi-scan": _run_chi_scan,
    "nondispersive": _run_nondispersive,
    **dict.fromkeys(("sab-classical", "sab-quantum", "ac-classical", "ac-quantum"), _run_series),
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


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reports a malformed or unknown flag as a
    ConfigError naming it, so main exits 2 instead of raising SystemExit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read any argument starting "-<digit>" or "-.<digit>" as a value, so
        # "--phi-d -1e-3" and "--grid-phid -3:3:5" parse like their "=" forms;
        # argparse's own pattern takes only plain decimals. No flag of this
        # parser starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one scenario: the flags merged into the config file's keys."""
    try:
        args = _PARSER.parse_args(argv)
        cfg = _load_config(args.config)
        cfg.update((key, value) for key, value in vars(args).items() if key in _KEYS and value is not None)
        return run(build_scenario(cfg, args.degrees))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinPhaseError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
