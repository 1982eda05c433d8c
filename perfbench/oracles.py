"""Output oracles: each returns a list of problems (empty when the output is right).

Tolerances follow tests/test_acceptance.py where a criterion covers the same
relation, and are derived the same way (a stated error model with margin)
where it does not:

* closed-form identities that the program evaluates directly (visibility,
  phase split, detector probabilities) hold to 1e-12 after the 17-digit CSV
  round trip;
* the fringe fit recovers its ground truth to 1e-9 (criterion 10);
* classical and spin-1/2 vectors coincide to 1e-8 (criterion 5);
* RK4 agrees with the closed forms, across speed profiles and with the
  enclosed-charge law, to 1e-6 (criteria 6 to 8);
* the gauge residual stays below 1e-6 (criterion 9);
* gamma_geo = -Omega/2 holds to (pi / n_steps)^2: the polygon's chord error
  falls as n_steps^-2 and this bound is 20x the worst error seen on a fine
  (theta, phi_D) grid at every step count the workloads use. Criterion 4
  checks the same law at 1e4 steps with a looser 2e-4.
"""

from __future__ import annotations

import json
import math

EXACT = 1e-12
FIT = 1e-9
CORRESPONDENCE = 1e-8
INTEGRATOR = 1e-6
GAUGE = 1e-6
PULSE_QUADRATURE = 1e-9  # relative; the program's quadrature is asked for 1e-10
EPS_VIS = 1e-12

INTERFERENCE_COLUMNS = ["theta", "phi_D", "phi", "visibility", "gamma_dyn", "gamma_geo", "omega_gc"]


def _cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def parse_output(data: bytes, fmt: str) -> tuple[list[str], list[list], dict]:
    """(columns, rows, extras) of a CLI output file; undefined cells become NaN."""
    if fmt == "json":
        payload = json.loads(data)
        rows = [[math.nan if v is None else v for v in row] for row in payload["rows"]]
        extras = {k: v for k, v in payload.items() if k not in ("mode", "columns", "rows")}
        return payload["columns"], rows, extras
    text = data.decode("ascii")
    if not text.endswith("\n") or "\r" in text:
        raise ValueError("CSV must end with a bare newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [[_cell(c) for c in line.split(",")] for line in lines[1:]], {}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _circular(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def linspace(a: float, b: float, n: int) -> list[float]:
    """Grid points as numpy.linspace computes them (step form, exact endpoint)."""
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n - 1)] + [b]


def pulse_integral(pulse: dict, t0: float, t1: float) -> float:
    """Analytic time integral of the pulse field over [t0, t1]."""

    def cumulative(t: float) -> float:
        b0, on, off = pulse["B0"], pulse["t_on"], pulse["t_off"]
        if pulse["shape"] == "rectangular":
            return b0 * (min(max(t, on), off) - on)
        r = pulse["ramp"]
        if t <= on:
            return 0.0
        if t <= on + r:
            x = t - on
            return 0.5 * b0 * (x - r / math.pi * math.sin(math.pi * x / r))
        if t <= off - r:
            return 0.5 * b0 * r + b0 * (t - on - r)
        if t <= off:
            u = off - t
            return b0 * (off - on - r) - 0.5 * b0 * ((u) - r / math.pi * math.sin(math.pi * u / r))
        return b0 * (off - on - r)

    return cumulative(t1) - cumulative(t0)


def dipole_vector(mu: float, theta: float, azimuth: float) -> tuple[float, float, float]:
    st = math.sin(theta)
    return (mu * st * math.cos(azimuth), mu * st * math.sin(azimuth), mu * math.cos(theta))


def _max_diff(u, v) -> float:
    return max(abs(a - b) for a, b in zip(u, v))


# --------------------------------------------------------------------------
# interference rows (sweep and interfere)


def check_interference(check: dict, columns, rows) -> list[str]:
    problems = []
    if columns != INTERFERENCE_COLUMNS:
        return [f"columns {columns}"]
    scale = check["scale"]
    thetas = [v * scale for v in linspace(*check["grid_theta"])]
    phids = [v * scale for v in linspace(*check["grid_phid"])]
    if len(rows) != len(thetas) * len(phids):
        return [f"{len(rows)} rows for a {len(thetas)}x{len(phids)} grid"]
    geo_tol = (math.pi / check["steps"]) ** 2
    for k, row in enumerate(rows):
        theta, phi_d, phi, nu, g_dyn, g_geo, omega = row
        where = f"row {k}"
        if not (_close(theta, thetas[k // len(phids)], EXACT) and _close(phi_d, phids[k % len(phids)], EXACT)):
            problems.append(f"{where}: grid point ({theta}, {phi_d})")
            continue
        re, im = math.cos(phi_d), math.cos(theta) * math.sin(phi_d)
        if not _close(nu, math.hypot(re, im), EXACT):
            problems.append(f"{where}: visibility {nu} != hypot(cos phi_D, cos theta sin phi_D)")
        if not _close(g_dyn, phi_d * math.cos(theta), EXACT):
            problems.append(f"{where}: gamma_dyn {g_dyn} != phi_D cos theta")
        if math.hypot(re, im) < EPS_VIS:
            if not (math.isnan(phi) and math.isnan(g_geo)):
                problems.append(f"{where}: phase should be undefined at zero visibility")
            continue
        if math.isnan(phi) or _circular(phi, math.atan2(im, re)) > EXACT:
            problems.append(f"{where}: phase {phi} != arg(cos phi_D + i cos theta sin phi_D)")
            continue
        if not _close(g_dyn + g_geo, phi, EXACT):
            problems.append(f"{where}: gamma_dyn + gamma_geo != phi")
        if theta <= 0.0 or theta >= math.pi:
            if omega != 0.0:
                problems.append(f"{where}: omega_gc {omega} at a pole")
        elif abs(phi_d) < math.pi / 2 and not (not math.isnan(omega) and _close(g_geo, -0.5 * omega, geo_tol)):
            problems.append(f"{where}: gamma_geo {g_geo} != -omega_gc/2 ({omega})")
    return problems


# --------------------------------------------------------------------------
# scenario-mix


def check_chi_scan(check: dict, columns, rows, extras, stdout: str) -> list[str]:
    if "phi" in check:
        phi, nu = check["phi"], check["visibility"]
    else:
        re = math.cos(check["phi_d"])
        im = math.cos(check["theta"]) * math.sin(check["phi_d"])
        phi, nu = math.atan2(im, re), math.hypot(re, im)
    n = check["chi_samples"]
    if columns != ["chi", "P1", "P2"] or len(rows) != n:
        return [f"chi-scan shape {columns} x {len(rows)}"]
    problems = []
    for j, (chi, p1, p2) in enumerate(rows):
        if not _close(chi, 2.0 * math.pi * j / n, EXACT):
            problems.append(f"row {j}: chi {chi}")
        if not _close(p1, 0.5 * (1.0 + nu * math.cos(phi + chi)), EXACT) or not _close(p1 + p2, 1.0, 2**-52):
            problems.append(f"row {j}: detector probabilities ({p1}, {p2})")
    if extras:
        fit_phi, fit_nu = extras["fit"]["phi"], extras["fit"]["visibility"]
    else:
        fields = dict(item.split("=") for item in stdout.strip().removeprefix("fit: ").split())
        fit_phi, fit_nu = float(fields["phi"]), float(fields["visibility"])
    if not _close(fit_nu, nu, FIT):
        problems.append(f"fitted visibility {fit_nu} != {nu}")
    if nu > FIT and (fit_phi is None or math.isnan(fit_phi) or _circular(fit_phi, phi) > FIT):
        problems.append(f"fitted phase {fit_phi} != {phi}")
    return problems


def check_series(check: dict, rows) -> list[str]:
    """One sab/ac series on its own: time or path columns and gamma."""
    problems = []
    units = check["units"]
    if check["mode"].startswith("sab"):
        times = linspace(0.0, check["t_max"], check["n_t"])
        if len(rows) != len(times):
            return [f"{len(rows)} rows, expected {len(times)}"]
        gamma_per_field = -(units["Gamma"] if check["mode"].endswith("classical") else 2.0 * units["mu"] / units["hbar"])
        for k, row in enumerate(rows):
            t, gamma = row[0], row[1]
            expected = gamma_per_field * pulse_integral(check["pulse"], 0.0, t)
            if not _close(t, times[k], EXACT) or not _close(gamma, expected, PULSE_QUADRATURE * (1.0 + abs(expected))):
                problems.append(f"row {k}: (t, gamma) = ({t}, {gamma}), expected ({times[k]}, {expected})")
    else:
        verts = check["vertices"]
        if len(rows) != len(verts):
            return [f"{len(rows)} rows for {len(verts)} vertices"]
        s = 0.0
        for k, row in enumerate(rows):
            if k:
                s += math.hypot(verts[k][0] - verts[k - 1][0], verts[k][1] - verts[k - 1][1])
            if not (_close(row[0], s, EXACT * (1.0 + s)) and row[1] == verts[k][0] and row[2] == verts[k][1]):
                problems.append(f"row {k}: path columns {row[:3]}")
    return problems


def check_series_pair(classical: dict, c_rows, quantum_rows) -> list[str]:
    """Classical and spin-1/2 series coincide for Gamma = 2 mu / hbar."""
    if len(c_rows) != len(quantum_rows):
        return ["classical and quantum series differ in length"]
    mu = classical["units"]["mu"]
    gamma_col = 1 if classical["mode"].startswith("sab") else 3
    problems = []
    for k, (c, q) in enumerate(zip(c_rows, quantum_rows)):
        if not _close(c[gamma_col], q[gamma_col], EXACT * (1.0 + abs(q[gamma_col]))):
            problems.append(f"row {k}: gamma {c[gamma_col]} (classical) != {q[gamma_col]} (quantum)")
        elif _max_diff([v / mu for v in c[-3:]], q[-3:]) > CORRESPONDENCE:
            problems.append(f"row {k}: mu/|mu| {c[-3:]} != Bloch vector {q[-3:]}")
    return problems


def check_nondispersive(check: dict, columns, rows) -> list[str]:
    if columns != ["velocity", "contained", "gamma", "valid"] or len(rows) != len(check["velocities"]):
        return [f"nondispersive shape {columns} x {len(rows)}"]
    units, pulse = check["units"], check["pulse"]
    expected = -2.0 * units["mu"] / units["hbar"] * pulse_integral(pulse, 0.0, max(pulse["t_off"], 0.0))
    problems = []
    if any(row[2] != rows[0][2] for row in rows):
        problems.append("gamma column is not constant")
    if not _close(rows[0][2], expected, PULSE_QUADRATURE * (1.0 + abs(expected))):
        problems.append(f"gamma {rows[0][2]} != {expected}")
    for k, (v, contained, _, valid) in enumerate(rows):
        if v != check["velocities"][k] or valid is not contained:
            problems.append(f"row {k}: {rows[k]}")
    return problems


# --------------------------------------------------------------------------
# velocity-check


def check_velocity(spec: dict, result: dict) -> list[str]:
    problems = []
    reference = result["closed_form"]
    for k, final in enumerate(result["finals"]):
        if _max_diff(final, reference) > INTEGRATOR:
            problems.append(f"profile {k}: RK4 {final} != closed form {reference}")
        if k and _max_diff(final, result["finals"][0]) > INTEGRATOR:
            problems.append(f"profile {k}: result depends on the speed profile")
    units = spec["units"]
    if spec["closed"]:
        gamma = -units["Gamma"] * spec["lambda_enc"] / (units["eps0"] * units["c"] ** 2)
        exact = dipole_vector(units["mu"], spec["theta"], spec["azimuth"] + gamma)
        for k, final in enumerate(result["finals"]):
            if _max_diff(final, exact) > INTEGRATOR:
                problems.append(f"profile {k}: closed loop {final} != enclosed-charge law {exact}")
    if not result["gauge_residual"] < GAUGE:
        problems.append(f"gauge residual {result['gauge_residual']}")
    if _max_diff(result["sab_rk4"], result["sab_closed_form"]) > INTEGRATOR:
        problems.append(f"pulsed RK4 {result['sab_rk4']} != closed form {result['sab_closed_form']}")
    expected = -units["Gamma"] * pulse_integral(spec["pulse"], 0.0, spec["t"])
    if _circular(result["sab_gamma"], expected) > PULSE_QUADRATURE * (1.0 + abs(expected)):
        problems.append(f"pulsed closed-form angle {result['sab_gamma']} != {expected}")
    return problems


# --------------------------------------------------------------------------


def check_op(specs: list[dict], index: int, outputs: dict) -> list[str]:
    """Problems with the first output of scenario ``index``.

    ``outputs`` maps scenario index to its first output; a series pair is
    compared once both of its requests have completed.
    """
    try:
        return _check_op(specs, index, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_op(specs: list[dict], index: int, outputs: dict) -> list[str]:
    spec = specs[index]
    output = outputs[index]
    if spec["kind"] == "velocity":
        return check_velocity(spec, output)
    status, data, stdout = output
    check = spec["check"]
    if status != spec["expect"]:
        return [f"exit status {status}, expected {spec['expect']}"]
    if check["mode"] == "reject":
        return []
    columns, rows, extras = parse_output(data, spec["format"])
    mode = check["mode"]
    if mode in ("sweep", "interfere"):
        return check_interference(check, columns, rows)
    if mode == "chi-scan":
        return check_chi_scan(check, columns, rows, extras, stdout)
    if mode == "nondispersive":
        return check_nondispersive(check, columns, rows)
    problems = check_series(check, rows)
    partner = spec.get("pair")
    if not problems and mode.endswith("classical") and partner in outputs and outputs[partner][0] == 0:
        _, q_rows, _ = parse_output(outputs[partner][1], specs[partner]["format"])
        problems += check_series_pair(check, rows, q_rows)
    return problems
