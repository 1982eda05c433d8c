"""CLI scenarios: config handling, output formats, determinism, fringe fit."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinphase
from spinphase import (
    ClassicalDipole,
    PlanarPath,
    bloch_of,
    detector_probabilities,
    line_integral_A,
    nonideal_phase,
    nonideal_visibility,
    rotate_z,
    spinor_from_angles,
)
from spinphase.classical import _moment
from spinphase.cli import MODES, _json_text, fit_fringe, main
from spinphase.config import MAX_COUNT, field_from_dict
from spinphase.errors import InsufficientSamples
from spinphase.interferometry import circular_distance
from spinphase.quantum import _bloch

NATURAL_UNITS = {"hbar": 1.0, "c": 1.0, "eps0": 1.0, "mu": 1.0, "Gamma": 2.0, "m": 1.0}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


class TestFitFringe:
    def test_noiseless_round_trip(self):
        phi, nu = 0.6154797086703873, 0.8660254037844387
        samples = []
        for j in range(64):
            chi = 2.0 * math.pi * j / 64
            p1, _ = detector_probabilities(phi, nu, chi)
            samples.append((chi, p1))
        fit_phi, fit_nu = fit_fringe(samples)
        assert circular_distance(fit_phi, phi) < 1e-10
        assert fit_nu == pytest.approx(nu, abs=1e-10)

    def test_flat_scan_has_undefined_phase(self):
        samples = [(2.0 * math.pi * j / 16, 0.5) for j in range(16)]
        fit_phi, fit_nu = fit_fringe(samples)
        assert fit_phi is None
        assert fit_nu == pytest.approx(0.0, abs=1e-12)

    def test_pi_phase_recovered_on_circle(self):
        samples = []
        for j in range(32):
            chi = 2.0 * math.pi * j / 32
            p1, _ = detector_probabilities(math.pi, 1.0, chi)
            samples.append((chi, p1))
        fit_phi, fit_nu = fit_fringe(samples)
        assert circular_distance(fit_phi, math.pi) < 1e-10
        assert fit_nu == pytest.approx(1.0, abs=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_fringe([(0.0, 0.6), (1.0, 0.4)])

    def test_narrow_span(self):
        with pytest.raises(InsufficientSamples):
            fit_fringe([(0.0, 0.6), (0.5, 0.5), (1.0, 0.4)])


class TestInterfereMode:
    def test_ideal_case_row(self, tmp_path):
        out = tmp_path / "row.csv"
        cfg = write_config(
            tmp_path, "cfg.json", {"mode": "interfere", "theta": 0.0, "phi_d": 1.3, "out": str(out)}
        )
        assert main(["--config", str(cfg)]) == 0
        header, rows = read_csv(out)
        assert header == ["theta", "phi_D", "phi", "visibility", "gamma_dyn", "gamma_geo", "omega_gc"]
        assert float(rows[0][2]) == pytest.approx(1.3, abs=1e-12)
        assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)

    def test_flags_override_file(self, tmp_path):
        out = tmp_path / "row.csv"
        cfg = write_config(
            tmp_path, "cfg.json", {"mode": "interfere", "theta": 0.0, "phi_d": 0.1, "out": str(out)}
        )
        assert main(["--config", str(cfg), "--phi-d", "0.7"]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.7)

    def test_degrees_flag(self, tmp_path):
        out = tmp_path / "row.csv"
        assert (
            main(
                [
                    "--mode",
                    "interfere",
                    "--theta",
                    "0",
                    "--phi-d",
                    "45",
                    "--degrees",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_undefined_phase_serializes_nan(self, tmp_path):
        out = tmp_path / "row.csv"
        assert (
            main(
                [
                    "--mode",
                    "interfere",
                    "--theta",
                    str(math.pi / 2),
                    "--phi-d",
                    str(math.pi / 2),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out)
        assert rows[0][2] == "NaN"
        assert rows[0][5] == "NaN"
        assert rows[0][6] == "NaN"

    def test_json_null_for_undefined(self, tmp_path):
        out = tmp_path / "row.json"
        assert (
            main(
                [
                    "--mode",
                    "interfere",
                    "--theta",
                    str(math.pi / 2),
                    "--phi-d",
                    str(math.pi / 2),
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["rows"][0][2] is None


class TestSweepMode:
    def test_rows_match_library_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "sweep",
                "grid_theta": [0.0, math.pi / 2, 3],
                "grid_phid": [math.pi / 4, math.pi / 4, 1],
                "out": str(out),
            },
        )
        assert main(["--config", str(cfg)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        for row in rows:
            theta, phi_d = float(row[0]), float(row[1])
            assert float(row[2]) == pytest.approx(nonideal_phase(theta, phi_d), abs=1e-12)
            assert float(row[3]) == pytest.approx(nonideal_visibility(theta, phi_d), abs=1e-12)

    def test_grid_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "--mode",
                    "sweep",
                    "--grid-theta",
                    "0:1.5:4",
                    "--grid-phid",
                    "0.2:0.8:2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 8

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("interfere", "--phi-d", "-1e-3"),
            ("interfere", "--phi-d", "-.5"),
            ("sweep", "--grid-phid", "-3:3:5"),
            ("sweep", "--grid-phid", "-1e-1:3:5"),
        ],
    )
    def test_negative_value_in_space_form(self, tmp_path, mode, flag, value):
        # "--flag -value" must parse like "--flag=-value", not as a missing value
        fixed = ["--theta", "0.5"] if mode == "interfere" else ["--grid-theta", "0:3:3"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["--mode", mode, *fixed, flag, value, "--out", str(spaced)]) == 0
        assert main(["--mode", mode, *fixed, f"{flag}={value}", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        _, rows = read_csv(spaced)
        assert float(rows[0][1]) == float(value.split(":")[0])

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--mode", "sweep", "--grid-theta", "0:3.1:5", "--grid-phid=-3:3:7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestChiScanMode:
    def test_fit_recovers_ground_truth(self, tmp_path):
        out = tmp_path / "scan.json"
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "chi-scan",
                "phi": 0.4,
                "visibility": 0.5,
                "chi_samples": 64,
                "format": "json",
                "out": str(out),
            },
        )
        assert main(["--config", str(cfg)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["visibility"] == pytest.approx(0.5, abs=1e-6)
        assert payload["fit"]["phi"] == pytest.approx(0.4, abs=1e-6)
        assert len(payload["rows"]) == 64

    def test_scan_from_tilt_configuration(self, tmp_path):
        out = tmp_path / "scan.json"
        theta, phi_d = math.pi / 4, math.pi / 4
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "chi-scan",
                "theta": theta,
                "phi_d": phi_d,
                "format": "json",
                "out": str(out),
            },
        )
        assert main(["--config", str(cfg)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["phi"] == pytest.approx(nonideal_phase(theta, phi_d), abs=1e-9)
        assert payload["fit"]["visibility"] == pytest.approx(
            nonideal_visibility(theta, phi_d), abs=1e-9
        )

    def test_csv_prints_fit_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert (
            main(
                [
                    "--mode",
                    "chi-scan",
                    "--theta",
                    "0.5",
                    "--phi-d",
                    "0.3",
                    "--chi-samples",
                    "32",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out.startswith("fit: phi=")
        header, rows = read_csv(out)
        assert header == ["chi", "P1", "P2"]
        assert len(rows) == 32
        for row in rows:
            assert float(row[1]) + float(row[2]) == 1.0


class TestPrecessionModes:
    def field_payload(self):
        return {
            "charges": [],
            "pulse": {"shape": "rectangular", "B0": 1.0, "t_on": 0.0, "t_off": 1.0},
            "units": NATURAL_UNITS,
        }

    def test_sab_quantum_matches_classical_columns(self, tmp_path):
        base = {
            "field": self.field_payload(),
            "theta": math.pi / 3,
            "t_max": 1.0,
            "n_t": 5,
        }
        out_c = tmp_path / "c.csv"
        out_q = tmp_path / "q.csv"
        cfg_c = write_config(tmp_path, "c.json", {**base, "mode": "sab-classical", "out": str(out_c)})
        cfg_q = write_config(tmp_path, "q.json", {**base, "mode": "sab-quantum", "out": str(out_q)})
        assert main(["--config", str(cfg_c)]) == 0
        assert main(["--config", str(cfg_q)]) == 0
        _, rows_c = read_csv(out_c)
        _, rows_q = read_csv(out_q)
        # Gamma = 2 mu / hbar in these units, so the series coincide
        for rc, rq in zip(rows_c, rows_q):
            assert float(rc[1]) == pytest.approx(float(rq[1]), abs=1e-12)
            for k in (2, 3, 4):
                assert float(rc[k]) == pytest.approx(float(rq[k]), abs=1e-8)
        # final precession angle: gamma = -2 * integral B = -2
        assert float(rows_q[-1][1]) == pytest.approx(-2.0, abs=1e-12)

    def test_ac_quantum_loop(self, tmp_path):
        ang = np.linspace(0.0, 2.0 * math.pi, 65)
        verts = [[math.cos(a), math.sin(a)] for a in ang[:-1]] + [[1.0, 0.0]]
        out = tmp_path / "loop.csv"
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "ac-quantum",
                "field": {"charges": [{"x": 0.0, "y": 0.0, "lambda": 1.0}], "units": NATURAL_UNITS},
                "path": {"vertices": verts, "closed": True},
                "theta": math.pi / 4,
                "n_sub": 64,
                "out": str(out),
            },
        )
        assert main(["--config", str(cfg)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 65
        assert float(rows[-1][3]) == pytest.approx(-2.0, abs=1e-6)

    def test_nondispersive_mode(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "nondispersive",
                "field": self.field_payload(),
                "packet": {"x0": 0.0, "sigma0": 0.2},
                "region": {"x_min": -50.0, "x_max": 50.0},
                "velocities": [0.0, 1.0, 2.0, 400.0],
                "out": str(out),
            },
        )
        assert main(["--config", str(cfg)]) == 0
        header, rows = read_csv(out)
        assert header == ["velocity", "contained", "gamma", "valid"]
        assert [row[3] for row in rows] == ["true", "true", "true", "false"]
        # a row is valid exactly when its packet is contained
        assert all(row[3] == row[1] for row in rows)
        gammas = {row[2] for row in rows}
        assert len(gammas) == 1

    def test_nondispersive_huge_velocities_overflow_quietly(self, tmp_path):
        # the centers x0 + v t overflow to +-inf at t_off = 3: both rows leave
        # the region, and no RuntimeWarning is raised on the way
        out = tmp_path / "sweep.csv"
        field = self.field_payload()
        field["pulse"] = {"shape": "rectangular", "B0": 1.0, "t_on": 0.5, "t_off": 3.0}
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "nondispersive",
                "field": field,
                "packet": {"x0": 0.0, "sigma0": 0.2},
                "region": {"x_min": -50.0, "x_max": 50.0},
                "velocities": [1e308, -1e308],
                "out": str(out),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg)]) == 0
        _, rows = read_csv(out)
        assert [(row[0], row[1], row[3]) for row in rows] == [("1e+308", "false", "false"), ("-1e+308", "false", "false")]

    @pytest.mark.parametrize("mode", ["sab-classical", "sab-quantum"])
    def test_smooth_series_with_subnormal_ramp(self, tmp_path, mode):
        # every ramp angle is pi times a ratio to ramp, so a subnormal ramp
        # neither overflows nor raises
        field = self.field_payload()
        field["pulse"] = {"shape": "smooth-bump", "B0": 1.0, "t_on": 0.0, "t_off": 1.0, "ramp": 5e-324}
        out = tmp_path / "s.json"
        config = {"mode": mode, "field": field, "theta": 0.5, "n_t": 11, "format": "json", "out": str(out)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(write_config(tmp_path, "cfg.json", config))]) == 0
        payload = json.loads(out.read_text())
        assert_finite_output(out, "json", "")
        assert [row[1] for row in payload["rows"]] == [-2.0 * t for t in np.linspace(0.0, 1.0, 11).tolist()]


class TestSeriesOracles:
    """The float series against the library calls they replace."""

    @pytest.mark.parametrize("mode", ["ac-classical", "ac-quantum"])
    def test_ac_columns_match_one_call_per_segment(self, tmp_path, mode):
        # 120 segments of 600 samples span two midpoint-rule blocks
        rng = np.random.default_rng(11)
        pool = rng.uniform(-3.0, 3.0, size=(200, 2))
        # start at a segment whose 1-D norm and norm(axis=1) differ in the
        # last bit, so that the s column tells the two apart
        d = np.diff(pool, axis=0)
        k = int(np.argmax(np.linalg.norm(d, axis=1) != [np.linalg.norm(x) for x in d]))
        verts = pool[k : k + 121]
        units = {"hbar": 1.0, "c": 1.3, "eps0": 0.7, "mu": 1.1, "Gamma": -1.7, "m": 1.0}
        charges = [{"x": x, "y": y, "lambda": lam} for x, y, lam in rng.uniform(-0.5, 0.5, size=(3, 3)).tolist()]
        field = {"charges": charges, "units": units}
        out = tmp_path / "ac.json"
        config = {"mode": mode, "field": field, "path": {"vertices": verts.tolist()}, "theta": 0.7,
                  "azimuth": 0.2, "n_sub": 600, "format": "json", "out": str(out)}
        assert main(["--config", str(write_config(tmp_path, "cfg.json", config))]) == 0
        cfg = field_from_dict(field)
        factor = -units["Gamma"] if mode == "ac-classical" else -2.0 * units["mu"] / units["hbar"]
        gamma, s = 0.0, 0.0
        expected = [[0.0, 0.0]]
        for i in range(len(verts) - 1):
            gamma += factor * line_integral_A(cfg, PlanarPath(verts[i : i + 2]))
            s += float(np.linalg.norm(verts[i + 1] - verts[i]))
            expected.append([s, gamma])
        rows = json.loads(out.read_text())["rows"]
        assert [[row[0], row[3]] for row in rows] == expected
        assert [row[1:3] for row in rows] == verts.tolist()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        mu=st.floats(1e-3, 1e3),
        theta=st.floats(-10.0, 10.0),
        azimuth=st.floats(-10.0, 10.0),
        gamma=st.floats(-1e6, 1e6),
    )
    def test_row_helpers_match_library_vectors(self, mu, theta, azimuth, gamma):
        moment = _moment(mu, theta, azimuth + gamma)
        assert moment == tuple(ClassicalDipole(mu, theta, azimuth + gamma).vector)
        # the array expression ClassicalDipole.vector evaluated before the helper
        st_, a = math.sin(theta), azimuth + gamma
        assert moment == tuple(mu * np.array([st_ * math.cos(a), st_ * math.sin(a), math.cos(theta)]))
        s0 = spinor_from_angles(theta, azimuth)
        assert _bloch(rotate_z(s0, gamma)) == tuple(bloch_of(rotate_z(s0, gamma)))


#: Row cells of every type the runners produce, and the float extremes.
json_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]),
)


def plain(value):
    """The Python value json.dumps takes for a numpy scalar."""
    return value.item() if isinstance(value, np.generic) else value


class TestJsonText:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        mode=st.sampled_from(MODES),
        columns=st.lists(st.text(max_size=4), max_size=4),
        rows=st.lists(st.lists(json_cells, max_size=5), max_size=5),
        fit=st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "phi": st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
                    "visibility": st.floats(0.0, 1.0),
                }
            ),
        ),
    )
    def test_matches_json_dumps(self, mode, columns, rows, fit):
        extras = None if fit is None else {"fit": fit}
        payload = {"mode": mode, "columns": columns, "rows": [[plain(v) for v in row] for row in rows]}
        payload.update(extras or {})
        assert _json_text(mode, columns, rows, extras) == json.dumps(payload, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
    def test_non_finite_cell_rejected_like_json(self, value):
        with pytest.raises(ValueError):
            json.dumps([value], allow_nan=False)
        with pytest.raises(ValueError):
            _json_text("interfere", ["phi"], [[value]], None)

    def test_chi_scan_with_undefined_fit_phase(self, tmp_path):
        out = tmp_path / "c.json"
        config = {"mode": "chi-scan", "phi": 0.3, "visibility": 0.0, "chi_samples": 5, "format": "json",
                  "out": str(out)}
        assert main(["--config", str(write_config(tmp_path, "cfg.json", config))]) == 0
        text = out.read_text()
        payload = json.loads(text)
        assert payload["fit"]["phi"] is None
        assert text == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def changed(base, key, value):
    """A deep copy of the config with the dotted key set to value."""
    cfg = copy.deepcopy(base)
    *parents, last = key.split(".")
    target = cfg
    for part in parents:
        target = target[part]
    target[last] = value
    return cfg


def dropped(base, key):
    """A deep copy of the config without the dotted key."""
    cfg = copy.deepcopy(base)
    *parents, last = key.split(".")
    target = cfg
    for part in parents:
        target = target[part]
    del target[last]
    return cfg


PULSE = {"shape": "rectangular", "B0": 1.0, "t_on": 0.0, "t_off": 1.0}
LOOP = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
INTERFERE = {"mode": "interfere", "theta": 0.5, "phi_d": 0.3}
SWEEP = {"mode": "sweep", "grid_theta": [0.0, 1.0, 3], "grid_phid": [0.0, 1.0, 3]}
CHI_SCAN = {"mode": "chi-scan", "theta": 0.5, "phi_d": 0.3}
SAB = {"mode": "sab-classical", "field": {"pulse": PULSE}, "theta": 0.5}
AC = {
    "mode": "ac-quantum",
    "field": {"charges": [{"x": 0.0, "y": 0.0, "lambda": 1.0}]},
    "path": {"vertices": LOOP, "closed": True},
    "theta": 0.5,
}
NONDISPERSIVE = {
    "mode": "nondispersive",
    "field": {"pulse": PULSE},
    "packet": {"x0": 0.0, "sigma0": 0.2},
    "region": {"x_min": -50.0, "x_max": 50.0},
    "velocities": [0.0, 1.0],
}

#: (id, config, extra flags, key path the error must name); every case exits 2.
REJECTIONS = [
    # escaped main as an uncaught exception in earlier releases
    ("grid-entry-string", changed(SWEEP, "grid_theta", [0.0, "pi", 5]), [], "grid_theta[1]"),
    ("velocity-string", changed(NONDISPERSIVE, "velocities", [0.1, "fast"]), [], "velocities[1]"),
    (
        "charge-coordinate-string",
        changed(AC, "field.charges", [{"x": "zero", "y": 0.0, "lambda": 1.0}]),
        [],
        "field.charges[0].x",
    ),
    ("pulse-reversed", changed(SAB, "field.pulse.t_on", 2.0), [], "field.pulse.t_on"),
    ("hbar-zero", changed(SAB, "field.units", dict(NATURAL_UNITS, hbar=0.0)), [], "field.units.hbar"),
    ("theta-nan", changed(INTERFERE, "theta", math.nan), [], "theta"),
    ("theta-inf", changed(INTERFERE, "theta", math.inf), [], "theta"),
    ("theta-400-digits", changed(INTERFERE, "theta", 10**400), [], "theta"),
    ("theta-flag-nan", INTERFERE, ["--theta", "nan"], "theta"),
    ("theta-flag-inf", INTERFERE, ["--theta", "inf"], "theta"),
    ("field-list", changed(SAB, "field", [PULSE]), [], "field"),
    ("pulse-list", changed(SAB, "field.pulse", [PULSE]), [], "field.pulse"),
    ("charges-number", changed(AC, "field.charges", 5), [], "field.charges"),
    ("n-sub-zero", changed(AC, "n_sub", 0), [], "n_sub"),
    ("pulse-before-zero", changed(NONDISPERSIVE, "field.pulse.t_on", -0.5), [], "field.pulse.t_on"),
    # exited 0 with wrong rows in earlier releases
    ("velocities-string", changed(NONDISPERSIVE, "velocities", "12"), [], "velocities"),
    ("velocity-nan", changed(NONDISPERSIVE, "velocities", [math.nan, 1.0]), [], "velocities[0]"),
    ("t-max-nan", changed(SAB, "t_max", math.nan), [], "t_max"),
    ("grid-count-fraction", changed(SWEEP, "grid_theta", [0.0, 1.0, 2.5]), [], "grid_theta[2]"),
    ("k-sigma-negative", changed(NONDISPERSIVE, "k_sigma", -1.0), [], "k_sigma"),
    ("vertex-string", changed(AC, "path.vertices", [["1", 0.0], [0.0, 1.0]]), [], "path.vertices[0][0]"),
    ("theta-bool", changed(INTERFERE, "theta", True), [], "theta"),
    # finite values whose arithmetic raised inside the computation
    ("sigma0-squared-overflows", changed(NONDISPERSIVE, "packet.sigma0", 1e200), [], "packet.sigma0"),
    ("sigma0-squared-underflows", changed(NONDISPERSIVE, "packet.sigma0", 1e-200), [], "packet.sigma0"),
    ("c-squared-overflows", changed(AC, "field.units", dict(NATURAL_UNITS, c=1e200)), [], "field.units.c"),
    (
        "ramp-phase-overflows",
        changed(SAB, "field.pulse", dict(PULSE, shape="smooth-bump", t_on=-1e308, t_off=1e308, ramp=1.2e308)),
        [],
        "field.pulse.ramp",
    ),
    ("grid-span-overflows", changed(SWEEP, "grid_theta", [-1e308, 1e308, 3]), [], "grid_theta"),
    ("out-empty", INTERFERE, ["--out", ""], "out"),
    ("out-unwritable", INTERFERE, ["--out", "no-such-directory/x.csv"], "out"),
    ("path-not-closed", changed(AC, "path.vertices", LOOP[:-1]), [], "path.closed"),
    # size caps, rejected before anything is allocated
    ("n-t-cap", changed(SAB, "n_t", 10**12), [], "n_t"),
    ("chi-samples-cap", CHI_SCAN, ["--chi-samples", str(10**12)], "chi_samples"),
    ("n-sub-cap", changed(AC, "n_sub", 10**12), [], "n_sub"),
    ("solid-angle-steps-cap", changed(INTERFERE, "solid_angle_steps", 10**12), [], "solid_angle_steps"),
    ("grid-count-cap", changed(SWEEP, "grid_phid", [0.0, 1.0, 10**12]), [], "grid_phid[2]"),
    ("grid-flag-count-cap", SWEEP, [f"--grid-theta=0:1:{10**12}"], "grid_theta[2]"),
    ("velocities-cap", changed(NONDISPERSIVE, "velocities", [0.0] * (MAX_COUNT + 1)), [], "velocities"),
    ("vertices-cap", changed(AC, "path.vertices", [[1.0, 0.0]] * (MAX_COUNT + 1)), [], "path.vertices"),
    # each mode's required keys (the README's table), each one left out
    *(
        (f"{mode}-without-{key}", dropped(dict(base, mode=mode), key), [], key)
        for base, modes, keys in [
            (INTERFERE, ["interfere"], ["theta", "phi_d"]),
            (SWEEP, ["sweep"], ["grid_theta", "grid_phid"]),
            (CHI_SCAN, ["chi-scan"], ["theta", "phi_d"]),
            (SAB, ["sab-classical", "sab-quantum"], ["field", "field.pulse", "theta"]),
            (AC, ["ac-classical", "ac-quantum"], ["field", "theta", "path"]),
            (NONDISPERSIVE, ["nondispersive"], ["field", "field.pulse", "packet", "region", "velocities"]),
        ]
        for mode in modes
        for key in keys
    ),
    # value ranges a mode needs
    ("chi-scan-phi-without-visibility", changed(CHI_SCAN, "phi", 0.3), [], "visibility"),
    ("visibility-above-1", {"mode": "chi-scan", "phi": 0.3, "visibility": 1.5}, [], "visibility"),
    ("t-max-negative", changed(SAB, "t_max", -1.0), [], "t_max"),
    ("velocities-empty", changed(NONDISPERSIVE, "velocities", []), [], "velocities"),
    ("k-sigma-zero", changed(NONDISPERSIVE, "k_sigma", 0.0), [], "k_sigma"),
]


class TestErrors:
    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"mode": "interfere", "out": str(tmp_path / "x.csv")})
        assert main(["--config", str(cfg)]) == 2
        assert "'theta'" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"mode": "interfere", "bogus": 1})
        assert main(["--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_out_exits_2(self, capsys):
        assert main(["--mode", "interfere", "--theta", "0", "--phi-d", "1"]) == 2
        assert "'out'" in capsys.readouterr().err

    def test_singular_path_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "ac-quantum",
                "field": {"charges": [{"x": 0.0, "y": 0.0, "lambda": 1.0}], "units": NATURAL_UNITS},
                "path": {"vertices": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
                "theta": 0.5,
                "out": str(tmp_path / "x.csv"),
            },
        )
        assert main(["--config", str(cfg)]) == 3
        assert "segment" in capsys.readouterr().err

    def test_singular_path_names_lowest_segment(self, tmp_path, capsys):
        # the first charge meets segment 3, the second segment 1
        charges = [{"x": 0.0, "y": -3.0, "lambda": 1.0}, {"x": 0.0, "y": 3.0, "lambda": 1.0}]
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "ac-classical",
                "field": {"charges": charges, "units": NATURAL_UNITS},
                "path": {"vertices": [[-1.0, 5.0], [-1.0, 3.0], [1.0, 3.0], [1.0, -3.0], [-1.0, -3.0]]},
                "theta": 0.5,
                "n_sub": 31,
                "out": str(tmp_path / "x.csv"),
            },
        )
        assert main(["--config", str(cfg)]) == 3
        assert "singular point (0.0, 3.0) (path segment 1)" in capsys.readouterr().err

    def test_near_charge_chord_names_lowest_segment(self, tmp_path, capsys):
        # segment 3 passes 5e-10 from the first charge and segment 1 passes
        # 4e-10 from the second, both between their vertices; no midpoint
        # sample came that close, so such paths used to exit 0
        charges = [{"x": 0.0, "y": -1.0, "lambda": 1.0}, {"x": 0.0, "y": 1.0, "lambda": 1.0}]
        verts = [[-1.0, 3.0], [-1.0, 1.0 + 4e-10], [1.0, 1.0 + 4e-10], [1.0, -1.0 + 5e-10], [-1.0, -1.0 + 5e-10]]
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "ac-classical",
                "field": {"charges": charges, "units": NATURAL_UNITS},
                "path": {"vertices": verts},
                "theta": 0.5,
                "out": str(tmp_path / "x.csv"),
            },
        )
        assert main(["--config", str(cfg)]) == 3
        assert f"singular point (0.0, {1.0 + 4e-10!r}) (path segment 1)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def overflow_config(self, tmp_path, third_vertex):
        # segment 0's angle, -2e8 times an integral near 3e300, overflows;
        # segment 1 ends at the third vertex
        return write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "ac-quantum",
                "field": {"charges": [{"x": 0.0, "y": 0.0, "lambda": 1e301}], "units": dict(NATURAL_UNITS, mu=1e8)},
                "path": {"vertices": [[2.0, 0.0], [0.0, 2.0], third_vertex]},
                "theta": 0.5,
                "n_sub": 1,
                "out": str(tmp_path / "x.csv"),
            },
        )

    def test_overflow_before_a_field_overflow_raises_no_warning(self, tmp_path, capsys):
        # segment 1's one sample lies 1.2e-9 from the charge, where the field
        # itself overflows; the series stops at row 1 without a RuntimeWarning
        cfg = self.overflow_config(tmp_path, [2.4e-9, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg)]) == 3
        assert "precession angle -inf overflows" in capsys.readouterr().err

    def test_path_length_overflow_raises_no_warning(self, tmp_path, capsys):
        # the second segment is 1e308 long and its squared length overflows;
        # the series stops at that row without a RuntimeWarning
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "mode": "ac-classical",
                "field": {"charges": [], "units": NATURAL_UNITS},
                "path": {"vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1e308]]},
                "theta": 0.5,
                "out": str(tmp_path / "x.csv"),
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg)]) == 3
        assert "path length inf overflows" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_singular_segment_after_an_overflowing_row(self, tmp_path, capsys):
        # segment 1 samples the charge: all segments are evaluated before the
        # first row is checked, so the singular segment is reported
        cfg = self.overflow_config(tmp_path, [0.0, -2.0])
        assert main(["--config", str(cfg)]) == 3
        assert "(path segment 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["{", "[" * 100_000 + "]" * 100_000, "1" * 5000, "[]"], ids=["truncated", "deep", "long-int", "list"]
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "config file" in capsys.readouterr().err

    def test_bad_mode_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"mode": "frobnicate"})
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--theta", "abc"], "--theta"),
            (["--grid-theta", "0:x:5"], "--grid-theta"),
            (["--chi-samples", "2.5"], "--chi-samples"),
            (["--mode", "nope"], "--mode"),
            (["--bogus"], "--bogus"),
            (["--theta", "--phi-d", "0.3"], "--theta"),
            (["--phi-d", "-x"], "--phi-d"),
        ],
        ids=["theta-text", "grid-entry-text", "count-fraction", "mode-choice", "unknown-flag", "missing-value",
             "dash-text-value"],
    )
    def test_malformed_flag_returns_2(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, "cfg.json", dict(INTERFERE, out=str(out)))
        assert main(["--config", str(cfg), *flags]) == 2  # a SystemExit would fail the test
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "--grid-theta" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, flags, key",
        [case[1:] for case in REJECTIONS],
        ids=[case[0] for case in REJECTIONS],
    )
    def test_rejection_names_key_path(self, tmp_path, capsys, config, flags, key):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, "cfg.json", dict(config, out=str(out)))
        assert main(["--config", str(cfg), *flags]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags, key",
        [case[1:] for case in REJECTIONS if case[0] != "out-unwritable"],
        ids=[case[0] for case in REJECTIONS if case[0] != "out-unwritable"],
    )
    def test_rejection_comes_before_any_runner(self, tmp_path, monkeypatch, capsys, config, flags, key):
        def unreachable(scenario):
            raise AssertionError(f"ran the {scenario.mode} runner")

        monkeypatch.setattr(spinphase.cli, "_RUNNERS", dict.fromkeys(MODES, unreachable))
        cfg = write_config(tmp_path, "cfg.json", dict(config, out=str(tmp_path / "x.csv")))
        assert main(["--config", str(cfg), *flags]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "config",
        [
            changed(SAB, "field.pulse", dict(PULSE, B0=1e308, t_off=10.0)),
            changed(AC, "field.units", dict(NATURAL_UNITS, mu=1e300, hbar=1e-300)),
            changed(INTERFERE, "phi_d", 1e308),
        ],
        ids=["sab-angle", "ac-angle", "solid-angle"],
    )
    def test_float_overflow_exits_3(self, tmp_path, capsys, config):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path, "cfg.json", dict(config, out=str(out)))
        assert main(["--config", str(cfg)]) == 3
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


# --------------------------------------------------------------------------
# property test: arbitrary JSON-shaped configs

#: Cells that may be undefined (NaN in CSV, null in JSON).
UNDEFINED_COLUMNS = {"phi", "gamma_geo", "omega_gc"}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def mostly(valid):
    """Values of the valid strategy, with junk in one draw of 32."""
    return st.integers(0, 31).flatmap(lambda i: junk if i == 0 else valid)


#: Finite and non-finite values at the edges of the float range.
EXTREMES = [math.nan, math.inf, -math.inf, 10**400, 1e308, -1e308, 1e-200, 5e-324, 0.0, -1.0]


def numbers(low=0.1, high=3.0):
    """Mostly floats in [low, high], which reach the computations; in one
    draw of eight an extreme value or an arbitrary float or integer."""
    extreme = st.one_of(st.sampled_from(EXTREMES), st.floats(), st.integers())
    return mostly(st.integers(0, 7).flatmap(lambda i: extreme if i == 0 else st.floats(low, high)))


# counts stay small so that every accepted config runs quickly
edge_counts = st.sampled_from([0, 1, 2, 2.5, math.nan, math.inf, 10**12])
counts = mostly(st.integers(0, 15).flatmap(lambda i: edge_counts if i == 0 else st.integers(3, 6)))


def objects(keys, optional=None):
    return mostly(st.fixed_dictionaries(keys, optional=optional))


def lists(elements, min_size=0, max_size=4):
    return mostly(st.lists(elements, min_size=min_size, max_size=max_size))


grid = mostly(st.tuples(numbers(-4.0, 4.0), numbers(-4.0, 4.0), counts).map(list))
VALUES = {
    "format": mostly(st.sampled_from(["csv", "json"])),
    "field": objects(
        {
            "pulse": objects(
                {
                    "shape": mostly(st.sampled_from(["rectangular", "smooth-bump"])),
                    "B0": numbers(-3.0, 3.0),
                    "t_on": numbers(0.0, 0.5),
                    "t_off": numbers(1.0, 3.0),
                    "ramp": numbers(0.01, 0.4),
                }
            )
        },
        optional={
            "charges": lists(
                objects({"x": numbers(-2.0, 2.0), "y": numbers(-2.0, 2.0), "lambda": numbers()}), max_size=2
            ),
            "units": objects({k: numbers() for k in ("hbar", "c", "eps0", "mu", "Gamma", "m")}),
        },
    ),
    "path": objects(
        {"vertices": lists(mostly(st.lists(numbers(-2.0, 2.0), min_size=2, max_size=2)), min_size=2)},
        optional={"closed": mostly(st.booleans())},
    ),
    "packet": objects(
        {"x0": numbers(-1.0, 1.0), "sigma0": numbers()},
        optional={"v": numbers(), "m": numbers(), "hbar": numbers()},
    ),
    "region": objects({"x_min": numbers(-50.0, -10.0), "x_max": numbers(10.0, 50.0)}),
    "velocities": lists(numbers(-3.0, 3.0)),
    "grid_theta": grid,
    "grid_phid": grid,
    **{k: numbers(-4.0, 4.0) for k in ("theta", "azimuth", "phi_d", "phi", "t_max")},
    "visibility": numbers(0.0, 1.0),
    "k_sigma": numbers(1.0, 6.0),
    **{k: counts for k in ("chi_samples", "n_t", "n_sub", "solid_angle_steps")},
}
#: The keys each mode reads; a config holds them, less one now and then,
#: plus now and then one key drawn from all of them.
MODE_KEYS = {
    "interfere": ("theta", "phi_d", "solid_angle_steps"),
    "sweep": ("grid_theta", "grid_phid", "solid_angle_steps"),
    "chi-scan": ("theta", "phi_d", "phi", "visibility", "chi_samples"),
    "sab-classical": ("field", "theta", "azimuth", "t_max", "n_t"),
    "sab-quantum": ("field", "theta", "azimuth", "t_max", "n_t"),
    "ac-classical": ("field", "path", "theta", "azimuth", "n_sub"),
    "ac-quantum": ("field", "path", "theta", "azimuth", "n_sub"),
    "nondispersive": ("field", "packet", "region", "velocities", "k_sigma"),
}


@st.composite
def configs(draw):
    mode = draw(mostly(st.sampled_from(MODES)))
    keys = list(MODE_KEYS.get(mode, ())) if isinstance(mode, str) else []
    keys += draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=1))
    if keys and draw(st.integers(0, 3)) == 0:
        keys.remove(draw(st.sampled_from(keys)))
    return {"mode": mode, **{key: draw(VALUES[key]) for key in keys}}


def assert_finite_output(path, fmt, stdout):
    """Every cell is finite, except bools and the undefined cells."""
    if fmt == "json":
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, allow_nan=False) + "\n"
        columns, rows = payload["columns"], payload["rows"]
        if "fit" in payload:
            assert math.isfinite(payload["fit"]["visibility"])
    else:
        columns, rows = read_csv(path)
        assert "visibility=NaN" not in stdout
    for row in rows:
        for name, value in zip(columns, row):
            if value in (True, False, "true", "false") or (name in UNDEFINED_COLUMNS and value in (None, "NaN")):
                continue
            assert math.isfinite(float(value)), (name, value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config=configs(), degrees=st.booleans())
def test_any_json_config_exits_0_2_or_3_with_finite_cells(tmp_path_factory, config, degrees):
    work = tmp_path_factory.getbasetemp() / "property"
    work.mkdir(exist_ok=True)
    out = work / "out"
    out.unlink(missing_ok=True)
    cfg = write_config(work, "cfg.json", dict(config, out=str(out)))
    argv = ["--config", str(cfg)] + (["--degrees"] if degrees else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    assert status in (0, 2, 3)
    if status == 0:
        assert_finite_output(out, config.get("format", "csv"), stdout.getvalue())


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the package and its CLI pulls in
    src = str(Path(spinphase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, spinphase, spinphase.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
