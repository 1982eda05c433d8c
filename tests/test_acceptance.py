"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import functools
import math
import time

import numpy as np

from spinphase import (
    ClassicalDipole,
    FieldConfig,
    KinematicPath,
    LineCharge,
    PlanarPath,
    RectangularPulse,
    SmoothBumpPulse,
    UndefinedPhase,
    UnitSystem,
    ac_force,
    ac_precession_angle,
    bloch_of,
    circular_distance,
    detector_probabilities,
    evolve_spin,
    integrate_precession_ac,
    integrate_precession_sab,
    invert_observables,
    nondispersivity_sweep,
    nonideal_phase,
    nonideal_visibility,
    pancharatnam,
    precess_ac_closed_form,
    precess_sab_closed_form,
    rotate_z,
    sab_precession_angle,
    solid_angle_geodesic_closed,
    spinor_from_angles,
    verify_gauge_cancellation,
)
from spinphase.dispersion import GaussianPacket, RegionInterval
from spinphase.interferometry import decompose_phase
from spinphase.cli import fit_fringe


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return decorate


def grid_32x32():
    thetas = np.linspace(0.0, math.pi, 32)
    phids = np.linspace(-math.pi, math.pi, 33)[1:]
    return thetas, phids


@criterion("criterion 1: oracle equivalence on the 32x32 grid (1e-10, < 1 s)")
def test_criterion_01_oracle_equivalence():
    thetas, phids = grid_32x32()
    start = time.perf_counter()
    for theta in thetas:
        s0 = spinor_from_angles(float(theta))
        for phi_d in phids:
            oracle_phi, oracle_nu = pancharatnam(
                rotate_z(s0, float(phi_d)), rotate_z(s0, -float(phi_d))
            )
            nu = nonideal_visibility(float(theta), float(phi_d))
            assert abs(nu - oracle_nu) < 1e-10
            try:
                phi = nonideal_phase(float(theta), float(phi_d))
            except UndefinedPhase:
                assert oracle_phi is None
                continue
            assert oracle_phi is not None
            assert circular_distance(phi, oracle_phi) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid comparison took {elapsed:.2f} s"


@criterion("criterion 2: ideal limits exact to 1e-12 (theta = 0 and theta = pi/2)")
def test_criterion_02_ideal_limits():
    rng = np.random.default_rng(2024)
    from spinphase import wrap_angle

    for phi_d in rng.uniform(-math.pi, math.pi, 100):
        assert circular_distance(nonideal_phase(0.0, phi_d), wrap_angle(phi_d)) < 1e-12
        assert abs(nonideal_visibility(0.0, phi_d) - 1.0) < 1e-12
    for phi_d in rng.uniform(-math.pi, math.pi, 100):
        nu = nonideal_visibility(math.pi / 2, phi_d)
        assert abs(nu - abs(math.cos(phi_d))) < 1e-12
        try:
            phi = nonideal_phase(math.pi / 2, phi_d)
        except UndefinedPhase:
            continue
        expected = 0.0 if math.cos(phi_d) > 0.0 else math.pi
        assert circular_distance(phi, expected) < 1e-12


@criterion("criterion 3: inversion round trip on the grid (1e-8)")
def test_criterion_03_inversion_round_trip():
    thetas, phids = grid_32x32()
    checked = 0
    for theta in thetas:
        for phi_d in phids:
            nu = nonideal_visibility(float(theta), float(phi_d))
            try:
                phi = nonideal_phase(float(theta), float(phi_d))
            except UndefinedPhase:
                continue
            if nu * abs(math.cos(phi)) <= 1e-6:
                continue
            result = invert_observables(phi, nu)
            assert min(circular_distance(v, float(phi_d)) for v in result.phi_d_values) < 1e-8
            if result.theta_values is not None:
                assert min(abs(v - float(theta)) for v in result.theta_values) < 1e-8
            checked += 1
    assert checked > 800


@criterion("criterion 4: gamma_geo = -Omega/2 with the exact solid angle (1e-12, < 5 s)")
def test_criterion_04_geometric_phase_law():
    start = time.perf_counter()
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        for phi_d in (math.pi / 8, math.pi / 4, 3.0 * math.pi / 8):
            _, gamma_geo = decompose_phase(theta, phi_d)
            omega = solid_angle_geodesic_closed(theta, 2.0 * phi_d)
            assert abs(gamma_geo - (-0.5 * omega)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"solid-angle oracle took {elapsed:.2f} s"


@criterion("criterion 5: classical and quantal precession agree (1e-8)")
def test_criterion_05_classical_quantum_correspondence():
    rng = np.random.default_rng(31)
    units = UnitSystem(mu=1.0, hbar=1.0, Gamma=2.0)  # Gamma = 2 mu / hbar
    for _ in range(20):
        theta = rng.uniform(0.05, math.pi - 0.05)
        t_on = rng.uniform(0.0, 0.5)
        duration = rng.uniform(0.3, 1.5)
        if rng.random() < 0.5:
            pulse = RectangularPulse(rng.uniform(0.2, 2.0), t_on, t_on + duration)
        else:
            pulse = SmoothBumpPulse(rng.uniform(0.2, 2.0), t_on, t_on + duration, 0.25 * duration)
        t = t_on + duration * rng.uniform(0.5, 1.2)
        gamma = sab_precession_angle(pulse, t, units)
        n = bloch_of(evolve_spin(spinor_from_angles(theta), gamma))
        dip = precess_sab_closed_form(ClassicalDipole(1.0, theta), pulse, t, units)
        assert np.max(np.abs(n - dip.vector)) < 1e-8
    for k in range(10):
        theta = rng.uniform(0.05, math.pi - 0.05)
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, rng.uniform(-2.0, 2.0))], units=units)
        start_angle = rng.uniform(0.0, 2.0 * math.pi)
        arc_angles = start_angle + np.linspace(0.0, rng.uniform(0.5, 2.5), 12)
        radius = rng.uniform(0.8, 1.6, 12)
        path = PlanarPath(
            np.stack([radius * np.cos(arc_angles), radius * np.sin(arc_angles)], axis=1)
        )
        gamma = ac_precession_angle(cfg, path, n_sub=64)
        n = bloch_of(evolve_spin(spinor_from_angles(theta), gamma))
        dip, _ = precess_ac_closed_form(ClassicalDipole(1.0, theta), cfg, path, n_sub=64)
        assert np.max(np.abs(n - dip.vector)) < 1e-8


@criterion("criterion 6: RK4 matches the closed forms (1e-6) at 4th order (~16x)")
def test_criterion_06_integrators_vs_closed_form():
    units = UnitSystem(Gamma=2.0)
    d0 = ClassicalDipole(mu=1.0, theta=math.pi / 3, azimuth=0.3)

    # pulsed field: 10 rad of total precession
    pulse = RectangularPulse(5.0, 0.0, 1.0)
    ref = precess_sab_closed_form(d0, pulse, 1.0, units).vector
    errs = []
    for dt in (2**-7, 2**-8):
        got = integrate_precession_sab(d0, pulse, 1.0, dt, units).vector
        errs.append(np.max(np.abs(got - ref)))
    assert errs[1] < 1e-6
    assert 8.0 < errs[0] / errs[1] < 32.0

    # line-charge loop: gamma = -Gamma * lambda_enc = -10 rad exactly
    cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 5.0)], units=units)
    loop = PlanarPath.circle((0.0, 0.0), 1.0, 256)
    seg = float(loop.segment_lengths()[0])
    ref = ClassicalDipole(1.0, math.pi / 3, 0.3 - 10.0).vector
    errs = []
    for dt in (seg / 2, seg / 4):
        got = integrate_precession_ac(d0, cfg, KinematicPath.uniform(loop, 1.0), dt).vector
        errs.append(np.max(np.abs(got - ref)))
    assert errs[0] < 1e-6
    assert 8.0 < errs[0] / errs[1] < 32.0


@criterion("criterion 7: closed-loop angle counts the enclosed charge (1e-6)")
def test_criterion_07_stokes_enclosure():
    units = UnitSystem(mu=1.0, hbar=1.0, Gamma=2.0)
    cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)], units=units)
    expected = -2.0 * 1.0 * 1.0 / (1.0 * 1.0**2 * 1.0)  # -2 mu lambda / (hbar c^2 eps0)

    circle = PlanarPath.circle((0.0, 0.0), 1.3, 256)
    square = PlanarPath.polygon([[-1.5, -1.5], [1.5, -1.5], [1.5, 1.5], [-1.5, 1.5]])
    rng = np.random.default_rng(77)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 12))
    radii = rng.uniform(0.9, 2.0, 12)
    twelve_gon = PlanarPath.polygon(
        np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    )

    gammas = [
        ac_precession_angle(cfg, circle, n_sub=64),
        ac_precession_angle(cfg, square, n_sub=4096),
        ac_precession_angle(cfg, twelve_gon, n_sub=4096),
    ]
    for g in gammas:
        assert abs(g - expected) < 5e-7
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(gammas[i] - gammas[j]) < 1e-6

    far_circle = PlanarPath.circle((20.0, 5.0), 1.0, 64)
    far_square = PlanarPath.polygon([[8.0, 8.0], [9.0, 8.0], [9.0, 9.0], [8.0, 9.0]])
    assert abs(ac_precession_angle(cfg, far_circle, n_sub=32)) < 1e-6
    assert abs(ac_precession_angle(cfg, far_square, n_sub=32)) < 1e-6


@criterion("criterion 8: speed profiles leave the AC result invariant (1e-6)")
def test_criterion_08_velocity_independence():
    units = UnitSystem(Gamma=2.0)
    cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)], units=units)
    arc = PlanarPath(PlanarPath.circle((0.0, 0.0), 1.2, 64).vertices[:25])
    d0 = ClassicalDipole(mu=1.0, theta=0.9, azimuth=0.1)
    n_seg = arc.n_segments
    profiles = [
        KinematicPath.uniform(arc, 1.0),
        KinematicPath.uniform(arc, 7.0),
        KinematicPath(arc, np.where(np.arange(n_seg) % 2 == 0, 0.5, 4.0)),
    ]
    finals = [integrate_precession_ac(d0, cfg, kin, 5e-4).vector for kin in profiles]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(finals[i] - finals[j])) < 1e-6

    pulse = RectangularPulse(0.8, 0.0, 1.0)
    packet = GaussianPacket(x0=0.0, v=0.0, sigma0=0.2)
    region = RegionInterval(-100.0, 100.0)
    report = nondispersivity_sweep(
        packet, list(np.linspace(0.0, 3.0, 8)), region, pulse, units
    )
    gammas = report.gamma_values()
    assert all(row.contained for row in report.rows)
    assert all(g == gammas[0] for g in gammas)


@criterion("criterion 9: force is axial (1e-8) and the gauge residual < 1e-6")
def test_criterion_09_force_structure():
    rng = np.random.default_rng(93)
    cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.5)])
    for _ in range(50):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.5, 3.0)
        p = [radius * math.cos(ang), radius * math.sin(ang)]
        v = rng.uniform(-2.0, 2.0, 2)
        d = ClassicalDipole(
            mu=rng.uniform(0.5, 2.0),
            theta=rng.uniform(0.0, math.pi),
            azimuth=rng.uniform(0.0, 2.0 * math.pi),
        )
        F = ac_force(d, cfg, p, v)
        assert abs(F[0]) < 1e-8
        assert abs(F[1]) < 1e-8

    for _ in range(5):
        start_angle = rng.uniform(0.0, 2.0 * math.pi)
        arc_angles = start_angle + np.linspace(0.0, rng.uniform(0.6, 2.0), 9)
        radii = rng.uniform(0.8, 1.8, 9)
        path = PlanarPath(np.stack([radii * np.cos(arc_angles), radii * np.sin(arc_angles)], axis=1))
        assert verify_gauge_cancellation(cfg, path) < 1e-6


@criterion("criterion 10: fringe fits recover (phi, nu) to 1e-9; P1 + P2 = 1")
def test_criterion_10_fringe_recovery():
    thetas, phids = grid_32x32()
    for theta in thetas[::4]:
        for phi_d in phids[::4]:
            nu = nonideal_visibility(float(theta), float(phi_d))
            try:
                phi = nonideal_phase(float(theta), float(phi_d))
            except UndefinedPhase:
                continue
            samples = []
            for j in range(64):
                chi = 2.0 * math.pi * j / 64
                p1, p2 = detector_probabilities(phi, nu, chi)
                assert p1 + p2 == 1.0
                samples.append((chi, p1))
            fit_phi, fit_nu = fit_fringe(samples)
            assert abs(fit_nu - nu) < 1e-9
            if nu > 1e-9:
                assert circular_distance(fit_phi, phi) < 1e-9
