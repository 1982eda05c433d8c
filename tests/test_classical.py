"""Classical dipole precession: closed forms, RK4 integrators, and the force."""

import math

import numpy as np
import pytest

from spinphase import (
    ClassicalDipole,
    FieldConfig,
    KinematicPath,
    LineCharge,
    PlanarPath,
    RectangularPulse,
    SingularPoint,
    SmoothBumpPulse,
    StepTooLarge,
    UnitSystem,
    ac_force,
    eval_E,
    integrate_precession_ac,
    integrate_precession_sab,
    precess_ac_closed_form,
    precess_sab_closed_form,
)

GAMMA_ONE = UnitSystem(Gamma=1.0)


@pytest.fixture
def unit_charge():
    return FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)], units=GAMMA_ONE)


class TestSabClosedForm:
    def test_quarter_turn(self):
        # Gamma=1, B0=1 over [0, pi/2]: gamma = -pi/2, equatorial moment to -y
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 2)
        pulse = RectangularPulse(1.0, 0.0, math.pi / 2)
        d1 = precess_sab_closed_form(d0, pulse, math.pi / 2, GAMMA_ONE)
        np.testing.assert_allclose(d1.vector, [0.0, -1.0, 0.0], atol=1e-15)

    def test_aligned_moment_unchanged(self):
        d0 = ClassicalDipole(mu=1.0, theta=0.0)
        pulse = RectangularPulse(3.0, 0.0, 1.0)
        d1 = precess_sab_closed_form(d0, pulse, 5.0, GAMMA_ONE)
        np.testing.assert_allclose(d1.vector, [0.0, 0.0, 1.0], atol=1e-15)

    def test_general_tilt(self):
        units = UnitSystem(Gamma=2.0)
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 4)
        pulse = RectangularPulse(0.5, 0.0, 1.0)
        d1 = precess_sab_closed_form(d0, pulse, 3.0, units)
        expected = [
            math.sin(math.pi / 4) * math.cos(-1.0),
            math.sin(math.pi / 4) * math.sin(-1.0),
            math.cos(math.pi / 4),
        ]
        np.testing.assert_allclose(d1.vector, expected, atol=1e-15)
        # cross-check against the integrator
        d2 = integrate_precession_sab(d0, pulse, 3.0, 1e-4, units)
        np.testing.assert_allclose(d2.vector, expected, atol=1e-8)


class TestSabIntegrator:
    def test_matches_closed_form(self):
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 2)
        cases = [
            (RectangularPulse(1.0, 0.0, math.pi / 2), math.pi / 2, 1e-4),
            # t_on + n h rounds past t_off on this step grid; the last RK4
            # stage must still read the field at t_off
            (RectangularPulse(1.0, 0.25935401432800764, 1.5452288259887232), 2.0, 0.004),
        ]
        for pulse, t, dt in cases:
            ref = precess_sab_closed_form(d0, pulse, t, GAMMA_ONE)
            got = integrate_precession_sab(d0, pulse, t, dt, GAMMA_ONE)
            np.testing.assert_allclose(got.vector, ref.vector, atol=1e-8)

    def test_zero_field_is_identity(self):
        d0 = ClassicalDipole(mu=2.0, theta=1.0, azimuth=0.5)
        pulse = RectangularPulse(0.0, 0.0, 1.0)
        got = integrate_precession_sab(d0, pulse, 4.0, 1e-3, GAMMA_ONE)
        np.testing.assert_allclose(got.vector, d0.vector, atol=1e-14)

    def test_fourth_order_convergence(self):
        units = UnitSystem(Gamma=2.0)
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 3, azimuth=0.3)
        pulse = RectangularPulse(5.0, 0.0, 1.0)  # 10 rad of total precession
        ref = precess_sab_closed_form(d0, pulse, 1.0, units)
        errs = [
            np.max(np.abs(integrate_precession_sab(d0, pulse, 1.0, dt, units).vector - ref.vector))
            for dt in (2**-7, 2**-8)
        ]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)

    def test_smooth_pulse(self):
        units = UnitSystem(Gamma=1.5)
        d0 = ClassicalDipole(mu=1.0, theta=1.1, azimuth=-0.2)
        pulse = SmoothBumpPulse(2.0, 0.2, 1.4, 0.3)
        ref = precess_sab_closed_form(d0, pulse, 2.0, units)
        got = integrate_precession_sab(d0, pulse, 2.0, 1e-3, units)
        np.testing.assert_allclose(got.vector, ref.vector, atol=1e-9)

    def test_norm_and_tilt_conserved(self):
        units = UnitSystem(Gamma=2.0)
        d0 = ClassicalDipole(mu=1.5, theta=0.8)
        pulse = RectangularPulse(4.0, 0.0, 2.0)
        got = integrate_precession_sab(d0, pulse, 2.0, 1e-3, units)
        assert np.linalg.norm(got.vector) == pytest.approx(1.5, abs=1e-9)
        assert got.vector[2] == pytest.approx(d0.vector[2], abs=1e-8)

    def test_step_too_large(self):
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 2)
        pulse = RectangularPulse(1000.0, 0.0, 1.0)
        with pytest.raises(StepTooLarge):
            integrate_precession_sab(d0, pulse, 1.0, 0.5, GAMMA_ONE)


class TestAcClosedForm:
    def test_enclosed_charge_loop(self, unit_charge):
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 4)
        loop = PlanarPath.circle((0.0, 0.0), 1.0, 128)
        d1, gamma = precess_ac_closed_form(d0, unit_charge, loop, n_sub=64)
        assert gamma == pytest.approx(-1.0, abs=1e-6)
        assert d1.theta == d0.theta

    def test_non_enclosing_loop(self, unit_charge):
        loop = PlanarPath.circle((10.0, 10.0), 1.0, 64)
        _, gamma = precess_ac_closed_form(ClassicalDipole(), unit_charge, loop, n_sub=32)
        assert abs(gamma) < 1e-6

    def test_open_quarter_sweep(self, unit_charge):
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        _, gamma = precess_ac_closed_form(ClassicalDipole(), unit_charge, path, n_sub=512)
        assert gamma == pytest.approx(-0.25, abs=1e-6)

    def test_open_path_homotopy_independence(self, unit_charge):
        straight = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        detour = PlanarPath(np.array([[2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
        _, g1 = precess_ac_closed_form(ClassicalDipole(), unit_charge, straight, n_sub=1024)
        _, g2 = precess_ac_closed_form(ClassicalDipole(), unit_charge, detour, n_sub=1024)
        assert g1 == pytest.approx(g2, abs=1e-6)


class TestAcIntegrator:
    def test_velocity_independence(self, unit_charge):
        loop = PlanarPath.circle((0.0, 0.0), 1.0, 128)
        seg = float(loop.segment_lengths()[0])
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 4)
        slow = integrate_precession_ac(d0, unit_charge, KinematicPath.uniform(loop, 1.0), seg / 4)
        fast = integrate_precession_ac(d0, unit_charge, KinematicPath.uniform(loop, 10.0), seg / 40)
        np.testing.assert_allclose(slow.vector, fast.vector, atol=1e-6)

    def test_no_field_is_identity(self):
        cfg = FieldConfig(units=GAMMA_ONE)
        path = PlanarPath.line([0.0, 0.0], [3.0, 1.0])
        d0 = ClassicalDipole(mu=1.0, theta=1.0, azimuth=2.0)
        got = integrate_precession_ac(d0, cfg, KinematicPath.uniform(path, 2.0), 1e-2)
        np.testing.assert_allclose(got.vector, d0.vector, atol=1e-14)

    def test_quarter_sweep_matches_closed_form(self, unit_charge):
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 2, azimuth=0.1)
        ref = ClassicalDipole(mu=1.0, theta=math.pi / 2, azimuth=0.1 - 0.25)
        got = integrate_precession_ac(d0, unit_charge, KinematicPath.uniform(path, 1.0), 1e-3)
        np.testing.assert_allclose(got.vector, ref.vector, atol=1e-6)

    def test_speed_profile_reparameterization(self, unit_charge):
        arc = PlanarPath(PlanarPath.circle((0.0, 0.0), 1.3, 64).vertices[:17])
        d0 = ClassicalDipole(mu=1.0, theta=0.7, azimuth=0.0)
        uniform = integrate_precession_ac(d0, unit_charge, KinematicPath.uniform(arc, 1.0), 1e-3)
        speeds = np.where(np.arange(16) % 2 == 0, 0.5, 3.0)
        ragged = integrate_precession_ac(d0, unit_charge, KinematicPath(arc, speeds), 1e-3)
        np.testing.assert_allclose(uniform.vector, ragged.vector, atol=1e-6)

    def test_fourth_order_convergence(self):
        units = UnitSystem(Gamma=2.0)
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 5.0)], units=units)
        loop = PlanarPath.circle((0.0, 0.0), 1.0, 256)
        seg = float(loop.segment_lengths()[0])
        d0 = ClassicalDipole(mu=1.0, theta=math.pi / 3, azimuth=0.3)
        # enclosed-charge value is exact for the polygon: gamma = -Gamma*lambda
        ref = ClassicalDipole(mu=1.0, theta=math.pi / 3, azimuth=0.3 - 10.0).vector
        errs = [
            np.max(
                np.abs(
                    integrate_precession_ac(d0, cfg, KinematicPath.uniform(loop, 1.0), dt).vector
                    - ref
                )
            )
            for dt in (seg / 2, seg / 4)
        ]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)

    def test_singular_segment_reported(self, unit_charge):
        path = PlanarPath(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]))  # second leg crosses origin
        with pytest.raises(SingularPoint) as excinfo:
            integrate_precession_ac(ClassicalDipole(), unit_charge, KinematicPath.uniform(path, 1.0), 1e-3)
        assert excinfo.value.segment == 1


class TestAcForce:
    def test_aligned_dipole_feels_nothing(self, unit_charge):
        d = ClassicalDipole(mu=1.0, theta=0.0)
        F = ac_force(d, unit_charge, [1.3, -0.4], [0.8, 0.1])
        np.testing.assert_allclose(F, [0.0, 0.0, 0.0], atol=1e-8)

    def test_hand_computed_z_force(self):
        # lam = 2 pi eps0 c^2 makes E = rhat/|r|; at (2, 0) with mu along +y
        # and v along +x, F_z = -mu * dE_y/dy = -mu/d^2 = -mu/4
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 2.0 * math.pi)], units=GAMMA_ONE)
        d = ClassicalDipole(mu=1.0, theta=math.pi / 2, azimuth=math.pi / 2)
        F = ac_force(d, cfg, [2.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(F, [0.0, 0.0, -0.25], atol=1e-8)

    def test_transverse_velocity_row(self):
        # with v along +y the force picks out the x-row of (mu.grad)E, and
        # dE_x/dy vanishes on the x axis; the finite-difference oracle agrees
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 2.0 * math.pi)], units=GAMMA_ONE)
        d = ClassicalDipole(mu=1.0, theta=math.pi / 2, azimuth=math.pi / 2)
        F = ac_force(d, cfg, [2.0, 0.0], [0.0, 1.0])
        h = 1e-6
        oracle = (eval_E(cfg, [2.0, h])[0] - eval_E(cfg, [2.0, -h])[0]) / (2.0 * h)
        assert F[2] == pytest.approx(oracle, abs=1e-8)
        np.testing.assert_allclose(F, [0.0, 0.0, 0.0], atol=1e-8)

    def test_force_is_axial_for_random_inputs(self, unit_charge):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(0.5, 3.0)
            p = [radius * math.cos(ang), radius * math.sin(ang)]
            v = rng.uniform(-2.0, 2.0, 2)
            d = ClassicalDipole(mu=1.0, theta=rng.uniform(0.0, math.pi), azimuth=rng.uniform(0.0, 2.0 * math.pi))
            F = ac_force(d, unit_charge, p, v)
            assert abs(F[0]) < 1e-8 * max(1.0, abs(F[2]))
            assert abs(F[1]) < 1e-8 * max(1.0, abs(F[2]))


class TestClosedLoopTheorem:
    def test_gamma_counts_enclosed_charge_only(self):
        units = UnitSystem(Gamma=1.25)
        cfg = FieldConfig(
            charges=[LineCharge(0.0, 0.0, 2.0), LineCharge(5.0, 0.0, -7.0)], units=units
        )
        loop = PlanarPath.circle((0.0, 0.0), 1.5, 128)
        _, gamma = precess_ac_closed_form(ClassicalDipole(), cfg, loop, n_sub=64)
        assert gamma == pytest.approx(-1.25 * 2.0, abs=1e-6)
