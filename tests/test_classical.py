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
from spinphase.classical import MAX_NORM_DRIFT, RATE_BLOCK_STEPS
from spinphase.fields import eval_A

GAMMA_ONE = UnitSystem(Gamma=1.0)


# --------------------------------------------------------------------------
# independent reference: per-stage RK4 with a callable rate, four rate calls
# per step on numpy vectors, each A . v rate through its own eval_A call


def _torque(rate, m):
    return rate * np.array([m[1], -m[0], 0.0])


def rk4_reference(m, mu0, rate, t0, t1, dt):
    span = t1 - t0
    n = max(1, math.ceil(span / dt - 1e-12))
    h = span / n
    for k in range(n):
        t = t0 + k * h
        t_end = t0 + (k + 1) * h if k + 1 < n else t1
        k1 = _torque(rate(t), m)
        k2 = _torque(rate(t + 0.5 * h), m + 0.5 * h * k1)
        k3 = _torque(rate(t + 0.5 * h), m + 0.5 * h * k2)
        k4 = _torque(rate(t_end), m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nrm = float(np.linalg.norm(m))
        if abs(nrm - mu0) > MAX_NORM_DRIFT * mu0:
            raise StepTooLarge("drift")
        m = m * (mu0 / nrm)
    return m


def sab_reference(dipole, pulse, t, dt, units):
    knots = sorted({0.0, t, *(k for k in pulse.knots() if 0.0 < k < t)})
    m = dipole.vector
    for a, b in zip(knots[:-1], knots[1:]):
        if b > pulse.t_on and a < pulse.t_off:
            m = rk4_reference(m, dipole.mu, lambda s: units.Gamma * pulse.field_at(s), a, b, dt)
    return m


def ac_reference(dipole, cfg, kin, dt):
    verts = kin.path.vertices
    m = dipole.vector
    for i in range(kin.path.n_segments):
        a, d = verts[i], verts[i + 1] - verts[i]
        length = float(np.linalg.norm(d))
        speed = float(kin.speeds[i])
        v, tau = (speed / length) * d, length / speed

        def rate(s, a=a, d=d, tau=tau, v=v):
            return cfg.units.Gamma * float(eval_A(cfg, a + (s / tau) * d) @ v)

        m = rk4_reference(m, dipole.mu, rate, 0.0, tau, dt)
    return m


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


class TestBatchedRatesMatchReference:
    """The batched-rate integrators against the per-stage reference above.

    The arithmetic of every step is the same; only the norm and the A . v
    products may round differently, so the finals agree to 1e-13.
    """

    @pytest.mark.parametrize(
        "charges",
        [
            [(0.0, 0.0, 1.0)],
            [(0.2, -0.1, 0.7), (3.0, 0.5, -1.3)],
            [(0.0, 0.3, 0.4), (-2.5, 0.0, 1.1), (0.1, 2.4, -0.6)],
        ],
        ids=["one-charge", "two-charges", "three-charges"],
    )
    def test_ac_alternating_speeds(self, charges):
        cfg = FieldConfig(charges=[LineCharge(*c) for c in charges], units=UnitSystem(Gamma=1.7))
        loop = PlanarPath.circle((0.1, 0.0), 1.4, 12)
        arc = PlanarPath(loop.vertices[:8])
        d0 = ClassicalDipole(mu=1.3, theta=0.9, azimuth=0.4)
        for path in (loop, arc):
            speeds = np.where(np.arange(path.n_segments) % 2 == 0, 0.4, 2.5)
            kin = KinematicPath(path, speeds)
            got = integrate_precession_ac(d0, cfg, kin, 7e-3).vector
            np.testing.assert_allclose(got, ac_reference(d0, cfg, kin, 7e-3), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "pulse, t, dt",
        [
            (SmoothBumpPulse(2.0, 0.2, 1.4, 0.3), 2.0, 1e-3),
            (RectangularPulse(1.0, 0.0, math.pi / 2), math.pi / 2, 1e-3),
            # integrated past t_off, with t_on + n h rounding past t_off
            (RectangularPulse(1.0, 0.25935401432800764, 1.5452288259887232), 2.0, 0.004),
        ],
        ids=["smooth", "rectangular", "past-t-off"],
    )
    def test_sab(self, pulse, t, dt):
        units = UnitSystem(Gamma=1.5)
        d0 = ClassicalDipole(mu=1.0, theta=1.1, azimuth=-0.2)
        got = integrate_precession_sab(d0, pulse, t, dt, units).vector
        np.testing.assert_allclose(got, sab_reference(d0, pulse, t, dt, units), rtol=0.0, atol=1e-13)

    def test_segment_longer_than_a_block(self, unit_charge):
        # 2.5 blocks of steps on one segment and in one pulse window: the
        # block boundaries must neither drop nor repeat a stage
        n_steps = 5 * RATE_BLOCK_STEPS // 2
        path = PlanarPath.line([2.0, -1.0], [0.5, 2.0])
        kin = KinematicPath.uniform(path, 1.0)
        dt = float(path.segment_lengths()[0]) / n_steps
        d0 = ClassicalDipole(mu=1.0, theta=1.2, azimuth=0.3)
        got = integrate_precession_ac(d0, unit_charge, kin, dt).vector
        np.testing.assert_allclose(got, ac_reference(d0, unit_charge, kin, dt), rtol=0.0, atol=1e-13)
        pulse = SmoothBumpPulse(1.0, 0.0, 1.0, 0.5)
        got = integrate_precession_sab(d0, pulse, 1.0, 0.5 / n_steps, GAMMA_ONE).vector
        ref = sab_reference(d0, pulse, 1.0, 0.5 / n_steps, GAMMA_ONE)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)

    def test_ac_step_too_large(self, unit_charge):
        path = PlanarPath.line([0.05, -1.0], [0.05, 1.0])
        kin = KinematicPath.uniform(path, 1.0)
        with pytest.raises(StepTooLarge):
            ac_reference(ClassicalDipole(theta=math.pi / 2), unit_charge, kin, 0.5)
        with pytest.raises(StepTooLarge, match="reduce dt"):
            integrate_precession_ac(ClassicalDipole(theta=math.pi / 2), unit_charge, kin, 0.5)

    def test_non_finite_moment_raises(self):
        # an infinite rate makes the aligned moment NaN; that is a failed
        # step, not a result
        pulse = RectangularPulse(1e308, 0.0, 1.0)
        with pytest.raises(StepTooLarge):
            integrate_precession_sab(ClassicalDipole(theta=0.0), pulse, 1.0, 0.1, UnitSystem(Gamma=10.0))


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
