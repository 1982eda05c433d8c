"""Spin-1/2 algebra, precession angles, and the gauge cancellation check."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinphase import (
    ClassicalDipole,
    FieldConfig,
    LineCharge,
    NotNormalized,
    PlanarPath,
    RectangularPulse,
    SingularPoint,
    SmoothBumpPulse,
    Spinor,
    UnitSystem,
    ac_precession_angle,
    bloch_of,
    evolve_spin,
    precess_sab_closed_form,
    pulse_integral_B,
    rotate_z,
    sab_precession_angle,
    spinor_from_angles,
    verify_gauge_cancellation,
)
from spinphase.fields import eval_A

angles = st.floats(-10.0, 10.0, allow_nan=False)


def rotation_matrix_oracle(gamma):
    """Explicit 2x2 matrix of exp(-i sigma_z gamma / 2)."""
    return np.array(
        [[cmath.exp(-0.5j * gamma), 0.0], [0.0, cmath.exp(0.5j * gamma)]], dtype=complex
    )


class TestSpinorConstruction:
    def test_north_pole(self):
        s = spinor_from_angles(0.0, 0.0)
        assert (s.up, s.down) == (1.0, 0.0)

    def test_south_pole(self):
        s = spinor_from_angles(math.pi, 0.0)
        assert abs(s.up) < 1e-16
        assert s.down == pytest.approx(1.0)

    def test_equator_plus_x(self):
        s = spinor_from_angles(math.pi / 2, 0.0)
        assert s.up == pytest.approx(1.0 / math.sqrt(2.0))
        assert s.down == pytest.approx(1.0 / math.sqrt(2.0))


class TestRotateZ:
    def test_identity(self):
        s = spinor_from_angles(1.0, 0.5)
        r = rotate_z(s, 0.0)
        assert r.up == s.up and r.down == s.down

    def test_full_turn_flips_sign(self):
        s = spinor_from_angles(math.pi / 2, 0.0)
        r = rotate_z(s, 2.0 * math.pi)
        assert r.up == pytest.approx(-s.up, abs=1e-15)
        assert r.down == pytest.approx(-s.down, abs=1e-15)
        np.testing.assert_allclose(bloch_of(r), bloch_of(s), atol=1e-15)

    def test_quarter_turn_matches_matrix_oracle(self):
        # the matrix oracle sends +x to +y for gamma = +pi/2 (right-handed
        # rotation about +z)
        s = spinor_from_angles(math.pi / 2, 0.0)
        oracle = rotation_matrix_oracle(math.pi / 2) @ s.as_array()
        r = rotate_z(s, math.pi / 2)
        np.testing.assert_allclose(r.as_array(), oracle, atol=1e-15)
        np.testing.assert_allclose(bloch_of(r), [0.0, 1.0, 0.0], atol=1e-15)

    @given(angles, angles)
    def test_unitarity(self, theta, gamma):
        s = spinor_from_angles(theta, 0.0)
        assert rotate_z(s, gamma).norm() == pytest.approx(1.0, abs=1e-14)

    @given(angles, angles, angles)
    def test_composition(self, theta, a, b):
        s = spinor_from_angles(theta, 0.3)
        left = rotate_z(rotate_z(s, a), b)
        right = rotate_z(s, a + b)
        np.testing.assert_allclose(left.as_array(), right.as_array(), atol=1e-12)

    @given(angles, angles)
    def test_sigma_z_expectation_preserved(self, theta, gamma):
        s = spinor_from_angles(theta, 0.0)
        before = bloch_of(s)[2]
        after = bloch_of(rotate_z(s, gamma))[2]
        assert after == pytest.approx(before, abs=1e-14)


class TestBloch:
    def test_north(self):
        np.testing.assert_allclose(bloch_of(Spinor(1.0, 0.0)), [0.0, 0.0, 1.0])

    def test_plus_x(self):
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(bloch_of(Spinor(r, r)), [1.0, 0.0, 0.0], atol=1e-15)

    def test_spherical_identity(self):
        theta, azimuth = math.pi / 3, math.pi / 4
        n = bloch_of(spinor_from_angles(theta, azimuth))
        expected = [
            math.sin(theta) * math.cos(azimuth),
            math.sin(theta) * math.sin(azimuth),
            math.cos(theta),
        ]
        np.testing.assert_allclose(n, expected, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            bloch_of(Spinor(1.0, 1.0))


class TestPrecessionAngles:
    def test_matches_classical_for_twice_mu_over_hbar(self):
        units = UnitSystem(hbar=1.4, mu=0.7, Gamma=1.0)  # Gamma == 2 mu / hbar
        pulse = SmoothBumpPulse(1.3, 0.0, 2.0, 0.4)
        gamma_q = sab_precession_angle(pulse, 1.7, units)
        gamma_c = -units.Gamma * pulse_integral_B(pulse, 0.0, 1.7)
        assert gamma_q == pytest.approx(gamma_c, abs=1e-15)

    def test_rectangular_value(self):
        units = UnitSystem(mu=1.0, hbar=1.0)
        assert sab_precession_angle(RectangularPulse(1.0, 0.0, 1.0), 1.0, units) == -2.0

    def test_smooth_bump_uses_quadrature(self):
        units = UnitSystem(mu=0.5, hbar=1.0)
        pulse = SmoothBumpPulse(1.0, 0.0, 1.0, 0.1)
        expected = -2.0 * 0.5 * pulse_integral_B(pulse, 0.0, 1.0)
        assert sab_precession_angle(pulse, 1.0, units) == pytest.approx(expected, abs=1e-15)

    def test_closed_loop_rotation_factor(self):
        # unit loop around lambda=1: gamma = -2, twice the ideal fringe shift
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        loop = PlanarPath.circle((0.0, 0.0), 1.0, 128)
        gamma = ac_precession_angle(cfg, loop, n_sub=64)
        assert gamma == pytest.approx(-2.0, abs=1e-6)
        phi_ideal = cfg.units.mu * 1.0 / (cfg.units.hbar * cfg.units.eps0 * cfg.units.c**2)
        assert gamma == pytest.approx(-2.0 * phi_ideal, abs=1e-6)

    def test_non_enclosing_loop(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        loop = PlanarPath.circle((7.0, 0.0), 0.5, 64)
        assert abs(ac_precession_angle(cfg, loop, n_sub=32)) < 1e-6

    def test_open_quarter_sweep(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        assert ac_precession_angle(cfg, path, n_sub=512) == pytest.approx(-0.5, abs=1e-6)

    def test_homotopic_paths_agree(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        straight = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        detour = PlanarPath(np.array([[2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
        g1 = ac_precession_angle(cfg, straight, n_sub=1024)
        g2 = ac_precession_angle(cfg, detour, n_sub=1024)
        assert g1 == pytest.approx(g2, abs=1e-6)


class TestEvolveSpin:
    def test_is_the_rotation(self):
        s = spinor_from_angles(0.9, 0.2)
        a = evolve_spin(s, 1.3)
        b = rotate_z(s, 1.3)
        assert a == b


class TestCorrespondence:
    def test_pulsed_field_bloch_matches_dipole(self):
        rng = np.random.default_rng(11)
        units = UnitSystem(mu=1.0, hbar=1.0, Gamma=2.0)
        for _ in range(10):
            theta = rng.uniform(0.05, math.pi - 0.05)
            pulse = RectangularPulse(rng.uniform(0.2, 2.0), 0.0, rng.uniform(0.5, 2.0))
            t = pulse.t_off * 1.1
            gamma = sab_precession_angle(pulse, t, units)
            n = bloch_of(evolve_spin(spinor_from_angles(theta), gamma))
            dip = precess_sab_closed_form(ClassicalDipole(1.0, theta), pulse, t, units)
            np.testing.assert_allclose(n, dip.vector, atol=1e-8)


class TestGaugeCancellation:
    def test_residual_small_off_source(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        arc = PlanarPath(PlanarPath.circle((0.0, 0.0), 1.0, 32).vertices[:9])
        assert verify_gauge_cancellation(cfg, arc) < 1e-6

    def test_zero_field_residual_is_zero(self):
        path = PlanarPath.line([0.0, 0.0], [1.0, 1.0])
        assert verify_gauge_cancellation(FieldConfig(), path) == 0.0

    def test_quadratic_in_fd_step(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        arc = PlanarPath(PlanarPath.circle((0.0, 0.0), 1.0, 32).vertices[:5])
        coarse = verify_gauge_cancellation(cfg, arc, fd_step=1e-2)
        fine = verify_gauge_cancellation(cfg, arc, fd_step=1e-3)
        assert coarse / fine == pytest.approx(100.0, rel=0.3)

    def test_equals_per_midpoint_loop(self):
        # per-midpoint loop oracle: one 2-vertex sub-path per midpoint and
        # axis, each through ac_precession_angle; exact equality, over enough
        # random arcs that a last-bit rounding change shows
        for seed in range(60):
            rng = np.random.default_rng(seed)
            units = UnitSystem(hbar=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0))
            charges = [
                LineCharge(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-1.0, 1.0)) for _ in range(rng.integers(1, 4))
            ]
            cfg = FieldConfig(charges=charges, units=units)
            phis = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(2, 20))))
            arc = PlanarPath(rng.uniform(1.5, 3.0) * np.stack([np.cos(phis), np.sin(phis)], axis=1))
            fd_step, n_sub = 10.0 ** rng.uniform(-6, -2), int(rng.integers(1, 40))
            worst = 0.0
            for p in 0.5 * (arc.vertices[:-1] + arc.vertices[1:]):
                grad = np.empty(2)
                for axis in range(2):
                    step = np.zeros(2)
                    step[axis] = fd_step
                    seg = PlanarPath(np.array([p - step, p + step]))
                    grad[axis] = ac_precession_angle(cfg, seg, units=units, n_sub=n_sub) / (2.0 * fd_step)
                resid = 0.5 * units.hbar * grad + units.mu * eval_A(cfg, p)
                worst = max(worst, float(np.linalg.norm(resid)))
            assert verify_gauge_cancellation(cfg, arc, fd_step=fd_step, n_sub=n_sub) == worst, seed

    def test_midpoint_on_charge_raises(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        path = PlanarPath(np.array([[2.0, 2.0], [1.0, 1.0], [-1.0, -1.0]]))  # second midpoint at the charge
        with pytest.raises(SingularPoint):
            verify_gauge_cancellation(cfg, path)

    def test_stencil_end_on_charge_raises(self):
        fd_step = 1e-3
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        # the third midpoint sits fd_step to the right of the charge, so its
        # x stencil starts on it
        path = PlanarPath(np.array([[3.0, 1.0], [2.0, 1.0], [fd_step - 1.0, -1.0], [fd_step + 1.0, 1.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            verify_gauge_cancellation(cfg, path, fd_step=fd_step)
        assert excinfo.value.segment == 2

    @pytest.mark.parametrize("kwargs", [{"fd_step": 0.0}, {"n_sub": 0}], ids=["fd-step-zero", "n-sub-zero"])
    def test_rejects_degenerate_stencil(self, kwargs):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            verify_gauge_cancellation(cfg, PlanarPath.line([1.0, 0.0], [0.0, 1.0]), **kwargs)
