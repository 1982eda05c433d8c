"""Classical dipole precession: closed forms, RK4 integrators, and the force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import ac_force_fd, ac_stage_points, integrate_ac_per_segment, rk4_precession, stage_blocks
from spinphase import classical
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
        d1, gamma = precess_ac_closed_form(d0, unit_charge, loop)
        assert gamma == pytest.approx(-1.0, abs=1e-6)
        assert d1.theta == d0.theta

    def test_non_enclosing_loop(self, unit_charge):
        loop = PlanarPath.circle((10.0, 10.0), 1.0, 64)
        _, gamma = precess_ac_closed_form(ClassicalDipole(), unit_charge, loop)
        assert abs(gamma) < 1e-6

    def test_open_quarter_sweep(self, unit_charge):
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        _, gamma = precess_ac_closed_form(ClassicalDipole(), unit_charge, path)
        assert gamma == pytest.approx(-0.25, abs=1e-6)

    def test_open_path_homotopy_independence(self, unit_charge):
        straight = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        detour = PlanarPath(np.array([[2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
        _, g1 = precess_ac_closed_form(ClassicalDipole(), unit_charge, straight)
        _, g2 = precess_ac_closed_form(ClassicalDipole(), unit_charge, detour)
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


def _outcome(integrate, *args):
    """The final moment, or the type and text of the error raised."""
    try:
        return tuple(integrate(*args).vector)
    except (SingularPoint, StepTooLarge) as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(got, ref, mu):
    """The same error, exactly, or finals within 1e-13 mu of each other: the
    scan rounds in another order than the plain-float loop."""
    if isinstance(ref[0], str) or isinstance(got[0], str):
        assert got == ref
    else:
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * mu)


@st.composite
def ac_cases(draw):
    """Random paths (some with repeated vertices), charges, speeds and dt."""
    coord = st.floats(-2.0, 2.0)
    verts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=12))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(verts) - 1))
        verts.insert(k, verts[k])  # a zero-length segment
    charges = [LineCharge(x, y, draw(st.floats(-0.3, 0.3))) for x, y in draw(st.lists(st.tuples(coord, coord), max_size=3))]
    units = UnitSystem(Gamma=draw(st.floats(0.5, 2.0)), c=draw(st.floats(0.5, 2.0)))
    speeds = draw(st.lists(st.floats(0.3, 3.0), min_size=len(verts) - 1, max_size=len(verts) - 1))
    dt = draw(st.floats(2e-3, 0.1))
    dipole = ClassicalDipole(mu=draw(st.floats(0.5, 2.0)), theta=draw(st.floats(0.0, math.pi)), azimuth=draw(st.floats(-3.0, 3.0)))
    return dipole, FieldConfig(charges=charges, units=units), KinematicPath(PlanarPath(np.array(verts)), speeds), dt


def record_eval_A(monkeypatch):
    """Route classical's eval_A through a recorder; returns the list of the
    point arrays it receives."""
    calls = []

    def recording_eval_A(cfg, p):
        calls.append(np.array(p))
        return eval_A(cfg, p)

    monkeypatch.setattr(classical, "eval_A", recording_eval_A)
    return calls


class TestGatheredAcIntegrator:
    """integrate_precession_ac against the segment-by-segment loop."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(ac_cases())
    def test_equals_per_segment_loop(self, case):
        got = _outcome(integrate_precession_ac, *case)
        assert_same_outcome(got, _outcome(integrate_ac_per_segment, *case), case[0].mu)

    def test_long_and_short_segments_equal_per_segment_loop(self, unit_charge):
        # segments of 165 to 1,321 steps: segments 1 and 2 each fill a block,
        # and the rest of segment 2 shares one evaluation with segment 3
        verts = np.array([[2.0, 0.0], [2.0, 0.3], [1.5, 1.5], [-2.0, 1.0], [-2.0, 0.7], [-1.8, 0.2]])
        kin = KinematicPath(PlanarPath(verts), [1.0, 0.7, 2.0, 1.3, 0.4])
        dt = 3.6 / (5 * RATE_BLOCK_STEPS // 2)
        d0 = ClassicalDipole(mu=1.0, theta=1.2, azimuth=0.3)
        got = _outcome(integrate_precession_ac, d0, unit_charge, kin, dt)
        assert_same_outcome(got, _outcome(integrate_ac_per_segment, d0, unit_charge, kin, dt), d0.mu)

    def test_singular_point_names_lowest_segment(self):
        # one block of 10 one-step segments; the first charge sits on the
        # midpoint stage of segment 6, the second on that of segment 3
        cfg = FieldConfig(charges=[LineCharge(6.5, 0.0, 1.0), LineCharge(3.5, 0.0, 1.0)], units=GAMMA_ONE)
        verts = np.stack([np.arange(11.0), np.zeros(11)], axis=1)
        kin = KinematicPath.uniform(PlanarPath(verts), 1.0)
        for integrate in (integrate_precession_ac, integrate_ac_per_segment):
            with pytest.raises(SingularPoint) as excinfo:
                integrate(ClassicalDipole(theta=0.5), cfg, kin, 1.0)
            assert excinfo.value.segment == 3
            assert excinfo.value.point == (3.5, 0.0)

    def test_singular_segment_in_the_second_block(self, unit_charge):
        # segment 0 takes 1,100 steps, so the first block cuts it; segment 2
        # of the second block passes through the charge, and the error names
        # it and its stage point, as the segment-by-segment loop does
        verts = np.array([[5.0, 1.0], [5.0 - 1100 * 4e-3, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        cfg = FieldConfig(charges=[LineCharge(-1.0, 0.0, 0.2)], units=GAMMA_ONE)
        kin = KinematicPath.uniform(PlanarPath(verts), 1.0)
        d0 = ClassicalDipole(theta=0.7)
        ref = _outcome(integrate_ac_per_segment, d0, cfg, kin, 4e-3)
        assert ref[0] == "SingularPoint" and "(path segment 2)" in ref[1]
        assert _outcome(integrate_precession_ac, d0, cfg, kin, 4e-3) == ref

    def test_step_too_large_before_a_singular_segment(self, unit_charge):
        # segment 0 fails its first step before segment 1, gathered with it,
        # reaches the charge
        verts = np.array([[0.05, -1.0], [0.05, 1.0], [0.0, 1.0], [0.0, -1.0]])
        kin = KinematicPath.uniform(PlanarPath(verts), 1.0)
        with pytest.raises(StepTooLarge, match="reduce dt"):
            integrate_precession_ac(ClassicalDipole(theta=math.pi / 2), unit_charge, kin, 0.5)
        d0 = ClassicalDipole(theta=math.pi / 2)
        ref = _outcome(integrate_ac_per_segment, d0, unit_charge, kin, 0.5)
        assert _outcome(integrate_precession_ac, d0, unit_charge, kin, 0.5) == ref

    def test_batches_hold_at_most_a_block_of_steps(self, unit_charge, monkeypatch):
        rng = np.random.default_rng(5)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 200))
        verts = 1.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        kin = KinematicPath(PlanarPath(verts), rng.uniform(0.3, 3.0, 199))
        d0 = ClassicalDipole(mu=1.0, theta=0.8)
        expected = integrate_ac_per_segment(d0, unit_charge, kin, 2e-3).vector
        calls = record_eval_A(monkeypatch)
        got = integrate_precession_ac(d0, unit_charge, kin, 2e-3).vector
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)
        steps = sum(len(times) // 2 for i, d in enumerate(np.diff(verts, axis=0))
                    for _, times in stage_blocks(0.0, float(np.linalg.norm(d)) / kin.speeds[i], 2e-3))
        # each segment adds 2k + 1 points for its k steps
        assert sum(len(p) for p in calls) == 2 * steps + 199
        assert 1 < len(calls) < 199
        assert max(len(p) for p in calls) <= 3 * RATE_BLOCK_STEPS


class TestStageGrid:
    """The points eval_A receives are the reference stage_blocks points."""

    @pytest.mark.parametrize(
        "verts, speeds, dt",
        [
            # 199 short segments: blocks end at segment ends
            (PlanarPath.circle((0.0, 0.0), 1.5, 199).vertices, 0.3 + np.arange(199) % 7 * 0.4, 2e-3),
            # segment 1 takes 2.5 blocks of steps, so two block boundaries lie
            # inside it; segment 3 has zero length
            (np.array([[2.0, 0.0], [2.0, 0.3], [1.5, 1.5], [-2.0, 1.0], [-2.0, 1.0], [-1.8, 0.2]]), [1.0, 0.7, 2.0, 1.3, 0.4], 6e-4),
            # one segment of exactly one block, then one of a block and one step
            (np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]), [2.0 / (RATE_BLOCK_STEPS * 1e-3), 2.0 / ((RATE_BLOCK_STEPS + 1) * 1e-3)], 1e-3),
        ],
        ids=["short-segments", "cut-segment", "exact-block"],
    )
    def test_points_equal_reference_stage_blocks(self, unit_charge, monkeypatch, verts, speeds, dt):
        kin = KinematicPath(PlanarPath(verts), speeds)
        calls = record_eval_A(monkeypatch)
        integrate_precession_ac(ClassicalDipole(theta=0.8), unit_charge, kin, dt)
        ref = ac_stage_points(kin, dt)
        got = np.concatenate(calls)
        assert got.tobytes() == np.concatenate([p for _, p in ref]).tobytes()
        # a segment of n steps has 2n + 1 points, one more per block boundary inside it
        for i, d in enumerate(np.diff(np.asarray(verts, dtype=float), axis=0)):
            tau = float(np.linalg.norm(d)) / kin.speeds[i]
            n = max(1, math.ceil(tau / dt - 1e-12)) if tau > 0.0 else 0
            pieces = [p for segment, p in ref if segment == i]
            assert sum(len(p) for p in pieces) == (2 * n + len(pieces) if n else 0)
        assert max(len(p) for p in calls) <= 3 * RATE_BLOCK_STEPS

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 3.0)), min_size=1, max_size=6),
        st.floats(1e-3, 0.5),
    )
    def test_times_equal_reference_stage_blocks(self, windows, dt):
        t0 = np.array([a for a, _ in windows])
        t1 = t0 + np.array([span for _, span in windows])
        got = [(window, times) for window, times, _, _ in classical._stage_grid(t0, t1, dt)]
        ref = [times for w in range(len(t0)) for _, times in stage_blocks(t0[w], t1[w], dt)]
        assert np.concatenate([t for _, t in got] or [np.empty(0)]).tobytes() == np.concatenate(ref or [np.empty(0)]).tobytes()
        for window, _ in got:
            assert (np.diff(window) >= 0).all()


def loop_outcome(m, mu0, rates, h):
    """The plain-float loop's final moment, or the step it fails at and its text."""
    for k in range(len(rates) // 2):
        try:
            m = rk4_precession(m, mu0, rates[2 * k : 2 * k + 3], h)
        except StepTooLarge as exc:
            return k, str(exc)
    return m


def scan_window(m, mu0, rates, h):
    rates = np.asarray(rates, dtype=float)
    step = np.arange(0, len(rates) - 1, 2)
    return classical._rk4_scan(m, mu0, rates[step], rates[step + 1], rates[step + 2], np.full(len(step), h))


@st.composite
def scan_windows(draw):
    """A moment (theta 0, pi/2, pi or any; mu_z or u exactly 0 at times), a
    step size and the 2k + 1 stage rates of up to 3,000 steps, of both signs,
    with an occasional spike too large for one step."""
    mu = draw(st.floats(0.5, 2.0))
    azimuth = draw(st.floats(-3.0, 3.0))
    theta = draw(st.sampled_from([0.0, math.pi / 2, math.pi, "mu_z = 0", "u = 0", None]))
    if theta == "mu_z = 0":
        m = (mu * math.cos(azimuth), mu * math.sin(azimuth), 0.0)
    elif theta == "u = 0":
        m = (0.0, 0.0, draw(st.sampled_from([mu, -mu])))
    else:
        m = classical._moment(mu, draw(st.floats(0.0, math.pi)) if theta is None else theta, azimuth)
    k = draw(st.integers(1, 3000))
    h = draw(st.floats(1e-4, 0.1))
    angle = draw(st.floats(-0.05, 0.05))  # rate * h at the start of the window
    wobble = draw(st.floats(0.0, 0.05))
    phase = draw(st.floats(0.0, 6.0))
    t = np.linspace(0.0, 1.0, 2 * k + 1)
    rates = (angle + wobble * np.sin(2.0 * math.pi * (3.0 * t + phase / 6.0))) / h
    if draw(st.booleans()):
        spike = draw(st.integers(0, 2 * k))
        rates[spike] = draw(st.floats(-4.0, 4.0)) / h
    m_norm = math.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
    return m, m_norm, rates.tolist(), h


class TestRk4Scan:
    """_rk4_scan against the plain-float loop kept in tests/reference.py."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scan_windows())
    def test_equals_plain_float_loop(self, case):
        m, mu0, rates, h = case
        ref = loop_outcome(m, mu0, rates, h)
        if isinstance(ref[1], str):
            k, text = ref
            with pytest.raises(StepTooLarge) as excinfo:
                scan_window(m, mu0, rates, h)
            assert str(excinfo.value) == text
            # the steps before the loop's failing step pass
            if k:
                scan_window(m, mu0, rates[: 2 * k + 1], h)
        else:
            np.testing.assert_allclose(scan_window(m, mu0, rates, h), ref, rtol=0.0, atol=1e-13 * mu0)

    def test_aligned_and_equatorial_moments_stay_exact(self):
        rates = np.linspace(-3.0, 5.0, 201)
        assert scan_window((0.0, 0.0, 1.5), 1.5, rates, 1e-3) == (0.0, 0.0, 1.5)
        x, y, z = scan_window((1.5, 0.0, 0.0), 1.5, rates, 1e-3)
        assert z == 0.0
        assert math.hypot(x, y) == pytest.approx(1.5, rel=1e-15)

    def test_first_step_measures_drift_from_the_entering_moment(self):
        # the loop renormalizes whatever moment enters: a first step that
        # lands 2e-3 off mu0 fails, one that lands 5e-4 off passes
        rates = [0.1, 0.1, 0.1]
        m = (0.6 * 1.002, 0.0, 0.8 * 1.002)
        with pytest.raises(StepTooLarge) as excinfo:
            scan_window(m, 1.0, rates, 0.01)
        assert loop_outcome(m, 1.0, rates, 0.01) == (0, str(excinfo.value))
        m = (0.6 * 0.9995, 0.0, 0.8 * 0.9995)
        ref = loop_outcome(m, 1.0, rates, 0.01)
        np.testing.assert_allclose(scan_window(m, 1.0, rates, 0.01), ref, rtol=0.0, atol=1e-13)

    def test_non_finite_rate_raises_for_an_aligned_moment(self):
        rates = [1.0, math.inf, 1.0]
        with pytest.raises(StepTooLarge, match="drifted by nan"):
            scan_window((0.0, 0.0, 1.0), 1.0, rates, 0.1)
        with pytest.raises(StepTooLarge, match="drifted by nan"):
            rk4_precession((0.0, 0.0, 1.0), 1.0, rates, 0.1)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_speed_rejected(self, bad):
        path = PlanarPath(PlanarPath.circle((0.0, 0.0), 1.0, 8).vertices[:3])
        with pytest.raises(ValueError, match="finite"):
            KinematicPath(path, [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            KinematicPath.uniform(path, bad)

    def test_nan_time_rejected(self):
        pulse = RectangularPulse(1.0, 0.0, 1.0)
        d0 = ClassicalDipole(theta=1.0)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            integrate_precession_sab(d0, pulse, math.nan, 1e-2, GAMMA_ONE)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            precess_sab_closed_form(d0, pulse, math.nan, GAMMA_ONE)

    def test_too_many_steps_overflow(self, unit_charge):
        # the segment's duration 2 / 1e-308 overflows to inf
        kin = KinematicPath.uniform(PlanarPath.line([2.0, 0.0], [2.0, 2.0]), 1e-308)
        with pytest.raises(OverflowError):
            integrate_precession_ac(ClassicalDipole(theta=1.0), unit_charge, kin, 1e-3)
        with pytest.raises(OverflowError):
            integrate_precession_sab(ClassicalDipole(theta=1.0), RectangularPulse(1.0, 0.0, 1.0), 1.0, 1e-300, GAMMA_ONE)

    def test_nan_step_rejected(self, unit_charge):
        d0 = ClassicalDipole(theta=1.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_precession_sab(d0, RectangularPulse(1.0, 0.0, 1.0), 1.0, math.nan, GAMMA_ONE)
        kin = KinematicPath.uniform(PlanarPath.line([2.0, 0.0], [0.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_precession_ac(d0, unit_charge, kin, math.nan)


class TestAcForce:
    def test_aligned_moment_feels_exactly_nothing(self, unit_charge):
        F = ac_force(ClassicalDipole(mu=1.7, theta=0.0), unit_charge, [3e-5, 0.0], [0.8, 0.1])
        assert F.tolist() == [0.0, 0.0, 0.0]

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

    def test_matches_finite_difference_far_from_charges(self):
        rng = np.random.default_rng(8)
        cfg = FieldConfig(charges=[LineCharge(0.3, -0.2, 1.4), LineCharge(-0.5, 0.6, -0.8)], units=UnitSystem(c=1.3))
        for _ in range(30):
            p = rng.uniform(1.0, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            v = rng.uniform(-2.0, 2.0, 2)
            d = ClassicalDipole(mu=rng.uniform(0.5, 2.0), theta=rng.uniform(0.0, math.pi), azimuth=rng.uniform(-3.0, 3.0))
            np.testing.assert_allclose(ac_force(d, cfg, p, v), ac_force_fd(d, cfg, p, v), rtol=0.0, atol=1e-8)

    def test_exact_near_a_charge(self):
        # at distance 3e-5 the h = 1e-5 stencil is off by a third; the
        # closed form keeps F_z = -mu / d^2 of test_hand_computed_z_force
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, 2.0 * math.pi)], units=GAMMA_ONE)
        d = ClassicalDipole(mu=1.0, theta=math.pi / 2, azimuth=math.pi / 2)
        F = ac_force(d, cfg, [3e-5, 0.0], [1.0, 0.0])
        assert F[2] == pytest.approx(-1.0 / 9e-10, rel=1e-14)
        assert abs(ac_force_fd(d, cfg, [3e-5, 0.0], [1.0, 0.0])[2] / F[2] - 1.0) > 0.1

    def test_linear_in_the_in_plane_moment(self, unit_charge):
        rng = np.random.default_rng(9)
        p, v = [1.1, -0.7], [0.4, 1.3]

        def force(xy, z):
            return ac_force(ClassicalDipole.from_vector([xy[0], xy[1], z]), unit_charge, p, v)

        for _ in range(10):
            u, w = rng.uniform(-2.0, 2.0, (2, 2))
            alpha, beta = rng.uniform(-2.0, 2.0, 2)
            z = rng.uniform(-1.0, 1.0, 3)
            expected = alpha * force(u, z[1]) + beta * force(w, z[2])
            np.testing.assert_allclose(force(alpha * u + beta * w, z[0]), expected, rtol=1e-12, atol=1e-14)

    def test_invariant_under_a_shift(self):
        rng = np.random.default_rng(10)
        charges = [(0.3, -0.2, 1.4), (-0.5, 0.6, -0.8)]
        d = ClassicalDipole(mu=1.3, theta=1.0, azimuth=0.4)
        p, v = np.array([1.2, 0.9]), np.array([0.5, -1.5])
        F = ac_force(d, FieldConfig(charges=[LineCharge(*c) for c in charges]), p, v)
        for _ in range(5):
            s = rng.uniform(-5.0, 5.0, 2)
            moved = FieldConfig(charges=[LineCharge(x + s[0], y + s[1], lam) for x, y, lam in charges])
            np.testing.assert_allclose(ac_force(d, moved, p + s, v), F, rtol=1e-12, atol=0.0)

    def test_singular_point(self, unit_charge):
        with pytest.raises(SingularPoint):
            ac_force(ClassicalDipole(theta=1.0), unit_charge, [0.0, 1e-10], [1.0, 0.0])


class TestClosedLoopTheorem:
    def test_gamma_counts_enclosed_charge_only(self):
        units = UnitSystem(Gamma=1.25)
        cfg = FieldConfig(
            charges=[LineCharge(0.0, 0.0, 2.0), LineCharge(5.0, 0.0, -7.0)], units=units
        )
        loop = PlanarPath.circle((0.0, 0.0), 1.5, 128)
        _, gamma = precess_ac_closed_form(ClassicalDipole(), cfg, loop)
        assert gamma == pytest.approx(-1.25 * 2.0, abs=1e-6)
