"""Field evaluation, gauge potential, line and pulse integrals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinphase import (
    ClassicalDipole,
    FieldConfig,
    LineCharge,
    PlanarPath,
    RectangularPulse,
    SingularPoint,
    SmoothBumpPulse,
    UnitSystem,
    eval_A,
    eval_E,
    line_integral_A,
    precess_ac_closed_form,
    pulse_integral_B,
)
from spinphase.config import field_from_dict
from spinphase.fields import SINGULAR_DISTANCE, _segment_integrals

import reference
from reference import MIDPOINT_BLOCK_POINTS, adaptive_simpson, divergence_E, midpoint_rule

TWO_PI = 2.0 * math.pi


@pytest.fixture
def single_charge_2pi():
    return FieldConfig(charges=[LineCharge(0.0, 0.0, TWO_PI)])


@pytest.fixture
def unit_charge():
    return FieldConfig(charges=[LineCharge(0.0, 0.0, 1.0)])


class TestEvalE:
    def test_radial_normalization(self, single_charge_2pi):
        np.testing.assert_allclose(eval_E(single_charge_2pi, [1.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_inverse_distance_falloff(self, single_charge_2pi):
        np.testing.assert_allclose(eval_E(single_charge_2pi, [0.0, 2.0]), [0.0, 0.5], atol=1e-15)

    def test_two_charge_superposition(self):
        # opposite charges left and right of the origin add up along +x
        cfg = FieldConfig(charges=[LineCharge(-1.0, 0.0, TWO_PI), LineCharge(1.0, 0.0, -TWO_PI)])
        np.testing.assert_allclose(eval_E(cfg, [0.0, 0.0]), [2.0, 0.0], atol=1e-15)

    def test_singular_point(self, unit_charge):
        with pytest.raises(SingularPoint):
            eval_E(unit_charge, [0.0, 0.0])

    def test_batch_evaluation(self, single_charge_2pi):
        pts = np.array([[1.0, 0.0], [0.0, 2.0]])
        E = eval_E(single_charge_2pi, pts)
        np.testing.assert_allclose(E, [[1.0, 0.0], [0.0, 0.5]], atol=1e-15)


class TestEvalA:
    def test_quarter_turn_of_E(self, single_charge_2pi):
        np.testing.assert_allclose(eval_A(single_charge_2pi, [1.0, 0.0]), [0.0, 1.0], atol=1e-15)

    def test_at_y_axis(self, single_charge_2pi):
        np.testing.assert_allclose(eval_A(single_charge_2pi, [0.0, 1.0]), [-1.0, 0.0], atol=1e-15)

    def test_speed_of_light_scaling(self):
        cfg = FieldConfig(charges=[LineCharge(0.0, 0.0, TWO_PI)], units=UnitSystem(c=2.0))
        np.testing.assert_allclose(eval_A(cfg, [1.0, 0.0]), [0.0, 0.25], atol=1e-15)

    def test_magnitude_matches_E(self, unit_charge):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(-3.0, 3.0, 2)
            if np.linalg.norm(p) < 0.2:
                continue
            assert np.linalg.norm(eval_A(unit_charge, p)) == pytest.approx(
                np.linalg.norm(eval_E(unit_charge, p)), rel=1e-14
            )


class TestDivergence:
    def test_vanishes_off_source(self, unit_charge):
        assert abs(divergence_E(unit_charge, [1.0, 0.0], 1e-4)) < 1e-6
        assert abs(divergence_E(unit_charge, [3.0, 4.0], 1e-4)) < 1e-6

    def test_vanishes_on_sample_ring(self, unit_charge):
        # stencil truncation error grows as 1/r^4; at h = 1e-4 the 1e-6
        # tolerance is met from roughly r = 0.25 outward
        for radius in (0.3, 1.0, 5.0):
            for ang in np.linspace(0.0, TWO_PI, 13)[:-1]:
                p = [radius * math.cos(ang), radius * math.sin(ang)]
                assert abs(divergence_E(unit_charge, p, 1e-4)) < 1e-6

    def test_blows_up_near_charge(self, unit_charge):
        # documented behaviour: the stencil straddles the 1/r singularity and
        # the estimate grows without bound; no value is asserted
        value = divergence_E(unit_charge, [1e-3, 0.0], 1e-4)
        assert math.isfinite(value)


class TestLineIntegral:
    def test_enclosed_charge_circle(self, unit_charge):
        # exact value 1.0 = lambda/(eps0 c^2), for any polygon around the charge
        loop = PlanarPath.circle((0.0, 0.0), 1.0, 64)
        assert line_integral_A(unit_charge, loop) == pytest.approx(1.0, rel=1e-14)

    def test_non_enclosing_square(self, unit_charge):
        square = PlanarPath.polygon([[9.0, 9.0], [11.0, 9.0], [11.0, 11.0], [9.0, 11.0]])
        assert abs(line_integral_A(unit_charge, square)) < 1e-15

    def test_open_path_azimuthal_sweep(self, unit_charge):
        # pure-azimuthal A: integral = (lambda/(2 pi eps0 c^2)) * delta_azimuth
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        assert line_integral_A(unit_charge, path) == pytest.approx(0.25, rel=1e-15)

    def test_loop_shape_independence(self):
        cfg = FieldConfig(charges=[LineCharge(0.2, -0.1, 0.7), LineCharge(-0.3, 0.4, -1.9)])
        circle = PlanarPath.circle((0.0, 0.0), 2.0, 128)
        square = PlanarPath.polygon([[-3.0, -3.0], [3.0, -3.0], [3.0, 3.0], [-3.0, 3.0]])
        a = line_integral_A(cfg, circle)
        b = line_integral_A(cfg, square)
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx((0.7 - 1.9), abs=1e-14)

    def test_reversal_negates(self, unit_charge):
        path = PlanarPath(np.array([[2.0, 0.0], [1.5, 1.0], [0.0, 2.0]]))
        forward = line_integral_A(unit_charge, path)
        backward = line_integral_A(unit_charge, path.reversed())
        assert forward == pytest.approx(-backward, abs=1e-15)

    def test_n_sub_has_no_effect(self, unit_charge):
        # precess_ac_closed_form still accepts n_sub, and ignores it
        path = PlanarPath(np.array([[2.0, 0.0], [1.5, 1.0], [0.0, 2.0]]))
        dipole = ClassicalDipole(1.0, 0.7, 0.2)
        expected = precess_ac_closed_form(dipole, unit_charge, path)
        assert all(precess_ac_closed_form(dipole, unit_charge, path, n_sub=n) == expected for n in (1, 7, 32, 4096))

    def test_singular_sample_reports_segment(self, unit_charge):
        # segment 2 runs through the charge
        path = PlanarPath(np.array([[-1.0, 5.0], [1.0, 5.0], [1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(unit_charge, path)
        assert excinfo.value.segment == 2
        assert excinfo.value.point == (0.0, 0.0)

    def test_singular_vertex_reports_segment(self, unit_charge):
        # the vertex on the charge ends segment 0 and starts segment 1
        path = PlanarPath(np.array([[-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(unit_charge, path)
        assert excinfo.value.segment == 1
        assert excinfo.value.point == (0.0, 0.0)
        # the midpoint oracle applies the same rule
        with pytest.raises(SingularPoint) as excinfo:
            midpoint_rule(unit_charge, path.vertices[:-1], path.vertices[1:], 16)
        assert excinfo.value.segment == 1

    def test_lowest_segment_named_across_charges(self):
        # the first charge lies on segment 3, the second on segment 1: the
        # error names segment 1 and its closest point to the second charge
        cfg = FieldConfig(charges=[LineCharge(0.0, -3.0, 1.0), LineCharge(0.0, 3.0, 1.0)])
        path = PlanarPath(np.array([[-1.0, 5.0], [-1.0, 3.0], [1.0, 3.0], [1.0, -3.0], [-1.0, -3.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(cfg, path)
        assert excinfo.value.segment == 1
        assert excinfo.value.point == (0.0, 3.0)

    def test_singular_segment_in_a_later_block(self):
        # the first charge lies on segment 90, the second on segment 80; the
        # midpoint oracle meets them in different blocks of 65 segments
        cfg = FieldConfig(charges=[LineCharge(90.0005, 0.0, 1.0), LineCharge(80.0005, 0.0, 1.0)])
        verts = np.stack([np.arange(101.0), np.zeros(101)], axis=1)
        assert 1000 * 80 > MIDPOINT_BLOCK_POINTS
        for integrate in (lambda: line_integral_A(cfg, PlanarPath(verts)), lambda: midpoint_rule(cfg, verts[:-1], verts[1:], 1000)):
            with pytest.raises(SingularPoint) as excinfo:
                integrate()
            assert excinfo.value.segment == 80

    def test_unshared_end_on_charge_reports_its_segment(self, unit_charge):
        # segments that do not form a polyline: the end of segment 1 is no
        # other segment's start
        starts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        ends = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        for integrate in (_segment_integrals, lambda *args: midpoint_rule(*args, 8)):
            with pytest.raises(SingularPoint) as excinfo:
                integrate(unit_charge, starts, ends)
            assert excinfo.value.segment == 1
            assert excinfo.value.point == (0.0, 0.0)

    def test_near_charge_chord_raises(self, unit_charge):
        # segment 1 passes 5e-10 from the charge, between midpoint samples:
        # the midpoint rule returns a finite, wrong value; the exact form raises
        path = PlanarPath(np.array([[1.0, 1.0], [-1.0, 5e-10], [1.0, 5e-10]]))
        assert math.isfinite(midpoint_rule(unit_charge, path.vertices[:-1], path.vertices[1:], 32).sum())
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(unit_charge, path)
        assert excinfo.value.segment == 1
        assert excinfo.value.point == (0.0, 5e-10)
        # just beyond SINGULAR_DISTANCE the chord subtends nearly pi
        far = PlanarPath(np.array([[-1.0, -2 * SINGULAR_DISTANCE], [1.0, -2 * SINGULAR_DISTANCE]]))
        assert line_integral_A(unit_charge, far) == pytest.approx(0.5, rel=1e-8)

    def test_peak_memory_does_not_grow_with_charges(self):
        # the singular check keeps each charge's lowest hit, not an array per charge
        path = PlanarPath(np.stack([np.linspace(0.0, 1.0, 4001), np.zeros(4001)], axis=1))

        def peak(n_charges):
            cfg = FieldConfig(charges=[LineCharge(0.5, 10.0 + k, 1.0) for k in range(n_charges)])
            tracemalloc.start()
            try:
                line_integral_A(cfg, path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50) < 1.5 * peak(1)

    def test_convergence_in_n_sub(self, unit_charge):
        # the midpoint oracle converges to the exact value at second order
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        exact = line_integral_A(unit_charge, path)
        errors = [abs(midpoint_rule(unit_charge, path.vertices[:1], path.vertices[1:], n)[0] - exact) for n in (16, 32, 64)]
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)

    def test_samples_evaluated_in_bounded_blocks(self, unit_charge, monkeypatch):
        verts = np.random.default_rng(3).uniform(1.0, 3.0, size=(301, 2))
        expected = [midpoint_rule(unit_charge, verts[i : i + 1], verts[i + 1 : i + 2], 1000)[0] for i in range(300)]
        sizes = []

        def recording_eval_A(cfg, p):
            sizes.append(len(p))
            return eval_A(cfg, p)

        monkeypatch.setattr(reference, "eval_A", recording_eval_A)
        values = midpoint_rule(unit_charge, verts[:-1], verts[1:], 1000)
        assert sizes == [65_000] * 4 + [40_000]
        assert values.tolist() == expected
        # a segment with more samples than a block is a block of its own
        sizes.clear()
        midpoint_rule(unit_charge, verts[:3], verts[1:4], MIDPOINT_BLOCK_POINTS + 1)
        assert sizes == [MIDPOINT_BLOCK_POINTS + 1] * 3


def _charges(draw, n, radius):
    """n charges with |lambda| in [0.1, 2] at distances up to ``radius`` from the origin."""
    out = []
    for _ in range(n):
        r = draw(st.floats(0.0, radius))
        phi = draw(st.floats(0.0, TWO_PI))
        lam = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
        out.append(LineCharge(r * math.cos(phi), r * math.sin(phi), lam))
    return out


@st.composite
def star_loops(draw):
    """A closed counterclockwise star polygon around the origin, with radii in
    [1, 3] and angular gaps under 0.6 pi, plus charges inside its kernel
    (within 0.25 of the origin) and outside it (beyond 4)."""
    n = draw(st.integers(6, 40))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n))
    angles = (np.arange(n) + np.array(jitter)) * TWO_PI / n
    corners = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    inside = _charges(draw, draw(st.integers(0, 3)), 0.25)
    outside = [LineCharge(c.x * 20.0 + 4.0 * math.copysign(1.0, c.x or 1.0), c.y * 20.0, c.lam)
               for c in _charges(draw, draw(st.integers(0, 3)), 1.0)]
    units = UnitSystem(eps0=draw(st.floats(0.5, 2.0)), c=draw(st.floats(0.5, 2.0)))
    return PlanarPath.polygon(corners), inside, outside, units


class TestExactIntegralProperties:
    """The exact form against the midpoint oracle and the enclosed-charge law."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(star_loops())
    def test_star_loop_counts_enclosed_charge(self, case):
        loop, inside, outside, units = case
        cfg = FieldConfig(charges=inside + outside, units=units)
        enclosed = sum(c.lam for c in inside) / (units.eps0 * units.c**2)
        scale = sum(abs(c.lam) for c in cfg.charges) / (units.eps0 * units.c**2)
        assert abs(line_integral_A(cfg, loop) - enclosed) <= 1e-12 * max(abs(enclosed), scale, 1e-300)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(star_loops(), st.floats(0.05, 0.95))
    def test_reversal_and_splitting(self, case, where):
        loop, inside, outside, units = case
        cfg = FieldConfig(charges=inside + outside, units=units)
        verts = loop.vertices
        forward = _segment_integrals(cfg, verts[:-1], verts[1:])
        backward = _segment_integrals(cfg, verts[1:], verts[:-1])
        np.testing.assert_array_equal(backward, -forward)
        # a point inserted on every segment leaves each segment's value additive
        mids = verts[:-1] + where * (verts[1:] - verts[:-1])
        split = _segment_integrals(cfg, verts[:-1], mids) + _segment_integrals(cfg, mids, verts[1:])
        scale = sum(abs(c.lam) for c in cfg.charges) / (units.eps0 * units.c**2)
        np.testing.assert_allclose(split, forward, rtol=0.0, atol=1e-14 * max(scale, 1e-300))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(star_loops(), st.sampled_from((8, 16, 32)))
    def test_agrees_with_richardson_estimate(self, case, n):
        loop, inside, outside, units = case
        cfg = FieldConfig(charges=inside + outside, units=units)
        starts, ends = loop.vertices[:-1], loop.vertices[1:]
        exact = _segment_integrals(cfg, starts, ends)
        m1, m2, m4 = (midpoint_rule(cfg, starts, ends, k) for k in (n, 2 * n, 4 * n))
        coarse = 4.0 / 3.0 * (m2 - m1) + m1
        fine = 4.0 / 3.0 * (m4 - m2) + m2
        # the fine estimate's error is O(n^-4): about 1/15 of |fine - coarse|
        scale = sum(abs(c.lam) for c in cfg.charges) / (units.eps0 * units.c**2)
        assert np.all(np.abs(exact - fine) <= np.abs(fine - coarse) + 1e-13 * scale)


class TestPulseIntegral:
    def test_rectangular_full_window(self):
        pulse = RectangularPulse(2.0, 1.0, 3.0)
        assert pulse_integral_B(pulse, 0.0, 10.0) == 4.0

    def test_rectangular_partial_overlap(self):
        pulse = RectangularPulse(2.0, 1.0, 3.0)
        assert pulse_integral_B(pulse, 0.0, 2.0) == 2.0

    def test_smooth_bump_against_simpson_oracle(self):
        pulse = SmoothBumpPulse(1.0, 0.0, 1.0, 0.1)
        oracle = sum(
            adaptive_simpson(pulse.field_at, a, b)
            for a, b in [(0.0, 0.1), (0.1, 0.9), (0.9, 1.0)]
        )
        # cosine ramps make the support integral exactly B0*(duration - ramp)
        assert oracle == pytest.approx(0.9, abs=1e-10)
        assert pulse_integral_B(pulse, -1.0, 2.0) == pytest.approx(oracle, abs=1e-10)

    def test_smooth_bump_partial_window(self):
        pulse = SmoothBumpPulse(1.0, 0.0, 1.0, 0.1)
        oracle = adaptive_simpson(pulse.field_at, 0.0, 0.05)
        assert pulse_integral_B(pulse, -0.5, 0.05) == pytest.approx(oracle, abs=1e-12)

    def test_vanishes_outside_support(self):
        pulse = SmoothBumpPulse(3.0, 0.0, 2.0, 0.5)
        assert pulse.field_at(-0.1) == 0.0
        assert pulse.field_at(2.1) == 0.0
        assert pulse_integral_B(pulse, 2.0, 5.0) == 0.0

    @given(
        st.floats(0.0, 4.0),
        st.floats(0.0, 4.0),
        st.floats(0.0, 4.0),
    )
    def test_additivity_over_adjacent_windows(self, a, b, c):
        t0, t1, t2 = sorted((a, b, c))
        pulse = RectangularPulse(1.5, 0.5, 2.5)
        whole = pulse_integral_B(pulse, t0, t2)
        split = pulse_integral_B(pulse, t0, t1) + pulse_integral_B(pulse, t1, t2)
        assert whole == pytest.approx(split, abs=1e-12)

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError):
            pulse_integral_B(RectangularPulse(1.0, 0.0, 1.0), 2.0, 1.0)


@st.composite
def smooth_windows(draw):
    """A smooth pulse and a window inside one ramp, across knots, or over
    the whole support from before t_on to after t_off."""
    t_on = draw(st.floats(-3.0, 3.0))
    duration = draw(st.floats(0.1, 5.0))
    B0 = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    pulse = SmoothBumpPulse(B0, t_on, t_on + duration, draw(st.floats(1e-3, 0.49)) * duration)
    kind = draw(st.sampled_from(["one ramp", "across knots", "whole support"]))
    knots = pulse.knots()
    if kind == "one ramp":
        lo, hi = draw(st.sampled_from([knots[:2], knots[2:]]))
        u, v = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
        return pulse, lo + u * (hi - lo), lo + v * (hi - lo)
    if kind == "across knots":
        t0, t1 = sorted((draw(st.floats(t_on - 1.0, knots[3] + 1.0)), draw(st.floats(t_on - 1.0, knots[3] + 1.0))))
        return pulse, t0, t1
    return pulse, t_on - draw(st.floats(0.0, 1.0)), knots[3] + draw(st.floats(0.0, 1.0))


class TestSmoothPulseClosedForm:
    """The exact smooth-bump integral against Simpson, series and identities."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(smooth_windows())
    def test_matches_simpson_oracle(self, window):
        pulse, t0, t1 = window
        lo, hi = max(t0, pulse.t_on), min(t1, pulse.t_off)
        # the oracle integrates each smooth piece between the ramp knots
        points = sorted({lo, hi, *(k for k in pulse.knots() if lo < k < hi)}) if lo < hi else []
        tol = 1e-14 * abs(pulse.B0) * pulse.ramp
        oracle = sum(adaptive_simpson(pulse.field_at, a, b, tol) for a, b in zip(points[:-1], points[1:]))
        got = pulse_integral_B(pulse, t0, t1)
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-15 * abs(pulse.B0) * pulse.ramp)

    @settings(derandomize=True, database=None)
    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_additivity_over_adjacent_windows(self, a, b, c):
        t0, t1, t2 = sorted((a, b, c))
        pulse = SmoothBumpPulse(1.5, 0.5, 2.5, 0.7)
        whole = pulse_integral_B(pulse, t0, t2)
        split = pulse_integral_B(pulse, t0, t1) + pulse_integral_B(pulse, t1, t2)
        assert whole == pytest.approx(split, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize(
        "B0, t_on, t_off, ramp",
        [
            (1.0, 0.0, 1.0, 0.1),
            (-2.5, 0.3, 4.1, 0.5 * (4.1 - 0.3)),
            (3.0, -1.0, 2.0, 1e-9),
            (0.7, 10.0, 11.0, 0.25),
        ],
    )
    def test_full_support(self, B0, t_on, t_off, ramp):
        pulse = SmoothBumpPulse(B0, t_on, t_off, ramp)
        expected = B0 * (t_off - t_on - ramp)
        assert pulse_integral_B(pulse, t_on - 1.0, t_off + 1.0) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert pulse_integral_B(pulse, t_on, t_off) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.2, 5.0), st.floats(0.01, 0.5), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    # the falling window starts on the rounded knot t_off - ramp, one ulp below the ramp
    @example(1.0, 0.01, 0.0, 1.0)
    def test_ramps_mirror_each_other(self, duration, share, u, v):
        # t_on = 0, so t_off - f is exact for each falling-ramp time f, and the
        # rising window below is the exact mirror image of the falling one; a
        # window that ends on a knot can still split off a plateau piece of
        # one ulp on one side only
        pulse = SmoothBumpPulse(1.3, 0.0, duration, share * duration)
        f0 = pulse.t_off - max(u, v) * pulse.ramp
        f1 = pulse.t_off - min(u, v) * pulse.ramp
        falling = pulse_integral_B(pulse, f0, f1)
        rising = pulse_integral_B(pulse, pulse.t_off - f1, pulse.t_off - f0)
        assert rising == pytest.approx(falling, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("share", [1e-3, 1e-6])
    def test_short_window_after_t_on(self, share):
        # integral_0^x 0.5 B0 (1 - cos(pi u / ramp)) du
        #   = B0 pi^2 x^3 / (12 ramp^2) (1 - pi^2 x^2 / (20 ramp^2) + O(x^4));
        # the antiderivative 0.5 B0 (x - (ramp / pi) sin(pi x / ramp))
        # loses about 6 ramp^2 / (pi^2 x^2) ulp here
        pulse = SmoothBumpPulse(1.7, 0.3, 2.3, 0.4)
        t1 = pulse.t_on + share * pulse.ramp
        x = t1 - pulse.t_on
        leading = pulse.B0 * math.pi**2 * x**3 / (12.0 * pulse.ramp**2)
        series = leading * (1.0 - math.pi**2 * x**2 / (20.0 * pulse.ramp**2))
        assert pulse_integral_B(pulse, pulse.t_on, t1) == pytest.approx(series, rel=1e-12, abs=0.0)
        assert pulse_integral_B(pulse, 0.0, t1) == pytest.approx(leading, rel=2.0 * share**2, abs=0.0)

    @pytest.mark.parametrize("ramp", [5e-324, 1e-310])
    @pytest.mark.parametrize("B0", [1e308, -1e308])
    def test_subnormal_ramp_and_huge_field(self, ramp, B0):
        pulse = SmoothBumpPulse(B0, 0.0, 1.0, ramp)
        assert pulse_integral_B(pulse, -1.0, 2.0) == B0
        assert pulse_integral_B(pulse, 0.0, ramp) == pytest.approx(0.5 * B0 * ramp, rel=1e-15, abs=0.0)
        assert pulse_integral_B(pulse, 0.5 * ramp, 0.5) == pytest.approx(0.5 * B0, rel=1e-15, abs=0.0)
        times = np.array([-1.0, 0.0, 0.5 * ramp, ramp, 0.5, 1.0 - ramp, 1.0, 2.0])
        assert np.isfinite(pulse.field_at(times)).all() and pulse.field_at(0.5) == B0

    def test_field_at_takes_floats_and_arrays(self):
        pulse = SmoothBumpPulse(2.0, 1.0, 3.0, 0.5)
        times = np.array([0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 2.75, 3.0, 3.5])
        expected = [0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0]
        np.testing.assert_allclose(pulse.field_at(times), expected, rtol=1e-15, atol=1e-15)
        assert [pulse.field_at(t) for t in times.tolist()] == pulse.field_at(times).tolist()
        rect = RectangularPulse(2.0, 1.0, 3.0)
        assert rect.field_at(times).tolist() == [0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0]
        assert rect.field_at(3.0) == 2.0 and rect.field_at(3.5) == 0.0


class TestValidation:
    def test_units_must_be_positive(self):
        with pytest.raises(ValueError):
            UnitSystem(hbar=0.0)
        with pytest.raises(ValueError):
            UnitSystem(eps0=-1.0)

    def test_gamma_may_be_negative_but_not_zero(self):
        assert UnitSystem(Gamma=-1.8).Gamma == -1.8
        with pytest.raises(ValueError):
            UnitSystem(Gamma=0.0)

    def test_path_needs_two_vertices(self):
        with pytest.raises(ValueError):
            PlanarPath(np.array([[0.0, 0.0]]))

    def test_closed_path_must_close(self):
        with pytest.raises(ValueError):
            PlanarPath(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=True)

    def test_ramp_bounds(self):
        with pytest.raises(ValueError):
            SmoothBumpPulse(1.0, 0.0, 1.0, 0.6)


class TestSerialization:
    def test_round_trip(self):
        # the reader half: a field config document gives back the objects it describes
        back = field_from_dict(
            {
                "charges": [{"x": 0.5, "y": -1.0, "lambda": 2.25}],
                "pulse": {"shape": "smooth-bump", "B0": 1.5, "t_on": 0.0, "t_off": 2.0, "ramp": 0.25},
                "units": {"hbar": 1.0, "c": 1.0, "eps0": 1.0, "mu": 0.5, "Gamma": -1.0, "m": 1.0},
            }
        )
        assert back.charges == [LineCharge(0.5, -1.0, 2.25)]
        assert back.pulse == SmoothBumpPulse(1.5, 0.0, 2.0, 0.25)
        assert back.units == UnitSystem(mu=0.5, Gamma=-1.0)
