"""Field evaluation, gauge potential, line and pulse integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinphase import (
    FieldConfig,
    LineCharge,
    PlanarPath,
    RectangularPulse,
    SingularPoint,
    SmoothBumpPulse,
    UnitSystem,
    divergence_E,
    eval_A,
    eval_E,
    line_integral_A,
    pulse_integral_B,
)
from spinphase import fields
from spinphase.fields import MIDPOINT_BLOCK_POINTS, _midpoint_rule

TWO_PI = 2.0 * math.pi


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=40):
    """Independent quadrature oracle (recursive Simpson with Richardson tail)."""

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= max_depth or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


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

    def test_extra_field_hook(self, unit_charge):
        cfg = FieldConfig(
            charges=list(unit_charge.charges),
            extra_field=lambda pts: np.full_like(pts, 0.5),
        )
        base = eval_E(unit_charge, [2.0, 0.0])
        hooked = eval_E(cfg, [2.0, 0.0])
        np.testing.assert_allclose(hooked, base + 0.5)


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
        # exact value 1.0 = lambda/(eps0 c^2); midpoint rule needs n_sub=64
        # on a 64-gon to get below 1e-6 (n_sub=16 leaves ~3e-6)
        loop = PlanarPath.circle((0.0, 0.0), 1.0, 64)
        assert line_integral_A(unit_charge, loop, 64) == pytest.approx(1.0, abs=1e-6)

    def test_non_enclosing_square(self, unit_charge):
        square = PlanarPath.polygon([[9.0, 9.0], [11.0, 9.0], [11.0, 11.0], [9.0, 11.0]])
        assert abs(line_integral_A(unit_charge, square, 32)) < 1e-6

    def test_open_path_azimuthal_sweep(self, unit_charge):
        # pure-azimuthal A: integral = (lambda/(2 pi eps0 c^2)) * delta_azimuth
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        assert line_integral_A(unit_charge, path, 512) == pytest.approx(0.25, abs=1e-6)

    def test_loop_shape_independence(self):
        cfg = FieldConfig(charges=[LineCharge(0.2, -0.1, 0.7), LineCharge(-0.3, 0.4, -1.9)])
        circle = PlanarPath.circle((0.0, 0.0), 2.0, 128)
        square = PlanarPath.polygon([[-3.0, -3.0], [3.0, -3.0], [3.0, 3.0], [-3.0, 3.0]])
        a = line_integral_A(cfg, circle, 64)
        b = line_integral_A(cfg, square, 2048)
        assert a == pytest.approx(b, abs=1e-6)
        assert a == pytest.approx((0.7 - 1.9), abs=1e-6)

    def test_reversal_negates(self, unit_charge):
        path = PlanarPath(np.array([[2.0, 0.0], [1.5, 1.0], [0.0, 2.0]]))
        forward = line_integral_A(unit_charge, path, 64)
        backward = line_integral_A(unit_charge, path.reversed(), 64)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_singular_sample_reports_segment(self, unit_charge):
        # odd n_sub puts a midpoint sample exactly on the charge
        path = PlanarPath(np.array([[-1.0, 5.0], [1.0, 5.0], [1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(unit_charge, path, 31)
        assert excinfo.value.segment == 2

    def test_singular_vertex_reports_segment(self, unit_charge):
        path = PlanarPath(np.array([[-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(unit_charge, path, 16)
        assert excinfo.value.segment == 1

    def test_lowest_segment_named_across_charges(self):
        # the first charge sits on a sample of segment 3, the second on one
        # of segment 1: the error names segment 1 and the second charge
        cfg = FieldConfig(charges=[LineCharge(0.0, -3.0, 1.0), LineCharge(0.0, 3.0, 1.0)])
        path = PlanarPath(np.array([[-1.0, 5.0], [-1.0, 3.0], [1.0, 3.0], [1.0, -3.0], [-1.0, -3.0]]))
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(cfg, path, 31)
        assert excinfo.value.segment == 1
        assert excinfo.value.point == (0.0, 3.0)

    def test_singular_segment_in_a_later_block(self):
        # blocks of 65 segments at n_sub = 1000; the first sample of segment
        # 90 meets the first charge, the first sample of segment 80 the second
        cfg = FieldConfig(charges=[LineCharge(90.0005, 0.0, 1.0), LineCharge(80.0005, 0.0, 1.0)])
        verts = np.stack([np.arange(101.0), np.zeros(101)], axis=1)
        assert 1000 * 80 > MIDPOINT_BLOCK_POINTS
        with pytest.raises(SingularPoint) as excinfo:
            line_integral_A(cfg, PlanarPath(verts), 1000)
        assert excinfo.value.segment == 80

    def test_unshared_end_on_charge_reports_its_segment(self, unit_charge):
        # segments that do not form a polyline: the end of segment 1 is no
        # other segment's start
        starts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        ends = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(SingularPoint) as excinfo:
            _midpoint_rule(unit_charge, starts, ends, 8)
        assert excinfo.value.segment == 1
        assert excinfo.value.point == (0.0, 0.0)

    def test_samples_evaluated_in_bounded_blocks(self, unit_charge, monkeypatch):
        verts = np.random.default_rng(3).uniform(1.0, 3.0, size=(301, 2))
        expected = [line_integral_A(unit_charge, PlanarPath(verts[i : i + 2]), 1000) for i in range(300)]
        sizes = []

        def recording_eval_A(cfg, p):
            sizes.append(len(p))
            return eval_A(cfg, p)

        monkeypatch.setattr(fields, "eval_A", recording_eval_A)
        values = _midpoint_rule(unit_charge, verts[:-1], verts[1:], 1000)
        assert sizes == [65_000] * 4 + [40_000]
        assert values.tolist() == expected
        # a segment with more samples than a block is a block of its own
        sizes.clear()
        _midpoint_rule(unit_charge, verts[:3], verts[1:4], MIDPOINT_BLOCK_POINTS + 1)
        assert sizes == [MIDPOINT_BLOCK_POINTS + 1] * 3

    def test_convergence_in_n_sub(self, unit_charge):
        path = PlanarPath.line([2.0, 0.0], [0.0, 2.0])
        errors = [abs(line_integral_A(unit_charge, path, n) - 0.25) for n in (16, 32, 64)]
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


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
        cfg = FieldConfig(
            charges=[LineCharge(0.5, -1.0, 2.25)],
            pulse=SmoothBumpPulse(1.5, 0.0, 2.0, 0.25),
            units=UnitSystem(mu=0.5, Gamma=-1.0),
        )
        back = FieldConfig.from_json(cfg.to_json())
        assert back.charges == cfg.charges
        assert back.pulse == cfg.pulse
        assert back.units == cfg.units

    def test_schema_keys(self):
        cfg = FieldConfig(
            charges=[LineCharge(1.0, 2.0, 3.0)],
            pulse=RectangularPulse(1.0, 0.0, 1.0),
        )
        doc = cfg.to_dict()
        assert doc["charges"] == [{"x": 1.0, "y": 2.0, "lambda": 3.0}]
        assert doc["pulse"] == {"shape": "rectangular", "B0": 1.0, "t_on": 0.0, "t_off": 1.0}
        assert set(doc["units"]) == {"hbar", "c", "eps0", "mu", "Gamma", "m"}

    def test_callbacks_not_serializable(self):
        cfg = FieldConfig(extra_field=lambda pts: pts)
        with pytest.raises(ValueError):
            cfg.to_dict()
