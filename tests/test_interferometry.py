"""Interference observables, inversion, and the geometric phase law."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinphase import (
    ArmPair,
    GeodesicAmbiguous,
    SingularInversion,
    UndefinedPhase,
    circular_distance,
    compute_interference,
    decompose_phase,
    detector_probabilities,
    invert_observables,
    nonideal_phase,
    nonideal_visibility,
    pancharatnam,
    rotate_z,
    solid_angle_geodesic_closed,
    spinor_from_angles,
    wrap_angle,
)

# frozen from the explicit inner-product oracle at theta = phi_D = pi/4:
# z = cos(pi/4) + i cos(pi/4) sin(pi/4)
PHI_REF = 0.6154797086703873
NU_REF = 0.8660254037844387
GAMMA_DYN_REF = 0.5553603672697958
GAMMA_GEO_REF = 0.0601193414005915
TWO_PI = 2.0 * math.pi


def lens_area_oracle(theta, delta):
    """Closed-form area between a parallel arc and its geodesic chord.

    Spherical-trig route (polar sector minus pole triangle), independent of
    any discretization. Valid for 0 < delta < pi.
    """
    abs_ct = abs(math.cos(theta))
    st = math.sin(theta)
    cos_c = math.cos(theta) ** 2 + st * st * math.cos(delta)
    c = math.acos(max(-1.0, min(1.0, cos_c)))
    if abs_ct < 1e-15:
        return 0.0
    cos_beta = abs_ct * (1.0 - cos_c) / (st * math.sin(c))
    beta = math.acos(max(-1.0, min(1.0, cos_beta)))
    return math.pi - delta * abs_ct - 2.0 * beta


def omega_oracle(theta, delta):
    """Signed solid angle fixed by the gamma_geo = -Omega/2 convention."""
    if delta == 0.0:
        return 0.0
    sign = -math.copysign(1.0, math.cos(theta)) * math.copysign(1.0, delta)
    return sign * lens_area_oracle(theta, abs(delta))


def polygon_solid_angle(verts):
    """Right-handed signed solid angle of a closed spherical polygon.

    Triangle fan about the mean direction, each triangle by the

        omega = 2 atan2(det[c, v1, v2], 1 + c.v1 + v1.v2 + v2.c)

    formula; positive for counterclockwise traversal seen from outside.
    """
    center = verts.mean(axis=0)
    c = center / np.linalg.norm(center)
    v1 = verts
    v2 = np.roll(verts, -1, axis=0)
    triple = np.einsum("ij,ij->i", np.cross(np.broadcast_to(c, v1.shape), v1), v2)
    denom = 1.0 + v1 @ c + np.einsum("ij,ij->i", v1, v2) + v2 @ c
    return float(np.sum(2.0 * np.arctan2(triple, denom)))


def fan_oracle(theta, delta, n_steps):
    """Signed solid angle from the discretized arc and geodesic closure.

    The arc and the shortest great-circle arc back to its start are each
    sampled with n_steps points and summed by polygon_solid_angle; the
    error falls as n_steps^-2 and stays below (pi / n_steps)^2.
    """
    st_, ct_ = math.sin(theta), math.cos(theta)
    phis = np.linspace(0.0, delta, n_steps)
    arc = np.stack([st_ * np.cos(phis), st_ * np.sin(phis), np.full(n_steps, ct_)], axis=1)
    a, b = arc[0], arc[-1]
    omega_ab = math.acos(max(-1.0, min(1.0, float(a @ b))))
    if omega_ab < 1e-15:
        return -polygon_solid_angle(arc)
    ts = np.linspace(0.0, 1.0, n_steps)[1:-1]
    geo = (np.sin((1.0 - ts) * omega_ab)[:, None] * b + np.sin(ts * omega_ab)[:, None] * a) / math.sin(omega_ab)
    return -polygon_solid_angle(np.vstack([arc, geo]))


def fan_cases():
    """Seeded (theta, delta) pairs over the fan oracle's whole range.

    Random theta in (0, pi) and delta in [-2 pi, 2 pi], the linspace tilts
    closest to pi/2 that a sweep grid produces, and delta = +-2 pi.
    """
    rng = np.random.default_rng(17)
    cases = [(float(t), float(d)) for t, d in zip(rng.uniform(0.0, math.pi, 40), rng.uniform(-TWO_PI, TWO_PI, 40))]
    near_equator = {float(np.linspace(0.0, math.pi, n)[n // 2]) for n in (3, 5, 7, 9, 11, 101)}
    for theta in sorted(near_equator) + [0.4, 2.7]:
        cases += [(theta, d) for d in (-TWO_PI, -4.5, -1.3, 2.2, 3.9, TWO_PI)]
    return cases


EQUATOR_TILTS = (math.nextafter(math.pi / 2, 0.0), math.pi / 2, math.nextafter(math.pi / 2, 4.0))


class TestPancharatnam:
    def test_identical_beams(self):
        s = spinor_from_angles(0.7, 0.0)
        phi, nu = pancharatnam(s, s)
        assert phi == 0.0
        assert nu == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_beams(self):
        up = spinor_from_angles(0.0, 0.0)
        down = spinor_from_angles(math.pi, 0.0)
        phi, nu = pancharatnam(up, down)
        assert phi is None
        assert nu == pytest.approx(0.0, abs=1e-15)

    def test_tilted_arms_oracle_values(self):
        s0 = spinor_from_angles(math.pi / 4, 0.0)
        s_u = rotate_z(s0, -math.pi / 4)
        s_d = rotate_z(s0, math.pi / 4)
        phi, nu = pancharatnam(s_d, s_u)
        assert phi == pytest.approx(PHI_REF, abs=1e-12)
        assert nu == pytest.approx(NU_REF, abs=1e-12)

    def test_arm_pair_wrapper(self):
        pair = ArmPair(gamma_u=-math.pi / 4, gamma_d=math.pi / 4, s0=spinor_from_angles(math.pi / 4))
        assert pair.phi_d == pytest.approx(math.pi / 4)
        phi, nu = pair.interference()
        assert phi == pytest.approx(PHI_REF, abs=1e-12)
        assert nu == pytest.approx(NU_REF, abs=1e-12)


class TestNonidealPhase:
    def test_ideal_tilt_returns_phi_d(self):
        for phi_d in (-2.8, -0.3, 0.0, 1.0, 3.0):
            assert nonideal_phase(0.0, phi_d) == pytest.approx(wrap_angle(phi_d), abs=1e-12)

    def test_equatorial_cases(self):
        assert abs(nonideal_phase(math.pi / 2, math.pi / 3)) < 1e-12
        assert circular_distance(nonideal_phase(math.pi / 2, 2.0 * math.pi / 3), math.pi) < 1e-12

    def test_matches_inner_product_oracle(self):
        assert nonideal_phase(math.pi / 4, math.pi / 4) == pytest.approx(PHI_REF, abs=1e-12)

    def test_undefined_at_equator_quarter(self):
        with pytest.raises(UndefinedPhase):
            nonideal_phase(math.pi / 2, math.pi / 2)

    def test_branch_correction_beyond_pi_half(self):
        # the single-branch arctan form holds only mod pi; the implementation
        # must land on the inner-product branch
        theta, phi_d = math.pi / 4, 2.5
        phi = nonideal_phase(theta, phi_d)
        s0 = spinor_from_angles(theta)
        oracle, _ = pancharatnam(rotate_z(s0, phi_d), rotate_z(s0, -phi_d))
        assert circular_distance(phi, oracle) < 1e-12
        arctan_branch = math.atan(math.cos(theta) * math.tan(phi_d))
        assert circular_distance(phi, arctan_branch) == pytest.approx(math.pi, abs=1e-12)


class TestNonidealVisibility:
    def test_ideal_tilt_gives_unity(self):
        for phi_d in (-3.0, -1.0, 0.0, 0.5, 2.0):
            assert nonideal_visibility(0.0, phi_d) == pytest.approx(1.0, abs=1e-15)

    def test_equatorial_cosine(self):
        assert nonideal_visibility(math.pi / 2, math.pi / 3) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_value(self):
        assert nonideal_visibility(math.pi / 4, math.pi / 4) == pytest.approx(
            math.sqrt(0.75), abs=1e-12
        )

    @given(st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))
    def test_bounds(self, theta, phi_d):
        nu = nonideal_visibility(theta, phi_d)
        assert 0.0 <= nu <= 1.0 + 1e-15


class TestOracleEquivalence:
    def test_formulas_match_spinor_route_on_grid(self):
        thetas = np.linspace(0.0, math.pi, 9)
        phids = np.linspace(-math.pi, math.pi, 9)[1:]
        for theta in thetas:
            for phi_d in phids:
                s0 = spinor_from_angles(float(theta))
                oracle_phi, oracle_nu = pancharatnam(
                    rotate_z(s0, float(phi_d)), rotate_z(s0, -float(phi_d))
                )
                nu = nonideal_visibility(float(theta), float(phi_d))
                assert nu == pytest.approx(oracle_nu, abs=1e-12)
                try:
                    phi = nonideal_phase(float(theta), float(phi_d))
                except UndefinedPhase:
                    assert oracle_phi is None
                    continue
                assert oracle_phi is not None
                assert circular_distance(phi, oracle_phi) < 1e-12


class TestDetectors:
    def test_full_visibility_bright_port(self):
        assert detector_probabilities(0.0, 1.0, 0.0) == (1.0, 0.0)

    def test_zero_visibility_splits_evenly(self):
        for chi in (0.0, 1.0, 4.0):
            p1, p2 = detector_probabilities(0.3, 0.0, chi)
            assert p1 == 0.5 and p2 == 0.5

    def test_reference_point(self):
        p1, p2 = detector_probabilities(0.6155, 0.866, -0.6155)
        assert p1 == pytest.approx(0.933, abs=1e-3)
        assert p2 == pytest.approx(0.067, abs=1e-3)

    @given(
        st.floats(-math.pi, math.pi),
        st.floats(0.0, 1.0),
        st.floats(-10.0, 10.0),
    )
    def test_probabilities_sum_to_one_exactly(self, phi, nu, chi):
        p1, p2 = detector_probabilities(phi, nu, chi)
        assert p1 + p2 == 1.0
        assert 0.0 <= p1 <= 1.0

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            detector_probabilities(0.0, 1.5, 0.0)


class TestInversion:
    def test_reference_round_trip(self):
        result = invert_observables(PHI_REF, NU_REF)
        assert result.tan_sq_phi_d == pytest.approx(1.0, abs=1e-12)
        assert result.cos_sq_theta == pytest.approx(0.5, abs=1e-12)
        assert any(abs(v - math.pi / 4) < 1e-12 for v in result.phi_d_values)
        assert any(abs(v - math.pi / 4) < 1e-12 for v in result.theta_values)

    def test_ideal_inputs_give_cos_sq_one(self):
        # theta = 0: phi = phi_D and nu = 1
        result = invert_observables(1.1, 1.0)
        assert result.cos_sq_theta == 1.0

    def test_equatorial_consistency(self):
        # theta = pi/2 data: nu = |cos phi_D|, phi in {0, pi}
        for phi_d in (0.3, 1.2):
            result = invert_observables(0.0, abs(math.cos(phi_d)))
            assert result.cos_sq_theta == pytest.approx(0.0, abs=1e-12)
            assert any(abs(v - phi_d) < 1e-9 for v in result.phi_d_values)

    def test_degenerate_phi_d_leaves_theta_free(self):
        result = invert_observables(0.0, 1.0)
        assert result.theta_values is None
        assert any(abs(v) < 1e-12 for v in result.phi_d_values)

    def test_singular_inversion(self):
        with pytest.raises(SingularInversion):
            invert_observables(math.pi / 2, 0.5)

    def test_grid_round_trip(self):
        # interior tilts only: at the exact poles the visibility is
        # quadratically flat in theta, so a 1 ulp error in nu legitimately
        # moves the recovered theta by ~sqrt(eps); the pole rows are covered
        # by the exact ideal-input tests above
        thetas = np.linspace(0.05, math.pi - 0.05, 11)
        phids = np.linspace(-math.pi, math.pi, 13)[1:]
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
                assert min(circular_distance(v, phi_d) for v in result.phi_d_values) < 1e-8
                if result.theta_values is not None:
                    assert min(abs(v - theta) for v in result.theta_values) < 1e-8


class TestDecomposition:
    def test_ideal_case_is_purely_dynamical(self):
        gd, gg = decompose_phase(0.0, 0.8)
        assert gd == pytest.approx(0.8, abs=1e-15)
        assert gg == pytest.approx(0.0, abs=1e-15)

    def test_equatorial_arc_is_its_own_geodesic(self):
        gd, gg = decompose_phase(math.pi / 2, 1.0)
        assert abs(gd) < 1e-12
        assert abs(gg) < 1e-12

    def test_reference_split(self):
        gd, gg = decompose_phase(math.pi / 4, math.pi / 4)
        assert gd == pytest.approx(GAMMA_DYN_REF, abs=1e-12)
        assert gg == pytest.approx(GAMMA_GEO_REF, abs=1e-12)

    def test_parts_sum_to_phase(self):
        for theta in (0.3, 1.0, 2.0):
            for phi_d in (-1.2, 0.4, 1.5):
                gd, gg = decompose_phase(theta, phi_d)
                assert gd + gg == pytest.approx(nonideal_phase(theta, phi_d), abs=1e-15)

    def test_undefined_propagates(self):
        with pytest.raises(UndefinedPhase):
            decompose_phase(math.pi / 2, math.pi / 2)


class TestSolidAngle:
    def test_equatorial_arc_encloses_nothing(self):
        assert abs(solid_angle_geodesic_closed(math.pi / 2, 1.0)) < 1e-15

    def test_degenerate_sweep(self):
        assert solid_angle_geodesic_closed(math.pi / 4, 0.0) == 0.0

    def test_reference_lens(self):
        # frozen from the closed-form spherical-trig oracle
        omega = solid_angle_geodesic_closed(math.pi / 4, math.pi / 2)
        assert omega == pytest.approx(-0.120238682801183, abs=1e-12)
        assert omega == pytest.approx(omega_oracle(math.pi / 4, math.pi / 2), abs=1e-12)

    def test_antipodal_endpoints_rejected(self):
        for theta in EQUATOR_TILTS:
            for delta in (math.pi, -math.pi):
                with pytest.raises(GeodesicAmbiguous):
                    solid_angle_geodesic_closed(theta, delta)

    def test_polar_angle_domain(self):
        for theta in (0.0, math.pi, -0.5, 4.0):
            with pytest.raises(ValueError):
                solid_angle_geodesic_closed(theta, 1.0)

    def test_step_count_checked_but_without_effect(self):
        with pytest.raises(ValueError):
            solid_angle_geodesic_closed(math.pi / 3, 0.8, 1)
        reference = solid_angle_geodesic_closed(math.pi / 3, 0.8)
        assert solid_angle_geodesic_closed(math.pi / 3, 0.8, 2) == reference

    def test_non_finite_sweep_gives_nan(self):
        for delta in (math.inf, -math.inf, math.nan):
            assert math.isnan(solid_angle_geodesic_closed(math.pi / 3, delta))

    def test_odd_in_sweep(self):
        plus = solid_angle_geodesic_closed(math.pi / 3, 0.8)
        minus = solid_angle_geodesic_closed(math.pi / 3, -0.8)
        assert plus == -minus

    def test_matches_trig_oracle_both_hemispheres(self):
        # the oracle's acos steps lose digits near the poles and for tiny
        # sweeps, so the random cases keep clear of both
        rng = np.random.default_rng(5)
        thetas = [math.pi / 6, math.pi / 4, 2.0 * math.pi / 3, 2.5, *rng.uniform(0.2, math.pi - 0.2, 30)]
        signs = rng.choice([-1.0, 1.0], 30)
        deltas = [0.4, 1.1, -0.9, *(signs * rng.uniform(0.05, math.pi - 0.05, 30))]
        for theta in thetas:
            for delta in deltas:
                got = solid_angle_geodesic_closed(float(theta), float(delta))
                assert got == pytest.approx(omega_oracle(float(theta), float(delta)), abs=1e-12)

    @pytest.mark.parametrize("n_steps", [1024, 2048, 4096])
    def test_within_fan_accuracy(self, n_steps):
        tol = (math.pi / n_steps) ** 2
        for theta, delta in fan_cases():
            got = solid_angle_geodesic_closed(theta, delta)
            assert abs(got - fan_oracle(theta, delta, n_steps)) < tol, (theta, delta)

    def test_equator_keeps_fan_branch_beyond_half_turn(self):
        # at the equator the area is +-2 pi for pi < |delta| < 2 pi, a tie for
        # a mod-4 pi form, which lands on the other branch in some cells of
        # these sweep grids
        deltas = [
            2.0 * float(phi_d)
            for n in (58, 66, 98, 114)
            for phi_d in np.linspace(-math.pi, math.pi, n)
            if math.pi < abs(2.0 * phi_d) < TWO_PI
        ]
        for theta in EQUATOR_TILTS:
            for delta in deltas:
                got = solid_angle_geodesic_closed(theta, delta)
                assert abs(got - fan_oracle(theta, delta, 256)) < (math.pi / 256) ** 2, (theta, delta)

    def test_geometric_phase_law_on_grid(self):
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3, 2.0 * math.pi / 3):
            for phi_d in (math.pi / 8, math.pi / 4, 3.0 * math.pi / 8, -math.pi / 4):
                _, gamma_geo = decompose_phase(theta, phi_d)
                omega = solid_angle_geodesic_closed(theta, 2.0 * phi_d)
                assert gamma_geo == pytest.approx(-0.5 * omega, abs=1e-12)


class TestInterferenceResult:
    def test_defined_row(self):
        r = compute_interference(math.pi / 4, math.pi / 4)
        assert r.phi == pytest.approx(PHI_REF, abs=1e-12)
        assert r.gamma_dyn + r.gamma_geo == r.phi
        assert r.omega_gc == pytest.approx(-2.0 * GAMMA_GEO_REF, abs=1e-12)

    def test_undefined_row(self):
        r = compute_interference(math.pi / 2, math.pi / 2)
        assert r.phi is None
        assert r.gamma_geo is None
        assert r.omega_gc is None
        assert r.visibility < 1e-12

    def test_ideal_rows_have_zero_solid_angle(self):
        assert compute_interference(0.0, 1.0).omega_gc == 0.0
        assert compute_interference(math.pi, 1.0).omega_gc == 0.0
        assert compute_interference(TWO_PI, 1.0).omega_gc == 0.0

    @pytest.mark.parametrize("theta", [-3.0, -0.5, math.pi + 0.5, 4.0, TWO_PI - 0.5, 7.0])
    def test_tilt_outside_zero_to_pi_keeps_phase_law(self, theta):
        # the solid angle is taken at the folded polar angle |remainder(theta, 2 pi)|
        for phi_d in (-1.2, -0.3, 0.3, 1.2):
            r = compute_interference(theta, phi_d)
            assert r.omega_gc != 0.0
            assert abs(r.gamma_geo + 0.5 * r.omega_gc) < 1e-15


class TestAngles:
    @given(st.floats(-50.0, 50.0))
    def test_wrap_range(self, x):
        y = wrap_angle(x)
        assert -math.pi < y <= math.pi

    def test_wrap_negative_pi_maps_to_pi(self):
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)

    def test_distance_is_shortest(self):
        assert circular_distance(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(0.2, abs=1e-12)
