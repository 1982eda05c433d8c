"""Packet spreading, containment during the pulse, and the velocity sweep."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinphase import (
    GaussianPacket,
    RectangularPulse,
    RegionInterval,
    UnitSystem,
    contained_during_pulse,
    nondispersivity_sweep,
    packet_at,
)

from reference import sampled_oracle


velocity = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e308, 1e308),
    st.sampled_from([0.0, 1e308, -1e308]),
)


@st.composite
def containment_cases(draw):
    """(packet, region, pulse, k_sigma), the region often touching the
    packet's k_sigma envelope exactly at t_on or t_off."""
    p = GaussianPacket(
        x0=draw(st.floats(-20.0, 20.0)),
        v=draw(velocity),
        sigma0=draw(st.floats(1e-3, 5.0)),
        m=draw(st.floats(0.1, 100.0)),
        hbar=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
    )
    t_on = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    t_off = t_on + draw(st.floats(1e-6, 10.0))
    assume(t_on < t_off)
    pulse = RectangularPulse(1.0, t_on, t_off)
    k = draw(st.floats(0.5, 10.0))
    x_min = draw(st.floats(-1e3, 1e3))
    x_max = x_min + draw(st.floats(1e-3, 2e3))
    touch = draw(st.sampled_from([None, ("lo", t_on), ("hi", t_on), ("lo", t_off), ("hi", t_off)]))
    if touch is not None:
        side, t = touch
        center, width = packet_at(p, t)
        if side == "lo":
            x_min = center - k * width
        else:
            x_max = center + k * width
    assume(math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max)
    return p, RegionInterval(x_min, x_max), pulse, k


class TestPacketSpreading:
    def test_initial_condition(self):
        p = GaussianPacket(x0=-3.0, v=1.0, sigma0=0.5)
        assert packet_at(p, 0.0) == (-3.0, 0.5)

    def test_classical_limit_does_not_spread(self):
        p = GaussianPacket(x0=0.0, v=2.0, sigma0=0.5, hbar=0.0)
        center, width = packet_at(p, 7.0)
        assert center == 14.0
        assert width == 0.5

    def test_spreading_formula(self):
        p = GaussianPacket(x0=0.0, v=0.0, sigma0=1.0, m=1.0, hbar=1.0)
        _, width = packet_at(p, 2.0)
        assert width == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            packet_at(GaussianPacket(0.0, 0.0, 1.0), -0.1)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_width_monotone(self, a, b):
        t1, t2 = sorted((a, b))
        p = GaussianPacket(x0=0.0, v=0.0, sigma0=0.7, m=2.0, hbar=1.0)
        assert packet_at(p, t1)[1] <= packet_at(p, t2)[1]


class TestContainment:
    def test_wide_region_contains_still_packet(self):
        p = GaussianPacket(x0=0.0, v=0.0, sigma0=0.1)
        region = RegionInterval(-50.0, 50.0)
        pulse = RectangularPulse(1.0, 0.0, 1.0)
        assert contained_during_pulse(p, region, pulse, k_sigma=5.0)

    def test_escaping_center_fails(self):
        p = GaussianPacket(x0=0.0, v=100.0, sigma0=0.1)
        region = RegionInterval(-5.0, 5.0)
        pulse = RectangularPulse(1.0, 0.0, 1.0)
        assert not contained_during_pulse(p, region, pulse, k_sigma=5.0)

    def test_boundary_touch_counts_as_contained(self):
        # place the region edge exactly on the k-sigma envelope at t_off, the
        # worst time for a rightward packet
        p = GaussianPacket(x0=0.0, v=1.0, sigma0=0.2, m=1.0, hbar=1.0)
        pulse = RectangularPulse(1.0, 0.0, 1.0)
        k = 5.0
        center, width = packet_at(p, pulse.t_off)
        region = RegionInterval(-50.0, center + k * width)
        assert contained_during_pulse(p, region, pulse, k_sigma=k)
        # any shrinkage of the region flips the answer
        tighter = RegionInterval(-50.0, center + k * width - 1e-12)
        assert not contained_during_pulse(p, tighter, pulse, k_sigma=k)

    def test_containment_monotone_in_k_sigma(self):
        p = GaussianPacket(x0=0.0, v=0.5, sigma0=0.3)
        pulse = RectangularPulse(1.0, 0.0, 2.0)
        region = RegionInterval(-4.0, 4.0)
        if contained_during_pulse(p, region, pulse, k_sigma=5.0):
            assert contained_during_pulse(p, region, pulse, k_sigma=3.0)

    def test_rejects_negative_pulse_start(self):
        p = GaussianPacket(x0=0.0, v=0.0, sigma0=0.1)
        with pytest.raises(ValueError):
            contained_during_pulse(p, RegionInterval(-1.0, 1.0), RectangularPulse(1.0, -1.0, 1.0))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(containment_cases())
    def test_endpoints_agree_with_sampled_oracle(self, case):
        p, region, pulse, k = case
        assert contained_during_pulse(p, region, pulse, k_sigma=k) is sampled_oracle(p, region, pulse, k)

    @pytest.mark.parametrize("t_touch", ["t_on", "t_off"])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_exact_touch_at_either_endpoint(self, t_touch, side):
        # a leftward, slowly spreading packet: its lower edge is lowest at
        # t_off and its upper edge highest at t_on
        p = GaussianPacket(x0=0.0, v=-1.0, sigma0=0.3, m=50.0, hbar=1.0)
        pulse = RectangularPulse(1.0, 0.5, 2.0)
        k = 5.0
        center, width = packet_at(p, getattr(pulse, t_touch))
        lo, hi = center - k * width, center + k * width
        region = RegionInterval(lo, 50.0) if side == "lo" else RegionInterval(-50.0, hi)
        expected = sampled_oracle(p, region, pulse, k)
        assert contained_during_pulse(p, region, pulse, k_sigma=k) is expected
        assert expected == ((side, t_touch) in (("lo", "t_off"), ("hi", "t_on")))


class TestSweep:
    def setup_method(self):
        self.units = UnitSystem()
        self.pulse = RectangularPulse(0.7, 0.0, 1.0)
        self.template = GaussianPacket(x0=0.0, v=0.0, sigma0=0.2)

    def test_gamma_column_exactly_constant(self):
        region = RegionInterval(-100.0, 100.0)
        velocities = list(np.linspace(0.0, 3.0, 10))
        gamma, contained = nondispersivity_sweep(self.template, velocities, region, self.pulse, self.units)
        assert len(contained) == 10
        # one float, shared by every velocity
        assert type(gamma) is float
        assert gamma == pytest.approx(-2.0 * 0.7, abs=1e-15)
        assert all(contained)

    def test_escaping_velocity_flagged(self):
        region = RegionInterval(-3.0, 3.0)
        heavy = GaussianPacket(x0=0.0, v=0.0, sigma0=0.2, m=50.0)  # mild spreading
        gamma, contained = nondispersivity_sweep(
            heavy, [0.0, 1.0, 500.0], region, self.pulse, self.units
        )
        assert contained == [True, True, False]
        # the escaping velocity leaves gamma as it is for contained ones
        assert gamma == nondispersivity_sweep(heavy, [0.0], region, self.pulse, self.units)[0]

    def test_sweep_matches_per_velocity_calls(self):
        rng = np.random.default_rng(12)
        velocities = list(rng.normal(0.0, 60.0, 500))
        region = RegionInterval(-40.0, 90.0)
        packet = GaussianPacket(x0=1.0, v=0.0, sigma0=0.3, m=0.5)
        gamma, contained = nondispersivity_sweep(packet, velocities, region, self.pulse, self.units, k_sigma=4.0)
        expected = [
            contained_during_pulse(GaussianPacket(1.0, v, 0.3, m=0.5), region, self.pulse, k_sigma=4.0)
            for v in velocities
        ]
        assert contained == expected
        assert 0 < sum(expected) < len(expected)
        assert all(type(inside) is bool for inside in contained)
        assert type(gamma) is float

    def test_rows_keep_input_order(self):
        region = RegionInterval(-3.0, 3.0)
        heavy = GaussianPacket(x0=0.0, v=0.0, sigma0=0.2, m=50.0)
        velocities = [500.0, 0.0, 1.0, -500.0, 2.5]
        _, contained = nondispersivity_sweep(heavy, velocities, region, self.pulse, self.units)
        assert contained == [False, True, True, False, False]
        _, backward = nondispersivity_sweep(heavy, velocities[::-1], region, self.pulse, self.units)
        assert backward == contained[::-1]


class TestValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            GaussianPacket(0.0, 0.0, 0.0)

    def test_region_ordering(self):
        with pytest.raises(ValueError):
            RegionInterval(1.0, 1.0)
