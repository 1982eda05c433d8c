"""Free Gaussian wave-packet spreading and the containment conditions for
velocity-independent precession.

The packet model is 1D and analytic: center x0 + v t and width
sigma(t) = sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2). Velocity independence
of the pulsed-field precession needs only that the packet stays well inside
the field region while the pulse is on; the precession angle itself is
computed from the pulse alone, so its value carries no velocity dependence at
all. The sweep below makes that structural: it returns one gamma for every
velocity.

Containment is exact at the pulse endpoints: the center is linear in t and the
width convex, so the upper edge center + k sigma(t) is convex and the lower
edge concave, and each takes its extreme over [t_on, t_off] at t_on or t_off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import PulseProfile, UnitSystem
from .quantum import sab_precession_angle


@dataclass(frozen=True)
class GaussianPacket:
    """Analytic free 1D Gaussian packet; hbar = 0 gives the non-spreading
    classical limit."""

    x0: float
    v: float
    sigma0: float
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma0 > 0.0:
            raise ValueError("sigma0 must be positive")
        if not self.m > 0.0:
            raise ValueError("m must be positive")
        if self.hbar < 0.0:
            raise ValueError("hbar must be nonnegative")
        # packet_at divides by 2 m sigma0**2; keep it a positive finite float
        if not 0.0 < 2.0 * self.m * (self.sigma0 * self.sigma0) < math.inf:
            raise ValueError("sigma0 is out of range: 2 m sigma0^2 must be a positive finite number")


@dataclass(frozen=True)
class RegionInterval:
    """Extent of the field region along the beam axis."""

    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")


def packet_at(p: GaussianPacket, t: float) -> tuple[float, float]:
    """(center, width) of the packet at time t >= 0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    spread = p.hbar * t / (2.0 * p.m * p.sigma0**2)
    return p.x0 + p.v * t, p.sigma0 * math.sqrt(1.0 + spread * spread)


def _contained(
    packet: GaussianPacket,
    velocities: Sequence[float],
    region: RegionInterval,
    pulse: PulseProfile,
    k_sigma: float,
) -> np.ndarray:
    """Containment of the packet moving at each velocity, as a bool array.

    The width does not depend on the velocity, so each endpoint needs one
    width and one array of centers.
    """
    if pulse.t_on < 0.0:
        raise ValueError("containment is defined for pulses acting at t >= 0")
    v = np.asarray(velocities, dtype=float)
    contained = np.ones(v.shape, dtype=bool)
    # huge velocities overflow to inf as Python floats would, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (pulse.t_on, pulse.t_off):
            _, width = packet_at(packet, t)
            center = packet.x0 + v * t
            contained &= ~((center - k_sigma * width < region.x_min) | (center + k_sigma * width > region.x_max))
    return contained


def contained_during_pulse(
    p: GaussianPacket,
    region: RegionInterval,
    pulse: PulseProfile,
    k_sigma: float = 5.0,
) -> bool:
    """True iff the packet's k_sigma support stays inside the region while the
    pulse is on.

    Exact over the whole window [t_on, t_off] from the two endpoints alone,
    since the edges center -/+ k_sigma width are concave/convex in t (module
    docstring). Comparisons are closed, so touching the boundary still counts
    as contained.
    """
    return bool(_contained(p, [p.v], region, pulse, k_sigma)[0])


def nondispersivity_sweep(
    packet: GaussianPacket,
    velocities: Sequence[float],
    region: RegionInterval,
    pulse: PulseProfile,
    units: UnitSystem,
    k_sigma: float = 5.0,
) -> tuple[float, list[bool]]:
    """(gamma, contained): the precession angle, one float for every
    velocity, and whether the packet moving at each velocity stays contained
    during the pulse, as bools in input order (all velocities in one array
    pass). A velocity whose packet leaves the region is outside the
    nondispersive regime."""
    gamma = sab_precession_angle(pulse, max(pulse.t_off, 0.0), units)
    return gamma, _contained(packet, velocities, region, pulse, k_sigma).tolist()
