"""Free Gaussian wave-packet spreading and the containment conditions for
velocity-independent precession.

The packet model is 1D and analytic: center x0 + v t and width
sigma(t) = sigma0 sqrt(1 + (hbar t / (2 m sigma0^2))^2). Velocity independence
of the pulsed-field precession needs only that the packet stays well inside
the field region while the pulse is on; the precession angle itself is
computed from the pulse alone, so its value carries no velocity dependence at
all. The sweep below makes that structural: one gamma, shared by every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def contained_during_pulse(
    p: GaussianPacket,
    region: RegionInterval,
    pulse: PulseProfile,
    k_sigma: float = 5.0,
    n_time_samples: int = 256,
) -> bool:
    """True iff the packet's k_sigma support stays inside the region while the
    pulse is on.

    Checked on n_time_samples times spanning [t_on, t_off] including both
    endpoints; comparisons are closed, so touching the boundary still counts
    as contained. The center moves linearly and the width grows monotonically,
    so the endpoints dominate, but sampling guards nonuniform extensions.
    """
    if pulse.t_on < 0.0:
        raise ValueError("containment is defined for pulses acting at t >= 0")
    for t in np.linspace(pulse.t_on, pulse.t_off, n_time_samples):
        center, width = packet_at(p, float(t))
        if center - k_sigma * width < region.x_min or center + k_sigma * width > region.x_max:
            return False
    return True


@dataclass(frozen=True)
class SweepRow:
    velocity: float
    contained: bool
    gamma: float
    valid: bool


@dataclass(frozen=True)
class NondispersivityReport:
    """Velocity sweep, one row per velocity in input order.

    gamma is computed once from the pulse and shared by every row, so the
    gamma column is exactly constant; rows whose packet leaves the region
    during the pulse are flagged invalid (outside the nondispersive regime).
    CSV columns: velocity, contained, gamma, valid.
    """

    rows: tuple[SweepRow, ...]

    columns = ("velocity", "contained", "gamma", "valid")

    def gamma_values(self) -> list[float]:
        return [row.gamma for row in self.rows]


def nondispersivity_sweep(
    packet: GaussianPacket,
    velocities: Sequence[float],
    region: RegionInterval,
    pulse: PulseProfile,
    units: UnitSystem,
    k_sigma: float = 5.0,
) -> NondispersivityReport:
    """Containment check and precession angle for each velocity."""
    gamma = sab_precession_angle(pulse, max(pulse.t_off, 0.0), units)
    rows = []
    for v in velocities:
        candidate = replace(packet, v=float(v))
        contained = contained_during_pulse(candidate, region, pulse, k_sigma)
        rows.append(SweepRow(float(v), contained, gamma, contained))
    return NondispersivityReport(tuple(rows))
