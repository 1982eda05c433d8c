"""Spin-1/2 state algebra and z-axis precession for pulsed and gauge-field setups.

The rotation operator exp(-i sigma_z gamma / 2) multiplies the up amplitude by
exp(-i gamma / 2) and the down amplitude by exp(+i gamma / 2); on the Bloch
sphere this advances the azimuth by gamma (a right-handed rotation about +z).
The spin-1/2 precession angles carry the rotation factor 2 relative to the
ideal interferometric phases:

    gamma(t) = -(2 mu / hbar) integral_0^t B(t') dt'      (pulsed field)
    gamma(x) = -(2 mu / hbar) integral A . dr             (spatial path)

so a classical dipole with Gamma = 2 mu / hbar precesses identically. A closed
counterclockwise loop enclosing line charge lambda gives
gamma = -2 mu lambda / (hbar eps0 c^2), twice the ideal fringe shift with the
opposite sign.

Paths are classical polylines here, so at no instant does the state wrap
around the charge; single-valuedness of the transformed wave function is
assumed rather than enforced.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, SingularPoint
from .fields import (
    FieldConfig,
    PlanarPath,
    PulseProfile,
    UnitSystem,
    _row_norms,
    _segment_integrals,
    eval_A,
    line_integral_A,
    pulse_integral_B,
)


@dataclass(frozen=True)
class Spinor:
    """Two-component spin state; operations expect |up|^2 + |down|^2 = 1."""

    up: complex
    down: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.up) ** 2 + abs(self.down) ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)


def spinor_from_angles(theta: float, azimuth: float = 0.0) -> Spinor:
    """Spin state pointing along (theta, azimuth) on the Bloch sphere:
    cos(theta/2) |+> + e^{i azimuth} sin(theta/2) |->."""
    return Spinor(complex(math.cos(0.5 * theta)), cmath.exp(1j * azimuth) * math.sin(0.5 * theta))


def rotate_z(s: Spinor, gamma: float) -> Spinor:
    """Apply exp(-i sigma_z gamma / 2); unitary, advances the Bloch azimuth by gamma."""
    half = cmath.exp(-0.5j * gamma)
    return Spinor(s.up * half, s.down * half.conjugate())


def _bloch(s: Spinor) -> tuple[float, float, float]:
    """bloch_of on floats."""
    nrm = s.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise NotNormalized(f"spinor norm {nrm} deviates from 1")
    cross = s.up.conjugate() * s.down
    return (2.0 * cross.real, 2.0 * cross.imag, abs(s.up) ** 2 - abs(s.down) ** 2)


def bloch_of(s: Spinor) -> np.ndarray:
    """Bloch vector (<sigma_x>, <sigma_y>, <sigma_z>) of a normalized spinor.

    Raises NotNormalized if the norm deviates from 1 by more than 1e-9.
    """
    return np.array(_bloch(s))


def sab_precession_angle(pulse: PulseProfile, t: float, units: UnitSystem) -> float:
    """Spin precession angle -(2 mu / hbar) integral_0^t B(t') dt'."""
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    return units.spin_factor * pulse_integral_B(pulse, 0.0, t)


def ac_precession_angle(cfg: FieldConfig, path: PlanarPath, units: UnitSystem | None = None) -> float:
    """Spin precession angle -(2 mu / hbar) integral A . dr along the path,
    the integral taken exactly by line_integral_A."""
    units = units or cfg.units
    return units.spin_factor * line_integral_A(cfg, path)


def verify_gauge_cancellation(
    cfg: FieldConfig,
    path: PlanarPath,
    units: UnitSystem | None = None,
    fd_step: float = 1e-5,
) -> float:
    """Force-free certificate: max residual of (hbar/2) grad(gamma) + mu A.

    The gauge transformation removes the coupling exactly when this
    combination vanishes. grad(gamma) is evaluated at each segment midpoint by
    central differences of the exact sub-path angles (step fd_step), so the
    check compares the integrated potential with the directly evaluated one
    rather than assuming the analytic relation. The residual shrinks
    quadratically with fd_step. The 2 n_segments stencil sub-paths are
    integrated in one array pass and the midpoints take one eval_A call.

    Raises
    ------
    SingularPoint
        If a stencil sub-path passes a charge (the error carries the path
        segment whose midpoint it belongs to) or a midpoint lies on one.
    ValueError
        If fd_step is not positive.
    """
    if not fd_step > 0.0:
        raise ValueError("fd_step must be positive")
    units = units or cfg.units
    verts = path.vertices
    mids = 0.5 * (verts[:-1] + verts[1:])
    # one stencil per midpoint and axis: rows (mid 0, x), (mid 0, y), (mid 1, x), ...
    steps = np.diag([fd_step, fd_step])
    starts = (mids[:, None, :] - steps).reshape(-1, 2)
    ends = (mids[:, None, :] + steps).reshape(-1, 2)
    try:
        angles = units.spin_factor * _segment_integrals(cfg, starts, ends)
    except SingularPoint as exc:
        raise SingularPoint(exc.point, segment=exc.segment // 2) from None
    grad = angles.reshape(-1, 2) / (2.0 * fd_step)
    resid = 0.5 * units.hbar * grad + units.mu * eval_A(cfg, mids)
    return float(_row_norms(resid).max())
