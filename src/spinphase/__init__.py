"""Desk-scale simulation of magnetic-dipole precession and two-path interference.

The package covers the classical and spin-1/2 dynamics of a neutral magnetic
dipole in two force-free planar setups: a purely time dependent magnetic pulse
along +z, and a static line-charge electric field traversed in the x-y plane.
It computes precession angles, interferometric phase differences and
visibilities, the dynamical/geometric phase split with its Bloch-sphere solid
angle, and the wave-packet containment conditions under which everything is
velocity independent.
"""

from .classical import (
    ClassicalDipole,
    KinematicPath,
    ac_force,
    integrate_precession_ac,
    integrate_precession_sab,
    precess_ac_closed_form,
    precess_sab_closed_form,
)
from .dispersion import (
    GaussianPacket,
    RegionInterval,
    contained_during_pulse,
    nondispersivity_sweep,
    packet_at,
)
from .errors import (
    ConfigError,
    GeodesicAmbiguous,
    InsufficientSamples,
    NotNormalized,
    SingularInversion,
    SingularPoint,
    SpinPhaseError,
    StepTooLarge,
    UndefinedPhase,
)
from .fields import (
    FieldConfig,
    LineCharge,
    PlanarPath,
    PulseProfile,
    RectangularPulse,
    SmoothBumpPulse,
    UnitSystem,
    eval_A,
    eval_E,
    line_integral_A,
    pulse_integral_B,
)
from .interferometry import (
    ArmPair,
    InterferenceResult,
    InversionResult,
    circular_distance,
    compute_interference,
    decompose_phase,
    detector_probabilities,
    invert_observables,
    nonideal_phase,
    nonideal_visibility,
    pancharatnam,
    solid_angle_geodesic_closed,
    wrap_angle,
)
from .quantum import (
    Spinor,
    ac_precession_angle,
    bloch_of,
    rotate_z,
    sab_precession_angle,
    spinor_from_angles,
    verify_gauge_cancellation,
)

__version__ = "0.1.0"

__all__ = [
    "ArmPair",
    "ClassicalDipole",
    "ConfigError",
    "FieldConfig",
    "GaussianPacket",
    "GeodesicAmbiguous",
    "InsufficientSamples",
    "InterferenceResult",
    "InversionResult",
    "KinematicPath",
    "LineCharge",
    "NotNormalized",
    "PlanarPath",
    "PulseProfile",
    "RectangularPulse",
    "RegionInterval",
    "SingularInversion",
    "SingularPoint",
    "SmoothBumpPulse",
    "SpinPhaseError",
    "Spinor",
    "StepTooLarge",
    "UndefinedPhase",
    "UnitSystem",
    "ac_force",
    "ac_precession_angle",
    "bloch_of",
    "circular_distance",
    "compute_interference",
    "contained_during_pulse",
    "decompose_phase",
    "detector_probabilities",
    "eval_A",
    "eval_E",
    "integrate_precession_ac",
    "integrate_precession_sab",
    "invert_observables",
    "line_integral_A",
    "nondispersivity_sweep",
    "nonideal_phase",
    "nonideal_visibility",
    "packet_at",
    "pancharatnam",
    "precess_ac_closed_form",
    "precess_sab_closed_form",
    "pulse_integral_B",
    "rotate_z",
    "sab_precession_angle",
    "solid_angle_geodesic_closed",
    "spinor_from_angles",
    "verify_gauge_cancellation",
    "wrap_angle",
]
