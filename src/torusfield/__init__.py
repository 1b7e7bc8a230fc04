"""Biharmonic unit vector fields on conformally flat 2-tori.

The package solves the fourth-order critical-point equation for unit
vector fields minimizing the bienergy on a torus, one homotopy class at a
time, using spectral calculus on the covering lattice; verifies the
rigidity and stability properties of the critical fields; and classifies
left-invariant critical unit fields on three model Lie groups.
"""

from torusfield.angles import (
    AngleField,
    HomotopyClass,
    angle_to_unit_field,
    winding_class,
)
from torusfield.conformal import (
    ConformalStructure,
    FrameConnection,
    ResidualPair,
    ResolutionWarning,
    frame_connection,
    section_residual_pair,
)
from torusfield.energy import EnergyBreakdown, bienergy, el_residual, right_hand_side
from torusfield.io import RunConfig, parse_exponent, read_field_csv, realize, write_outputs
from torusfield.lattice import (
    LatticeSpec,
    ScalarField,
    VectorFieldFlat,
    bandlimited_field,
    dot,
    flat_divergence,
    flat_gradient,
    flat_laplacian,
    integrate_inner,
    resolution_fraction,
    rotate_J,
)
from torusfield.liegroups import (
    ComparisonReport,
    CriticalComponent,
    CriticalSet,
    LeftInvariantModel,
    classify,
    compare_known,
    critical_system_residual,
    hyperbolic,
    sol3,
    su2,
)
from torusfield.solver import (
    ConvergenceError,
    RigidityCertificate,
    SolveOptions,
    SolveReport,
    apply_operator_P,
    section_rigidity_check,
    solve_homotopy_class,
)
from torusfield.stability import (
    HessianSample,
    NotCriticalError,
    hessian_form,
    hessian_vs_energy_check,
)

__all__ = [
    "AngleField",
    "ComparisonReport",
    "ConformalStructure",
    "ConvergenceError",
    "CriticalComponent",
    "CriticalSet",
    "EnergyBreakdown",
    "FrameConnection",
    "HessianSample",
    "HomotopyClass",
    "LatticeSpec",
    "LeftInvariantModel",
    "NotCriticalError",
    "ResidualPair",
    "ResolutionWarning",
    "RigidityCertificate",
    "RunConfig",
    "ScalarField",
    "SolveOptions",
    "SolveReport",
    "VectorFieldFlat",
    "angle_to_unit_field",
    "apply_operator_P",
    "bandlimited_field",
    "bienergy",
    "classify",
    "compare_known",
    "critical_system_residual",
    "dot",
    "el_residual",
    "flat_divergence",
    "flat_gradient",
    "flat_laplacian",
    "frame_connection",
    "hessian_form",
    "hessian_vs_energy_check",
    "hyperbolic",
    "integrate_inner",
    "parse_exponent",
    "read_field_csv",
    "realize",
    "resolution_fraction",
    "right_hand_side",
    "rotate_J",
    "section_residual_pair",
    "section_rigidity_check",
    "sol3",
    "solve_homotopy_class",
    "su2",
    "winding_class",
    "write_outputs",
]

__version__ = "0.1.0"
