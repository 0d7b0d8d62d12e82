"""Solvers for the 1+1D generalized Dirac oscillator with position-dependent mass.

Closed-form spectra and zero-mode constructions for the proportional-profile
model, cross-validated by banded finite-difference eigensolvers for both the
first-order system and its partner second-order reductions.
"""

__version__ = "0.1.0"

from .model import (
    CoupledModel,
    CustomProfile,
    GeneralProfiles,
    Grid,
    LinearProfile,
    ScalarField,
    SpinorField,
    StepProfile,
    TabulatedProfile,
    TanhPowerProfile,
    TanhProfile,
    TanhSechProfile,
)
from .susy import (
    ReducedProblem,
    SpinEigenpair,
    critical_field,
    is_subcritical,
    reduce,
    spin_eigensystem,
)
from .analytic import (
    LevelRecord,
    LevelTable,
    TransformedPotentialParameters,
    rm2_with_field_levels,
    rosen_morse2_levels,
    scarf2_levels,
    transformed_potential_parameters,
)
from .zeromodes import (
    StepMatchProblem,
    ZeroModeResult,
    match_interface,
    step_match,
    zero_mode_quadrature,
    zero_mode_transformed,
)
from .numerics import (
    DiracMatrix,
    EigenResult,
    SchrodingerMatrix,
    build_dirac,
    build_schrodinger,
    classify_bound,
    dirac_continuum_edge,
    dirac_residual,
    eigensolve,
    reconstruct_spinor,
    schrodinger_continuum_edge,
    selfconsistent_level,
)

__all__ = [name for name in dir() if not name.startswith("_")]
