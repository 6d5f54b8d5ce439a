"""Recovery of an unknown inner boundary trace on an annulus.

The Laplace equation is overdetermined on the outer circle (both the
trace and the flux are measured) and carries no data on the inner one.
This package reformulates the missing inner trace as the minimizer of the
outer-circle misfit and runs steepest descent on it, with an adjoint
solve providing the gradient. A finite element backend handles the
general discrete problem; a separated-variable spectral backend provides
closed forms, step size theory, and oracle values the finite element
path is verified against.
"""

from .boundary import (
    BoundaryFunction,
    BoundaryRing,
    boundary_inner_product,
    boundary_norm,
    make_ring,
    ring_chord_lengths,
    ring_lumped_weights,
    ring_mass_apply,
    rings_compatible,
)
from .fem import (
    FourierSolver,
    SolverError,
    assemble_stiffness,
    neumann_load,
    normal_flux,
    solve_mixed_bvp,
    trace,
)
from .fourier import analyze, detect_band, synthesize
from .iteration import (
    CauchyData,
    DivergenceError,
    FemBackend,
    IterationRecord,
    RunResult,
    SolveCounters,
    SpectralBackend,
    StopRule,
    evaluate_functional,
    gradient,
    run,
    write_history_csv,
)
from .mesh import (
    AnnulusMesh,
    AnnulusSpec,
    boundary_ring,
    dump_mesh_csv,
    generate_mesh,
    triangle_areas,
)
from .problems import (
    BUILTIN_NAMES,
    HarmonicTerm,
    builtin_terms,
    cauchy_data,
    exact_coefficients,
    exact_inner_trace,
)
from .spectral import (
    DEFAULT_BAND_CAP,
    FourierBoundary,
    HarmonicSeries,
    ModeState,
    compression_factor,
    functional_value,
    gradient_coefficients,
    gradient_factor,
    solve_series,
    step_error_modes,
    trace_factor,
)
from .steps import (
    Armijo,
    Constant,
    ExplicitSchedule,
    ModeSweep,
    OptimalTwoMode,
    StepStrategy,
    StepUnderflowError,
    armijo_step,
    default_tail_rho,
    optimal_step,
    sweep_step,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusMesh",
    "AnnulusSpec",
    "Armijo",
    "BUILTIN_NAMES",
    "BoundaryFunction",
    "BoundaryRing",
    "CauchyData",
    "Constant",
    "DEFAULT_BAND_CAP",
    "DivergenceError",
    "ExplicitSchedule",
    "FemBackend",
    "FourierSolver",
    "FourierBoundary",
    "HarmonicSeries",
    "HarmonicTerm",
    "IterationRecord",
    "ModeState",
    "ModeSweep",
    "OptimalTwoMode",
    "RunResult",
    "SolveCounters",
    "SolverError",
    "SpectralBackend",
    "StepStrategy",
    "StepUnderflowError",
    "StopRule",
    "analyze",
    "armijo_step",
    "assemble_stiffness",
    "boundary_inner_product",
    "boundary_norm",
    "boundary_ring",
    "builtin_terms",
    "cauchy_data",
    "compression_factor",
    "default_tail_rho",
    "detect_band",
    "dump_mesh_csv",
    "evaluate_functional",
    "exact_coefficients",
    "exact_inner_trace",
    "functional_value",
    "generate_mesh",
    "gradient",
    "gradient_coefficients",
    "gradient_factor",
    "make_ring",
    "neumann_load",
    "normal_flux",
    "optimal_step",
    "ring_chord_lengths",
    "ring_lumped_weights",
    "ring_mass_apply",
    "rings_compatible",
    "run",
    "solve_mixed_bvp",
    "solve_series",
    "step_error_modes",
    "sweep_step",
    "trace",
    "trace_factor",
    "triangle_areas",
    "write_history_csv",
]
