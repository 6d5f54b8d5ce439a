"""Recovery of an unknown inner boundary trace on an annulus.

The Laplace equation is overdetermined on the outer circle (both the
trace and the flux are measured) and carries no data on the inner one.
This package reformulates the missing inner trace as the minimizer of the
outer-circle misfit and runs steepest descent on it, with an adjoint
solve providing the gradient. A finite element backend handles the
general discrete problem; a separated-variable spectral backend provides
closed forms, step size theory, and oracle values the finite element
path is verified against.

The package exports what a descent run needs: a backend, Cauchy data, a
step rule, a stop rule, ``run`` and its errors, and the step theory
``gradient_factor`` and ``optimal_step``. Everything else is imported from
its module: ``mesh``, ``boundary``, ``fem``, ``spectral``,
``problems``, ``steps``, ``iteration`` and ``cli``.
"""

from .boundary import BoundaryFunction
from .fem import FemBackend, SolverError
from .iteration import CauchyData, DivergenceError, RunResult, StopRule, run
from .mesh import AnnulusSpec, generate_mesh
from .problems import HarmonicTerm, builtin_terms, cauchy_data, exact_inner_trace
from .spectral import SpectralBackend, gradient_factor
from .steps import (
    Armijo,
    Constant,
    ExplicitSchedule,
    ModeSweep,
    OptimalTwoMode,
    StepUnderflowError,
    optimal_step,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusSpec",
    "Armijo",
    "BoundaryFunction",
    "CauchyData",
    "Constant",
    "DivergenceError",
    "ExplicitSchedule",
    "FemBackend",
    "HarmonicTerm",
    "ModeSweep",
    "OptimalTwoMode",
    "RunResult",
    "SolverError",
    "SpectralBackend",
    "StepUnderflowError",
    "StopRule",
    "builtin_terms",
    "cauchy_data",
    "exact_inner_trace",
    "generate_mesh",
    "gradient_factor",
    "optimal_step",
    "run",
]
