"""Length-preserving, energy-dissipative semi-implicit projection solver
for the Landau-Lifshitz-Gilbert equation on uniform structured grids."""

from .grid import (
    GridSpec,
    VectorField,
    StaggeredGradient,
    GridMismatchError,
    gradient_apply,
    interpolate_midpoint,
    laplacian_apply,
    inner_product,
    gradient_inner_product,
    norms,
)
from .effective_field import (
    FieldModel,
    UnsupportedConfigurationError,
    explicit_field_apply,
    extended_energy,
    exchange_energy,
)
from .stepper import (
    SchemeParams,
    SolverConfig,
    StepReport,
    SolverError,
    DegenerateStateError,
    operator_apply,
    solve_intermediate,
    normalize,
    step,
    run,
)
from .diagnostics import (
    ExactSolution,
    ErrorRecord,
    skyrmion_number,
)
from .exact import manufactured_solution

__version__ = "0.1.0"
