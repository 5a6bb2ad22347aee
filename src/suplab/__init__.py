"""suplab: variable-exponent Lebesgue norms, supremal energies, and
power-law approximation experiments on grids."""

from .discretize import BoundarySpec, DiscreteField, MeshSpec, gradient, interpolate_boundary
from .energy import (
    DensitySpec,
    density_field,
    eval_calFn,
    eval_density,
    eval_Fn,
    eval_supremal,
    growth_check,
    level_convexity_probe,
    register_custom_rule,
)
from .exponent_space import (
    ExponentField,
    ExponentSequence,
    Grid,
    GridFunction,
    GridMismatchError,
    PreconditionError,
    StructuralError,
    classical_norm,
    embedding_bound_check,
    holder_check,
    log_modular,
    luxemburg_norm,
    modular,
    norm_limit_study,
    power_identity_check,
    sobolev_modular,
    sobolev_norm,
    verify_norm_modular_relations,
)
from .gamma_lab import (
    StudyConfig,
    StudyResult,
    run_integral_dichotomy_study,
    run_minimizer_convergence,
    run_norm_gamma_study,
    run_norm_limit,
)
from .measure_tools import DiscreteYoungMeasure, barycenter, jensen_check, young_q_limit
from .reports import RelationCheck, RelationReport, Table, eventually_decreasing
from .solve import (
    SolverSettings,
    SolveResult,
    minimize_power,
    oracle_minimizer_1d,
    power_oracle_1d,
    supremal_oracle_1d,
)

__version__ = "0.1.0"
