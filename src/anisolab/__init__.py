"""Simulation laboratory for scalar conservation laws with degenerate,
possibly anisotropic diffusion on periodic boxes.

The package covers the full loop: describe a model (flux, diffusion
matrix, square-root factor, primitives), check the nondegeneracy condition
that governs decay to the mean, evolve the equation with a monotone
finite-volume scheme, and audit the structural guarantees (maximum
principle, L1 contraction, energy monotonicity, dissipation budget) along
the way.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    lcg_values,
    make_grid,
    make_initial,
    make_model,
    make_sampling,
    make_scheme,
    parse_config,
    serialize_config,
)
from .diagnostics import (
    AuditReport,
    AuditTolerances,
    DecaySummary,
    RefinementTable,
    audit,
    decay_summary,
    l1_to_constant,
    l2_energy,
    mean,
    parabolic_dissipation,
    refinement_study,
)
from .kinetic import (
    ConditionReport,
    FrequencyPoint,
    SamplingPlan,
    check_condition,
    chi,
    degeneracy_set_measure,
    entropy_flux_from_kinetic,
    entropy_from_kinetic,
    omega_at,
    symbol_denominator,
)
from .model import (
    ModelError,
    ModelSpec,
    ModelValidationReport,
    NotPSDError,
    evaluate,
    list_presets,
    polynomial_model,
    preset,
    validate_model,
)
from .quadrature import QuadratureError, adaptive_quadrature
from .solver import (
    BlowUpError,
    CellField,
    ConfigurationError,
    DiagnosticsRow,
    PeriodicGrid,
    RunStats,
    SchemeConfig,
    Trajectory,
    diffusion_div,
    hyperbolic_div,
    init_field,
    run,
    run_lockstep,
    stable_dt,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModelError", "NotPSDError", "ModelSpec", "ModelValidationReport",
    "evaluate", "validate_model", "preset", "list_presets",
    "polynomial_model",
    # kinetic
    "chi", "entropy_from_kinetic", "entropy_flux_from_kinetic",
    "FrequencyPoint", "SamplingPlan", "symbol_denominator", "omega_at",
    "degeneracy_set_measure", "ConditionReport", "check_condition",
    # solver
    "PeriodicGrid", "CellField", "SchemeConfig", "DiagnosticsRow",
    "Trajectory", "RunStats", "BlowUpError", "ConfigurationError",
    "init_field", "hyperbolic_div", "diffusion_div", "stable_dt", "step",
    "run", "run_lockstep",
    # diagnostics
    "mean", "l1_to_constant", "l2_energy", "parabolic_dissipation",
    "audit", "decay_summary", "refinement_study", "AuditTolerances",
    "AuditReport", "DecaySummary", "RefinementTable",
    # config
    "ConfigError", "ExperimentConfig", "parse_config", "serialize_config",
    "default_config", "make_model", "make_grid", "make_scheme",
    "make_sampling", "make_initial", "lcg_values",
    # quadrature
    "QuadratureError", "adaptive_quadrature",
]
