"""Corrugation iteration and regularized isometry flow on periodic charts."""

from .errors import (
    AliasingError,
    CapabilityError,
    ConsistencyError,
    CorrugateError,
    CoverageError,
    DivergenceError,
    InputError,
    NonconvergenceError,
    PropagationError,
    ResolutionError,
    SingularityError,
    StageError,
)
from .corrugation import (
    SpiralParams,
    StageReport,
    check_stage_estimates,
    choose_lambda,
    run_stage,
    spiral_perturbation,
)
from .decompose import (
    PrimitiveMetric,
    RankOneBasis,
    congruence_match,
    global_decompose,
    rank_one_basis,
)
from .driver import IterationSchedule, RunReport, c1_cauchy_audit, nash_kuiper_iterate
from .flow import FlowConfig, psi_ramp, run_flow, tracked_quantities
from .frame import FramePair, normal_pair
from .grid import (
    ImmersionField,
    MetricField,
    PeriodicGrid,
    ScalarField,
    derivative_sup,
    is_short,
    pullback_metric,
    resample,
    sup_norm,
)
from .leastnorm import LinearSystem, is_free, least_norm_solve
from .smoothing import estimate_bench, smooth, smooth_eps_derivative

__all__ = [
    "AliasingError",
    "CapabilityError",
    "ConsistencyError",
    "CorrugateError",
    "CoverageError",
    "DivergenceError",
    "FlowConfig",
    "FramePair",
    "ImmersionField",
    "InputError",
    "IterationSchedule",
    "LinearSystem",
    "MetricField",
    "NonconvergenceError",
    "PeriodicGrid",
    "PrimitiveMetric",
    "PropagationError",
    "RankOneBasis",
    "ResolutionError",
    "RunReport",
    "ScalarField",
    "SingularityError",
    "SpiralParams",
    "StageError",
    "StageReport",
    "c1_cauchy_audit",
    "check_stage_estimates",
    "choose_lambda",
    "congruence_match",
    "derivative_sup",
    "estimate_bench",
    "global_decompose",
    "is_free",
    "is_short",
    "least_norm_solve",
    "nash_kuiper_iterate",
    "normal_pair",
    "psi_ramp",
    "pullback_metric",
    "rank_one_basis",
    "resample",
    "run_flow",
    "run_stage",
    "smooth",
    "smooth_eps_derivative",
    "spiral_perturbation",
    "sup_norm",
    "tracked_quantities",
]

__version__ = "0.1.0"
