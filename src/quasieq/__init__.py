"""quasieq: projected subgradient solver for equilibrium problems whose
bifunction is quasiconvex in its second argument, with an
affine-fractional generalized-variational-inequality instance family,
exact Dinkelbach best responses, a paramonotonicity checker, a
reproducible instance generator and a benchmark CLI.
"""

from .bench import BenchmarkReport, BenchmarkRow, format_benchmark_table, run_benchmark
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DimensionError,
    DomainError,
    GenerationError,
    InputError,
    InstanceFormatError,
)
from .fractional import DinkelbachResult, best_response_residual, dinkelbach_minimize
from .generator import GeneratorConfig, generate_instances
from .linalg import numeric_rank, singular_values, symmetric_eigenvalues
from .monotonicity import (
    ParamonotonicityReport,
    check_paramonotone,
    compute_a_hat,
    paramonotonicity_report,
)
from .oracles import (
    AffineFractionalInstance,
    AffineFractionalOracle,
    EquilibriumOracle,
    affine_vi_instance,
    fractional_diagonal_subgradient,
    fractional_value,
)
from .serialize import (
    parse_instance_file,
    write_benchmark_csv,
    write_instance_file,
    write_trace_csv,
)
from .sets import BoxSet
from .solver import (
    IterationRecord,
    SolveReport,
    SolveStatus,
    SolverConfig,
    fejer_audit,
    normal_subgradient_solve,
    step_length_audit,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFractionalInstance",
    "AffineFractionalOracle",
    "BenchmarkReport",
    "BenchmarkRow",
    "BoxSet",
    "ConfigurationError",
    "ConvergenceError",
    "DimensionError",
    "DinkelbachResult",
    "DomainError",
    "EquilibriumOracle",
    "GenerationError",
    "GeneratorConfig",
    "InputError",
    "InstanceFormatError",
    "IterationRecord",
    "ParamonotonicityReport",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "affine_vi_instance",
    "best_response_residual",
    "check_paramonotone",
    "compute_a_hat",
    "dinkelbach_minimize",
    "fejer_audit",
    "format_benchmark_table",
    "fractional_diagonal_subgradient",
    "fractional_value",
    "generate_instances",
    "normal_subgradient_solve",
    "numeric_rank",
    "paramonotonicity_report",
    "parse_instance_file",
    "run_benchmark",
    "singular_values",
    "step_length_audit",
    "symmetric_eigenvalues",
    "write_benchmark_csv",
    "write_instance_file",
    "write_trace_csv",
]
