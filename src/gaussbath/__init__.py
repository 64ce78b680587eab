"""Gaussian-bath quantum noise engine.

Tools for quantum stochastic evolution driven by one Gaussian noise
channel: Ito multiplication tables, conversion between time-ordered and
normal-ordered coefficient quadruples, doubled-vacuum representations
of thermal and squeezed states, the resulting Lindblad dynamics, and an
independent collision-model cross-check of that dynamics.
"""

from .collision import (
    CollisionConfig,
    CollisionResult,
    convergence_study,
    increment_operator,
    simulate,
    step_unitary,
    trace_distance,
)
from .doubling import (
    OperatorGaussianSpec,
    SplitCoefficients,
    doubled_moment_report,
    fock_annihilator,
    mode_annihilators,
    operator_split,
    represent_annihilator,
    scalar_split,
    split_residuals,
)
from .errors import (
    CommutationError,
    DecompositionError,
    DegenerateKernelError,
    DimensionError,
    DomainError,
    FormatError,
    GaussBathError,
    KernelError,
    SingularityError,
    TruncationWarning,
)
from .lindblad import (
    GKSForm,
    SystemModel,
    evolve,
    gks_decompose,
    heisenberg_generator,
    schrodinger_liouvillian,
    steady_state,
    validate_density_matrix,
)
from .linalg import (
    adjoint,
    devectorize,
    is_hermitian,
    is_psd,
    is_unitary,
    mat_exp,
    mat_sqrt_psd,
    operator_norm,
    partial_trace,
    propagate,
    vectorize,
)
from .noise import (
    NORMAL_ORDERED,
    TIME_ORDERED,
    ItoCoefficients,
    NoiseParams,
    ito_product,
    unitarity_defect,
)
from .wick import (
    HPParameters,
    hp_extract,
    hp_residuals,
    normal_to_time,
    time_to_normal,
)

__version__ = "0.1.0"
