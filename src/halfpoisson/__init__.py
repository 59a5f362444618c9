"""Constructive solution operators for parameter-elliptic boundary problems
on the half-space, with weighted-norm estimate checks."""

from .model import (
    BoundaryOperator,
    ModelProblem,
    SectorSample,
    EllipticityReport,
    LopatinskiiReport,
    check_ellipticity,
    check_lopatinskii_shapiro,
    symbol_A,
    symbol_B,
    problem_to_json,
    loads_problem,
    load_problem,
    dirichlet_laplacian,
    neumann_laplacian,
    clamped_bilaplacian,
    BUNDLED,
    bundled_problem_path,
)
from .companion import (
    FrequencyPoint,
    CompanionSystem,
    LopatinskiiError,
    EllipticityMarginError,
    make_frequency_point,
    stable_roots,
    build_companion,
    boundary_map_conditioning,
    propagate,
    root_basis_solution,
)
from .grids import TangentialGrid, HalfLineGrid, UniformHalfGrid
from .spaces import (
    SpaceSpec,
    DyadicPartition,
    space_norm,
    param_norm,
    weighted_halfline_norm,
    sobolev_mixed_norm,
    domain_max_norm,
    ap_characteristic,
    hardy_apply,
    hardy_norm,
    LiftingReport,
    mixed_lifting_check,
)
from .poisson import (
    GridSpec,
    GridFunction,
    ExponentQuery,
    KernelBatch,
    kernel_batch,
    poisson_apply,
    decay_rate,
    predicted_decay_exponent,
    predicted_singularity_exponent,
    SweepRecord,
    SweepResult,
    decay_sweep,
    singularity_sweep,
    volevich_apply,
)
from .resolvent import (
    ExtensionOperator,
    seeley_extend,
    multiplier_data,
    whole_space_resolvent,
    ResolventSource,
    resolvent_source,
    ResolventResult,
    halfspace_resolvent,
    interior_residual_fd,
    boundary_trace_fd,
    ContourParams,
    semigroup_apply,
)
from .parabolic import (
    TimeGrid,
    ParabolicSolution,
    parabolic_boundary_solve,
    extend_time_data,
    IbvpSolution,
    ibvp_solve,
)
from .rbound import (
    RademacherTrial,
    RatioEstimate,
    rademacher_ratio,
    GrowthRow,
    dirichlet_nonrbound_experiment,
)

__version__ = "0.1.0"
