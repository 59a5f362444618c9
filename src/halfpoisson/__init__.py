"""Constructive solution operators for parameter-elliptic boundary problems
on the half-space, with weighted-norm estimate checks."""

from .model import (
    Symbol,
    BoundaryOperator,
    ModelProblem,
    SectorSample,
    EllipticityReport,
    LopatinskiiReport,
    check_ellipticity,
    check_lopatinskii_shapiro,
    problem_to_json,
    loads_problem,
    load_problem,
    dirichlet_laplacian,
    neumann_laplacian,
    clamped_bilaplacian,
    BUNDLED,
)
from .companion import (
    LopatinskiiError,
    EllipticityMarginError,
    build_companion,
    boundary_map_conditioning,
    propagate,
    gram,
)
from .grids import TangentialGrid, HalfLineGrid, UniformHalfGrid
from .spaces import (
    plancherel_norms,
    space_norm,
    param_norm,
    sobolev_mixed_norm,
    hardy_norm,
    mixed_lifting_check,
)
from .poisson import (
    ExponentQuery,
    KernelBatch,
    kernel_batch,
    decay_rate,
    predicted_decay_exponent,
    predicted_singularity_exponent,
    SweepResult,
    decay_sweep,
    singularity_sweep,
)
from .resolvent import (
    seeley_extend,
    whole_space_resolvent,
    halfspace_resolvent,
    interior_residual_fd,
    boundary_trace_fd,
    semigroup_apply,
)
from .parabolic import (
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
    dirichlet_nonrbound_experiment,
)

__version__ = "0.1.0"
