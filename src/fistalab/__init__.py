"""fistalab: proximal gradient and FISTA solvers with instrumented diagnostics.

The package solves composite convex problems F = f + g and records, for
every iteration, the sequences and inequality residuals that certify the
solver's behavior: objective gaps, the auxiliary extrapolation sequence
and its per-minimizer decay quantity, structural identities between the
iterate sequences, and finite convergence verdicts. A scalar-sequence
transform lab with bundled limit scenarios accompanies the solver, plus a
CLI (`fistalab`) for configured experiment runs.
"""

from .diagnostics import (
    ConvergenceVerdict,
    ScalarSeq,
    inner_product_seq,
    momentum_identity_residual,
    orthonormal_span_basis,
    verdict,
    xi_difference,
)
from .families import build_problem, feasibility_problem, l1_quadratic, random_quadratic, zero_part
from .problem import (
    CompositeProblem,
    DimensionMismatchError,
    LipschitzReport,
    NonsmoothPart,
    SmoothPart,
    SolutionInfo,
    Vector,
    as_vector,
    check_lipschitz,
    eval_F,
    finite_difference_gradient,
)
from .prox import half_sq_dist_grad, soft_threshold
from .scalar_transform import (
    DivergenceWitness,
    Scenario,
    SCENARIO_NAMES,
    divergence_witness,
    forward_transform,
    get_scenario,
    reconstruct,
    transform_weights,
    weighted_reconstruction,
)
from .schedule import (
    Schedule,
    ScheduleError,
    ScheduleReport,
    TkBoundsReport,
    bt_next,
    check_tk_bounds,
    linear_half,
    validate_schedule,
)
from .solver import (
    MissingSnapshotError,
    NonFiniteIterateError,
    Trace,
    fista_run,
    nesterov_run,
    pgm_run,
)

__version__ = "0.1.0"
