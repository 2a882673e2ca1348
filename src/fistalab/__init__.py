"""fistalab: proximal gradient and FISTA solvers with instrumented diagnostics.

The package solves composite convex problems F = f + g and records, for
every iteration, the sequences and inequality residuals that certify the
solver's behavior: objective gaps, the auxiliary extrapolation sequence
and its per-minimizer decay quantity, structural identities between the
iterate sequences, and finite convergence verdicts. A scalar-sequence
transform lab with bundled limit scenarios accompanies the solver, plus a
CLI (`fistalab`) for configured experiment runs.

Each exported name is imported from its submodule on first use (PEP 562),
so a command that needs only the schedule and transform lab never loads
the solver or the checks.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys(
        (
            "ConvergenceVerdict",
            "ScalarSeq",
            "inner_product_seq",
            "momentum_identity_residual",
            "orthonormal_span_basis",
            "verdict",
            "xi_difference",
        ),
        "diagnostics",
    ),
    **dict.fromkeys(
        ("build_problem", "feasibility_problem", "l1_quadratic", "random_quadratic", "zero_part"), "families"
    ),
    **dict.fromkeys(
        (
            "CompositeProblem",
            "DimensionMismatchError",
            "LipschitzReport",
            "NonsmoothPart",
            "SmoothPart",
            "SolutionInfo",
            "Vector",
            "as_vector",
            "check_lipschitz",
            "eval_F",
            "finite_difference_gradient",
        ),
        "problem",
    ),
    **dict.fromkeys(("half_sq_dist_grad", "soft_threshold"), "prox"),
    **dict.fromkeys(
        (
            "DivergenceWitness",
            "Scenario",
            "SCENARIO_NAMES",
            "divergence_witness",
            "forward_transform",
            "get_scenario",
            "reconstruct",
            "transform_weights",
            "weighted_reconstruction",
        ),
        "scalar_transform",
    ),
    **dict.fromkeys(
        (
            "Schedule",
            "ScheduleError",
            "ScheduleReport",
            "TkBoundsReport",
            "bt_next",
            "check_tk_bounds",
            "linear_half",
            "validate_schedule",
        ),
        "schedule",
    ),
    **dict.fromkeys(
        ("MissingSnapshotError", "NonFiniteIterateError", "Trace", "fista_run", "nesterov_run", "pgm_run"), "solver"
    ),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
