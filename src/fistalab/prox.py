"""Closed-form proximal maps used by the problem families.

The maps the solver calls every iteration (``_unit_line_prox``,
``soft_threshold``, ``half_sq_dist_grad``) convert their input with
``np.asarray`` and do not check it: the solver checks the iterates once
per chunk of rows.

``_unit_line_prox`` is fig1's prox, the projection onto the line
x1 + x2 = 1 that ``feasibility_problem`` uses. The solver steps a run on
Python floats when its g.prox *is* that function, its gradient *is*
``half_sq_dist_grad`` and 1/beta is 1 (see :mod:`fistalab.solver`), so a
wrapper around either callable, or any other step, keeps the numpy step.
"""

from __future__ import annotations

import numpy as np

from .problem import Vector

__all__ = [
    "soft_threshold",
    "half_sq_dist_grad",
]


def soft_threshold(v, lambda_step: float) -> Vector:
    """Coordinatewise shrink-toward-zero: sign(v) * max(|v| - lambda_step, 0)."""
    if lambda_step < 0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray(v, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - lambda_step, 0.0)


def half_sq_dist_grad(x) -> Vector:
    """Gradient of half the squared distance to the nonnegative orthant: x - P(x).

    Valid everywhere, including boundary points, and 1-Lipschitz.
    """
    v = np.asarray(x, dtype=float)
    return v - np.maximum(v, 0.0)


def _unit_line_prox(v, step) -> Vector:
    """Projection onto the line x1 + x2 = 1, for any step: v - (v0 + v1 - 1) / 2 (see the module docstring)."""
    v = np.asarray(v, dtype=float)
    v0, v1 = v.tolist()
    return v - (v0 + v1 - 1.0) / 2.0
