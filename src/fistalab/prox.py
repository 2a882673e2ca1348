"""Closed-form projections and proximal maps used by the problem families.

The maps the solver calls every iteration (``project_hyperplane``,
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

import functools
from dataclasses import dataclass, field

import numpy as np

from .problem import Vector, as_vector

__all__ = [
    "AffineHyperplane",
    "project_orthant",
    "project_hyperplane",
    "soft_threshold",
    "half_sq_dist_grad",
]


@dataclass(frozen=True, eq=False)
class AffineHyperplane:
    """The set {x : <normal, x> = offset}; normal must be nonzero."""

    normal: Vector
    offset: float
    normal_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        n = as_vector(self.normal)
        if float(np.linalg.norm(n)) == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "normal_sq", float(n @ n))


def project_orthant(x) -> Vector:
    """Nearest point of the nonnegative orthant: coordinatewise max(., 0)."""
    return np.maximum(as_vector(x), 0.0)


def project_hyperplane(plane: AffineHyperplane, x) -> Vector:
    """Nearest point of the hyperplane: shift along the normal direction."""
    v = np.asarray(x, dtype=float)
    n = plane.normal
    shift = (float(n.dot(v)) - plane.offset) / plane.normal_sq  # dot: half the call cost of @
    return v - shift * n


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


@functools.cache
def _unit_line() -> AffineHyperplane:
    """The line x1 + x2 = 1, built on first use: numpy work at import costs every command about 0.3 MB of RSS."""
    return AffineHyperplane(normal=np.ones(2), offset=1.0)


def _unit_line_prox(v, step) -> Vector:
    """Projection onto the line x1 + x2 = 1, for any step: fig1's prox (see the module docstring)."""
    return project_hyperplane(_unit_line(), v)
