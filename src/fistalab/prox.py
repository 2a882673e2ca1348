"""Closed-form projections and proximal maps used by the problem families.

The maps the solver calls every iteration (``project_hyperplane``,
``soft_threshold``, ``half_sq_dist_grad``) convert their input with
``np.asarray`` and do not check it: the solver checks the iterates once
per chunk of rows.

``_UNIT_LINES`` maps each prox that projects onto a line x1 + x2 = offset
in the plane, as ``feasibility_problem`` builds it, to that offset. The
solver steps a run on Python floats when its g.prox is such a key, its
gradient is ``half_sq_dist_grad`` and its step 1/beta is 1 (fig1's step,
see :mod:`fistalab.solver`). Both are keyed by identity, so a wrapper
around either callable, or any other step, keeps the numpy step.
"""

from __future__ import annotations

import weakref
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


# prox map onto a line x1 + x2 = offset -> offset (see the module docstring)
_UNIT_LINES = weakref.WeakKeyDictionary()
