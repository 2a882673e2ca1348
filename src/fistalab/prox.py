"""Closed-form projections and proximal maps used by the problem families.

The maps the solver calls every iteration (``project_hyperplane``,
``soft_threshold``, ``half_sq_dist_grad``) convert their input with
``np.asarray`` and do not check it: the solver checks the iterates once
per chunk of rows.

``_UNIT_FORWARD`` maps a gradient callable to a fused form of its forward
step y - 1.0 * gradient(y). The solver takes the fused form when the smooth
part's gradient *is* a key and the step 1/beta is 1; any other gradient,
including a wrapper around a key, or any other step, keeps the generic form.
Its one entry is the orthant: y - (y - max(y, 0)) is max(y, 0) bit for bit
at every finite y. A y_i > 0, subnormals included, gives y_i - (+0.0) = y_i;
a y_i < 0 gives y_i - y_i = +0.0; and +-0.0 give +0.0, since numpy's
max(-0.0, 0.0) is +0.0. So fig1's step map drops two subtractions and a
product per row. The forms differ only at y_i = +-inf (NaN against +inf or
0.0), a point whose row has already aborted the run.
"""

from __future__ import annotations

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


def _orthant_step(y) -> Vector:
    """y - half_sq_dist_grad(y) fused: the orthant projection max(y, 0)."""
    return np.maximum(y, 0.0)


# gradient -> its forward step at step 1 in one pass, bit-equal at every finite y
_UNIT_FORWARD = {half_sq_dist_grad: _orthant_step}
