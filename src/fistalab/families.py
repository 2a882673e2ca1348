"""Built-in problem families addressable by name from experiment configs.

Every ``value`` callable works on any rank, ``(..., dim) -> (...)``, so the
solver evaluates the objective over thousands of trace rows in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import CompositeProblem, NonsmoothPart, SmoothPart, SolutionInfo, Vector
from .prox import AffineHyperplane, half_sq_dist_grad, project_hyperplane, soft_threshold

__all__ = [
    "zero_part",
    "feasibility_problem",
    "random_quadratic",
    "l1_quadratic",
    "build_problem",
    "FAMILIES",
]


def zero_part() -> NonsmoothPart:
    """The zero nonsmooth term: value 0 everywhere, prox = identity."""
    return NonsmoothPart(
        value=lambda x: np.zeros(np.shape(x)[:-1]),
        prox=lambda v, step: np.asarray(v, dtype=float),
    )


def _project_segment(a: Vector, b: Vector, x: Vector) -> Vector:
    d = b - a
    t = float((x - a) @ d) / float(d @ d)
    return a + min(1.0, max(0.0, t)) * d


def feasibility_problem(offset: float = 1.0, membership_tol: float = 1e-9) -> CompositeProblem:
    """Two-set feasibility in the plane.

    f is half the squared distance to the nonnegative orthant (beta = 1,
    gradient step = orthant projection) and g is the indicator of the line
    x1 + x2 = offset (prox = line projection). For positive offset the
    solution set is the segment between (0, offset) and (offset, 0) and the
    optimal value is 0; the segment projection gives exact distances.

    ``membership_tol`` is the scaled slack allowed when deciding whether a
    point lies on the line, so that iterates produced in floating point
    still evaluate to a finite objective.
    """
    if not offset > 0:
        raise ValueError("offset must be positive so the two sets intersect")
    plane = AffineHyperplane(normal=np.ones(2), offset=float(offset))

    f = SmoothPart(
        value=lambda x: 0.5 * np.sum(np.minimum(x, 0.0) ** 2, axis=-1),
        gradient=half_sq_dist_grad,
        beta=1.0,
    )

    def line_indicator(x: Vector) -> np.ndarray:
        scale = np.maximum(max(1.0, abs(offset)), np.abs(x).sum(axis=-1))
        gap = np.abs(x[..., 0] + x[..., 1] - offset)
        # an overflowed gap is inf and so is the scale; that point is off the line
        return np.where((gap <= membership_tol * scale) & (gap < math.inf), 0.0, math.inf)

    g = NonsmoothPart(value=line_indicator, prox=lambda v, step: project_hyperplane(plane, v))

    a = np.array([0.0, offset])
    b = np.array([offset, 0.0])
    sol = SolutionInfo(
        s_ref=np.array([offset / 2.0, offset / 2.0]),
        mu=0.0,
        project=lambda x: _project_segment(a, b, x),
    )
    return CompositeProblem(f=f, g=g, dim=2, problem_id=f"feasibility(offset={offset:g})", solution=sol)


def random_quadratic(dim: int = 8, seed: int = 0, cond: float = 10.0) -> CompositeProblem:
    """Seeded strongly convex quadratic with g = 0 and a known minimizer.

    Eigenvalues are spread geometrically in [1/cond, 1], so beta = 1 exactly
    by construction and the problem is (1/cond)-strongly convex.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if cond < 1:
        raise ValueError("cond must be >= 1")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.geomspace(1.0 / cond, 1.0, dim)
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    center = rng.normal(size=dim)

    f = SmoothPart(
        # a is symmetric, so d @ a holds the rows of a @ d
        value=lambda x: 0.5 * np.sum((x - center) * ((x - center) @ a), axis=-1),
        gradient=lambda x: a @ (x - center),
        beta=1.0,
    )
    sol = SolutionInfo(s_ref=center.copy(), mu=0.0, project=lambda x: center.copy())
    return CompositeProblem(
        f=f,
        g=zero_part(),
        dim=dim,
        problem_id=f"quadratic(dim={dim},seed={seed},cond={cond:g})",
        solution=sol,
    )


def l1_quadratic(dim: int = 6, lam: float = 0.3, seed: int = 0) -> CompositeProblem:
    """Separable quadratic plus an L1 term, minimized by soft thresholding.

    f(x) = ||x - c||^2 / 2 (beta = 1) and g = lam * ||x||_1, so the unique
    minimizer is the soft threshold of c at lam and the optimal value is
    available in closed form.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    rng = np.random.default_rng(seed)
    c = 2.0 * rng.normal(size=dim)
    xstar = soft_threshold(c, lam)
    mu = 0.5 * float(np.sum((xstar - c) ** 2)) + lam * float(np.abs(xstar).sum())

    f = SmoothPart(
        value=lambda x: 0.5 * np.sum((x - c) ** 2, axis=-1),
        gradient=lambda x: x - c,
        beta=1.0,
    )
    g = NonsmoothPart(
        value=lambda x: lam * np.abs(x).sum(axis=-1),
        prox=lambda v, step: soft_threshold(v, lam * step),
    )
    sol = SolutionInfo(s_ref=xstar, mu=mu, project=lambda x: xstar.copy())
    return CompositeProblem(
        f=f,
        g=g,
        dim=dim,
        problem_id=f"l1_quadratic(dim={dim},lam={lam:g},seed={seed})",
        solution=sol,
    )


FAMILIES = {
    "feasibility": feasibility_problem,
    "quadratic": random_quadratic,
    "l1_quadratic": l1_quadratic,
}


def build_problem(family: str, params: dict | None = None) -> CompositeProblem:
    """Instantiate a named family with keyword parameters from a config."""
    if family not in FAMILIES:
        raise ValueError(f"unknown problem family {family!r}; known: {sorted(FAMILIES)}")
    try:
        return FAMILIES[family](**(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc
