"""Built-in problem families addressable by name from experiment configs.

Every ``value`` callable works on any rank, ``(..., dim) -> (...)``, so the
solver evaluates the objective over thousands of trace rows in one call.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real

import numpy as np

from .problem import CompositeProblem, NonsmoothPart, SmoothPart, SolutionInfo, Vector
from .prox import _unit_line_prox, half_sq_dist_grad, soft_threshold

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


# family parameter -> (what it must be, test); a bool is no number here, as for config keys
_PARAMS = {
    "dim": ("an integer >= 1", lambda v: isinstance(v, Integral) and v >= 1),
    "seed": ("an integer >= 0", lambda v: isinstance(v, Integral) and v >= 0),
    "lam": ("a finite real >= 0", lambda v: isinstance(v, Real) and 0 <= v <= sys.float_info.max),
}


def _check_params(family: str, **params) -> None:
    """Refuse a family parameter of the wrong kind or range, naming the family and the key."""
    for key, value in params.items():
        want, ok = _PARAMS[key]
        if isinstance(value, bool) or not ok(value):
            raise ValueError(f"bad parameters for family {family!r}: {key!r} is {value!r}, not {want}")


def _project_segment(a: Vector, b: Vector, x: Vector) -> Vector:
    d = b - a
    t = float((x - a) @ d) / float(d @ d)
    return a + min(1.0, max(0.0, t)) * d


def feasibility_problem() -> CompositeProblem:
    """Two-set feasibility in the plane, the example behind the paper's Fig. 1.

    f is half the squared distance to the nonnegative orthant (beta = 1,
    gradient step = orthant projection) and g is the indicator of the line
    x1 + x2 = 1 (prox = line projection). The solution set is the segment
    between (0, 1) and (1, 0) and the optimal value is 0; the segment
    projection gives exact distances.

    A point counts as on the line when its gap is at most 1e-9 times
    max(1, ||x||_1), so that iterates produced in floating point still
    evaluate to a finite objective.
    """
    f = SmoothPart(
        value=lambda x: 0.5 * np.sum(np.minimum(x, 0.0) ** 2, axis=-1),
        gradient=half_sq_dist_grad,
        beta=1.0,
    )

    def line_indicator(x: Vector) -> np.ndarray:
        scale = np.maximum(1.0, np.abs(x).sum(axis=-1))
        gap = np.abs(x[..., 0] + x[..., 1] - 1.0)
        # an overflowed gap is inf and so is the scale; that point is off the line
        return np.where((gap <= 1e-9 * scale) & (gap < math.inf), 0.0, math.inf)

    g = NonsmoothPart(value=line_indicator, prox=_unit_line_prox)

    a = np.array([0.0, 1.0])
    b = np.array([1.0, 0.0])
    sol = SolutionInfo(
        s_ref=np.array([0.5, 0.5]),
        mu=0.0,
        project=lambda x: _project_segment(a, b, x),
    )
    return CompositeProblem(f=f, g=g, dim=2, problem_id="feasibility(offset=1)", solution=sol)


def random_quadratic(dim: int = 8, seed: int = 0) -> CompositeProblem:
    """Seeded strongly convex quadratic with g = 0 and a known minimizer.

    Eigenvalues are spread geometrically in [1/10, 1], so beta = 1 exactly
    by construction and the problem is (1/10)-strongly convex.
    """
    _check_params("quadratic", dim=dim, seed=seed)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.geomspace(0.1, 1.0, dim)
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
        problem_id=f"quadratic(dim={dim},seed={seed},cond=10)",
        solution=sol,
    )


def l1_quadratic(dim: int = 6, lam: float = 0.3, seed: int = 0) -> CompositeProblem:
    """Separable quadratic plus an L1 term, minimized by soft thresholding.

    f(x) = ||x - c||^2 / 2 (beta = 1) and g = lam * ||x||_1, so the unique
    minimizer is the soft threshold of c at lam and the optimal value is
    available in closed form.
    """
    _check_params("l1_quadratic", dim=dim, lam=lam, seed=seed)
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
