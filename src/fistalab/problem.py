"""Composite convex objectives F = f + g over dense real coordinate vectors.

The smooth part carries its gradient and a declared Lipschitz constant for
the gradient; the nonsmooth part carries its proximal map. Indicator
functions are supported through extended-real values (``math.inf``), so
``eval_F`` may return ``+inf`` but never NaN.

Value protocol: ``SmoothPart.value`` and ``NonsmoothPart.value`` map an
array of shape ``(..., dim)`` to an array of shape ``(...)``, one value per
row, so thousands of trace rows are evaluated in one call (reduce with
``axis=-1``, index with ``x[..., i]``, compare with ``np.maximum``); a
result of any other shape, a scalar included, is a ValueError naming the
part. Gradients and prox maps take one 1-D vector.

Inputs are validated once, at the boundary: ``as_vector`` checks shape and
finiteness in the public entry points (``eval_F``, the solver runs,
``check_lipschitz``). The solver checks the iterates for finiteness once
per block of rows and does not revalidate inside its loop, so the value,
gradient and prox callables do not check their input. A gradient or prox
map may receive a non-finite vector after the row that aborts a run; what
it returns or raises there is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray

__all__ = [
    "Vector",
    "DimensionMismatchError",
    "as_vector",
    "SmoothPart",
    "NonsmoothPart",
    "SolutionInfo",
    "CompositeProblem",
    "eval_F",
    "check_lipschitz",
    "LipschitzReport",
    "finite_difference_gradient",
]


class DimensionMismatchError(ValueError):
    """A vector does not match the fixed dimension of the problem."""


def as_vector(x, dim: int | None = None) -> Vector:
    """Validate and return ``x`` as a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with >= 1 coordinate, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


@dataclass(frozen=True)
class SmoothPart:
    """Convex differentiable term with a ``beta``-Lipschitz gradient.

    ``value`` maps an array of shape ``(..., dim)`` to shape ``(...)``;
    ``gradient`` maps one finite vector to a vector. ``beta`` is declared
    by the constructor of the problem family and is certified empirically
    (see :func:`check_lipschitz`), never estimated.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[Vector], Vector]
    beta: float

    def __post_init__(self):
        if not (isinstance(self.beta, (int, float)) and math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive finite real, got {self.beta!r}")


@dataclass(frozen=True)
class NonsmoothPart:
    """Convex lower-semicontinuous term given by its value and prox map.

    ``value`` maps an array of shape ``(..., dim)`` to shape ``(...)`` and
    may give ``+inf`` (indicator functions); ``prox(v, step)`` must return
    the minimizer of ``g(u) + ||u - v||^2 / (2 step)`` for one vector ``v``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[Vector, float], Vector]


@dataclass(frozen=True, eq=False)
class SolutionInfo:
    """Ground truth about the minimizers, consumed by gap diagnostics.

    ``project``, when available, is the exact Euclidean projection onto the
    full solution set; without it, distances fall back to the single
    reference point ``s_ref`` (an upper bound on the true distance).
    """

    s_ref: Vector
    mu: float
    project: Optional[Callable[[Vector], Vector]] = None

    def __post_init__(self):
        object.__setattr__(self, "s_ref", as_vector(self.s_ref))
        if not math.isfinite(self.mu):
            raise ValueError("optimal value must be finite")

    @property
    def exact_distance(self) -> bool:
        return self.project is not None

    def distance(self, x: Vector) -> float:
        """Distance from x to the solution set, or to s_ref as a surrogate (:func:`_rescaled` where it overflows)."""
        v = as_vector(x)
        gap = v - (self.project(v) if self.project is not None else self.s_ref)
        with np.errstate(over="ignore"):
            return float(_rescaled(np.array([np.linalg.norm(gap)]), gap[None])[0])


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """The objective F = f + g on R^dim, with optional solution info."""

    f: SmoothPart
    g: NonsmoothPart
    dim: int
    problem_id: str = "custom"
    solution: Optional[SolutionInfo] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("problem dimension must be >= 1")
        if self.solution is not None and self.solution.s_ref.size != self.dim:
            raise DimensionMismatchError("solution reference point has the wrong dimension")


def _rescaled(norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``norms``, the norms of ``rows``, with each inf of a finite row recomputed as m ||v / m||, m = max |v_i|.

    np.linalg.norm squares without scaling, so there a finite row above
    about 1.3e154 reads inf; every other norm keeps its bits.
    """
    over = np.isinf(norms)
    if over.any():
        over[over] = np.isfinite(rows[over]).all(axis=1)
        big = rows[over]
        m = np.abs(big).max(axis=1)
        norms[over] = m * np.linalg.norm(big / m[:, None], axis=1)
    return norms


def _row_norms(v: np.ndarray) -> np.ndarray:
    """||v_k|| of each row of ``v``: ``np.linalg.norm(v, axis=1)``, :func:`_rescaled` where that overflows.

    The first pass's overflow is not warned of: it is repaired, or the norm is inf.
    """
    with np.errstate(over="ignore"):
        return _rescaled(np.linalg.norm(v, axis=1), v)


def _part_values(value, xs: np.ndarray, part: str) -> np.ndarray:
    """One value of ``part`` per row of ``xs``, shape ``(n,)``."""
    n = xs.shape[0]
    try:
        vals = np.asarray(value(xs), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{part} value failed on a {xs.shape} array ({exc}); "
            "value callables map (..., dim) to (...)"
        ) from exc
    if vals.shape != (n,):
        raise ValueError(f"{part} value has shape {vals.shape}, expected ({n},)")
    return vals


def _objective_rows(problem: CompositeProblem, xs: np.ndarray, strict: bool = True) -> np.ndarray:
    """F = f + g on every row of the finite ``(n, dim)`` array ``xs``.

    Rows where g = +inf give +inf without evaluating f there, so no inf
    arithmetic is ever performed. NaN from either part is a hard error, or,
    with ``strict`` false, that row's value.
    """
    gv = _part_values(problem.g.value, xs, "nonsmooth part")
    if strict and np.isnan(gv).any():
        raise ValueError("nonsmooth part evaluated to NaN")
    out = np.full(xs.shape[0], math.inf)
    dom = gv != math.inf
    if dom.any():
        inside = xs if dom.all() else xs[dom]
        out[dom] = _part_values(problem.f.value, inside, "smooth part") + gv[dom]
        if strict and np.isnan(out).any():
            raise ValueError("objective evaluated to NaN")
    return out


def eval_F(problem: CompositeProblem, x) -> float:
    """Evaluate F(x) = f(x) + g(x); returns +inf when g(x) = +inf.

    The sum is short-circuited on an infinite g value so no inf arithmetic
    is ever performed. NaN from either part is a hard error.
    """
    v = as_vector(x, problem.dim)
    return float(_objective_rows(problem, v[None, :])[0])


@dataclass(frozen=True)
class LipschitzReport:
    """Empirical certification of the declared gradient Lipschitz constant."""

    beta: float
    max_ratio: float
    pairs_used: int
    passed: bool


def check_lipschitz(problem: CompositeProblem, samples) -> LipschitzReport:
    """Certify beta against gradient difference quotients on sample pairs.

    Coincident pairs are skipped; the check passes when the largest ratio
    ``||grad f(u) - grad f(v)|| / ||u - v||`` does not exceed
    ``beta * (1 + 1e-8)``; a NaN or infinite ratio makes it fail.
    """
    beta = problem.f.beta
    ratios = []
    for u, v in samples:
        uu = as_vector(u, problem.dim)
        vv = as_vector(v, problem.dim)
        gap = float(np.linalg.norm(uu - vv))
        if gap == 0.0:
            continue
        ratios.append(float(np.linalg.norm(problem.f.gradient(uu) - problem.f.gradient(vv))) / gap)
    if not ratios:
        raise ValueError("no usable sample pairs (empty list or all pairs coincident)")
    max_ratio = float(np.max(ratios))
    return LipschitzReport(
        beta=beta,
        max_ratio=max_ratio,
        pairs_used=len(ratios),
        passed=max_ratio <= beta * (1.0 + 1e-8),
    )


def finite_difference_gradient(fun: Callable[[Vector], float], x) -> Vector:
    """Central finite differences of ``fun`` at ``x`` with step 1e-6, one coordinate at a time."""
    v = as_vector(x)
    out = np.empty_like(v)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = 1e-6
        out[i] = (fun(v + e) - fun(v - e)) / 2e-6
    return out
