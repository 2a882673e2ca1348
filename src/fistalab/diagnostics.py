"""Post-hoc trace analysis.

"Converges" is operationalized as a finite tail proxy: the oscillation
(max minus min) of the last ``window`` values must not exceed a tolerance,
and the limit estimate is the mean over that window. All other checks in
this module are exact algebraic identities evaluated in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .scalar_transform import forward_transform

if TYPE_CHECKING:
    from .solver import Trace

__all__ = [
    "ScalarSeq",
    "ConvergenceVerdict",
    "verdict",
    "inner_product_seq",
    "momentum_identity_residual",
    "orthonormal_span_basis",
    "xi_difference",
]

DEFAULT_WINDOW = 100
DEFAULT_TOL = 1e-6
_RANK_TOL = 1e-10  # a vector within _RANK_TOL * max(1, ||v||) of a span adds no rank to it


@dataclass(frozen=True, eq=False)
class ScalarSeq:
    """A scalar sequence, as a float array."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Finite-tail convergence proxy for a scalar sequence.

    ``converged`` holds iff the tail is finite and its oscillation is at
    most ``tol``; ``limit_estimate`` is the tail mean (NaN for a
    non-finite tail).
    """

    converged: bool
    limit_estimate: float
    tail_oscillation: float
    window: int
    tol: float


def verdict(seq: ScalarSeq, window: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL) -> ConvergenceVerdict:
    """Judge a sequence by the oscillation of its last ``window`` values.

    Requires 2 <= window <= len(seq) / 2 so the tail is a genuine tail, and
    tol >= 0. A non-finite value in the window yields a not-converged
    verdict with a NaN limit estimate, never an exception.
    """
    check_tail(window, len(seq), tol)
    return tail_verdict(seq.values[-window:], tol)


def check_tail(window: int, length: int, tol: float) -> None:
    """Raise ValueError unless window is an integer with 2 <= window <= length / 2 and tol >= 0."""
    if not isinstance(window, (int, np.integer)):
        raise ValueError(f"window must be an integer, not {window!r}")
    if window < 2:
        raise ValueError("window must be >= 2")
    if 2 * window > length:
        raise ValueError(f"window {window} too long for a sequence of {length} values")
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")


def tail_verdict(tail: np.ndarray, tol: float) -> ConvergenceVerdict:
    """The verdict on a sequence whose last values are ``tail``; its window is ``len(tail)``.

    The caller has checked the window against the sequence's length, and
    the tolerance, with :func:`check_tail`.
    """
    window = len(tail)
    if not np.all(np.isfinite(tail)):
        return ConvergenceVerdict(
            converged=False,
            limit_estimate=math.nan,
            tail_oscillation=math.inf,
            window=window,
            tol=tol,
        )
    oscillation = float(tail.max() - tail.min())
    return ConvergenceVerdict(
        converged=oscillation <= tol,
        limit_estimate=float(tail.mean()),
        tail_oscillation=oscillation,
        window=window,
        tol=tol,
    )


def inner_product_seq(trace: Trace, which: str, d) -> ScalarSeq:
    """The sequence <v_k, d> for v in {x, y, z} along a trace."""
    from .problem import as_vector

    if which not in ("x", "y", "z"):
        raise ValueError(f"which must be one of 'x', 'y', 'z', got {which!r}")
    trace.require_vectors()
    vectors = {"x": trace.xs, "y": trace.ys, "z": trace.zs}[which]
    dd = as_vector(d, vectors.shape[1])
    return ScalarSeq(vectors @ dd)


def momentum_identity_residual(trace: Trace, d) -> float:
    """Max residual of the scalar momentum identity along direction d.

    With h_k = <x_k, d>, the forward transform of h by phi_k = t_k - 1 must
    equal <z_{k+1}, d> for every k; the identity is linear in d. Both
    products are taken over every row, as :func:`inner_product_seq` takes
    them.
    """
    from .problem import as_vector

    trace.require_vectors()
    dd = as_vector(d, trace.xs.shape[1])
    g = forward_transform(trace.xs @ dd, trace.ts[:-1] - 1.0)
    return float(np.max(np.abs(g - (trace.zs @ dd)[1:])))


def orthonormal_span_basis(vectors: Sequence) -> np.ndarray:
    """Orthonormal basis of span(vectors), rows orthonormal.

    Classical Gram-Schmidt with a second re-orthogonalization pass.
    Vectors whose residual after orthogonalization is below
    ``1e-10 * max(1, ||v||)`` are dropped as linearly dependent; an
    input without a single independent vector is an error.
    """
    from .problem import as_vector

    if len(vectors) == 0:
        raise ValueError("need at least one spanning vector")
    rows = [as_vector(v) for v in vectors]
    dim = rows[0].size
    basis: list = []
    for v in rows:
        if v.size != dim:
            raise ValueError("spanning vectors must share a dimension")
        r = v.copy()
        for _ in range(2):  # re-orthogonalize to recover CGS accuracy loss
            for b in basis:
                r -= (r @ b) * b
        norm = float(np.linalg.norm(r))
        if norm > _RANK_TOL * max(1.0, float(np.linalg.norm(v))):
            basis.append(r / norm)
    if not basis:
        raise ValueError("spanning set has no vector above the rank tolerance")
    return np.array(basis)


def xi_difference(trace: Trace, i: int = 0, j: int = 1) -> ScalarSeq:
    """The sequence xi_k(s_i) - xi_k(s_j) from k = 1 (gap terms cancel)."""
    if trace.xi is None:
        raise ValueError("trace has no xi columns (optimal value unknown or no s_refs)")
    cols = trace.xi.shape[1]
    if not (0 <= i < cols and 0 <= j < cols):
        raise IndexError(f"xi column out of range 0..{cols - 1}")
    return ScalarSeq(trace.xi[1:, i] - trace.xi[1:, j])
