"""Step-parameter sequences (t_k) for the accelerated solver.

Admissible sequences satisfy, for every k,

    t_k >= (k + 2) / 2,  with t_0 = 1,          (growth)
    t_k^2 >= t_{k+1}^2 - t_{k+1}.               (quadratic)

The classic choice takes the largest root of the quadratic condition at
equality; the slowest admissible growth is t_k = (k + 2) / 2 for k >= 1.
Violation checks use residuals scaled by max(1, t^2) because the raw
quadratic residual necessarily grows like eps * t^2 in double precision.

Both conditions and their tolerances live in :func:`validate_schedule`
alone: :meth:`Schedule.prefix` generates the terms it is asked for and
certifies them with one call to it on every request; nothing is cached.
Each kind of violation is one (k, residual) record array: no Python
object per failing index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScheduleError",
    "bt_next",
    "linear_half",
    "Schedule",
    "ScheduleReport",
    "validate_schedule",
    "TkBoundsReport",
    "check_tk_bounds",
]

GROWTH_TOL = 1e-9
QUADRATIC_TOL = 1e-9
_BLOCK = 2**14  # terms per block of the certifiers' temporaries
_VIOLATION = np.dtype([("k", np.intp), ("residual", np.float64)])  # unpacks as (k, residual)


class ScheduleError(ValueError):
    """A step-parameter sequence violates the admissibility conditions."""


def bt_next(t_k: float) -> float:
    """Largest root of t^2 - t - t_k^2 = 0, the classic FISTA update."""
    if not t_k >= 1.0:
        raise ValueError(f"step parameter must satisfy t >= 1, got {t_k}")
    return 0.5 * (1.0 + math.sqrt(4.0 * t_k * t_k + 1.0))


def linear_half(k: int) -> float:
    """Slowest admissible growth: 1 at k = 0, then (k + 2) / 2."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return 1.0 if k == 0 else 0.5 * (k + 2)


def _violations(failed: np.ndarray, residual: np.ndarray, scale=None, first_k=0) -> np.ndarray:
    """(first_k + i, residual[i] / scale[i]) records at each position i where ``failed`` holds."""
    i = np.flatnonzero(failed)
    out = np.empty(i.size, _VIOLATION)
    np.add(i, first_k, out=out["k"])
    out["residual"] = residual[i]
    if scale is not None:  # in place: no quotient array beside the two gathered ones
        out["residual"] /= scale[i]
    return out


@dataclass(frozen=True)
class ScheduleReport:
    """Certification result for a step-parameter prefix.

    Residuals follow the sign convention "nonnegative means satisfied":
    ``growth_residuals[k] = t_k - (k+2)/2`` (0 index: -|t_0 - 1|) and
    ``quadratic_residuals[k] = t_k^2 - t_{k+1}^2 + t_{k+1}``. Violations
    are (k, scaled residual) record arrays beyond the scaled tolerances, the
    growth scale being (k+2)/2 >= 1 and the quadratic one max(1, t_k^2);
    ``quadratic_scaled_abs_max`` is the largest |residual| / max(1, t_k^2),
    the quantity that stays near eps when the recursion holds at equality.
    """

    growth_residuals: np.ndarray
    quadratic_residuals: np.ndarray
    growth_violations: np.ndarray
    quadratic_violations: np.ndarray
    quadratic_scaled_abs_max: float

    @property
    def valid(self) -> bool:
        return self.growth_violations.size == 0 and self.quadratic_violations.size == 0


def validate_schedule(ts) -> ScheduleReport:
    """Check a raw sequence against both admissibility conditions.

    Requires at least two entries; a non-finite entry or t_0 != 1 (to
    1e-12) is a :class:`ScheduleError`. Growth residuals are scaled by
    (k+2)/2 >= 1, quadratic ones by max(1, t_k^2). Empty violation arrays
    in the report mean the prefix is admissible.
    """
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a sequence of at least two step parameters")
    if abs(arr[0] - 1.0) > 1e-12:
        raise ScheduleError(f"t_0 must equal 1, got {float(arr[0])!r}")
    if not np.all(np.isfinite(arr)):
        raise ScheduleError(f"t_{int(np.argmin(np.isfinite(arr)))} is not finite")

    # the residuals are filled in place, ``_BLOCK`` terms at a time, so the
    # scales, squares and masks are never alive over the whole prefix; every
    # value is elementwise and a maximum does not depend on order, so the
    # blocks give the bits of one pass
    growth, quad = np.empty(arr.size), np.empty(arr.size - 1)
    growth_violations, quadratic_violations = [], []
    scaled_abs_max = -math.inf
    for lo in range(0, arr.size, _BLOCK):
        hi = min(lo + _BLOCK, arr.size)
        half = np.arange(lo + 2, hi + 2) / 2.0  # (k+2)/2 >= 1: growth offset and scale
        g = np.subtract(arr[lo:hi], half, out=growth[lo:hi])
        if lo == 0:
            g[0] = -abs(arr[0] - 1.0)  # at k = 0 the condition pins t_0 = 1 exactly
        growth_violations.append(_violations(g < -GROWTH_TOL * half, g, half, first_k=lo))
        top = min(hi, arr.size - 1)  # quad_k relates t_k and t_{k+1}
        sq = arr[lo : top + 1] ** 2
        q = np.subtract(sq[:-1], sq[1:], out=quad[lo:top])
        q += arr[lo + 1 : top + 1]
        scale = np.maximum(1.0, sq[:-1])  # explicit schedules may hold t < 1
        quadratic_violations.append(_violations(q < -QUADRATIC_TOL * scale, q, scale, first_k=lo))
        if q.size:  # NaN once any block's is NaN, as one np.max
            block_max = float(np.max(np.abs(q) / scale))
            if block_max != block_max or block_max > scaled_abs_max:
                scaled_abs_max = block_max
    return ScheduleReport(
        growth_residuals=growth,
        quadratic_residuals=quad,
        growth_violations=np.concatenate(growth_violations),
        quadratic_violations=np.concatenate(quadratic_violations),
        quadratic_scaled_abs_max=scaled_abs_max,
    )


class Schedule:
    """A step-parameter sequence, certified prefix by prefix.

    ``spec`` is what a config's ``schedule`` key holds: "bt" (quadratic
    recursion at equality, through :func:`bt_next`), "linear" ((k + 2) / 2
    growth, the values of :func:`linear_half`), or a sequence of at least
    two terms, kept as a read-only copy under ``rule`` "explicit".
    """

    def __init__(self, spec):
        self.rule, self._explicit = spec, None
        if not isinstance(spec, str):
            self.rule, self._explicit = "explicit", np.array(spec, dtype=float)
            if self._explicit.ndim != 1 or self._explicit.size < 2:
                raise ValueError("an explicit schedule must be a 1-D sequence of at least two terms")
            self._explicit.flags.writeable = False
        elif spec not in ("bt", "linear"):
            raise ValueError(f"unknown schedule rule {spec!r}")

    def _generate(self, k_max: int) -> np.ndarray:
        """t_0..t_{k_max}, or as many as an explicit rule has; "linear" halves exact integers
        as :func:`linear_half` does, and "bt" writes :func:`bt_next`'s formula into the array."""
        if self._explicit is not None:
            return self._explicit[: k_max + 1]
        if self.rule == "linear":
            ts = np.arange(2, k_max + 3) / 2.0
            ts[0] = 1.0
            return ts
        ts = np.empty(k_max + 1)
        out, sqrt = memoryview(ts), math.sqrt
        t = out[0] = 1.0
        for k in range(1, k_max + 1):  # bt_next inline: t >= 1 holds by induction from t_0 = 1
            t = out[k] = 0.5 * (1.0 + sqrt(4.0 * t * t + 1.0))
        return ts

    def prefix(self, k_max: int) -> np.ndarray:
        """t_0..t_{k_max}, generated from t_0 = 1 and certified with :func:`validate_schedule`.

        A violation, or asking for more terms than an explicit rule has, is
        a :class:`ScheduleError`. An explicit prefix is a read-only view.
        """
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        ts = self._generate(max(k_max, 1))
        report = validate_schedule(ts)
        if not report.valid:
            k, condition = min(
                [(k, "growth") for k, _ in report.growth_violations[:1]]
                + [(k + 1, "quadratic") for k, _ in report.quadratic_violations[:1]]
            )
            raise ScheduleError(f"{condition} condition violated at k={k}: t={float(ts[k])}")
        if ts.size <= k_max:
            raise ScheduleError(f"explicit schedule has {ts.size} entries; index {ts.size} requested")
        return ts[: k_max + 1]


@dataclass(frozen=True)
class TkBoundsReport:
    """Bounds 1 <= t_k - 1 <= k for k >= 2, plus divergence evidence.

    Violations are (k, residual) record arrays: t_k - 2 below -1e-9 or NaN,
    and k - (t_k - 1) below -1e-9 k. ``inv_partial_sums[i]`` is the running
    sum of 1/(t_k - 1) over k = 2 .. 2 + i; the total diverges like the
    harmonic series for any admissible schedule.
    """

    lower_violations: np.ndarray
    upper_violations: np.ndarray
    inv_partial_sums: np.ndarray

    @property
    def valid(self) -> bool:
        return self.lower_violations.size == 0 and self.upper_violations.size == 0

    @property
    def total(self) -> float:
        return float(self.inv_partial_sums[-1]) if self.inv_partial_sums.size else 0.0


def check_tk_bounds(ts) -> TkBoundsReport:
    """Verify the bounds on t_k - 1 from index 2 onward; a NaN term fails the lower one."""
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValueError("need at least t_0..t_2 to check the bounds")
    tol = 1e-9
    inv = np.empty(arr.size - 2)
    lower, upper = [], []
    # block by block, as validate_schedule: each block's running sum starts
    # from the sum before it, added as np.cumsum adds it, so the partial
    # sums keep the bits of one cumsum
    for lo in range(2, arr.size, _BLOCK):
        hi = min(lo + _BLOCK, arr.size)
        ks = np.arange(lo, hi)
        tm1 = arr[lo:hi] - 1.0
        low = tm1 - 1.0
        up = ks - tm1
        lower.append(_violations(~(low >= -tol), low, first_k=lo))
        upper.append(_violations(up < -tol * ks, up, first_k=lo))
        # reciprocals are divergence evidence; meaningless where the lower bound fails
        sums = inv[lo - 2 : hi - 2]
        sums.fill(np.nan)
        np.divide(1.0, tm1, out=sums, where=tm1 > 0)
        if lo > 2:
            sums[0] = inv[lo - 3] + sums[0]
        np.cumsum(sums, out=sums)
    return TkBoundsReport(np.concatenate(lower), np.concatenate(upper), inv_partial_sums=inv)
