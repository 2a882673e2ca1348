"""Step-parameter sequences (t_k) for the accelerated solver.

Admissible sequences satisfy, for every k,

    t_k >= (k + 2) / 2,  with t_0 = 1,          (growth)
    t_k^2 >= t_{k+1}^2 - t_{k+1}.               (quadratic)

The classic choice takes the largest root of the quadratic condition at
equality; the slowest admissible growth is t_k = (k + 2) / 2 for k >= 1.
Violation checks use residuals scaled by max(1, t^2) because the raw
quadratic residual necessarily grows like eps * t^2 in double precision.

Both conditions and their tolerances live in :func:`validate_schedule`
alone: a :class:`Schedule` generates the terms it is asked for and
certifies the whole prefix with one call to it.
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


@dataclass(frozen=True)
class ScheduleReport:
    """Certification result for a step-parameter prefix.

    Residuals follow the sign convention "nonnegative means satisfied":
    ``growth_residuals[k] = t_k - (k+2)/2`` (0 index: -|t_0 - 1|) and
    ``quadratic_residuals[k] = t_k^2 - t_{k+1}^2 + t_{k+1}``. Violations
    list (index, scaled residual) pairs beyond the scaled tolerances, the
    growth scale being (k+2)/2 >= 1 and the quadratic one max(1, t_k^2);
    ``quadratic_scaled_abs_max`` is the largest |residual| / max(1, t_k^2),
    the quantity that stays near eps when the recursion holds at equality.
    """

    growth_residuals: np.ndarray
    quadratic_residuals: np.ndarray
    growth_violations: list
    quadratic_violations: list
    quadratic_scaled_abs_max: float

    @property
    def valid(self) -> bool:
        return not self.growth_violations and not self.quadratic_violations


def validate_schedule(ts) -> ScheduleReport:
    """Check a raw sequence against both admissibility conditions.

    Requires at least two entries; a non-finite entry or t_0 != 1 (to
    1e-12) is a :class:`ScheduleError`. Growth residuals are scaled by
    (k+2)/2 >= 1, quadratic ones by max(1, t_k^2). An empty violation list
    in the report means the prefix is admissible.
    """
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a sequence of at least two step parameters")
    if abs(arr[0] - 1.0) > 1e-12:
        raise ScheduleError(f"t_0 must equal 1, got {float(arr[0])!r}")
    if not np.all(np.isfinite(arr)):
        raise ScheduleError(f"t_{int(np.argmin(np.isfinite(arr)))} is not finite")

    half = np.arange(2, arr.size + 2) / 2.0  # (k+2)/2 >= 1: growth offset and scale
    growth = arr - half
    growth[0] = -abs(arr[0] - 1.0)  # at k = 0 the condition pins t_0 = 1 exactly
    sq = arr**2
    quad = sq[:-1] - sq[1:] + arr[1:]
    quad_scale = np.maximum(1.0, sq[:-1])  # explicit schedules may hold t < 1

    growth_violations = [
        (int(k), float(growth[k] / half[k])) for k in np.nonzero(growth < -GROWTH_TOL * half)[0]
    ]
    quadratic_violations = [
        (int(k), float(quad[k] / quad_scale[k]))
        for k in np.nonzero(quad < -QUADRATIC_TOL * quad_scale)[0]
    ]
    return ScheduleReport(
        growth_residuals=growth,
        quadratic_residuals=quad,
        growth_violations=growth_violations,
        quadratic_violations=quadratic_violations,
        quadratic_scaled_abs_max=float(np.max(np.abs(quad) / quad_scale)),
    )


class Schedule:
    """Certified prefix of a step-parameter sequence, cached for its longest request.

    ``rule`` is "bt" (quadratic recursion at equality, through
    :func:`bt_next`), "linear" ((k + 2) / 2 growth, through
    :func:`linear_half`), or "explicit" with at least two user-supplied
    values. A request past the cached prefix generates the whole new one
    from t_0 = 1 and certifies it with :func:`validate_schedule`, so an
    instance only ever holds an admissible prefix; a violation, or asking
    for more terms than an explicit rule provides, is a
    :class:`ScheduleError`. Generation is single-writer; an already
    generated prefix may be shared read-only.
    """

    def __init__(self, rule: str = "bt", values=None):
        if rule in ("bt", "linear"):
            if values is not None:
                raise ValueError(f"rule {rule!r} does not take explicit values")
            self._explicit = None
        elif rule == "explicit":
            if values is None:
                raise ValueError("explicit rule needs values")
            self._explicit = np.array(values, dtype=float)
            if self._explicit.ndim != 1 or self._explicit.size < 2:
                raise ValueError("explicit values must be a 1-D sequence of at least two terms")
        else:
            raise ValueError(f"unknown schedule rule {rule!r}")
        self.rule = rule
        self._ts = np.empty(0)

    def _generate(self, k_max: int) -> np.ndarray:
        """t_0..t_{k_max}, or as many of them as an explicit rule has."""
        if self._explicit is not None:
            return self._explicit[: k_max + 1]
        ts = np.empty(k_max + 1)
        ts[0] = t = 1.0  # t_0 = 1
        # a few thousand terms at a time, so the Python floats never pile up
        for lo in range(1, k_max + 1, 4096):
            hi = min(lo + 4096, k_max + 1)
            if self.rule == "linear":
                new = [linear_half(k) for k in range(lo, hi)]
            else:
                new = []
                for _ in range(lo, hi):
                    t = bt_next(t)
                    new.append(t)
            ts[lo:hi] = new
        return ts

    def prefix(self, k_max: int) -> np.ndarray:
        """Return t_0..t_{k_max} as a read-only view of the cache, generated anew past its end."""
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        if self._ts.size <= k_max:
            ts = self._generate(max(k_max, 1))
            report = validate_schedule(ts)
            if not report.valid:
                k, condition = min(
                    [(k, "growth") for k, _ in report.growth_violations[:1]]
                    + [(k + 1, "quadratic") for k, _ in report.quadratic_violations[:1]]
                )
                raise ScheduleError(f"{condition} condition violated at k={k}: t={float(ts[k])}")
            if ts.size <= k_max:
                raise ScheduleError(
                    f"explicit schedule has {ts.size} entries; index {ts.size} requested"
                )
            self._ts = ts
        view = self._ts[: k_max + 1]
        view.flags.writeable = False
        return view


@dataclass(frozen=True)
class TkBoundsReport:
    """Bounds 1 <= t_k - 1 <= k for k >= 2, plus divergence evidence.

    ``inv_partial_sums[i]`` is the running sum of 1/(t_k - 1) over
    k = 2 .. 2 + i; the total diverges like the harmonic series for any
    admissible schedule.
    """

    lower_violations: list
    upper_violations: list
    inv_partial_sums: np.ndarray

    @property
    def valid(self) -> bool:
        return not self.lower_violations and not self.upper_violations

    @property
    def total(self) -> float:
        return float(self.inv_partial_sums[-1]) if self.inv_partial_sums.size else 0.0


def check_tk_bounds(ts) -> TkBoundsReport:
    """Verify the two-sided bounds on t_k - 1 from index 2 onward."""
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValueError("need at least t_0..t_2 to check the bounds")
    ks = np.arange(2, arr.size)
    tm1 = arr[2:] - 1.0
    tol = 1e-9
    low = tm1 - 1.0
    up = ks - tm1
    lower = [(int(ks[i]), float(low[i])) for i in np.nonzero(low < -tol)[0]]
    upper = [(int(ks[i]), float(up[i])) for i in np.nonzero(up < -tol * ks)[0]]
    # reciprocals are divergence evidence; meaningless where the lower bound fails
    inv = np.divide(1.0, tm1, out=np.full(tm1.shape, np.nan), where=tm1 > 0)
    return TkBoundsReport(
        lower_violations=lower,
        upper_violations=upper,
        inv_partial_sums=np.cumsum(inv, out=inv),
    )
