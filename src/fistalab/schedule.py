"""Step-parameter sequences (t_k) for the accelerated solver.

Admissible sequences satisfy, for every k,

    t_k >= (k + 2) / 2,  with t_0 = 1,          (growth)
    t_k^2 >= t_{k+1}^2 - t_{k+1}.               (quadratic)

The classic choice takes the largest root of the quadratic condition at
equality; the slowest admissible growth is t_k = (k + 2) / 2 for k >= 1.
Violation checks use residuals scaled by max(1, t^2) because the raw
quadratic residual necessarily grows like eps * t^2 in double precision.

Both conditions, the bounds 1 <= t_k - 1 <= k and their tolerances live
in one block certifier, ``_certify``, which reports on ``_BLOCK`` terms at
a time. :func:`validate_schedule` and :func:`check_tk_bounds` fill their
full-length reports from its blocks; :meth:`Schedule.prefix` generates
the terms it is asked for on every request (nothing is cached) and stops
at the first block that violates; ``fistalab validate`` keeps only what
it prints. Each kind of violation is one (k, residual) record array: no
Python object per failing index.
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
_BOUNDS_TOL = 1e-9  # of 1 <= t_k - 1 <= k, scaled by k on the upper side
_BLOCK = 2**14  # terms per block of the certifier
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


def _certify(arr: np.ndarray):
    """(lo, ScheduleReport, TkBoundsReport) on each block [lo, hi) of ``_BLOCK`` terms of ``arr``.

    A block reports growth at k in [lo, hi), the quadratic condition at k in
    [lo - 1, hi - 1) (so a violation, named by t_{k+1}, falls in the block)
    and the bounds at k in [max(lo, 2), hi), their partial sums continuing
    the block before as ``np.cumsum`` adds: the blocks hold the bits of one
    whole-array pass. The caller checks ``arr``.
    """
    total = None
    for lo in range(0, arr.size, _BLOCK):
        hi = min(lo + _BLOCK, arr.size)
        half = np.arange(lo + 2, hi + 2) / 2.0  # (k+2)/2 >= 1: growth offset and scale
        growth = arr[lo:hi] - half
        if lo == 0:
            growth[0] = -abs(arr[0] - 1.0)  # at k = 0 the condition pins t_0 = 1 exactly
        first = max(lo - 1, 0)  # quad_k relates t_k and t_{k+1}
        sq = arr[first:hi] ** 2
        quad = sq[:-1] - sq[1:]
        quad += arr[first + 1 : hi]
        scale = np.maximum(1.0, sq[:-1])  # explicit schedules may hold t < 1
        report = ScheduleReport(
            growth_residuals=growth,
            quadratic_residuals=quad,
            growth_violations=_violations(growth < -GROWTH_TOL * half, growth, half, first_k=lo),
            quadratic_violations=_violations(quad < -QUADRATIC_TOL * scale, quad, scale, first_k=first),
            quadratic_scaled_abs_max=float(np.max(np.abs(quad) / scale)),  # NaN if any is
        )
        b = max(lo, 2)
        ks = np.arange(b, hi)
        tm1 = arr[b:hi] - 1.0
        low = tm1 - 1.0
        up = ks - tm1
        # reciprocals are divergence evidence; meaningless where the lower bound fails
        sums = np.full(tm1.size, np.nan)
        np.divide(1.0, tm1, out=sums, where=tm1 > 0)
        if total is not None:
            sums[0] = total + sums[0]
        np.cumsum(sums, out=sums)
        total = sums[-1] if sums.size else None
        bounds = TkBoundsReport(
            _violations(~(low >= -_BOUNDS_TOL), low, first_k=b),
            _violations(up < -_BOUNDS_TOL * ks, up, first_k=b),
            inv_partial_sums=sums,
        )
        yield lo, report, bounds


def _admissible_input(ts) -> np.ndarray:
    """``ts`` as a float array, or the error :func:`validate_schedule` documents."""
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a sequence of at least two step parameters")
    if abs(arr[0] - 1.0) > 1e-12:
        raise ScheduleError(f"t_0 must equal 1, got {float(arr[0])!r}")
    if not np.all(np.isfinite(arr)):
        raise ScheduleError(f"t_{int(np.argmin(np.isfinite(arr)))} is not finite")
    return arr


def _joined(blocks: list):
    """One report from its blocks' reports: each array field concatenated in block order, the
    scaled maximum the largest of theirs (NaN if any is, as one ``np.max``)."""
    fields = {}
    for name in blocks[0].__dataclass_fields__:
        parts = [getattr(block, name) for block in blocks]
        fields[name] = np.concatenate(parts) if isinstance(parts[0], np.ndarray) else float(np.max(parts))
    return type(blocks[0])(**fields)


def validate_schedule(ts) -> ScheduleReport:
    """Check a raw sequence against both admissibility conditions.

    Requires at least two entries; a non-finite entry or t_0 != 1 (to
    1e-12) is a :class:`ScheduleError`. Growth residuals are scaled by
    (k+2)/2 >= 1, quadratic ones by max(1, t_k^2). Empty violation arrays
    in the report mean the prefix is admissible.
    """
    return _joined([report for _, report, _ in _certify(_admissible_input(ts))])


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
        """t_0..t_{k_max}, generated from t_0 = 1 and certified as :func:`validate_schedule` certifies.

        A violation, or asking for more terms than an explicit rule has, is
        a :class:`ScheduleError` naming the first violating term. An explicit
        prefix is a read-only view.
        """
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        ts = _admissible_input(self._generate(max(k_max, 1)))
        for _, report, _ in _certify(ts):
            if not report.valid:  # a block's violations name terms of the block, so this one holds the first
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
    with np.errstate(all="ignore"):  # the growth and quadratic residuals of a non-finite term, unread
        return _joined([bounds for _, _, bounds in _certify(arr)])
