"""Named trace checks: the runtime assertions behind `fistalab run`.

Each check turns one inequality or identity satisfied by the solver
sequences into a pass/fail judgment with an explicit residual and, where a
convergence proxy is involved, its window and tolerance. The identity and
inequality checks run at the roundoff tolerance ``IDENTITY_TOL``, scaled by
max(1, magnitude of the participating terms) so that genuine violations
stand out from accumulated roundoff on long runs. A non-finite residual or
scale makes the reported value NaN, and a check passes only on a finite
value: nothing passes vacuously. Nor does a check with nothing to check: a
trace of fewer than two rows (three for ``xi_monotone``, which compares
steps) or no probe direction, or a zero one (:func:`_directions`), is a
ValueError at set-up, as is a tail verdict's window or tolerance out of
range.

Every check is a fold over the rows, in blocks of ``_CSV_CHUNK``: set up
before the first row (every probe draw from the rng happens there, in
analysis order), updated once per block, then read. Each fold is a
maximum, a minimum, a finiteness flag, a tail window or a set of sampled
rows, so it gives the bits of one pass over the whole trace. The one
exception is a BLAS product <v_k, d>, whose rounding depends on how the
rows are split; :func:`_products` takes each one, of x and of z alike, in
the fold's own block, which splits the one whole-array product ``v @ d``
at multiples of ``_CSV_CHUNK`` from row 0. ``fistalab run`` folds the
checks as the run builds each block (:class:`AnalysisStream`), so it
never holds every row of x, y and z; ``ANALYSES[name]`` and
:meth:`AnalysisStream.fold` run the same fold over a stored trace that
does. Only the tail verdicts and ``final_point`` take parameters, as
their right values depend on the run or the problem: their folds' keyword
arguments, each default written once, in the fold's signature; an
unknown, missing or mistyped one is a ValueError before the first row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .diagnostics import _RANK_TOL, check_tail, orthonormal_span_basis, tail_verdict
from .problem import CompositeProblem, _objective_rows, _row_norms, as_vector
from .scalar_transform import forward_transform
from .solver import _CSV_CHUNK, RowWindow, Trace, tag_nonfinite, z_recursion

__all__ = ["CheckResult", "ANALYSES", "AnalysisStream"]

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    claim: str
    passed: bool
    residual_or_oscillation: Optional[float]
    window: Optional[int] = None
    tol: Optional[float] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Strict-JSON form: each non-finite float becomes null, tagged under "nonfinite"."""
        out = {
            "claim": self.claim,
            "pass": bool(self.passed),
            "residual_or_oscillation": self.residual_or_oscillation,
            "window": self.window,
            "tol": self.tol,
        }
        if self.details:
            out["details"] = self.details
        return tag_nonfinite(out)


def _worst(residual, scale=1.0) -> float:
    """Largest residual / scale; NaN when any residual or scale is not finite."""
    residual, scale = np.broadcast_arrays(np.asarray(residual, dtype=float), scale)
    finite = np.isfinite(residual) & np.isfinite(scale)
    ratio = np.divide(residual, scale, out=np.full(residual.shape, np.nan), where=finite)
    return float(np.max(ratio))


def _max(acc: float, value: float) -> float:
    """The larger of two maxima, NaN once either is NaN (as ``np.max`` over both blocks)."""
    return value if value != value or value > acc else acc


def _products(rows_of, a: int, b: int, d: np.ndarray) -> np.ndarray:
    """<v_k, d> for rows a..b, rounded as the one whole-array product ``v @ d`` would round them.

    ``rows_of`` is a :class:`RowWindow` accessor. Callers split that product
    at multiples of ``_CSV_CHUNK``, which keeps every row in its place among
    BLAS's four-row groups. A one-row piece would go to numpy's dot instead,
    which may round differently, so it is widened by four earlier rows.
    """
    lead = 4 if b - a == 1 and a > 0 else 0
    return (rows_of(a - lead, b) @ d)[lead:]


class _Tail:
    """A verdict fold: the last ``window`` values of a sequence of ``length``, and whether all were finite.

    The window and ``tol`` are checked here, at set-up, as :func:`~fistalab.diagnostics.verdict` checks them.
    """

    def __init__(self, window: int, length: int, tol: float):
        check_tail(window, length, tol)
        self.window = window
        self.tol = tol
        self.values = np.empty(0)
        self.finite = True

    def add(self, values: np.ndarray) -> None:
        self.finite = self.finite and bool(np.isfinite(values).all())
        self.values = np.concatenate((self.values, values))[-self.window :]

    def result(self, claim: str, scale: float = 1.0) -> CheckResult:
        """Tail verdict at tol * scale; a non-finite term anywhere in the sequence, tail or not, fails with NaN."""
        v = tail_verdict(self.values, self.tol * scale)
        oscillation = _worst(v.tail_oscillation if self.finite else math.inf)
        return CheckResult(
            claim=claim,
            passed=oscillation <= v.tol,
            residual_or_oscillation=oscillation,
            window=v.window,
            tol=v.tol,
            details={"limit_estimate": v.limit_estimate},
        )


def _directions(name: str, trace: Trace, dim: int, directions=None, rng=None, count=None) -> list:
    """Probe directions of size ``dim``, at least one: the given ones, else s_i - s_j for every
    pair i < j of s_refs, then standard normal draws from ``rng`` up to ``count``; a zero one
    (to span's rank tolerance) is a ValueError naming check ``name``."""
    if directions is None:
        refs = () if trace.s_refs is None else trace.s_refs
        named = {f"s{i} - s{j}": refs[i] - refs[j] for i in range(len(refs)) for j in range(i + 1, len(refs))}
    else:
        named = {f"d{i}": as_vector(d, dim) for i, d in enumerate(directions)}
    for label, d in named.items():
        norm = float(np.linalg.norm(d))
        if not norm > _RANK_TOL * max(1.0, norm):
            raise ValueError(f"{name}: direction {label} has norm {norm:g}, below the rank tolerance")
    directions = list(named.values())
    while count is not None and len(directions) < count:
        directions.append(rng.standard_normal(dim))
    directions = directions[:count]
    if not directions:
        raise ValueError(f"{name} needs explicit directions or at least two s_refs")
    return directions


class _Fold:
    """One named check as a fold over a run's rows.

    It is built before the first row from the trace (its metadata and its
    not yet filled columns; ``len(trace)`` is the planned row count, at
    least two, so the first block holds rows 0 and 1), the problem, the
    shared ``rng`` (every draw happens here), ``x0`` and the check's
    parameters, if any, as keyword-only arguments. ``update(trace,
    window, lo, hi)`` then sees rows lo..hi, for consecutive blocks of
    ``_CSV_CHUNK`` rows, once the trace's columns for them are filled;
    ``window`` holds their x, y and z rows and row lo - 1 (and the three
    before it, for :func:`_products`' widening of a one-row block).
    ``result()`` gives the results.
    """


# ---- identity checks --------------------------------------------------------


class _Structural(_Fold):
    """Rowwise residuals of the three identities tying x, y, z together."""

    def __init__(self, trace, problem, rng, x0):
        self.zdef = self.recur = self.convex = -math.inf

    def update(self, trace, window, lo, hi):
        t, norm_x = trace.ts, trace.norm_x
        norm_y = _row_norms(window.y(lo, hi))
        zdef_scale = np.maximum(1.0, np.abs(1.0 - t[lo:hi]) * norm_x[lo:hi] + t[lo:hi] * norm_y)
        self.zdef = _max(self.zdef, _worst(trace.res_zdef[lo:hi], zdef_scale))
        p = max(lo, 1)  # rows k >= 1, each with row k - 1
        prev = slice(p - 1, hi - 1)
        recur_res = z_recursion(t[prev], window.x(p - 1, hi), window.z(p, hi))
        recur_scale = np.maximum(1.0, t[prev] * (norm_x[prev] + norm_x[p:hi]) + norm_x[prev])
        self.recur = _max(self.recur, _worst(recur_res, recur_scale))
        convex_scale = np.maximum(1.0, norm_x[prev] + trace.norm_z[p:hi])
        self.convex = _max(self.convex, _worst(trace.res_convex[p:hi], convex_scale))

    def result(self):
        tol = IDENTITY_TOL
        return [
            CheckResult("z-definition", self.zdef <= tol, self.zdef, tol=tol),
            CheckResult("z-recursion", self.recur <= tol, self.recur, tol=tol),
            CheckResult("convex-combination", self.convex <= tol, self.convex, tol=tol),
        ]


class _MomentumIdentity(_Fold):
    """Scalar momentum identity along 3 probe directions (linear in d).

    With h_k = <x_k, d>, the forward transform of h by phi = t - 1 must equal
    <z_k, d> for every k >= 1. The reference pairs come first, then seeded
    standard normal draws up to 3.
    """

    def __init__(self, trace, problem, rng, x0):
        self.directions = _directions("momentum_identity", trace, x0.size, rng=rng, count=3)
        self.worst = [-math.inf] * len(self.directions)
        self.h_last = [None] * len(self.directions)  # h_{lo-1}, the last h of the previous block
        self.sup_x = -math.inf

    def update(self, trace, window, lo, hi):
        self.sup_x = _max(self.sup_x, float(np.max(trace.norm_x[lo:hi])))
        p = max(lo, 1)  # <z_k, d> from k = 1, against h_{k-1} and h_k
        phi = trace.ts[p - 1 : hi - 1] - 1.0
        for i, d in enumerate(self.directions):
            h = _products(window.x, lo, hi, d)
            g = forward_transform(h if lo == 0 else np.concatenate(([self.h_last[i]], h)), phi)
            residual = np.abs(g - _products(window.z, lo, hi, d)[p - lo :])
            self.worst[i] = _max(self.worst[i], float(np.max(residual)))
            self.h_last[i] = h[-1]

    def result(self):
        out = []
        for i, (d, residual) in enumerate(zip(self.directions, self.worst)):
            worst = _worst(residual, np.maximum(1.0, np.linalg.norm(d) * self.sup_x))
            out.append(CheckResult(f"momentum-identity[d{i}]", worst <= IDENTITY_TOL, worst, tol=IDENTITY_TOL))
        return out


# ---- inequality checks ------------------------------------------------------


class _RateBound(_Fold):
    """Objective gap against the accelerated 1/(k+1)^2 guarantee, k >= 1."""

    def __init__(self, trace, problem, rng, x0):
        if trace.delta is None or problem.solution is None:
            raise ValueError("rate_bound needs a problem with known optimal value")
        self.d0 = problem.solution.distance(x0)
        self.surrogate = not problem.solution.exact_distance
        self.excess = -math.inf

    def update(self, trace, window, lo, hi):
        beta, d0 = trace.beta, self.d0
        p = max(lo, 1)
        k = np.arange(p, hi, dtype=float)
        # where a square overflows, the same value in an order that stays
        # finite as long as the value does; an infinite one fails in _worst
        with np.errstate(over="ignore"):
            if lo == 0:
                x = trace.norm_x[0]
                self.slack = IDENTITY_TOL * np.maximum(1.0, beta * x**2)
                if np.isinf(self.slack):
                    self.slack = IDENTITY_TOL * beta * x * x
            if math.isfinite(d0) and (math.isinf(d0 * d0) or math.isinf(2.0 * beta * d0 * d0)):
                bound = 2.0 * beta * (d0 / (k + 1.0)) ** 2 + self.slack
            else:
                bound = 2.0 * beta * d0**2 / (k + 1.0) ** 2 + self.slack
        self.excess = _max(self.excess, _worst(trace.delta[p:hi] - bound))

    def result(self):
        return [
            CheckResult(
                "rate-bound",
                self.excess <= 0.0,
                self.excess,
                tol=IDENTITY_TOL,
                details={"per_s_surrogate": self.surrogate},
            )
        ]


class _XiMonotone(_Fold):
    """Monotone decay, initial bound, and nonnegativity of each xi column."""

    def __init__(self, trace, problem, rng, x0):
        if trace.xi is None:
            raise ValueError("xi_monotone needs xi columns (known optimal value and s_refs)")
        if len(trace) < 3:
            raise ValueError(f"xi_monotone needs at least 3 rows (two steps), got {len(trace)}")
        self.start_bounds = [0.5 * trace.beta * float(np.sum((x0 - s) ** 2)) + 1e-9 for s in trace.s_refs]
        columns = trace.xi.shape[1]
        self.max_inc = [-math.inf] * columns
        self.neg = [-math.inf] * columns  # the largest -xi_k

    def update(self, trace, window, lo, hi):
        p = max(lo, 1)  # xi is defined from k = 1
        if p == 1:
            self.xi1 = [float(v) for v in trace.xi[1]]
        step = max(lo, 2)  # xi_k - xi_{k-1} from k = 2
        for j in range(trace.xi.shape[1]):
            self.max_inc[j] = _max(self.max_inc[j], _worst(np.diff(trace.xi[step - 1 : hi, j])))
            self.neg[j] = _max(self.neg[j], _worst(-trace.xi[p:hi, j]))

    def result(self):
        out = []
        for j, (xi1, start_bound) in enumerate(zip(self.xi1, self.start_bounds)):
            step_tol = 1e-9 * max(1.0, xi1)
            max_inc = self.max_inc[j]
            excess = _worst(xi1 - start_bound)
            min_xi = -self.neg[j]
            out.append(CheckResult(f"xi-monotone[s{j}]", max_inc <= step_tol, max_inc, tol=step_tol))
            out.append(
                CheckResult(
                    f"xi-initial-bound[s{j}]",
                    excess <= 0.0,
                    excess,
                    tol=1e-9,
                    details={"xi1": xi1, "bound": start_bound},
                )
            )
            out.append(CheckResult(f"xi-nonnegative[s{j}]", min_xi >= -1e-10, min_xi, tol=1e-10))
        return out


def _spaced_steps(rows: int, count: int) -> np.ndarray:
    """min(count, rows - 1) evenly spaced steps over 0..rows - 2, increasing.

    The linspace step (rows - 2) / (count - 1) is at least one, so the
    truncated steps never repeat and need no np.unique (which imports
    numpy.ma).
    """
    return np.linspace(0, rows - 2, min(count, rows - 1)).astype(int)


class _SufficientDecrease(_Fold):
    """Per-step decrease inequality against random feasible probe points.

    Probes are generated through the prox map, which lands them in the
    domain of g. A probe that is not finite or whose objective value is
    not finite (+inf, or NaN where f overflows) is skipped; with no usable
    probe left, or a non-finite slack, the reported value is NaN and the
    check fails. It draws 20 probes and
    checks min(100, rows - 1) evenly spaced steps k, at least one apart;
    only their rows are kept.
    """

    def __init__(self, trace, problem, rng, x0):
        self.beta = trace.beta
        self.ks = _spaced_steps(len(trace), 100)
        step = 1.0 / self.beta
        spread = max(1.0, float(np.linalg.norm(x0)))
        self.probes = []
        for _ in range(20):
            probe = np.asarray(problem.g.prox(x0 + spread * rng.standard_normal(problem.dim), step), dtype=float)
            if not np.isfinite(probe).all():
                continue
            F_probe = float(_objective_rows(problem, as_vector(probe, problem.dim)[None, :], strict=False)[0])
            if not np.isfinite(F_probe):
                continue  # prox should land in dom g; stay safe regardless
            self.probes.append((probe, F_probe))
        self.x_next, self.y_at, self.F_next = [], [], []

    def update(self, trace, window, lo, hi):
        at = self.ks[(self.ks >= lo) & (self.ks < hi)]
        self.y_at.append(window.y(lo, hi)[at - lo])
        after = self.ks[(self.ks + 1 >= lo) & (self.ks + 1 < hi)] + 1
        self.x_next.append(window.x(lo, hi)[after - lo])
        self.F_next.append(trace.F_x[after])

    def result(self):
        x_next, y_at, F_next = (np.concatenate(rows) for rows in (self.x_next, self.y_at, self.F_next))
        worst_per_probe = []
        for probe, F_probe in self.probes:
            d_next = np.sum((probe - x_next) ** 2, axis=1)
            d_y = np.sum((probe - y_at) ** 2, axis=1)
            slack = F_probe - F_next - 0.5 * self.beta * (d_next - d_y)
            worst_per_probe.append(np.min(slack))
        worst = -_worst(-np.array(worst_per_probe)) if worst_per_probe else math.nan
        return [CheckResult("sufficient-decrease", worst >= -IDENTITY_TOL, worst, tol=IDENTITY_TOL)]


class _GapDecay(_Fold):
    """Extrapolation gap bounded by (||z|| + ||x||) / t and decaying."""

    def __init__(self, trace, problem, rng, x0):
        self.rows = len(trace)
        self.decile = self.rows // 10
        self.excess = self.first = self.last = -math.inf

    def update(self, trace, window, lo, hi):
        bound = (trace.norm_z[lo:hi] + trace.norm_x[lo:hi]) / trace.ts[lo:hi]
        self.excess = _max(self.excess, _worst(trace.gap_xy[lo:hi] - bound, np.maximum(1.0, bound)))
        if lo < self.decile:
            self.first = _max(self.first, float(np.max(trace.gap_xy[lo : min(hi, self.decile)])))
        if hi > self.rows - self.decile:
            self.last = _max(self.last, float(np.max(trace.gap_xy[max(lo, self.rows - self.decile) : hi])))

    def result(self):
        out = [CheckResult("gap-bound", self.excess <= IDENTITY_TOL, self.excess, tol=IDENTITY_TOL)]
        if self.rows >= 50:
            first, last = self.first, self.last
            out.append(
                CheckResult(
                    "gap-decay",
                    last <= first,
                    last - first,
                    details={"first_decile_max": first, "last_decile_max": last},
                )
            )
        return out


class _BoundedIterates(_Fold):
    """sup ||x_k|| within max(||x_0||, sup ||z_k||), the convex-combination bound."""

    def __init__(self, trace, problem, rng, x0):
        self.sup_x = self.sup_z = -math.inf

    def update(self, trace, window, lo, hi):
        if lo == 0:
            self.norm_x0 = float(trace.norm_x[0])
        self.sup_x = _max(self.sup_x, float(np.max(trace.norm_x[lo:hi])))
        self.sup_z = _max(self.sup_z, float(np.max(trace.norm_z[lo:hi])))

    def result(self):
        cap = _max(self.norm_x0, self.sup_z) + 1e-8
        excess = _worst(self.sup_x - cap)
        return [
            CheckResult(
                "bounded-iterates", excess <= 0.0, excess, details={"sup_x": self.sup_x, "cap": cap}
            )
        ]


# ---- convergence-proxy checks ----------------------------------------------


class _ClusterProducts(_Fold):
    """Verdicts on <x_k, d> for each probe direction d, by default w1 - w2 for every pair of reference solutions."""

    name, claim = "cluster_products", "cluster-product[d{}]"

    def __init__(self, trace, problem, rng, x0, *, window=100, tol=1e-6, directions=None):
        self.directions = _directions(self.name, trace, x0.size, directions)
        self.tails = [_Tail(window, len(trace), float(tol)) for _ in self.directions]

    def update(self, trace, window, lo, hi):
        for d, tail in zip(self.directions, self.tails):
            tail.add(_products(window.x, lo, hi, d))

    def result(self):
        return [tail.result(self.claim.format(i)) for i, tail in enumerate(self.tails)]


class _XiDifference(_Fold):
    """Verdicts on xi(s_i) - xi(s_j) from k = 1; the gap terms cancel pairwise."""

    def __init__(self, trace, problem, rng, x0, *, window=100, tol=1e-6):
        if trace.xi is None or trace.xi.shape[1] < 2:
            raise ValueError("xi_difference needs at least two xi columns")
        _directions("xi_difference", trace, x0.size)  # refuses a repeated reference point
        m = trace.xi.shape[1]
        self.pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        self.tails = [_Tail(window, len(trace) - 1, float(tol)) for _ in self.pairs]

    def update(self, trace, window, lo, hi):
        p = max(lo, 1)
        if p == 1:
            self.xi1 = trace.xi[1].copy()
        for (i, j), tail in zip(self.pairs, self.tails):
            tail.add(trace.xi[p:hi, i] - trace.xi[p:hi, j])

    def result(self):
        out = []
        for (i, j), tail in zip(self.pairs, self.tails):
            scale = max(1.0, abs(float(self.xi1[i])), abs(float(self.xi1[j])))
            out.append(tail.result(f"xi-difference[s{i},s{j}]", scale))
        return out


class _Span(_ClusterProducts):
    """Projection onto span of probe directions: projector laws, then cluster-product verdicts on its basis."""

    name, claim = "span", "span-coefficient[{}]"

    def __init__(self, trace, problem, rng, x0, *, window=100, tol=1e-6, directions=None):
        basis = orthonormal_span_basis(_directions(self.name, trace, x0.size, directions))
        proj = basis.T @ basis
        idem = 0.0
        adj = 0.0
        for _ in range(8):
            u = rng.standard_normal(x0.size)
            v = rng.standard_normal(x0.size)
            pu = proj @ u
            idem = max(idem, float(np.linalg.norm(proj @ pu - pu)))
            adj = max(adj, abs(float(pu @ v - u @ (proj @ v))))
        self.laws = [
            CheckResult("span-idempotent", idem <= 1e-10, idem, tol=1e-10),
            CheckResult("span-self-adjoint", adj <= 1e-10, adj, tol=1e-10),
        ]
        super().__init__(trace, problem, rng, x0, window=window, tol=tol, directions=basis)

    def result(self):
        return self.laws + super().result()


class _FinalPoint(_Fold):
    """Terminal iterate within tol of a configured target point."""

    def __init__(self, trace, problem, rng, x0, *, target, tol):
        self.target = as_vector(target, x0.size)
        self.tol = float(tol)

    def update(self, trace, window, lo, hi):
        if hi == len(trace):
            self.final = window.x(hi - 1, hi)[0].copy()

    def result(self):
        dist = float(np.linalg.norm(self.final - self.target))
        return [
            CheckResult(
                "final-point",
                dist <= self.tol,
                dist,
                tol=self.tol,
                details={"final": self.final.tolist(), "target": self.target.tolist()},
            )
        ]


_FOLDS: dict[str, type] = {
    "structural": _Structural,
    "momentum_identity": _MomentumIdentity,
    "rate_bound": _RateBound,
    "xi_monotone": _XiMonotone,
    "sufficient_decrease": _SufficientDecrease,
    "gap_decay": _GapDecay,
    "bounded_iterates": _BoundedIterates,
    "cluster_products": _ClusterProducts,
    "xi_difference": _XiDifference,
    "span": _Span,
    "final_point": _FinalPoint,
}


def _errstate():
    # a non-finite residual, scale or bound fails its check with NaN, so
    # numpy's overflow and invalid-value warnings are noise
    return np.errstate(over="ignore", invalid="ignore")


def _analysis(name: str) -> Callable:
    def analysis(trace: Trace, problem: CompositeProblem, params: dict, rng) -> list:
        return AnalysisStream(problem, [{**params, "name": name}], rng).fold(trace)

    analysis.__doc__ = _FOLDS[name].__doc__
    return analysis


# name -> check(trace, problem, params, rng) -> [CheckResult]: the fold over a
# stored trace, in the blocks a run folds it in
ANALYSES: dict[str, Callable] = {name: _analysis(name) for name in _FOLDS}


def _real(value) -> bool:
    """Whether ``value`` is a real number (not a bool), or a list, tuple or array of them."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(map(_real, value))
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _entries(analyses) -> list:
    """(name, params) of each analysis entry: a name, or a {'name': ..., params} dict.

    A malformed entry, an unknown name or a parameter value that is not a
    real number or a list of them is a ValueError.
    """
    out = []
    for entry in analyses:
        if isinstance(entry, str):
            name, params = entry, {}
        elif isinstance(entry, dict) and "name" in entry:
            params = dict(entry)
            name = params.pop("name")
        else:
            raise ValueError(f"bad analysis entry {entry!r}")
        if not isinstance(name, str) or name not in _FOLDS:
            raise ValueError(f"unknown analysis {name!r}; known: {sorted(_FOLDS)}")
        for key, value in params.items():
            if not _real(value):
                msg = f"{key!r} is {value!r}, not a real number or a list of them"
                raise ValueError(f"bad parameters for analysis {name!r}: {msg}")
        out.append((name, params))
    return out


class AnalysisStream:
    """Named analyses folded over a run's rows as a runner builds them, or over a stored trace.

    Pass one to a runner (``analyses=``). The runner calls :meth:`start`
    once before the first row, which sets up every check in order, so every
    draw from ``rng`` happens there, and :meth:`update` once per
    ``_CSV_CHUNK`` rows, except over the chunk where the run aborts. After
    a run that did not abort, :meth:`results` gives what :meth:`fold` gives
    on the full trace. A bad entry is a ValueError here (see
    :func:`_entries`), and so are a trace of fewer than two rows and an
    unknown or missing parameter in :meth:`start`, before the first row.
    """

    def __init__(self, problem: CompositeProblem, analyses, rng):
        self.problem = problem
        self.entries = _entries(analyses)
        self.rng = rng
        self._folds = []

    def start(self, trace: Trace, x0: np.ndarray) -> None:
        if len(trace) < 2:
            raise ValueError(f"checks need a trace of at least 2 rows, got {len(trace)}")
        self._folds = []
        with _errstate():
            for name, params in self.entries:
                try:
                    self._folds.append(_FOLDS[name](trace, self.problem, self.rng, x0, **params))
                except TypeError as exc:
                    raise ValueError(f"bad parameters for analysis {name!r}: {exc}") from exc

    def update(self, trace: Trace, window: RowWindow, lo: int, hi: int) -> None:
        with _errstate():
            for fold in self._folds:
                fold.update(trace, window, lo, hi)

    def results(self) -> list:
        with _errstate():
            return [r for fold in self._folds for r in fold.result()]

    def fold(self, trace: Trace) -> list:
        """The results over a stored trace, in the blocks a run folds; MissingSnapshotError without every row's x, y and z."""
        trace.require_vectors()
        window = RowWindow(trace.xs, trace.ys, trace.zs)
        self.start(trace, trace.xs[0])
        for lo in range(0, len(trace), _CSV_CHUNK):
            self.update(trace, window, lo, min(lo + _CSV_CHUNK, len(trace)))
        return self.results()
