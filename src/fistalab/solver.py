"""Proximal gradient operator, plain and accelerated runs, and their traces.

A run records, for every iteration k: the step parameter t_k, the main
iterate x_k, the extrapolation point y_k, the auxiliary point
z_k = (1 - t_k) x_k + t_k y_k, the objective value F(x_k), the optimality
gap delta_k = F(x_k) - mu when the optimal value mu is known, and for each
supplied minimizer s the quantity

    xi_k(s) = t_{k-1}^2 delta_k + (beta / 2) ||z_k - s||^2   (k >= 1),

which is nonincreasing along the accelerated iteration. Residual columns
monitor, row by row, the algebraic identities tying the three vector
sequences together and the per-step sufficient-decrease inequality.

There is one iteration core. FISTA runs it with a certified schedule, PGM
with t_k = 1 for every k, and Nesterov's accelerated gradient is FISTA
with g = 0; the loop and :func:`t_operator` share one proximal gradient
step. The core aborts with :class:`NonFiniteIterateError` at the first
non-finite extrapolation point y_{k+1} (a non-finite x_{k+1} always makes
y_{k+1} non-finite too). It checks finiteness once per block of
``_BLOCK`` rows, so at most ``_BLOCK - 1`` steps past that row are
computed, on non-finite input, and discarded; one of them raising still
reports that row.

Traces are columnar (one array per column) and immutable once produced.
CSV export uses 17 significant digits and a fixed header, so rerunning a
configuration reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .problem import CompositeProblem, Vector, _objective_rows, as_vector
from .schedule import Schedule

__all__ = [
    "Trace",
    "NonFiniteIterateError",
    "MissingSnapshotError",
    "t_operator",
    "pgm_run",
    "fista_run",
    "nesterov_run",
]


_CSV_CHUNK = 4096
_BLOCK = 1024


def finite_only(value, nonfinite: dict, path: str = ""):
    """Copy of ``value`` with non-finite floats as None, their tags in ``nonfinite``.

    A tag maps the float's path (``"details.sup_x"``, ``"snapshots.1.x[0]"``)
    to ``"nan"``, ``"inf"`` or ``"-inf"``; :func:`restore_nonfinite` inverts it.
    """
    if isinstance(value, float) and not math.isfinite(value):
        nonfinite[path] = "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        return None
    if isinstance(value, dict):
        return {k: finite_only(v, nonfinite, f"{path}.{k}" if path else k) for k, v in value.items()}
    if isinstance(value, list):
        return [finite_only(v, nonfinite, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def restore_nonfinite(value, nonfinite: dict, path: str = ""):
    """Copy of ``value`` with each tagged None put back as its float."""
    if value is None and path in nonfinite:
        return float(nonfinite[path])
    if isinstance(value, dict):
        return {k: restore_nonfinite(v, nonfinite, f"{path}.{k}" if path else k) for k, v in value.items()}
    if isinstance(value, list):
        return [restore_nonfinite(v, nonfinite, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def strict_json(payload: dict) -> str:
    """Artifact text: strict JSON, non-finite floats as null tagged under "nonfinite"."""
    nonfinite = {}
    tagged = finite_only(payload, nonfinite)
    if nonfinite:
        tagged["nonfinite"] = nonfinite
    return json.dumps(tagged, sort_keys=True, indent=1, allow_nan=False)


class NonFiniteIterateError(RuntimeError):
    """An iteration produced a non-finite point.

    The partial trace, including the offending row, is attached for
    diagnosis.
    """

    def __init__(self, row: int, trace: "Trace"):
        super().__init__(f"non-finite iterate at row {row}")
        self.row = row
        self.trace = trace


class MissingSnapshotError(RuntimeError):
    """A diagnostic needs per-row vectors that this trace does not carry.

    Rerun or resave the originating configuration with snapshot_every = 1.
    """


@dataclass(eq=False)
class Trace:
    """Columnar record of a solver run plus run-level metadata.

    ``xi`` has one column per entry of ``s_refs`` and a NaN leading row
    (the quantity is defined from k = 1). ``res_convex`` and
    ``res_suffdec`` also lead with NaN since they relate consecutive rows;
    ``res_suffdec`` is NaN wherever the earlier objective value was +inf,
    so inequalities involving an infeasible starting point are skipped
    rather than fabricated.
    """

    kind: str
    problem_id: str
    schedule_id: str
    beta: float
    mu: Optional[float]
    ts: np.ndarray
    F_x: np.ndarray
    res_zdef: np.ndarray
    res_convex: np.ndarray
    res_suffdec: np.ndarray
    gap_xy: np.ndarray
    norm_x: np.ndarray
    norm_z: np.ndarray
    delta: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None
    s_refs: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    zs: Optional[np.ndarray] = None
    snapshot_every: int = 1

    def __len__(self) -> int:
        return int(self.ts.size)

    @property
    def has_full_vectors(self) -> bool:
        return self.xs is not None and self.ys is not None and self.zs is not None

    def require_vectors(self) -> None:
        if not self.has_full_vectors:
            raise MissingSnapshotError(
                "trace has no per-row vectors; rerun with snapshot_every=1"
            )

    def z_recursion_residuals(self) -> np.ndarray:
        """Per-row residual of z_k = (1 - t_{k-1}) x_{k-1} + t_{k-1} x_k (NaN at 0)."""
        self.require_vectors()
        out = np.full(len(self), np.nan)
        t_prev = self.ts[:-1, None]
        predicted = (1.0 - t_prev) * self.xs[:-1] + t_prev * self.xs[1:]
        out[1:] = np.linalg.norm(self.zs[1:] - predicted, axis=1)
        return out

    # ---- export -----------------------------------------------------------

    def _csv_header(self) -> list:
        cols = ["k", "t", "Fx"]
        if self.delta is not None:
            cols.append("delta")
        if self.xi is not None:
            cols.extend(f"xi_s{j}" for j in range(self.xi.shape[1]))
        cols.extend(["res_zdef", "res_convex", "res_suffdec", "gap_xy", "norm_x", "norm_z"])
        return cols

    def to_csv(self, path) -> Path:
        """Write the scalar columns with fixed 17-significant-digit formatting.

        Rows are written ``_CSV_CHUNK`` at a time straight into the open
        file. The ``k`` column is the row number, formatted by ``%d``.
        Converged float columns repeat their values, so within a chunk each
        distinct float (by bit pattern, which keeps -0.0 apart from 0.0) is
        formatted once with ``%.17g``, and one pass of the row format
        places the row numbers and texts into rows.
        """
        path = Path(path)
        columns = [self.ts, self.F_x]
        if self.delta is not None:
            columns.append(self.delta)
        if self.xi is not None:
            columns.append(self.xi)
        columns.extend(
            [self.res_zdef, self.res_convex, self.res_suffdec, self.gap_xy, self.norm_x, self.norm_z]
        )
        table = np.column_stack(columns)
        row_format = "%d," + ",".join(["%s"] * table.shape[1]) + "\n"
        with path.open("w") as out:
            out.write(",".join(self._csv_header()) + "\n")
            for start in range(0, len(table), _CSV_CHUNK):
                chunk = table[start : start + _CSV_CHUNK]
                bits, where = np.unique(chunk.view(np.int64), return_inverse=True)
                text = ("%.17g\n" * len(bits)) % tuple(bits.view(float).tolist())
                texts = np.array(text.split("\n")[:-1], dtype=object)
                cells = np.empty((len(chunk), table.shape[1] + 1), dtype=object)
                cells[:, 0] = range(start, start + len(chunk))
                cells[:, 1:] = texts[where.reshape(chunk.shape)]
                out.write((row_format * len(chunk)) % tuple(cells.ravel().tolist()))
        return path

    def snapshot_payload(self) -> dict:
        """Metadata plus vector snapshots every ``snapshot_every`` rows.

        The final row is always included so the terminal iterate survives a
        sparse export.
        """
        self.require_vectors()
        rows = sorted(set(range(0, len(self), self.snapshot_every)) | {len(self) - 1})
        snapshots = {
            str(k): {"x": self.xs[k].tolist(), "y": self.ys[k].tolist(), "z": self.zs[k].tolist()}
            for k in rows
        }
        return {
            "kind": self.kind,
            "problem": self.problem_id,
            "schedule": self.schedule_id,
            "beta": self.beta,
            "mu": self.mu,
            "s_refs": None if self.s_refs is None else self.s_refs.tolist(),
            "rows": len(self),
            "snapshot_every": self.snapshot_every,
            "snapshots": snapshots,
        }

    def save(self, outdir) -> dict:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = self.to_csv(outdir / "trace.csv")
        json_path = outdir / "snapshots.json"
        json_path.write_text(strict_json(self.snapshot_payload()))
        return {"trace": csv_path, "snapshots": json_path}

    @classmethod
    def load(cls, outdir) -> "Trace":
        """Rebuild a trace from ``save`` artifacts.

        Vector columns are restored only when the snapshots cover every row;
        otherwise the trace is vector-free and vector-hungry diagnostics
        raise :class:`MissingSnapshotError`.
        """
        outdir = Path(outdir)
        meta = json.loads((outdir / "snapshots.json").read_text())
        if "nonfinite" in meta:
            meta = restore_nonfinite(meta, meta.pop("nonfinite"))
        csv_path = outdir / "trace.csv"
        with csv_path.open() as fh:
            header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        col = {name: data[:, i] for i, name in enumerate(header)}
        rows = int(meta["rows"])

        xi_names = [name for name in header if name.startswith("xi_s")]
        xi = np.column_stack([col[name] for name in xi_names]) if xi_names else None
        xs = ys = zs = None
        if len(meta["snapshots"]) == rows:
            order = sorted(meta["snapshots"], key=int)
            xs = np.array([meta["snapshots"][k]["x"] for k in order])
            ys = np.array([meta["snapshots"][k]["y"] for k in order])
            zs = np.array([meta["snapshots"][k]["z"] for k in order])
        return cls(
            kind=meta["kind"],
            problem_id=meta["problem"],
            schedule_id=meta["schedule"],
            beta=float(meta["beta"]),
            mu=None if meta["mu"] is None else float(meta["mu"]),
            ts=col["t"],
            F_x=col["Fx"],
            delta=col.get("delta"),
            xi=xi,
            s_refs=None if meta["s_refs"] is None else np.asarray(meta["s_refs"], dtype=float),
            res_zdef=col["res_zdef"],
            res_convex=col["res_convex"],
            res_suffdec=col["res_suffdec"],
            gap_xy=col["gap_xy"],
            norm_x=col["norm_x"],
            norm_z=col["norm_z"],
            xs=xs,
            ys=ys,
            zs=zs,
            snapshot_every=int(meta["snapshot_every"]),
        )


def _step_map(problem: CompositeProblem):
    """y -> prox of g after an explicit gradient step, both with step 1/beta.

    The returned map does not check its input; callers validate once.
    """
    step = 1.0 / problem.f.beta
    grad = problem.f.gradient
    prox = problem.g.prox

    def step_map(y: Vector) -> Vector:
        return np.asarray(prox(y - step * grad(y), step), dtype=float)

    return step_map


def t_operator(problem: CompositeProblem, y) -> Vector:
    """One proximal gradient step: prox of g after an explicit gradient step.

    Uses the canonical step 1/beta for both the gradient move and the prox.
    """
    return _step_map(problem)(as_vector(y, problem.dim))


def _first_nonfinite_row(ys: np.ndarray, lo: int, hi: int) -> Optional[int]:
    """The first row in ys[lo+1:hi+1] that is not finite, or None."""
    finite = np.isfinite(ys[lo + 1 : hi + 1]).all(axis=1)
    if finite.all():
        return None
    return lo + 1 + int(np.argmin(finite))


def _iterate(problem: CompositeProblem, x0: Vector, ts: np.ndarray):
    """Run the two-sequence recursion; returns (xs, ys, bad_row_or_None).

    The bad row is the first k + 1 whose y_{k+1} is not finite; it is kept.
    The y rows are checked once per block of ``_BLOCK`` rows, so up to
    ``_BLOCK - 1`` steps past the bad row are computed and discarded. A
    step that raises after a non-finite row of its block reports that row
    instead.
    """
    steps = ts.size - 1
    xs = np.empty((steps + 1, x0.size))
    ys = np.empty((steps + 1, x0.size))
    xs[0] = x0
    ys[0] = x0
    x = x0
    y = x0
    step_map = _step_map(problem)
    momentum = ((ts[:-1] - 1.0) / ts[1:]).tolist()
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        try:
            for k in range(lo, hi):
                x_next = step_map(y)
                y = x_next + momentum[k] * (x_next - x)
                x = x_next
                xs[k + 1] = x
                ys[k + 1] = y
        except Exception:
            bad_row = _first_nonfinite_row(ys, lo, k)
            if bad_row is None:
                raise
        else:
            bad_row = _first_nonfinite_row(ys, lo, hi)
        if bad_row is not None:
            return xs[: bad_row + 1], ys[: bad_row + 1], bad_row
    return xs, ys, None


def _validate_s_refs(problem: CompositeProblem, s_refs) -> Optional[np.ndarray]:
    if s_refs is None or len(s_refs) == 0:
        return None
    refs = np.array([as_vector(s, problem.dim) for s in s_refs])
    sol = problem.solution
    if sol is not None:
        for s, excess in zip(refs, _objective_rows(problem, refs) - sol.mu):
            if not excess <= 1e-6 * max(1.0, abs(sol.mu)):
                raise ValueError(
                    f"reference point {s.tolist()} is not a minimizer "
                    f"(objective excess {excess:g})"
                )
    return refs


def _build_trace(
    problem: CompositeProblem,
    ts: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    kind: str,
    schedule_id: str,
    s_refs: Optional[np.ndarray],
    snapshot_every: int,
) -> Trace:
    rows = xs.shape[0]
    ts = ts[:rows]
    beta = problem.f.beta
    zs = (1.0 - ts)[:, None] * xs + ts[:, None] * ys

    F_x = np.full(rows, np.nan)  # an aborted row stays NaN
    finite = np.isfinite(xs).all(axis=1)
    F_x[finite] = _objective_rows(problem, xs[finite])

    sol = problem.solution
    mu = None if sol is None else sol.mu
    delta = F_x - mu if mu is not None else None

    xi = None
    if mu is not None and s_refs is not None and rows > 1:
        xi = np.full((rows, s_refs.shape[0]), np.nan)
        t_prev_sq = ts[:-1] ** 2
        for j, s in enumerate(s_refs):
            xi[1:, j] = t_prev_sq * delta[1:] + 0.5 * beta * np.sum((zs[1:] - s) ** 2, axis=1)

    # z definition recomputed through a different grouping of the same
    # affine combination; nonzero residual is pure floating-point noise.
    regrouped = xs + ts[:, None] * (ys - xs)
    res_zdef = np.linalg.norm(zs - regrouped, axis=1)

    res_convex = np.full(rows, np.nan)
    if rows > 1:
        t_prev = ts[:-1, None]
        combo = (1.0 - 1.0 / t_prev) * xs[:-1] + zs[1:] / t_prev
        res_convex[1:] = np.linalg.norm(xs[1:] - combo, axis=1)

    res_suffdec = np.full(rows, np.nan)
    if rows > 1:
        dx = np.linalg.norm(xs[1:] - xs[:-1], axis=1)
        dy = np.linalg.norm(xs[:-1] - ys[:-1], axis=1)
        prev_F = F_x[:-1]
        slack = prev_F - F_x[1:] - 0.5 * beta * (dx**2 - dy**2)
        slack[~np.isfinite(prev_F)] = np.nan
        res_suffdec[1:] = slack

    return Trace(
        kind=kind,
        problem_id=problem.problem_id,
        schedule_id=schedule_id,
        beta=beta,
        mu=mu,
        ts=ts,
        F_x=F_x,
        delta=delta,
        xi=xi,
        s_refs=s_refs,
        res_zdef=res_zdef,
        res_convex=res_convex,
        res_suffdec=res_suffdec,
        gap_xy=np.linalg.norm(ys - xs, axis=1),
        norm_x=np.linalg.norm(xs, axis=1),
        norm_z=np.linalg.norm(zs, axis=1),
        xs=xs,
        ys=ys,
        zs=zs,
        snapshot_every=snapshot_every,
    )


def _coerce_schedule(schedule) -> Schedule:
    if isinstance(schedule, Schedule):
        return schedule
    if isinstance(schedule, str):
        return Schedule(rule=schedule)
    return Schedule(rule="explicit", values=schedule)


def _run(
    problem: CompositeProblem,
    x0,
    iterations: int,
    ts: np.ndarray,
    kind: str,
    schedule_id: str,
    s_refs: Sequence,
    snapshot_every: int,
) -> Trace:
    """The one iteration core behind every public runner."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    x0 = as_vector(x0, problem.dim)
    refs = _validate_s_refs(problem, s_refs)
    # a non-finite value ends the run as NonFiniteIterateError and stays in
    # the trace, so numpy's overflow and invalid-value warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys, bad_row = _iterate(problem, x0, ts)
        trace = _build_trace(problem, ts, xs, ys, kind, schedule_id, refs, snapshot_every)
    if bad_row is not None:
        raise NonFiniteIterateError(bad_row, trace)
    return trace


def fista_run(
    problem: CompositeProblem,
    x0,
    schedule,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
) -> Trace:
    """Accelerated proximal gradient run with a full diagnostic trace.

    The schedule (a :class:`Schedule`, a rule name, or an explicit value
    sequence) is certified over 0..iterations before the first step; the
    extrapolation point starts at x0. Reference points in ``s_refs`` must
    be minimizers when the optimal value is known; each contributes an xi
    column to the trace. A non-finite iterate aborts the run with
    :class:`NonFiniteIterateError`, the offending row retained in the
    attached partial trace.
    """
    sched = _coerce_schedule(schedule)
    ts = sched.prefix(iterations)  # raises ScheduleError before any iteration
    return _run(problem, x0, iterations, ts, "fista", sched.label, s_refs, snapshot_every)


def pgm_run(
    problem: CompositeProblem,
    x0,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
) -> Trace:
    """Plain proximal gradient run: x_{k+1} = T(x_k), recorded like a trace.

    Stored with t_k = 1 for every row, which makes the extrapolation point
    coincide with the iterate and keeps all structural identities valid.
    """
    ts = np.ones(iterations + 1)
    return _run(problem, x0, iterations, ts, "pgm", "constant-1", s_refs, snapshot_every)


def _require_zero_g(problem: CompositeProblem, x0: Vector) -> None:
    step = 1.0 / problem.f.beta
    probes = [x0, np.zeros(problem.dim), np.ones(problem.dim) * max(1.0, float(np.abs(x0).max()))]
    for p in probes:
        if problem.g.value(p) != 0.0:
            raise ValueError("nesterov_run requires g identically zero (nonzero value found)")
        moved = np.linalg.norm(np.asarray(problem.g.prox(p, step), dtype=float) - p)
        if moved > 1e-12 * max(1.0, float(np.linalg.norm(p))):
            raise ValueError("nesterov_run requires g identically zero (prox moved a probe)")


def nesterov_run(
    problem: CompositeProblem,
    x0,
    schedule,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
) -> Trace:
    """Accelerated gradient descent: the g = 0 special case, by its own name.

    Probes g at a few points and rejects problems whose nonsmooth part is
    not identically zero; otherwise identical to :func:`fista_run`.
    """
    x0 = as_vector(x0, problem.dim)
    _require_zero_g(problem, x0)
    sched = _coerce_schedule(schedule)
    ts = sched.prefix(iterations)
    return _run(problem, x0, iterations, ts, "nesterov", sched.label, s_refs, snapshot_every)
