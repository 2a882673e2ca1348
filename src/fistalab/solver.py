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

The derived columns are built ``_CSV_CHUNK`` rows at a time, as soon as
the finiteness check has cleared those rows, into preallocated arrays.
Given a :class:`~fistalab._sink.CsvSink`, each chunk also goes to a
forked writer process that formats it beside the loop. ``fistalab run``
passes one where a second CPU is usable; without one, the CSV is
formatted after the run by :meth:`Trace.to_csv`. The writer's rows go to
a temporary file that is renamed onto ``trace.csv`` only once the run is
committed, and :meth:`Trace.save` writes its files the same way, so a
crash never leaves a half-written artifact.

Traces are columnar (one array per column) and immutable once produced.
CSV export uses 17 significant digits and a fixed header, so rerunning a
configuration reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .problem import CompositeProblem, Vector, _objective_rows, as_vector
from .schedule import Schedule

if TYPE_CHECKING:
    from ._sink import CsvSink

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


def _temp_path(path: Path) -> Path:
    """A name beside ``path`` that no other process writes: it carries this pid."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def write_atomically(path, write) -> Path:
    """Call ``write(temp)`` on a temporary name beside ``path``, then rename it onto ``path``.

    On failure the temporary file is removed, so ``path`` holds either its
    old content or the complete new one, never a partial file.
    """
    path = Path(path)
    tmp = _temp_path(path)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _csv_chunk(table: np.ndarray, start: int) -> str:
    """CSV text of the float rows ``table``, numbered from ``start``.

    The ``k`` column is the row number, formatted by ``%d``. Converged float
    columns repeat their values, so each distinct float of the chunk (by bit
    pattern, which keeps -0.0 apart from 0.0) is formatted once with
    ``%.17g``, and one pass of the row format places the row numbers and
    texts into rows.
    """
    bits, where = np.unique(table.view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits)) % tuple(bits.view(float).tolist())
    texts = np.array(text.split("\n")[:-1], dtype=object)
    cells = np.empty((len(table), table.shape[1] + 1), dtype=object)
    cells[:, 0] = range(start, start + len(table))
    cells[:, 1:] = texts[where.reshape(table.shape)]
    row_format = "%d," + ",".join(["%s"] * table.shape[1]) + "\n"
    return (row_format * len(table)) % tuple(cells.ravel().tolist())


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

    def _csv_table(self, lo: int, hi: int) -> np.ndarray:
        """The float columns of CSV rows lo..hi as one (rows, columns) array."""
        columns = [self.ts[lo:hi], self.F_x[lo:hi]]
        if self.delta is not None:
            columns.append(self.delta[lo:hi])
        if self.xi is not None:
            columns.append(self.xi[lo:hi])
        columns.extend(
            column[lo:hi]
            for column in (self.res_zdef, self.res_convex, self.res_suffdec, self.gap_xy, self.norm_x, self.norm_z)
        )
        return np.column_stack(columns)

    def to_csv(self, path) -> Path:
        """Write the scalar columns with fixed 17-significant-digit formatting.

        Rows are formatted ``_CSV_CHUNK`` at a time by the formatter that a
        :class:`~fistalab._sink.CsvSink` uses too, and written straight into
        the open file.
        """
        path = Path(path)
        with path.open("w") as out:
            out.write(",".join(self._csv_header()) + "\n")
            for start in range(0, len(self), _CSV_CHUNK):
                out.write(_csv_chunk(self._csv_table(start, start + _CSV_CHUNK), start))
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
        """Write trace.csv and snapshots.json into ``outdir``, each by temp name and rename."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / "trace.csv"
        write_atomically(csv_path, self.to_csv)
        json_path = write_atomically(
            outdir / "snapshots.json", lambda tmp: tmp.write_text(strict_json(self.snapshot_payload()))
        )
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


def _iterate(problem: CompositeProblem, x0: Vector, ts: np.ndarray, xs, ys, cleared) -> Optional[int]:
    """Run the two-sequence recursion into ``xs`` and ``ys``; returns the bad row or None.

    The bad row is the first k + 1 whose y_{k+1} is not finite. The y rows
    are checked once per block of ``_BLOCK`` rows, so up to ``_BLOCK - 1``
    steps past the bad row are computed and discarded. A step that raises
    after a non-finite row of its block reports that row instead. After
    each block found finite, ``cleared(rows)`` is called with the number of
    leading rows now known to be finite.
    """
    steps = ts.size - 1
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
            return bad_row
        cleared(hi + 1)
    return None


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


def _empty_trace(
    problem: CompositeProblem,
    ts: np.ndarray,
    dim: int,
    kind: str,
    schedule_id: str,
    s_refs: Optional[np.ndarray],
    snapshot_every: int,
) -> Trace:
    """A trace with every column allocated for ``ts.size`` rows and not yet filled."""
    rows = ts.size
    sol = problem.solution
    mu = None if sol is None else sol.mu
    columns = ("F_x", "res_zdef", "res_convex", "res_suffdec", "gap_xy", "norm_x", "norm_z")
    return Trace(
        kind=kind,
        problem_id=problem.problem_id,
        schedule_id=schedule_id,
        beta=problem.f.beta,
        mu=mu,
        ts=ts,
        delta=None if mu is None else np.empty(rows),
        xi=None if mu is None or s_refs is None else np.empty((rows, s_refs.shape[0])),
        s_refs=s_refs,
        xs=np.empty((rows, dim)),
        ys=np.empty((rows, dim)),
        zs=np.empty((rows, dim)),
        snapshot_every=snapshot_every,
        **{name: np.empty(rows) for name in columns},
    )


def _fill_rows(trace: Trace, problem: CompositeProblem, lo: int, hi: int) -> None:
    """Compute the derived columns of rows lo..hi in place from ``xs`` and ``ys``.

    Every column is row-local or reads row k - 1 too, so row lo - 1 is
    carried in; the columns that relate consecutive rows are NaN at row 0.
    F is evaluated over at least ``_CSV_CHUNK`` finite rows, or over every
    row up to ``hi`` when there are fewer: a BLAS-backed objective may round
    a handful of rows differently, so this keeps each F bit equal to one
    evaluation over the whole trace.
    """
    beta = trace.beta
    w = max(lo - 1, 0)
    ts, xs, ys, zs = trace.ts[w:hi], trace.xs[w:hi], trace.ys[w:hi], trace.zs[w:hi]
    new = slice(lo - w, None)
    pairs = slice(w + 1, hi)  # rows k >= 1 of lo..hi; row k - 1 sits one place earlier
    zs[new] = (1.0 - ts[new])[:, None] * xs[new] + ts[new, None] * ys[new]

    f_lo = max(0, min(lo, hi - _CSV_CHUNK - 1))  # C + 1 rows, one of them maybe the aborted row
    window = trace.xs[f_lo:hi]
    finite = np.isfinite(window).all(axis=1)
    F = np.full(hi - f_lo, np.nan)  # an aborted row stays NaN
    F[finite] = _objective_rows(problem, window[finite])
    trace.F_x[lo:hi] = F[lo - f_lo :]
    if trace.delta is not None:
        trace.delta[lo:hi] = trace.F_x[lo:hi] - trace.mu

    if lo == 0:
        trace.res_convex[0] = trace.res_suffdec[0] = np.nan
        if trace.xi is not None:
            trace.xi[0] = np.nan
    if trace.xi is not None:
        t_prev_sq = ts[:-1] ** 2
        for j, s in enumerate(trace.s_refs):
            trace.xi[pairs, j] = t_prev_sq * trace.delta[pairs] + 0.5 * beta * np.sum((zs[1:] - s) ** 2, axis=1)

    # z definition recomputed through a different grouping of the same
    # affine combination; nonzero residual is pure floating-point noise.
    regrouped = xs[new] + ts[new, None] * (ys[new] - xs[new])
    trace.res_zdef[lo:hi] = np.linalg.norm(zs[new] - regrouped, axis=1)

    t_prev = ts[:-1, None]
    combo = (1.0 - 1.0 / t_prev) * xs[:-1] + zs[1:] / t_prev
    trace.res_convex[pairs] = np.linalg.norm(xs[1:] - combo, axis=1)

    dx = np.linalg.norm(xs[1:] - xs[:-1], axis=1)
    dy = np.linalg.norm(xs[:-1] - ys[:-1], axis=1)
    prev_F = trace.F_x[w : hi - 1]
    slack = prev_F - trace.F_x[pairs] - 0.5 * beta * (dx**2 - dy**2)
    slack[~np.isfinite(prev_F)] = np.nan
    trace.res_suffdec[pairs] = slack

    trace.gap_xy[lo:hi] = np.linalg.norm(ys[new] - xs[new], axis=1)
    trace.norm_x[lo:hi] = np.linalg.norm(xs[new], axis=1)
    trace.norm_z[lo:hi] = np.linalg.norm(zs[new], axis=1)


_ROW_COLUMNS = (
    "ts", "F_x", "delta", "xi", "res_zdef", "res_convex", "res_suffdec", "gap_xy", "norm_x",
    "norm_z", "xs", "ys", "zs",
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
    csv_sink: Optional[CsvSink],
) -> Trace:
    """The one iteration core behind every public runner."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    x0 = as_vector(x0, problem.dim)
    refs = _validate_s_refs(problem, s_refs)
    trace = _empty_trace(problem, ts, x0.size, kind, schedule_id, refs, snapshot_every)
    if csv_sink is not None:
        header = trace._csv_header()
        csv_sink.start(",".join(header), len(header) - 1)
    built = 0

    def build(rows: int, last: bool) -> None:
        # whole chunks of the rows cleared so far; the rest once the run ends
        nonlocal built
        while rows - built >= _CSV_CHUNK or (last and built < rows):
            hi = min(built + _CSV_CHUNK, rows)
            _fill_rows(trace, problem, built, hi)
            if csv_sink is not None:
                csv_sink.send(trace._csv_table(built, hi), built)
            built = hi

    # a non-finite value ends the run as NonFiniteIterateError and stays in
    # the trace, so numpy's overflow and invalid-value warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        bad_row = _iterate(problem, x0, ts, trace.xs, trace.ys, lambda rows: build(rows, False))
        rows = ts.size if bad_row is None else bad_row + 1
        build(rows, True)
    if bad_row is not None:
        # copies, so the partial trace does not hold the whole preallocation
        kept = {name: getattr(trace, name)[:rows].copy() for name in _ROW_COLUMNS if getattr(trace, name) is not None}
        trace = dataclasses.replace(trace, **kept)
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
    *,
    csv_sink: Optional[CsvSink] = None,
) -> Trace:
    """Accelerated proximal gradient run with a full diagnostic trace.

    The schedule (a :class:`Schedule`, a rule name, or an explicit value
    sequence) is certified over 0..iterations before the first step; the
    extrapolation point starts at x0. Reference points in ``s_refs`` must
    be minimizers when the optimal value is known; each contributes an xi
    column to the trace. A non-finite iterate aborts the run with
    :class:`NonFiniteIterateError`, the offending row retained in the
    attached partial trace. Given a fresh ``csv_sink``, the CSV rows
    are streamed to it as the run goes, up to the offending row on an
    abort; the sink's commit puts the CSV in place.
    """
    sched = _coerce_schedule(schedule)
    ts = sched.prefix(iterations)  # raises ScheduleError before any iteration
    return _run(problem, x0, iterations, ts, "fista", sched.label, s_refs, snapshot_every, csv_sink)


def pgm_run(
    problem: CompositeProblem,
    x0,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
    *,
    csv_sink: Optional[CsvSink] = None,
) -> Trace:
    """Plain proximal gradient run: x_{k+1} = T(x_k), recorded like a trace.

    Stored with t_k = 1 for every row, which makes the extrapolation point
    coincide with the iterate and keeps all structural identities valid.
    """
    ts = np.ones(iterations + 1)
    return _run(problem, x0, iterations, ts, "pgm", "constant-1", s_refs, snapshot_every, csv_sink)


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
    *,
    csv_sink: Optional[CsvSink] = None,
) -> Trace:
    """Accelerated gradient descent: the g = 0 special case, by its own name.

    Probes g at a few points and rejects problems whose nonsmooth part is
    not identically zero; otherwise identical to :func:`fista_run`.
    """
    x0 = as_vector(x0, problem.dim)
    _require_zero_g(problem, x0)
    sched = _coerce_schedule(schedule)
    ts = sched.prefix(iterations)
    return _run(problem, x0, iterations, ts, "nesterov", sched.label, s_refs, snapshot_every, csv_sink)
