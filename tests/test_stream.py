"""The checks that ``fistalab run`` folds over its rows, against the whole-array checks they replaced.

``REFERENCE`` below is the whole-array implementation of every named
check, as it stood before the checks became folds: each reads every row of
x, y and z of a library run at once. ``fistalab run`` folds the same checks
over blocks of rows while the run goes and keeps only a window of rows. Its
report.json must hold exactly the reference's results on the library run,
and its trace.csv and snapshots.json must be the bytes that the library run
saves.

With several BLAS threads, OpenBLAS splits one matrix-vector product over
many rows among the threads and rounds the rows next to each split
differently from a product over one block of them, so at dim 64 and 512 the
reference itself depends on the thread count. Those cases run in a child
process with one BLAS thread, as the benchmark runs fistalab:
``python tests/test_stream.py DIM``.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fistalab import (
    MissingSnapshotError,
    NonFiniteIterateError,
    Trace,
    build_problem,
    fista_run,
    inner_product_seq,
    momentum_identity_residual,
    orthonormal_span_basis,
    verdict,
    xi_difference,
)
from fistalab import cli
from fistalab.checks import _FOLDS, ANALYSES, AnalysisStream, CheckResult
from fistalab.problem import CompositeProblem, _row_norms, eval_F
from fistalab.solver import _CSV_CHUNK, _ROW_COLUMNS, RowWindow

REPO = Path(__file__).resolve().parent.parent
IDENTITY_TOL = 1e-9


# ---- the whole-array reference ----------------------------------------------

def _worst(residual, scale=1.0) -> float:
    """Largest residual / scale; NaN when any residual or scale is not finite."""
    residual, scale = np.broadcast_arrays(np.asarray(residual, dtype=float), scale)
    finite = np.isfinite(residual) & np.isfinite(scale)
    ratio = np.divide(residual, scale, out=np.full(residual.shape, np.nan), where=finite)
    return float(np.max(ratio))


def _verdict_result(claim: str, seq, window: int, tol: float) -> CheckResult:
    """Tail verdict on ``seq``; a non-finite term anywhere in it, tail or not, fails with NaN."""
    v = verdict(seq, window, tol)
    oscillation = _worst(v.tail_oscillation if np.isfinite(seq.values).all() else math.inf)
    return CheckResult(
        claim=claim,
        passed=oscillation <= v.tol,
        residual_or_oscillation=oscillation,
        window=v.window,
        tol=v.tol,
        details={"limit_estimate": v.limit_estimate},
    )


def _pair_directions(trace: Trace, directions=None) -> list:
    """The given probe directions, else s_i - s_j for every pair i < j of s_refs."""
    if directions is not None:
        return [np.asarray(d, dtype=float) for d in directions]
    refs = () if trace.s_refs is None else trace.s_refs
    return [refs[i] - refs[j] for i in range(len(refs)) for j in range(i + 1, len(refs))]


def _required_directions(trace: Trace, params: dict) -> list:
    directions = _pair_directions(trace, params.get("directions"))
    if not directions:
        raise ValueError("check needs explicit directions or at least two s_refs")
    return directions


# ---- identity checks --------------------------------------------------------


def structural_check(trace: Trace, problem, params, rng) -> list:
    """Rowwise residuals of the three identities tying x, y, z together."""
    tol = params.get("tol", IDENTITY_TOL)
    trace.require_vectors()
    t = trace.ts
    with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
        norm_y = _row_norms(trace.ys)  # rescaled where the plain norm overflows, as trace.norm_x is

        zdef_scale = np.maximum(1.0, np.abs(1.0 - t) * trace.norm_x + t * norm_y)
        zdef = _worst(trace.res_zdef, zdef_scale)

        recur_res = trace.z_recursion_residuals()[1:]
        recur_scale = np.maximum(
            1.0, t[:-1] * (trace.norm_x[:-1] + trace.norm_x[1:]) + trace.norm_x[:-1]
        )
        recur = _worst(recur_res, recur_scale)

        convex_scale = np.maximum(1.0, trace.norm_x[:-1] + trace.norm_z[1:])
        convex = _worst(trace.res_convex[1:], convex_scale)

    return [
        CheckResult("z-definition", zdef <= tol, zdef, tol=tol),
        CheckResult("z-recursion", recur <= tol, recur, tol=tol),
        CheckResult("convex-combination", convex <= tol, convex, tol=tol),
    ]


def momentum_identity_check(trace: Trace, problem, params, rng) -> list:
    """Scalar momentum identity along probe directions (linear in d)."""
    tol = params.get("tol", IDENTITY_TOL)
    count = params.get("count", 3)
    trace.require_vectors()
    dim = trace.xs.shape[1]
    directions = _pair_directions(trace)
    while len(directions) < count:
        directions.append(rng.standard_normal(dim))
    sup_x = np.max(trace.norm_x)
    out = []
    for i, d in enumerate(directions[:count]):
        with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
            res = momentum_identity_residual(trace, d)
            worst = _worst(res, np.maximum(1.0, np.linalg.norm(d) * sup_x))
        out.append(CheckResult(f"momentum-identity[d{i}]", worst <= tol, worst, tol=tol))
    return out


# ---- inequality checks ------------------------------------------------------


def rate_bound_check(trace: Trace, problem: CompositeProblem, params, rng) -> list:
    """Objective gap against the accelerated 1/(k+1)^2 guarantee, k >= 1."""
    if trace.delta is None or problem.solution is None:
        raise ValueError("rate_bound needs a problem with known optimal value")
    trace.require_vectors()
    tol = params.get("tol", IDENTITY_TOL)
    k = np.arange(1, len(trace), dtype=float)
    beta, x = trace.beta, trace.norm_x[0]
    with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
        d0 = problem.solution.distance(trace.xs[0])
        # the rescaled forms only where the plain ones overflow
        slack = tol * np.maximum(1.0, beta * x**2)
        if np.isinf(slack):
            slack = tol * beta * x * x
        if math.isfinite(d0) and (math.isinf(d0 * d0) or math.isinf(2.0 * beta * d0 * d0)):
            bound = 2.0 * beta * (d0 / (k + 1.0)) ** 2 + slack
        else:
            bound = 2.0 * beta * d0**2 / (k + 1.0) ** 2 + slack
        excess = _worst(trace.delta[1:] - bound)
    return [
        CheckResult(
            "rate-bound",
            excess <= 0.0,
            excess,
            tol=tol,
            details={"per_s_surrogate": not problem.solution.exact_distance},
        )
    ]


def xi_monotone_check(trace: Trace, problem, params, rng) -> list:
    """Monotone decay, initial bound, and nonnegativity of each xi column."""
    if trace.xi is None:
        raise ValueError("xi_monotone needs xi columns (known optimal value and s_refs)")
    trace.require_vectors()
    out = []
    x0 = trace.xs[0]
    for j in range(trace.xi.shape[1]):
        col = trace.xi[1:, j]
        xi1 = float(col[0])
        step_tol = 1e-9 * max(1.0, xi1)
        with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
            max_inc = _worst(np.diff(col)) if col.size > 1 else 0.0
            start_bound = 0.5 * trace.beta * float(np.sum((x0 - trace.s_refs[j]) ** 2)) + 1e-9
            excess = _worst(xi1 - start_bound)
            min_xi = -_worst(-col)
        out.append(
            CheckResult(f"xi-monotone[s{j}]", max_inc <= step_tol, max_inc, tol=step_tol)
        )
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


def sufficient_decrease_check(trace: Trace, problem: CompositeProblem, params, rng) -> list:
    """Per-step decrease inequality against random feasible probe points.

    Probes are generated through the prox map, which lands them in the
    domain of g. A probe that is not finite or has no finite objective
    value is skipped; with no usable probe left, or a non-finite slack, the
    reported value is NaN and the check fails.
    """
    trace.require_vectors()
    n_probes = params.get("probes", 20)
    n_points = params.get("points", 100)
    tol = params.get("tol", IDENTITY_TOL)
    beta = trace.beta
    rows = len(trace)
    ks = np.unique(np.linspace(0, rows - 2, min(n_points, rows - 1)).astype(int))
    x_next = trace.xs[ks + 1]
    y_at = trace.ys[ks]
    F_next = trace.F_x[ks + 1]
    x0 = trace.xs[0]
    step = 1.0 / beta
    worst_per_probe = []
    with np.errstate(over="ignore", invalid="ignore"):  # unusable probes are skipped, NaN fails
        spread = max(1.0, float(np.linalg.norm(x0)))
        for _ in range(n_probes):
            probe = np.asarray(
                problem.g.prox(x0 + spread * rng.standard_normal(problem.dim), step), dtype=float
            )
            if not np.isfinite(probe).all():
                continue
            F_probe = eval_F(problem, probe)
            if not np.isfinite(F_probe):
                continue  # prox should land in dom g; stay safe regardless
            d_next = np.sum((probe - x_next) ** 2, axis=1)
            d_y = np.sum((probe - y_at) ** 2, axis=1)
            slack = F_probe - F_next - 0.5 * beta * (d_next - d_y)
            worst_per_probe.append(np.min(slack))
    worst = -_worst(-np.array(worst_per_probe)) if worst_per_probe else math.nan
    return [CheckResult("sufficient-decrease", worst >= -tol, worst, tol=tol)]


def gap_decay_check(trace: Trace, problem, params, rng) -> list:
    """Extrapolation gap bounded by (||z|| + ||x||) / t and decaying."""
    tol = params.get("tol", IDENTITY_TOL)
    with np.errstate(over="ignore", invalid="ignore"):  # _worst turns inf/NaN into a failure
        bound = (trace.norm_z + trace.norm_x) / trace.ts
        excess = _worst(trace.gap_xy - bound, np.maximum(1.0, bound))
    out = [CheckResult("gap-bound", excess <= tol, excess, tol=tol)]
    n = len(trace)
    if n >= 50:
        decile = n // 10
        first = float(np.max(trace.gap_xy[:decile]))
        last = float(np.max(trace.gap_xy[-decile:]))
        out.append(
            CheckResult(
                "gap-decay",
                last <= first,
                last - first,
                details={"first_decile_max": first, "last_decile_max": last},
            )
        )
    return out


def bounded_iterates_check(trace: Trace, problem, params, rng) -> list:
    """sup ||x_k|| within max(||x_0||, sup ||z_k||), the convex-combination bound."""
    sup_x = float(np.max(trace.norm_x))
    cap = max(float(trace.norm_x[0]), float(np.max(trace.norm_z))) + 1e-8
    excess = _worst(sup_x - cap)
    return [
        CheckResult(
            "bounded-iterates", excess <= 0.0, excess, details={"sup_x": sup_x, "cap": cap}
        )
    ]


# ---- convergence-proxy checks ----------------------------------------------


def cluster_products_check(trace: Trace, problem, params, rng) -> list:
    """Verdicts on <x_k, w1 - w2> for every pair of reference solutions."""
    window = params.get("window", 100)
    tol = params.get("tol", 1e-6)
    directions = _required_directions(trace, params)
    out = []
    for i, d in enumerate(directions):
        with np.errstate(over="ignore", invalid="ignore"):  # _verdict_result fails on inf/NaN
            seq = inner_product_seq(trace, "x", d)
            out.append(_verdict_result(f"cluster-product[d{i}]", seq, window, tol))
    return out


def xi_difference_check(trace: Trace, problem, params, rng) -> list:
    """Verdicts on xi(s_i) - xi(s_j); the gap terms cancel pairwise."""
    if trace.xi is None or trace.xi.shape[1] < 2:
        raise ValueError("xi_difference needs at least two xi columns")
    window = params.get("window", 100)
    rel_tol = params.get("tol", 1e-6)
    out = []
    m = trace.xi.shape[1]
    for i in range(m):
        for j in range(i + 1, m):
            tol = rel_tol * max(1.0, abs(float(trace.xi[1, i])), abs(float(trace.xi[1, j])))
            with np.errstate(over="ignore", invalid="ignore"):  # _verdict_result fails on inf/NaN
                seq = xi_difference(trace, i, j)
                out.append(_verdict_result(f"xi-difference[s{i},s{j}]", seq, window, tol))
    return out


def span_check(trace: Trace, problem, params, rng) -> list:
    """Projection onto span of probe directions: projector laws + verdicts."""
    trace.require_vectors()
    window = params.get("window", 100)
    tol = params.get("tol", 1e-6)
    basis = orthonormal_span_basis(_required_directions(trace, params))
    dim = basis.shape[1]
    proj = basis.T @ basis

    idem = 0.0
    adj = 0.0
    for _ in range(8):
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        pu = proj @ u
        idem = max(idem, float(np.linalg.norm(proj @ pu - pu)))
        adj = max(adj, abs(float(pu @ v - u @ (proj @ v))))
    out = [
        CheckResult("span-idempotent", idem <= 1e-10, idem, tol=1e-10),
        CheckResult("span-self-adjoint", adj <= 1e-10, adj, tol=1e-10),
    ]
    for i, b in enumerate(basis):
        with np.errstate(over="ignore", invalid="ignore"):  # _verdict_result fails on inf/NaN
            seq = inner_product_seq(trace, "x", b)
            out.append(_verdict_result(f"span-coefficient[{i}]", seq, window, tol))
    return out


def final_point_check(trace: Trace, problem, params, rng) -> list:
    """Terminal iterate within tol of a configured target point."""
    if "target" not in params or "tol" not in params:
        raise ValueError("final_point needs 'target' and 'tol' parameters")
    trace.require_vectors()
    target = np.asarray(params["target"], dtype=float)
    dist = float(np.linalg.norm(trace.xs[-1] - target))
    return [
        CheckResult(
            "final-point",
            dist <= params["tol"],
            dist,
            tol=params["tol"],
            details={"final": trace.xs[-1].tolist(), "target": target.tolist()},
        )
    ]


REFERENCE = {
    "structural": structural_check,
    "momentum_identity": momentum_identity_check,
    "rate_bound": rate_bound_check,
    "xi_monotone": xi_monotone_check,
    "sufficient_decrease": sufficient_decrease_check,
    "gap_decay": gap_decay_check,
    "bounded_iterates": bounded_iterates_check,
    "cluster_products": cluster_products_check,
    "xi_difference": xi_difference_check,
    "span": span_check,
    "final_point": final_point_check,
}


def reference_analyses(trace: Trace, problem, analyses, rng) -> list:
    results = []
    for entry in analyses:
        params = {"name": entry} if isinstance(entry, str) else dict(entry)
        results.extend(REFERENCE[params.pop("name")](trace, problem, params, rng))
    return results


# ---- the cases ---------------------------------------------------------------

C = _CSV_CHUNK
ROWS = [C - 1, C, C + 1, 2 * C + 2]


def case_config(family: str, dim: int, rows: int) -> dict:
    """A config that runs every check the family supports over ``rows`` rows."""
    rng = np.random.default_rng(dim)
    if family == "feasibility":
        params, x0 = {}, [5.0, 0.0]
        s_refs = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        directions = [[1.0, -1.0]]
    else:
        params = {"dim": dim, "seed": 2 if family == "l1_quadratic" else 1}
        x0 = rng.standard_normal(dim).tolist()
        s_refs = [build_problem(family, params).solution.s_ref.tolist()]
        directions = rng.standard_normal((2, dim)).tolist()
    analyses = [
        "structural",
        "momentum_identity",
        "rate_bound",
        "xi_monotone",
        "sufficient_decrease",
        "gap_decay",
        "bounded_iterates",
        {"name": "cluster_products", "directions": directions[:1], "window": 50, "tol": 1e-3},
        *(["xi_difference"] if len(s_refs) > 1 else []),
        {"name": "span", "directions": directions, "window": 50, "tol": 1e-3},
        {"name": "final_point", "target": s_refs[0], "tol": 1e-3},
    ]
    return {
        "problem": {"family": family, "params": params},
        "algorithm": "fista",
        "x0": x0,
        "schedule": "bt",
        "iterations": rows - 1,
        "s_refs": s_refs,
        "snapshot_every": 97 if dim <= 6 else 1000,
        "seed": 3,
        "analyses": analyses,
    }


def poisoned_gradient(problem: CompositeProblem, row: int) -> CompositeProblem:
    """The problem with a gradient whose call ``row`` (the step that makes row ``row``) is NaN.

    The checks never call the gradient, so the run aborts at that row.
    """
    calls = {"n": 0}
    gradient = problem.f.gradient

    def counted(x):
        calls["n"] += 1
        return np.full(x.shape, np.nan) if calls["n"] == row else gradient(x)

    return dataclasses.replace(problem, f=dataclasses.replace(problem.f, gradient=counted))


def case_problem(cfg: dict, abort_row=None) -> CompositeProblem:
    problem = build_problem(cfg["problem"]["family"], cfg["problem"]["params"])
    return problem if abort_row is None else poisoned_gradient(problem, abort_row)


def library_artifacts(cfg: dict, workdir: Path, abort_row=None) -> dict:
    """What the library run of ``cfg`` gives: the reference checks and the bytes ``Trace.save`` writes."""
    problem = case_problem(cfg, abort_row)
    run = dict(s_refs=cfg["s_refs"], snapshot_every=cfg["snapshot_every"])
    try:
        trace = fista_run(problem, cfg["x0"], "bt", cfg["iterations"], **run)
        checks = reference_analyses(trace, problem, cfg["analyses"], np.random.default_rng(cfg["seed"]))
        checks = json.loads(json.dumps([r.to_json() for r in checks], allow_nan=False))
    except NonFiniteIterateError as exc:
        trace, checks = exc.trace, []
    trace.save(workdir)
    return {"checks": checks, **{name: (workdir / name).read_bytes() for name in ("trace.csv", "snapshots.json")}}


def compare_run(cfg: dict, workdir: Path, want: dict, abort_row=None) -> list:
    """Run ``cfg`` through ``fistalab run``; returns every difference from ``want``."""
    workdir.mkdir(parents=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg))
    with mock.patch(
        "fistalab.families.build_problem", lambda *args: case_problem(cfg, abort_row)
    ), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_config(config, output_dir=workdir)
    report = json.loads((workdir / "report.json").read_text())
    problems = []
    if code != (3 if abort_row is not None else 0 if all(c["pass"] for c in want["checks"]) else 1):
        problems.append(f"exit code {code}")
    if report.get("aborted_at_row") != abort_row:
        problems.append(f"aborted_at_row {report.get('aborted_at_row')}")
    if report["checks"] != want["checks"]:
        got = {c["claim"]: c for c in report["checks"]}
        diff = [c["claim"] for c in want["checks"] if got.get(c["claim"]) != c]
        problems.append(f"checks differ: {diff or [c['claim'] for c in report['checks']]}")
    for name in ("trace.csv", "snapshots.json"):
        if (workdir / name).read_bytes() != want[name]:
            problems.append(f"{name} differs")
    return problems


def wide_cases(dim: int) -> list:
    """Every difference over the quadratic cases of one dim; run with one BLAS thread."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for rows in ROWS:
            cfg = case_config("quadratic", dim, rows)
            want = library_artifacts(cfg, Path(tmp) / f"{rows}-library")
            case = compare_run(cfg, Path(tmp) / f"{rows}-run", want)
            problems.extend(f"quadratic dim {dim}, {rows} rows: {p}" for p in case)
    return problems


# ---- tests --------------------------------------------------------------------


class TestStreamedChecks:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("family", ["feasibility", "l1_quadratic"])
    def test_report_and_artifacts_equal_the_whole_array_reference(self, family, rows, tmp_path):
        cfg = case_config(family, 6, rows)
        want = library_artifacts(cfg, tmp_path)
        assert compare_run(cfg, tmp_path / "run", want) == []

    def test_a_start_whose_squares_overflow_equals_the_reference(self, tmp_path):
        # |x_0| and d0 near 1.4e154: their plain squares and the plain ||y_k|| overflow, and the
        # checks take the rescaled forms; C + 1 rows cross a block edge
        cfg = case_config("quadratic", 2, C + 1)
        cfg["x0"] = [1e154, 1e154]
        want = library_artifacts(cfg, tmp_path)
        [rate] = [c for c in want["checks"] if c["claim"] == "rate-bound"]
        assert rate["pass"] and math.isfinite(rate["residual_or_oscillation"])
        assert compare_run(cfg, tmp_path / "run", want) == []

    def test_a_start_whose_plain_square_overflows_at_a_small_beta_equals_the_reference(self):
        # beta = 0.1 and d0 = 1.4e154: 2 beta d0^2 is finite but d0^2 is not, where the plain
        # form's d0**2 raised OverflowError; f scaled by 0.1 takes the steps of the beta = 1 problem
        problem = build_problem("quadratic", {"dim": 2, "seed": 1})
        f = problem.f
        small = dataclasses.replace(
            f, value=lambda x: 0.1 * f.value(x), gradient=lambda x: 0.1 * f.gradient(x), beta=0.1
        )
        problem = dataclasses.replace(problem, f=small)
        trace = fista_run(problem, [1e154, 1e154], "bt", C + 1)
        got, want = (
            check(trace, problem, {}, np.random.default_rng(0)) for check in (ANALYSES["rate_bound"], rate_bound_check)
        )
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
        assert got[0].passed and math.isfinite(got[0].residual_or_oscillation)

    # C - 1 and C: the last row of one pass and the first of the next; 1: a first chunk with no xi step
    @pytest.mark.parametrize("row", [1, C - 1, C, C + 100, 2 * C + 1])
    def test_abort_inside_a_block_writes_the_library_partial_trace(self, row, tmp_path):
        cfg = case_config("feasibility", 2, 3 * C)
        want = library_artifacts(cfg, tmp_path, row)
        assert compare_run(cfg, tmp_path / "run", want, row) == []

    @pytest.mark.parametrize("dim", [64, 512])
    def test_wide_dims_on_one_blas_thread(self, dim):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, __file__, str(dim)], env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    def test_post_hoc_checks_need_the_vectors_a_stream_drops(self):
        cfg = case_config("feasibility", 2, C + 1)
        problem = build_problem("feasibility", {})
        stream = AnalysisStream(problem, cfg["analyses"], np.random.default_rng(0))
        trace = fista_run(problem, cfg["x0"], "bt", cfg["iterations"], s_refs=cfg["s_refs"], analyses=stream)
        assert trace.xs is None and trace.ys is None and trace.zs is None
        assert len(cfg["analyses"]) == 11
        for entry in cfg["analyses"]:
            params = {"name": entry} if isinstance(entry, str) else dict(entry)
            name = params.pop("name")
            with pytest.raises(MissingSnapshotError):
                ANALYSES[name](trace, problem, params, np.random.default_rng(0))

    def test_checks_need_the_vectors_a_reloaded_trace_drops(self, tmp_path):
        problem = build_problem("feasibility", {})
        cfg = case_config("feasibility", 2, C + 1)
        trace = fista_run(problem, cfg["x0"], "bt", cfg["iterations"], s_refs=cfg["s_refs"], snapshot_every=100)
        trace.save(tmp_path)
        loaded = Trace.load(tmp_path)
        assert loaded.xs is None and loaded.snapshots is not None
        for name in ANALYSES:
            with pytest.raises(MissingSnapshotError):
                ANALYSES[name](loaded, problem, {}, np.random.default_rng(0))

    def test_streamed_run_holds_a_window_not_every_row(self, tmp_path):
        # quadratic dim 64, 5e4 iterations: the whole-array checks over the full
        # vectors peaked at 152.6 MiB under tracemalloc, the streamed run near 28 MiB
        cfg = case_config("quadratic", 64, 50_001)
        cfg["snapshot_every"] = 1000
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            code = cli.run_config(config, output_dir=tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 38 * 2**20, f"peak {peak / 2**20:.1f} MiB"


    def test_streamed_memory_does_not_grow_with_the_scalar_columns(self, tmp_path):
        # the parent of the streamed CSV grew 96 B/row here: 11 full-length scalar columns
        # besides ts, formatted after the run; what grows now is ts and the schedule's
        # certificate (growth and quadratic residuals), about 11 B/row
        peaks = {}
        for rows in (20_001, 100_001):
            cfg = case_config("feasibility", 2, rows)
            cfg["snapshot_every"] = 1000
            config = tmp_path / f"{rows}.json"
            config.write_text(json.dumps(cfg))
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.run_config(config, output_dir=tmp_path / str(rows))
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_row = (peaks[100_001] - peaks[20_001]) / 80_000
        assert per_row < 32, f"{per_row:.1f} B/row"

    def test_a_run_writing_its_csv_holds_a_window_of_its_columns(self, tmp_path):
        cfg = case_config("feasibility", 2, 3 * C)
        problem = build_problem("feasibility", {})
        run = dict(s_refs=cfg["s_refs"], snapshot_every=cfg["snapshot_every"])
        library = fista_run(problem, cfg["x0"], "bt", cfg["iterations"], **run)
        stream = AnalysisStream(problem, ["structural"], np.random.default_rng(0))
        trace = fista_run(
            problem, cfg["x0"], "bt", cfg["iterations"], **run, analyses=stream, csv_path=tmp_path / "trace.csv"
        )
        assert (tmp_path / "trace.csv").read_bytes() == library.to_csv(tmp_path / "library.csv").read_bytes()
        # the last chunk starts at row 2C, and the window holds the C rows before it
        last = len(trace) - 1
        for name in _ROW_COLUMNS[1:-3]:  # every scalar column but ts
            column, full = getattr(trace, name), getattr(library, name)
            assert column[C:].tobytes() == full[C:].tobytes(), name
            assert column[np.array([C, last])].tobytes() == full[[C, last]].tobytes(), name
            for dropped in (C - 1, slice(C - 1, last), np.array([last, C - 1]), (C - 1, 0)):
                with pytest.raises(IndexError, match=f"row {C - 1} was dropped; the window starts at row {C}$"):
                    column[dropped]
        with pytest.raises(ValueError, match="holds a window of its rows"):
            trace.to_csv(tmp_path / "partial.csv")
        assert not (tmp_path / "partial.csv").exists()


class ReadRecorder(RowWindow):
    """A window that records the (first, end) rows of every read in ``reads``."""

    def _rows(self, vectors, lo, hi):
        self.reads.append((lo, hi))
        return super()._rows(vectors, lo, hi)


class TestFoldReads:
    @pytest.mark.parametrize("name", sorted(_FOLDS))
    def test_each_fold_reads_its_block_and_the_row_before_it(self, name):
        # 2C + 1 rows: the last block is one row, whose products may be widened by four rows
        cfg = case_config("feasibility", 2, 2 * C + 1)
        problem = build_problem("feasibility", {})
        trace = fista_run(problem, cfg["x0"], "bt", cfg["iterations"], s_refs=cfg["s_refs"])
        [entry] = [a for a in cfg["analyses"] if (a if isinstance(a, str) else a["name"]) == name]
        stream = AnalysisStream(problem, [entry], np.random.default_rng(cfg["seed"]))
        window = ReadRecorder(trace.xs, trace.ys, trace.zs)
        stream.start(trace, trace.xs[0])
        for lo in range(0, len(trace), C):
            hi = min(lo + C, len(trace))
            window.reads = []
            stream.update(trace, window, lo, hi)
            if window.reads:
                first = min(a for a, _ in window.reads)
                assert first - lo >= (-4 if hi - lo == 1 else -1), f"rows {lo}..{hi} read from row {first}"
                assert max(b for _, b in window.reads) <= hi
        assert stream.results()

    @pytest.mark.parametrize("name", sorted(_FOLDS))
    def test_each_fold_refuses_a_one_row_trace(self, name):
        # one row has no step to check: without the refusal, structural and rate_bound pass at -inf
        cfg = case_config("feasibility", 2, 11)
        problem = build_problem("feasibility", {})
        trace = fista_run(problem, cfg["x0"], "bt", cfg["iterations"], s_refs=cfg["s_refs"])
        kept = {f: getattr(trace, f)[:1] for f in _ROW_COLUMNS if getattr(trace, f) is not None}
        one_row = dataclasses.replace(trace, **kept)
        [entry] = [a for a in cfg["analyses"] if (a if isinstance(a, str) else a["name"]) == name]
        with pytest.raises(ValueError, match="at least 2 rows, got 1$"):
            AnalysisStream(problem, [entry], np.random.default_rng(cfg["seed"])).fold(one_row)


if __name__ == "__main__":
    print(json.dumps(wide_cases(int(sys.argv[1]))))
