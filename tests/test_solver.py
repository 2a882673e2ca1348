import dataclasses
import errno
import functools
import math
import os
import warnings

import numpy as np
import pytest

from fistalab import (
    CompositeProblem,
    NonFiniteIterateError,
    NonsmoothPart,
    Schedule,
    ScheduleError,
    SmoothPart,
    Trace,
    eval_F,
    feasibility_problem,
    fista_run,
    l1_quadratic,
    nesterov_run,
    pgm_run,
    random_quadratic,
    soft_threshold,
    t_operator,
    zero_part,
)
from fistalab._sink import CsvSink
from fistalab.problem import _objective_rows
from fistalab.solver import _BLOCK, _CSV_CHUNK, _ROW_COLUMNS

S_REFS = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]


@pytest.fixture(scope="module")
def feas_trace():
    return fista_run(feasibility_problem(), [5.0, 0.0], "bt", 2000, s_refs=S_REFS)


class TestOperator:
    def test_gradient_inactive_then_projection(self, feas):
        assert np.allclose(t_operator(feas, [5.0, 0.0]), [3.0, -2.0], atol=1e-14)

    def test_gradient_active_then_projection(self, feas):
        # gradient step moves (3,-2) to (3,0), the line projection gives (2,-1)
        assert np.allclose(t_operator(feas, [3.0, -2.0]), [2.0, -1.0], atol=1e-14)

    def test_exact_gradient_step_minimizes(self):
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum(x * x, axis=-1), gradient=lambda x: x, beta=1.0
        )
        problem = CompositeProblem(f=f, g=zero_part(), dim=3)
        assert np.array_equal(t_operator(problem, [4.0, -1.0, 7.0]), [0.0, 0.0, 0.0])


class TestPgm:
    def test_hand_iterates(self, feas):
        trace = pgm_run(feas, [5.0, 0.0], 4)
        expected = [[5, 0], [3, -2], [2, -1], [1.5, -0.5], [1.25, -0.25]]
        assert np.allclose(trace.xs, expected, atol=1e-14)

    def test_converges_to_corner(self, feas):
        trace = pgm_run(feas, [5.0, 0.0], 40)
        assert np.linalg.norm(trace.xs[-1] - [1.0, 0.0]) <= 1e-6

    def test_fixed_point_start_is_constant(self, feas):
        trace = pgm_run(feas, [0.25, 0.75], 10)
        assert np.allclose(trace.xs, np.tile([0.25, 0.75], (11, 1)), atol=1e-14)
        assert np.all(trace.gap_xy == 0.0)


class TestFista:
    def test_first_step_has_no_momentum(self, feas):
        trace = fista_run(feas, [5.0, 0.0], "bt", 2)
        assert np.allclose(trace.xs[1], [3.0, -2.0], atol=1e-14)
        assert np.allclose(trace.ys[1], trace.xs[1], atol=0)  # (t0-1)/t1 = 0

    def test_second_iterate_matches_pgm_second_step(self, feas):
        trace = fista_run(feas, [5.0, 0.0], "bt", 2)
        assert np.allclose(trace.xs[2], [2.0, -1.0], atol=1e-14)

    def test_infeasible_start_recorded_as_inf(self, feas_trace):
        assert feas_trace.F_x[0] == math.inf
        assert feas_trace.delta[0] == math.inf
        assert np.all(np.isnan(feas_trace.xi[0]))
        assert np.isnan(feas_trace.res_suffdec[1])  # F(x_0) = inf row is skipped

    def test_invalid_schedule_fails_before_iterating(self, feas):
        calls = []
        g = NonsmoothPart(
            value=feas.g.value,
            prox=lambda v, s: calls.append(1) or feas.g.prox(v, s),
        )
        bad = CompositeProblem(f=feas.f, g=g, dim=2, solution=feas.solution)
        with pytest.raises(ScheduleError):
            fista_run(bad, [5.0, 0.0], [1.0, 1.0, 1.0], 2)
        assert calls == []

    def test_rejects_non_minimizer_reference(self, feas):
        with pytest.raises(ValueError, match="not a minimizer"):
            fista_run(feas, [5.0, 0.0], "bt", 5, s_refs=[[2.0, -1.0]])

    def test_no_solution_info_drops_gap_columns(self):
        base = feasibility_problem()
        anonymous = CompositeProblem(f=base.f, g=base.g, dim=2, problem_id="no-mu")
        trace = fista_run(anonymous, [5.0, 0.0], "bt", 50)
        assert trace.delta is None and trace.xi is None
        assert np.nanmax(trace.res_convex[1:]) <= 1e-9  # structure still checked


class TestStructuralIdentities:
    def test_z_definition(self, feas_trace):
        t = feas_trace.ts[:, None]
        direct = (1.0 - t) * feas_trace.xs + t * feas_trace.ys
        scale = np.maximum(1.0, np.abs(direct).sum(axis=1))
        res = np.linalg.norm(feas_trace.zs - direct, axis=1) / scale
        assert np.max(res) <= 1e-10

    def test_z_recursion_identity(self, feas_trace):
        res = feas_trace.z_recursion_residuals()[1:]
        scale = np.maximum(
            1.0, feas_trace.ts[:-1] * (feas_trace.norm_x[:-1] + feas_trace.norm_x[1:])
        )
        assert np.max(res / scale) <= 1e-9

    def test_convex_combination_identity(self, feas_trace):
        scale = np.maximum(1.0, feas_trace.norm_x[:-1] + feas_trace.norm_z[1:])
        assert np.max(feas_trace.res_convex[1:] / scale) <= 1e-9

    def test_y_from_convex_combination_of_next_row(self, feas_trace):
        # y_{k+1} = (1 - 1/t_{k+1}) x_{k+1} + z_{k+1} / t_{k+1}
        t = feas_trace.ts[1:, None]
        combo = (1.0 - 1.0 / t) * feas_trace.xs[1:] + feas_trace.zs[1:] / t
        assert np.max(np.linalg.norm(feas_trace.ys[1:] - combo, axis=1)) <= 1e-9


class TestDecayInvariants:
    def test_xi_monotone_and_bounded(self, feas_trace):
        x0 = feas_trace.xs[0]
        for j, s in enumerate(feas_trace.s_refs):
            col = feas_trace.xi[1:, j]
            xi1 = col[0]
            assert np.max(np.diff(col)) <= 1e-9 * max(1.0, xi1)
            assert xi1 <= 0.5 * feas_trace.beta * np.sum((x0 - s) ** 2) + 1e-9
            assert np.min(col) >= -1e-10

    def test_xi_hand_value_for_first_row(self, feas_trace):
        # z_1 = x_1 = (3,-2), delta_1 = 2, t_0 = 1: xi_1((0,1)) = 2 + 9 = 11
        assert feas_trace.xi[1, 0] == pytest.approx(11.0, abs=1e-12)
        assert feas_trace.xi[1, 1] == pytest.approx(6.0, abs=1e-12)
        assert feas_trace.xi[1, 2] == pytest.approx(8.25, abs=1e-12)

    def test_rate_bound(self, feas_trace):
        d0 = feasibility_problem().solution.distance(feas_trace.xs[0])
        assert d0 == pytest.approx(4.0, abs=1e-14)  # nearest segment point is (1,0)
        k = np.arange(1, len(feas_trace), dtype=float)
        bound = 2.0 * feas_trace.beta * d0**2 / (k + 1.0) ** 2
        slack = 1e-9 * max(1.0, feas_trace.beta * feas_trace.norm_x[0] ** 2)
        assert np.all(feas_trace.delta[1:] <= bound + slack)

    def test_sufficient_decrease_against_probes(self, feas_trace, rng):
        problem = feasibility_problem()
        beta = feas_trace.beta
        ks = np.arange(0, len(feas_trace) - 1, 37)
        for _ in range(20):
            probe = problem.g.prox(5.0 * rng.standard_normal(2), 1.0)
            F_probe = eval_F(problem, probe)
            assert math.isfinite(F_probe)
            lhs = F_probe - feas_trace.F_x[ks + 1]
            rhs = 0.5 * beta * (
                np.sum((probe - feas_trace.xs[ks + 1]) ** 2, axis=1)
                - np.sum((probe - feas_trace.ys[ks]) ** 2, axis=1)
            )
            assert np.min(lhs - rhs) >= -1e-9

    def test_stored_decrease_column(self, feas_trace):
        assert np.nanmin(feas_trace.res_suffdec) >= -1e-9

    def test_gap_column_nonnegative_where_defined(self, feas_trace):
        finite = np.isfinite(feas_trace.delta)
        assert np.min(feas_trace.delta[finite]) >= -1e-10

    def test_bounded_by_start_and_z(self, feas_trace):
        cap = max(feas_trace.norm_x[0], np.max(feas_trace.norm_z)) + 1e-8
        assert np.max(feas_trace.norm_x) <= cap

    def test_gap_bound_and_decay(self, feas_trace):
        bound = (feas_trace.norm_z + feas_trace.norm_x) / feas_trace.ts
        assert np.all(feas_trace.gap_xy <= bound + 1e-9 * np.maximum(1.0, bound))
        decile = len(feas_trace) // 10
        assert np.max(feas_trace.gap_xy[-decile:]) < np.max(feas_trace.gap_xy[:decile])


class TestL1Family:
    def test_accelerated_run_reaches_the_soft_threshold_minimizer(self):
        from fistalab import l1_quadratic

        problem = l1_quadratic(dim=6, lam=0.5, seed=2)
        trace = fista_run(problem, np.zeros(6), "bt", 3000)
        assert np.linalg.norm(trace.xs[-1] - problem.solution.s_ref) <= 1e-8
        k = np.arange(1, len(trace), dtype=float)
        bound = 2.0 * trace.beta * problem.solution.distance(trace.xs[0]) ** 2 / (k + 1.0) ** 2
        assert np.all(trace.delta[1:] <= bound + 1e-9)


class TestNesterov:
    def test_exact_minimization_in_one_step(self):
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum(x * x, axis=-1), gradient=lambda x: x, beta=1.0
        )
        problem = CompositeProblem(f=f, g=zero_part(), dim=1)
        trace = nesterov_run(problem, [1.0], "bt", 10)
        assert np.all(trace.xs[1:] == 0.0)

    def test_anisotropic_quadratic_obeys_rate_bound(self):
        a = np.diag([1.0, 0.1])
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum(x * (x @ a), axis=-1), gradient=lambda x: a @ x, beta=1.0
        )
        from fistalab import SolutionInfo

        problem = CompositeProblem(
            f=f,
            g=zero_part(),
            dim=2,
            solution=SolutionInfo(s_ref=np.zeros(2), mu=0.0, project=lambda x: np.zeros(2)),
        )
        x0 = np.array([3.0, -4.0])
        trace = nesterov_run(problem, x0, "bt", 1000)
        k = np.arange(1, 1001, dtype=float)
        bound = 2.0 * float(x0 @ x0) / (k + 1.0) ** 2
        assert np.all(trace.delta[1:] <= bound + 1e-9 * max(1.0, float(x0 @ x0)))

    def test_strongly_convex_iterates_settle_at_unique_minimizer(self):
        problem = random_quadratic(dim=4, seed=11)
        trace = nesterov_run(problem, np.ones(4), "bt", 4000)
        assert np.linalg.norm(trace.xs[-1] - problem.solution.s_ref) <= 1e-8

    def test_rejects_nonzero_g(self, feas):
        with pytest.raises(ValueError, match="identically zero"):
            nesterov_run(feas, [5.0, 0.0], "bt", 5)


def per_row_iterate(problem, x0, ts):
    """The per-row loop that the blocked ``_iterate`` replaced: checks each y as it is made."""
    step = 1.0 / problem.f.beta
    steps = ts.size - 1
    xs = np.empty((steps + 1, x0.size))
    ys = np.empty((steps + 1, x0.size))
    xs[0] = ys[0] = x = y = x0
    momentum = ((ts[:-1] - 1.0) / ts[1:]).tolist()
    for k in range(steps):
        x_next = np.asarray(problem.g.prox(y - step * problem.f.gradient(y), step), dtype=float)
        y = x_next + momentum[k] * (x_next - x)
        x = x_next
        xs[k + 1] = x
        ys[k + 1] = y
        if not np.isfinite(y).all():
            return xs[: k + 2], ys[: k + 2], k + 1
    return xs, ys, None


def counting_feasibility(bad_call=None, raise_on_nonfinite=False, error=None, beta=1.0):
    """The plane problem with a prox that counts its calls.

    Call number ``bad_call`` returns NaN, or raises ``error`` when one is
    given; with ``raise_on_nonfinite`` a non-finite input raises ValueError.
    ``beta`` replaces the declared Lipschitz constant 1 of the gradient (any
    larger value is still valid), so the step 1/beta is not 1.
    """
    feas = feasibility_problem()
    feas = dataclasses.replace(feas, f=dataclasses.replace(feas.f, beta=beta))
    calls = {"n": 0}

    def prox(v, step):
        if raise_on_nonfinite and not np.isfinite(v).all():
            raise ValueError("prox of a non-finite point")
        calls["n"] += 1
        if calls["n"] == bad_call and error is not None:
            raise error
        out = feas.g.prox(v, step)
        return np.full_like(out, np.nan) if calls["n"] == bad_call else out

    return dataclasses.replace(feas, g=NonsmoothPart(value=feas.g.value, prox=prox))


class TestBlockBoundaryAbort:
    ITERATIONS = 2 * _BLOCK + 300  # two full blocks and a partial one
    X0 = np.array([5.0, 0.0])

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("raise_on_nonfinite", [False, True])
    @pytest.mark.parametrize("row", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 100])
    def test_abort_row_and_vectors_match_per_row_loop(self, row, raise_on_nonfinite, beta):
        ts = Schedule(rule="bt").prefix(self.ITERATIONS)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = per_row_iterate(
                counting_feasibility(row, raise_on_nonfinite, beta=beta), self.X0, ts
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteIterateError) as info:
                problem = counting_feasibility(row, raise_on_nonfinite, beta=beta)
                fista_run(problem, self.X0, "bt", self.ITERATIONS)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        xs, ys, bad_row = expected
        assert info.value.row == bad_row == row
        partial = info.value.trace
        assert partial.xs.tobytes() == xs.tobytes()
        assert partial.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_unpoisoned_run_matches_per_row_loop(self, beta):
        ts = Schedule(rule="bt").prefix(self.ITERATIONS)
        xs, ys, bad_row = per_row_iterate(counting_feasibility(beta=beta), self.X0, ts)
        trace = fista_run(counting_feasibility(beta=beta), self.X0, "bt", self.ITERATIONS)
        assert bad_row is None
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("call", [1, _BLOCK, _BLOCK + 1])
    def test_step_error_on_finite_rows_propagates_unchanged(self, call):
        error = KeyError("prox failed")
        with pytest.raises(KeyError) as info:
            fista_run(counting_feasibility(call, error=error), self.X0, "bt", self.ITERATIONS)
        assert info.value is error


class TestAbortOnNonFinite:
    def test_partial_trace_retained(self):
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum(x * x, axis=-1), gradient=lambda x: x, beta=1.0
        )
        hits = {"n": 0}

        def poisoned_prox(v, step):
            hits["n"] += 1
            return np.full_like(v, np.nan) if hits["n"] == 3 else v

        problem = CompositeProblem(
            f=f, g=NonsmoothPart(value=lambda x: 0.0, prox=poisoned_prox), dim=2
        )
        with pytest.raises(NonFiniteIterateError) as info:
            fista_run(problem, [1.0, 1.0], "bt", 10)
        assert info.value.row == 3
        partial = info.value.trace
        assert len(partial) == 4  # rows 0..3, offending row kept
        assert np.all(np.isnan(partial.xs[3]))
        assert np.all(np.isfinite(partial.xs[:3]))

    def test_nonfinite_extrapolation_aborts_at_its_row(self):
        # x_1 = clip(-inf) = -M is finite, but y_1 = x_1 + 0 * (x_1 - x_0) is NaN
        big = 1.7e308
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum((x + big) ** 2, axis=-1), gradient=lambda x: x + big, beta=1.0
        )
        g = NonsmoothPart(
            value=lambda x: np.where(np.all(np.abs(x) <= big, axis=-1), 0.0, math.inf),
            prox=lambda v, step: np.clip(v, -big, big),
        )
        problem = CompositeProblem(f=f, g=g, dim=1)
        with pytest.raises(NonFiniteIterateError) as info:
            fista_run(problem, [big], "bt", 5)
        assert info.value.row == 1
        partial = info.value.trace
        assert partial.xs[:, 0].tolist() == [big, -big]
        assert partial.ys[0, 0] == big and np.isnan(partial.ys[1, 0])

    def test_divergence_through_soft_threshold(self):
        # f = 2 ||x||^2 has a 4-Lipschitz gradient; declaring beta = 1 makes the
        # step four times too long and the iterates blow up
        f = SmoothPart(
            value=lambda x: 2.0 * np.sum(x * x, axis=-1), gradient=lambda x: 4.0 * x, beta=1.0
        )
        g = NonsmoothPart(
            value=lambda x: 0.1 * np.abs(x).sum(axis=-1),
            prox=lambda v, step: soft_threshold(v, 0.1 * step),
        )
        problem = CompositeProblem(f=f, g=g, dim=2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteIterateError
        ) as info:
            fista_run(problem, [1.0, -2.0], "bt", 2000)
        partial = info.value.trace
        assert 1 < info.value.row < 2000
        assert len(partial) == info.value.row + 1
        assert not np.all(np.isfinite(partial.xs[-1]))
        assert np.all(np.isfinite(partial.xs[:-1]))
        assert np.isnan(partial.F_x[-1])


class TestTraceContainer:
    def test_iterations_bounds_validated(self, feas):
        with pytest.raises(ValueError):
            fista_run(feas, [5.0, 0.0], "bt", 0)
        with pytest.raises(ValueError):
            pgm_run(feas, [5.0, 0.0], 5, snapshot_every=0)


SCALAR_COLUMNS = (
    "ts", "F_x", "delta", "xi", "res_zdef", "res_convex", "res_suffdec", "gap_xy", "norm_x",
    "norm_z",
)


def special_values_trace(rows: int) -> Trace:
    """A trace whose scalar columns mix random floats with nan, +-inf and -0.0."""
    rng = np.random.default_rng(5)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 1e-300, -5e300])

    def column(shape=(rows,)):
        col = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        pick = rng.random(shape) < 0.2
        col[pick] = rng.choice(specials, int(pick.sum()))
        return col

    vectors = np.zeros((rows, 2))
    return Trace(
        kind="fista",
        problem_id="synthetic",
        schedule_id="bt",
        beta=1.0,
        mu=0.0,
        ts=1.0 + np.abs(column()),
        F_x=column(),
        delta=column(),
        xi=column((rows, 2)),
        s_refs=np.zeros((2, 2)),
        res_zdef=column(),
        res_convex=column(),
        res_suffdec=column(),
        gap_xy=column(),
        norm_x=column(),
        norm_z=column(),
        xs=vectors,
        ys=vectors,
        zs=vectors,
    )


def per_row_csv(trace: Trace) -> str:
    """Reference: the one-row-at-a-time f-string writer that to_csv replaced."""
    columns = [trace.ts, trace.F_x]
    if trace.delta is not None:
        columns.append(trace.delta)
    if trace.xi is not None:
        columns.extend(trace.xi[:, j] for j in range(trace.xi.shape[1]))
    columns.extend([trace.res_zdef, trace.res_convex, trace.res_suffdec])
    columns.extend([trace.gap_xy, trace.norm_x, trace.norm_z])
    lines = [",".join(trace._csv_header())]
    for k in range(len(trace)):
        lines.append(str(k) + "," + ",".join(f"{col[k]:.17g}" for col in columns))
    return "\n".join(lines) + "\n"


class TestExport:
    def test_csv_header_and_determinism(self, feas, tmp_path):
        trace = fista_run(feas, [5.0, 0.0], "bt", 30, s_refs=S_REFS, snapshot_every=10)
        first = trace.to_csv(tmp_path / "a.csv").read_text()
        header = first.split("\n", 1)[0]
        assert header == (
            "k,t,Fx,delta,xi_s0,xi_s1,xi_s2,res_zdef,res_convex,res_suffdec,"
            "gap_xy,norm_x,norm_z"
        )
        rerun = fista_run(feas, [5.0, 0.0], "bt", 30, s_refs=S_REFS, snapshot_every=10)
        second = rerun.to_csv(tmp_path / "b.csv").read_text()
        assert first == second  # byte-identical across reruns

    def test_17_digit_formatting_round_trips(self, feas, tmp_path):
        trace = fista_run(feas, [5.0, 0.0], "bt", 12)
        lines = trace.to_csv(tmp_path / "t.csv").read_text().strip().split("\n")
        ts = [float(line.split(",")[1]) for line in lines[1:]]
        assert ts == [float(t) for t in trace.ts]

    def test_save_load_round_trip_full_density(self, feas, tmp_path):
        trace = fista_run(feas, [5.0, 0.0], "bt", 25, s_refs=S_REFS, snapshot_every=1)
        trace.save(tmp_path)
        loaded = Trace.load(tmp_path)
        assert loaded.has_full_vectors
        assert np.allclose(loaded.xs, trace.xs, atol=0)
        assert np.allclose(loaded.xi[1:], trace.xi[1:], rtol=1e-15)
        assert loaded.mu == trace.mu

    def test_csv_matches_per_row_formatter(self, tmp_path):
        trace = special_values_trace(2 * _CSV_CHUNK + 17)
        text = trace.to_csv(tmp_path / "t.csv").read_text()
        assert {"nan", "inf", "-inf", "-0"} <= set(text.replace("\n", ",").split(","))
        got, want = text.split("\n"), per_row_csv(trace).split("\n")
        first_bad = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert first_bad is None and len(got) == len(want), f"first differing line {first_bad}"

    def test_load_round_trips_every_column(self, tmp_path):
        trace = special_values_trace(_CSV_CHUNK + 5)
        trace.save(tmp_path)
        loaded = Trace.load(tmp_path)
        for name in SCALAR_COLUMNS:
            want, got = getattr(trace, name), getattr(loaded, name)
            assert np.array_equal(got, want, equal_nan=True), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
        assert np.array_equal(loaded.xs, trace.xs)

    def test_sparse_snapshots_keep_final_row(self, feas, tmp_path):
        trace = fista_run(feas, [5.0, 0.0], "bt", 25, snapshot_every=10)
        payload = trace.snapshot_payload()
        assert sorted(payload["snapshots"], key=int) == ["0", "10", "20", "25"]
        trace.save(tmp_path)
        loaded = Trace.load(tmp_path)
        assert not loaded.has_full_vectors


def whole_array_columns(problem, ts, xs, ys, s_refs):
    """The whole-array column builder that the per-chunk ``_fill_rows`` replaced."""
    rows = xs.shape[0]
    ts = ts[:rows]
    beta = problem.f.beta
    zs = (1.0 - ts)[:, None] * xs + ts[:, None] * ys
    F_x = np.full(rows, np.nan)
    finite = np.isfinite(xs).all(axis=1)
    F_x[finite] = _objective_rows(problem, xs[finite])
    mu = problem.solution.mu
    delta = F_x - mu
    xi = np.full((rows, s_refs.shape[0]), np.nan)
    t_prev_sq = ts[:-1] ** 2
    for j, s in enumerate(s_refs):
        xi[1:, j] = t_prev_sq * delta[1:] + 0.5 * beta * np.sum((zs[1:] - s) ** 2, axis=1)
    regrouped = xs + ts[:, None] * (ys - xs)
    res_convex = np.full(rows, np.nan)
    t_prev = ts[:-1, None]
    combo = (1.0 - 1.0 / t_prev) * xs[:-1] + zs[1:] / t_prev
    res_convex[1:] = np.linalg.norm(xs[1:] - combo, axis=1)
    res_suffdec = np.full(rows, np.nan)
    dx = np.linalg.norm(xs[1:] - xs[:-1], axis=1)
    dy = np.linalg.norm(xs[:-1] - ys[:-1], axis=1)
    prev_F = F_x[:-1]
    slack = prev_F - F_x[1:] - 0.5 * beta * (dx**2 - dy**2)
    slack[~np.isfinite(prev_F)] = np.nan
    res_suffdec[1:] = slack
    return {
        "ts": ts,
        "F_x": F_x,
        "delta": delta,
        "xi": xi,
        "res_zdef": np.linalg.norm(zs - regrouped, axis=1),
        "res_convex": res_convex,
        "res_suffdec": res_suffdec,
        "gap_xy": np.linalg.norm(ys - xs, axis=1),
        "norm_x": np.linalg.norm(xs, axis=1),
        "norm_z": np.linalg.norm(zs, axis=1),
        "zs": zs,
    }


@functools.lru_cache(maxsize=None)
def stream_problem(name):
    """(problem, x0, s_refs) for the streamed-CSV cases."""
    if name == "feasibility":
        return feasibility_problem(), [5.0, 0.0], S_REFS
    if name == "l1_quadratic":
        problem = l1_quadratic(dim=6, seed=2)
        return problem, np.linspace(-3.0, 3.0, 6), [problem.solution.s_ref]
    problem = random_quadratic(dim=512, seed=1)
    return problem, np.random.default_rng(4).standard_normal(512), [problem.solution.s_ref]


def counted_forks(monkeypatch) -> list:
    """Record the pid of every ``os.fork`` from now on."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def streamed(tmp_path, run):
    """Run ``run(csv_sink=...)`` into a committed sink; returns (trace or error, CSV bytes)."""
    with CsvSink(tmp_path / "trace.csv") as sink:
        try:
            outcome = run(csv_sink=sink)
        except NonFiniteIterateError as exc:
            outcome = exc
        sink.commit()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]
    return outcome, (tmp_path / "trace.csv").read_bytes()


class TestCsvStream:
    ROWS = [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 2]

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("name", ["feasibility", "l1_quadratic", "quadratic"])
    def test_stream_equals_to_csv_and_whole_array_columns(self, name, rows, monkeypatch, tmp_path):
        problem, x0, s_refs = stream_problem(name)
        forks = counted_forks(monkeypatch)
        (tmp_path / "stream").mkdir()
        trace, text = streamed(
            tmp_path / "stream", lambda **kw: fista_run(problem, x0, "bt", rows - 1, s_refs=s_refs, **kw)
        )
        assert len(forks) == 1
        assert len(trace) == rows
        assert text == trace.to_csv(tmp_path / "whole.csv").read_bytes()
        # without a sink, the run returns the same trace, and forks nothing
        plain = fista_run(problem, x0, "bt", rows - 1, s_refs=s_refs)
        assert len(forks) == 1
        want = whole_array_columns(problem, trace.ts, trace.xs, trace.ys, trace.s_refs)
        for column in _ROW_COLUMNS:
            values = getattr(trace, column)
            if values is not None:
                assert values.tobytes() == getattr(plain, column).tobytes(), column
        for column, values in want.items():
            assert getattr(trace, column).tobytes() == values.tobytes(), column

    @pytest.mark.parametrize("row", [_CSV_CHUNK + 100, 2 * _CSV_CHUNK + 1])
    def test_abort_inside_a_block_streams_the_partial_trace(self, row, tmp_path):
        problem = counting_feasibility(row)
        (tmp_path / "stream").mkdir()
        error, text = streamed(
            tmp_path / "stream",
            lambda **kw: fista_run(problem, [5.0, 0.0], "bt", 3 * _CSV_CHUNK, s_refs=S_REFS, **kw),
        )
        assert isinstance(error, NonFiniteIterateError) and error.row == row
        assert len(error.trace) == row + 1
        assert text == error.trace.to_csv(tmp_path / "whole.csv").read_bytes()

    def test_uncommitted_stream_leaves_no_file(self, tmp_path):
        (tmp_path / "trace.csv").write_text("previous\n")
        with CsvSink(tmp_path / "trace.csv") as sink:
            fista_run(feasibility_problem(), [5.0, 0.0], "bt", _CSV_CHUNK + 10, csv_sink=sink)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]
        assert (tmp_path / "trace.csv").read_text() == "previous\n"

    @pytest.mark.parametrize("where", ["formatting", "renaming"])
    def test_writer_failure_is_an_os_error(self, where, monkeypatch, tmp_path):
        def broken(*args):
            raise MemoryError(f"{where} failed")

        # the forked writer inherits the patch; a rename fails after the end marker,
        # so only the writer's exit status reports it
        if where == "formatting":
            monkeypatch.setattr("fistalab._sink._csv_chunk", broken)
        else:
            monkeypatch.setattr(os, "replace", broken)
        (tmp_path / "trace.csv").write_text("previous\n")
        with pytest.raises(OSError):
            with CsvSink(tmp_path / "trace.csv") as sink:
                fista_run(feasibility_problem(), [5.0, 0.0], "bt", 3 * _CSV_CHUNK, csv_sink=sink)
                sink.commit()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]
        assert (tmp_path / "trace.csv").read_text() == "previous\n"

    @pytest.mark.parametrize("rows", ROWS)
    def test_objective_calls_cover_a_whole_chunk(self, rows):
        # a BLAS-backed value may round a few rows differently from many
        feas = feasibility_problem()
        sizes = []

        def value(x):  # g is evaluated on every finite row
            sizes.append(len(x))
            return feas.g.value(x)

        problem = dataclasses.replace(feas, g=dataclasses.replace(feas.g, value=value))
        fista_run(problem, [5.0, 0.0], "bt", rows - 1)
        assert sizes and all(size >= _CSV_CHUNK or size == rows for size in sizes), sizes

    def test_failed_fork_closes_the_pipe(self, monkeypatch, tmp_path):
        real_pipe, pipes = os.pipe, []

        def pipe():
            pipes.extend(real_pipe())
            return pipes[-2], pipes[-1]

        def fork():
            raise BlockingIOError(errno.EAGAIN, "fork: no process ids left")

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError):
            with CsvSink(tmp_path / "trace.csv") as sink:
                fista_run(feasibility_problem(), [5.0, 0.0], "bt", 50, csv_sink=sink)
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert list(tmp_path.iterdir()) == []


class TestPartialTraceMemory:
    def test_partial_columns_own_their_rows(self):
        with pytest.raises(NonFiniteIterateError) as info:
            fista_run(feasibility_problem(), [1.7e308, 1.7e308], "bt", 100000, s_refs=S_REFS)
        partial = info.value.trace
        assert len(partial) == 2
        for name in _ROW_COLUMNS:
            column = getattr(partial, name)
            assert column.base is None or column.base.shape == column.shape, name
