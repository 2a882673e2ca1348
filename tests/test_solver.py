import dataclasses
import errno
import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fistalab import (
    CompositeProblem,
    DimensionMismatchError,
    MissingSnapshotError,
    NonFiniteIterateError,
    NonsmoothPart,
    Schedule,
    ScheduleError,
    SmoothPart,
    Trace,
    eval_F,
    feasibility_problem,
    fista_run,
    half_sq_dist_grad,
    l1_quadratic,
    nesterov_run,
    pgm_run,
    random_quadratic,
    soft_threshold,
    zero_part,
)
from fistalab.checks import AnalysisStream
from fistalab.problem import _objective_rows
from fistalab.prox import _unit_line_prox
from fistalab import solver
from fistalab.solver import (
    _CSV_BLOCK,
    _CSV_CHUNK,
    _ROW_COLUMNS,
    RowWindow,
    _chunk_steps,
    _csv_chunk,
    _empty_trace,
    _fill_rows,
    _iterate,
    _numpy_steps,
    _plane_steps,
    _row_norms,
    _start,
)

S_REFS = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]


@pytest.fixture(scope="module")
def feas_trace():
    return fista_run(feasibility_problem(), [5.0, 0.0], "bt", 2000, s_refs=S_REFS)


class TestOperator:
    """One proximal gradient step is a one-step PGM run's x_1."""

    @staticmethod
    def step(problem, y):
        return pgm_run(problem, y, 1).xs[1]

    def test_gradient_inactive_then_projection(self, feas):
        assert np.allclose(self.step(feas, [5.0, 0.0]), [3.0, -2.0], atol=1e-14)

    def test_gradient_active_then_projection(self, feas):
        # gradient step moves (3,-2) to (3,0), the line projection gives (2,-1)
        assert np.allclose(self.step(feas, [3.0, -2.0]), [2.0, -1.0], atol=1e-14)

    def test_exact_gradient_step_minimizes(self):
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum(x * x, axis=-1), gradient=lambda x: x, beta=1.0
        )
        problem = CompositeProblem(f=f, g=zero_part(), dim=3)
        assert np.array_equal(self.step(problem, [4.0, -1.0, 7.0]), [0.0, 0.0, 0.0])


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
    ITERATIONS = 2 * _CSV_CHUNK + 300  # two full chunks and a partial one
    X0 = np.array([5.0, 0.0])

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("raise_on_nonfinite", [False, True])
    @pytest.mark.parametrize("row", [1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 100])
    def test_abort_row_and_vectors_match_per_row_loop(self, row, raise_on_nonfinite, beta):
        ts = Schedule("bt").prefix(self.ITERATIONS)
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
        ts = Schedule("bt").prefix(self.ITERATIONS)
        xs, ys, bad_row = per_row_iterate(counting_feasibility(beta=beta), self.X0, ts)
        trace = fista_run(counting_feasibility(beta=beta), self.X0, "bt", self.ITERATIONS)
        assert bad_row is None
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.ys.tobytes() == ys.tobytes()

    def test_a_gradient_that_writes_into_its_argument_leaves_the_stored_rows(self):
        feas = feasibility_problem()

        def gradient(v):
            np.round(v, 12, out=v)  # written into
            return feas.f.gradient(v)

        problem = dataclasses.replace(feas, f=dataclasses.replace(feas.f, gradient=gradient))
        ts = Schedule("bt").prefix(self.ITERATIONS)
        step = 1.0 / problem.f.beta
        xs, ys = np.empty((2, ts.size, 2))
        xs[0] = ys[0] = self.X0
        x, y = self.X0.copy(), self.X0.copy()
        for k in range(ts.size - 1):  # each row stored as a copy of the carried point
            x_next = problem.g.prox(y - step * problem.f.gradient(y), step)
            x, y = x_next, x_next + (ts[k] - 1.0) / ts[k + 1] * (x_next - x)
            xs[k + 1], ys[k + 1] = x, y
        trace = fista_run(problem, self.X0.copy(), "bt", self.ITERATIONS)
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("call", [1, _CSV_CHUNK, _CSV_CHUNK + 1])
    def test_step_error_on_finite_rows_propagates_unchanged(self, call):
        error = KeyError("prox failed")
        with pytest.raises(KeyError) as info:
            fista_run(counting_feasibility(call, error=error), self.X0, "bt", self.ITERATIONS)
        assert info.value is error


@dataclasses.dataclass
class CallableProx:
    """A prox map as a callable object."""

    prox: object

    def __call__(self, v, step):
        return self.prox(v, step)


def plane_x(y):
    """x of one plane-kernel step from y (momentum 0)."""
    xs, ys = np.empty((2, 2, 2))
    _plane_steps(np.zeros(2), np.asarray(y, dtype=float), [0.0], xs, ys, 1)
    return xs[1]


def numpy_x(y):
    """x of one numpy step from y at step 1, the step every other problem takes."""
    y = np.asarray(y, dtype=float)
    return _unit_line_prox(y - 1.0 * half_sq_dist_grad(y), 1.0)


class TestPlaneKernel:
    """fig1's chunk stepper on Python floats against the numpy step that every other problem takes."""

    ITERATIONS = 2 * _CSV_CHUNK + 300  # two full chunks and a partial one
    RUNNERS = [pgm_run, functools.partial(fista_run, schedule="bt")]

    @staticmethod
    def kernel_max(c):
        """The kernel's max(c, 0) for |c| below 2**-53, read off x0 of one step from (c, 1).

        There max(c, 0) + 1 - 1 is +0.0, so the shift is +0.0 and
        x0 = max(c, 0) - 0.0 keeps the max's sign bit. For a NaN c, x0 is
        NaN only if the max is.
        """
        return plane_x([c, 1.0])[0]

    def test_max_keeps_numpy_sign_bits_on_zeros_subnormals_and_nan(self):
        for c in [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320]:
            assert np.float64(self.kernel_max(c)).tobytes() == np.maximum(c, 0.0).tobytes(), c
        assert math.copysign(1.0, self.kernel_max(-0.0)) == 1.0  # -0.0 steps to +0.0
        assert math.isnan(self.kernel_max(math.nan))  # NaN stays NaN, as with np.maximum

    def test_step_is_numpys_on_edges_and_random_normals(self, rng):
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1.0, 1e308, -1e308]
        ys = [np.array([a, b]) for a in edge for b in edge] + list(rng.standard_normal((20_000, 2)))
        for y in ys:
            assert plane_x(y).tobytes() == numpy_x(y).tobytes(), y

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_taken_only_for_fig1s_step(self, runner, monkeypatch):
        """A kernel that raises surfaces on every beta = 1 feasibility run, and only there."""

        def refuse(*args):
            raise RuntimeError("plane kernel taken")

        monkeypatch.setattr(solver, "_plane_steps", refuse)
        feas, again = feasibility_problem(), feasibility_problem()
        assert again.g.prox is feas.g.prox  # one module-level prox, not one per problem
        for problem in (feas, again):
            with pytest.raises(RuntimeError, match="plane kernel taken"):
                runner(problem, [5.0, 0.0], iterations=10)
        halved = dataclasses.replace(feas, f=dataclasses.replace(feas.f, beta=2.0))
        wrapped = functools.wraps(half_sq_dist_grad)(lambda y: half_sq_dist_grad(y))
        rewrapped = dataclasses.replace(feas, f=dataclasses.replace(feas.f, gradient=wrapped))
        reproxed = dataclasses.replace(
            feas, g=dataclasses.replace(feas.g, prox=functools.wraps(feas.g.prox)(lambda v, step: feas.g.prox(v, step)))
        )
        # another function onto the same line is not fig1's prox
        sameline = dataclasses.replace(feas, g=dataclasses.replace(feas.g, prox=lambda v, step: v - (v[0] + v[1] - 1.0) / 2.0))
        # a dataclass instance compares by value, so it is unhashable; `is` neither hashes nor raises
        unhashable = dataclasses.replace(feas, g=dataclasses.replace(feas.g, prox=CallableProx(feas.g.prox)))
        for problem in (halved, rewrapped, reproxed, sameline, unhashable):
            assert len(runner(problem, [5.0, 0.0], iterations=10)) == 11

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("x0", [[5.0, 0.0], [-0.0, 1.0], [1e-320, -3.0], [1e300, -1e300]])
    def test_rows_bit_equal_to_the_numpy_loop(self, runner, x0):
        trace = runner(feasibility_problem(), x0, iterations=self.ITERATIONS)
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ys, bad_row = per_row_iterate(feasibility_problem(), np.array(x0), trace.ts)
        assert bad_row is None
        assert trace.xs.tobytes() == xs.tobytes()
        assert trace.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_overflow_aborts_at_row_one_as_the_numpy_loop(self, runner):
        x0 = np.array([1e308, 1e308])  # x1 + x2 overflows in the first step
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteIterateError) as info:
                runner(feasibility_problem(), x0, iterations=self.ITERATIONS)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        partial = info.value.trace
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ys, bad_row = per_row_iterate(feasibility_problem(), x0, partial.ts)
        assert info.value.row == bad_row == 1
        assert partial.xs.tobytes() == xs.tobytes()
        assert partial.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("lo", [_CSV_CHUNK - 2, _CSV_CHUNK - 1, _CSV_CHUNK])
    def test_iterate_from_a_nonfinite_row_reports_it_with_both_steppers(self, lo, bad):
        feas = feasibility_problem()
        trace = fista_run(feas, [5.0, 0.0], "bt", self.ITERATIONS)
        hi = lo + _CSV_CHUNK
        kept = {}
        for name, steps in (("plane", _chunk_steps(feas)), ("numpy", _numpy_steps(feas))):
            window = RowWindow(trace.xs.copy(), trace.ys.copy(), trace.zs.copy())
            window.ys[lo, 0] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                kept[name] = (_iterate(steps, trace.ts, window, lo, hi), window.xs[: lo + 2], window.ys[: lo + 2])
        (plane_row, plane_xs, plane_ys), (numpy_row, numpy_xs, numpy_ys) = kept["plane"], kept["numpy"]
        assert plane_row == numpy_row == lo + 1
        assert plane_xs[: lo + 1].tobytes() == numpy_xs[: lo + 1].tobytes() == trace.xs[: lo + 1].tobytes()
        assert plane_ys[: lo].tobytes() == numpy_ys[: lo].tobytes() == trace.ys[: lo].tobytes()
        if math.isnan(bad):  # from a NaN the two forms make the same NaN rows
            assert plane_xs.tobytes() == numpy_xs.tobytes()
            assert plane_ys.tobytes() == numpy_ys.tobytes()
        else:  # from an infinity they differ, past a row that has already aborted
            assert not np.isfinite(plane_ys[lo + 1]).all() and not np.isfinite(numpy_ys[lo + 1]).all()


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
            f=f, g=NonsmoothPart(value=lambda x: np.zeros(x.shape[:-1]), prox=poisoned_prox), dim=2
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

    def test_nan_objective_at_a_finite_start_aborts_at_row_zero(self):
        # (x - c) * ((x - c) @ a) overflows to inf - inf; this used to raise ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError, match="^objective evaluated to NaN at row 0$") as info:
                fista_run(random_quadratic(dim=2), [1e200, 1e200], "bt", 10)
        assert info.value.row == 0
        partial = info.value.trace
        assert len(partial) == 1 and np.isnan(partial.F_x[0])
        assert np.isfinite(partial.xs).all() and np.isfinite(partial.ys).all()

    @pytest.mark.parametrize("row", [1, _CSV_CHUNK, _CSV_CHUNK + 904])
    @pytest.mark.parametrize("streamed", [False, True])
    def test_nan_objective_aborts_at_the_first_row_whose_F_is_nan(self, row, streamed, tmp_path):
        feas = feasibility_problem()
        clean = fista_run(feas, [5.0, 0.0], "bt", 6000)
        target = clean.xs[row]
        first = int(np.argmax((clean.xs == target).all(axis=1)))
        value = feas.f.value
        nan_at_target = lambda x: np.where((x == target).all(axis=-1), np.nan, value(x))  # noqa: E731
        poisoned = dataclasses.replace(feas, f=dataclasses.replace(feas.f, value=nan_at_target))
        analyses = AnalysisStream(poisoned, ["structural"], np.random.default_rng(0))
        stream = (analyses, tmp_path / "trace.csv") if streamed else None
        with pytest.raises(NonFiniteIterateError, match=f"^objective evaluated to NaN at row {first}$") as info:
            _start("fista", poisoned, [5.0, 0.0], "bt", 6000, (), 1, stream)
        partial = info.value.trace
        assert info.value.row == first and len(partial) == first + 1
        assert partial.ts.tobytes() == clean.ts[: first + 1].tobytes()
        assert partial.F_x[:first].tobytes() == clean.F_x[:first].tobytes()
        assert np.isnan(partial.F_x[first])
        if streamed:  # the aborted run's trace.csv is in place: the header and rows 0..first
            assert (tmp_path / "trace.csv").read_bytes().count(b"\n") == first + 2
        else:
            assert partial.xs.tobytes() == clean.xs[: first + 1].tobytes()

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


def test_row_norms_rescale_only_finite_rows_that_overflow(rng):
    small = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-300, 150, (200, 1))
    big = np.array([[1e154, 1e154, 0.0], [1e300, -1e300, 1e300], [1.5e308, 1.5e308, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1e200, 1e200]])
    with np.errstate(over="ignore"):  # 2.1e308 is above the largest float
        got = _row_norms(np.vstack([small, big]))
    assert got[:200].tobytes() == np.linalg.norm(small, axis=1).tobytes()
    assert got[200] == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    assert got[201] == pytest.approx(math.sqrt(3.0) * 1e300, rel=1e-15)
    assert list(got[202:204]) == [math.inf, math.inf]
    assert math.isnan(got[204])


class TestTraceContainer:
    def test_bad_vector_error_names_the_argument_and_keeps_its_class(self, feas):
        with pytest.raises(DimensionMismatchError, match=r"^x0: expected dimension 2, got 1$"):
            fista_run(feas, [5.0], "bt", 10)
        with pytest.raises(DimensionMismatchError, match=r"^x0: expected dimension 2, got 3$"):
            nesterov_run(random_quadratic(dim=2), [5.0, 0.0, 1.0], "bt", 10)
        with pytest.raises(DimensionMismatchError, match=r"^s_refs\[1\]: expected dimension 2, got 3$"):
            pgm_run(feas, [5.0, 0.0], 10, s_refs=[[0.5, 0.5], [1.0, 0.0, 0.0]])

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


class TestSaveLoadRoundTrip:
    """Seeded property test: every scalar column survives save/load bit for bit."""

    def test_seeded_runs_round_trip(self, tmp_path):
        rng = np.random.default_rng(20261018)
        for case in range(16):
            family = str(rng.choice(["feasibility", "l1_quadratic", "quadratic"]))
            dim = 2 if family == "feasibility" else int(rng.integers(1, 9))
            problem = {
                "feasibility": feasibility_problem,
                "l1_quadratic": lambda: l1_quadratic(dim=dim, seed=case),
                "quadratic": lambda: random_quadratic(dim=dim, seed=case),
            }[family]()
            iterations = int(rng.choice([1, 2, int(rng.integers(3, 200)), int(rng.integers(_CSV_CHUNK, 2 * _CSV_CHUNK))]))
            every = int(rng.choice([1, 2, int(rng.integers(3, 50)), iterations + 3]))
            x0 = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            s_refs = [problem.solution.s_ref] if family != "feasibility" else S_REFS
            trace = fista_run(problem, x0, "bt", iterations, s_refs=s_refs, snapshot_every=every)
            out = tmp_path / str(case)
            trace.save(out)
            loaded = Trace.load(out)
            label = f"case {case}: {family} dim {dim}, {iterations} iterations, every {every}"
            for name in SCALAR_COLUMNS:
                assert getattr(loaded, name).tobytes() == getattr(trace, name).tobytes(), (label, name)
            rows = iterations + 1
            if len(set(range(0, rows, every)) | {rows - 1}) == rows:
                for name in ("xs", "ys", "zs"):
                    assert getattr(loaded, name).tobytes() == getattr(trace, name).tobytes(), (label, name)
            else:
                assert loaded.xs is None and loaded.ys is None and loaded.zs is None, label
                with pytest.raises(MissingSnapshotError):
                    loaded.require_vectors()
            # a streamed run keeps only the snapshot rows, and writes the same bytes
            streamed_csv = tmp_path / f"{case}-streamed" / "trace.csv"
            stream = (AnalysisStream(problem, [], rng), streamed_csv)
            streamed = _start("fista", problem, x0, "bt", iterations, s_refs, every, stream)
            solver.write_json(streamed_csv.with_name("snapshots.json"), streamed.snapshot_payload())
            # a loaded trace saves the same two files again, sparse snapshots included
            loaded.save(tmp_path / f"{case}-again")
            for name in ("trace.csv", "snapshots.json"):
                want = (out / name).read_bytes()
                assert (tmp_path / f"{case}-streamed" / name).read_bytes() == want, (label, name)
                assert (tmp_path / f"{case}-again" / name).read_bytes() == want, (label, name)


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
    """(problem, x0, s_refs) for the CSV export cases."""
    if name == "feasibility":
        return feasibility_problem(), [5.0, 0.0], S_REFS
    if name == "l1_quadratic":
        problem = l1_quadratic(dim=6, seed=2)
        return problem, np.linspace(-3.0, 3.0, 6), [problem.solution.s_ref]
    problem = random_quadratic(dim=512, seed=1)
    return problem, np.random.default_rng(4).standard_normal(512), [problem.solution.s_ref]


class TestCsvExport:
    ROWS = [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 2]

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("name", ["feasibility", "l1_quadratic", "quadratic"])
    def test_csv_and_columns_equal_whole_array_ones(self, name, rows, tmp_path):
        problem, x0, s_refs = stream_problem(name)
        trace = fista_run(problem, x0, "bt", rows - 1, s_refs=s_refs)
        assert len(trace) == rows
        want = whole_array_columns(problem, trace.ts, trace.xs, trace.ys, trace.s_refs)
        for column, values in want.items():
            assert getattr(trace, column).tobytes() == values.tobytes(), column
        # to_csv formats _CSV_BLOCK rows per call: the text of one call over every row
        whole = ",".join(trace._csv_header()) + "\n" + _csv_chunk(trace._csv_table(0, rows), 0).decode()
        assert trace.to_csv(tmp_path / "trace.csv").read_text() == whole

    @pytest.mark.parametrize("rows", [2, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1])
    @pytest.mark.parametrize("name", ["feasibility", "l1_quadratic", "quadratic"])
    def test_block_edges_equal_the_per_row_writer(self, name, rows, tmp_path):
        problem, x0, s_refs = stream_problem(name)
        trace = fista_run(problem, x0, "bt", rows - 1, s_refs=s_refs)
        assert len(trace) == rows
        assert trace.to_csv(tmp_path / "trace.csv").read_text() == per_row_csv(trace)

    @pytest.mark.parametrize("rows", [2, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1])
    def test_large_finite_start_equals_the_per_row_writer(self, rows, tmp_path):
        # F(x_0) = 3.8e307: the cells with a decimal exponent above 280 are Python's %.17g
        trace = fista_run(random_quadratic(dim=2), [1e154, 1e154], "bt", rows - 1)
        assert len(trace) == rows and trace.F_x[0] > 1e307
        assert trace.to_csv(tmp_path / "trace.csv").read_text() == per_row_csv(trace)

    @pytest.mark.parametrize("row", [_CSV_CHUNK + 100, 2 * _CSV_CHUNK + 1])
    def test_abort_inside_a_block_keeps_the_rows_before_it(self, row, tmp_path):
        with pytest.raises(NonFiniteIterateError) as caught:
            fista_run(counting_feasibility(row), [5.0, 0.0], "bt", 3 * _CSV_CHUNK, s_refs=S_REFS)
        error = caught.value
        assert error.row == row and len(error.trace) == row + 1
        partial = error.trace.to_csv(tmp_path / "partial.csv").read_text().splitlines()
        clean = fista_run(feasibility_problem(), [5.0, 0.0], "bt", 3 * _CSV_CHUNK, s_refs=S_REFS)
        whole = clean.to_csv(tmp_path / "whole.csv").read_text().splitlines()
        assert len(partial) == row + 2 and partial[-1].startswith(f"{row},") and ",nan," in partial[-1]
        assert partial[: row + 1] == whole[: row + 1]

    def test_to_csv_holds_one_block_of_text_at_a_time(self, tmp_path):
        # on this trace, 4096-row calls peaked at 10.2 MiB, 512-row calls at 1.3 MiB and 256-row calls at 0.64 MiB
        trace = fista_run(feasibility_problem(), [5.0, 0.0], "bt", 2 * _CSV_CHUNK + 100, s_refs=S_REFS)
        tracemalloc.start()
        try:
            trace.to_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"peak {peak / 2**20:.2f} MiB"

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


def percent_17g(table: np.ndarray, start: int) -> bytes:
    """Reference: Python's %.17g of every cell, after the row number."""
    rows = table.tolist()
    return "".join(f"{start + k}," + ",".join("%.17g" % v for v in row) + "\n" for k, row in enumerate(rows)).encode()


class TestExactFormat:
    """``_csv_chunk`` makes Python's ``%.17g`` over numpy arrays, byte for byte."""

    @staticmethod
    def values() -> np.ndarray:
        rng = np.random.default_rng(28)
        powers = np.concatenate([[float(f"1e{q}") for q in range(-323, 309)], np.ldexp(1.0, np.arange(-1074, 1024))])
        edges = [
            *(0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2250738585072014e-308),
            *(1.7976931348623157e308, 0.5, 2.5, 1e16, 1e17, 2.0**53, 2.0**53 + 2.0, 12345678901234567.0),
            9.9999999999999996e-281,  # log10 reads -280, and y = h + l has h = 10^16 and l < 0
            *(1e-243, 1e-176, 1e-79),  # each is below its power of 10, and its 17 digits carry into it
            *(9.99e279, 1e280, 9.999999999999999e280, 1e281, -3.3e281),  # either side of |E| = 280
            *(1e-280, 9.99e-281, 1.5e-281, -2.5e-280),
        ]
        sets = [
            rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64),  # every kind of double
            rng.standard_normal(30_000) * 10.0 ** rng.integers(-30, 30, 30_000),
            np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]),
            -powers,
            rng.integers(-(2**40), 2**40, 20_000) / 8.0,
            rng.integers(10**14, 10**15, 5_000) + rng.integers(0, 8, 5_000) / 8.0,  # many 18-digit ties
            rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64),  # subnormals
            rng.random(10_000) * 10.0 ** rng.integers(276, 286, 10_000) * rng.choice([-1.0, 1.0], 10_000),
            rng.random(10_000) * 10.0 ** -rng.integers(276, 286, 10_000),
            edges,
        ]
        values = np.concatenate(sets)
        return np.concatenate([values, np.zeros(-values.size % 8)]).reshape(-1, 8)

    def test_matches_percent_17g_byte_for_byte(self):
        table = self.values()
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start : start + _CSV_BLOCK]
            got, want = _csv_chunk(block, start).split(b"\n"), percent_17g(block, start).split(b"\n")
            assert got == want, next((a, b) for a, b in zip(got, want) if a != b)

    def test_k_is_the_row_number(self):
        assert _csv_chunk(np.array([[0.25], [-0.0]]), 99_999_999) == b"99999999,0.25\n100000000,-0\n"

    def test_threads_growing_the_templates_format_exactly(self, monkeypatch):
        # every thread meets keys no template has yet, on one fresh table
        fmt = solver._Format()
        monkeypatch.setattr(solver, "_format", lambda: fmt)
        rng = np.random.default_rng(6)
        tables = [rng.standard_normal((64, 4)) * 10.0 ** rng.integers(-280, 280, (64, 4)) for _ in range(8)]
        texts = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            work = [lambda i=i: texts.update({i: _csv_chunk(tables[i], 0)}) for i in range(8)]
            threads = [threading.Thread(target=target) for target in work]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [texts.get(i) for i in range(8)] == [percent_17g(table, 0) for table in tables]

    def test_the_power_table_is_built_by_the_first_format_call(self):
        # importing the CLI builds nothing and loads neither fractions nor decimal
        probe = (
            "import sys, numpy, fistalab.cli; from fistalab import solver; "
            "loaded = lambda: (solver._format.cache_info().currsize, 'fractions' in sys.modules, "
            "'decimal' in sys.modules); "
            "before = loaded(); solver._csv_chunk(numpy.ones((1, 1)), 0); print(before, loaded())"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "(0, False, False) (1, False, False)"


class TestSave:
    """``Trace.save`` writes a library trace's trace.csv and snapshots.json."""

    @pytest.mark.parametrize("runner", [fista_run, pgm_run, nesterov_run], ids=lambda r: r.__name__)
    def test_writes_to_csv_and_the_snapshot_payload(self, runner, tmp_path):
        if runner is nesterov_run:  # it needs g = 0
            problem = random_quadratic(dim=3, seed=0)
            x0, s_refs = [1.0, -2.0, 3.0], [problem.solution.s_ref]
        else:
            problem, x0, s_refs = feasibility_problem(), [5.0, 0.0], S_REFS
        args = (600,) if runner is pgm_run else ("bt", 600)
        trace = runner(problem, x0, *args, s_refs=s_refs, snapshot_every=7)
        out = tmp_path / "out"
        assert trace.save(out) == {"trace": out / "trace.csv", "snapshots": out / "snapshots.json"}
        assert sorted(p.name for p in out.iterdir()) == ["snapshots.json", "trace.csv"]
        assert (out / "trace.csv").read_bytes() == trace.to_csv(tmp_path / "want.csv").read_bytes()
        assert (out / "snapshots.json").read_text() == solver.strict_json(trace.snapshot_payload())

    @pytest.mark.parametrize("bad_block", [0, 1, 2])
    def test_failed_format_leaves_the_previous_files(self, bad_block, tmp_path, monkeypatch):
        out = tmp_path / "out"
        fista_run(feasibility_problem(), [5.0, 0.0], "bt", 100, s_refs=S_REFS).save(out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        trace = fista_run(feasibility_problem(), [5.0, 0.0], "bt", 2 * _CSV_BLOCK + 100, s_refs=S_REFS)
        starts, chunk = [], solver._csv_chunk

        def failing_chunk(table, start):
            starts.append(start)
            if len(starts) == bad_block + 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return chunk(table, start)

        monkeypatch.setattr(solver, "_csv_chunk", failing_chunk)
        with pytest.raises(OSError, match="No space left"):
            trace.save(out)
        assert starts == [k * _CSV_BLOCK for k in range(bad_block + 1)]
        # no temporary file is left, and neither artifact is replaced
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_formats_through_to_csv(self, tmp_path, monkeypatch):
        # a profiler times the formatter by wrapping Trace.to_csv, so save must call it
        paths, to_csv = [], Trace.to_csv
        monkeypatch.setattr(Trace, "to_csv", lambda self, path: paths.append(Path(path)) or to_csv(self, path))
        trace = fista_run(feasibility_problem(), [5.0, 0.0], "bt", 10)
        trace.save(tmp_path)
        assert len(paths) == 1 and paths[0].parent == tmp_path and paths[0].name.endswith(".tmp")


class TestObjectiveLookBack:
    @pytest.mark.parametrize("dim", [512, 700])
    def test_short_last_chunk_is_bit_equal_to_one_evaluation(self, dim):
        # a BLAS-backed F may round the rows of a call of 1-3 rows differently;
        # on these rows, F over the last chunk's own rows alone differs at
        # (dim, tail) = (512, 3) and (700, 1) on OpenBLAS
        problem = random_quadratic(dim=dim, seed=1)
        every = np.random.default_rng(2).standard_normal((_CSV_CHUNK + 8, dim))
        for tail in (1, 3, 8):
            rows = _CSV_CHUNK + tail
            xs = every[:rows].copy()
            trace = _empty_trace(problem, np.ones(rows), "pgm", "constant-1", None, 1)
            window = RowWindow(xs, xs.copy(), np.empty_like(xs))
            _fill_rows(trace, window, problem, 0, _CSV_CHUNK)
            _fill_rows(trace, window, problem, _CSV_CHUNK, rows)
            assert trace.F_x.tobytes() == _objective_rows(problem, xs).tobytes(), tail


class TestPartialTraceMemory:
    def test_partial_columns_own_their_rows(self):
        with pytest.raises(NonFiniteIterateError) as info:
            fista_run(feasibility_problem(), [1.7e308, 1.7e308], "bt", 100000, s_refs=S_REFS)
        partial = info.value.trace
        assert len(partial) == 2
        for name in _ROW_COLUMNS:
            column = getattr(partial, name)
            assert column.base is None or column.base.shape == column.shape, name
