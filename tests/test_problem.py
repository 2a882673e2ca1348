import math
import warnings

import numpy as np
import pytest

from fistalab import (
    CompositeProblem,
    DimensionMismatchError,
    NonsmoothPart,
    SmoothPart,
    as_vector,
    check_lipschitz,
    eval_F,
    feasibility_problem,
    finite_difference_gradient,
    fista_run,
    l1_quadratic,
    random_quadratic,
    zero_part,
)
from fistalab.problem import _objective_rows


def identity_quadratic(beta=1.0):
    """f = beta/2 ||x||^2 with gradient beta*x."""
    f = SmoothPart(
        value=lambda x: 0.5 * beta * np.sum(x * x, axis=-1), gradient=lambda x: beta * x, beta=beta
    )
    return CompositeProblem(f=f, g=zero_part(), dim=2, problem_id="halfsq")


class TestEvalF:
    def test_point_in_both_sets(self, feas):
        # f vanishes inside the orthant, the line indicator vanishes on the line
        assert eval_F(feas, [0.5, 0.5]) == 0.0

    def test_indicator_off_its_set(self, feas):
        assert eval_F(feas, [5.0, 0.0]) == math.inf

    def test_off_orthant_on_line(self, feas):
        # hand evaluation: nearest orthant point of (2,-1) is (2,0), distance 1
        assert eval_F(feas, [2.0, -1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_overflowing_point_is_off_the_line(self, feas):
        # x1 + x2 overflows to inf; the scaled tolerance must not admit it
        with np.errstate(over="ignore"):
            assert eval_F(feas, [1.7e308, 1.7e308]) == math.inf

    def test_dimension_mismatch_is_hard_error(self, feas):
        with pytest.raises(DimensionMismatchError):
            eval_F(feas, [1.0, 2.0, 3.0])

    def test_never_nan_and_inf_only_from_g(self, any_problem, rng):
        for _ in range(50):
            x = 3.0 * rng.standard_normal(any_problem.dim)
            val = eval_F(any_problem, x)
            assert not math.isnan(val)
            assert (val == math.inf) == (any_problem.g.value(x) == math.inf)

    def test_probes_respect_optimal_value(self, any_problem, rng):
        mu = any_problem.solution.mu
        for _ in range(100):
            x = 2.0 * rng.standard_normal(any_problem.dim)
            assert eval_F(any_problem, x) >= mu - 1e-12 * max(1.0, abs(mu))


def scalar_F(problem, x) -> float:
    """Reference: the one-vector rule F followed before rows were evaluated at once."""
    gv = float(problem.g.value(x))
    if gv == math.inf:
        return math.inf
    return float(problem.f.value(x)) + gv


def sample_rows(problem, rng) -> np.ndarray:
    """Trace rows, random points and (for indicator-type g) infeasible rows."""
    trace = fista_run(problem, 3.0 * rng.standard_normal(problem.dim), "bt", 300)
    return np.vstack([trace.xs, 4.0 * rng.standard_normal((50, problem.dim))])


class TestRowEvaluator:
    @pytest.mark.parametrize("problem", [feasibility_problem(), l1_quadratic(dim=6, seed=1)])
    def test_bit_equal_to_per_row_evaluation(self, problem, rng):
        rows = sample_rows(problem, rng)
        got = _objective_rows(problem, rows)
        assert np.array_equal(got, [scalar_F(problem, x) for x in rows])
        assert np.array_equal(got, [eval_F(problem, x) for x in rows])

    def test_feasibility_sample_has_infinite_and_finite_rows(self, rng):
        got = _objective_rows(feasibility_problem(), sample_rows(feasibility_problem(), rng))
        assert np.isinf(got).sum() >= 50 and np.isfinite(got).sum() >= 300

    def test_quadratic_matrix_product_within_tolerance(self, rng):
        problem = random_quadratic(dim=7, seed=5)
        rows = sample_rows(problem, rng)
        want = np.array([scalar_F(problem, x) for x in rows])
        got = _objective_rows(problem, rows)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_nan_from_either_part_is_an_error(self):
        nan_g = CompositeProblem(
            f=identity_quadratic().f,
            g=NonsmoothPart(value=lambda x: np.full(x.shape[:-1], np.nan), prox=lambda v, s: v),
            dim=2,
        )
        with pytest.raises(ValueError, match="nonsmooth part evaluated to NaN"):
            _objective_rows(nan_g, np.ones((3, 2)))
        nan_f = CompositeProblem(
            f=SmoothPart(value=lambda x: x[..., 0] * np.nan, gradient=lambda x: x, beta=1.0),
            g=zero_part(),
            dim=2,
        )
        with pytest.raises(ValueError, match="objective evaluated to NaN"):
            eval_F(nan_f, [1.0, 2.0])

    def test_constant_value_is_an_error_naming_the_part(self):
        # one value per row: a scalar is not taken as a constant
        problem = CompositeProblem(
            f=identity_quadratic().f,
            g=NonsmoothPart(value=lambda x: 0.0, prox=lambda v, s: v),
            dim=2,
        )
        with pytest.raises(ValueError, match=r"^nonsmooth part value has shape \(\), expected \(4,\)$"):
            _objective_rows(problem, np.arange(8.0).reshape(4, 2))

    @pytest.mark.parametrize(
        "value, part",
        [
            (lambda x: np.zeros(x.shape), "smooth part"),  # one value per coordinate
            (lambda x: 0.5 * float(np.sum(x * x)), "smooth part"),  # sums over all rows
            (lambda x: 0.5 * float(x @ x), "smooth part"),  # one-vector only
        ],
    )
    def test_wrong_shape_is_an_error_naming_the_part(self, value, part):
        problem = CompositeProblem(
            f=SmoothPart(value=value, gradient=lambda x: x, beta=1.0), g=zero_part(), dim=2
        )
        with pytest.raises(ValueError, match=part):
            _objective_rows(problem, np.arange(6.0).reshape(3, 2))

    def test_wrong_shape_from_nonsmooth_part(self):
        problem = CompositeProblem(
            f=identity_quadratic().f,
            g=NonsmoothPart(value=lambda x: np.zeros((1, 1)), prox=lambda v, s: v),
            dim=2,
        )
        with pytest.raises(ValueError, match="nonsmooth part"):
            eval_F(problem, [1.0, 1.0])


class TestVectors:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_vector([1.0, math.nan])
        with pytest.raises(ValueError):
            as_vector([math.inf, 0.0])

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError):
            as_vector([])
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            SmoothPart(value=lambda x: 0.0, gradient=lambda x: x, beta=0.0)


class TestSolutionDistance:
    def test_rescales_only_where_the_norm_overflows(self):
        sol = random_quadratic(dim=2).solution
        for x in ([1.0, 2.0], [1e150, -3e150]):
            assert sol.distance(x) == float(np.linalg.norm(np.asarray(x) - sol.s_ref))  # the same bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sol.distance([1e200, 1e200]) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
            assert sol.distance([1.5e308, 1.5e308]) == math.inf  # 2.1e308 exceeds the largest float


class TestLipschitz:
    def test_identity_gradient_ratio_exactly_one(self):
        problem = identity_quadratic(beta=1.0)
        pairs = [(np.array([1.0, 2.0]), np.array([-3.0, 0.5])), (np.zeros(2), np.ones(2))]
        report = check_lipschitz(problem, pairs)
        assert report.max_ratio == pytest.approx(1.0, abs=1e-15)
        assert report.passed

    def test_feasibility_distance_gradient_is_one_lipschitz(self, feas):
        report = check_lipschitz(feas, [(np.array([5.0, 0.0]), np.array([3.0, -2.0]))])
        assert report.max_ratio <= 1.0 + 1e-12
        assert report.passed

    def test_misdeclared_beta_fails(self):
        problem = CompositeProblem(
            f=SmoothPart(
                value=lambda x: 0.5 * np.sum(x * x, axis=-1), gradient=lambda x: x, beta=0.5
            ),
            g=zero_part(),
            dim=2,
        )
        report = check_lipschitz(problem, [(np.zeros(2), np.ones(2))])
        assert report.max_ratio == pytest.approx(1.0)
        assert not report.passed

    def test_coincident_pairs_skipped(self):
        problem = identity_quadratic()
        u = np.array([1.0, 1.0])
        report = check_lipschitz(problem, [(u, u), (u, 2 * u)])
        assert report.pairs_used == 1

    def test_all_coincident_is_error(self):
        problem = identity_quadratic()
        u = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            check_lipschitz(problem, [(u, u)])

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_nan_quotient_fails(self, nan_first):
        # the gradient is NaN beyond x_0 = 1.5, so one of the two pairs has a NaN quotient
        f = SmoothPart(
            value=lambda x: 0.5 * np.sum(x * x, axis=-1),
            gradient=lambda x: np.full_like(x, math.nan) if x[0] > 1.5 else x,
            beta=1.0,
        )
        problem = CompositeProblem(f=f, g=zero_part(), dim=2)
        pairs = [(np.zeros(2), np.ones(2)), (np.full(2, 2.0), np.full(2, 3.0))]
        report = check_lipschitz(problem, pairs[::-1] if nan_first else pairs)
        assert math.isnan(report.max_ratio)
        assert report.pairs_used == 2
        assert not report.passed


class TestGradientOracle:
    def test_gradient_matches_finite_differences(self, any_problem, rng):
        f = any_problem.f
        for _ in range(20):
            x = 2.0 * rng.standard_normal(any_problem.dim)
            fd = finite_difference_gradient(f.value, x)
            grad = f.gradient(x)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(fd - grad) / scale <= 1e-5


class TestProxOracle:
    def test_prox_minimizes_its_objective(self, any_problem, rng):
        # prox output must beat random perturbations on g(u) + ||u-v||^2/(2 step)
        g = any_problem.g
        for _ in range(30):
            v = 2.0 * rng.standard_normal(any_problem.dim)
            step = float(rng.uniform(0.1, 3.0))
            p = np.asarray(g.prox(v, step), dtype=float)
            best = g.value(p) + float(np.sum((p - v) ** 2)) / (2.0 * step)
            for _ in range(10):
                u = p + rng.standard_normal(any_problem.dim) * rng.uniform(0.01, 2.0)
                # raw perturbation, plus a feasible one for indicator-type g
                for cand in (u, np.asarray(g.prox(u, step), dtype=float)):
                    candidate = g.value(cand) + float(np.sum((cand - v) ** 2)) / (2.0 * step)
                    assert best <= candidate + 1e-9
