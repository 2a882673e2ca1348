import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from fistalab import (
    MissingSnapshotError,
    ScalarSeq,
    Trace,
    feasibility_problem,
    fista_run,
    inner_product_seq,
    l1_quadratic,
    momentum_identity_residual,
    orthonormal_span_basis,
    pgm_run,
    span_projection,
    verdict,
    xi_difference,
)
from fistalab.checks import ANALYSES, run_analyses


def synthetic_trace(xs, ts):
    """Trace whose y/z columns are derived so every structural identity holds."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    rows = xs.shape[0]
    zs = np.empty_like(xs)
    zs[0] = xs[0]
    zs[1:] = (1.0 - ts[:-1, None]) * xs[:-1] + ts[:-1, None] * xs[1:]
    ys = (zs - (1.0 - ts[:, None]) * xs) / ts[:, None]
    blank = np.zeros(rows)
    return Trace(
        kind="synthetic",
        problem_id="synthetic",
        schedule_id="explicit",
        beta=1.0,
        mu=None,
        ts=ts,
        F_x=blank,
        res_zdef=blank,
        res_convex=blank,
        res_suffdec=blank,
        gap_xy=np.linalg.norm(ys - xs, axis=1),
        norm_x=np.linalg.norm(xs, axis=1),
        norm_z=np.linalg.norm(zs, axis=1),
        xs=xs,
        ys=ys,
        zs=zs,
    )


@pytest.fixture(scope="module")
def feas_trace():
    return fista_run(
        feasibility_problem(), [5.0, 0.0], "bt", 3000, s_refs=[[0.0, 1.0], [1.0, 0.0]]
    )


class TestInnerProductSeq:
    def test_zero_direction(self, feas_trace):
        seq = inner_product_seq(feas_trace, "x", [0.0, 0.0])
        assert np.all(seq.values == 0.0)

    def test_constant_trace_gives_constant_sequence(self):
        trace = pgm_run(feasibility_problem(), [0.5, 0.5], 20)
        seq = inner_product_seq(trace, "x", [2.0, -1.0])
        assert np.all(seq.values == seq.values[0])

    def test_converges_toward_reported_limit(self, feas_trace):
        seq = inner_product_seq(feas_trace, "x", [1.0, -1.0])
        v = verdict(seq, window=100, tol=1e-3)
        assert v.converged
        assert v.limit_estimate == pytest.approx(-0.0342, abs=2e-3)

    def test_which_is_validated(self, feas_trace):
        with pytest.raises(ValueError):
            inner_product_seq(feas_trace, "w", [1.0, 0.0])

    def test_missing_snapshots_raise(self, feas, tmp_path):
        fista_run(feas, [5.0, 0.0], "bt", 30, snapshot_every=7).save(tmp_path)
        sparse = Trace.load(tmp_path)
        with pytest.raises(MissingSnapshotError, match="snapshot_every"):
            inner_product_seq(sparse, "x", [1.0, 0.0])


class TestMomentumIdentity:
    def test_zero_direction_zero_residual(self, feas_trace):
        assert momentum_identity_residual(feas_trace, [0.0, 0.0]) == 0.0

    def test_hand_built_linear_trace(self):
        # x_k = k with t_k = k+1 makes both sides equal 2k+1 exactly
        rows = 12
        xs = np.arange(rows, dtype=float)[:, None]
        ts = np.arange(rows, dtype=float) + 1.0
        trace = synthetic_trace(xs, ts)
        assert np.allclose(trace.zs[1:, 0], 2.0 * np.arange(rows - 1) + 1.0, atol=0)
        assert momentum_identity_residual(trace, [1.0]) <= 1e-12

    def test_real_trace_residual_is_scaled_roundoff(self, feas_trace):
        d = np.array([1.0, -1.0])
        res = momentum_identity_residual(feas_trace, d)
        scale = max(1.0, float(np.linalg.norm(d)) * float(np.max(feas_trace.norm_x)))
        assert res <= 1e-9 * scale

    def test_linearity_in_direction(self, feas_trace, rng):
        d = rng.standard_normal(2)
        r1 = momentum_identity_residual(feas_trace, d)
        r2 = momentum_identity_residual(feas_trace, 2.0 * d)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9, abs=1e-18)

    def test_check_probes_pair_then_seeded_draws(self, feas_trace):
        # two s_refs give one pair direction; the rest are standard normal draws
        results = ANALYSES["momentum_identity"](
            feas_trace, None, {"count": 3}, np.random.default_rng(3)
        )
        draws = np.random.default_rng(3)
        s0, s1 = feas_trace.s_refs
        directions = [s0 - s1, draws.standard_normal(2), draws.standard_normal(2)]
        sup_x = float(np.max(feas_trace.norm_x))
        for r, d in zip(results, directions, strict=True):
            scale = max(1.0, float(np.linalg.norm(d)) * sup_x)
            assert r.residual_or_oscillation == momentum_identity_residual(feas_trace, d) / scale


class TestVerdict:
    def test_constant_sequence(self):
        v = verdict(ScalarSeq(np.full(50, 3.25)), window=10, tol=0.0)
        assert v.converged and v.limit_estimate == 3.25 and v.tail_oscillation == 0.0

    def test_persistent_oscillation(self):
        seq = ScalarSeq((-1.0) ** np.arange(40))
        v = verdict(seq, window=10, tol=0.1)
        assert not v.converged
        assert v.tail_oscillation == 2.0

    def test_one_over_k_tail(self):
        ks = np.arange(1, 10_101)
        v = verdict(ScalarSeq(1.0 / ks), window=100, tol=1e-3)
        assert v.converged
        assert v.limit_estimate == pytest.approx(1e-4, rel=0.02)

    def test_infinite_tail_flagged_not_raised(self):
        vals = np.ones(30)
        vals[-3] = math.inf
        v = verdict(ScalarSeq(vals), window=10, tol=1.0)
        assert not v.converged and not v.finite_tail
        assert math.isnan(v.limit_estimate)

    def test_monotone_in_tol(self, rng):
        seq = ScalarSeq(rng.standard_normal(60) * 1e-4 + 2.0)
        for tol in (1e-6, 1e-4, 1e-2, 1.0):
            if verdict(seq, window=20, tol=tol).converged:
                assert verdict(seq, window=20, tol=10 * tol).converged

    def test_window_preconditions(self):
        seq = ScalarSeq(np.arange(10.0))
        with pytest.raises(ValueError):
            verdict(seq, window=1, tol=1.0)
        with pytest.raises(ValueError):
            verdict(seq, window=6, tol=1.0)


class TestSpanProjection:
    def test_coordinate_projection(self):
        out = span_projection([np.array([1.0, 0.0])], [np.array([3.0, 4.0])])
        assert np.allclose(out[0], [3.0, 0.0], atol=1e-14)

    def test_rank_deficient_spanning_set(self):
        out = span_projection(
            [np.array([1.0, 1.0]), np.array([2.0, 2.0])], [np.array([1.0, 0.0])]
        )
        assert np.allclose(out[0], [0.5, 0.5], atol=1e-12)

    def test_full_rank_projection_is_identity(self, rng):
        spanning = [rng.standard_normal(3) for _ in range(3)]
        x = rng.standard_normal(3)
        out = span_projection(spanning, [x])
        assert np.allclose(out[0], x, atol=1e-10)

    def test_all_zero_spanning_set_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_span_basis([np.zeros(4), np.zeros(4)])

    def test_random_combination_of_converging_coefficients_converges(self, feas_trace, rng):
        # convergence of <x_k, b_i> on a basis extends to any fixed combination
        basis = orthonormal_span_basis([np.array([1.0, -1.0])])
        for _ in range(5):
            combo = float(rng.uniform(-3.0, 3.0)) * basis[0]
            seq = inner_product_seq(feas_trace, "x", combo)
            assert verdict(seq, window=100, tol=1e-3).converged

    def test_projector_laws_on_random_data(self, rng):
        for trial in range(20):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(1, dim + 2))
            spanning = [rng.standard_normal(dim) for _ in range(count)]
            if trial % 3 == 0:  # force rank deficiency
                spanning.append(spanning[0] * 2.0 - spanning[-1])
            basis = orthonormal_span_basis(spanning)
            proj = basis.T @ basis
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            assert np.linalg.norm(proj @ (proj @ u) - proj @ u) <= 1e-10
            assert abs((proj @ u) @ v - u @ (proj @ v)) <= 1e-10


def cluster_products(trace, pairs, window, tol):
    """The `cluster_products` check on <x_k, w1 - w2> for each pair (w1, w2)."""
    params = {"directions": [w1 - w2 for w1, w2 in pairs], "window": window, "tol": tol}
    return ANALYSES["cluster_products"](trace, None, params, None)


class TestClusterProducts:
    def test_identical_pair_trivially_converges(self, feas_trace):
        w = np.array([0.3, 0.7])
        results = cluster_products(feas_trace, [(w, w)], window=50, tol=0.0)
        assert [r.passed for r in results] == [True]

    def test_segment_endpoints_converge(self, feas_trace):
        results = cluster_products(
            feas_trace, [(np.array([0.0, 1.0]), np.array([1.0, 0.0]))], window=100, tol=1e-3
        )
        assert [r.passed for r in results] == [True]

    def test_alternating_trace_fails(self):
        rows = 40
        xs = np.column_stack([(-1.0) ** np.arange(rows), np.zeros(rows)])
        trace = synthetic_trace(xs, np.arange(rows, dtype=float) / 2.0 + 1.0)
        results = cluster_products(
            trace, [(np.array([1.0, 0.0]), np.array([0.0, 0.0]))], window=10, tol=0.5
        )
        assert [r.passed for r in results] == [False]


def with_inf_row(trace, k):
    """The trace with row k of its norm, gap and z-definition columns set to inf."""
    columns = {}
    for name in ("norm_x", "norm_z", "gap_xy", "res_zdef"):
        col = getattr(trace, name).copy()
        col[k] = math.inf
        columns[name] = col
    return dataclasses.replace(trace, **columns)


class TestNoVacuousPass:
    ANALYSIS_NAMES = ("structural", "gap_decay", "bounded_iterates")
    GUARDED = {"z-definition", "z-recursion", "convex-combination", "gap-bound", "bounded-iterates"}

    def run(self, trace):
        results = run_analyses(trace, None, self.ANALYSIS_NAMES, None)
        return {r.claim: r for r in results}

    def test_finite_trace_passes(self, feas_trace):
        results = self.run(feas_trace)
        assert set(results) == self.GUARDED | {"gap-decay"}
        assert all(r.passed for r in results.values())

    def test_injected_inf_row_fails_with_nan(self, feas_trace):
        results = self.run(with_inf_row(feas_trace, len(feas_trace) // 2))
        for claim in self.GUARDED:
            assert not results[claim].passed, claim
            assert math.isnan(results[claim].residual_or_oscillation), claim

    def test_nonfinite_values_serialize_as_tagged_null(self, feas_trace):
        results = self.run(with_inf_row(feas_trace, 7))
        payload = results["bounded-iterates"].to_json()
        assert payload["residual_or_oscillation"] is None
        assert payload["details"] == {"sup_x": None, "cap": None}
        assert payload["nonfinite"] == {
            "residual_or_oscillation": "nan",
            "details.sup_x": "inf",
            "details.cap": "inf",
        }
        json.dumps([r.to_json() for r in results.values()], allow_nan=False)

    def sufficient_decrease(self, trace, probes=20):
        check = ANALYSES["sufficient_decrease"]
        (result,) = check(trace, feasibility_problem(), {"probes": probes}, np.random.default_rng(0))
        return result

    def test_sufficient_decrease_passes_with_probes(self, feas_trace):
        result = self.sufficient_decrease(feas_trace)
        assert result.passed
        assert math.isfinite(result.residual_or_oscillation)

    def test_sufficient_decrease_without_probes_fails(self, feas_trace):
        result = self.sufficient_decrease(feas_trace, probes=0)
        assert not result.passed
        assert math.isnan(result.residual_or_oscillation)

    def test_overflowing_start_fails_momentum_and_rate_checks(self):
        # ||x_0|| = inf: the momentum scale ||d|| sup ||x_k|| and the rate bound are infinite
        problem = l1_quadratic(dim=2)
        trace = fista_run(problem, [1e308, -1e308], "bt", 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_analyses(
                trace, problem, ["momentum_identity", "rate_bound"], np.random.default_rng(0)
            )
        assert [r.claim for r in results] == [
            "momentum-identity[d0]",
            "momentum-identity[d1]",
            "momentum-identity[d2]",
            "rate-bound",
        ]
        for result in results:
            assert not result.passed, result.claim
            assert math.isnan(result.residual_or_oscillation), result.claim

    def test_sufficient_decrease_nan_slack_fails(self, feas_trace):
        F_x = feas_trace.F_x.copy()
        F_x[-1] = math.nan  # the last row is always among the sampled steps
        result = self.sufficient_decrease(dataclasses.replace(feas_trace, F_x=F_x))
        assert not result.passed
        assert math.isnan(result.residual_or_oscillation)


class TestXiDifference:
    def test_gap_terms_cancel(self, feas_trace):
        # difference of xi columns equals beta * affine function of <z, s2 - s1>
        seq = xi_difference(feas_trace, 0, 1)
        s0, s1 = feas_trace.s_refs[0], feas_trace.s_refs[1]
        direct = 0.5 * feas_trace.beta * (
            np.sum((feas_trace.zs[1:] - s0) ** 2, axis=1)
            - np.sum((feas_trace.zs[1:] - s1) ** 2, axis=1)
        )
        assert np.allclose(seq.values, direct, atol=1e-9)

    def test_difference_sequence_settles(self, feas_trace):
        seq = xi_difference(feas_trace, 0, 1)
        tol = 1e-4 * max(1.0, abs(feas_trace.xi[1, 0]), abs(feas_trace.xi[1, 1]))
        assert verdict(seq, window=100, tol=tol).converged

    def test_requires_xi_columns(self):
        trace = synthetic_trace(np.zeros((10, 2)), np.ones(10))
        with pytest.raises(ValueError):
            xi_difference(trace, 0, 1)


def with_inf_row_everywhere(trace, k):
    """The trace with row k of every vector and derived column set to inf (t_k kept)."""
    columns = {}
    for name in ("xs", "ys", "zs", "F_x", "delta", "xi", "res_zdef", "res_convex", "res_suffdec",
                 "gap_xy", "norm_x", "norm_z"):
        col = getattr(trace, name).copy()
        col[k] = math.inf
        columns[name] = col
    return dataclasses.replace(trace, **columns)


PROBE = [[1.0, -1.0]]
# analysis -> (params, claims that fail on the overflowing start, claims that fail on an inf row).
# Verdict tolerances are loose so that on finite input every claim passes and a failure
# below is caused by the non-finite values alone.
NONFINITE_CASES = {
    "structural": (
        {},
        {"z-definition", "z-recursion", "convex-combination"},
        {"z-definition", "z-recursion", "convex-combination"},
    ),
    "momentum_identity": (
        {},
        {"momentum-identity[d0]", "momentum-identity[d1]", "momentum-identity[d2]"},
        {"momentum-identity[d0]", "momentum-identity[d1]", "momentum-identity[d2]"},
    ),
    "rate_bound": ({}, {"rate-bound"}, {"rate-bound"}),
    # xi is defined from k = 1, and on the overflowing start x_1 is already the minimizer
    "xi_monotone": (
        {},
        {"xi-initial-bound[s0]", "xi-initial-bound[s1]"},
        {"xi-monotone[s0]", "xi-nonnegative[s0]", "xi-monotone[s1]", "xi-nonnegative[s1]"},
    ),
    "sufficient_decrease": ({}, {"sufficient-decrease"}, {"sufficient-decrease"}),
    # the deciles of gap_xy that gap-decay compares are finite in both cases
    "gap_decay": ({}, {"gap-bound"}, {"gap-bound"}),
    "bounded_iterates": ({}, {"bounded-iterates"}, {"bounded-iterates"}),
    "cluster_products": (
        {"directions": PROBE, "window": 20, "tol": 1.0},
        {"cluster-product[d0]"},
        {"cluster-product[d0]"},
    ),
    "xi_difference": ({"window": 20, "tol": 1.0}, set(), {"xi-difference[s0,s1]"}),
    # the unit basis vector keeps <x_0, b> finite at the overflowing start
    "span": ({"directions": PROBE, "window": 20, "tol": 1.0}, set(), {"span-coefficient[0]"}),
    "final_point": ({"tol": 1e-3}, set(), set()),
}


class TestNonFiniteInputTable:
    """Every analysis on an overflowing start and on an inf row: no PASS on a non-finite value."""

    @pytest.fixture(scope="class")
    def inputs(self):
        l1 = l1_quadratic(dim=2)
        feas = feasibility_problem()
        finite = fista_run(feas, [5.0, 0.0], "bt", 400, s_refs=[[0.0, 1.0], [1.0, 0.0]])
        # the sampled steps of sufficient_decrease include k = 201, which reads x_202
        inf_row = with_inf_row_everywhere(finite, 202)
        overflow = fista_run(l1, [1e308, -1e308], "bt", 200, s_refs=[[0.0, 0.0], [0.0, 0.0]])
        return {"finite": (finite, feas), "inf-row": (inf_row, feas), "overflow": (overflow, l1)}

    def test_table_covers_every_analysis(self):
        assert set(NONFINITE_CASES) == set(ANALYSES)

    @pytest.mark.parametrize("case", ["finite", "overflow", "inf-row"])
    @pytest.mark.parametrize("name", sorted(NONFINITE_CASES))
    def test_fails_exactly_where_a_value_is_not_finite(self, name, case, inputs):
        trace, problem = inputs[case]
        params, fail_overflow, fail_inf_row = NONFINITE_CASES[name]
        params = dict(params, name=name)
        if name == "final_point":
            params["target"] = trace.xs[-1].tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_analyses(trace, problem, [params], np.random.default_rng(0))
        expected = {"finite": set(), "overflow": fail_overflow, "inf-row": fail_inf_row}[case]
        assert {r.claim for r in results if not r.passed} == expected
        for r in results:
            numbers = [r.residual_or_oscillation, r.tol, *r.details.values()]
            floats = [v for v in numbers if isinstance(v, float)]
            if r.passed:
                assert all(math.isfinite(v) for v in floats), r.claim
            else:
                assert math.isnan(r.residual_or_oscillation), r.claim
