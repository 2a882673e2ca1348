import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from fistalab import (
    MissingSnapshotError,
    ScalarSeq,
    Schedule,
    Trace,
    feasibility_problem,
    fista_run,
    inner_product_seq,
    l1_quadratic,
    momentum_identity_residual,
    orthonormal_span_basis,
    pgm_run,
    random_quadratic,
    verdict,
    xi_difference,
)
from fistalab.checks import _FOLDS, ANALYSES, AnalysisStream, _spaced_steps


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
        results = ANALYSES["momentum_identity"](feas_trace, None, {}, np.random.default_rng(3))
        draws = np.random.default_rng(3)
        s0, s1 = feas_trace.s_refs
        directions = [s0 - s1, draws.standard_normal(2), draws.standard_normal(2)]
        sup_x = float(np.max(feas_trace.norm_x))
        for r, d in zip(results, directions, strict=True):
            scale = max(1.0, float(np.linalg.norm(d)) * sup_x)
            assert r.residual_or_oscillation == momentum_identity_residual(feas_trace, d) / scale

    @pytest.mark.parametrize("run", ["pgm", "t0-below-one"])
    def test_fold_equals_the_residual_where_phi_is_zero_or_negative(self, run):
        # phi_k = t_k - 1 is 0 on every PGM row; an admissible explicit t_0 = 1 - 1e-13 makes phi_0 < 0.
        # 5000 rows cross a block boundary of the fold.
        feas = feasibility_problem()
        refs = [[0.0, 1.0], [1.0, 0.0]]
        if run == "pgm":
            trace = pgm_run(feas, [5.0, 0.0], 5000, s_refs=refs)
        else:
            ts = np.array(Schedule("bt").prefix(5000))
            ts[0] = 1.0 - 1e-13
            trace = fista_run(feas, [5.0, 0.0], ts, 5000, s_refs=refs)
        assert np.min(trace.ts[:-1] - 1.0) <= 0.0
        results = ANALYSES["momentum_identity"](trace, None, {}, np.random.default_rng(3))
        draws = np.random.default_rng(3)
        s0, s1 = trace.s_refs
        directions = [s0 - s1, draws.standard_normal(2), draws.standard_normal(2)]
        sup_x = float(np.max(trace.norm_x))
        for r, d in zip(results, directions, strict=True):
            scale = max(1.0, float(np.linalg.norm(d)) * sup_x)
            assert r.passed
            assert r.residual_or_oscillation == momentum_identity_residual(trace, d) / scale


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
        assert not v.converged
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
    def test_identical_pair_is_refused(self, feas_trace):
        # its products are all 0.0, so the verdict used to pass at any tol
        w = np.array([0.3, 0.7])
        with pytest.raises(ValueError, match="cluster_products: direction d0 has norm 0, below the rank tolerance"):
            cluster_products(feas_trace, [(w, w)], window=50, tol=0.0)

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
        results = AnalysisStream(None, self.ANALYSIS_NAMES, None).fold(trace)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_bounded_iterates_fails_on_a_non_finite_sup_z(self, value):
        # Python's max(||x_0||, nan) kept ||x_0||, so a NaN sup ||z_k|| used to pass
        trace = fista_run(feasibility_problem(), [5.0, 0.0], "bt", 50)
        norm_z = trace.norm_z.copy()
        norm_z[25] = value
        (result,) = ANALYSES["bounded_iterates"](
            dataclasses.replace(trace, norm_z=norm_z), None, {}, np.random.default_rng(0)
        )
        assert not result.passed
        assert math.isnan(result.residual_or_oscillation)

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

    def sufficient_decrease(self, trace, problem=None):
        check = ANALYSES["sufficient_decrease"]
        (result,) = check(trace, problem or feasibility_problem(), {}, np.random.default_rng(0))
        return result

    def test_sufficient_decrease_passes_with_probes(self, feas_trace):
        result = self.sufficient_decrease(feas_trace)
        assert result.passed
        assert math.isfinite(result.residual_or_oscillation)

    def test_sufficient_decrease_without_probes_fails(self, feas_trace):
        # every probe is drawn through g's prox; a prox that gives NaN leaves no usable probe
        feas = feasibility_problem()
        nan_prox = dataclasses.replace(feas.g, prox=lambda v, step: np.full(np.shape(v), np.nan))
        result = self.sufficient_decrease(feas_trace, dataclasses.replace(feas, g=nan_prox))
        assert not result.passed
        assert math.isnan(result.residual_or_oscillation)

    def test_sufficient_decrease_skips_a_probe_whose_value_is_nan(self, feas_trace):
        # eval_F raised on a NaN probe value, which failed the set-up of the whole run
        feas = feasibility_problem()
        value = feas.f.value
        nan_far_out = lambda x: np.where(x[..., 0] > 2.0, np.nan, value(x))  # noqa: E731
        problem = dataclasses.replace(feas, f=dataclasses.replace(feas.f, value=nan_far_out))
        stream = AnalysisStream(problem, ["sufficient_decrease"], np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = stream.fold(feas_trace)
        kept = [probe for probe, _ in stream._folds[0].probes]
        assert 0 < len(kept) < 20 and all(probe[0] <= 2.0 for probe in kept)
        assert result.passed and math.isfinite(result.residual_or_oscillation)

    def test_overflowing_start_fails_momentum_and_rate_checks(self):
        # ||x_0|| = 2.1e308 > the largest float: the momentum scale ||d|| sup ||x_k|| and the rate bound are infinite
        problem = l1_quadratic(dim=2)
        trace = fista_run(problem, [1.5e308, -1.5e308], "bt", 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = AnalysisStream(
                problem, ["momentum_identity", "rate_bound"], np.random.default_rng(0)
            ).fold(trace)
        assert [r.claim for r in results] == [
            "momentum-identity[d0]",
            "momentum-identity[d1]",
            "momentum-identity[d2]",
            "rate-bound",
        ]
        for result in results:
            assert not result.passed, result.claim
            assert math.isnan(result.residual_or_oscillation), result.claim

    def test_rate_bound_with_an_infinite_slack_fails(self):
        # from ||x_0|| = 1.4e154 the bound and its slack are finite in a scaled order; with ||x_0|| read as
        # 1e160 the slack 1e-9 beta ||x_0||^2 = 1e311 really is infinite
        problem = random_quadratic(dim=2)
        trace = fista_run(problem, [1e154, 1e154], "bt", 300)
        norm_x = trace.norm_x.copy()
        norm_x[0] = 1e160
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for case in (trace, dataclasses.replace(trace, norm_x=norm_x)):
                results += AnalysisStream(problem, ["rate_bound"], np.random.default_rng(0)).fold(case)
        finite, infinite = results
        assert finite.passed and math.isfinite(finite.residual_or_oscillation)
        assert not infinite.passed and math.isnan(infinite.residual_or_oscillation)

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
    # ||x_0|| = 1.41e308 on the overflowing start is finite (row norms are scaled), and so
    # is every scale but z-recursion's, t_0 (||x_0|| + ||x_1||) + ||x_0||
    "structural": (
        {},
        {"z-recursion"},
        {"z-definition", "z-recursion", "convex-combination"},
    ),
    # the overflowing start repeats l1's one minimizer as s0 and s1, which a check that
    # compares them refuses at set-up (a str entry: the ValueError's message)
    "momentum_identity": (
        {},
        "momentum_identity: direction s0 - s1 has norm 0",
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
    "bounded_iterates": ({}, set(), {"bounded-iterates"}),
    "cluster_products": (
        {"directions": PROBE, "window": 20, "tol": 1.0},
        {"cluster-product[d0]"},
        {"cluster-product[d0]"},
    ),
    "xi_difference": (
        {"window": 20, "tol": 1.0},
        "xi_difference: direction s0 - s1 has norm 0",
        {"xi-difference[s0,s1]"},
    ),
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
        expected = {"finite": set(), "overflow": fail_overflow, "inf-row": fail_inf_row}[case]
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                AnalysisStream(problem, [params], np.random.default_rng(0)).fold(trace)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = AnalysisStream(problem, [params], np.random.default_rng(0)).fold(trace)
        assert {r.claim for r in results if not r.passed} == expected
        for r in results:
            numbers = [r.residual_or_oscillation, r.tol, *r.details.values()]
            floats = [v for v in numbers if isinstance(v, float)]
            if r.passed:
                assert all(math.isfinite(v) for v in floats), r.claim
            else:
                assert math.isnan(r.residual_or_oscillation), r.claim


class TestAnalysisParameters:
    """A check's parameters bind to its fold's keyword arguments; anything else is a ValueError."""

    @staticmethod
    def required(name):
        return {"target": [0.0, 1.0], "tol": 1e-3} if name == "final_point" else {}

    @pytest.mark.parametrize("name", sorted(ANALYSES))
    def test_unknown_parameter_names_the_analysis_and_the_key(self, name, feas_trace):
        # an unknown key used to be dropped, so the check ran at its default
        params = {**self.required(name), "tolerance": 1e-30}
        with pytest.raises(ValueError, match=rf"bad parameters for analysis '{name}': .*'tolerance'"):
            ANALYSES[name](feas_trace, feasibility_problem(), params, np.random.default_rng(0))

    def test_final_point_needs_a_target(self, feas_trace):
        with pytest.raises(ValueError, match=r"bad parameters for analysis 'final_point': .*'target'"):
            ANALYSES["final_point"](feas_trace, feasibility_problem(), {"tol": 1e-3}, None)

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"name": "cluster_products", "tol": "1e-3"}, "tol"),
            ({"name": "span", "directions": PROBE, "tol": "1e-3"}, "tol"),
            ({"name": "span", "directions": [[1.0, None]]}, "directions"),
            ({"name": "cluster_products", "window": "100"}, "window"),
            ({"name": "cluster_products", "tol": True}, "tol"),
        ],
    )
    def test_value_that_is_not_a_real_number_fails_before_the_fold(self, entry, key):
        # a string tol used to run the whole fold and then raise TypeError in its verdict
        with pytest.raises(ValueError, match=rf"bad parameters for analysis '{entry['name']}': '{key}' is "):
            AnalysisStream(feasibility_problem(), [entry], np.random.default_rng(0))

    @pytest.mark.parametrize("rows", [2, 3, 7, 101, 102, 1000, 100_001])
    @pytest.mark.parametrize("points", [1, 2, 5, 99, 100, 101, 5000])
    def test_sufficient_decrease_steps_are_npuniques(self, rows, points):
        # min(points, rows - 1) steps over 0..rows - 2 lie at least one apart, so none repeats
        # and no np.unique (which imports numpy.ma) is needed; the fold takes 100 of them
        class Rows:
            beta = 1.0

            def __len__(self):
                return rows

        ks = _spaced_steps(rows, points)
        want = np.unique(np.linspace(0, rows - 2, min(points, rows - 1)).astype(int))
        assert ks.dtype == want.dtype and ks.tolist() == want.tolist()
        assert (np.diff(ks) > 0).all()
        fold = _FOLDS["sufficient_decrease"](Rows(), feasibility_problem(), np.random.default_rng(0), np.zeros(2))
        assert fold.ks.dtype == ks.dtype and fold.ks.tolist() == _spaced_steps(rows, 100).tolist()

    @pytest.mark.parametrize("name", ["cluster_products", "xi_difference", "span"])
    def test_window_that_is_not_an_integer_fails_at_set_up(self, name, feas_trace):
        # a float window used to run the whole fold and then fail to slice its tail
        stream = AnalysisStream(feasibility_problem(), [{"name": name, "window": 50.0}], np.random.default_rng(0))
        with pytest.raises(ValueError, match="window must be an integer, not 50.0"):
            stream.start(feas_trace, feas_trace.xs[0])

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "cluster_products", "tol": [1e-3]}, r"analysis 'cluster_products': float\(\) argument"),
            ({"name": "span", "tol": [1e-3]}, r"analysis 'span': float\(\) argument"),
            ({"name": "final_point", "target": [0.0, 1.0], "tol": [1e-3]}, r"analysis 'final_point': float\(\) argument"),
            ({"name": "final_point", "target": [0.0, 1.0, 0.0], "tol": 1e-3}, "expected dimension 2, got 3"),
        ],
    )
    def test_list_for_a_number_or_a_vector_of_another_size_fails_at_set_up(self, entry, message, feas_trace):
        # each used to run the whole fold and then fail in its verdict
        stream = AnalysisStream(feasibility_problem(), [entry], np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            stream.start(feas_trace, feas_trace.xs[0])

    @pytest.mark.parametrize("name", sorted(ANALYSES))
    def test_trace_without_vectors_or_snapshots_is_missing_snapshots(self, name, feas_trace):
        # x_0 comes from xs[0] or from snapshot row 0; with neither, no check may see x_0 = None
        bare = dataclasses.replace(feas_trace, xs=None, ys=None, zs=None, snapshots=None)
        with pytest.raises(MissingSnapshotError):
            ANALYSES[name](bare, feasibility_problem(), self.required(name), np.random.default_rng(0))
