import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fistalab import (
    Schedule,
    ScheduleError,
    ScheduleReport,
    TkBoundsReport,
    bt_next,
    check_tk_bounds,
    linear_half,
    validate_schedule,
)
from fistalab.schedule import _BLOCK, GROWTH_TOL, QUADRATIC_TOL

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
VIOLATION = np.dtype([("k", np.intp), ("residual", np.float64)])


class TestBtNext:
    def test_first_step_is_golden_ratio(self):
        assert bt_next(1.0) == pytest.approx(1.6180339887498949, abs=1e-15)

    def test_second_step(self):
        # frozen from the cross-check oracle t1^2 - (t2^2 - t2) = 0
        t2 = bt_next(GOLDEN)
        assert t2 == pytest.approx(2.193527085331054, abs=1e-12)
        assert abs(GOLDEN**2 - (t2**2 - t2)) <= 1e-12

    def test_direct_substitution(self):
        assert bt_next(2.0) == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, abs=1e-15)

    def test_larger_root_residual(self, rng):
        for _ in range(200):
            t = float(rng.uniform(1.0, 1e5))
            nxt = bt_next(t)
            assert abs(nxt * nxt - nxt - t * t) <= 1e-9 * max(1.0, t * t)
            assert nxt > t

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            bt_next(0.5)


class TestLinearHalf:
    def test_start_is_one(self):
        assert linear_half(0) == 1.0

    def test_values(self):
        assert linear_half(2) == 2.0
        assert linear_half(9) == 5.5


class TestValidateSchedule:
    def test_bt_prefix_valid_with_tiny_residuals(self):
        ts = Schedule("bt").prefix(5)
        report = validate_schedule(ts)
        assert report.valid
        assert np.max(np.abs(report.quadratic_residuals)) <= 1e-12

    def test_constant_sequence_fails_growth(self):
        report = validate_schedule([1.0, 1.0, 1.0])
        assert not report.valid
        assert report.growth_violations[0][0] == 1  # 1 < 3/2
        assert report.quadratic_violations.size == 0

    def test_linear_prefix_valid(self):
        # oracle: (k+2)^2/4 - ((k+3)^2/4 - (k+3)/2) = 1/4 for k >= 1,
        # and the k=0 junction leaves 1 - (9/4 - 3/2) = 1/4
        ts = [linear_half(k) for k in range(101)]
        report = validate_schedule(ts)
        assert report.valid
        assert np.min(report.quadratic_residuals) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_singleton_and_bad_t0(self):
        with pytest.raises(ValueError):
            validate_schedule([1.0])
        with pytest.raises(ValueError):
            validate_schedule([1.5, 2.0])


class TestScheduleObject:
    def test_prefix_is_consistent(self):
        sched = Schedule("bt")
        first = sched.prefix(10)
        again = sched.prefix(5)
        assert np.array_equal(first[:6], again)

    def test_writing_into_an_explicit_prefix_cannot_change_a_later_one(self):
        values = np.array([1.0, 1.6, 2.1, 2.6])
        sched = Schedule(values)
        values[1] = 0.0  # the schedule holds its own copy
        first = sched.prefix(3)
        with pytest.raises(ValueError):
            first[1] = 0.0
        assert sched.prefix(3).tolist() == [1.0, 1.6, 2.1, 2.6]

    def test_growth_witnesses_divergence(self):
        for rule in ("bt", "linear"):
            ts = Schedule(rule).prefix(2000)
            ks = np.arange(ts.size)
            assert np.all(ts >= (ks + 2) / 2.0 - 1e-12)

    def test_bt_strictly_increasing(self):
        ts = Schedule("bt").prefix(500)
        assert np.all(np.diff(ts) > 0)

    def test_explicit_rule_validates_on_extension(self):
        good = Schedule([1.0, 1.6, 2.1, 2.6])
        assert good.prefix(3)[3] == 2.6
        bad = Schedule([1.0, 1.0, 1.0])
        with pytest.raises(ScheduleError):
            bad.prefix(2)

    def test_explicit_rule_exhaustion(self):
        sched = Schedule([1.0, 1.7])
        with pytest.raises(ScheduleError):
            sched.prefix(5)

    def test_unknown_rule(self):
        for spec in ("cosine", "explicit"):  # a sequence, not the name "explicit", makes an explicit rule
            with pytest.raises(ValueError, match=f"unknown schedule rule '{spec}'"):
                Schedule(spec)

    def test_explicit_rule_needs_two_terms(self):
        with pytest.raises(ValueError):
            Schedule([1.0])


def first_violation(report: ScheduleReport) -> int:
    """First k whose term t_k breaks a condition; quadratic index j concerns t_{j+1}."""
    ks = [k for k, _ in report.growth_violations[:1]]
    ks += [j + 1 for j, _ in report.quadratic_violations[:1]]
    return min(ks)


class TestCertifiedPrefix:
    def test_bt_prefix_bit_equals_the_bt_next_chain(self):
        chain = [1.0]
        for _ in range(100_000):
            chain.append(bt_next(chain[-1]))
        sched = Schedule("bt")
        head = sched.prefix(1000)  # a shorter prefix is the head of a longer one
        assert np.array_equal(sched.prefix(100_000), np.array(chain))
        assert np.array_equal(head, np.array(chain[:1001]))

    def test_linear_prefix_bit_equals_linear_half(self):
        sched = Schedule("linear")
        sched.prefix(10)
        assert np.array_equal(sched.prefix(5000), [linear_half(k) for k in range(5001)])

    @pytest.mark.parametrize("rule", ["bt", "linear"])
    def test_prefix_bytes_equal_the_per_term_loop_past_two_blocks(self, rule):
        # 2 * 4096 + 3 terms crossed the old generator's 4096-term chunks twice
        k_max = 2 * 4096 + 3
        terms = [1.0]
        for k in range(1, k_max + 1):
            terms.append(bt_next(terms[-1]) if rule == "bt" else linear_half(k))
        assert Schedule(rule).prefix(k_max).tobytes() == np.array(terms).tobytes()

    def test_perturbed_explicit_names_the_reports_first_k(self):
        rng = np.random.default_rng(2024)
        base = Schedule("bt").prefix(60)
        rejected = 0
        for _ in range(300):
            ts = base.copy()
            picks = rng.integers(1, ts.size, size=int(rng.integers(1, 4)))
            ts[picks] *= rng.uniform(0.5, 1.5, size=picks.size)
            report = validate_schedule(ts)
            sched = Schedule(ts)
            if report.valid:
                assert np.array_equal(sched.prefix(ts.size - 1), ts)
                continue
            rejected += 1
            with pytest.raises(ScheduleError) as info:
                sched.prefix(ts.size - 1)
            named = int(re.search(r"at k=(\d+):", str(info.value)).group(1))
            assert named == first_violation(report)
        assert rejected > 200

    @pytest.mark.parametrize(
        "values, message",
        [([1.0, math.nan, 2.0], "t_1 is not finite"), ([1.5, 2.0], "t_0 must equal 1")],
    )
    def test_bad_terms_are_schedule_errors(self, values, message):
        with pytest.raises(ScheduleError, match=message):
            Schedule(values).prefix(1)

    def test_explicit_too_short(self):
        with pytest.raises(ScheduleError, match="has 2 entries; index 2 requested"):
            Schedule([1.0, 1.5]).prefix(5)


class TestTkBounds:
    def test_bt_at_index_two(self):
        ts = Schedule("bt").prefix(3)
        assert 1.0 <= ts[2] - 1.0 <= 2.0
        report = check_tk_bounds(ts)
        assert report.valid

    def test_linear_lower_bound_tight(self):
        ts = [linear_half(k) for k in range(4)]
        assert ts[2] - 1.0 == 1.0
        assert check_tk_bounds(ts).valid

    def test_bt_partial_sum_grows_like_harmonic(self):
        # t_k <= k+1 forces the sum to dominate the harmonic tail
        ts = Schedule("bt").prefix(10_000)
        report = check_tk_bounds(ts)
        assert report.valid
        assert report.total >= math.log(10_000) - 1.0

    def test_needs_three_terms(self):
        with pytest.raises(ValueError):
            check_tk_bounds([1.0, 1.6])

    def test_violation_lists_match_the_elementwise_rule(self):
        rng = np.random.default_rng(7)
        seen = {"lower": 0, "upper": 0}
        for _ in range(50):
            ts = Schedule("bt").prefix(200) * rng.uniform(0.3, 3.0, size=201)
            ks = np.arange(2, ts.size)
            tm1 = ts[2:] - 1.0
            lower = [(int(k), float(v - 1.0)) for k, v in zip(ks, tm1) if v - 1.0 < -1e-9]
            upper = [
                (int(k), float(k - v))
                for k, v in zip(ks, tm1)
                if k - v < -1e-9 * max(1.0, float(k))
            ]
            report = check_tk_bounds(ts)
            assert report.lower_violations.tolist() == lower
            assert report.upper_violations.tolist() == upper
            seen["lower"] += len(lower)
            seen["upper"] += len(upper)
        assert min(seen.values()) > 20

    def test_nan_term_is_a_lower_violation(self):
        # NaN compares false against both bounds, which used to pass the prefix
        report = check_tk_bounds([1.0, 1.5, math.nan, 2.5])
        assert not report.valid
        assert report.lower_violations["k"].tolist() == [2]
        assert np.isnan(report.lower_violations["residual"]).all()
        assert report.upper_violations.size == 0


class TestViolationArrays:
    """A prefix that fails at every index holds arrays, not a Python object per index."""

    @pytest.mark.parametrize("certify", [validate_schedule, check_tk_bounds])
    def test_million_ones_peak(self, certify):
        ts = np.ones(10**6)
        tracemalloc.start()
        try:
            report = certify(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.valid
        assert peak <= 80 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_records_read_as_k_residual_pairs(self):
        report = validate_schedule(np.ones(8))
        assert report.growth_violations.dtype == VIOLATION
        assert [int(k) for k, _ in report.growth_violations[:5]] == [1, 2, 3, 4, 5]
        assert report.growth_violations[0][1] == -1.0 / 3.0
        assert len(check_tk_bounds(np.ones(8)).lower_violations) == 6


# ---- the certifier as it stood before each quantity was computed once -------


def records(pairs) -> np.ndarray:
    """The (k, residual) pairs as the report holds them: one record array."""
    return np.array(list(pairs), dtype=VIOLATION)


def reference_validate_schedule(ts) -> ScheduleReport:
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a sequence of at least two step parameters")
    if abs(arr[0] - 1.0) > 1e-12:
        raise ScheduleError(f"t_0 must equal 1, got {float(arr[0])!r}")
    if not np.all(np.isfinite(arr)):
        raise ScheduleError(f"t_{int(np.argmin(np.isfinite(arr)))} is not finite")
    ks = np.arange(arr.size, dtype=float)
    growth = arr - (ks + 2.0) / 2.0
    growth[0] = -abs(arr[0] - 1.0)
    quad = arr[:-1] ** 2 - arr[1:] ** 2 + arr[1:]
    growth_scale = np.maximum(1.0, (ks + 2.0) / 2.0)
    quad_scale = np.maximum(1.0, arr[:-1] ** 2)
    return ScheduleReport(
        growth_residuals=growth,
        quadratic_residuals=quad,
        growth_violations=records(
            (int(k), float(growth[k] / growth_scale[k]))
            for k in np.nonzero(growth < -GROWTH_TOL * growth_scale)[0]
        ),
        quadratic_violations=records(
            (int(k), float(quad[k] / quad_scale[k]))
            for k in np.nonzero(quad < -QUADRATIC_TOL * quad_scale)[0]
        ),
        quadratic_scaled_abs_max=float(np.max(np.abs(quad) / quad_scale)),
    )


def reference_check_tk_bounds(ts) -> TkBoundsReport:
    arr = np.asarray(ts, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValueError("need at least t_0..t_2 to check the bounds")
    ks = np.arange(2, arr.size)
    tm1 = arr[2:] - 1.0
    tol = 1e-9
    low = tm1 - 1.0
    up = ks - tm1
    lower = [(int(ks[i]), float(low[i])) for i in np.nonzero(low < -tol)[0]]
    upper = [(int(ks[i]), float(up[i])) for i in np.nonzero(up < -tol * np.maximum(1.0, ks))[0]]
    inv = np.where(tm1 > 0, 1.0 / np.where(tm1 > 0, tm1, 1.0), np.nan)
    return TkBoundsReport(
        lower_violations=records(lower), upper_violations=records(upper), inv_partial_sums=np.cumsum(inv)
    )


def same_report(got, want) -> None:
    """Field by field: arrays bit for bit (NaN payloads included), lists and scalars equal."""
    assert type(got) is type(want)
    for name in got.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        else:
            assert repr(a) == repr(b), name


def certifier_inputs():
    rng = np.random.default_rng(11)
    bt = np.array(Schedule("bt").prefix(200_000))
    yield "bt", bt
    yield "linear", np.array(Schedule("linear").prefix(50_000))
    yield "ones", np.ones(1000)
    below_one = bt[:500].copy()
    below_one[1:] *= rng.uniform(0.0, 1.0, size=499)  # terms under 1, some near 0
    yield "below-one", below_one
    for i in range(20):
        ts = bt[: int(rng.integers(3, 2000))].copy()
        # a few perturbed terms, or every term after t_0
        picks = rng.integers(1, ts.size, size=int(rng.integers(1, 50))) if i % 2 else slice(1, None)
        ts[picks] *= rng.uniform(0.3, 3.0, size=ts[picks].size)
        yield f"invalid-{i}", ts
    # violations and a NaN partial sum on both sides of the certifiers' block edges
    ts = bt[: 2 * _BLOCK + 3].copy()
    edges = np.array([_BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK, 2 * _BLOCK + 1, 2 * _BLOCK + 2])
    ts[edges] *= rng.uniform(0.3, 3.0, size=edges.size)
    ts[_BLOCK + 1] = 0.5  # t - 1 <= 0: no reciprocal, every later partial sum NaN
    yield "invalid-block-edges", ts


class TestCertifierMatchesTheReference:
    @pytest.mark.parametrize("ts", [pytest.param(ts, id=label) for label, ts in certifier_inputs()])
    def test_same_bits(self, ts):
        same_report(validate_schedule(ts), reference_validate_schedule(ts))
        same_report(check_tk_bounds(ts), reference_check_tk_bounds(ts))

    def test_inputs_exercise_every_branch(self):
        reports = [(validate_schedule(ts), check_tk_bounds(ts)) for _, ts in certifier_inputs()]
        assert sum(v.growth_violations.size > 0 for v, _ in reports) > 10
        assert sum(v.quadratic_violations.size > 0 for v, _ in reports) > 10
        assert sum(b.lower_violations.size > 0 for _, b in reports) > 5
        assert sum(b.upper_violations.size > 0 for _, b in reports) > 10
        assert any(np.isnan(b.inv_partial_sums).any() for _, b in reports)

    @pytest.mark.parametrize("values", [[math.inf, 1.0, 2.0], [1.0, 1.5, math.nan], [1.0, 2.0, -math.inf, 3.0]])
    def test_tk_bounds_on_non_finite_terms(self, values):
        want = reference_check_tk_bounds(values)
        if math.isnan(values[2]):  # the reference passed a NaN term; it is a lower violation
            want = dataclasses.replace(want, lower_violations=records([(2, math.nan)]))
        same_report(check_tk_bounds(values), want)

    @pytest.mark.parametrize(
        "values",
        [[1.5, 2.0], [0.0, 1.0, 2.0], [1.0 + 1e-9, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.inf], [1.0, -math.inf]],
    )
    def test_same_errors(self, values):
        with pytest.raises(ScheduleError) as want:
            reference_validate_schedule(values)
        with pytest.raises(ScheduleError) as got:
            validate_schedule(values)
        assert str(got.value) == str(want.value)
