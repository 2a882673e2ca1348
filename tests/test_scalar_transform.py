import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fistalab import (
    SCENARIO_NAMES,
    ScalarSeq,
    divergence_witness,
    forward_transform,
    get_scenario,
    reconstruct,
    transform_weights,
    verdict,
    weighted_reconstruction,
)
from fistalab.scalar_transform import _RECURSION_CHUNK as CHUNK

SINH_LIMIT = math.pi / math.sinh(math.pi)  # 0.27202905498213314
EPS = np.finfo(float).eps


# ---- the per-index evaluation the array path replaced, kept as its reference


def old_reconstruct(g, lams, h_seed):
    """The numpy-scalar recursion loop, one index at a time."""
    h = np.empty(g.size + 1)
    h[0] = h_seed
    for i in range(g.size):
        h[i + 1] = (1.0 - lams[i]) * g[i] + lams[i] * h[i]
    return h


def old_witness_arrays(phis):
    inv = 1.0 / phis
    lams = phis / (1.0 + phis)
    inv_one_plus = 1.0 / (1.0 + phis)
    chain_ok = bool(np.all(inv_one_plus >= 0.5 * np.minimum(1.0, inv) - 1e-15))
    return (
        [np.cumsum(inv), np.cumsum(inv_one_plus)],
        chain_ok,
        float(np.sum(np.log(lams))),
    )


# The bundled scenarios at ell = 1 as scalar formulas of a Python int k >= 1.
OLD_FORMULAS = {
    "ex42": {"phi": float, "h": lambda k: 1.0 + (-1.0) ** k / k},
    "ex43": {"phi": float, "h": lambda k: 1.0 + (-1.0) ** k / math.sqrt(k)},
    "ex44-sinh": {"phi": lambda k: float(k) ** 2, "g": lambda k: 0.0, "seed": 1.0},
    "linf-plus": {"phi": float, "g": float, "seed": 0.0},
    "linf-minus": {"phi": float, "g": lambda k: -float(k), "seed": 0.0},
}


def old_sequences(name, count):
    """h and g over k = 1..count, one formula call per index, as the seed code did."""
    formulas = OLD_FORMULAS[name]
    phis = np.array([float(formulas["phi"](k)) for k in range(1, count + 1)])
    if "h" in formulas:
        h_ext = np.array([formulas["h"](k) for k in range(1, count + 2)])
        return h_ext[:count], h_ext[1:] + phis * (h_ext[1:] - h_ext[:-1])
    g = np.array([formulas["g"](k) for k in range(1, count + 1)])
    lams = phis / (1.0 + phis)
    return old_reconstruct(g[: count - 1], lams, formulas["seed"]), g


class TestForwardTransform:
    def test_constant_sequence_is_fixed(self, rng):
        h = np.full(50, 2.5)
        phi = rng.uniform(0.1, 10.0, size=49)
        assert np.allclose(forward_transform(h, phi), 2.5, atol=1e-12)

    def test_alternating_harmonic_has_amplitude_two(self):
        # closed form: (k+1) h_{k+1} - k h_k collapses to ell + 2 (-1)^{k+1}
        ell = 1.0
        scenario = get_scenario("ex42", ell=ell)
        g = scenario.g_values(1000)
        ks = np.arange(1, 1001)
        assert np.max(np.abs(g - (ell + 2.0 * (-1.0) ** (ks + 1)))) <= 1e-12

    def test_alternating_sqrt_is_unbounded(self):
        ell = 0.5
        scenario = get_scenario("ex43", ell=ell)
        g = scenario.g_values(500)
        ks = np.arange(1, 501)
        expected = ell + (-1.0) ** (ks + 1) * (np.sqrt(ks + 1.0) + np.sqrt(ks))
        assert np.max(np.abs(g - expected)) <= 1e-10
        assert np.max(np.abs(g)) > 40.0  # grows like 2 sqrt(k)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            forward_transform([1.0], lambda k: np.ones(k.shape))

    def test_takes_any_real_phi(self, rng):
        # phi = t - 1 is 0 on a PGM run and at k = 0; it used to be rejected as nonpositive
        h = rng.standard_normal(50)
        assert np.array_equal(forward_transform(h, np.zeros(49)), h[1:])
        assert np.array_equal(forward_transform([0.0, 1.0, 3.0], [-0.5, -2.0]), [0.5, -1.0])


class TestReconstruct:
    def test_partial_product_oracle(self):
        # independent oracle: h_k is the explicit partial product of j^2/(1+j^2)
        scenario = get_scenario("ex44-sinh")
        h = scenario.h_values(2000)
        js = np.arange(1, 2000)
        oracle = np.concatenate([[1.0], np.cumprod(js**2 / (1.0 + js**2))])
        assert np.allclose(h, oracle, rtol=1e-14, atol=0)
        assert abs(h[-1] - SINH_LIMIT) <= 1e-3  # tail error ~ 1/k

    def test_constant_fixed_point(self):
        g = np.full(40, -3.0)
        h = reconstruct(g, lambda k: 2.0 * k + 1.0, h_seed=-3.0, start=1)
        assert np.allclose(h, -3.0, atol=1e-14)

    def test_round_trip_forward_of_reconstruct(self, rng):
        g = rng.standard_normal(200)
        phi = rng.uniform(0.05, 20.0, size=200)
        h = reconstruct(g, phi, h_seed=rng.standard_normal())
        back = forward_transform(h, phi)
        assert np.max(np.abs(back - g)) <= 1e-12 * np.maximum(1.0, np.abs(g)).max()

    def test_round_trip_reconstruct_of_forward(self, rng):
        h = rng.standard_normal(200)
        phi = rng.uniform(0.05, 20.0, size=199)
        g = forward_transform(h, phi)
        again = reconstruct(g, phi, h_seed=h[0])
        assert np.max(np.abs(again - h)) <= 1e-12 * np.maximum(1.0, np.abs(h)).max()

    def test_rejects_nonpositive_phi(self):
        with pytest.raises(ValueError, match="positive"):
            reconstruct([1.0, 2.0], np.float64, h_seed=0.0, start=0)  # phi_0 = 0


class TestWeights:
    def test_single_weight_is_one_minus_lambda(self):
        phi0 = 3.0
        w = transform_weights([phi0], 1)
        assert np.allclose(w, [1.0 - phi0 / (1 + phi0)], atol=1e-16)

    def test_hand_value_for_constant_phi(self):
        # phi = 1 gives lambda = 1/2: weights (1/2) * (1/2)^{n-1-k}
        w = transform_weights([1.0, 1.0, 1.0], 3)
        assert np.allclose(w, [0.125, 0.25, 0.5], atol=1e-16)
        assert w.sum() == pytest.approx(1.0 - 0.5**3, abs=1e-16)

    def test_telescoping_identity_random_lambdas(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 201))
            lams = rng.uniform(1e-3, 1.0 - 1e-3, size=n)
            phis = lams / (1.0 - lams)
            w = transform_weights(phis, n)
            assert np.all(w > 0)
            assert abs(w.sum() - (1.0 - np.prod(lams))) <= 1e-12

    def test_weights_vanish_rowwise_as_n_grows(self):
        # fixed k: w_{n,k} -> 0; for phi ~ k the lambda product decays like 1/n
        phi = lambda k: 1.0 + k
        w_small = transform_weights(phi, 10)
        w_large = transform_weights(phi, 300)
        assert w_large[0] < w_small[0] / 25.0


class TestWeightedReconstruction:
    def test_zero_g_reduces_to_lambda_product(self, rng):
        phis = rng.uniform(0.1, 5.0, size=60)
        lams = phis / (1.0 + phis)
        h = weighted_reconstruction(np.zeros(60), phis, h_seed=1.0)
        assert np.allclose(h[1:], np.cumprod(lams), rtol=1e-12)

    def test_constant_g_telescopes(self, rng):
        ell = -2.0
        phis = rng.uniform(0.1, 5.0, size=60)
        lams = phis / (1.0 + phis)
        h = weighted_reconstruction(np.full(60, ell), phis, h_seed=7.0)
        prods = np.cumprod(lams)
        assert np.allclose(h[1:], ell * (1.0 - prods) + 7.0 * prods, rtol=1e-12)

    @pytest.mark.parametrize("name", ["ex42", "ex43", "ex44-sinh"])
    def test_matches_recursion_on_bundled_data(self, name):
        scenario = get_scenario(name, ell=1.0)
        g = scenario.g_values(400)
        seed = scenario.h_values(1)[0]
        via_recursion = reconstruct(g, scenario.phi, seed, start=scenario.start)
        via_weights = weighted_reconstruction(g, scenario.phi, seed, start=scenario.start)
        scale = np.maximum(1.0, np.abs(via_recursion))
        assert np.max(np.abs(via_weights - via_recursion) / scale) <= 1e-10


class TestDivergenceWitness:
    def test_harmonic_weights(self):
        wit = divergence_witness(np.float64, 100_000, start=1)
        # ln K + gamma for the harmonic partial sum
        assert wit.inv_phi[-1] == pytest.approx(math.log(1e5) + 0.5772156649, abs=1e-3)
        assert wit.chain_ok

    def test_square_weights_stay_below_pi_sq_over_six(self):
        wit = divergence_witness(lambda k: np.float64(k) ** 2, 100_000, start=1)
        assert wit.inv_phi[-1] < math.pi**2 / 6.0 < 2.0
        assert wit.chain_ok

    def test_unit_weights(self):
        wit = divergence_witness(lambda k: np.ones(k.shape), 1000, start=0)
        assert wit.inv_one_plus_phi[-1] == pytest.approx(500.0, abs=1e-9)
        phis = np.ones(1000)
        assert np.allclose(np.cumsum(1.0 - phis / (1.0 + phis)), wit.inv_one_plus_phi, atol=1e-12)
        assert wit.log_weight_product == pytest.approx(1000 * math.log(0.5), rel=1e-12)

    @pytest.mark.parametrize("phi", [lambda k: np.ones(k.shape), lambda k: np.sqrt(k)])
    def test_product_vanishes_once_divergence_witnessed(self, phi):
        # sum (1 - lambda) > 30 forces prod lambda below 1e-12 (log-space bound
        # prod lambda <= exp(-sum (1 - lambda)) and e^-30 < 1e-12)
        wit = divergence_witness(phi, 5000, start=1)
        assert wit.inv_one_plus_phi[-1] > 30.0
        assert math.exp(wit.log_weight_product) < 1e-12


class TestLimitTransfer:
    def test_divergent_phi_passes_limit_to_h(self, rng):
        # g -> ell with divergent sum 1/phi: h must settle at the same limit
        ell = 2.0
        count = 20_000
        ks = np.arange(1, count + 1, dtype=float)
        g = ell + 1.0 / ks
        h = reconstruct(g, np.float64, h_seed=10.0, start=1)
        g_v = verdict(ScalarSeq(g), window=200, tol=1e-3)
        h_v = verdict(ScalarSeq(h), window=200, tol=1e-2)
        assert g_v.converged and h_v.converged
        assert h_v.limit_estimate == pytest.approx(ell, abs=1e-2)

    def test_convergent_phi_can_break_the_transfer(self):
        scenario = get_scenario("ex44-sinh")
        h = scenario.h_values(5000)
        v = verdict(ScalarSeq(h), window=100, tol=1e-3)
        assert v.converged
        assert v.limit_estimate >= 0.27  # far from the g limit 0

    def test_hurdle_growth_and_negation(self):
        plus = get_scenario("linf-plus").h_values(4000)
        minus = get_scenario("linf-minus").h_values(4000)
        assert plus[-1] > 400.0
        assert np.allclose(minus, -plus, atol=1e-12)


class TestScenarios:
    def test_registry_contents(self):
        assert set(SCENARIO_NAMES) == {"ex42", "ex43", "ex44-sinh", "linf-plus", "linf-minus"}
        with pytest.raises(KeyError):
            get_scenario("ex99")

    def test_forward_of_reconstructed_h_recovers_explicit_g(self):
        # roundoff in h is amplified by the factor (1 + phi_k) ~ k^2
        scenario = get_scenario("ex44-sinh")
        g = forward_transform(scenario.h_values(300), scenario.phi, start=scenario.start)
        ks = np.arange(1, 300)
        assert np.all(np.abs(g) <= 1e-14 * (1.0 + ks**2))

    def test_ell_parameter_shifts_the_limit(self):
        assert get_scenario("ex42", ell=5.0).h_values(3)[0] == pytest.approx(4.0)
        for name in SCENARIO_NAMES:
            assert get_scenario(name, 1.0).name == name
        for name in ("ex44-sinh", "linf-plus", "linf-minus"):
            with pytest.raises(ValueError, match="fixed limit"):
                get_scenario(name, ell=5.0)


class TestArrayEvaluation:
    @pytest.mark.parametrize("name", sorted(OLD_FORMULAS))
    def test_bit_equal_to_old_per_index_formulas(self, name):
        count = 3 * CHUNK + 5
        scenario = get_scenario(name, ell=1.0)
        old_h, old_g = old_sequences(name, count)
        assert scenario.h_values(count).tobytes() == old_h.tobytes()
        assert scenario.g_values(count).tobytes() == old_g.tobytes()

        phis = np.array([float(OLD_FORMULAS[name]["phi"](k)) for k in range(1, count + 1)])
        old_sums, old_chain, old_log = old_witness_arrays(phis)
        wit = divergence_witness(scenario.phi, count, start=scenario.start)
        new_sums = [wit.inv_phi, wit.inv_one_plus_phi]
        assert [a.tobytes() for a in new_sums] == [a.tobytes() for a in old_sums]
        assert wit.chain_ok == old_chain
        assert wit.log_weight_product.hex() == old_log.hex()

    def test_witness_memory(self):
        # two running sums are kept; lambda, 1/phi and the chain's min(1, 1/phi) are temporaries
        count = 10**6
        tracemalloc.start()
        try:
            wit = divergence_witness(np.float64, count, start=1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del wit
        array = 8 * count
        assert peak <= 4.5 * array, f"peak {peak / array:.2f} arrays"
        assert kept <= 2.1 * array, f"kept {kept / array:.2f} arrays"

    def test_witness_leaves_a_phi_array_untouched(self, rng):
        phis = rng.uniform(0.1, 10.0, size=100)
        kept = phis.copy()
        divergence_witness(phis, 100)
        assert phis.tobytes() == kept.tobytes()

    def test_scalar_callable_names_the_argument(self):
        with pytest.raises(ValueError, match="phi failed on an index array"):
            divergence_witness(lambda k: math.sqrt(k), 10, start=1)
        with pytest.raises(ValueError, match="phi returned shape"):
            divergence_witness(lambda k: 1.0, 10, start=1)

    def test_closed_forms_are_checked_for_shape(self):
        scenario = get_scenario("linf-plus")
        broken = dataclasses.replace(scenario, g_closed=lambda k: np.ones((k.size, 2)))
        with pytest.raises(ValueError, match="g_closed returned shape"):
            broken.g_values(5)
        broken = dataclasses.replace(scenario, g_closed=None, h_closed=float)
        with pytest.raises(ValueError, match="h_closed failed on an index array"):
            broken.h_values(5)


def log_uniform_phi(rng, n):
    return np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))


class TestReconstructProperties:
    """Seeded properties over phi in [1e-3, 1e3], at lengths around the chunk size."""

    LENGTHS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 17]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bit_equal_to_scalar_loop(self, n):
        rng = np.random.default_rng(1000 + n)
        g = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, size=n))
        phis = log_uniform_phi(rng, n)
        seed = float(rng.standard_normal())
        expected = old_reconstruct(g, phis / (1.0 + phis), seed)
        assert reconstruct(g, phis, seed).tobytes() == expected.tobytes()
        by_index = reconstruct(g, lambda k: phis[k - 7], seed, start=7)
        assert by_index.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", LENGTHS)
    def test_forward_of_reconstruct_recovers_g(self, n):
        # one rounded step of the recursion, seen through the forward map,
        # errs by a few eps times (1 + phi_k) times the terms involved
        rng = np.random.default_rng(2000 + n)
        g = rng.standard_normal(n)
        phis = log_uniform_phi(rng, n)
        h = reconstruct(g, phis, h_seed=float(rng.standard_normal()))
        back = forward_transform(h, phis)
        bound = 16.0 * EPS * (1.0 + phis) * (np.abs(g) + np.abs(h[:-1]) + np.abs(h[1:]))
        assert np.all(np.abs(back - g) <= bound)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_reconstruct_of_forward_recovers_h(self, n):
        # each step adds a few eps of error and damps the carried error by
        # lambda_k, so the total stays within (1 + max phi) steps' worth
        rng = np.random.default_rng(3000 + n)
        h = rng.standard_normal(n + 1)
        phis = log_uniform_phi(rng, n)
        again = reconstruct(forward_transform(h, phis), phis, h_seed=h[0])
        bound = 16.0 * EPS * (1.0 + phis.max()) * np.abs(h).max()
        assert again[0] == h[0]
        assert np.max(np.abs(again - h)) <= bound
