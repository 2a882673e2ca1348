import numpy as np
import pytest

from fistalab import feasibility_problem, finite_difference_gradient, half_sq_dist_grad, soft_threshold
from fistalab.prox import _unit_line_prox


def project_orthant(x):
    """Nearest point of the nonnegative orthant, as fig1's gradient step takes it: x - grad(x)."""
    x = np.asarray(x, dtype=float)
    return x - half_sq_dist_grad(x)


def project_line(x):
    """Nearest point of the line x1 + x2 = 1: fig1's prox, at any step."""
    return _unit_line_prox(x, 1.0)


def grid_argmin_orthant(x, lo=0.0, hi=6.0, step=0.01):
    """Brute-force nearest orthant point over a fine grid (independent oracle)."""
    axis = np.arange(lo, hi + step, step)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    d2 = (gx - x[0]) ** 2 + (gy - x[1]) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return np.array([axis[i], axis[j]])


def grid_argmin_line(x, lo=-6.0, hi=8.0, step=0.001):
    """Brute-force nearest point of the line u + v = 1 (independent oracle)."""
    u = np.arange(lo, hi + step, step)
    pts = np.column_stack([u, 1.0 - u])
    d2 = np.sum((pts - x) ** 2, axis=1)
    return pts[np.argmin(d2)]


class TestProjectOrthant:
    def test_fixed_point_inside(self):
        assert np.array_equal(project_orthant([5.0, 0.0]), [5.0, 0.0])

    def test_clamp_matches_grid_oracle(self):
        x = np.array([3.0, -2.0])
        got = project_orthant(x)
        assert np.array_equal(got, [3.0, 0.0])
        assert np.linalg.norm(grid_argmin_orthant(x) - got) <= 0.02

    def test_fully_negative_maps_to_origin(self):
        assert np.array_equal(project_orthant([-1.0, -1.0]), [0.0, 0.0])


class TestProjectLine:
    def test_fixed_point_on_line(self):
        assert np.array_equal(project_line([0.5, 0.5]), [0.5, 0.5])

    def test_closed_form_matches_grid_oracle(self):
        got = project_line([5.0, 0.0])
        assert np.allclose(got, [3.0, -2.0], atol=1e-14)
        assert np.linalg.norm(grid_argmin_line(np.array([5.0, 0.0])) - got) <= 0.002

    def test_second_hand_value(self):
        assert np.allclose(project_line([3.0, 0.0]), [2.0, -1.0], atol=1e-14)

    def test_result_lies_on_the_plane(self, rng):
        for _ in range(50):
            x = 10.0 * rng.standard_normal(2)
            p = project_line(x)
            assert abs(p.sum() - 1.0) <= 1e-12


class TestProxIndicator:
    """The prox of a set's indicator is the projection onto the set."""

    def test_hyperplane_step_independent(self):
        prox = feasibility_problem().g.prox  # the line indicator's prox
        for step in (1.0, 0.01):
            assert np.allclose(prox([5.0, 0.0], step), [3.0, -2.0], atol=1e-14)

    def test_output_feasible(self, rng):
        for _ in range(20):
            v = 5.0 * rng.standard_normal(2)
            on_line = project_line(v)
            assert abs(on_line.sum() - 1.0) <= 1e-12
            in_orthant = project_orthant(v)
            assert np.all(in_orthant >= 0.0)


class TestSoftThreshold:
    def test_shrink_or_kill(self):
        assert np.array_equal(soft_threshold([3.0, -0.5], 1.0), [2.0, 0.0])

    def test_identity_at_zero_threshold(self, rng):
        v = rng.standard_normal(5)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_boundary_kill(self):
        assert np.array_equal(soft_threshold([-2.0], 2.0), [0.0])


class TestHalfSqDistGrad:
    def test_zero_inside_the_set(self):
        assert np.array_equal(half_sq_dist_grad([5.0, 0.0]), [0.0, 0.0])

    def test_hand_value_off_the_set(self):
        assert np.array_equal(half_sq_dist_grad([3.0, -2.0]), [0.0, -2.0])

    def test_projection_is_origin(self):
        assert np.array_equal(half_sq_dist_grad([-1.0, -1.0]), [-1.0, -1.0])

    def test_matches_finite_differences_off_boundary(self, rng):
        def half_sq_dist(x):
            return 0.5 * float(np.sum(np.minimum(x, 0.0) ** 2))

        kept = 0
        while kept < 20:
            x = 3.0 * rng.standard_normal(2)
            if np.any(np.abs(x) < 1e-3):  # gradient is only C^0 across the boundary
                continue
            fd = finite_difference_gradient(half_sq_dist, x)
            grad = half_sq_dist_grad(x)
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))
            kept += 1


class TestProjectionProperties:
    @pytest.mark.parametrize("proj", [project_orthant, project_line])
    def test_idempotent(self, proj, rng):
        for _ in range(50):
            x = 10.0 * rng.standard_normal(2)
            once = proj(x)
            assert np.linalg.norm(proj(once) - once) <= 1e-12

    @pytest.mark.parametrize("proj", [project_orthant, project_line])
    def test_firmly_nonexpansive(self, proj, rng):
        for _ in range(100):
            u = 10.0 * rng.standard_normal(2)
            v = 10.0 * rng.standard_normal(2)
            pu, pv = proj(u), proj(v)
            lhs = float(np.sum((pu - pv) ** 2))
            rhs = float((pu - pv) @ (u - v))
            assert lhs <= rhs + 1e-10
