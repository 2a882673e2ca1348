import numpy as np
import pytest

from fistalab import feasibility_problem, l1_quadratic, random_quadratic


@pytest.fixture
def feas():
    return feasibility_problem()


@pytest.fixture(params=["feasibility", "quadratic", "l1"])
def any_problem(request):
    if request.param == "feasibility":
        return feasibility_problem()
    if request.param == "quadratic":
        return random_quadratic(dim=5, seed=3)
    return l1_quadratic(dim=4, lam=0.4, seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
