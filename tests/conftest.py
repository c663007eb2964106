import numpy as np
import pytest

import nhmc


@pytest.fixture(scope="session")
def zeta2_small():
    """zeta2 family at alpha=0.75, N=200, lump policy."""
    return nhmc.zeta2_family(0.75, 200)


@pytest.fixture(scope="session")
def iid_family():
    """Constant identical-rows family built from the zeta2 limit kernel (N=200)."""
    return nhmc.constant_family(nhmc.make_limit_kernel("zeta2", 200))


@pytest.fixture(scope="session")
def start200():
    return nhmc.point_mass(1, 200)


@pytest.fixture(scope="session")
def ind200():
    return nhmc.indicator_observable(1, 200)


def martingale_theta(family, observables, z):
    """θ of g = Σ z_l f_l at the family's limit: the value every caller passes
    to ``martingale_check`` (the CLI computes it the same way)."""
    return nhmc.asymptotic_variance(nhmc.stationary(family.limit), family.limit,
                                    observables.combine(z))


def random_stochastic(rng, n):
    """A dense random stochastic matrix with no zero entries."""
    rows = rng.random((n, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture(scope="session")
def q_zeta2():
    return 6.0 / np.pi**2
