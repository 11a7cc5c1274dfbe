import numpy as np
import pytest

from diffint import EpsilonField, GaussianMixture, vesde, vpsde


@pytest.fixture(scope="session")
def vp():
    return vpsde()


@pytest.fixture(scope="session")
def ve():
    return vesde(0.01, 50.0)


@pytest.fixture(scope="session")
def gauss_oracle(vp):
    """Single Gaussian N(0.5, 0.25^2): the workhorse convergence oracle."""
    gmm = GaussianMixture([1.0], [0.5], [0.25])
    return gmm, EpsilonField(gmm, vp)


@pytest.fixture(scope="session")
def concentrated_oracle(vp):
    """Concentrated Gaussian N(0, 0.1^2): stresses the small-t regime."""
    gmm = GaussianMixture([1.0], [0.0], [0.1])
    return gmm, EpsilonField(gmm, vp)


@pytest.fixture(scope="session")
def bimodal_oracle(vp):
    gmm = GaussianMixture([0.5, 0.5], [1.0, -1.0], [0.2, 0.2])
    return gmm, EpsilonField(gmm, vp)


@pytest.fixture(scope="session")
def x_batch():
    return np.random.default_rng(1).standard_normal(64)
