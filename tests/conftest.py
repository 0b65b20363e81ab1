import numpy as np
import pytest

from beliefclt import MODEL_REGISTRY


@pytest.fixture
def bernoulli():
    return MODEL_REGISTRY["bernoulli"]


@pytest.fixture
def two_interval():
    return MODEL_REGISTRY["two_interval"]


@pytest.fixture
def coin():
    return MODEL_REGISTRY["coin"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
