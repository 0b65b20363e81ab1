import numpy as np
import pytest

from beliefclt import BeliefModel, FocalElement, bernoulli_model


@pytest.fixture
def bernoulli():
    return bernoulli_model(0.3, 0.7)


@pytest.fixture
def two_interval():
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.5),
         (FocalElement([(1.0, 3.0)]), 0.5)],
        bound=3.0,
    )


@pytest.fixture
def coin():
    return BeliefModel(
        [(FocalElement([(-1.0, -1.0)]), 0.5),
         (FocalElement([(1.0, 1.0)]), 0.5)],
        bound=1.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
