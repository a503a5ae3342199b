"""Shared fixtures: small seeded graphs and prebuilt transform systems."""

import numpy as np
import pytest
from hypothesis import settings

from ufg.datasets import random_er_graph
from ufg.filters import haar_filter_bank
from ufg.graphs import eigendecompose, normalized_laplacian
from ufg.transform import FrameletSystem, build_operators

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_graph():
    return random_er_graph(24, avg_degree=4.0, rng=np.random.default_rng(7))


@pytest.fixture(scope="session")
def small_laplacian(small_graph):
    return normalized_laplacian(small_graph)


@pytest.fixture(scope="session")
def small_spectrum(small_laplacian):
    return eigendecompose(small_laplacian)


@pytest.fixture(scope="session")
def small_system(small_spectrum):
    lam = float(small_spectrum.values[-1])
    return FrameletSystem(haar_filter_bank(), levels=2, lam_max=lam, mode="exact")


@pytest.fixture(scope="session")
def small_operator(small_system, small_laplacian, small_spectrum):
    return build_operators(small_system, small_laplacian, small_spectrum)
